"""The traced run: per-layer metrics from spans and layer probes.

Spans are recorded from this file, around the public entry points of
each layer (nothing under ``src/`` changes): the wrappers replace each
function or method in every loaded ``repro`` module that refers to it,
and are removed again when the run ends.  A span has a name, start and
end, a parent span and a request id.  The parent is the innermost open
span on the same thread; a span opened on a thread with nothing open
(the server's handler thread, a ``repro-compute`` thread, a batch
worker) takes the innermost open *fork* span of the current request —
the call that handed work to another thread.  Requests are replayed
one at a time, so the current request id is a single value.

The run has four parts, in this order:

1. untraced probes that need clean timing: the HTTP round trip on both
   tiers (fresh server processes), ``ServiceState.handle`` in-process,
   JSON, and the ``DeadlineRunner`` costs;
2. the workload's ordinary operations replayed on an in-process
   ``ServiceState``, untraced;
3. traced layer probes: the same public calls, timed on this
   workload's own schemas, queries and documents, so every per-call
   metric is measured on every workload;
4. the operations of part 2 replayed again, traced — the difference of
   the two replays' median latencies is the tracing overhead, and the
   traced spans give each layer's share of self time.  On deadline-mix
   a last traced replay that starts with the stream's NP-hard opening
   gives the shares and the ``/stats`` counters instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import random
import shutil
import sys
import threading
import time
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import ArtifactStore, Engine
from repro.reductions.sat import random_3sat
from repro.reductions.threesat import reduce_formula
from repro.service import SchemaRegistry, ServiceLimits, TypedQueryService
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceState
from repro.service.limits import DeadlineExceeded, DeadlineRunner, ServiceBusy
from repro.typing import is_satisfiable
from repro.workloads.mutations import mutate_schema

import servers
import workloads
from metrics import LAYERS
from stats import median, percentile, self_times
from streams import Plan

# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------


class Recorder:
    """Spans kept in memory; ``rid`` names the request being replayed."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.rid: Any = None
        self.engines: List[Engine] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._forks: Dict[Any, List[int]] = {}

    def open(self, name: str, fork: bool) -> tuple:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            parent, rid = stack[-1], local.rid
        else:
            rid = local.rid = self.rid
            with self._lock:
                forks = self._forks.get(rid)
                parent = forks[-1] if forks else None
        span_id = next(self._ids)
        stack.append(span_id)
        if fork:
            with self._lock:
                self._forks.setdefault(rid, []).append(span_id)
        return span_id, name, parent, rid, fork, time.perf_counter()

    def close(self, token: tuple, size: Optional[int] = None) -> None:
        end = time.perf_counter()
        span_id, name, parent, rid, fork, start = token
        stack = self._local.stack
        if span_id in stack:
            stack.remove(span_id)
        record = {"id": span_id, "name": name, "parent": parent, "rid": rid,
                  "start": start, "end": end, "size": size}
        with self._lock:
            self.spans.append(record)
            if fork:
                self._forks[rid].remove(span_id)


def traced(recorder: Recorder, fn: Callable, name: str, fork: bool = False,
           size_attr: Optional[str] = None) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            token = recorder.open(name, fork)
            try:
                yield from fn(*args, **kwargs)
            finally:
                recorder.close(token)

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.open(name, fork)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(token, getattr(result, size_attr, None) if size_attr else None)

    return wrapper


#: (module, attribute, span name, fork, size attribute of the result)
TARGETS = (
    ("repro.service.client", "ServiceClient.request", "edge.roundtrip", True, None),
    ("repro.service.daemon", "ServiceState.handle", "service.handle", False, None),
    ("repro.service.registry", "SchemaRegistry.register", "registry.register", False, None),
    ("repro.service.registry", "SchemaRegistry.get", "registry.get", False, None),
    ("repro.service.registry", "SchemaRegistry.migrate", "registry.migrate", False, None),
    ("repro.service.limits", "DeadlineRunner.call", "limits.call", True, None),
    ("repro.query.parser", "parse_query", "parse.query", False, None),
    ("repro.schema.parser", "parse_schema", "parse.schema", False, None),
    ("repro.data.parser", "parse_data", "parse.data", False, None),
    ("repro.automata.nfa", "thompson", "automata.thompson", False, "n_states"),
    ("repro.automata.compiled", "compile_nfa", "automata.compile", False, "n_states"),
    ("repro.automata.ops", "is_subset", "automata.legacy_subset", False, None),
    ("repro.service.registry", "prewarm", "engine.prewarm", False, None),
    ("repro.engine.core", "Engine.warm_from_store", "engine.warm_from_store", False, None),
    ("repro.engine.core", "Engine.persist_to_store", "engine.persist", False, None),
    ("repro.engine.store", "ArtifactStore.put", "engine.store_put", False, None),
    ("repro.engine.store", "ArtifactStore.get", "engine.store_get", False, None),
    ("repro.typing.satisfiability", "is_satisfiable", "typing.satisfiable", False, None),
    ("repro.typing.inference", "iterate_inferred_types", "typing.infer", False, None),
    ("repro.typing.typecheck", "check_types", "typing.check", False, None),
    ("repro.typing.typecheck", "check_total_types", "typing.check", False, None),
    ("repro.query.eval", "evaluate", "eval.evaluate", False, None),
    ("repro.schema.conformance", "find_type_assignment", "conformance.assign", False, None),
    ("repro.schema.delta", "diff_schemas", "delta.diff", False, None),
    ("repro.schema.migrate", "analyze_migration", "migrate.analyze", False, None),
    ("repro.batch.executors", "run_batch", "batch.run", False, None),
    ("repro.batch.plan", "BatchPlan.compile", "batch.compile", False, None),
    ("repro.batch.executors", "run_items_shared", "batch.shared", True, None),
    ("repro.batch.plan", "item_envelope", "batch.item", False, None),
)


class _TracedJson:
    """The ``json`` module as the daemon sees it, with timed codec calls."""

    def __init__(self, recorder: Recorder):
        self.loads = traced(recorder, json.loads, "json.decode")
        self.dumps = traced(recorder, json.dumps, "json.encode")

    def __getattr__(self, name: str):
        return getattr(json, name)


class Patches:
    """Installs the wrappers of :data:`TARGETS`; ``undo`` removes them."""

    def __init__(self, recorder: Recorder):
        self._undo: List[Tuple[Any, str, Any]] = []
        for module_name, attribute, name, fork, size_attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._set(owner, method, traced(recorder, original, name, fork, size_attr))
                continue
            original = getattr(module, attribute)
            wrapper = traced(recorder, original, name, fork, size_attr)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, wrapper)
        daemon = importlib.import_module("repro.service.daemon")
        self._set(daemon, "json", _TracedJson(recorder))
        init = Engine.__init__

        def engine_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            recorder.engines.append(engine)

        self._set(Engine, "__init__", engine_init)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def undo(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_shares(spans: List[dict]) -> Dict[str, float]:
    """Each layer's share of the summed self time of ``spans``."""
    own = self_times(spans)
    by_layer = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        by_layer[layer_of(span["name"])] += own[span["id"]]
    total = sum(by_layer.values()) or 1.0
    return {layer: value / total for layer, value in by_layer.items()}


def call_times(spans: List[dict], name: str, outermost: bool = False) -> List[float]:
    """Durations (s) of spans ``name``; with ``outermost``, only those not
    nested in a span of their own layer (inference runs many
    satisfiability checks; those are not requests for one)."""
    by_id = {span["id"]: span for span in spans}
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        if outermost and parent is not None and layer_of(parent["name"]) == layer_of(name):
            continue
        out.append(span["end"] - span["start"])
    return out


# ----------------------------------------------------------------------
# Replay on an in-process service
# ----------------------------------------------------------------------


class _Hosted:
    """An in-process threaded tier on a free port with a fresh store."""

    def __init__(self, plan: Plan):
        self.store_dir = servers.scratch_dir("traced-")
        registry = SchemaRegistry(max_schemas=plan.max_schemas,
                                  store=ArtifactStore(root=self.store_dir))
        self.service = TypedQueryService(port=0, registry=registry, limits=ServiceLimits()).start()
        self.state = self.service.state

    def close(self) -> None:
        self.service.shutdown()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def replay(plan: Plan, budget_s: float, recorder: Optional[Recorder],
           tally: workloads.Tally, n_ops: Optional[int] = None, opening: bool = False) -> dict:
    """Sequential replay of the stream; stops after ``budget_s`` or
    ``n_ops``.  With ``opening`` the hosted service (one serving process)
    first gets the stream's first opening operation."""
    latencies: List[float] = []
    detached_peak = 0
    hosted = None
    if plan.name == "batch-decide":
        execute = workloads.run_job
    else:
        hosted = _Hosted(plan)
        for text, _fp in plan.setup_schemas:
            hosted.state.registry.register(text)
        execute = workloads.http_executor(hosted.service.port)
    stats_before = hosted.state.stats_payload() if hosted else None
    stop = time.perf_counter() + budget_s
    try:
        if recorder is not None:
            recorder.rid = "opening"
        for op in plan.opening[:1] if opening else ():
            tally.check(op, execute(op))
        for index, op in enumerate(plan.ops):
            if (n_ops is not None and index >= n_ops) or (n_ops is None and time.perf_counter() > stop):
                break
            if recorder is not None:
                recorder.rid = index
            started = time.perf_counter()
            outcome = execute(op)
            latencies.append((time.perf_counter() - started) * 1000.0)
            tally.check(op, outcome)
            if hosted:
                detached_peak = max(detached_peak, hosted.state.runner.stats()["detached"])
        stats_after = hosted.state.stats_payload() if hosted else None
    finally:
        if recorder is not None:
            recorder.rid = None
        if hosted:
            hosted.close()
    return {"latencies": latencies, "count": len(latencies), "before": stats_before,
            "after": stats_after, "detached_peak": detached_peak}


def _counters(result: dict, tally_busy: int) -> Dict[str, float]:
    before, after = result["before"], result["after"]
    out = {name: 0.0 for name in (
        "registry.evictions", "registry.store_hits", "registry.register_races", "memo.hit_ratio",
        "limits.timeouts", "limits.detached_peak", "limits.detached_end")}
    out["limits.busy"] = float(tally_busy)
    if after is None:
        return out
    reg_b, reg_a = before["registry"], after["registry"]
    out["registry.evictions"] = reg_a["evicted"] - reg_b["evicted"]
    out["registry.store_hits"] = reg_a["store_hits"] - reg_b["store_hits"]
    out["registry.register_races"] = reg_a["register_races"] - reg_b["register_races"]
    hits = sum(e["decisions"]["hits"] for e in reg_a["engines"].values())
    misses = sum(e["decisions"]["misses"] for e in reg_a["engines"].values())
    out["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["limits.timeouts"] = after["limits"]["timeouts"] - before["limits"]["timeouts"]
    out["limits.detached_peak"] = result["detached_peak"]
    out["limits.detached_end"] = after["limits"]["detached"]
    return out


def _engine_counters(engines: List[Engine]) -> Dict[str, float]:
    hits = misses = evictions = 0
    for engine in engines:
        stats = engine.stats()
        hits, misses, evictions = hits + stats.hits, misses + stats.misses, evictions + stats.evictions
    return {
        "engine.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.misses": float(misses),
        "engine.evictions": float(evictions),
    }


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------


def _timed_us(fn: Callable[[], Any], repeats: int) -> List[float]:
    out = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        out.append((time.perf_counter() - started) * 1e6)
    return out


def http_probes(plan: Plan, values: Dict[str, float]) -> None:
    """Memo-hit /satisfiable round trips on both tiers, and the same
    request through ``ServiceState.handle`` in-process."""
    corpus = plan.corpora[0]
    payload = {"fingerprint": corpus.fingerprint, "query": corpus.queries[0]}
    schemas = [(corpus.schema_text, corpus.fingerprint)]
    probe_plan = Plan(plan.name, schemas, [])
    medians = {}
    for label, workers in (("threaded", 0), ("pool", servers.nproc())):
        server, _setup = servers.start(probe_plan, workers=workers)
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.request("POST", "/satisfiable", payload)
            times = _timed_us(lambda: client.request("POST", "/satisfiable", payload), 400)
            client.close()
        finally:
            server.stop()
        medians[label] = median(times)
        if label == "threaded":
            values["edge.roundtrip_us"] = medians[label]
            values["edge.roundtrip_p99_us"] = percentile(times, 99)
    values["pool.hop_us"] = medians["pool"] - medians["threaded"]
    state = ServiceState(registry=SchemaRegistry())
    state.registry.register(corpus.schema_text)
    body = json.dumps(payload).encode()
    state.handle("POST", "/satisfiable", body)
    times = _timed_us(lambda: state.handle("POST", "/satisfiable", body), 400)
    values["service.handle_us"] = median(times)
    values["service.handle_p99_us"] = percentile(times, 99)


def _bodies(plan: Plan) -> List[Any]:
    bodies = []
    for op in plan.ops[:200]:
        if op.job is not None:
            bodies.append({"operation": op.job[0], "items": list(op.job[3])})
        bodies.extend(req.payload for req in op.reqs if req.payload is not None)
    return bodies


def codec_and_limits_probes(plan: Plan, seed: int, values: Dict[str, float]) -> None:
    bodies = _bodies(plan)
    encoded = [json.dumps(body) for body in bodies]
    values["json.encode_us"] = median([t for body in bodies for t in _timed_us(lambda: json.dumps(body), 3)])
    values["json.decode_us"] = median([t for text in encoded for t in _timed_us(lambda: json.loads(text), 3)])
    runner = DeadlineRunner(ServiceLimits())
    values["limits.call_overhead_us"] = median(_timed_us(lambda: runner.call(lambda: None, 5.0), 300))
    values["limits.slot_free_ms"] = slot_free_ms(seed)


def slot_free_ms(seed: int) -> float:
    """From a deadline until the single computation slot takes work again.

    The probe occupies a one-slot runner with an NP-hard decision
    (a 3-variable 3SAT reduction, about half a second to solve) under a
    50 ms deadline, then retries a no-op every millisecond.
    """
    formula = random_3sat(3, 9, rng=random.Random(f"slot:{seed}"))
    schema, query = reduce_formula(formula)
    engine = Engine()
    runner = DeadlineRunner(ServiceLimits(max_slots=1, slot_wait_s=0.001))
    try:
        runner.call(lambda: is_satisfiable(query, schema, None, engine), 0.05)
    except DeadlineExceeded:
        pass
    expired = time.perf_counter()
    while True:
        try:
            runner.call(lambda: None, 1.0)
        except ServiceBusy:
            continue
        return (time.perf_counter() - expired) * 1000.0


def library_probes(plan: Plan, seed: int, recorder: Recorder, values: Dict[str, float]) -> None:
    """Traced direct calls of each layer on this workload's inputs."""
    # Imported here, after the patches: these names must be the wrappers.
    from repro.batch import BatchPlan, run_batch
    from repro.batch.executors import default_workers
    from repro.data import parse_data
    from repro.query import evaluate, parse_query
    from repro.schema import find_type_assignment, parse_schema
    from repro.schema.delta import diff_schemas
    from repro.schema.migrate import analyze_migration
    from repro.typing import check_types, is_satisfiable
    from repro.typing.inference import iterate_inferred_types

    recorder.rid = "probe"
    store_dir = servers.scratch_dir("probe-")
    try:
        corpora = plan.corpora[:4]
        store = ArtifactStore(root=store_dir)
        registry = SchemaRegistry(store=store)
        for corpus in corpora:
            parse_schema(corpus.schema_text)
            registry.register(corpus.schema_text)
        for corpus in corpora:
            for _ in range(25):
                registry.get(corpus.fingerprint)
            store.get(corpus.fingerprint)
        values["store.bytes"] = float(sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(store_dir) for name in names if name.endswith(".art")))
        for corpus in corpora:
            entry = registry.get(corpus.fingerprint)
            schema, engine = entry.schema, entry.engine
            for text in corpus.queries[:8]:
                query = parse_query(text)
                is_satisfiable(query, schema, None, engine)
                list(islice(iterate_inferred_types(query, schema, None, engine), 4))
            for text, assignment in corpus.checks:
                check_types(parse_query(text), schema, dict(assignment), engine)
            for document in corpus.documents:
                graph = parse_data(document)
                find_type_assignment(graph, schema, engine)
                for text in corpus.queries[:4]:
                    evaluate(parse_query(text), graph, engine=engine)
        rng = random.Random(f"perfbench:probe:{plan.name}:{seed}")
        for corpus in corpora[:3]:
            old = parse_schema(corpus.schema_text)
            new, _kind = mutate_schema(old, rng)
            engine = Engine()
            diff_schemas(old, new, engine=engine)
            analyze_migration(old, new, queries=corpus.queries[:4], policy="compatible",
                              engine_old=engine, engine_new=Engine())
        rates = {}
        for executor in ("sequential", "thread"):
            started = time.perf_counter()
            items = 0
            for corpus in corpora:
                batch = BatchPlan(operation="satisfiable", schema_text=corpus.schema_text,
                                  items=tuple({"query": q} for q in corpus.queries))
                items += len(run_batch(batch, executor=executor).results)
            rates[executor] = items / (time.perf_counter() - started)
        values["batch.parallel_eff"] = rates["thread"] / (rates["sequential"] * default_workers())
    finally:
        recorder.rid = None
        shutil.rmtree(store_dir, ignore_errors=True)


PER_CALL = (
    ("parse.query_us", "parse.query", 1e6), ("parse.schema_ms", "parse.schema", 1e3),
    ("registry.get_us", "registry.get", 1e6), ("registry.register_ms", "registry.register", 1e3),
    ("automata.thompson_us", "automata.thompson", 1e6), ("automata.compile_ms", "automata.compile", 1e3),
    ("engine.prewarm_ms", "engine.prewarm", 1e3), ("store.put_ms", "engine.store_put", 1e3),
    ("store.get_ms", "engine.store_get", 1e3), ("typing.satisfiable_us", "typing.satisfiable", 1e6),
    ("typing.infer_ms", "typing.infer", 1e3), ("typing.check_us", "typing.check", 1e6),
    ("eval.evaluate_us", "eval.evaluate", 1e6), ("conformance.assign_us", "conformance.assign", 1e6),
    ("delta.diff_ms", "delta.diff", 1e3), ("migrate.analyze_ms", "migrate.analyze", 1e3),
    ("batch.compile_ms", "batch.compile", 1e3), ("batch.item_us", "batch.item", 1e6),
)


def probe_metrics(spans: List[dict], values: Dict[str, float]) -> None:
    for metric, name, scale in PER_CALL:
        times = call_times(spans, name, outermost=name.startswith("typing."))
        values[metric] = median(times) * scale if times else 0.0
    values["registry.register_p99_ms"] = percentile(call_times(spans, "registry.register"), 99) * 1e3
    subset = [s for s in spans if s["name"] == "automata.legacy_subset"]
    values["automata.legacy_subset_ms"] = sum(s["end"] - s["start"] for s in subset) * 1e3
    values["automata.legacy_subset_calls"] = float(len(subset))
    values["automata.nfa_states"] = float(sum(s["size"] or 0 for s in spans if s["name"] == "automata.thompson"))
    values["automata.dfa_states"] = float(sum(s["size"] or 0 for s in spans if s["name"] == "automata.compile"))


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def run(plan: Plan, seconds: float) -> Tuple[Dict[str, float], Dict[str, int], workloads.Tally]:
    tally = workloads.Tally(plan.references)
    seed = plan.corpora[0].seed
    values: Dict[str, float] = {}
    http_probes(plan, values)
    codec_and_limits_probes(plan, seed, values)

    # The overhead pair replays the same operations, untraced and then
    # traced, without the stream's opening, so no abandoned NP-hard
    # solve loads one of the pair only.
    untraced = replay(plan, seconds * 0.2, None, tally)
    recorder = Recorder()
    patches = Patches(recorder)
    try:
        # Probes first: NP-hard computations the stream leaves running
        # after their deadline would otherwise slow every probe after it.
        library_probes(plan, seed, recorder, values)
        probe_spans = list(recorder.spans)
        recorder.engines.clear()
        traced_run = replay(plan, 0.0, recorder, tally, n_ops=untraced["count"])
        stream = traced_run
        if plan.opening:
            # Layer shares and counters come from the stream with its
            # opening (deadline-mix's NP-hard request), replayed last
            # because the abandoned solve slows everything after it.
            del recorder.spans[len(probe_spans):]
            recorder.engines.clear()
            stream = replay(plan, seconds * 0.2, recorder, tally, opening=True)
        stream_spans = recorder.spans[len(probe_spans):]
        values.update(_counters(stream, tally.busy))
        values.update(_engine_counters(recorder.engines))
    finally:
        patches.undo()
    probe_metrics(probe_spans, values)

    for layer, share in layer_shares(stream_spans).items():
        values[f"share.{layer}"] = share
    roundtrip = sum(s["end"] - s["start"] for s in stream_spans if s["name"] == "edge.roundtrip")
    handle = sum(s["end"] - s["start"] for s in stream_spans if s["name"] == "service.handle")
    values["edge.share"] = 1.0 - handle / roundtrip if roundtrip else 0.0
    values["trace.spans"] = float(len(stream_spans))
    values["trace.overhead_ms"] = median(traced_run["latencies"]) - median(untraced["latencies"])
    samples = {"edge.roundtrip_us": 400, "service.handle_us": 400, "trace.spans": len(stream_spans),
               "trace.overhead_ms": len(traced_run["latencies"])}
    return values, samples, tally
