"""The untraced end-to-end run of one workload on both tiers."""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPException
from pathlib import Path
from typing import Callable, List, Tuple

from repro.batch import BatchPlan, run_batch
from repro.service.client import ServiceClient

import servers
from loadgen import Phase, closed_loop, open_loop
from stats import median, percentile
from streams import OK, WRONG, Op, Plan, References, Req, judge_items, judge_response

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())

#: Open-loop percentiles are the median over at most this many windows.
OPEN_WINDOWS = 5
#: Closed-loop rates are the median over windows of at least
#: ``CLOSED_WINDOW_SAMPLES`` responses each, at most ``CLOSED_WINDOWS``.
CLOSED_WINDOWS, CLOSED_WINDOW_SAMPLES = 8, 100
#: Set-up is repeated until the repeats have taken ``SETUP_BUDGET_S``, and
#: at least ``SETUP_MIN_REPEATS`` times; ``setup_s`` is their median.  A
#: quick set-up (batch-decide's in-process compile) so gets many repeats.
SETUP_BUDGET_S, SETUP_MIN_REPEATS = 1.5, 3


def repeat_setup(set_up: Callable[[], float]) -> List[float]:
    """Times of repeated set-ups, per ``SETUP_BUDGET_S``."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_BUDGET_S:
        times.append(set_up())
    return times


def workload_spec(name: str) -> dict:
    return SPEC["workloads"][name]


def ops_needed(name: str, tier_seconds: float) -> Tuple[int, int]:
    """Operations for the open phase of one tier, and the whole stream."""
    spec = workload_spec(name)
    n_open = int(spec["rate_rps"] * tier_seconds * spec["open_share"]) + 1
    return n_open, n_open + spec["closed_ops"]


# ----------------------------------------------------------------------
# Executors: run one operation, return its raw outcome
# ----------------------------------------------------------------------


def http_executor(port: int) -> Callable[[Op], List[Tuple[int, dict]]]:
    local = threading.local()

    def client() -> ServiceClient:
        if getattr(local, "client", None) is None:
            local.client = ServiceClient("127.0.0.1", port, timeout=60.0)
        return local.client

    def send(method: str, path: str, payload) -> Tuple[int, dict]:
        try:
            return client().request(method, path, payload)
        except (OSError, HTTPException, ValueError):
            return -1, {}

    def execute(op: Op) -> List[Tuple[int, dict]]:
        outcome = []
        for req in op.reqs:
            status, envelope = send(req.method, req.path, req.payload)
            code = (envelope.get("error") or {}).get("code")
            if status == 404 and code == "unknown-schema" and req.reregister:
                send("POST", "/schemas", {"schema": req.reregister})
                status, envelope = send(req.method, req.path, req.payload)
            outcome.append((status, envelope))
        return outcome

    return execute


def run_job(op: Op) -> list:
    """A batch-decide job: ``run_batch`` with ``repro batch``'s default
    executor and worker count."""
    operation, text, _fp, items, _expect = op.job
    return run_batch(BatchPlan(operation=operation, items=items, schema_text=text)).results


def batch_over_http(op: Op) -> Op:
    """The same job as one POST /batch (the pool tier of batch-decide)."""
    operation, _text, fingerprint, items, expect = op.job
    req = Req("POST", "/batch", {"fingerprint": fingerprint, "operation": operation,
                                 "items": list(items)}, ("batch", expect), items=len(items))
    return Op("job", (req,))


# ----------------------------------------------------------------------
# Checking and summarizing a phase
# ----------------------------------------------------------------------


class Tally:
    """Requests attempted, failed (no answer) and wrong (a bad answer)."""

    def __init__(self, refs: References):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy = 0

    def _count(self, verdict: str) -> bool:
        self.attempted += 1
        if verdict != OK:
            self.failed += 1
            self.wrong += verdict == WRONG
        return verdict == OK

    def check(self, op: Op, outcome) -> Tuple[bool, int, int]:
        """(op correct, correct requests, correct decisions)."""
        if op.job is not None and not op.reqs:  # in-process batch job
            expect = op.job[4]
            good = self._count(judge_items(self.refs, expect, outcome))
            return good, int(good), len(expect) if good else 0
        all_good, requests, items = True, 0, 0
        for req, (status, envelope) in zip(op.reqs, outcome):
            good = self._count(judge_response(self.refs, req, status, envelope))
            self.busy += (envelope.get("error") or {}).get("code") == "busy"
            if good:
                requests += 1
                items += req.items
            else:
                all_good = False
        return all_good, requests, items

    def unsent(self, op: Op) -> None:
        count = max(1, len(op.reqs))
        self.attempted += count
        self.failed += count


def summarize_open(phase: Phase, ops: List[Op], tally: Tally, limit_ms: float) -> dict:
    """Latency figures of an open-loop phase.

    Each percentile is the median over equal windows of the schedule of
    that percentile within the window, so one burst of outside noise
    moves at most one window.  A window holds enough ordinary operations
    for ten samples beyond its percentile (p99: 1000, p90: 100); with
    fewer, the whole phase is one window.
    """
    sent = {sample.index for sample in phase.samples}
    for index in range(phase.due):
        if index not in sent:
            tally.unsent(ops[index])
    latencies, lags, within = [], [], 0
    for sample in phase.samples:
        op = ops[sample.index]
        good, _requests, _items = tally.check(op, sample.outcome)
        latency_ms = (sample.done - sample.due) * 1000.0
        lags.append((sample.sent - sample.due) * 1000.0)
        if good and latency_ms <= limit_ms:
            within += 1
        latencies.append(latency_ms)
    return {
        "p50_ms": _windowed(latencies, 50, 10),
        "p90_ms": _windowed(latencies, 90, 100),
        "p99_ms": _windowed(latencies, 99, 1000),
        "samples": len(latencies),
        "within": within,
        "lag_p99_ms": percentile(lags, 99) if lags else 0.0,
        "due": phase.due,
        "sent": phase.sent,
    }


def _windowed(latencies: List[float], q: float, per_window: int) -> float:
    """Median over up to ``OPEN_WINDOWS`` equal windows (in schedule
    order) of each window's ``q`` percentile."""
    count = max(1, min(OPEN_WINDOWS, len(latencies) // per_window))
    size = len(latencies) / count
    return median([
        percentile(latencies[int(i * size):int((i + 1) * size)], q) for i in range(count)
    ])


def summarize_closed(phase: Phase, ops: List[Op], tally: Tally) -> dict:
    """Correct requests and decisions per second: the median over equal
    windows of the phase of each window's rate.  A window holds about
    ``CLOSED_WINDOW_SAMPLES`` responses or more, so a rate moves in
    steps of at most a hundredth of itself."""
    count = max(1, min(CLOSED_WINDOWS, len(phase.samples) // CLOSED_WINDOW_SAMPLES))
    width = phase.elapsed_s / count
    requests, items = [0] * count, [0] * count
    for sample in phase.samples:
        _good, good_requests, good_items = tally.check(ops[sample.index % len(ops)], sample.outcome)
        window = min(count - 1, int((sample.done - phase.start) / width))
        requests[window] += good_requests
        items[window] += good_items
    return {
        "max_rps": median(requests) / width,
        "items_per_s": median(items) / width,
        "ops": len(phase.samples),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run_tier(plan: Plan, seconds: float, workers: int, tally: Tally) -> dict:
    """One tier: repeated fresh set-ups (their median is ``setup_s``);
    the last server then gets the stream's opening, one operation per
    serving process, and runs the open loop and the closed loop.  Its
    peak RSS is the tier's."""
    spec = workload_spec(plan.name)
    n_open = ops_needed(plan.name, seconds)[0]
    senders = servers.nproc()
    ops = plan.ops if plan.name != "batch-decide" else [batch_over_http(op) for op in plan.ops]
    started: List[servers.Server] = []

    def set_up() -> float:
        if started:
            started.pop().stop()
        server, setup_s = servers.start(plan, workers=workers)
        started.append(server)
        return setup_s

    setups = repeat_setup(set_up)
    server = started.pop()
    try:
        execute = http_executor(server.port)
        for op in plan.opening[:max(1, workers)]:
            tally.check(op, execute(op))
        opened = open_loop(ops, spec["rate_rps"], seconds * spec["open_share"], senders, execute)
        # On schema-churn every closed-loop operation must be new to the
        # server; the phase ends early if the stream runs out.
        cpu_before = server.cpu_s()
        closed = closed_loop(ops[n_open:], seconds * (1 - spec["open_share"]), senders, execute,
                             cycle=plan.name != "schema-churn")
        cpu = server.cpu_s() - cpu_before
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    result = summarize_open(opened, ops, tally, spec["latency_limit_ms"])
    result.update(summarize_closed(closed, ops[n_open:], tally))
    result["cpu_ms_per_op"] = cpu * 1000.0 / len(closed.samples)
    result["setup_s"] = median(setups)
    result["setup_samples"] = len(setups)
    result["peak_rss_mb"] = rss
    return result


def run_in_process(plan: Plan, seconds: float, tally: Tally) -> dict:
    """batch-decide's first tier: ``run_batch`` in this process."""
    spec = workload_spec(plan.name)
    n_open = ops_needed(plan.name, seconds)[0]
    senders = servers.nproc()
    schemas = {op.job[1]: op for op in plan.ops}

    def set_up() -> float:
        began = time.perf_counter()
        for text, op in schemas.items():
            operation, _text, _fp, items, _expect = op.job
            BatchPlan(operation=operation, items=items, schema_text=text).compile()
        return time.perf_counter() - began

    setups = repeat_setup(set_up)
    servers.reset_own_hwm()
    opened = open_loop(plan.ops, spec["rate_rps"], seconds * spec["open_share"], senders, run_job)
    cpu_before = time.process_time()
    closed = closed_loop(plan.ops[n_open:], seconds * (1 - spec["open_share"]), senders, run_job)
    cpu = time.process_time() - cpu_before
    rss = servers.own_hwm_mb()
    result = summarize_open(opened, plan.ops, tally, spec["latency_limit_ms"])
    result.update(summarize_closed(closed, plan.ops[n_open:], tally))
    result["cpu_ms_per_op"] = cpu * 1000.0 / len(closed.samples)
    result["setup_s"] = median(setups)
    result["setup_samples"] = len(setups)
    result["peak_rss_mb"] = rss
    return result


def run(plan: Plan, seconds: float) -> Tuple[dict, dict, Tally]:
    """Both tiers; returns (every end-to-end figure, its sample count
    where it has one, tally)."""
    tally = Tally(plan.references)
    half = seconds / 2.0
    if plan.name == "batch-decide":
        first = run_in_process(plan, half, tally)
    else:
        first = run_tier(plan, half, 0, tally)
    pool = run_tier(plan, half, servers.nproc(), tally)
    values, samples = {}, {}
    for prefix, tier in (("", first), ("pool.", pool)):
        for key in ("setup_s", "p50_ms", "p90_ms", "p99_ms", "max_rps", "items_per_s",
                    "cpu_ms_per_op", "peak_rss_mb"):
            values[prefix + key] = tier[key]
        values[prefix + "loadgen.lag_p99_ms"] = tier["lag_p99_ms"]
        values[prefix + "loadgen.sent_share"] = tier["sent"] / tier["due"]
        samples[prefix + "setup_s"] = tier["setup_samples"]
        for key in ("p50_ms", "p90_ms", "p99_ms", "loadgen.lag_p99_ms"):
            samples[prefix + key] = tier["due"]
        for key in ("max_rps", "items_per_s", "cpu_ms_per_op"):
            samples[prefix + key] = tier["ops"]
    samples["slo_share"] = first["due"] + pool["due"]
    values["slo_share"] = (first["within"] + pool["within"]) / samples["slo_share"]
    values["fail_share"] = tally.failed / max(1, tally.attempted)
    values["ok_share"] = 1.0 - values["fail_share"]
    samples["fail_share"] = samples["ok_share"] = tally.attempted
    return values, samples, tally
