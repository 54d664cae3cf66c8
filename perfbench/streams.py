"""Seeded request streams for the four workloads, with checked answers.

Every stream is a pure function of ``(workload, seed)``: the same seed
yields byte-identical operations (see :func:`digest`).  The program
under test receives only the generated requests.  Each request carries
the answer it must produce, computed here by :class:`References` on a
fresh library engine — no HTTP, no decision memo, no pool — and,
where :mod:`repro.oracle` reaches, cross-checked against the brute-force
reference semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data import data_to_string, parse_data
from repro.engine import Engine
from repro.oracle import check_assignment, exhaustive_type_assignment, naive_evaluate
from repro.query import evaluate, parse_query, query_to_string
from repro.reductions.sat import dpll, random_3sat
from repro.reductions.threesat import reduce_formula
from repro.replay.mix import resolve_mix
from repro.schema import find_type_assignment, parse_schema, schema_to_string
from repro.schema.migrate import analyze_migration
from repro.service.pool import shard_of
from repro.typing import check_types, is_satisfiable
from repro.typing.inference import iterate_inferred_types
from repro.workloads.domains import DomainCorpus, domain_corpus
from repro.workloads.instances import random_instance
from repro.workloads.mutations import mutate_schema

#: Largest candidate product a brute-force oracle is asked to walk.
ORACLE_BUDGET = 2000
INFER_LIMIT = 4


@dataclass(frozen=True)
class Req:
    """One HTTP request and the answer it must produce."""

    method: str
    path: str
    payload: Optional[dict]
    expect: tuple
    #: Decisions the request answers (a /batch request answers its items).
    items: int = 1
    #: Schema text to re-register when the server answers 404
    #: ``unknown-schema`` (the registry evicted it); then retry once.
    reregister: Optional[str] = None


@dataclass(frozen=True)
class Op:
    """One logical operation: requests sent in order by one sender."""

    kind: str
    reqs: Tuple[Req, ...] = ()
    #: batch-decide only: ``(operation, schema_text, fingerprint, items,
    #: expected item results)``.
    job: Optional[tuple] = None


@dataclass
class Plan:
    """A workload instance: what set-up registers and what traffic runs."""

    name: str
    setup_schemas: List[Tuple[str, str]]  # (schema text, fingerprint)
    ops: List[Op]
    #: The registry bound servers run with (``repro serve --max-schemas``).
    max_schemas: int = 64
    references: Optional["References"] = None
    #: The domain corpora the stream draws from (layer probe inputs).
    corpora: List[DomainCorpus] = field(default_factory=list)
    #: Operations sent before the timed window, one to each serving
    #: process (a pool worker each, in order; the threaded tier the first).
    opening: List[Op] = field(default_factory=list)


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------


def canon_bindings(bindings: Sequence[dict]) -> Tuple[str, ...]:
    return tuple(sorted(json.dumps(b, sort_keys=True) for b in bindings))


def json_round(value: Any) -> Any:
    """``value`` as it looks after a JSON round trip (tuples -> lists)."""
    return json.loads(json.dumps(value))


class References:
    """Reference answers from the library on fresh engines, memoized.

    ``mismatches`` lists every disagreement between the library and the
    brute-force oracle; any entry fails the run.
    """

    def __init__(self) -> None:
        self._schemas: Dict[str, tuple] = {}
        self._memo: Dict[tuple, Any] = {}
        self.mismatches: List[str] = []
        self.oracle_checked = 0
        self.oracle_out_of_reach = 0

    def schema(self, text: str):
        entry = self._schemas.get(text)
        if entry is None:
            schema = parse_schema(text)
            entry = (schema, Engine(), schema.fingerprint())
            self._schemas[text] = entry
        return entry

    def fingerprint(self, text: str) -> str:
        return self.schema(text)[2]

    def _cached(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def satisfiable(self, text: str, query: str) -> bool:
        def compute() -> bool:
            schema, engine, _ = self.schema(text)
            return bool(is_satisfiable(parse_query(query), schema, None, engine))

        return self._cached(("sat", text, query), compute)

    def check(self, text: str, query: str, assignment: dict) -> bool:
        def compute() -> bool:
            schema, engine, _ = self.schema(text)
            return bool(check_types(parse_query(query), schema, assignment, engine))

        key = ("check", text, query, tuple(sorted(assignment.items())))
        return self._cached(key, compute)

    def infer(self, text: str, query: str) -> list:
        def compute() -> list:
            schema, engine, _ = self.schema(text)
            out = []
            for pins in iterate_inferred_types(parse_query(query), schema, None, engine):
                out.append(dict(pins))
                if len(out) >= INFER_LIMIT:
                    break
            return json_round(out)

        return self._cached(("infer", text, query), compute)

    def evaluate(self, query: str, data: str) -> Tuple[str, ...]:
        def compute() -> Tuple[str, ...]:
            parsed, graph = parse_query(query), parse_data(data)
            found = canon_bindings(json_round(evaluate(parsed, graph)))
            n_vars = len([v for v in parsed.node_vars() if v != parsed.root_var])
            if len(graph.nodes) ** max(1, n_vars) <= ORACLE_BUDGET:
                self.oracle_checked += 1
                expected = canon_bindings(json_round(naive_evaluate(parsed, graph)))
                if set(expected) != set(found):
                    self.mismatches.append(f"evaluate {query!r}: oracle disagrees")
            else:
                self.oracle_out_of_reach += 1
            return found

        return self._cached(("eval", query, data), compute)

    def conforms(self, text: str, data: str) -> bool:
        def compute() -> bool:
            schema, engine, _ = self.schema(text)
            graph = parse_data(data)
            assignment = find_type_assignment(graph, schema, engine)
            try:
                expected = exhaustive_type_assignment(graph, schema, ORACLE_BUDGET) is not None
            except ValueError:  # assignment space beyond the oracle's reach
                self.oracle_out_of_reach += 1
                if assignment is not None and not check_assignment(graph, schema, assignment):
                    self.mismatches.append("conforms: library assignment fails Definition 2.1")
            else:
                self.oracle_checked += 1
                if expected != (assignment is not None):
                    self.mismatches.append("conforms: oracle disagrees")
            return assignment is not None

        return self._cached(("conf", text, data), compute)

    def assignment_ok(self, text: str, data: str, assignment: Optional[dict]) -> bool:
        """A returned type assignment checked against Definition 2.1."""
        if assignment is None:
            return not self.conforms(text, data)
        key = ("assign", text, data, tuple(sorted(assignment.items())))
        return self._cached(
            key,
            lambda: check_assignment(parse_data(data), self.schema(text)[0], assignment),
        )

    def migrate(self, old: str, new: str, queries: Tuple[str, ...], policy: str) -> tuple:
        def compute() -> tuple:
            old_schema, old_engine, _ = self.schema(old)
            new_schema, new_engine, new_fp = self.schema(new)
            report = analyze_migration(
                old_schema, new_schema, queries=queries, policy=policy,
                engine_old=old_engine, engine_new=new_engine,
            )
            return (report.accepted, report.compatibility, new_fp)

        return self._cached(("migrate", old, new, queries, policy), compute)


# ----------------------------------------------------------------------
# Answer checking
# ----------------------------------------------------------------------


def batch_item_expect(refs: References, operation: str, text: str, item: dict) -> tuple:
    if operation == "satisfiable":
        return ("satisfiable", refs.satisfiable(text, item["query"]))
    if operation == "check":
        return ("well_typed", refs.check(text, item["query"], item["assignment"]))
    if operation == "infer":
        return ("infer", refs.infer(text, item["query"]))
    if operation == "evaluate":
        return ("evaluate", refs.evaluate(item["query"], item["data"]))
    if operation == "conforms":
        refs.conforms(text, item["data"])
        return ("conforms", text, item["data"])
    raise ValueError(f"no reference for batch operation {operation!r}")


def result_ok(refs: References, expect: tuple, result: dict) -> bool:
    """True when a decision ``result`` payload matches ``expect``."""
    kind = expect[0]
    if kind == "satisfiable":
        return result.get("satisfiable") is expect[1]
    if kind == "well_typed":
        return result.get("well_typed") is expect[1]
    if kind == "infer":
        return json_round(result.get("assignments")) == expect[1]
    if kind == "evaluate":
        return canon_bindings(json_round(result.get("bindings", []))) == expect[1]
    if kind == "evaluate+conforms":
        return (
            canon_bindings(json_round(result.get("bindings", []))) == expect[1]
            and result.get("conforms") is expect[2]
        )
    if kind == "conforms":
        text, data = expect[1], expect[2]
        return result.get("valid") is refs.conforms(text, data) and refs.assignment_ok(
            text, data, result.get("assignment")
        )
    if kind == "fingerprint":
        return result.get("fingerprint") == expect[1]
    if kind == "migrate":
        return (
            result.get("accepted") is expect[1]
            and result.get("compatibility") == expect[2]
            and result.get("new_fingerprint") == (expect[3] if expect[1] else result.get("fingerprint"))
        )
    raise ValueError(f"unknown expectation {kind!r}")


#: Verdicts on one answer: right; failed (an error, a refusal, a
#: transport error — no answer at all); wrong (an answer that disagrees
#: with the reference).  Only a wrong answer fails the run.
OK, FAILED, WRONG = "ok", "failed", "wrong"


def judge_items(refs: References, expects: Sequence[tuple], envelopes: Sequence[dict]) -> str:
    """Per-item batch envelopes against their expected results."""
    if len(envelopes) != len(expects) or not all(e.get("ok") for e in envelopes):
        return FAILED
    matches = all(
        result_ok(refs, expect, json_round(envelope.get("result") or {}))
        for envelope, expect in zip(envelopes, expects)
    )
    return OK if matches else WRONG


def judge_response(refs: References, req: Req, status: int, envelope: dict) -> str:
    """One HTTP answer; a deadline 503 is right only where allowed."""
    if req.expect[0] == "np":
        if status == 503 and (envelope.get("error") or {}).get("code") == "timeout":
            return OK
        if status != 200:
            return FAILED
        return OK if (envelope.get("result") or {}).get("satisfiable") is req.expect[1] else WRONG
    if status != 200 or not envelope.get("ok"):
        return FAILED
    result = envelope.get("result") or {}
    if req.expect[0] == "batch":
        return judge_items(refs, req.expect[1], result.get("results") or [])
    return OK if result_ok(refs, req.expect, result) else WRONG


# ----------------------------------------------------------------------
# Stream construction
# ----------------------------------------------------------------------


def digest(plan: Plan) -> str:
    """SHA-256 over the set-up schemas and every operation, in order."""
    sha = hashlib.sha256()
    for text, fingerprint in plan.setup_schemas:
        sha.update(json.dumps([text, fingerprint]).encode())
    for op in plan.opening + plan.ops:
        record = {
            "kind": op.kind,
            "reqs": [[r.method, r.path, r.payload, list(r.expect)] for r in op.reqs],
            "job": op.job,
        }
        sha.update(json.dumps(record, sort_keys=True, default=list).encode())
    sha.update(json.dumps(plan.max_schemas).encode())
    return sha.hexdigest()


#: Documents per domain: ``domain_corpus`` makes two, and a run whose
#: evaluate cost hinges on two seeded documents varies from seed to seed.
DOCUMENTS_PER_DOMAIN = 16


def with_documents(corpora: Sequence[DomainCorpus], seed: int,
                   per_domain: int = DOCUMENTS_PER_DOMAIN) -> List[DomainCorpus]:
    """``corpora`` with conforming documents added by the same sampler
    (``random_instance``, depth 5, repeats 2) the domain corpus uses."""
    out = []
    for corpus in corpora:
        rng = random.Random(f"perfbench:documents:{corpus.name}:{seed}")
        schema = parse_schema(corpus.schema_text)
        extra = tuple(
            data_to_string(random_instance(schema, rng, max_depth=5, max_repeat=2))
            for _ in range(per_domain - len(corpus.documents))
        )
        out.append(dataclasses.replace(corpus, documents=corpus.documents + extra))
    return out


def _pick_corpus(corpora: Sequence[DomainCorpus], rng: random.Random) -> DomainCorpus:
    """Zipf mass: a domain's traffic share follows its query-pool size."""
    total = sum(len(c.queries) for c in corpora)
    point = rng.random() * total
    for corpus in corpora:
        point -= len(corpus.queries)
        if point < 0:
            return corpus
    return corpora[-1]


def _read_request(refs: References, corpus: DomainCorpus, operation: str,
                  rng: random.Random, reregister: bool = False) -> Req:
    """One decision request on ``corpus`` (the replay ``default`` mix shapes)."""
    text, fp = corpus.schema_text, corpus.fingerprint
    again = text if reregister else None
    query = rng.choice(corpus.queries)
    if operation == "satisfiable":
        return Req("POST", "/satisfiable", {"fingerprint": fp, "query": query},
                   ("satisfiable", refs.satisfiable(text, query)), reregister=again)
    if operation == "check":
        check_query, assignment = rng.choice(corpus.checks)
        assignment = dict(assignment)
        return Req("POST", "/check",
                   {"fingerprint": fp, "query": check_query, "assignment": assignment, "total": False},
                   ("well_typed", refs.check(text, check_query, assignment)), reregister=again)
    if operation == "infer":
        return Req("POST", "/infer", {"fingerprint": fp, "query": query, "limit": INFER_LIMIT},
                   ("infer", refs.infer(text, query)), reregister=again)
    if operation == "evaluate":
        data = rng.choice(corpus.documents)
        return Req("POST", "/evaluate", {"fingerprint": fp, "query": query, "data": data},
                   ("evaluate+conforms", refs.evaluate(query, data), refs.conforms(text, data)),
                   reregister=again)
    if operation == "batch":
        kind = rng.choice(("satisfiable", "check", "evaluate"))
        if kind == "check":
            items = [{"query": q, "assignment": dict(a)} for q, a in corpus.checks[:3]]
        elif kind == "evaluate":
            items = [{"query": query, "data": rng.choice(corpus.documents)} for _ in range(2)]
        else:
            items = [{"query": q} for q in corpus.queries[:3]]
        expect = tuple(batch_item_expect(refs, kind, text, item) for item in items)
        return Req("POST", "/batch", {"fingerprint": fp, "operation": kind, "items": items},
                   ("batch", expect), items=len(items), reregister=again)
    raise ValueError(f"unknown operation {operation!r}")


def _registration(text: str, fingerprint: str) -> Req:
    return Req("POST", "/schemas", {"schema": text}, ("fingerprint", fingerprint), items=0)


def warm_serve(seed: int, n_ops: int, refs: References) -> Plan:
    """Replay ``default`` mix over the seeded ten-domain corpus."""
    corpora = with_documents(domain_corpus(seed=seed), seed)
    mix = resolve_mix("default")
    rng = random.Random(f"perfbench:warm-serve:{seed}")
    ops = []
    for _ in range(n_ops):
        corpus = _pick_corpus(corpora, rng)
        req = _read_request(refs, corpus, mix.pick(rng), rng)
        ops.append(Op("read", (req,)))
    setup = [(c.schema_text, c.fingerprint) for c in corpora]
    return Plan("warm-serve", setup, ops, references=refs, corpora=corpora)


#: deadline-mix: every serving process first gets one NP-hard request
#: under a short deadline.  A 4-variable, 16-clause reduction took more
#: than a minute and a half to solve alone on a 2-core host, longer than
#: a run, so on a server that detaches timed-out work every later request
#: meets one abandoned computation in its process, whatever each seeded
#: formula's exact hardness.  The formulas are the first seeded ones whose
#: fingerprints the pool tier routes (``shard_of``) to each worker in
#: turn, so every worker carries one and the pool's figures do not hinge
#: on routing luck.
NP_DEADLINE_S = 0.1
NP_VARS, NP_CLAUSES = 4, 16


def deadline_mix(seed: int, n_ops: int, refs: References) -> Plan:
    """NP-hard 3SAT reductions under a short deadline, one per serving
    process (the pool tier runs one worker per core), then warm-serve
    traffic."""
    workers = len(os.sched_getaffinity(0))
    base = warm_serve(seed, n_ops, refs)
    hard = []
    for index in itertools.count():
        if len(hard) == workers:
            break
        formula = random_3sat(NP_VARS, NP_CLAUSES, rng=random.Random(f"np:{seed}:{index}"))
        schema, query = reduce_formula(formula)
        text = schema_to_string(schema)
        fingerprint = refs.fingerprint(text)
        if shard_of(fingerprint, workers) == len(hard):
            hard.append((text, fingerprint, query_to_string(query), dpll(formula) is not None))
    opening = [
        Op("np-hard", (Req("POST", "/satisfiable",
                           {"fingerprint": fp, "query": query, "deadline": NP_DEADLINE_S},
                           ("np", verdict)),))
        for _text, fp, query, verdict in hard
    ]
    setup = base.setup_schemas + [(text, fp) for text, fp, _q, _v in hard]
    return Plan("deadline-mix", setup, base.ops, references=refs, corpora=base.corpora,
                opening=opening)


#: schema-churn: registry bound, and the share of each operation kind.
CHURN_MAX_SCHEMAS = 6
#: Operation kinds in a fixed cycle (fresh 5, reload 2, migrate 2, read 1),
#: so every stretch of the stream carries the same mix.
CHURN_CYCLE = ("fresh", "reload", "fresh", "migrate", "fresh",
               "read", "fresh", "reload", "fresh", "migrate")
CHURN_POLICY = "compatible"
CHURN_MIGRATE_QUERIES = 1
#: Migrations change content models: the edit the subsumption check (and
#: its legacy DFA ``is_subset``) has to classify, at a cost that varies
#: far less between seeds than an arbitrary edit's.
CHURN_MIGRATE_KINDS = ("widen_content", "narrow_content")
#: A reload re-registers a fresh variant only once this many later fresh
#: variants were registered after it, so the registry has evicted it and
#: its registration has long finished: a reload is a store hit, never a
#: second compile of a schema whose first registration is still running.
CHURN_RELOAD_AGE = 2 * CHURN_MAX_SCHEMAS


def _mutant_text(text: str, rng: random.Random, seen: set,
                 kinds: Optional[Sequence[str]] = None) -> Tuple[str, str]:
    schema = parse_schema(text)
    for _ in range(32):
        mutant, _kind = mutate_schema(schema, rng, kinds)
        mutant_text = schema_to_string(mutant)
        fingerprint = parse_schema(mutant_text).fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            return mutant_text, fingerprint
        schema = mutant
    raise RuntimeError("mutation generator kept producing seen fingerprints")


def schema_churn(seed: int, n_ops: int, refs: References) -> Plan:
    """Registrations of never-seen schemas, store reloads, and migrations."""
    corpora = with_documents(domain_corpus(seed=seed), seed)
    rng = random.Random(f"perfbench:schema-churn:{seed}")
    seen = {c.fingerprint for c in corpora}
    registered: List[Tuple[str, str, DomainCorpus]] = []
    ops = []
    for index in range(n_ops):
        kind = CHURN_CYCLE[index % len(CHURN_CYCLE)]
        # Domains rotate (shifted by one each cycle), so every kind of
        # operation meets every domain equally often.
        corpus = corpora[(index + index // len(CHURN_CYCLE)) % len(corpora)]
        evicted = registered[:-CHURN_RELOAD_AGE]
        if kind == "read" or (kind == "reload" and not evicted):
            kind = "read"
            reqs = (_read_request(refs, corpus, "satisfiable", rng, True),)
        elif kind == "fresh":
            text, fp = _mutant_text(corpus.schema_text, rng, seen)
            registered.append((text, fp, corpus))
            reqs = (_registration(text, fp),) + _first_touch(refs, text, fp, corpus, rng)
        elif kind == "reload":
            text, fp, origin = rng.choice(evicted)
            query = rng.choice(origin.queries)
            reqs = (
                _registration(text, fp),
                Req("POST", "/satisfiable", {"fingerprint": fp, "query": query},
                    ("satisfiable", refs.satisfiable(text, query)), reregister=text),
            )
        else:
            text, fp = _mutant_text(corpus.schema_text, rng, seen, CHURN_MIGRATE_KINDS)
            queries = tuple(corpus.queries[:CHURN_MIGRATE_QUERIES])
            accepted, compatibility, new_fp = refs.migrate(corpus.schema_text, text, queries, CHURN_POLICY)
            # The domain schema is registered first: eviction or an earlier
            # accepted swap may have removed it.  Operations that read it
            # after this swap re-register it when the server answers 404.
            reqs = (
                _registration(corpus.schema_text, corpus.fingerprint),
                Req("POST", f"/schemas/{corpus.fingerprint}/migrate",
                    {"schema": text, "queries": list(queries), "policy": CHURN_POLICY},
                    ("migrate", accepted, compatibility, new_fp),
                    items=len(queries), reregister=corpus.schema_text),
            )
        ops.append(Op(kind, reqs))
    setup = [(c.schema_text, c.fingerprint) for c in corpora]
    return Plan("schema-churn", setup, ops,
                max_schemas=CHURN_MAX_SCHEMAS, references=refs,
                corpora=corpora)


def _first_touch(refs: References, text: str, fp: str, corpus: DomainCorpus,
                 rng: random.Random) -> Tuple[Req, ...]:
    """Memo-cold reads right after a registration."""
    query = rng.choice(corpus.queries)
    data = rng.choice(corpus.documents)
    return (
        Req("POST", "/satisfiable", {"fingerprint": fp, "query": query},
            ("satisfiable", refs.satisfiable(text, query)), reregister=text),
        Req("POST", "/evaluate", {"fingerprint": fp, "query": query, "data": data},
            ("evaluate+conforms", refs.evaluate(query, data), refs.conforms(text, data)),
            reregister=text),
    )


#: batch-decide: corpus scale, items per job, extra documents per domain,
#: and how many seeded ten-domain corpora one run draws from (the cost of
#: a single corpus varies from seed to seed by about a fifth).
BATCH_SCALE, BATCH_QUERIES, BATCH_JOB_ITEMS, BATCH_DOCUMENTS = 16, 64, 16, 8
BATCH_CORPORA = 3
#: Inference costs several times more per item than the other
#: operations; smaller inference jobs keep job latencies comparable.
BATCH_INFER_JOB_ITEMS = 8
BATCH_OPERATIONS = ("satisfiable", "infer", "check", "evaluate", "conforms")


def batch_decide(seed: int, n_ops: int, refs: References) -> Plan:
    """Per-domain item lists chunked into ``run_batch`` jobs, taking turns
    by operation."""
    corpora = [
        corpus
        for part in range(BATCH_CORPORA)
        for corpus in domain_corpus(seed=seed * BATCH_CORPORA + part,
                                    base_scale=BATCH_SCALE, base_queries=BATCH_QUERIES)
    ]
    rng = random.Random(f"perfbench:batch-decide:{seed}")
    jobs = []
    for corpus in corpora:
        schema = parse_schema(corpus.schema_text)
        documents = list(corpus.documents) + [
            data_to_string(random_instance(schema, rng, max_depth=5, max_repeat=2))
            for _ in range(BATCH_DOCUMENTS)
        ]
        lists = {
            "satisfiable": [{"query": q} for q in corpus.queries],
            "infer": [{"query": q, "limit": INFER_LIMIT} for q in corpus.queries],
            "check": corpus.check_payloads(),
            "evaluate": [{"query": q, "data": rng.choice(documents)} for q in corpus.queries],
            "conforms": [{"data": d} for d in documents],
        }
        for operation in BATCH_OPERATIONS:
            items = lists[operation]
            size = BATCH_INFER_JOB_ITEMS if operation == "infer" else BATCH_JOB_ITEMS
            for start in range(0, len(items), size):
                chunk = items[start:start + size]
                expect = tuple(
                    batch_item_expect(refs, operation, corpus.schema_text, item) for item in chunk
                )
                jobs.append(Op("job", (), job=(operation, corpus.schema_text, corpus.fingerprint,
                                               tuple(chunk), expect)))
    # Operations take turns (each list shuffled by the seed), so heavy
    # inference jobs never bunch up in one stretch of the schedule.
    by_operation = {operation: [job for job in jobs if job.job[0] == operation]
                    for operation in BATCH_OPERATIONS}
    for group in by_operation.values():
        rng.shuffle(group)
    longest = max(len(group) for group in by_operation.values())
    jobs = [group[i % len(group)] for i in range(longest) for group in by_operation.values()]
    ops = [jobs[i % len(jobs)] for i in range(max(n_ops, len(jobs)))]
    setup = [(c.schema_text, c.fingerprint) for c in corpora]
    return Plan("batch-decide", setup, ops, references=refs, corpora=corpora)


BUILDERS = {
    "warm-serve": warm_serve,
    "batch-decide": batch_decide,
    "schema-churn": schema_churn,
    "deadline-mix": deadline_mix,
}


def build(workload: str, seed: int, n_ops: int) -> Plan:
    return BUILDERS[workload](seed, n_ops, References())
