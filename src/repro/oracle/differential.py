"""Differential runners: production decision procedures vs the oracles.

Each section draws seeded random inputs from
:mod:`repro.workloads.generators`, runs a production procedure and its
brute-force counterpart, and records every disagreement as a
:class:`Discrepancy` — after greedily shrinking the offending input with
:mod:`repro.oracle.shrink` so the report is readable.

The functions under test are injectable keyword arguments (defaulting to
the production implementations).  That serves two purposes: the mutation
smoke tests in ``tests/property/`` inject deliberately broken
implementations to prove the harness *would* catch a regression, and a
bisecting developer can point a section at an older build of one
procedure without touching the rest.

Reproducibility: case ``i`` of a section under seed ``s`` uses
``random.Random(s * 1_000_003 + i * 7 + salt(section))`` — integers only,
so results are immune to ``PYTHONHASHSEED``.  ``repro fuzz --seed S``
therefore always re-draws the same inputs.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..automata.compiled import CompiledDFA, compile_nfa, compile_regex
from ..automata.dfa import DFA, determinize
from ..automata.nfa import EPS, NFA, thompson
from ..automata.ops import equivalent, intersect, is_subset, to_regex
from ..automata.syntax import EMPTY, Alt, Concat, Regex, Star
from ..data.model import DataGraph
from ..engine import Engine, set_default_engine
from ..query.eval import evaluate
from ..query.model import Query
from ..schema.conformance import conforms
from ..schema.model import Schema
from ..typing.satisfiability import is_satisfiable
from ..typing.witness import find_witness
from ..workloads.generators import (
    DEFAULT_ALPHABET,
    random_graph,
    random_query,
    random_regex,
    random_schema,
)
from ..workloads.instances import random_instance
from .conformance import exhaustive_conforms
from .eval import naive_evaluate, naive_satisfies
from .rex import all_words, bounded_subset, brz_accepts
from .shrink import (
    graph_candidates,
    greedy_shrink,
    query_candidates,
    regex_candidates,
    word_candidates,
)

#: Fixed per-section salts (NOT ``hash()``: that varies across runs).
_SALTS: Dict[str, int] = {
    "automata": 101,
    "containment": 211,
    "eval": 307,
    "conformance": 401,
    "compiled": 503,
    "satisfiable": 601,
    "delta": 701,
}


def _case_rng(seed: int, section: str, case: int) -> random.Random:
    return random.Random(seed * 1_000_003 + case * 7 + _SALTS[section])


@dataclass
class Discrepancy:
    """One disagreement between production code and an oracle."""

    section: str
    case: int
    seed: int
    check: str  #: which cross-check failed (e.g. ``determinize``, ``is_subset``)
    detail: str  #: human-readable description of the disagreement
    inputs: Dict[str, str]  #: repr of the *shrunken* inputs

    def to_dict(self) -> Dict[str, object]:
        return {
            "section": self.section,
            "case": self.case,
            "seed": self.seed,
            "check": self.check,
            "detail": self.detail,
            "inputs": dict(self.inputs),
        }


@dataclass
class FuzzReport:
    """Aggregate result of a fuzzing run."""

    seed: int
    budget: int
    sections: Tuple[str, ...]
    cases: Dict[str, int] = field(default_factory=dict)
    skipped: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "sections": list(self.sections),
            "cases": dict(self.cases),
            "skipped": dict(self.skipped),
            "ok": self.ok,
            "discrepancy_count": len(self.discrepancies),
            "discrepancies": [d.to_dict() for d in self.discrepancies],
        }


# ----------------------------------------------------------------------
# Section 1: the automata pipeline vs Brzozowski membership
# ----------------------------------------------------------------------


def run_automata_section(
    seed: int,
    cases: int,
    max_len: int = 4,
    *,
    thompson_fn: Callable[..., NFA] = thompson,
    determinize_fn: Callable[[NFA], DFA] = determinize,
    complement_fn: Callable[[DFA], DFA] = DFA.complement,
    to_regex_fn: Callable[[NFA], Regex] = to_regex,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check thompson/determinize/complement/to_regex.

    For every random regex, every word up to ``max_len`` is classified by
    iterated Brzozowski derivatives; each pipeline stage must agree
    (the complement must *disagree* everywhere).
    """
    alphabet = DEFAULT_ALPHABET
    found: List[Discrepancy] = []

    def stages(regex: Regex):
        nfa = thompson_fn(regex, alphabet)
        dfa = determinize_fn(nfa)
        comp = complement_fn(dfa)
        round_trip = thompson_fn(to_regex_fn(nfa), alphabet)
        return [
            ("thompson", nfa.accepts, False),
            ("determinize", dfa.accepts, False),
            ("complement", comp.accepts, True),
            ("to_regex", round_trip.accepts, False),
        ]

    def first_failure(regex: Regex):
        built = stages(regex)
        for word in all_words(alphabet, max_len):
            expected = brz_accepts(regex, word)
            for name, accepts, negated in built:
                if bool(accepts(word)) != (expected ^ negated):
                    return name, word, expected
        return None

    for case in range(cases):
        rng = _case_rng(seed, "automata", case)
        regex = random_regex(rng, alphabet, max_depth=3, allow_wildcard=True)
        failure = first_failure(regex)
        if failure is None:
            continue
        check, word, _expected = failure

        def word_fails(candidate, _regex=regex, _check=check):
            built = dict((n, (a, g)) for n, a, g in stages(_regex))
            accepts, negated = built[_check]
            expected = brz_accepts(_regex, candidate)
            return bool(accepts(candidate)) != (expected ^ negated)

        def regex_fails(candidate, _check=check):
            failure = first_failure(candidate)
            return failure is not None and failure[0] == _check

        small_regex = greedy_shrink(regex, regex_candidates, regex_fails)
        refailure = first_failure(small_regex)
        if refailure is not None:
            check, word, _expected = refailure
        small_word = greedy_shrink(
            tuple(word),
            word_candidates,
            lambda w: word_fails(w, _regex=small_regex, _check=check),
        )
        expected = brz_accepts(small_regex, small_word)
        found.append(
            Discrepancy(
                section="automata",
                case=case,
                seed=seed,
                check=check,
                detail=(
                    f"{check} disagrees with Brzozowski membership on "
                    f"{small_word!r}: oracle says "
                    f"{'accept' if expected else 'reject'}"
                ),
                inputs={"regex": repr(small_regex), "word": repr(small_word)},
            )
        )
    return found, cases, 0


# ----------------------------------------------------------------------
# Section 2: containment/equivalence vs bounded enumeration
# ----------------------------------------------------------------------


def run_containment_section(
    seed: int,
    cases: int,
    max_len: int = 5,
    *,
    subset_fn: Callable[[NFA, NFA], bool] = is_subset,
    equivalent_fn: Callable[[NFA, NFA], bool] = equivalent,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check ``is_subset``/``equivalent`` against word enumeration.

    A positive production answer is refuted by any enumerated word of
    ``L(left) \\ L(right)`` up to the bound.  A negative answer must be
    backed by a concrete witness extracted from the product automaton and
    confirmed by derivative membership — so both directions are checked,
    not just the bounded one.
    """
    alphabet = DEFAULT_ALPHABET
    found: List[Discrepancy] = []

    def check_pair(left: Regex, right: Regex) -> Optional[Tuple[str, str, Dict[str, str]]]:
        left_nfa = thompson(left, alphabet)
        right_nfa = thompson(right, alphabet)
        claimed = subset_fn(left_nfa, right_nfa)
        escape = bounded_subset(left, right, alphabet, max_len)
        if claimed and escape is not None:
            return (
                "is_subset",
                f"claimed L(left) ⊆ L(right), but {escape!r} is in "
                "L(left) \\ L(right)",
                {"word": repr(escape)},
            )
        if not claimed:
            widened = NFA(
                right_nfa.n_states,
                alphabet,
                right_nfa.start,
                right_nfa.accepting,
                right_nfa.transitions,
            )
            complement_nfa = determinize(widened).complement().to_nfa()
            witness = intersect(left_nfa, complement_nfa).shortest_word()
            if witness is None:
                return (
                    "is_subset",
                    "claimed L(left) ⊄ L(right), but the witness product "
                    "automaton is empty",
                    {},
                )
            if not brz_accepts(left, witness) or brz_accepts(right, witness):
                return (
                    "is_subset",
                    f"non-containment witness {tuple(witness)!r} is bogus "
                    "per derivative membership",
                    {"word": repr(tuple(witness))},
                )
        claimed_eq = equivalent_fn(left_nfa, right_nfa)
        escape_eq = bounded_subset(left, right, alphabet, max_len)
        escape_eq_rev = bounded_subset(right, left, alphabet, max_len)
        if claimed_eq and (escape_eq is not None or escape_eq_rev is not None):
            word = escape_eq if escape_eq is not None else escape_eq_rev
            return (
                "equivalent",
                f"claimed equivalence, but {word!r} separates the languages",
                {"word": repr(word)},
            )
        return None

    for case in range(cases):
        rng = _case_rng(seed, "containment", case)
        left = random_regex(rng, alphabet, max_depth=3, allow_wildcard=True)
        right = random_regex(rng, alphabet, max_depth=3, allow_wildcard=True)
        result = check_pair(left, right)
        if result is None:
            continue
        check, _detail, _extra = result

        def left_fails(candidate, _right=right, _check=check):
            r = check_pair(candidate, _right)
            return r is not None and r[0] == _check

        small_left = greedy_shrink(left, regex_candidates, left_fails)

        def right_fails(candidate, _left=small_left, _check=check):
            r = check_pair(_left, candidate)
            return r is not None and r[0] == _check

        small_right = greedy_shrink(right, regex_candidates, right_fails)
        final = check_pair(small_left, small_right)
        check, detail, extra = final if final is not None else result
        inputs = {"left": repr(small_left), "right": repr(small_right)}
        inputs.update(extra)
        found.append(
            Discrepancy(
                section="containment",
                case=case,
                seed=seed,
                check=check,
                detail=detail,
                inputs=inputs,
            )
        )
    return found, cases, 0


# ----------------------------------------------------------------------
# Section 3: query evaluation vs the naive evaluator
# ----------------------------------------------------------------------


def _rows(bindings: Sequence[Dict[str, object]]) -> frozenset:
    return frozenset(tuple(sorted(row.items(), key=repr)) for row in bindings)


def run_eval_section(
    seed: int,
    cases: int,
    *,
    evaluate_fn: Callable[..., List[Dict[str, object]]] = evaluate,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check ``query.eval.evaluate`` against candidate enumeration."""
    found: List[Discrepancy] = []

    def mismatch(query: Query, graph: DataGraph) -> Optional[str]:
        production = _rows(evaluate_fn(query, graph))
        oracle = _rows(naive_evaluate(query, graph))
        if production == oracle:
            return None
        extra = sorted(production - oracle, key=repr)[:3]
        missing = sorted(oracle - production, key=repr)[:3]
        return (
            f"evaluate returned {len(production)} rows, oracle "
            f"{len(oracle)}; spurious={extra!r} missing={missing!r}"
        )

    for case in range(cases):
        rng = _case_rng(seed, "eval", case)
        graph = random_graph(rng, max_nodes=5)
        query = random_query(rng, max_node_vars=3)
        detail = mismatch(query, graph)
        if detail is None:
            continue

        small_graph = greedy_shrink(
            graph, graph_candidates, lambda g: mismatch(query, g) is not None
        )
        small_query = greedy_shrink(
            query, query_candidates, lambda q: mismatch(q, small_graph) is not None
        )
        final_detail = mismatch(small_query, small_graph) or detail
        found.append(
            Discrepancy(
                section="eval",
                case=case,
                seed=seed,
                check="evaluate",
                detail=final_detail,
                inputs={
                    "query": _query_repr(small_query),
                    "graph": _graph_repr(small_graph),
                },
            )
        )
    return found, cases, 0


def _query_repr(query: Query) -> str:
    parts = ", ".join(
        f"{p.var}={p.kind.value}"
        + (f"({len(p.arms)} arms)" if p.is_collection else "")
        for p in query.patterns
    )
    return f"SELECT {list(query.select)} WHERE {parts}"


def _graph_repr(graph: DataGraph) -> str:
    return "; ".join(repr(graph.node(oid)) for oid in sorted(graph.nodes))


# ----------------------------------------------------------------------
# Section 4: conformance vs exhaustive assignment search
# ----------------------------------------------------------------------


def run_conformance_section(
    seed: int,
    cases: int,
    *,
    conforms_fn: Callable[..., bool] = conforms,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check ``schema.conformance.conforms`` against exhaustive search.

    Half the cases sample a conforming instance from the schema itself
    (both sides must say yes); the other half pair the schema with an
    unrelated random graph, where yes/no is genuinely undetermined and
    the two implementations must simply agree.  Cases whose assignment
    space exceeds the oracle's cap are counted as skipped.
    """
    found: List[Discrepancy] = []
    skipped = 0

    def mismatch(graph: DataGraph, schema: Schema) -> Optional[str]:
        production = bool(conforms_fn(graph, schema))
        oracle = exhaustive_conforms(graph, schema)
        if production == oracle:
            return None
        return (
            f"conforms says {production}, exhaustive assignment search "
            f"says {oracle}"
        )

    for case in range(cases):
        rng = _case_rng(seed, "conformance", case)
        schema = random_schema(rng, n_types=rng.randint(2, 4))
        from_instance = rng.random() < 0.5
        if from_instance:
            graph = random_instance(schema, rng, max_depth=6, max_repeat=2)
        else:
            graph = random_graph(rng, max_nodes=4)
        if len(graph.nodes) > 7:
            skipped += 1
            continue
        try:
            detail = mismatch(graph, schema)
        except ValueError:
            skipped += 1
            continue
        if detail is None:
            continue

        def graph_fails(candidate, _schema=schema):
            return mismatch(candidate, _schema) is not None

        small_graph = greedy_shrink(graph, graph_candidates, graph_fails)
        final_detail = mismatch(small_graph, schema) or detail
        if from_instance:
            final_detail += " (the instance was sampled from the schema)"
        found.append(
            Discrepancy(
                section="conformance",
                case=case,
                seed=seed,
                check="conforms",
                detail=final_detail,
                inputs={
                    "schema": "; ".join(
                        repr(schema.type(t)) for t in schema.tids()
                    ),
                    "graph": _graph_repr(small_graph),
                },
            )
        )
    return found, cases, skipped


# ----------------------------------------------------------------------
# Section 5: the compile pipeline vs Brzozowski and the NFA decision ops
# ----------------------------------------------------------------------


def run_compiled_section(
    seed: int,
    cases: int,
    max_len: int = 4,
    *,
    compile_fn: Callable[[NFA], CompiledDFA] = compile_nfa,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check the table pipeline (subset → Hopcroft → tables).

    Per case two random regexes are lowered to compiled tables and
    checked against the oracles: ``member`` (including after a pickle
    round-trip) against Brzozowski derivatives for every word up to
    ``max_len``; ``is_subset`` and ``product_empty`` against the
    product-construction answers of :mod:`repro.automata.ops`.  Each
    regex is also lowered from its positions (:func:`compile_regex`) —
    as is, with one symbol dropped, and inside a raw alternation with a
    dead ``EMPTY`` branch — and every table must equal the Thompson
    route's (``compile_fn`` of the Thompson NFA, the reference).
    """
    alphabet = DEFAULT_ALPHABET
    found: List[Discrepancy] = []

    def check_routes(regex: Regex) -> Optional[Tuple[str, str, Dict[str, str]]]:
        dropped = frozenset(alphabet[:1])
        variants = (
            ("as is", regex, frozenset()),
            (f"dropping {sorted(dropped)}", regex, dropped),
            ("beside a dead branch", Alt((regex, Star(Concat((regex, EMPTY))))), frozenset()),
        )
        for label, variant, drop in variants:
            reference = compile_fn(_drop_arcs(thompson(variant, alphabet), drop))
            if not _same_table(compile_regex(variant, alphabet, drop), reference):
                return (
                    "positions",
                    f"position-route table differs from the Thompson route ({label})",
                    {"variant": repr(variant)},
                )
        return None

    def check_pair(left: Regex, right: Regex) -> Optional[Tuple[str, str, Dict[str, str]]]:
        for regex in (left, right):
            routes = check_routes(regex)
            if routes is not None:
                return routes
        left_nfa = thompson(left, alphabet)
        right_nfa = thompson(right, alphabet)
        left_dfa = compile_fn(left_nfa)
        right_dfa = compile_fn(right_nfa)
        thawed: CompiledDFA = pickle.loads(pickle.dumps(left_dfa))
        for word in all_words(alphabet, max_len):
            expected = brz_accepts(left, word)
            if bool(left_dfa.member(word)) != expected:
                return (
                    "member",
                    f"compiled member disagrees with Brzozowski on {word!r}: "
                    f"oracle says {'accept' if expected else 'reject'}",
                    {"word": repr(word)},
                )
            if bool(thawed.member(word)) != expected:
                return (
                    "pickle-member",
                    f"pickle round-trip changed membership of {word!r}",
                    {"word": repr(word)},
                )
        if bool(left_dfa.is_subset(right_dfa)) != bool(is_subset(left_nfa, right_nfa)):
            return (
                "is_subset",
                "compiled is_subset disagrees with the NFA product check",
                {},
            )
        compiled_empty = bool(left_dfa.product_empty(right_dfa))
        nfa_empty = intersect(left_nfa, right_nfa).is_empty()
        if compiled_empty != nfa_empty:
            return (
                "product_empty",
                f"compiled product_empty says {compiled_empty}, NFA "
                f"intersection emptiness says {nfa_empty}",
                {},
            )
        return None

    for case in range(cases):
        rng = _case_rng(seed, "compiled", case)
        left = random_regex(rng, alphabet, max_depth=3, allow_wildcard=True)
        right = random_regex(rng, alphabet, max_depth=3, allow_wildcard=True)
        result = check_pair(left, right)
        if result is None:
            continue
        check, _detail, _extra = result

        def left_fails(candidate, _right=right, _check=check):
            r = check_pair(candidate, _right)
            return r is not None and r[0] == _check

        small_left = greedy_shrink(left, regex_candidates, left_fails)

        def right_fails(candidate, _left=small_left, _check=check):
            r = check_pair(_left, candidate)
            return r is not None and r[0] == _check

        small_right = greedy_shrink(right, regex_candidates, right_fails)
        final = check_pair(small_left, small_right)
        check, detail, extra = final if final is not None else result
        inputs = {"left": repr(small_left), "right": repr(small_right)}
        inputs.update(extra)
        found.append(
            Discrepancy(
                section="compiled",
                case=case,
                seed=seed,
                check=check,
                detail=detail,
                inputs=inputs,
            )
        )
    return found, cases, 0


def _drop_arcs(nfa: NFA, dropped: frozenset) -> NFA:
    """``nfa`` without the arcs on ``dropped`` symbols."""
    if not dropped:
        return nfa
    transitions = {
        q: [(s, d) for s, d in arcs if s is EPS or s not in dropped]
        for q, arcs in nfa.transitions.items()
    }
    return NFA(nfa.n_states, nfa.alphabet, nfa.start, nfa.accepting, transitions)


def _same_table(a: CompiledDFA, b: CompiledDFA) -> bool:
    return (a.symbols, a.columns, a.n_states, a.start, a.table, a.accepting) == (
        b.symbols, b.columns, b.n_states, b.start, b.table, b.accepting
    )


# ----------------------------------------------------------------------
# Section 6: satisfiability vs witnesses and sampled instances
# ----------------------------------------------------------------------


def run_satisfiable_section(
    seed: int,
    cases: int,
    *,
    satisfiable_fn: Callable[..., bool] = is_satisfiable,
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check ``is_satisfiable`` against independent evidence.

    Each case draws a random schema and query.  A positive verdict on
    the :func:`~repro.typing.witness.find_witness` fragment (join-free,
    ordered definitions) must come with a witness graph that both
    brute-force oracles accept: the query matches it per
    :func:`~repro.oracle.eval.naive_satisfies`, and it is an instance
    per :func:`~repro.oracle.conformance.exhaustive_conforms`.  A
    negative verdict is refuted by any of three sampled instances
    (:func:`~repro.workloads.instances.random_instance`) the query
    matches.  Positive verdicts outside the fragment, and witnesses too
    large for the exhaustive oracle, count as skipped.
    """
    found: List[Discrepancy] = []
    skipped = 0

    def failure(
        schema: Schema, query: Query, instances: Sequence[DataGraph]
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """The first piece of evidence against the verdict, or None.

        Raises ValueError when the case cannot be judged (see above).
        """
        if satisfiable_fn(query, schema):
            witness = find_witness(query, schema)  # WitnessError: ValueError
            if witness is None:
                return (
                    "witness",
                    "is_satisfiable says True, but find_witness builds no "
                    "witness",
                    {},
                )
            if not naive_satisfies(query, witness):
                return (
                    "witness",
                    "is_satisfiable says True, but the query does not match "
                    "its witness",
                    {"witness": _graph_repr(witness)},
                )
            if not exhaustive_conforms(witness, schema):
                return (
                    "witness",
                    "is_satisfiable says True, but its witness is not an "
                    "instance of the schema",
                    {"witness": _graph_repr(witness)},
                )
            return None
        for graph in instances:
            if naive_satisfies(query, graph):
                return (
                    "refuted",
                    "is_satisfiable says False, but the query matches a "
                    "sampled instance of the schema",
                    {"instance": _graph_repr(graph)},
                )
        return None

    def fails(schema, query, instances, check) -> bool:
        try:
            result = failure(schema, query, instances)
        except ValueError:
            return False
        return result is not None and result[0] == check

    for case in range(cases):
        rng = _case_rng(seed, "satisfiable", case)
        schema = random_schema(rng, n_types=rng.randint(2, 4))
        query = random_query(rng, max_node_vars=3)
        instances: List[DataGraph] = []
        try:
            for _ in range(3):
                graph = random_instance(schema, rng, max_depth=6, max_repeat=2)
                # naive_satisfies enumerates |nodes|^|variables| bindings.
                if len(graph.nodes) <= 12:
                    instances.append(graph)
        except ValueError:
            pass  # uninhabited root: no instance can refute a "no"
        try:
            result = failure(schema, query, instances)
        except ValueError:
            skipped += 1
            continue
        if result is None:
            continue
        check = result[0]
        small_query = greedy_shrink(
            query,
            query_candidates,
            lambda q: fails(schema, q, instances, check),
        )
        try:
            final = failure(schema, small_query, instances)
        except ValueError:
            final = None
        _check, detail, extra = final if final is not None else result
        inputs = {
            "schema": "; ".join(repr(schema.type(t)) for t in schema.tids()),
            "query": _query_repr(small_query),
        }
        inputs.update(extra)
        found.append(
            Discrepancy(
                section="satisfiable",
                case=case,
                seed=seed,
                check=check,
                detail=detail,
                inputs=inputs,
            )
        )
    return found, cases, skipped


# ----------------------------------------------------------------------
# Section 7: the evolution classifier vs bounded instance enumeration
# ----------------------------------------------------------------------


def run_delta_section(
    seed: int,
    cases: int,
    *,
    diff_fn: Callable[..., object] = None,  # type: ignore[assignment]
) -> Tuple[List[Discrepancy], int, int]:
    """Cross-check :func:`repro.schema.delta.diff_schemas` verdicts.

    Each case mutates a random schema (``workloads.mutate_schema``) and
    classifies the pair.  Two oracles apply:

    * **soundness of the compatibility claim** — simulation is sound, so
      a claimed ``widening`` means every old instance stays valid (and
      symmetrically for ``narrowing``, both ways for ``equivalent``).
      Bounded enumeration of conforming instances must agree;
      ``incomparable`` makes no inclusion claim, so nothing to refute.
    * **counterexample words** — every separating word attached to a
      content-model change must actually separate the two languages per
      Brzozowski-derivative membership.
    """
    from ..schema.delta import (
        EQUIVALENT,
        NARROWING,
        WIDENING,
        diff_schemas,
    )
    from ..workloads.instances import enumerate_instances
    from ..workloads.mutations import mutate_schema

    if diff_fn is None:
        diff_fn = diff_schemas
    found: List[Discrepancy] = []
    skipped = 0

    def schema_repr(schema: Schema) -> str:
        return "; ".join(repr(schema.type(t)) for t in schema.tids())

    def instance_escape(source: Schema, target: Schema) -> Optional[DataGraph]:
        """A bounded instance of ``source`` that does not conform to ``target``."""
        count = 0
        for graph in enumerate_instances(source, max_nodes=6, max_word=3):
            if not exhaustive_conforms(graph, target):
                return graph
            count += 1
            if count >= 12:
                break
        return None

    for case in range(cases):
        rng = _case_rng(seed, "delta", case)
        old = random_schema(rng, n_types=rng.randint(2, 4))
        try:
            new, kind = mutate_schema(old, rng)
        except ValueError:
            skipped += 1
            continue
        delta = diff_fn(old, new)
        if not delta.changes:
            found.append(
                Discrepancy(
                    section="delta",
                    case=case,
                    seed=seed,
                    check="changes",
                    detail=(
                        f"mutation {kind!r} changed the fingerprint but the "
                        "diff reports no changes"
                    ),
                    inputs={"old": schema_repr(old), "new": schema_repr(new)},
                )
            )
            continue

        checks = []  # (direction label, source, target)
        if delta.compatibility in (EQUIVALENT, WIDENING):
            checks.append(("old ⊑ new", old, new))
        if delta.compatibility in (EQUIVALENT, NARROWING):
            checks.append(("new ⊑ old", new, old))
        escaped = False
        for direction, source, target in checks:
            try:
                escape = instance_escape(source, target)
            except ValueError:
                skipped += 1
                escaped = True
                break
            if escape is not None:
                found.append(
                    Discrepancy(
                        section="delta",
                        case=case,
                        seed=seed,
                        check="compatibility",
                        detail=(
                            f"claimed {delta.compatibility} (so {direction}) "
                            f"after mutation {kind!r}, but an instance of the "
                            "smaller schema does not conform to the larger"
                        ),
                        inputs={
                            "old": schema_repr(old),
                            "new": schema_repr(new),
                            "instance": _graph_repr(escape),
                        },
                    )
                )
                escaped = True
                break
        if escaped:
            continue

        for change in delta.changes:
            word = getattr(change, "counterexample", None)
            if word is None:
                continue
            old_regex = change.old_regex
            new_regex = change.new_regex
            if change.verdict == WIDENING:
                # Widening counterexamples witness the growth: new \ old.
                old_regex, new_regex = new_regex, old_regex
            if not brz_accepts(old_regex, word) or brz_accepts(new_regex, word):
                found.append(
                    Discrepancy(
                        section="delta",
                        case=case,
                        seed=seed,
                        check="counterexample",
                        detail=(
                            f"{change.kind} ({change.verdict}) carries "
                            f"counterexample {word!r} that does not separate "
                            "the content-model languages"
                        ),
                        inputs={
                            "old_regex": repr(change.old_regex),
                            "new_regex": repr(change.new_regex),
                            "word": repr(word),
                        },
                    )
                )
                break
    return found, cases, skipped


# ----------------------------------------------------------------------
# The fuzzing entry point
# ----------------------------------------------------------------------

#: Section name -> runner(seed, cases) in reporting order.
SECTIONS: Dict[str, Callable[[int, int], Tuple[List[Discrepancy], int, int]]] = {
    "automata": run_automata_section,
    "containment": run_containment_section,
    "eval": run_eval_section,
    "conformance": run_conformance_section,
    "compiled": run_compiled_section,
    "satisfiable": run_satisfiable_section,
    "delta": run_delta_section,
}

#: Sections whose word-enumeration bound ``--max-len`` overrides.
_BOUNDED_SECTIONS = ("automata", "containment", "compiled")


def run_fuzz(
    seed: int = 0,
    budget: int = 200,
    sections: Optional[Sequence[str]] = None,
    max_len: Optional[int] = None,
) -> FuzzReport:
    """Run the differential sections; return an aggregated report.

    Args:
        seed: base seed; every case derives its own rng from it.
        budget: total number of cases, split evenly across sections.
        sections: subset of :data:`SECTIONS` keys (default: all).
        max_len: override the word-length bound of the bounded-oracle
            sections (their defaults otherwise).

    The production procedures run on a fresh process default engine for
    the duration of the call, so no cached artifact of an earlier call
    can mask a fault.
    """
    chosen = tuple(sections) if sections is not None else tuple(SECTIONS)
    unknown = [name for name in chosen if name not in SECTIONS]
    if unknown:
        raise ValueError(
            f"unknown fuzz sections {unknown}; expected a subset of "
            f"{sorted(SECTIONS)}"
        )
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    report = FuzzReport(seed=seed, budget=budget, sections=chosen)
    per_section = max(1, budget // len(chosen))
    previous = set_default_engine(Engine())
    try:
        for name in chosen:
            runner = SECTIONS[name]
            if max_len is not None and name in _BOUNDED_SECTIONS:
                result = runner(seed, per_section, max_len)  # type: ignore[call-arg]
            else:
                result = runner(seed, per_section)
            discrepancies, cases, skipped = result
            report.discrepancies.extend(discrepancies)
            report.cases[name] = cases
            report.skipped[name] = skipped
    finally:
        set_default_engine(previous)
    return report
