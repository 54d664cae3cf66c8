"""The traces technique of Section 3.4, as explicit automata.

For a flat ordered pattern ``X = [R1 -> X1, ..., Rk -> Xk]`` matched at a
node of type ``T``:

* ``Tr(P)`` — the pattern's trace language — is the regular language
  ``mark0 · R1 · mark1 · R2 · mark2 ... Rk · markk`` over the alphabet of
  labels plus *marker* symbols; typed markers ``("mark", i, Tj)`` carry the
  candidate type of the i-th variable (the :math:`X_i^{T_j}` symbols of the
  paper).
* ``Tr(S)`` — the schema's trace language rooted at ``T`` — is the set of
  traces that occur in some instance: ``mark0 w1 mark1 ... wk markk`` such
  that ``[w1 -> o1, ..., wk -> ok]`` is satisfied at a ``T``-node of some
  conforming graph, with ``oi`` of the marker's type.

Satisfiability of the flat pattern is then emptiness of
``Tr(P) ∩ Tr(S)``; type inference reads the marker symbols that remain
*useful* in the product; and the feedback queries of Section 4.1 are the
per-segment projections of the product (:func:`segment_projection`).

``Tr(S)`` is built directly as a polynomial-size NFA (the operational
counterpart of the paper's acyclic extended CFG): states track the
position inside the root type's content automaton plus, while a path
segment is being emitted, the current type along the schema graph Γ(S).
Filler children (edges of the root that no pattern path uses) become
epsilon moves, and acceptance requires that the remaining content word be
completable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..automata.nfa import EPS, NFA
from ..automata.ops import intersect, relabel, to_regex, trim, union
from ..automata.syntax import Regex, Sym, alt, concat
from ..engine import Engine, get_default_engine
from ..schema.model import Schema
from .reach import SchemaReach

#: Marker symbol for position ``i`` carrying candidate type ``tid``.
Marker = Tuple[str, int, str]


def marker(index: int, tid: str) -> Marker:
    """The typed trace marker :math:`X_i^{T}` (index 0 is the root)."""
    return ("mark", index, tid)


def is_marker(symbol: object) -> bool:
    return isinstance(symbol, tuple) and len(symbol) == 3 and symbol[0] == "mark"


def pattern_trace_nfa(
    schema: Schema,
    arms: Sequence[Regex],
    allowed_types: Sequence[Iterable[str]],
    root_types: Iterable[str],
    engine: Optional[Engine] = None,
) -> NFA:
    """Build ``Tr(P)`` for a flat ordered pattern.

    Args:
        schema: supplies the label alphabet for wildcard expansion.
        arms: the arm path regexes ``R1 ... Rk`` (over labels).
        allowed_types: per arm, the candidate types of its target variable
            (the typed-marker alternation of Section 3.4).
        root_types: candidate types of the pattern's own variable.
        engine: compilation engine; hash-consing makes the assembled trace
            regex a cheap cache key, so repeated patterns share one NFA.
    """
    if engine is None:
        engine = get_default_engine()
    regex = pattern_trace_regex(arms, allowed_types, root_types)
    alphabet = frozenset(schema.labels()) | frozenset(regex.symbols())
    return engine.thompson(regex, alphabet)


def pattern_trace_regex(
    arms: Sequence[Regex],
    allowed_types: Sequence[Iterable[str]],
    root_types: Iterable[str],
) -> Regex:
    """The trace regex ``mark0 · R1 · mark1 ... Rk · markk`` of ``Tr(P)``.

    Hash-consing makes the assembled regex a cheap, stable cache key for
    both the Thompson route and the compiled route.
    """
    if len(arms) != len(allowed_types):
        raise ValueError("arms and allowed_types must align")
    parts: List[Regex] = [alt(*(Sym(marker(0, t)) for t in root_types))]
    for index, (arm, types) in enumerate(zip(arms, allowed_types), start=1):
        parts.append(arm)
        parts.append(alt(*(Sym(marker(index, t)) for t in types)))
    return concat(*parts)


def schema_trace_nfa(
    schema: Schema,
    root_tid: str,
    arm_count: int,
    reach: Optional[SchemaReach] = None,
    engine: Optional[Engine] = None,
) -> NFA:
    """Build ``Tr(S)`` rooted at ``root_tid`` for ``arm_count`` paths.

    The automaton emits ``marker(0, root_tid)``, then ``arm_count``
    label-word segments each terminated by a typed marker, such that the
    whole trace occurs in some instance of the schema.

    The result is memoized per ``(schema fingerprint, root type, arm
    count)`` — callers must treat it as immutable.
    """
    if engine is None:
        engine = get_default_engine()
    root_def = schema.type(root_tid)
    if not root_def.is_ordered:
        raise ValueError(
            f"schema traces require an ordered root type, got {root_tid!r}"
        )
    key = ("trace-nfa", schema.fingerprint(), root_tid, arm_count)
    return engine.cache.get_or_compute(
        key, lambda: _build_schema_trace_nfa(schema, root_tid, arm_count, engine)
    )


def _build_schema_trace_nfa(
    schema: Schema, root_tid: str, arm_count: int, engine: Engine
) -> NFA:
    content = _restricted_content_nfa(schema, root_tid, engine)
    co_accepting = _co_accepting(content)
    edges = schema.possible_edges(engine)

    # States are tuples; we intern them to integers.
    ids: Dict[Tuple, int] = {}
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    accepting: Set[int] = set()
    alphabet: Set[object] = set(schema.labels())

    def state_id(state: Tuple) -> int:
        if state not in ids:
            ids[state] = len(ids)
        return ids[state]

    def add_arc(src: Tuple, symbol: object, dst: Tuple) -> None:
        if symbol is not EPS:
            alphabet.add(symbol)
        transitions.setdefault(state_id(src), []).append((symbol, state_id(dst)))

    start = ("pre",)
    add_arc(start, marker(0, root_tid), ("between", 0, content.start))
    pending = [("between", 0, content.start)]
    seen: Set[Tuple] = {start, ("between", 0, content.start)}

    while pending:
        state = pending.pop()

        def push(next_state: Tuple) -> None:
            if next_state not in seen:
                seen.add(next_state)
                pending.append(next_state)

        if state[0] == "between":
            _kind, segment, q = state
            if segment == arm_count and q in co_accepting:
                accepting.add(state_id(state))
            for symbol, dst in content.arcs_from(q):
                # Filler children are invisible in the trace.
                add_arc(state, EPS, ("between", segment, dst))
                push(("between", segment, dst))
                if symbol is not EPS and segment < arm_count:
                    label, target = symbol
                    walk = ("walk", segment + 1, dst, target)
                    add_arc(state, label, walk)
                    push(walk)
        else:  # walk
            _kind, segment, q, current_type = state
            add_arc(
                state,
                marker(segment, current_type),
                ("between", segment, q),
            )
            push(("between", segment, q))
            for label, target in sorted(edges.get(current_type, ())):
                walk = ("walk", segment, q, target)
                add_arc(state, label, walk)
                push(walk)

    return NFA(len(ids), alphabet, state_id(start), accepting, transitions)


def _restricted_content_nfa(
    schema: Schema, tid: str, engine: Optional[Engine] = None
) -> NFA:
    if engine is None:
        engine = get_default_engine()
    return engine.restricted_content_nfa(schema, tid)


def _co_accepting(nfa: NFA) -> FrozenSet[int]:
    return nfa.coreachable_states()


def trace_product(
    schema: Schema,
    root_types: Iterable[str],
    arms: Sequence[Regex],
    allowed_types: Sequence[Iterable[str]],
    reach: Optional[SchemaReach] = None,
    engine: Optional[Engine] = None,
) -> NFA:
    """``Tr(P) ∩ Tr(S)``, unioned over the candidate root types, trimmed.

    The whole product is memoized: hash-consed arm regexes plus the schema
    fingerprint make the inputs a cheap structural key, so a repeated query
    against the same schema reuses the trimmed product outright.
    """
    if engine is None:
        engine = get_default_engine()
    root_types = tuple(root_types)
    arms = tuple(arms)
    allowed_types = tuple(tuple(types) for types in allowed_types)
    key = ("trace-product", schema.fingerprint(), root_types, arms, allowed_types)

    def build() -> NFA:
        pattern = pattern_trace_nfa(schema, arms, allowed_types, root_types, engine)
        product: Optional[NFA] = None
        for root_tid in root_types:
            if not schema.type(root_tid).is_ordered:
                continue
            piece = intersect(
                pattern,
                schema_trace_nfa(schema, root_tid, len(arms), reach, engine),
            )
            product = piece if product is None else union(product, piece)
        if product is None:
            raise ValueError("no ordered candidate root types")
        return trim(product)

    return engine.cache.get_or_compute(key, build)


def flat_satisfiable(
    schema: Schema,
    root_types: Iterable[str],
    arms: Sequence[Regex],
    allowed_types: Sequence[Iterable[str]],
    engine: Optional[Engine] = None,
) -> bool:
    """Satisfiability of a flat ordered pattern via the trace intersection.

    This is the paper's ``Tr(P) ∩ Tr(S) ≠ ∅`` criterion, used in tests as an
    independent oracle for the general checker of
    :mod:`repro.typing.satisfiability`.

    The emptiness check is a pair-BFS over the minimized tables of
    ``Tr(P)`` and each per-root ``Tr(S)``
    (:meth:`~repro.automata.compiled.CompiledDFA.product_empty`), skipping
    the explicit product NFA that :func:`trace_product` materializes for
    the callers that need the product itself (inference, feedback).
    """
    if engine is None:
        engine = get_default_engine()
    root_types = tuple(root_types)
    arms = tuple(arms)
    allowed_types = tuple(tuple(types) for types in allowed_types)
    regex = pattern_trace_regex(arms, allowed_types, root_types)
    alphabet = frozenset(schema.labels()) | frozenset(regex.symbols())
    pattern = engine.compiled_path(regex, alphabet)
    ordered = [t for t in root_types if schema.type(t).is_ordered]
    if not ordered:
        raise ValueError("no ordered candidate root types")
    return any(
        not pattern.product_empty(
            engine.compiled_trace(schema, root_tid, len(arms))
        )
        for root_tid in ordered
    )


def inferred_marker_types(product: NFA) -> Dict[int, FrozenSet[str]]:
    """Per-position candidate types read off a trace product.

    Position ``i`` maps to the set of types ``T`` whose marker
    :math:`X_i^T` appears on some accepting path — the paper's projection
    "erase the other symbols".
    """
    result: Dict[int, Set[str]] = {}
    for symbol in product.useful_symbols():
        if is_marker(symbol):
            _tag, index, tid = symbol
            result.setdefault(index, set()).add(tid)
    return {index: frozenset(types) for index, types in result.items()}


def segment_projection(product: NFA, index: int) -> NFA:
    """The i-th segment language of a trace product (1-based).

    Returns an NFA over labels accepting exactly the words that can appear
    between marker ``index-1`` and marker ``index`` on accepting traces —
    the ``lang(Ri')`` of Proposition 4.1.
    """
    useful = product.useful_states()
    starts: Set[int] = set()
    ends: Set[int] = set()
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    alphabet: Set[object] = set()
    for src in useful:
        for symbol, dst in product.arcs_from(src):
            if dst not in useful:
                continue
            if is_marker(symbol):
                _tag, mark_index, _tid = symbol
                if mark_index == index - 1:
                    starts.add(dst)
                if mark_index == index:
                    ends.add(src)
                continue
            transitions.setdefault(src, []).append((symbol, dst))
            if symbol is not EPS:
                alphabet.add(symbol)
    n = product.n_states
    fresh_start = n
    transitions[fresh_start] = [(EPS, s) for s in sorted(starts)]
    return trim(NFA(n + 1, alphabet, fresh_start, ends, transitions))


def segment_regex(product: NFA, index: int) -> Regex:
    """Regex form of :func:`segment_projection` (for display)."""
    return to_regex(segment_projection(product, index))
