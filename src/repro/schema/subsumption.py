"""Schema subsumption: is every instance of S1 also an instance of S2?

Used by the transformation type checker (Section 4.3): after inferring an
output schema for a query, conformance of all outputs to a required schema
reduces to a subsumption check between the two schemas.

The check computes the greatest *simulation* between type ids:

    (T, T') survives iff  T and T' have the same kind, atomic domains are
    compatible, and every word of lang(R_T) — with each atom ``(a, U)``
    relaxed to the alternation of ``(a, U')`` over surviving pairs (U, U') —
    is in lang(R_T').

``S1 ⊑ S2`` is reported when ``(root1, root2)`` survives.

Soundness/completeness: the check is *sound* for tree data (every instance
that is a tree of non-referenceable nodes conforms to S2 — in particular for
all XML documents and all outputs of the Section 4.3 transformations on tree
inputs).  With shared referenceable nodes a simulation may assign a shared
node different S2-types via different parents, so for graphs with sharing
the check is an approximation; :func:`subsumes` therefore also offers a
*functional* mode that demands one consistent image type per S1 type, which
is sound for arbitrary instances.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..automata.syntax import Regex
from ..engine import Engine, get_default_engine
from .model import Schema, TypeDef


def simulation(
    schema1: Schema, schema2: Schema, engine: Optional[Engine] = None
) -> FrozenSet[Tuple[str, str]]:
    """The greatest simulation relation between the two schemas' type ids."""
    if engine is None:
        engine = get_default_engine()
    pairs: Set[Tuple[str, str]] = set()
    for t1 in schema1:
        for t2 in schema2:
            if _base_compatible(t1, t2):
                pairs.add((t1.tid, t2.tid))
    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            t1 = schema1.type(pair[0])
            t2 = schema2.type(pair[1])
            if t1.is_atomic:
                continue
            if not _language_simulated(t1, t2, schema1, schema2, pairs, engine):
                pairs.discard(pair)
                changed = True
    return frozenset(pairs)


def _base_compatible(t1: TypeDef, t2: TypeDef) -> bool:
    if t1.kind is not t2.kind:
        return False
    if t1.is_atomic:
        return t1.atomic == t2.atomic
    return True


def _language_simulated(
    t1: TypeDef,
    t2: TypeDef,
    schema1: Schema,
    schema2: Schema,
    pairs: Set[Tuple[str, str]],
    engine: Optional[Engine] = None,
) -> bool:
    """Check lang(R_T1) ⊆ lang(R_T2) up to the candidate relation.

    Implemented by relabelling both regexes into a common alphabet: a left
    atom ``(a, U)`` keeps its identity, while the right automaton is built
    with each atom ``(a, U')`` replaced by the alternation of all left atoms
    ``(a, U)`` with ``(U, U')`` in the relation.

    For unordered types this tests ordered-language containment, which
    soundly implies unordered-language containment.

    Both sides are the engine's compiled tables over the left alphabet,
    decided by :meth:`~repro.automata.compiled.CompiledDFA.is_subset`.
    """
    if engine is None:
        engine = get_default_engine()
    left_alphabet = t1.symbols()
    left = engine.compiled_path(t1.regex, left_alphabet)

    # For each right atom (a, U'), the left atoms (a, U) it may stand for.
    related_left: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for label, target2 in t2.symbols():
        related_left[(label, target2)] = [
            (left_label, target1)
            for left_label, target1 in left_alphabet
            if left_label == label and (target1, target2) in pairs
        ]

    from ..automata.syntax import EMPTY, Sym, alt

    def relax(symbol: object) -> Regex:
        options = related_left.get(symbol, [])
        if not options:
            return EMPTY
        return alt(*(Sym(option) for option in options))

    # Hash-consing makes the relaxed regex a cheap cache key, so repeated
    # fixpoint rounds (and repeated diffs of one pair) that relax to the
    # same regex reuse one compiled table.
    relaxed_regex = _substitute(t2.regex, relax)
    right = engine.compiled_path(relaxed_regex, left_alphabet)
    return left.is_subset(right)


def _substitute(regex: Regex, fn) -> Regex:
    """Replace every atom of ``regex`` by the regex ``fn(symbol)``."""
    from ..automata.syntax import (
        Alt,
        Any,
        Concat,
        Empty,
        Epsilon,
        Star,
        Sym,
        alt,
        concat,
        star,
    )

    if isinstance(regex, (Empty, Epsilon)):
        return regex
    if isinstance(regex, Sym):
        return fn(regex.symbol)
    if isinstance(regex, Any):
        raise ValueError("wildcards cannot appear in schema regexes")
    if isinstance(regex, Concat):
        return concat(*(_substitute(p, fn) for p in regex.parts))
    if isinstance(regex, Alt):
        return alt(*(_substitute(p, fn) for p in regex.parts))
    if isinstance(regex, Star):
        return star(_substitute(regex.inner, fn))
    raise TypeError(f"unknown regex node: {regex!r}")


def subsumes(
    schema1: Schema,
    schema2: Schema,
    functional: bool = False,
    engine: Optional[Engine] = None,
) -> bool:
    """Decide ``S1 ⊑ S2`` (every instance of S1 conforms to S2).

    Args:
        schema1: the candidate smaller schema.
        schema2: the candidate larger schema.
        functional: if True, additionally require a consistent *function*
            from S1 types to S2 types inside the simulation, which makes the
            positive answer sound for instances with shared referenceable
            nodes (not just tree instances).
    """
    relation = simulation(schema1, schema2, engine)
    if (schema1.root, schema2.root) not in relation:
        return False
    if not functional:
        return True
    return _functional_refinement(schema1, schema2, relation, engine) is not None


def _functional_refinement(
    schema1: Schema,
    schema2: Schema,
    relation: FrozenSet[Tuple[str, str]],
    engine: Optional[Engine] = None,
) -> Optional[Dict[str, str]]:
    """Search for a type function consistent with the simulation."""
    images: Dict[str, List[str]] = {}
    for tid in schema1.tids():
        images[tid] = sorted(t2 for t1, t2 in relation if t1 == tid)
        if not images[tid]:
            # Uninhabited or unreachable types need no image; pick a dummy.
            images[tid] = []
    relevant = [tid for tid in schema1.tids() if images[tid]]
    required = {tid for tid in schema1.reachable_types() if tid in schema1.tids()}
    for tid in required & set(schema1.tids()):
        if tid in schema1.inhabited_types() and not images.get(tid):
            return None

    candidates = [images[tid] or ["*none*"] for tid in relevant]
    for combo in itertools.product(*candidates):
        mapping = dict(zip(relevant, combo))
        if mapping.get(schema1.root) != schema2.root:
            continue
        if _function_is_simulation(schema1, schema2, mapping, engine):
            return mapping
    return None


def _function_is_simulation(
    schema1: Schema,
    schema2: Schema,
    mapping: Dict[str, str],
    engine: Optional[Engine] = None,
) -> bool:
    pairs = {(t1, t2) for t1, t2 in mapping.items() if t2 != "*none*"}
    for t1_id, t2_id in pairs:
        t1 = schema1.type(t1_id)
        t2 = schema2.type(t2_id)
        if not _base_compatible(t1, t2):
            return False
        if t1.is_atomic:
            continue
        if not _language_simulated(t1, t2, schema1, schema2, pairs, engine):
            return False
    return True
