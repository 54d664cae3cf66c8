"""Type inference — problem (4) of Section 3.

Enumerate all type/label assignments for the SELECT variables for which
partial type checking succeeds.  The enumeration is a backtracking search
that pins SELECT variables one at a time and prunes unsatisfiable
prefixes, so each emitted assignment costs at most ``|select| × |domain|``
satisfiability calls: polynomial in the input *and the output* whenever
satisfiability itself is polynomial — matching the output-polynomial
bounds of Section 3.3.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..cancel import checkpoint
from ..engine import Engine
from ..query.model import Query
from ..schema.model import ATOMIC_TYPE_NAMES, Schema
from .satisfiability import Pins, SatisfiabilityChecker


def infer_types(
    query: Query,
    schema: Schema,
    extra_pins: Optional[Pins] = None,
    engine: Optional[Engine] = None,
) -> List[Pins]:
    """All satisfiable SELECT-variable assignments, in lexicographic order.

    Node variables are assigned type ids, value variables (``$v``) atomic
    type names, label variables (``$l``) labels.  ``extra_pins`` fixes
    additional variables up front (useful for interactive exploration).
    """
    return list(iterate_inferred_types(query, schema, extra_pins, engine))


def inferred_types_of(
    query: Query,
    schema: Schema,
    var: str,
    extra_pins: Optional[Pins] = None,
    engine: Optional[Engine] = None,
) -> List[str]:
    """The types (or labels / atomic names) variable ``var`` can take.

    Unlike :func:`infer_types`, ``var`` need not appear in the SELECT
    clause; the result is the set of values ``v`` such that pinning
    ``var = v`` (on top of ``extra_pins``) leaves the query satisfiable.
    """
    checker = SatisfiabilityChecker(query, schema, engine)
    if var in query.value_vars():
        domain = list(ATOMIC_TYPE_NAMES)
    elif var in query.label_vars():
        domain = sorted(schema.labels())
    else:
        domain = sorted(schema.reachable_types())
    base = dict(extra_pins or {})
    result = []
    for value in domain:
        pins = dict(base)
        pins[var] = value
        if checker.satisfiable(pins):
            result.append(value)
    return result


def iterate_inferred_types(
    query: Query,
    schema: Schema,
    extra_pins: Optional[Pins] = None,
    engine: Optional[Engine] = None,
) -> Iterator[Pins]:
    """Generator form of :func:`infer_types`."""
    checker = SatisfiabilityChecker(query, schema, engine)
    select = list(query.select)
    value_vars = set(query.value_vars())
    label_vars = set(query.label_vars())
    node_domain = sorted(schema.reachable_types())
    label_domain = sorted(schema.labels())

    def domain_of(var: str) -> List[str]:
        if var in value_vars:
            return list(ATOMIC_TYPE_NAMES)
        if var in label_vars:
            return label_domain
        return node_domain

    base: Pins = dict(extra_pins or {})

    def assign(index: int, pins: Pins) -> Iterator[Pins]:
        if not checker.satisfiable(pins):
            return
        if index == len(select):
            yield {var: pins[var] for var in select}
            return
        var = select[index]
        if var in pins:
            yield from assign(index + 1, pins)
            return
        for value in domain_of(var):
            checkpoint()
            extended = dict(pins)
            extended[var] = value
            yield from assign(index + 1, extended)

    yield from assign(0, base)
