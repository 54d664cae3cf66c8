"""The paper's core: type inference for queries on semistructured data.

Implements the four problems of Section 3 — satisfiability
(:func:`is_satisfiable`), total and partial type checking
(:func:`check_total_types`, :func:`check_types`), and type inference
(:func:`infer_types`) — plus the traces machinery of Section 3.4
(:mod:`repro.typing.traces`) and the Table-2 complexity classifier
(:func:`classify`).
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "Pins": ".satisfiability",
    "SatisfiabilityChecker": ".satisfiability",
    "is_satisfiable": ".satisfiability",
    "check_total_types": ".typecheck",
    "check_types": ".typecheck",
    "infer_types": ".inference",
    "inferred_types_of": ".inference",
    "iterate_inferred_types": ".inference",
    "flat_satisfiable": ".traces",
    "inferred_marker_types": ".traces",
    "marker": ".traces",
    "pattern_trace_nfa": ".traces",
    "schema_trace_nfa": ".traces",
    "segment_projection": ".traces",
    "segment_regex": ".traces",
    "trace_product": ".traces",
    "Classification": ".complexity",
    "classify": ".complexity",
    "table2_columns": ".complexity",
    "table2_prediction": ".complexity",
    "table2_rows": ".complexity",
    "SchemaReach": ".reach",
    "NonTerm": ".grammar",
    "TraceGrammar": ".grammar",
    "WitnessError": ".witness",
    "find_witness": ".witness",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
