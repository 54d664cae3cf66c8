"""repro: reproduction of Milo & Suciu, *Type Inference for Queries on
Semistructured Data* (PODS 1999).

The library implements the paper's full stack:

* :mod:`repro.automata` — regular languages over arbitrary symbols
  (Thompson/NFA/DFA, products, containment, bag languages);
* :mod:`repro.data` — ordered-OEM data graphs and the Table-1 data syntax,
  plus the XML encoding of Section 2;
* :mod:`repro.schema` — ScmDL schemas, DTD⁻/DTD⁺ classes, conformance
  (Definition 2.1) and schema subsumption;
* :mod:`repro.query` — patterns and selection queries (Definitions 2.2–2.3)
  with full evaluation semantics;
* :mod:`repro.typing` — the paper's core: traces (Section 3.4),
  satisfiability, total/partial type checking, and type inference, with
  complexity matching Table 2 cell by cell;
* :mod:`repro.apps` — the Section-4 applications: feedback queries,
  the adaptive optimal evaluator A_O, and Skolem-function transformations;
* :mod:`repro.reductions` — the executable 3SAT reductions behind the
  NP-completeness results;
* :mod:`repro.workloads` — synthetic workload generators used by the
  benchmark harness.

Quickstart::

    from repro import parse_schema, parse_query, infer_types

    schema = parse_schema('DOC = [(paper -> PAPER)*]; PAPER = [title -> T]; T = string')
    query = parse_query('SELECT X WHERE Root = [paper.title -> X]')
    for assignment in infer_types(query, schema):
        print(assignment)

Top-level names are loaded lazily so that the subpackages stay importable
in isolation.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Maps public top-level names to the submodule that defines them.
_EXPORTS = {
    "DataGraph": ".data",
    "parse_data": ".data",
    "data_to_string": ".data",
    "from_xml": ".data",
    "to_xml": ".data",
    "Schema": ".schema",
    "parse_schema": ".schema",
    "schema_to_string": ".schema",
    "parse_dtd": ".schema",
    "conforms": ".schema",
    "find_type_assignment": ".schema",
    "Query": ".query",
    "parse_query": ".query",
    "query_to_string": ".query",
    "evaluate": ".query",
    "is_satisfiable": ".typing",
    "check_types": ".typing",
    "check_total_types": ".typing",
    "infer_types": ".typing",
    "classify": ".typing",
    "feedback_query": ".apps",
    "NaiveEvaluator": ".apps",
    "AdaptiveEvaluator": ".apps",
    "TransformQuery": ".apps",
    "parse_transform": ".apps",
    "parse_xmlql": ".query",
    "find_witness": ".typing",
    "subsumes": ".schema",
    "from_json": ".data",
    "to_json": ".data",
    "from_plain_json": ".data",
    "graph_to_dot": ".data",
    "schema_to_dot": ".data",
}

__all__ = sorted(_EXPORTS) + ["__version__"]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
