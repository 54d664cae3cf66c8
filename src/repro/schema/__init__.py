"""ScmDL schemas (Section 2): model, syntax, DTD bridge, conformance.

Provides the schema model and classifiers (:class:`Schema`,
:class:`TypeDef`), the Table-1 textual syntax (:func:`parse_schema` /
:func:`schema_to_string`), DTD translation (:func:`parse_dtd` /
:func:`schema_to_dtd`), conformance checking per Definition 2.1
(:func:`conforms`, :func:`find_type_assignment`), schema subsumption
(:func:`subsumes`), and schema evolution: typed diffs
(:func:`diff_schemas`) and migration compatibility reports
(:func:`analyze_migration`).
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "ATOMIC_TYPE_NAMES": ".model",
    "Schema": ".model",
    "SchemaError": ".model",
    "TypeDef": ".model",
    "TypeKind": ".model",
    "atomic_matches": ".model",
    "atomic_types_overlap": ".model",
    "parse_schema": ".parser",
    "schema_to_string": ".parser",
    "DtdError": ".dtd",
    "parse_dtd": ".dtd",
    "schema_to_dtd": ".dtd",
    "candidate_types": ".conformance",
    "conforms": ".conformance",
    "find_type_assignment": ".conformance",
    "verify_assignment": ".conformance",
    "simulation": ".subsumption",
    "subsumes": ".subsumption",
    "CHANGE_KINDS": ".delta",
    "VERDICTS": ".delta",
    "AddType": ".delta",
    "ChangeAtomicDomain": ".delta",
    "ChangeContentModel": ".delta",
    "ChangeEdgeLabel": ".delta",
    "ChangeKind": ".delta",
    "ChangeRoot": ".delta",
    "DropType": ".delta",
    "RenameType": ".delta",
    "SchemaChange": ".delta",
    "SchemaDelta": ".delta",
    "compose_verdicts": ".delta",
    "diff_schemas": ".delta",
    "separating_word": ".delta",
    "POLICIES": ".migrate",
    "QUERY_STATUSES": ".migrate",
    "MigrationReport": ".migrate",
    "QueryReport": ".migrate",
    "analyze_migration": ".migrate",
    "LabelPredicate": ".predicates",
    "PredicateSchema": ".predicates",
    "expand_for_data": ".predicates",
    "expand_for_query": ".predicates",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
