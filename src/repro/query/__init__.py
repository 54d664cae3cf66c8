"""Patterns and selection queries (Section 2): model, syntax, evaluation.

Provides the query model and Table-2 classifiers (:class:`Query`,
:class:`PatternDef`), the textual syntax (:func:`parse_query` /
:func:`query_to_string`), and full evaluation semantics per Definition 2.3
(:func:`evaluate`, :func:`satisfies`, :func:`iterate_bindings`).
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "LabelVar": ".model",
    "PatternArm": ".model",
    "PatternDef": ".model",
    "PatternKind": ".model",
    "Query": ".model",
    "QueryError": ".model",
    "parse_query": ".parser",
    "query_to_string": ".parser",
    "Binding": ".eval",
    "evaluate": ".eval",
    "iterate_bindings": ".eval",
    "satisfies": ".eval",
    "XmlqlError": ".xmlql",
    "parse_xmlql": ".xmlql",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
