"""Data graphs: the ordered OEM model of Section 2.

Provides the graph model (:class:`DataGraph`), the Table-1 textual syntax
(:func:`parse_data` / :func:`data_to_string`), a fluent builder
(:class:`GraphBuilder`), and the XML encoding of Section 2
(:func:`from_xml` / :func:`to_xml`).
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "AtomicValue": ".model",
    "DataGraph": ".model",
    "DataGraphError": ".model",
    "Edge": ".model",
    "GraphBuilder": ".model",
    "Node": ".model",
    "NodeKind": ".model",
    "data_to_string": ".parser",
    "parse_data": ".parser",
    "XmlElement": ".xml",
    "XmlError": ".xml",
    "from_xml": ".xml",
    "parse_xml": ".xml",
    "to_xml": ".xml",
    "graph_to_dot": ".dot",
    "schema_to_dot": ".dot",
    "from_json": ".json_bridge",
    "from_plain_json": ".json_bridge",
    "to_json": ".json_bridge",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
