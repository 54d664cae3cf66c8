"""Parser and printer for the Table-1 data-graph syntax.

Grammar::

    GraphDef ::= Oid=Node ; ... ; Oid=Node
    Node     ::= value | { E } | [ E ]
    E        ::= label->Oid , ... , label->Oid

Values are double-quoted strings, integers, or floats.  Oids are identifiers,
optionally prefixed with ``&`` (referenceable).  A trailing semicolon is
allowed; ``#`` starts a line comment.

Example (from Section 2 of the paper)::

    o1 = {a -> o2, b -> o3};
    o2 = [a -> o4, c -> o5, c -> o6];
    o3 = 3.14; o4 = "abc"; o5 = 2.71; o6 = 6.12
"""

from __future__ import annotations

from typing import List, Tuple

from ..lexer import Scan, scan
from .model import DataGraph, Edge, Node, NodeKind

#: Edge-list brackets: opening operator -> (closing operator, node kind).
_BRACKETS = {"{": ("}", NodeKind.UNORDERED), "[": ("]", NodeKind.ORDERED)}


def parse_data(text: str, validate: bool = True) -> DataGraph:
    """Parse a data graph from its textual representation."""
    tokens = scan(text)
    kinds = tokens.kinds
    nodes: List[Node] = []
    i = 0
    while kinds[i] != "EOF":
        node, i = _parse_definition(tokens, i)
        nodes.append(node)
        if kinds[i] != ";":
            break
        i += 1
    if kinds[i] != "EOF":
        raise tokens.unexpected(i)
    return DataGraph(nodes, validate=validate)


def _parse_definition(tokens: Scan, i: int) -> Tuple[Node, int]:
    kinds, values = tokens.kinds, tokens.values
    oid = tokens.ident(i)
    i = tokens.skip(i + 1, "=")
    bracket = _BRACKETS.get(kinds[i])
    if bracket is not None:
        closing, kind = bracket
        edges, i = _parse_edges(tokens, i + 1, closing)
        return Node(oid, kind, edges=edges), i
    if kinds[i] == "STRING" or kinds[i] == "NUMBER":
        return Node(oid, NodeKind.ATOMIC, value=values[i]), i + 1
    raise SyntaxError(f"expected node value for {oid!r}, found {tokens.found(i)}")


def _parse_edges(tokens: Scan, i: int, closing: str) -> Tuple[List[Edge], int]:
    edges: List[Edge] = []
    if tokens.kinds[i] == closing:
        return edges, i + 1
    while True:
        label = tokens.ident(i)
        i = tokens.skip(i + 1, "ARROW")
        edges.append(Edge(label, tokens.ident(i)))
        i += 1
        if tokens.kinds[i] == closing:
            return edges, i + 1
        i = tokens.skip(i, ",")


def data_to_string(graph: DataGraph, indent: bool = True) -> str:
    """Render a data graph in the Table-1 syntax (parse round-trips)."""
    separator = ";\n" if indent else "; "
    return separator.join(_render_node(node) for node in graph)


def _render_node(node: Node) -> str:
    if node.kind is NodeKind.ATOMIC:
        return f"{node.oid} = {_render_value(node.value)}"
    open_, close = ("[", "]") if node.kind is NodeKind.ORDERED else ("{", "}")
    inner = ", ".join(f"{edge.label} -> {edge.target}" for edge in node.edges)
    return f"{node.oid} = {open_}{inner}{close}"


def _render_value(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)
