"""Parser and printer for the Table-1 schema syntax.

Grammar::

    SchemaDef ::= Tid=Type ; ... ; Tid=Type
    Type      ::= atomicType | { R } | [ R ]
    R         ::= (R.R) | (R|R) | (R*) | eps | label->Tid

Atomic types are ``string``, ``int``, ``float``.  Example (the Document
schema of Section 2)::

    DOCUMENT = [(paper -> PAPER)*];
    PAPER    = [title -> TITLE . (author -> AUTHOR)*];
    AUTHOR   = [name -> NAME . email -> EMAIL];
    NAME     = [firstname -> FIRSTNAME . lastname -> LASTNAME];
    TITLE = string; FIRSTNAME = string; LASTNAME = string; EMAIL = string
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..automata.parser import regex_at, regex_to_string
from ..automata.syntax import EPSILON, Regex, sym
from ..lexer import Scan, scan
from .model import ATOMIC_TYPE_NAMES, Schema, TypeDef, TypeKind


def _schema_atom(label: str, target: Optional[str]) -> Regex:
    if target is None:
        raise SyntaxError(f"schema atom {label!r} is missing its '-> Tid' part")
    return sym((label, target))


#: Content brackets: opening operator -> (closing operator, type kind).
_BRACKETS = {"{": ("}", TypeKind.UNORDERED), "[": ("]", TypeKind.ORDERED)}


def parse_schema(text: str, validate: bool = True) -> Schema:
    """Parse a schema from its textual representation."""
    tokens = scan(text)
    kinds = tokens.kinds
    types: List[TypeDef] = []
    i = 0
    while kinds[i] != "EOF":
        type_def, i = _parse_definition(tokens, i)
        types.append(type_def)
        if kinds[i] != ";":
            break
        i += 1
    if kinds[i] != "EOF":
        raise tokens.unexpected(i)
    return Schema(types, validate=validate)


def _parse_definition(tokens: Scan, i: int) -> Tuple[TypeDef, int]:
    tid = tokens.ident(i)
    i = tokens.skip(i + 1, "=")
    bracket = _BRACKETS.get(tokens.kinds[i])
    if bracket is not None:
        closing, kind = bracket
        if tokens.kinds[i + 1] == closing:
            return TypeDef(tid, kind, regex=EPSILON), i + 2
        regex, i = regex_at(tokens, i + 1, _schema_atom, allow_arrow=True, allow_wildcard=False)
        return TypeDef(tid, kind, regex=regex), tokens.skip(i, closing)
    name = tokens.ident(i)
    if name not in ATOMIC_TYPE_NAMES:
        raise SyntaxError(
            f"unknown atomic type {name!r} for {tid!r} at line {tokens.line(i)} "
            f"(expected one of {', '.join(ATOMIC_TYPE_NAMES)})"
        )
    return TypeDef(tid, TypeKind.ATOMIC, atomic=name), i + 1


def schema_to_string(schema: Schema, indent: bool = True) -> str:
    """Render a schema in the Table-1 syntax (parse round-trips)."""
    separator = ";\n" if indent else "; "
    return separator.join(_render_type(type_def) for type_def in schema)


def _render_type(type_def: TypeDef) -> str:
    if type_def.is_atomic:
        return f"{type_def.tid} = {type_def.atomic}"
    open_, close = ("[", "]") if type_def.is_ordered else ("{", "}")
    body = regex_to_string(type_def.regex, _show_schema_atom)
    return f"{type_def.tid} = {open_}{body}{close}"


def _show_schema_atom(symbol: object) -> str:
    label, target = symbol  # type: ignore[misc]
    return f"{label}->{target}"
