"""Parser and printer for the query syntax (Table 1 plus SELECT/WHERE).

Grammar::

    Query   ::= SELECT [Var , ... , Var] WHERE PatDef ; ... ; PatDef
    PatDef  ::= nodeVar = value | nodeVar = $valueVar
              | nodeVar = { P } | nodeVar = [ P ]
    P       ::= L -> nodeVar , ... , L -> nodeVar
    L       ::= R | $labelVar

``R`` is a regular path expression over labels with the ``_`` wildcard.
An empty SELECT clause (``SELECT WHERE ...``) denotes a boolean query.

Example (the Abiteboul/Vianu query of Section 2)::

    SELECT X1
    WHERE Root = [paper -> X1];
          X1 = [author.name.(_*) -> X2, author.name.(_*) -> X3];
          X2 = "Vianu"; X3 = "Abiteboul"
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..automata.parser import regex_at, regex_to_string
from ..automata.syntax import Regex, sym
from ..lexer import Scan, scan
from .model import LabelVar, PatternArm, PatternDef, PatternKind, Query


def _path_atom(label: str, target: Optional[str]) -> Regex:
    if target is not None:
        raise SyntaxError("arrow atoms are not allowed in path expressions")
    return sym(label)


def _keyword(tokens: Scan, i: int, word: str) -> int:
    if tokens.kinds[i] != "IDENT" or tokens.values[i] != word:
        raise tokens.expected(i, f"IDENT {word!r}")
    return i + 1


def parse_query(text: str, validate: bool = True) -> Query:
    """Parse a selection query."""
    tokens = scan(text)
    kinds, values = tokens.kinds, tokens.values
    i = _keyword(tokens, 0, "SELECT")
    select: List[str] = []
    while True:
        if kinds[i] == "$":
            select.append("$" + tokens.ident(i + 1))
            i += 2
        elif kinds[i] == "IDENT" and values[i] != "WHERE":
            select.append(values[i])
            i += 1
        else:
            break
        if kinds[i] != ",":
            break
        i += 1
    i = _keyword(tokens, i, "WHERE")
    patterns: List[PatternDef] = []
    while kinds[i] != "EOF":
        pattern, i = _parse_pattern_def(tokens, i)
        patterns.append(pattern)
        if kinds[i] != ";":
            break
        i += 1
    if kinds[i] != "EOF":
        raise tokens.unexpected(i)
    return Query(select, patterns, validate=validate)


def _parse_pattern_def(tokens: Scan, i: int) -> Tuple[PatternDef, int]:
    kinds, values = tokens.kinds, tokens.values
    var = tokens.ident(i)
    i = tokens.skip(i + 1, "=")
    kind = kinds[i]
    if kind == "{":
        arms, i = _parse_arms(tokens, i + 1)
        return PatternDef(var, PatternKind.UNORDERED, arms=arms), i
    if kind == "[":
        arms, partial, i = _parse_ordered_arms(tokens, i + 1)
        return PatternDef(var, PatternKind.ORDERED, arms=arms, partial_order=partial), i
    if kind == "$":
        name = tokens.ident(i + 1)
        return PatternDef(var, PatternKind.VALUE_VAR, value_var=name), i + 2
    if kind == "STRING" or kind == "NUMBER":
        return PatternDef(var, PatternKind.VALUE, value=values[i]), i + 1
    raise SyntaxError(f"expected pattern body for {var!r}, found {tokens.found(i)}")


def _parse_arm(tokens: Scan, i: int) -> Tuple[PatternArm, int]:
    """``L -> nodeVar`` where ``L`` is a path regex or a ``$label`` variable."""
    if tokens.kinds[i] == "$":
        path = LabelVar(tokens.ident(i + 1))
        i += 2
    else:
        path, i = regex_at(tokens, i, _path_atom, allow_arrow=False, allow_wildcard=True)
    i = tokens.skip(i, "ARROW")
    return PatternArm(path, tokens.ident(i)), i + 1


def _parse_ordered_arms(tokens: Scan, i: int):
    """Arms of an ordered pattern, optionally followed by a partial order:
    ``[a -> X, b -> Y ; 1 < 0]`` constrains arm 1's first edge before arm
    0's; with the suffix present, only the listed pairs are ordered."""
    kinds = tokens.kinds
    arms: List[PatternArm] = []
    if kinds[i] == "]":
        return arms, None, i + 1
    while True:
        if kinds[i] == ";":
            partial, i = _parse_order_constraints(tokens, i + 1)
            return arms, partial, tokens.skip(i, "]")
        arm, i = _parse_arm(tokens, i)
        arms.append(arm)
        if kinds[i] == "]":
            return arms, None, i + 1
        if kinds[i] == ";":
            continue  # the loop head parses the constraints
        i = tokens.skip(i, ",")


def _parse_order_constraints(tokens: Scan, i: int):
    kinds, values = tokens.kinds, tokens.values
    pairs = []
    if kinds[i] == "]":
        return tuple(pairs), i  # '[...;]': explicitly unconstrained
    while True:
        left = values[i]
        i = tokens.skip(tokens.skip(i, "NUMBER"), "<")
        right = values[i]
        i = tokens.skip(i, "NUMBER")
        pairs.append((int(left), int(right)))
        if kinds[i] != ",":
            return tuple(pairs), i
        i += 1


def _parse_arms(tokens: Scan, i: int) -> Tuple[List[PatternArm], int]:
    kinds = tokens.kinds
    arms: List[PatternArm] = []
    if kinds[i] == "}":
        return arms, i + 1
    while True:
        arm, i = _parse_arm(tokens, i)
        arms.append(arm)
        if kinds[i] == "}":
            return arms, i + 1
        i = tokens.skip(i, ",")


def query_to_string(query: Query, indent: bool = True) -> str:
    """Render a query (parse round-trips)."""
    select = ", ".join(query.select)
    separator = ";\n      " if indent else "; "
    body = separator.join(_render_pattern(p) for p in query.patterns)
    space = "\n" if indent else " "
    select_part = f"SELECT {select}" if select else "SELECT"
    return f"{select_part}{space}WHERE {body}"


def _render_pattern(pattern: PatternDef) -> str:
    if pattern.kind is PatternKind.VALUE:
        return f"{pattern.var} = {_render_value(pattern.value)}"
    if pattern.kind is PatternKind.VALUE_VAR:
        return f"{pattern.var} = ${pattern.value_var}"
    open_, close = ("[", "]") if pattern.is_ordered else ("{", "}")
    arms = ", ".join(_render_arm(arm) for arm in pattern.arms)
    if pattern.partial_order is not None:
        constraints = ", ".join(f"{i} < {j}" for i, j in pattern.partial_order)
        suffix = f" ; {constraints}" if constraints else " ;"
        return f"{pattern.var} = {open_}{arms}{suffix}{close}"
    return f"{pattern.var} = {open_}{arms}{close}"


def _render_arm(arm: PatternArm) -> str:
    if arm.is_label_var:
        return f"${arm.path.name} -> {arm.target}"
    return f"{regex_to_string(arm.path)} -> {arm.target}"


def _render_value(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)
