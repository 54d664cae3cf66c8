"""Parser for the regular expressions of Table 1.

Two atom vocabularies share one grammar:

* *path* regexes (patterns): atoms are labels and the wildcard ``_``;
* *schema* regexes: atoms are ``label -> Tid`` pairs (the label side may be
  ``_`` only if the caller permits it; plain ScmDL does not use wildcards in
  schemas, so the schema parser forbids them).

Grammar (precedence low to high)::

    R      ::= seq ('|' seq)*
    seq    ::= post ('.' post)*
    post   ::= atom ('*' | '+' | '?')*
    atom   ::= '(' R ')' | 'eps' | label | '_' | label '->' Tid

``eps`` is the empty word.  ``(R)`` groups.  ``*``, ``+``, ``?`` are postfix.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..lexer import Scan, TokenStream, scan
from .syntax import ANY, EPSILON, Regex, alt, concat, opt, plus, star, sym

#: Signature of an atom factory: receives (label, target_tid_or_None) and
#: returns the regex atom.  ``target`` is None for plain-label atoms.
AtomFactory = Callable[[str, Optional[str]], Regex]


def default_atom(label: str, target: Optional[str]) -> Regex:
    """Default atom factory: plain labels map to themselves, arrow atoms to
    ``(label, target)`` pairs."""
    if target is None:
        return sym(label)
    return sym((label, target))


def parse_regex(
    stream: TokenStream,
    atom: AtomFactory = default_atom,
    allow_arrow: bool = False,
    allow_wildcard: bool = True,
) -> Regex:
    """Parse a regex from ``stream`` (leaves the stream after the regex).

    Args:
        stream: token stream positioned at the start of the expression.
        atom: factory turning lexical atoms into regex symbols.
        allow_arrow: accept ``label -> Tid`` atoms (schema regexes).
        allow_wildcard: accept ``_`` (pattern regexes).
    """
    regex, stream.index = regex_at(
        stream.scan, stream.index, atom, allow_arrow, allow_wildcard
    )
    return regex


def regex_at(
    tokens: Scan,
    index: int,
    atom: AtomFactory = default_atom,
    allow_arrow: bool = False,
    allow_wildcard: bool = True,
) -> Tuple[Regex, int]:
    """Parse a regex starting at token ``index``; returns it and the index
    of the first token after it (see :func:`parse_regex`)."""
    kinds, values = tokens.kinds, tokens.values

    def parse_alt(i: int) -> Tuple[Regex, int]:
        node, i = parse_seq(i)
        if kinds[i] != "|":
            return node, i
        parts = [node]
        while kinds[i] == "|":
            node, i = parse_seq(i + 1)
            parts.append(node)
        return alt(*parts), i

    def parse_seq(i: int) -> Tuple[Regex, int]:
        node, i = parse_post(i)
        if kinds[i] != ".":
            return node, i
        parts = [node]
        while kinds[i] == ".":
            node, i = parse_post(i + 1)
            parts.append(node)
        return concat(*parts), i

    def parse_post(i: int) -> Tuple[Regex, int]:
        node, i = parse_atom(i)
        while True:
            kind = kinds[i]
            if kind == "*":
                node = star(node)
            elif kind == "+":
                node = plus(node)
            elif kind == "?":
                node = opt(node)
            else:
                return node, i
            i += 1

    def parse_atom(i: int) -> Tuple[Regex, int]:
        kind = kinds[i]
        if kind == "(":
            inner, i = parse_alt(i + 1)
            return inner, tokens.skip(i, ")")
        if kind != "IDENT":
            raise SyntaxError(f"expected regex atom, found {tokens.found(i)}")
        name = values[i]
        arrow = allow_arrow and kinds[i + 1] == "ARROW"
        if name == "eps":
            return EPSILON, i + 1
        if name == "_":
            if not allow_wildcard:
                raise SyntaxError(
                    f"wildcard '_' not allowed here (line {tokens.line(i)})"
                )
            if arrow:
                raise SyntaxError(
                    f"wildcard labels in schema atoms are not supported "
                    f"(line {tokens.line(i)})"
                )
            return ANY, i + 1
        if arrow:
            return atom(name, tokens.ident(i + 2)), i + 3
        if allow_arrow:
            raise SyntaxError(
                f"schema atom {name!r} must be of the form label->Tid "
                f"({tokens.where(i)})"
            )
        return atom(name, None), i + 1

    return parse_alt(index)


def parse_regex_string(
    text: str,
    atom: AtomFactory = default_atom,
    allow_arrow: bool = False,
    allow_wildcard: bool = True,
) -> Regex:
    """Parse a complete string as a single regex."""
    tokens = scan(text)
    regex, index = regex_at(tokens, 0, atom, allow_arrow, allow_wildcard)
    if tokens.kinds[index] != "EOF":
        raise SyntaxError(f"trailing input after regex: {tokens.found(index)}")
    return regex


def regex_to_string(regex: Regex, show_atom: Optional[Callable[[object], str]] = None) -> str:
    """Render a regex in the Table-1 surface syntax.

    ``show_atom`` renders a symbol; the default renders strings as-is and
    ``(label, target)`` pairs as ``label->target``.
    """
    if show_atom is None:
        show_atom = _default_show_atom
    rendered, _prec = _render(regex, show_atom)
    return rendered


def _default_show_atom(symbol: object) -> str:
    if isinstance(symbol, tuple) and len(symbol) == 2:
        return f"{symbol[0]}->{symbol[1]}"
    return str(symbol)


# Precedence levels: 0 = alt, 1 = concat, 2 = postfix/atom.
def _render(regex: Regex, show_atom: Callable[[object], str]) -> Tuple[str, int]:
    from .syntax import Alt, Any, Concat, Empty, Epsilon, Star, Sym

    if isinstance(regex, Empty):
        return "empty", 2
    if isinstance(regex, Epsilon):
        return "eps", 2
    if isinstance(regex, Any):
        return "_", 2
    if isinstance(regex, Sym):
        return show_atom(regex.symbol), 2
    if isinstance(regex, Star):
        inner, prec = _render(regex.inner, show_atom)
        if prec < 2:
            inner = f"({inner})"
        return f"{inner}*", 2
    if isinstance(regex, Concat):
        pieces = []
        for part in regex.parts:
            inner, prec = _render(part, show_atom)
            if prec < 1:
                inner = f"({inner})"
            pieces.append(inner)
        return ".".join(pieces), 1
    if isinstance(regex, Alt):
        pieces = []
        for part in regex.parts:
            inner, _prec = _render(part, show_atom)
            pieces.append(inner)
        return "|".join(pieces), 0
    raise TypeError(f"unknown regex node: {regex!r}")
