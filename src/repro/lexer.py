"""Shared tokenizer for the Table-1 textual grammars.

The paper uses one surface syntax family for data graphs, schemas, and
patterns (Table 1); this lexer serves all three parsers.  Tokens:

====================  =========================================
kind                  examples
====================  =========================================
``IDENT``             ``paper``, ``T5``, ``&o4`` (referenceable)
``STRING``            ``"John"`` (double-quoted, ``\\`` escapes)
``NUMBER``            ``3``, ``3.14``
``ARROW``             ``->``
``OP``                ``. | * + ? ( ) { } [ ] , ; = $ <``
``EOF``               end of input
====================  =========================================

A standalone ``_`` lexes as ``IDENT`` with value ``"_"``; the regex parser
interprets it as the wildcard, so labels cannot literally be named ``_``
(the paper reserves it for the wildcard too).

:func:`scan` is the one scanner: it returns a :class:`Scan`, the tokens
as parallel ``kinds``/``values``/``positions`` lists that the parsers
walk by index.  In ``Scan.kinds`` an operator's kind is the operator
character itself (``";"``, ``"["``, ...), so a parser tests for one with
a single comparison; everywhere else (tokens, messages) it is ``OP``.
Token offsets, and line and column from them, are computed only when
something asks for them — an error message, or the :class:`Token` views
that :func:`tokenize` and :class:`TokenStream` offer.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Union


class Token(NamedTuple):
    """A lexed token: ``kind`` is IDENT/STRING/NUMBER/ARROW/OP/EOF."""

    kind: str
    value: Union[str, int, float]
    position: int
    line: int
    column: int


class LexError(ValueError):
    """Raised on characters that cannot start a token."""


#: Skipped text (whitespace and ``#`` comments), then one token: an
#: arrow, a number, an identifier, a string, an operator — or any other
#: single character, which is a lexical error.  At the end of the text
#: the token is empty, so skipped text there is consumed (a trailing
#: comment never lexes as tokens).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (
        ->
      | -?\d+(?:\.\d+)?
      | &?[A-Za-z_][A-Za-z0-9_]*
      | "(?:[^"\\]|\\.)*"
      | [.|*+?(){}\[\],;=$<]
      | [^\s\#]
      | \Z
    )
    """,
    re.VERBOSE,
)
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_WORD_KINDS = frozenset({"IDENT", "STRING", "NUMBER", "ARROW", "EOF"})

#: A token's kind by its first character.  The kinds in ``_CHECKED``
#: need a second look at the whole token: ``-`` starts an arrow or a
#: negative number, ``&`` an identifier only when more follows, ``"`` a
#: string only when it is closed, and ``""`` (any other character) a
#: number in non-ASCII digits or nothing at all.
_KIND_OF = dict.fromkeys(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "IDENT"
)
_KIND_OF.update(dict.fromkeys("0123456789", "NUMBER"))
_KIND_OF.update({op: op for op in ".|*+?(){}[],;=$<"})
_KIND_OF.update({"-": "-", "&": "&", '"': "STRING"})
_CHECKED = frozenset({"NUMBER", "STRING", "-", "&", ""})


def line_column(text: str, position: int) -> "tuple[int, int]":
    """1-based line and column of offset ``position`` in ``text``."""
    return text.count("\n", 0, position) + 1, position - text.rfind("\n", 0, position)


class Scan:
    """The tokens of one text as parallel lists, ending with ``EOF``.

    ``kinds[i]`` is IDENT/STRING/NUMBER/ARROW/EOF or, for an operator, the
    operator character; ``values[i]`` is the token's value and
    ``positions[i]`` its offset in ``text`` (found by a second pass over
    the text the first time something asks).
    """

    __slots__ = ("text", "kinds", "values", "_positions", "_tokens")

    def __init__(self, text: str, kinds: List[str], values: list):
        self.text = text
        self.kinds = kinds
        self.values = values
        self._positions: Optional[List[int]] = None
        self._tokens: Optional[List[Token]] = None

    @property
    def positions(self) -> List[int]:
        if self._positions is None:
            self._positions = [
                match.start(1) for match in _TOKEN_RE.finditer(self.text) if match[1]
            ]
            self._positions.append(len(self.text))
        return self._positions

    def kind(self, index: int) -> str:
        """The token's kind as :class:`Token` spells it (``OP`` for operators)."""
        kind = self.kinds[index]
        return kind if kind in _WORD_KINDS else "OP"

    def token(self, index: int) -> Token:
        return self.tokens()[index]

    def tokens(self) -> List[Token]:
        """Every token as a :class:`Token` record (built once, in one pass)."""
        if self._tokens is None:
            text = self.text
            tokens = []
            line, line_start, previous = 1, 0, 0
            for index, position in enumerate(self.positions):
                newlines = text.count("\n", previous, position)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", previous, position) + 1
                previous = position
                tokens.append(Token(self.kind(index), self.values[index], position,
                                    line, position - line_start + 1))
            self._tokens = tokens
        return self._tokens

    def where(self, index: int) -> str:
        """``line L, column C`` of token ``index``."""
        return "line %d, column %d" % line_column(self.text, self.positions[index])

    def line(self, index: int) -> int:
        return line_column(self.text, self.positions[index])[0]

    def found(self, index: int) -> str:
        """``KIND 'value' at line L, column C`` — the tail of most errors."""
        return f"{self.kind(index)} {self.values[index]!r} at {self.where(index)}"

    def expected(self, index: int, want: str) -> SyntaxError:
        """The error for token ``index`` where ``want`` (e.g. ``OP ']'``) belongs."""
        return SyntaxError(f"expected {want}, found {self.found(index)}")

    def unexpected(self, index: int) -> SyntaxError:
        return SyntaxError(f"unexpected {self.found(index)}")

    def ident(self, index: int) -> str:
        """The identifier at token ``index``, or the "expected IDENT" error."""
        if self.kinds[index] != "IDENT":
            raise self.expected(index, "IDENT")
        return self.values[index]

    def skip(self, index: int, kind: str) -> int:
        """The index after token ``index``, which must be of ``kind`` (an
        operator character, or ARROW/NUMBER/...); else the "expected" error."""
        if self.kinds[index] != kind:
            raise self.expected(index, kind if kind in _WORD_KINDS else f"OP {kind!r}")
        return index + 1


def scan(text: str) -> Scan:
    """Tokenize ``text``; ``#`` starts a comment running to end of line.

    Raises:
        LexError: on an unrecognized character, with line/column info.
    """
    values: list = _TOKEN_RE.findall(text)
    while values and values[-1] == "":  # one or two at the end of the text
        values.pop()
    kinds = [_KIND_OF.get(value[0], "") for value in values]
    if not _CHECKED.isdisjoint(kinds):
        for index, kind in enumerate(kinds):
            if kind not in _CHECKED:
                continue
            value = values[index]
            if kind == "STRING" and len(value) > 1:
                values[index] = _ESCAPE_RE.sub(
                    lambda m: _ESCAPES.get(m.group(1), m.group(1)), value[1:-1]
                )
            elif kind == "&" and len(value) > 1:
                kinds[index] = "IDENT"
            elif value == "->":
                kinds[index] = "ARROW"
            elif _NUMBER_RE.fullmatch(value):
                kinds[index] = "NUMBER"
                values[index] = float(value) if "." in value else int(value)
            else:
                position = Scan(text, kinds, values).positions[index]
                line, column = line_column(text, position)
                raise LexError(
                    f"unexpected character {text[position]!r} at line {line}, "
                    f"column {column}"
                )
    kinds.append("EOF")
    values.append("")
    return Scan(text, kinds, values)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into :class:`Token` records (a view of :func:`scan`).

    Raises:
        LexError: on an unrecognized character, with line/column info.
    """
    return scan(text).tokens()


class TokenStream:
    """A cursor over a :class:`Scan` with one-token lookahead helpers."""

    def __init__(self, text: str):
        self.scan = scan(text)
        self.index = 0

    @property
    def tokens(self) -> List[Token]:
        return self.scan.tokens()

    @property
    def current(self) -> Token:
        return self.scan.token(self.index)

    def peek(self, offset: int = 0) -> Token:
        """Return the token ``offset`` positions ahead (clamped to EOF)."""
        return self.scan.token(min(self.index + offset, len(self.scan.kinds) - 1))

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.current
        if token.kind != "EOF":
            self.index += 1
        return token

    def match(self, kind: str, value: Optional[object] = None) -> Optional[Token]:
        """Consume and return the current token if it matches, else None."""
        if self.scan.kind(self.index) != kind:
            return None
        if value is not None and self.scan.values[self.index] != value:
            return None
        return self.advance()

    def expect(self, kind: str, value: Optional[object] = None) -> Token:
        """Consume a token of the given kind (and value), or raise."""
        token = self.match(kind, value)
        if token is None:
            want = f"{kind} {value!r}" if value is not None else kind
            raise self.scan.expected(self.index, want)
        return token

    def at_end(self) -> bool:
        return self.scan.kinds[self.index] == "EOF"
