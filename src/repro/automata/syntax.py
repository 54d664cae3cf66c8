"""Regular-expression abstract syntax over arbitrary hashable symbols.

The paper (Table 1) uses regular expressions in three places with different
atom vocabularies:

* schema definitions: atoms are ``label -> Tid`` pairs,
* pattern path expressions: atoms are labels or the wildcard ``_``,
* traces (Section 3.4): atoms are labels mixed with variable markers.

This module therefore keeps the symbol type fully generic: an atom is any
hashable Python object.  The wildcard is represented structurally (:class:`Any`)
and is only given meaning when a regex is compiled against a concrete finite
alphabet (see :mod:`repro.automata.nfa`).  All regexes in this project are
compiled against finite alphabets: because a schema, query, and data graph
mention only finitely many labels, every unmentioned label behaves identically
and is modelled by a single reserved symbol (``OTHER``, introduced by callers).

Construction goes through the smart constructors :func:`concat`, :func:`alt`,
:func:`star`, which perform light simplification (identity and absorbing
elements) so that printed regexes stay readable.

Nodes are *hash-consed*: construction canonicalizes and interns, so two
structurally equal expressions are the same object (``alt(a, b) is
alt(a, b)``).  This makes regexes O(1) to hash and compare and lets the
compilation engine (:mod:`repro.engine`) use them directly as cache keys.
Every node carries a structural hash computed once at interning time.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakValueDictionary

Symbol = Hashable

#: The hash-consing table: structural key -> the unique live node for it.
#: Weak values let unreferenced expressions be collected; the engine cache
#: holds strong references to whatever it still needs.
_INTERN: "WeakValueDictionary" = WeakValueDictionary()


def _interned(cls: type, key: Tuple, attrs: Tuple[Tuple[str, object], ...]) -> "Regex":
    """Return the unique node for ``key``, creating and registering it once."""
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in attrs:
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_hash", hash(key))
        _INTERN[key] = node
    return node


#: Initial value of the lazily filled ``symbols()`` memo of interned nodes.
_NO_SYMBOLS: Tuple[str, object] = ("_symbols", None)


def _union_symbols(parts: Sequence["Regex"]) -> FrozenSet[Symbol]:
    return frozenset(itertools.chain.from_iterable(p.symbols() for p in parts))


class Regex:
    """Base class for regular-expression AST nodes.

    Instances are immutable, hash-consed, and hashable; equality is
    structural and — thanks to interning — coincides with identity for
    nodes built in the same process.  Use the module-level smart
    constructors rather than instantiating ``Concat``/``Alt``/``Star``
    directly when building expressions programmatically.

    Nodes pickle by structure (each subclass defines ``__reduce__``
    through its constructor), so unpickling in another process re-interns
    into that process's hash-consing table — identity-based equality
    keeps holding across a pickle round-trip.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Regex nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Regex nodes are immutable")

    def symbols(self) -> FrozenSet[Symbol]:
        """Return the set of concrete atoms occurring in the expression.

        Interned nodes compute it once and keep it (their structure
        never changes).
        """
        raise NotImplementedError

    def has_wildcard(self) -> bool:
        """Return True if the expression contains the ``_`` wildcard."""
        raise NotImplementedError

    def nullable(self) -> bool:
        """Return True if the empty word belongs to the language."""
        raise NotImplementedError

    def is_empty_language(self) -> bool:
        """Return True if the language is syntactically empty.

        This is exact for expressions built with the smart constructors,
        which float :class:`Empty` to the top.
        """
        return isinstance(self, Empty)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> "Regex":
        """Return a copy with every atom ``s`` replaced by ``fn(s)``."""
        raise NotImplementedError

    def children(self) -> Tuple["Regex", ...]:
        """Return immediate sub-expressions (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["Regex"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Operator sugar so tests and examples can write ``a + b | c``.
    def __add__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def __or__(self, other: "Regex") -> "Regex":
        return alt(self, other)


class Empty(Regex):
    """The empty language (no words at all)."""

    __slots__ = ()
    _instance: Optional["Empty"] = None

    def __new__(cls) -> "Empty":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def symbols(self) -> FrozenSet[Symbol]:
        return frozenset()

    def has_wildcard(self) -> bool:
        return False

    def nullable(self) -> bool:
        return False

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return self

    def __reduce__(self):
        return (Empty, ())

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Empty)

    def __hash__(self) -> int:
        return hash("Empty")

    def __repr__(self) -> str:
        return "Empty()"


class Epsilon(Regex):
    """The language containing only the empty word."""

    __slots__ = ()
    _instance: Optional["Epsilon"] = None

    def __new__(cls) -> "Epsilon":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def symbols(self) -> FrozenSet[Symbol]:
        return frozenset()

    def has_wildcard(self) -> bool:
        return False

    def nullable(self) -> bool:
        return True

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return self

    def __reduce__(self):
        return (Epsilon, ())

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Epsilon)

    def __hash__(self) -> int:
        return hash("Epsilon")

    def __repr__(self) -> str:
        return "Epsilon()"


class Sym(Regex):
    """A single concrete atom."""

    __slots__ = ("symbol", "_hash", "_symbols", "__weakref__")

    def __new__(cls, symbol: Symbol) -> "Sym":
        return _interned(cls, ("Sym", symbol), (("symbol", symbol), _NO_SYMBOLS))

    def symbols(self) -> FrozenSet[Symbol]:
        if self._symbols is None:
            object.__setattr__(self, "_symbols", frozenset([self.symbol]))
        return self._symbols

    def has_wildcard(self) -> bool:
        return False

    def nullable(self) -> bool:
        return False

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return Sym(fn(self.symbol))

    def __reduce__(self):
        return (Sym, (self.symbol,))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Sym) and self.symbol == other.symbol)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Sym({self.symbol!r})"


class Any(Regex):
    """The wildcard ``_``: matches any single symbol of the alphabet.

    The wildcard has no fixed language on its own; it is interpreted
    relative to the alphabet supplied at automaton-compilation time.
    """

    __slots__ = ()
    _instance: Optional["Any"] = None

    def __new__(cls) -> "Any":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def symbols(self) -> FrozenSet[Symbol]:
        return frozenset()

    def has_wildcard(self) -> bool:
        return True

    def nullable(self) -> bool:
        return False

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return self

    def __reduce__(self):
        return (Any, ())

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Any)

    def __hash__(self) -> int:
        return hash("Any")

    def __repr__(self) -> str:
        return "Any()"


class Concat(Regex):
    """Concatenation of two or more sub-expressions."""

    __slots__ = ("parts", "_hash", "_symbols", "__weakref__")

    def __new__(cls, parts: Sequence[Regex]) -> "Concat":
        parts = tuple(parts)
        return _interned(cls, ("Concat", parts), (("parts", parts), _NO_SYMBOLS))

    def symbols(self) -> FrozenSet[Symbol]:
        if self._symbols is None:
            object.__setattr__(self, "_symbols", _union_symbols(self.parts))
        return self._symbols

    def has_wildcard(self) -> bool:
        return any(p.has_wildcard() for p in self.parts)

    def nullable(self) -> bool:
        return all(p.nullable() for p in self.parts)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return concat(*(p.map_symbols(fn) for p in self.parts))

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def __reduce__(self):
        return (Concat, (self.parts,))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Concat) and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Concat({list(self.parts)!r})"


class Alt(Regex):
    """Alternation (union) of two or more sub-expressions."""

    __slots__ = ("parts", "_hash", "_symbols", "__weakref__")

    def __new__(cls, parts: Sequence[Regex]) -> "Alt":
        parts = tuple(parts)
        return _interned(cls, ("Alt", parts), (("parts", parts), _NO_SYMBOLS))

    def symbols(self) -> FrozenSet[Symbol]:
        if self._symbols is None:
            object.__setattr__(self, "_symbols", _union_symbols(self.parts))
        return self._symbols

    def has_wildcard(self) -> bool:
        return any(p.has_wildcard() for p in self.parts)

    def nullable(self) -> bool:
        return any(p.nullable() for p in self.parts)

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return alt(*(p.map_symbols(fn) for p in self.parts))

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def __reduce__(self):
        return (Alt, (self.parts,))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Alt) and self.parts == other.parts)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Alt({list(self.parts)!r})"


class Star(Regex):
    """Kleene closure of a sub-expression."""

    __slots__ = ("inner", "_hash", "__weakref__")

    def __new__(cls, inner: Regex) -> "Star":
        return _interned(cls, ("Star", inner), (("inner", inner),))

    def symbols(self) -> FrozenSet[Symbol]:
        return self.inner.symbols()

    def has_wildcard(self) -> bool:
        return self.inner.has_wildcard()

    def nullable(self) -> bool:
        return True

    def map_symbols(self, fn: Callable[[Symbol], Symbol]) -> Regex:
        return star(self.inner.map_symbols(fn))

    def children(self) -> Tuple[Regex, ...]:
        return (self.inner,)

    def __reduce__(self):
        return (Star, (self.inner,))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Star) and self.inner == other.inner)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Star({self.inner!r})"


EMPTY = Empty()
EPSILON = Epsilon()
ANY = Any()


def sym(symbol: Symbol) -> Regex:
    """Build an atom expression for ``symbol``."""
    return Sym(symbol)


def concat(*parts: Regex) -> Regex:
    """Smart concatenation: flattens, drops epsilons, absorbs Empty."""
    flat = []
    for part in parts:
        if isinstance(part, Empty):
            return EMPTY
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(flat)


def alt(*parts: Regex) -> Regex:
    """Smart alternation: flattens, deduplicates, drops Empty."""
    flat = []
    seen = set()
    for part in parts:
        if isinstance(part, Empty):
            continue
        candidates = part.parts if isinstance(part, Alt) else (part,)
        for cand in candidates:
            if cand not in seen:
                seen.add(cand)
                flat.append(cand)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Alt(flat)


def star(inner: Regex) -> Regex:
    """Smart Kleene star: collapses nested stars and trivial bodies."""
    if isinstance(inner, (Empty, Epsilon)):
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """``R+`` as ``R.R*``."""
    return concat(inner, star(inner))


def opt(inner: Regex) -> Regex:
    """``R?`` as ``R | eps``."""
    return alt(inner, EPSILON)


def word(symbols: Iterable[Symbol]) -> Regex:
    """Build the concatenation of the given atoms (a single-word language)."""
    return concat(*(Sym(s) for s in symbols))


def literal_word(regex: Regex) -> Optional[Tuple[Symbol, ...]]:
    """If ``regex`` denotes exactly one word built from atoms, return it.

    Returns None when the expression uses alternation, star, or wildcards,
    i.e. whenever the language is not a single concrete word.  Used by the
    query classifier to detect *constant label* path expressions (Section 3).
    """
    if isinstance(regex, Epsilon):
        return ()
    if isinstance(regex, Sym):
        return (regex.symbol,)
    if isinstance(regex, Concat):
        pieces = []
        for part in regex.parts:
            piece = literal_word(part)
            if piece is None:
                return None
            pieces.extend(piece)
        return tuple(pieces)
    return None


def last_symbols(regex: Regex) -> Optional[FrozenSet[Symbol]]:
    """Return the set of atoms that can end a word of ``regex``.

    Returns None if a word can end with a wildcard-matched symbol (so the
    last-symbol set is not determined by the expression alone) or if the
    empty word is in the language (no last symbol).  Used to detect the
    *constant suffix* restriction ``R.l`` of Section 3.
    """
    if regex.nullable():
        return None
    result = _last_symbols(regex)
    return result


def _last_symbols(regex: Regex) -> Optional[FrozenSet[Symbol]]:
    if isinstance(regex, (Empty, Epsilon)):
        return frozenset()
    if isinstance(regex, Sym):
        return frozenset([regex.symbol])
    if isinstance(regex, Any):
        return None
    if isinstance(regex, Alt):
        acc = set()
        for part in regex.parts:
            sub = _last_symbols(part)
            if sub is None:
                return None
            acc.update(sub)
        return frozenset(acc)
    if isinstance(regex, Concat):
        acc = set()
        # Walk suffix parts from the right while they may be skipped (nullable).
        for part in reversed(regex.parts):
            sub = _last_symbols(part)
            if sub is None:
                return None
            acc.update(sub)
            if not part.nullable():
                return frozenset(acc)
        return frozenset(acc)
    if isinstance(regex, Star):
        return _last_symbols(regex.inner)
    return None
