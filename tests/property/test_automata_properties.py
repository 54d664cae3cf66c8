"""Property-based tests for the regular-language substrate.

The automata layer carries every result in the paper, so it gets the
heaviest property coverage: construction/membership agreement, product
semantics, determinization and compile-pipeline invariance, regex
extraction, and bag-language membership against brute-force permutation
checking.
"""

import itertools

from hypothesis import given, settings, strategies as st

import pytest

from repro.automata.compiled import _subset_construct, compile_nfa, compile_regex
from repro.automata.nfa import EPS, NFA
from repro.automata.syntax import ANY, EMPTY, Alt, Concat, Star

from repro.automata import (
    EPSILON,
    Regex,
    alt,
    bag_accepts,
    concat,
    determinize,
    equivalent,
    intersect,
    is_subset,
    opt,
    parse_regex_string,
    plus,
    regex_to_string,
    relabel,
    star,
    sym,
    thompson,
    to_regex,
    union,
)

ALPHABET = ("a", "b", "c")


def regexes() -> st.SearchStrategy[Regex]:
    atoms = st.sampled_from([sym("a"), sym("b"), sym("c"), EPSILON])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: alt(*pair)),
            children.map(star),
            children.map(opt),
            children.map(plus),
        ),
        max_leaves=8,
    )


def words(max_length: int = 5) -> st.SearchStrategy:
    return st.lists(st.sampled_from(ALPHABET), max_size=max_length).map(tuple)


class TestNfaSemantics:
    @given(regexes(), words())
    @settings(max_examples=200, deadline=None)
    def test_membership_matches_naive_semantics(self, regex, word):
        """NFA acceptance agrees with a direct denotational evaluator."""
        nfa = thompson(regex, ALPHABET)
        assert nfa.accepts(word) == _denotes(regex, word)

    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_determinize_preserves_language(self, regex):
        nfa = thompson(regex, ALPHABET)
        dfa = determinize(nfa)
        for word in _sample_words(3):
            assert dfa.accepts(word) == nfa.accepts(word)

    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_compile_preserves_language(self, regex):
        nfa = thompson(regex, ALPHABET)
        table = compile_nfa(nfa)
        for word in _sample_words(3):
            assert table.member(word) == nfa.accepts(word)

    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_to_regex_round_trip(self, regex):
        nfa = thompson(regex, ALPHABET)
        extracted = to_regex(nfa)
        rebuilt = thompson(extracted, ALPHABET)
        assert equivalent(nfa, rebuilt)

    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_round_trip(self, regex):
        printed = regex_to_string(regex)
        reparsed = parse_regex_string(printed)
        assert equivalent(thompson(regex, ALPHABET), thompson(reparsed, ALPHABET))


class TestProducts:
    @given(regexes(), regexes(), words())
    @settings(max_examples=150, deadline=None)
    def test_intersection_semantics(self, left, right, word):
        product = intersect(thompson(left, ALPHABET), thompson(right, ALPHABET))
        assert product.accepts(word) == (_denotes(left, word) and _denotes(right, word))

    @given(regexes(), regexes(), words())
    @settings(max_examples=150, deadline=None)
    def test_union_semantics(self, left, right, word):
        combined = union(thompson(left, ALPHABET), thompson(right, ALPHABET))
        assert combined.accepts(word) == (_denotes(left, word) or _denotes(right, word))

    @given(regexes(), regexes())
    @settings(max_examples=60, deadline=None)
    def test_subset_consistency(self, left, right):
        left_nfa = thompson(left, ALPHABET)
        right_nfa = thompson(right, ALPHABET)
        both = intersect(left_nfa, right_nfa)
        if is_subset(left_nfa, right_nfa):
            # L ⊆ R implies L ∩ R = L.
            assert equivalent(both, left_nfa)

    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_relabel_identity(self, regex):
        nfa = thompson(regex, ALPHABET)
        assert equivalent(nfa, relabel(nfa, lambda s: s))


def random_nfas() -> st.SearchStrategy[NFA]:
    """Arbitrary NFAs over ALPHABET, ε-cycles and parallel arcs included."""

    def build(n: int) -> st.SearchStrategy[NFA]:
        states = st.integers(0, n - 1)
        arc = st.tuples(states, st.sampled_from((EPS,) + ALPHABET), states)
        return st.builds(
            _nfa_from_arcs,
            st.just(n),
            states,
            st.frozensets(states),
            st.lists(arc, max_size=3 * n),
        )

    return st.integers(1, 8).flatmap(build)


def _nfa_from_arcs(n, start, accepting, arcs) -> NFA:
    transitions = {}
    for src, symbol, dst in arcs:
        transitions.setdefault(src, []).append((symbol, dst))
    return NFA(n, ALPHABET, start, accepting, transitions)


def _reference_subset_construct(nfa: NFA):
    """The subset construction over frozensets, one closure walk per
    (subset, column) — the pipeline's bitmask version must match it."""
    profiles = {}
    for q, arcs in nfa.transitions.items():
        for s, d in arcs:
            if s is not EPS:
                profiles.setdefault(s, []).append((q, d))
    symbols = tuple(sorted(profiles, key=repr))
    class_ids, columns, col_arcs = {}, [], []
    for s in symbols:
        key = tuple(sorted(profiles[s]))
        if key not in class_ids:
            class_ids[key] = len(col_arcs)
            col_arcs.append(profiles[s])
        columns.append(class_ids[key])
    start = nfa.initial_states()
    ids, order, rows = {start: 0}, [start], []
    for current in order:  # grows while iterating: BFS discovery order
        row = []
        for arcs in col_arcs:
            moved = {d for q, d in arcs if q in current}
            if not moved:
                row.append(-1)
                continue
            nxt = nfa.eps_closure(moved)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(row)
    accepting = [bool(subset & nfa.accepting) for subset in order]
    return symbols, tuple(columns), rows, 0, accepting


class TestSubsetConstruction:
    @given(random_nfas())
    @settings(max_examples=300, deadline=None)
    def test_bitmask_construction_matches_frozenset_reference(self, nfa):
        assert _subset_construct(nfa) == _reference_subset_construct(nfa)

    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_live_symbols_are_the_useful_symbols(self, regex):
        nfa = thompson(regex, ALPHABET)
        assert compile_nfa(nfa).live_symbols() == nfa.useful_symbols()


def route_regexes() -> st.SearchStrategy[Regex]:
    """Regexes with wildcards, ``eps`` and ``EMPTY``, including raw nodes
    the smart constructors would simplify away (a dead ``EMPTY`` part
    inside a concatenation, a star of a star)."""
    atoms = st.sampled_from([sym("a"), sym("b"), sym("c"), EPSILON, ANY, EMPTY])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: alt(*pair)),
            children.map(star),
            children.map(opt),
            st.tuples(children, children).map(Concat),
            st.tuples(children, children).map(Alt),
            children.map(Star),
        ),
        max_leaves=8,
    )


def _table(dfa):
    return (dfa.symbols, dfa.columns, dfa.n_states, dfa.start, dfa.table, dfa.accepting)


def _without(nfa: NFA, dropped) -> NFA:
    transitions = {
        q: [(s, d) for s, d in arcs if s is EPS or s not in dropped]
        for q, arcs in nfa.transitions.items()
    }
    return NFA(nfa.n_states, nfa.alphabet, nfa.start, nfa.accepting, transitions)


class TestPositionRoute:
    """``compile_regex`` lowers from regex positions; its tables must equal
    the Thompson route's, which stays the reference."""

    @given(route_regexes(), st.sampled_from([ALPHABET, ALPHABET + ("d",)]))
    @settings(max_examples=300, deadline=None)
    def test_tables_equal_the_thompson_route(self, regex, alphabet):
        reference = compile_nfa(thompson(regex, alphabet))
        assert _table(compile_regex(regex, alphabet)) == _table(reference)

    @given(route_regexes(), st.sets(st.sampled_from(ALPHABET + ("d",)), max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_dropped_symbols_are_deleted_arcs(self, regex, dropped):
        alphabet = ALPHABET + ("d",)
        reference = compile_nfa(_without(thompson(regex, alphabet), dropped))
        assert _table(compile_regex(regex, alphabet, dropped)) == _table(reference)

    def test_out_of_alphabet_atoms_raise_like_thompson(self):
        regex = concat(sym("a"), sym("z"))
        with pytest.raises(ValueError) as position_error:
            compile_regex(regex, ALPHABET)
        with pytest.raises(ValueError) as thompson_error:
            thompson(regex, ALPHABET)
        assert str(position_error.value) == str(thompson_error.value)


class TestBagLanguages:
    @given(regexes(), st.lists(st.sampled_from(ALPHABET), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_bag_accepts_matches_permutations(self, regex, bag):
        nfa = thompson(regex, ALPHABET)
        expected = any(
            nfa.accepts(ordering) for ordering in set(itertools.permutations(bag))
        )
        assert bag_accepts(nfa, bag) == expected


def _denotes(regex: Regex, word: tuple) -> bool:
    """Direct denotational membership (independent of the NFA code)."""
    from repro.automata import Alt, Any, Concat, Empty, Epsilon, Star, Sym

    if isinstance(regex, Empty):
        return False
    if isinstance(regex, Epsilon):
        return word == ()
    if isinstance(regex, Sym):
        return word == (regex.symbol,)
    if isinstance(regex, Any):
        return len(word) == 1 and word[0] in ALPHABET
    if isinstance(regex, Alt):
        return any(_denotes(part, word) for part in regex.parts)
    if isinstance(regex, Concat):
        return _denotes_concat(regex.parts, word)
    if isinstance(regex, Star):
        if word == ():
            return True
        # Try every non-empty prefix split.
        return any(
            _denotes(regex.inner, word[:cut]) and _denotes(regex, word[cut:])
            for cut in range(1, len(word) + 1)
        )
    raise TypeError(regex)


def _denotes_concat(parts, word) -> bool:
    if not parts:
        return word == ()
    head, rest = parts[0], parts[1:]
    return any(
        _denotes(head, word[:cut]) and _denotes_concat(rest, word[cut:])
        for cut in range(len(word) + 1)
    )


def _sample_words(max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(ALPHABET, repeat=length)
