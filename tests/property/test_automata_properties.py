"""Property-based tests for the regular-language substrate.

The automata layer carries every result in the paper, so it gets the
heaviest property coverage: construction/membership agreement, product
semantics, determinization and compile-pipeline invariance, regex
extraction, and bag-language membership against brute-force permutation
checking.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.automata.compiled import compile_nfa

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
