"""Subsumption edge cases, decided on the engine's compiled tables.

Covers the corners the delta classifier leans on: content models that
are equivalent but syntactically different, empty-language regexes,
and self-recursive (referenceable) types.
"""

import pytest

from repro.engine import Engine
from repro.schema import parse_schema, simulation, subsumes

@pytest.fixture
def engine():
    return Engine()


class TestEquivalentButSyntacticallyDifferent:
    def test_unrolled_star_vs_star(self, engine):
        # (a->T)* versus eps | a->T . (a->T)* — same language.
        left = parse_schema("R = [(a -> T)*]; T = string")
        right = parse_schema("R = [eps | a -> T . (a -> T)*]; T = string")
        assert subsumes(left, right, engine=engine)
        assert subsumes(right, left, engine=engine)

    def test_distributed_alternation(self, engine):
        left = parse_schema("R = [a -> T . (b -> T | c -> T)]; T = string")
        right = parse_schema("R = [a -> T . b -> T | a -> T . c -> T]; T = string")
        assert subsumes(left, right, engine=engine)
        assert subsumes(right, left, engine=engine)

    def test_idempotent_alternation(self, engine):
        left = parse_schema("R = [a -> T | a -> T]; T = string")
        right = parse_schema("R = [a -> T]; T = string")
        assert subsumes(left, right, engine=engine)
        assert subsumes(right, left, engine=engine)


class TestEmptyLanguageModels:
    def test_optional_is_wider_than_epsilon_only(self, engine):
        left = parse_schema("R = [eps]; T = string")
        right = parse_schema("R = [(a -> T)?]; T = string")
        assert subsumes(left, right, engine=engine)
        assert not subsumes(right, left, engine=engine)

    def test_star_of_empty_family_collapses_to_epsilon(self, engine):
        left = parse_schema("R = [(a -> T)* . eps]; T = string")
        right = parse_schema("R = [(a -> T)*]; T = string")
        assert subsumes(left, right, engine=engine)
        assert subsumes(right, left, engine=engine)


class TestSelfRecursiveTypes:
    REC = "&NODE = [(child -> &NODE)* . value -> LEAF]; LEAF = string"

    def test_recursive_type_subsumes_itself(self, engine):
        schema = parse_schema(self.REC)
        assert subsumes(schema, schema, engine=engine)
        pairs = simulation(schema, schema, engine)
        assert ("&NODE", "&NODE") in pairs
        assert ("LEAF", "LEAF") in pairs

    def test_recursive_widening(self, engine):
        wider = parse_schema(
            "&NODE = [(child -> &NODE)* . value -> LEAF . (tag -> LEAF)?];"
            "LEAF = string"
        )
        narrow = parse_schema(self.REC)
        assert subsumes(narrow, wider, engine=engine)
        assert not subsumes(wider, narrow, engine=engine)

    def test_recursive_vs_bounded_depth(self, engine):
        # A two-level tree is an instance family of the recursive schema,
        # but not vice versa.
        bounded = parse_schema(
            "TOP = [(child -> MID)* . value -> LEAF];"
            "MID = [value -> LEAF];"
            "LEAF = string"
        )
        recursive = parse_schema(self.REC)
        assert subsumes(bounded, recursive, engine=engine)
        assert not subsumes(recursive, bounded, engine=engine)


class TestKnownVerdicts:
    # (left, right, (left ⊑ right, right ⊑ left))
    CASES = (
        ("R = [(a -> T)*]; T = string", "R = [(a -> T)+]; T = string", (False, True)),
        ("R = [a -> T | b -> T]; T = string", "R = [a -> T]; T = string",
         (False, True)),
        ("R = {(a -> T)*}; T = string", "R = {(a -> T)*}; T = string", (True, True)),
    )

    @pytest.mark.parametrize("left_text,right_text,expected", CASES)
    def test_decides_both_directions(self, engine, left_text, right_text, expected):
        left = parse_schema(left_text)
        right = parse_schema(right_text)
        got = (
            subsumes(left, right, engine=engine),
            subsumes(right, left, engine=engine),
        )
        assert got == expected
