"""Tests for instance enumeration and sampling (the §4.2 oracle substrate)."""

import random

import pytest

from repro.schema import conforms, parse_schema
from repro.workloads import enumerate_instances, random_instance


class TestEnumeration:
    def test_exhaustive_on_finite_schema(self):
        schema = parse_schema(
            "R = [a -> AC | a -> AD | b -> BD];"
            "AC = [c -> L]; AD = [d -> L]; BD = [d -> L]; L = []"
        )
        instances = list(enumerate_instances(schema, max_nodes=6))
        assert len(instances) == 3
        first_edges = sorted(
            (g.root_node.edges[0].label, g.node(g.root_node.edges[0].target).edges[0].label)
            for g in instances
        )
        assert first_edges == [("a", "c"), ("a", "d"), ("b", "d")]

    def test_all_enumerated_conform(self):
        schema = parse_schema("R = [x -> U . (y -> V)?]; U = int; V = string")
        instances = list(enumerate_instances(schema, max_nodes=6))
        assert len(instances) == 2
        for graph in instances:
            assert conforms(graph, schema)

    def test_star_bounded_by_max_word(self):
        schema = parse_schema("R = [(a -> U)*]; U = int")
        instances = list(enumerate_instances(schema, max_nodes=10, max_word=3))
        sizes = sorted(len(g.root_node.edges) for g in instances)
        assert sizes == [0, 1, 2, 3]

    def test_node_budget_respected(self):
        schema = parse_schema("R = [(a -> U)*]; U = int")
        for graph in enumerate_instances(schema, max_nodes=3, max_word=5):
            assert len(graph) <= 3

    def test_unordered_schema_enumeration(self):
        schema = parse_schema("R = {a -> U . b -> V}; U = int; V = string")
        instances = list(enumerate_instances(schema, max_nodes=6))
        assert instances
        for graph in instances:
            assert graph.root_node.is_unordered
            assert conforms(graph, schema)


class TestRandomSampling:
    @pytest.mark.parametrize("seed", range(8))
    def test_samples_conform(self, seed):
        schema = parse_schema(
            "DOC = [(paper -> PAPER)*];"
            "PAPER = [title -> TITLE . (author -> AUTHOR)*];"
            "AUTHOR = [name -> NAME]; NAME = string; TITLE = string"
        )
        graph = random_instance(schema, random.Random(seed), max_depth=8)
        assert conforms(graph, schema)

    def test_star_bias_controls_width(self):
        schema = parse_schema("R = [(a -> U)*]; U = int")
        narrow = [
            len(random_instance(schema, random.Random(seed), star_bias=0.1))
            for seed in range(30)
        ]
        wide = [
            len(random_instance(schema, random.Random(seed), star_bias=0.9))
            for seed in range(30)
        ]
        assert sum(wide) > sum(narrow)

    def test_depth_budget_forces_termination(self):
        schema = parse_schema("T = [a -> T | b -> E]; E = string")
        for seed in range(20):
            graph = random_instance(
                schema, random.Random(seed), max_depth=3, star_bias=0.95
            )
            assert conforms(graph, schema)

    def test_uninhabited_root_raises(self):
        schema = parse_schema("T = [a -> T]")
        with pytest.raises(ValueError):
            random_instance(schema, random.Random(0))

    def test_mandatory_recursion_bottoms_out(self):
        # Depth exhausted but the type demands a child: the rank-guided
        # shortest mode must still finish with a conforming instance.
        schema = parse_schema("T = [a -> T | b -> E]; E = string")
        graph = random_instance(schema, random.Random(3), max_depth=0)
        assert conforms(graph, schema)


class TestInhabitationRanks:
    def test_ranks_well_founded(self):
        schema = parse_schema(
            "A = [x -> B | stop -> S]; B = [y -> A]; S = string"
        )
        ranks = schema.inhabitation_ranks()
        assert ranks["S"] == 0
        assert ranks["A"] < ranks["B"]

    def test_uninhabited_absent(self):
        schema = parse_schema("R = [a -> U | c -> W]; U = string; W = [x -> W]")
        ranks = schema.inhabitation_ranks()
        assert "W" not in ranks
        assert set(ranks) == {"R", "U"}

    @pytest.mark.parametrize(
        "text",
        [
            "A = [x -> B | stop -> S]; B = [y -> A]; S = string",
            "R = [a -> U | c -> W]; U = string; W = [x -> W]",
            "A = [x -> B | y -> C]; B = [z -> B]; C = string",
            "R = [(a -> P)* . b -> Q]; P = [p -> P]; Q = [(q -> R)*]",
        ],
    )
    def test_ranked_types_are_the_inhabited_types(self, text):
        schema = parse_schema(text)
        assert frozenset(schema.inhabitation_ranks()) == schema.inhabited_types()

    def test_ranks_are_round_by_round(self):
        # B is checked after A gains rank 1 in the same round, but a round
        # only sees the types known before it started: B gets rank 2.
        schema = parse_schema("A = [s -> S]; B = [y -> A]; S = string")
        assert schema.inhabitation_ranks() == {"S": 0, "A": 1, "B": 2}
