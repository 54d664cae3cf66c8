"""Tests for witness construction (certificates for satisfiability)."""

import random

import pytest

from repro.query import evaluate, parse_query, satisfies
from repro.schema import conforms, parse_schema
from repro.typing import is_satisfiable
from repro.typing.witness import WitnessError, find_witness
from repro.workloads import (
    chain_query,
    chain_schema,
    deep_tree_query,
    document_schema,
    random_join_free_query,
)

DOCUMENT_SCHEMA = parse_schema(
    """
    DOCUMENT = [(paper -> PAPER)*];
    PAPER = [title -> TITLE . (author -> AUTHOR)*];
    AUTHOR = [name -> NAME . email -> EMAIL];
    NAME = [firstname -> FIRSTNAME . lastname -> LASTNAME];
    TITLE = string; FIRSTNAME = string; LASTNAME = string; EMAIL = string
    """
)


def check_witness(query, schema):
    """The witness contract: conforming instance on which the query holds."""
    witness = find_witness(query, schema)
    assert witness is not None
    assert conforms(witness, schema)
    assert satisfies(query, witness)
    return witness


class TestBasicWitnesses:
    def test_single_path(self):
        schema = chain_schema(3)
        check_witness(chain_query(3), schema)

    def test_wildcard_path(self):
        schema = chain_schema(4)
        check_witness(chain_query(4, wildcard=True), schema)

    def test_unsatisfiable_returns_none(self):
        schema = chain_schema(3)
        assert find_witness(chain_query(4), schema) is None

    def test_nested_definitions(self):
        schema = chain_schema(4)
        check_witness(deep_tree_query(4), schema)

    def test_paper_vianu_query(self):
        query = parse_query(
            'SELECT X1 WHERE Root = [paper -> X1];'
            'X1 = [author.name.(_*) -> X2, author.name.(_*) -> X3];'
            'X2 = "Vianu"; X3 = "Abiteboul"'
        )
        witness = check_witness(query, DOCUMENT_SCHEMA)
        # The witness must contain a paper with two authors, Vianu first.
        results = evaluate(query, witness)
        assert results

    def test_value_constants_materialized(self):
        schema = parse_schema("T = [a -> S]; S = string")
        query = parse_query('SELECT WHERE Root = [a -> X]; X = "needle"')
        witness = check_witness(query, schema)
        assert "needle" in witness.atomic_values()

    def test_multiple_arms_through_star(self):
        schema = parse_schema("T = [(a -> U)*]; U = int")
        query = parse_query("SELECT WHERE Root = [a -> X, a -> Y, a -> Z]")
        witness = check_witness(query, schema)
        # Three ordered arms need three distinct a-edges.
        assert len(witness.root_node.edges) >= 3

    def test_union_fillers_completed(self):
        # A witness node needs mandatory siblings the query never mentions.
        schema = parse_schema(
            "T = [must -> M . a -> U]; M = [deep -> S]; U = int; S = string"
        )
        query = parse_query("SELECT WHERE Root = [a -> X]")
        witness = check_witness(query, schema)
        labels = [edge.label for edge in witness.root_node.edges]
        assert labels == ["must", "a"]

    def test_recursive_schema(self):
        schema = parse_schema("T = [a -> T | b -> E]; E = string")
        query = parse_query("SELECT WHERE Root = [a.a.b -> X]")
        witness = check_witness(query, schema)
        assert witness.edge_count() >= 3


class TestWitnessNodeKinds:
    def test_path_through_an_unordered_type_builds_an_unordered_node(self):
        # Regression: path nodes were always built ordered, so a path
        # crossing an unordered type produced a non-conforming witness.
        schema = parse_schema("R = [a -> M]; M = {b -> T}; T = string")
        query = parse_query("SELECT X WHERE Root = [a.b -> X]")
        witness = check_witness(query, schema)
        middle = [n for n in witness.nodes.values() if n.labels() == ("b",)]
        assert middle and middle[0].is_unordered

    def test_referenceable_variable_binds_a_referenceable_node(self):
        # Regression: the node built for a &-variable got a plain oid,
        # so the query (which needs a referenceable binding) missed it.
        schema = parse_schema("R = [a -> &T]; &T = string")
        query = parse_query("SELECT WHERE Root = [a -> &X]")
        witness = check_witness(query, schema)
        assert any(node.is_referenceable for node in witness.nodes.values())


class TestWitnessErrors:
    def test_joins_rejected(self):
        schema = parse_schema("T = {x -> &U . y -> &U}; &U = string")
        query = parse_query("SELECT WHERE Root = {x -> &X, y -> &X}")
        with pytest.raises(WitnessError):
            find_witness(query, schema)

    def test_unordered_defs_rejected(self):
        schema = parse_schema("T = {(a -> U)*}; U = int")
        query = parse_query("SELECT WHERE Root = {a -> X}")
        with pytest.raises(WitnessError):
            find_witness(query, schema)

    def test_label_var_arms_rejected(self):
        schema = parse_schema("T = [a -> U]; U = int")
        query = parse_query("SELECT $l WHERE Root = [$l -> X]")
        with pytest.raises(WitnessError):
            find_witness(query, schema)

    def test_partial_order_rejected(self):
        from repro.automata import Sym
        from repro.query import PatternArm, PatternDef, PatternKind, Query

        schema = parse_schema("T = [a -> U . b -> U]; U = int")
        arms = [PatternArm(Sym("a"), "X"), PatternArm(Sym("b"), "Y")]
        query = Query(
            [], [PatternDef("Root", PatternKind.ORDERED, arms=arms, partial_order=[])]
        )
        with pytest.raises(WitnessError):
            find_witness(query, schema)


class TestWitnessSweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_queries(self, seed):
        """For random join-free queries: a witness exists iff satisfiable,
        and every produced witness validates."""
        rng = random.Random(seed)
        schema = document_schema(2)
        query = random_join_free_query(sorted(schema.labels()), 2, rng)
        witness = find_witness(query, schema)
        if is_satisfiable(query, schema):
            assert witness is not None
            assert conforms(witness, schema)
            assert satisfies(query, witness)
        else:
            assert witness is None
