"""Tests for the schema evolution diff (``repro.schema.delta``)."""

import random

import pytest

from repro.engine import Engine
from repro.schema import (
    CHANGE_KINDS,
    SchemaDelta,
    compose_verdicts,
    diff_schemas,
    parse_schema,
    separating_word,
)
from repro.schema.delta import (
    EQUIVALENT,
    INCOMPARABLE,
    NARROWING,
    WIDENING,
)
from repro.workloads import MUTATION_KINDS, document_schema, mutate_schema

BASE = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""


def diff(old_text, new_text):
    old, new = parse_schema(old_text), parse_schema(new_text)
    return diff_schemas(old, new, engine=Engine())


class TestIdentity:
    def test_identical_schemas_produce_empty_delta(self):
        delta = diff(BASE, BASE)
        assert delta.identical
        assert delta.changes == ()
        assert delta.compatibility == EQUIVALENT
        assert delta.composed == EQUIVALENT

    def test_reordered_definitions_share_a_fingerprint(self):
        reordered = """
        DOCUMENT = [(paper -> PAPER)*];
        AUTHOR = [name -> NAME]; NAME = string; TITLE = string;
        PAPER = [title -> TITLE . (author -> AUTHOR)*]
        """
        delta = diff(BASE, reordered)
        assert delta.identical


class TestChangeClasses:
    def test_add_type_is_equivalent(self):
        new = BASE + "; YEAR = int"
        delta = diff(BASE, new)
        assert [c.kind for c in delta.changes] == ["add_type"]
        assert delta.changes[0].tid == "YEAR"
        assert not delta.changes[0].reachable
        assert delta.compatibility == EQUIVALENT

    def test_drop_unreachable_type_is_equivalent(self):
        delta = diff(BASE + "; YEAR = int", BASE)
        assert [c.kind for c in delta.changes] == ["drop_type"]
        assert not delta.changes[0].was_reachable
        assert delta.compatibility == EQUIVALENT

    def test_widened_content_model_carries_counterexample(self):
        wide = """
        DOCUMENT = [(paper -> PAPER)*];
        PAPER = [title -> TITLE . (author -> AUTHOR)* . (year -> YEAR)?];
        AUTHOR = [name -> NAME]; NAME = string; TITLE = string; YEAR = int
        """
        delta = diff(BASE, wide)
        assert delta.compatibility == WIDENING
        models = [c for c in delta.changes if c.kind == "change_content_model"]
        assert len(models) == 1
        change = models[0]
        assert change.verdict == WIDENING
        # Widening counterexamples witness the growth: a new-only word.
        assert change.counterexample is not None
        assert ("year", "YEAR") in change.counterexample

    def test_narrowed_content_model(self):
        narrow = """
        DOCUMENT = [(paper -> PAPER)*];
        PAPER = [title -> TITLE];
        AUTHOR = [name -> NAME]; NAME = string; TITLE = string
        """
        delta = diff(BASE, narrow)
        assert delta.compatibility == NARROWING
        change = [c for c in delta.changes if c.kind == "change_content_model"][0]
        assert change.verdict == NARROWING
        assert change.counterexample == (("title", "TITLE"), ("author", "AUTHOR"))

    def test_changed_atomic_domain_is_incomparable(self):
        changed = BASE.replace("TITLE = string", "TITLE = int")
        delta = diff(BASE, changed)
        kinds = [c.kind for c in delta.changes]
        assert "change_atomic" in kinds
        assert delta.compatibility == INCOMPARABLE

    def test_renamed_type_is_detected_not_add_drop(self):
        renamed = BASE.replace("AUTHOR", "WRITER")
        delta = diff(BASE, renamed)
        assert [c.kind for c in delta.changes] == ["rename_type"]
        change = delta.changes[0]
        assert (change.old_tid, change.new_tid) == ("AUTHOR", "WRITER")
        assert delta.compatibility == EQUIVALENT
        assert ("AUTHOR", "WRITER") in delta.renames

    def test_renamed_edge_label(self):
        relabeled = BASE.replace("author ->", "writer ->")
        delta = diff(BASE, relabeled)
        edges = [c for c in delta.changes if c.kind == "change_edge_label"]
        assert len(edges) == 1
        assert (edges[0].old_label, edges[0].new_label) == ("author", "writer")
        assert delta.compatibility == INCOMPARABLE

    def test_changed_root(self):
        rerooted = """
        PAPER = [title -> TITLE . (author -> AUTHOR)*];
        AUTHOR = [name -> NAME]; NAME = string; TITLE = string
        """
        delta = diff(BASE, rerooted)
        kinds = {c.kind for c in delta.changes}
        assert "change_root" in kinds
        assert delta.compatibility == INCOMPARABLE

    def test_changes_sorted_by_change_kind_order(self):
        new = BASE.replace("TITLE = string", "TITLE = int") + "; YEAR = int"
        delta = diff(BASE, new)
        positions = [CHANGE_KINDS.index(c.kind) for c in delta.changes]
        assert positions == sorted(positions)


class TestComposeVerdicts:
    def test_joins(self):
        assert compose_verdicts([]) == EQUIVALENT
        assert compose_verdicts([EQUIVALENT, WIDENING]) == WIDENING
        assert compose_verdicts([EQUIVALENT, NARROWING]) == NARROWING
        assert compose_verdicts([WIDENING, NARROWING]) == INCOMPARABLE
        assert compose_verdicts([INCOMPARABLE, EQUIVALENT]) == INCOMPARABLE


class TestSeparatingWord:
    def test_least_word_in_length_lex_order(self):
        engine = Engine()
        left = parse_schema("T = [(a -> S)? . (b -> S)?]; S = string")
        right = parse_schema("T = [(a -> S)?]; S = string")
        word = separating_word(
            left.type("T").regex, right.type("T").regex, engine
        )
        assert word == (("b", "S"),)

    def test_none_when_contained(self):
        engine = Engine()
        left = parse_schema("T = [a -> S]; S = string")
        right = parse_schema("T = [(a -> S)*]; S = string")
        assert (
            separating_word(left.type("T").regex, right.type("T").regex, engine)
            is None
        )


class TestRegistryCorpusClassification:
    def test_every_mutation_kind_classifies_on_document_corpus(self):
        """The acceptance corpus: a 38-type registry schema, every kind."""
        base = document_schema(16)
        assert len(base) == 38
        rng = random.Random(20260807)
        expected_change = {
            "add_type": "add_type",
            "drop_type": "drop_type",
            "rename_type": "rename_type",
            "widen_content": "change_content_model",
            "narrow_content": "change_content_model",
            "rename_label": "change_edge_label",
            "change_atomic": "change_atomic",
            "change_kind": "change_kind",
        }
        for kind in MUTATION_KINDS:
            mutant, got = mutate_schema(base, rng, kinds=[kind])
            assert got == kind
            delta = diff_schemas(base, mutant, engine=Engine())
            kinds = {c.kind for c in delta.changes}
            assert expected_change[kind] in kinds, (kind, kinds)
            assert delta.compatibility in (
                EQUIVALENT,
                WIDENING,
                NARROWING,
                INCOMPARABLE,
            )

    def test_widen_is_widening_and_narrow_is_not_widening(self):
        base = document_schema(16)
        rng = random.Random(5)
        widened, _ = mutate_schema(base, rng, kinds=["widen_content"])
        assert diff_schemas(base, widened, engine=Engine()).compatibility in (
            WIDENING,
            EQUIVALENT,
        )
        narrowed, _ = mutate_schema(base, rng, kinds=["narrow_content"])
        assert diff_schemas(base, narrowed, engine=Engine()).compatibility in (
            NARROWING,
            EQUIVALENT,
        )


class TestRepeatDiffs:
    @pytest.mark.parametrize("seed", range(6))
    def test_second_diff_compiles_no_new_tables(self, seed):
        # Subsumption runs on engine-cached compiled tables keyed on
        # hash-consed regexes, so re-diffing one pair on one engine is
        # all cache hits — and decides byte-identically.
        import json

        base = document_schema(4)
        rng = random.Random(seed)
        mutant, _kind = mutate_schema(base, rng)
        engine = Engine()
        first = diff_schemas(base, mutant, engine=engine)
        misses = engine.stats().misses
        second = diff_schemas(base, mutant, engine=engine)
        assert engine.stats().misses == misses
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )


class TestSerialization:
    def test_to_dict_shape(self):
        delta = diff(BASE, BASE.replace("AUTHOR", "WRITER"))
        payload = delta.to_dict()
        assert payload["old_fingerprint"] != payload["new_fingerprint"]
        assert payload["compatibility"] == EQUIVALENT
        assert payload["summary"]["changes"] == 1
        assert payload["summary"]["by_kind"] == {"rename_type": 1}
        (change,) = payload["changes"]
        assert change["kind"] == "rename_type"
        assert isinstance(delta, SchemaDelta)
