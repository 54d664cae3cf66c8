"""Each schema's content models are compiled once.

When every target of a collection type is inhabited, restricting its
content model drops no arc, so the restricted table *is* the
unrestricted one: ``prewarm`` runs the compile pipeline once per
collection type, and an artifact carries that table once.  A schema
with an uninhabited type still gets its own, smaller restricted table,
and the schema graph Γ(S) is read off it.
"""

import repro.engine.core as core
from repro.engine import Engine, EngineArtifact
from repro.schema import parse_schema
from repro.service import prewarm
from repro.workloads import document_schema

UNINHABITED = "A = [x -> B | y -> C]; B = [z -> B]; C = string"


def _counting_compiles(monkeypatch):
    calls = []
    original = core.compile_regex

    def counted(regex, *args):
        calls.append(regex)
        return original(regex, *args)

    monkeypatch.setattr(core, "compile_regex", counted)
    return calls


class TestNoOpRestriction:
    def test_prewarm_compiles_each_collection_type_once(self, monkeypatch):
        schema = document_schema(4)
        calls = _counting_compiles(monkeypatch)
        engine = Engine()
        prewarm(schema, engine)
        collections = [t.tid for t in schema if not t.is_atomic]
        assert engine.inhabited_types(schema) == frozenset(schema.tids())
        assert len(calls) == len(collections)
        for tid in collections:
            assert engine.restricted_content_nfa(schema, tid) is engine.content_nfa(
                schema, tid
            )
            assert engine.compiled_restricted_content(
                schema, tid
            ) is engine.compiled_content(schema, tid)

    def test_artifact_round_trip_keeps_the_table_shared(self):
        schema = document_schema(4)
        engine = Engine()
        prewarm(schema, engine)
        artifact = EngineArtifact.from_bytes(
            EngineArtifact.capture(engine, schema).to_bytes()
        )
        fresh = artifact.install()
        restored = artifact.schema
        for tid in (t.tid for t in restored if not t.is_atomic):
            assert fresh.compiled_restricted_content(
                restored, tid
            ) is fresh.compiled_content(restored, tid)
        assert fresh.stats().misses == 0


class TestUninhabitedTarget:
    def test_restricted_table_is_distinct(self):
        schema = parse_schema(UNINHABITED)
        engine = Engine()
        prewarm(schema, engine)
        full = engine.compiled_content(schema, "A")
        restricted = engine.compiled_restricted_content(schema, "A")
        assert restricted is not full
        assert full.member([("x", "B")])
        assert not restricted.member([("x", "B")])
        assert restricted.member([("y", "C")])

    def test_schema_graph_and_inhabitation(self):
        schema = parse_schema(UNINHABITED)
        engine = Engine()
        assert engine.inhabited_types(schema) == frozenset({"A", "C"})
        edges = engine.possible_edges(schema)
        assert edges["A"] == frozenset({("y", "C")})
        assert edges["B"] == frozenset()
        assert edges["C"] == frozenset()
        assert set(schema.inhabitation_ranks()) == {"A", "C"}
