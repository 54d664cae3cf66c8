"""Mutation smoke tests: the differential harness must catch planted bugs.

A fuzzing subsystem that only ever reports "no discrepancies" is
indistinguishable from one that checks nothing.  Each test here injects a
deliberately broken implementation through the runners' function-under-
test hooks and asserts that (a) the harness flags it, and (b) greedy
shrinking drives the reported counterexample down to a minimal input —
the property that makes real reports actionable.
"""

from repro.automata.dfa import determinize
from repro.oracle.differential import (
    run_automata_section,
    run_conformance_section,
    run_containment_section,
    run_eval_section,
    run_satisfiable_section,
)
from repro.query.eval import evaluate


class TestAutomataMutations:
    def test_wrong_determinize_caught_and_shrunk(self):
        # "Determinize" that flips the language: wrong on every regex.
        found, cases, _ = run_automata_section(
            seed=0,
            cases=20,
            determinize_fn=lambda nfa: determinize(nfa).complement(),
        )
        assert found, "harness missed an always-wrong determinize"
        first = found[0]
        assert first.check == "determinize"
        # Shrinking must reach a trivial regex and the empty word.
        assert first.inputs["word"] == "()"
        assert len(first.inputs["regex"]) < 30

    def test_wrong_complement_caught(self):
        # Identity complement: agrees with the original everywhere.
        found, _, _ = run_automata_section(
            seed=0, cases=20, complement_fn=lambda dfa: dfa
        )
        assert found
        assert all(d.check == "complement" for d in found)

    def test_to_regex_stub_caught(self):
        from repro.automata.syntax import EPSILON

        found, _, _ = run_automata_section(
            seed=0, cases=20, to_regex_fn=lambda nfa: EPSILON
        )
        assert found
        assert any(d.check == "to_regex" for d in found)


class TestContainmentMutations:
    def test_always_subset_caught_and_shrunk(self):
        found, cases, _ = run_containment_section(
            seed=0, cases=30, subset_fn=lambda left, right: True
        )
        assert found, "harness missed an always-True is_subset"
        first = found[0]
        assert first.check == "is_subset"
        # The shrunken escape word is at most one symbol long.
        escaped = eval(first.inputs["word"])  # repr of a tuple of symbols
        assert len(escaped) <= 1
        # Both regexes shrink to near-atomic size.
        assert len(first.inputs["left"]) < 30
        assert len(first.inputs["right"]) < 30

    def test_always_disjoint_caught(self):
        found, _, _ = run_containment_section(
            seed=0, cases=30, subset_fn=lambda left, right: False
        )
        assert found, "harness missed an always-False is_subset"
        assert all(d.check == "is_subset" for d in found)


class TestEvalMutations:
    def test_dropped_row_caught_and_shrunk(self):
        def dropping_evaluate(query, graph, **kwargs):
            rows = evaluate(query, graph, **kwargs)
            return rows[1:] if len(rows) > 1 else rows

        found, cases, _ = run_eval_section(
            seed=0, cases=120, evaluate_fn=dropping_evaluate
        )
        assert found, "harness missed an evaluator that drops rows"
        first = found[0]
        assert first.check == "evaluate"
        assert "missing=" in first.detail
        # Shrinking keeps the counterexample small enough to read.
        assert first.inputs["graph"].count("Node(") <= 4

    def test_always_empty_caught(self):
        found, _, _ = run_eval_section(
            seed=0, cases=120, evaluate_fn=lambda query, graph, **kw: []
        )
        assert found
        # Boolean queries hold on many graphs, so [] is frequently wrong.
        assert all(d.check == "evaluate" for d in found)


class TestConformanceMutations:
    def test_always_conforms_caught_and_shrunk(self):
        found, cases, skipped = run_conformance_section(
            seed=0, cases=40, conforms_fn=lambda graph, schema, **kw: True
        )
        assert found, "harness missed an always-True conforms"
        first = found[0]
        assert first.check == "conforms"
        # A single-node graph suffices to refute most schemas.
        assert first.inputs["graph"].count("Node(") <= 2

    def test_always_rejects_caught(self):
        found, _, _ = run_conformance_section(
            seed=0, cases=40, conforms_fn=lambda graph, schema, **kw: False
        )
        assert found, "harness missed an always-False conforms"
        # Half the corpus is sampled *from* the schema, so False must lose.
        assert any("sampled from the schema" in d.detail for d in found)


class TestSatisfiableMutations:
    def test_always_unsatisfiable_refuted_by_a_sampled_instance(self):
        found, cases, _ = run_satisfiable_section(
            seed=0, cases=40, satisfiable_fn=lambda query, schema, *a, **kw: False
        )
        assert found, "harness missed an always-False is_satisfiable"
        assert all(d.check == "refuted" for d in found)
        first = found[0]
        # The report carries the refuting instance and a shrunken query.
        assert "instance" in first.inputs and "query" in first.inputs

    def test_always_satisfiable_caught_by_the_witness_check(self):
        found, _, _ = run_satisfiable_section(
            seed=0, cases=60, satisfiable_fn=lambda query, schema, *a, **kw: True
        )
        assert found, "harness missed an always-True is_satisfiable"
        assert all(d.check == "witness" for d in found)
