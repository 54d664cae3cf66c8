"""Regression tests: ``DFA.__init__`` validates totality and ranges.

The complement-by-flipping trick (and every containment decision built on
it) is only sound on *total* DFAs.  Previously a partial transition table
was accepted silently and surfaced later as a ``KeyError`` deep inside
``accepts``/``reachable_states``; now construction fails fast with a
clear message.
"""

import pytest

from repro.automata import DFA, determinize, parse_regex_string, thompson

ALPHABET = ("a", "b")


def total_transition():
    return {
        (0, "a"): 1,
        (0, "b"): 0,
        (1, "a"): 1,
        (1, "b"): 0,
    }


class TestValidation:
    def test_valid_total_dfa_accepted(self):
        dfa = DFA(2, ALPHABET, 0, {1}, total_transition())
        assert dfa.accepts(("a",))
        assert not dfa.accepts(("a", "b"))

    def test_missing_pair_rejected(self):
        transition = total_transition()
        del transition[(1, "b")]
        with pytest.raises(ValueError, match="not total.*1, 'b'"):
            DFA(2, ALPHABET, 0, {1}, transition)

    def test_empty_transition_table_rejected(self):
        with pytest.raises(ValueError, match="not total"):
            DFA(1, ALPHABET, 0, set(), {})

    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            DFA(0, ALPHABET, 0, set(), {})

    def test_start_out_of_range(self):
        with pytest.raises(ValueError, match="start state 2"):
            DFA(2, ALPHABET, 2, {1}, total_transition())

    def test_accepting_out_of_range(self):
        with pytest.raises(ValueError, match="accepting states \\[5\\]"):
            DFA(2, ALPHABET, 0, {1, 5}, total_transition())

    def test_target_out_of_range(self):
        transition = total_transition()
        transition[(1, "a")] = 9
        with pytest.raises(ValueError, match="-> 9 leaves"):
            DFA(2, ALPHABET, 0, {1}, transition)

    def test_stray_symbol_rejected(self):
        transition = total_transition()
        transition[(0, "z")] = 0
        with pytest.raises(ValueError, match="outside the .* alphabet"):
            DFA(2, ALPHABET, 0, {1}, transition)

    def test_stray_source_state_rejected(self):
        transition = total_transition()
        transition[(7, "a")] = 0
        with pytest.raises(ValueError, match=r"\(7, 'a'\)"):
            DFA(2, ALPHABET, 0, {1}, transition)

    def test_empty_alphabet_is_trivially_total(self):
        dfa = DFA(1, (), 0, {0}, {})
        assert dfa.accepts(())


class TestConstructionsStayValid:
    def test_pipeline_products_pass_validation(self):
        # determinize/complement must keep producing total DFAs.
        nfa = thompson(parse_regex_string("(a|b)*.a.b?"), ALPHABET)
        dfa = determinize(nfa)
        flipped = dfa.complement()
        for machine in (dfa, flipped):
            # Re-construction re-runs validation on the same pieces.
            DFA(
                machine.n_states,
                machine.alphabet,
                machine.start,
                machine.accepting,
                machine.transition,
            )
