"""Total DFAs: subset construction and complement — the test reference.

DFAs are *total*: every (state, symbol) pair has a successor, using an
explicit sink state where needed.  Totality makes complementation a matter
of flipping the accepting set, which is how :func:`repro.automata.ops.is_subset`
decides containment.  No production decision runs on this module: they
all run on :class:`repro.automata.compiled.CompiledDFA` tables, and the
determinize/complement route survives as the independent reference the
tests and the differential fuzzer compare those tables against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .nfa import NFA
from .syntax import Symbol


class DFA:
    """A complete deterministic finite automaton.

    Attributes:
        n_states: number of states, ``0 .. n_states-1``.
        alphabet: finite alphabet.
        start: start state.
        accepting: frozenset of accepting states.
        transition: mapping ``(state, symbol) -> state``; total.
    """

    __slots__ = ("n_states", "alphabet", "start", "accepting", "transition")

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Symbol],
        start: int,
        accepting: Iterable[int],
        transition: Dict[Tuple[int, Symbol], int],
    ):
        self.n_states = n_states
        self.alphabet = frozenset(alphabet)
        self.start = start
        self.accepting = frozenset(accepting)
        self.transition = dict(transition)
        if n_states < 1:
            raise ValueError(f"a DFA needs at least one state, got {n_states}")
        if not 0 <= start < n_states:
            raise ValueError(
                f"start state {start} out of range 0..{n_states - 1}"
            )
        out_of_range = sorted(
            state for state in self.accepting if not 0 <= state < n_states
        )
        if out_of_range:
            raise ValueError(
                f"accepting states {out_of_range} out of range 0..{n_states - 1}"
            )
        for (src, symbol), dst in self.transition.items():
            if not 0 <= src < n_states or symbol not in self.alphabet:
                raise ValueError(
                    f"transition from ({src}, {symbol!r}) is outside the "
                    "state space or alphabet"
                )
            if not 0 <= dst < n_states:
                raise ValueError(
                    f"transition ({src}, {symbol!r}) -> {dst} leaves the "
                    f"state space 0..{n_states - 1}"
                )
        missing = [
            (state, symbol)
            for state in range(n_states)
            for symbol in sorted(self.alphabet, key=repr)
            if (state, symbol) not in self.transition
        ]
        if missing:
            raise ValueError(
                "transition function is not total; missing "
                f"{missing[:3]}{'...' if len(missing) > 3 else ''} "
                f"({len(missing)} of {n_states * len(self.alphabet)} pairs)"
            )

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Return True if ``word`` is accepted."""
        state = self.start
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            state = self.transition[(state, symbol)]
        return state in self.accepting

    def complement(self) -> "DFA":
        """Return a DFA for the complement language (w.r.t. alphabet*)."""
        accepting = frozenset(range(self.n_states)) - self.accepting
        return DFA(self.n_states, self.alphabet, self.start, accepting, self.transition)

    def reachable_states(self) -> FrozenSet[int]:
        """Return states reachable from the start state."""
        seen = {self.start}
        stack = [self.start]
        while stack:
            state = stack.pop()
            for symbol in self.alphabet:
                dst = self.transition[(state, symbol)]
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """Return True if no word is accepted."""
        return not (self.reachable_states() & self.accepting)

    def to_nfa(self) -> NFA:
        """View this DFA as an NFA (shared state numbering)."""
        transitions: Dict[int, List[Tuple[object, int]]] = {}
        for (src, symbol), dst in self.transition.items():
            transitions.setdefault(src, []).append((symbol, dst))
        return NFA(self.n_states, self.alphabet, self.start, self.accepting, transitions)

    def __repr__(self) -> str:
        return f"DFA(states={self.n_states}, alphabet={len(self.alphabet)})"


def determinize(nfa: NFA) -> DFA:
    """Subset construction; the result is total (includes a sink if needed)."""
    symbols = sorted(nfa.alphabet, key=repr)
    start_set = nfa.initial_states()
    ids: Dict[FrozenSet[int], int] = {start_set: 0}
    order: List[FrozenSet[int]] = [start_set]
    transition: Dict[Tuple[int, Symbol], int] = {}
    queue = [start_set]
    while queue:
        current = queue.pop()
        current_id = ids[current]
        for symbol in symbols:
            nxt = nfa.step(current, symbol)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            transition[(current_id, symbol)] = ids[nxt]
    accepting = {ids[s] for s in order if s & nfa.accepting}
    return DFA(len(order), nfa.alphabet, 0, accepting, transition)
