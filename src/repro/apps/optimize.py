"""Adaptive optimal query evaluation (Section 4.2, Theorem 4.2).

The computation model views the data graph as an ADT with two operations —
``firstEdge(v)`` and ``nextEdge(e)`` — and charges one unit per edge
explored.  Evaluation proceeds depth-first, never returning to a node once
backtracked from.  The *naive* strategy explores every edge.  The paper's
algorithm :math:`A_O` uses the schema, the query, and the data seen so far
to prune, and is optimal: by the *extension property*, it explores an edge
``u -> v`` if and only if some conforming extension of the seen subgraph
has an answer node at ``v``, one of its right brothers, or one of their
descendants — so no correct deterministic algorithm of the class can skip
anything :math:`A_O` reads (Theorem 4.2).

Scope (as in the paper's presentation): flat ordered join-free patterns
``SELECT X1..Xk WHERE Root = [R1 -> X1, ..., Rk -> Xk]`` over ordered tree
data conforming to an ordered tree schema (the DTD⁻ setting and its
untagged ordered relatives).  The extension-property oracle is exact in
this setting, computed with the schema-product reachability machinery:

* a node's *candidate types* are tracked from the parent's content
  automaton and narrowed as its subtree is revealed (this realizes the
  paper's "sidewards pruning": what we learn under one child reshapes what
  can still appear under later ones);
* an arm can still match strictly below / to the right iff the
  corresponding product automaton reaches acceptance;
* a full answer needs all ``k`` arms on strictly increasing root children,
  decided by a small product over the root's residual content language.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..automata.nfa import EPS, NFA
from ..automata.syntax import Regex
from ..data.model import DataGraph, Node
from ..engine import Engine, get_default_engine
from ..query.model import PatternKind, Query
from ..schema.model import Schema
from ..typing.reach import SchemaReach


class EdgeHandle(NamedTuple):
    """An opaque edge handle of the traversal ADT."""

    oid: str
    index: int


class TraversalGraph:
    """The edge-traversal ADT of Section 4.2, with cost accounting.

    ``cost`` counts edges explored (successful ``firstEdge``/``nextEdge``
    returns); ``calls`` counts every invocation including null returns.
    """

    def __init__(self, graph: DataGraph):
        if not graph.is_tree():
            raise ValueError("the Section 4.2 model assumes tree data")
        for node in graph:
            if node.is_unordered:
                raise ValueError("the Section 4.2 model assumes ordered data")
        self.graph = graph
        self.cost = 0
        self.calls = 0

    def first_edge(self, oid: str) -> Optional[EdgeHandle]:
        """The first (left-most) edge of node ``oid``, or None."""
        self.calls += 1
        node = self.graph.node(oid)
        if not node.edges:
            return None
        self.cost += 1
        return EdgeHandle(oid, 0)

    def next_edge(self, edge: EdgeHandle) -> Optional[EdgeHandle]:
        """The right brother of ``edge``, or None when it is last."""
        self.calls += 1
        node = self.graph.node(edge.oid)
        if edge.index + 1 >= len(node.edges):
            return None
        self.cost += 1
        return EdgeHandle(edge.oid, edge.index + 1)

    def label(self, edge: EdgeHandle) -> str:
        return self.graph.node(edge.oid).edges[edge.index].label

    def target(self, edge: EdgeHandle) -> str:
        return self.graph.node(edge.oid).edges[edge.index].target


class FlatPattern:
    """A flat ordered pattern ``Root = [R1 -> X1, ..., Rk -> Xk]``."""

    def __init__(self, arms: Sequence[Regex], targets: Optional[Sequence[str]] = None):
        if not arms:
            raise ValueError("a flat pattern needs at least one arm")
        self.arms = tuple(arms)
        self.targets = tuple(targets or [f"X{i+1}" for i in range(len(arms))])

    @classmethod
    def from_query(cls, query: Query) -> "FlatPattern":
        """Extract a flat pattern from a query of the Section 4.2 form.

        Raises:
            ValueError: if the query is not a single flat ordered pattern
                with regex arms and undefined targets.
        """
        if len(query.patterns) != 1:
            raise ValueError("Section 4.2 evaluation takes a single pattern definition")
        pattern = query.patterns[0]
        if pattern.kind is not PatternKind.ORDERED:
            raise ValueError("Section 4.2 evaluation takes an ordered pattern")
        if any(arm.is_label_var for arm in pattern.arms):
            raise ValueError("label variables are outside the Section 4.2 form")
        if pattern.partial_order is not None:
            raise ValueError("partial orders are outside the Section 4.2 form")
        return cls(
            [arm.path for arm in pattern.arms],
            [arm.target for arm in pattern.arms],
        )

    def __len__(self) -> int:
        return len(self.arms)


class Match(NamedTuple):
    """One arm match: the arm, its root-child index, and the matched node."""

    arm: int
    root_index: int
    oid: str


@dataclass
class EvalResult:
    """Outcome of an evaluation: matches, answers, and traversal cost."""

    matches: List[Match]
    cost: int
    calls: int
    arm_count: int

    def answers(self) -> List[Tuple[str, ...]]:
        """All answer tuples: one node per arm, root indexes increasing."""
        per_arm: List[List[Match]] = [[] for _ in range(self.arm_count)]
        for match in self.matches:
            per_arm[match.arm].append(match)
        results: Set[Tuple[str, ...]] = set()

        def build(arm: int, last_index: int, chosen: Tuple[str, ...]) -> None:
            if arm == len(per_arm):
                results.add(chosen)
                return
            for match in per_arm[arm]:
                if match.root_index > last_index:
                    build(arm + 1, match.root_index, chosen + (match.oid,))

        build(0, -1, ())
        return sorted(results)


class NaiveEvaluator:
    """The baseline: depth-first exploration of every edge."""

    def __init__(
        self,
        pattern: FlatPattern,
        graph: DataGraph,
        reach_alphabet=None,
        engine: Optional[Engine] = None,
    ):
        self.pattern = pattern
        self.adt = TraversalGraph(graph)
        if engine is None:
            engine = get_default_engine()
        alphabet = frozenset(graph.labels())
        self.nfas = [
            engine.thompson(arm, alphabet | frozenset(arm.symbols()))
            for arm in pattern.arms
        ]

    def run(self) -> EvalResult:
        matches: List[Match] = []
        root = self.adt.graph.root
        initial = tuple(nfa.initial_states() for nfa in self.nfas)

        def visit(oid: str, states: Tuple[FrozenSet[int], ...], root_index: int) -> None:
            edge = self.adt.first_edge(oid)
            index = 0
            while edge is not None:
                label = self.adt.label(edge)
                child = self.adt.target(edge)
                child_root_index = index if root_index < 0 else root_index
                stepped = tuple(
                    nfa.step(s, label) for nfa, s in zip(self.nfas, states)
                )
                for arm, (nfa, s) in enumerate(zip(self.nfas, stepped)):
                    if s & nfa.accepting:
                        matches.append(Match(arm, child_root_index, child))
                visit(child, stepped, child_root_index)
                edge = self.adt.next_edge(edge)
                index += 1

        visit(root, initial, -1)
        return EvalResult(matches, self.adt.cost, self.adt.calls, len(self.pattern))


@dataclass
class _Frame:
    """Per-node state of the adaptive DFS."""

    oid: str
    # Candidate typing: type id -> content-NFA state set after the
    # consumed children prefix (only completable candidates are kept).
    content: Dict[str, FrozenSet[int]]
    # Per-arm path-automaton states for the path from the root to this
    # node (compiled-table rows; None marks a dead arm walk).
    arm_states: Tuple[Optional[object], ...]
    root_index: int  # root-child index of the current path (-1 at the root)


class AdaptiveEvaluator:
    """The paper's algorithm :math:`A_O` (Section 4.2).

    Produces the same answers as :class:`NaiveEvaluator` while exploring
    only edges justified by the extension property.
    """

    def __init__(
        self,
        pattern: FlatPattern,
        graph: DataGraph,
        schema: Schema,
        engine: Optional[Engine] = None,
    ):
        self.pattern = pattern
        self.adt = TraversalGraph(graph)
        self.schema = schema
        self.engine = engine if engine is not None else get_default_engine()
        self.reach = self.engine.reach(schema)
        # Arm path tables (walk contract: step() returns None when the
        # walk dies).
        self.arm_runners = [self.reach.path(arm) for arm in pattern.arms]
        self.matches: List[Match] = []
        # Seen matches per arm: set of root-child indexes.
        self._seen: List[Set[int]] = [set() for _ in pattern.arms]
        self.decisions = 0  # oracle invocations, for instrumentation

    # -- content automata ------------------------------------------------

    def _content_nfa(self, tid: str) -> NFA:
        return self.engine.restricted_content_nfa(self.schema, tid)

    def _completable(self, tid: str, states: FrozenSet[int]) -> bool:
        nfa = self._content_nfa(tid)
        return bool(states & nfa.coreachable_states())

    # -- main loop --------------------------------------------------------

    def run(self) -> EvalResult:
        if self.schema.root not in self.schema.types:
            raise ValueError("schema has no root type")
        root_def = self.schema.type(self.schema.root)
        if root_def.is_atomic:
            return EvalResult([], self.adt.cost, self.adt.calls, len(self.pattern))
        root_frame = _Frame(
            oid=self.adt.graph.root,
            content={self.schema.root: self._content_nfa(self.schema.root).initial_states()},
            arm_states=tuple(runner.initial() for runner in self.arm_runners),
            root_index=-1,
        )
        self._stack: List[_Frame] = []
        self._visit(root_frame)
        return EvalResult(self.matches, self.adt.cost, self.adt.calls, len(self.pattern))

    def _visit(self, frame: _Frame) -> bool:
        """Process a node; return True if all its children were consumed."""
        self._stack.append(frame)
        fully = False
        if self._should_enter(frame):
            edge = self.adt.first_edge(frame.oid)
            if edge is None:
                fully = True
            index = 0
            while edge is not None:
                self._process_edge(frame, edge, index)
                if not self._should_continue(frame):
                    break
                following = self.adt.next_edge(edge)
                if following is None:
                    fully = True
                edge = following
                index += 1
        self._stack.pop()
        return fully

    def _process_edge(self, frame: _Frame, edge: EdgeHandle, index: int) -> None:
        label = self.adt.label(edge)
        child_oid = self.adt.target(edge)
        child_root_index = index if frame.root_index < 0 else frame.root_index
        stepped = tuple(
            runner.step(s, label) if s is not None else None
            for runner, s in zip(self.arm_runners, frame.arm_states)
        )
        for arm, (runner, s) in enumerate(zip(self.arm_runners, stepped)):
            if s is not None and runner.is_accepting(s):
                self.matches.append(Match(arm, child_root_index, child_oid))
                self._seen[arm].add(child_root_index)
        # Candidate types of the child per the parent's content automata.
        child_candidates = self._child_candidates(frame, label)
        child_frame = _Frame(
            oid=child_oid,
            content={
                tid: self._content_nfa(tid).initial_states()
                for tid in child_candidates
            },
            arm_states=stepped,
            root_index=child_root_index,
        )
        child_node = self.adt.graph.node(child_oid)
        fully_explored = False
        if not child_node.is_atomic and self._should_descend(child_frame):
            fully_explored = self._visit(child_frame)
        # Determine the child's possible types given what was (not) seen.
        # (A node's kind and atomic value are visible once reached; only
        # edge traversals are charged.)  If the child's children were only
        # partially consumed, its residual must merely be completable —
        # the data conforms, so the unseen suffix completes some word.
        if child_node.is_atomic:
            possible = self._atomic_candidates(frame, label, child_oid)
        elif fully_explored:
            possible = {
                tid
                for tid, states in child_frame.content.items()
                if states & self._content_nfa(tid).accepting
            }
        else:
            possible = {
                tid
                for tid, states in child_frame.content.items()
                if self._completable(tid, states)
            }
        # Advance the parent's candidate content states.
        new_content: Dict[str, FrozenSet[int]] = {}
        for tid, states in frame.content.items():
            nfa = self._content_nfa(tid)
            moved: Set[int] = set()
            for child_tid in possible:
                moved |= nfa.step(states, (label, child_tid))
            moved_frozen = frozenset(moved)
            if moved_frozen and self._completable(tid, moved_frozen):
                new_content[tid] = moved_frozen
        frame.content = new_content

    def _child_candidates(self, frame: _Frame, label: str) -> Set[str]:
        """Collection types the child may have, per the parent's content."""
        candidates: Set[str] = set()
        for tid, states in frame.content.items():
            nfa = self._content_nfa(tid)
            for q in states:
                closure = nfa.eps_closure([q])
                for state in closure:
                    for symbol, dst in nfa.arcs_from(state):
                        if symbol is EPS or symbol[0] != label:
                            continue
                        target = symbol[1]
                        if not self.schema.type(target).is_atomic:
                            candidates.add(target)
        return candidates

    def _atomic_candidates(self, frame: _Frame, label: str, child_oid: str) -> Set[str]:
        """Atomic types the child may have (its value is visible for free)."""
        child = self.adt.graph.node(child_oid)
        if not child.is_atomic:
            return set()
        from ..schema.model import atomic_matches

        result: Set[str] = set()
        for tid, states in frame.content.items():
            nfa = self._content_nfa(tid)
            for q in states:
                for state in nfa.eps_closure([q]):
                    for symbol, _dst in nfa.arcs_from(state):
                        if symbol is EPS or symbol[0] != label:
                            continue
                        target_def = self.schema.type(symbol[1])
                        if target_def.is_atomic and atomic_matches(
                            target_def.atomic, child.value
                        ):
                            result.add(symbol[1])
        return result

    # -- the extension-property oracle ------------------------------------

    def _should_enter(self, frame: _Frame) -> bool:
        """Decide ``firstEdge(frame.oid)``.

        For the root this asks whether any answer can exist at all; for
        deeper nodes the preceding descend decision already justified
        reading their children.
        """
        if frame.root_index < 0:
            self.decisions += 1
            return self._tuple_feasible(pending_arm=None, pending="root")
        return True

    def _should_descend(self, child_frame: _Frame) -> bool:
        """Decide whether to visit the child's subtree (strictly below it)."""
        self.decisions += 1
        if not child_frame.content:
            return False
        return self._region_feasible(child_frame, below=True)

    def _should_continue(self, frame: _Frame) -> bool:
        """Decide ``nextEdge``: can the unseen right part of this node's
        children hold an answer component?"""
        self.decisions += 1
        if not frame.content:
            return False
        if frame.root_index < 0:
            return self._tuple_feasible(pending_arm=None, pending="future")
        return self._region_feasible(frame, below=False)

    def _region_feasible(self, frame: _Frame, below: bool) -> bool:
        """Is there an extension with an answer component in the region?

        ``below=True``: strictly below ``frame`` (its content is fully
        unseen — candidate types with free subtrees).  ``below=False``:
        among the unseen right siblings inside ``frame``.
        """
        for arm in range(len(self.pattern.arms)):
            if not self._arm_potential(frame, arm, below):
                continue
            if self._tuple_feasible(
                pending_arm=arm, pending="below", j_cur=frame.root_index
            ):
                return True
        return False

    def _arm_potential(self, frame: _Frame, arm: int, below: bool) -> bool:
        """Can ``arm`` match strictly inside the region of ``frame``?"""
        state = frame.arm_states[arm]
        if state is None:
            return False
        runner = self.arm_runners[arm]
        regex = self.pattern.arms[arm]
        if below:
            # The node's content is unseen: any instance content of a
            # candidate type is possible; one Γ-step then free completion.
            for tid in frame.content:
                for label, target in self.reach.edges.get(tid, ()):
                    after = runner.step(state, label)
                    if after is None:
                        continue
                    if self._arm_completes(regex, target, after):
                        return True
            return False
        # Region = future children of this partially seen node: symbols
        # consumable from the residual content state sets.
        for tid, content_states in frame.content.items():
            content_nfa = self._content_nfa(tid)
            for symbol in self._residual_symbols(content_nfa, content_states):
                label, target = symbol
                after = runner.step(state, label)
                if after is None:
                    continue
                if self.schema.type(target).is_atomic:
                    if runner.is_accepting(after):
                        return True
                    continue
                if self._arm_completes(regex, target, after):
                    return True
        return False

    def _arm_completes(self, regex: Regex, tid: str, state: object) -> bool:
        """Can the arm reach acceptance at-or-below a ``tid`` node?"""
        runner = self.reach.path(regex)
        for _type, config_state in self.reach.completions(regex, tid, state):
            if runner.is_accepting(config_state):
                return True
        return False

    def _residual_symbols(self, content_nfa: NFA, states: FrozenSet[int]):
        """Symbols occurring in some completion of the content word."""
        seen = set(states)
        stack = list(states)
        symbols = set()
        while stack:
            q = stack.pop()
            for symbol, dst in content_nfa.arcs_from(q):
                if symbol is not EPS:
                    symbols.add(symbol)
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return sorted(symbols, key=repr)

    @staticmethod
    def _immediate_symbols(nfa: NFA, states: FrozenSet[int]):
        """Symbols consumable right now from a (closed) state set."""
        symbols = set()
        for q in states:
            for symbol, _dst in nfa.arcs_from(q):
                if symbol is not EPS:
                    symbols.add(symbol)
        return sorted(symbols, key=repr)

    def _tuple_feasible(
        self, pending_arm: Optional[int], pending: str, j_cur: int = -1
    ) -> bool:
        """Can a full answer tuple exist with the pending component?

        A tuple assigns strictly increasing root-child indexes to the arms
        in order.  Seen matches supply indexes ``<= j_cur`` (the current
        root child); the pending component (mode ``"below"``) sits exactly
        at ``j_cur``; any remaining arms must be served by *future* root
        children (indexes ``> j_cur``), which therefore form a suffix of
        the arm list, checked against the root's residual content language.

        Modes: ``"below"`` — arm ``pending_arm`` must sit at ``j_cur``;
        ``"future"`` — at least one arm must sit at a future index;
        ``"root"`` — nothing seen yet, all arms must be future-servable.
        """
        root_frame = self._stack[0] if self._stack else None
        if root_frame is None:
            return True
        arm_count = len(self.pattern.arms)
        future_ok = self._future_suffix_table(root_frame)

        if pending == "root":
            return future_ok[0]
        if pending == "future":
            # Split: arms < t on seen indexes, arms >= t (non-empty) future.
            return any(
                future_ok[t] and self._prefix_on_seen(t, bound=None)
                for t in range(arm_count)
            )
        # pending == "below": pending_arm at j_cur; earlier arms on seen
        # indexes strictly below j_cur; later arms all future.
        arm = pending_arm if pending_arm is not None else 0
        if not future_ok[arm + 1]:
            return False
        return self._prefix_on_seen(arm, bound=j_cur)

    def _prefix_on_seen(self, split: int, bound: Optional[int]) -> bool:
        """Can arms ``0..split-1`` take strictly increasing seen indexes
        (all ``< bound`` when given)?  Greedy-minimal choice is optimal."""
        last = -1
        for arm in range(split):
            candidates = [
                index
                for index in sorted(self._seen[arm])
                if index > last and (bound is None or index < bound)
            ]
            if not candidates:
                return False
            last = candidates[0]
        return True

    def _future_suffix_table(self, root_frame: _Frame) -> List[bool]:
        """future_ok[t]: can arms t..k-1 all match via future root children?

        Product of the root's residual content automaton with arm progress;
        a future child serves arm ``t`` when its label starts the arm and
        the arm completes inside the child's type.
        """
        arm_count = len(self.pattern.arms)
        result = [False] * (arm_count + 1)
        # The empty suffix needs the root's residual word to be completable.
        result[arm_count] = any(
            self._completable(tid, states)
            for tid, states in root_frame.content.items()
        )
        for tid, content_states in root_frame.content.items():
            content_nfa = self._content_nfa(tid)
            for t in range(arm_count - 1, -1, -1):
                if not result[t] and self._suffix_feasible(
                    content_nfa, content_states, t
                ):
                    result[t] = True
        return result

    def _suffix_feasible(
        self, content_nfa: NFA, content_states: FrozenSet[int], start_arm: int
    ) -> bool:
        arm_count = len(self.pattern.arms)
        initial = (content_states, start_arm)
        seen = {initial}
        stack = [initial]
        while stack:
            states, progress = stack.pop()
            if progress == arm_count and (states & content_nfa.accepting):
                return True
            for symbol in self._immediate_symbols(content_nfa, states):
                next_states = content_nfa.step(states, symbol)
                if not next_states:
                    continue
                label, target = symbol
                options = [progress]
                if progress < arm_count:
                    arm_runner = self.arm_runners[progress]
                    arm_start = arm_runner.initial()
                    after = (
                        arm_runner.step(arm_start, label)
                        if arm_start is not None
                        else None
                    )
                    if after is not None:
                        serves = False
                        if self.schema.type(target).is_atomic:
                            serves = arm_runner.is_accepting(after)
                        else:
                            serves = self._arm_completes(
                                self.pattern.arms[progress], target, after
                            )
                        if serves:
                            options.append(progress + 1)
                for new_progress in options:
                    state = (next_states, new_progress)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return False
