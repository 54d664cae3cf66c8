"""Type correctness (satisfiability) of queries w.r.t. schemas — Section 3.

The problem: given a schema ``S`` and a query ``Q``, does some data graph
conforming to ``S`` give ``Q`` a non-empty result?

The implementation is the executable form of the traces technique
(Section 3.4) and is *exact* for the full language: regular path
expressions, wildcards, label/value variables, ordered and unordered
patterns and types, referenceable variables, and joins.  Its cost profile
matches Table 2 cell by cell, because the exponential work is confined to
exactly the features the paper proves hard:

* **joins** — node-join and label-join variables are *pinned* by candidate
  enumeration (types × labels).  Join-free queries skip the enumeration
  entirely; bounded joins enumerate a constant number of candidates
  (PTIME); tagged schemas with constant-suffix paths collapse each
  candidate set to one (PTIME even with joins).
* **unordered matching** — sibling paths can be forced to overlap, so the
  checker carries *joint requirements* through shared edges; the recursion
  is exponential only in the overlap width.  Homogeneous unordered
  collections never force overlap growth.

Everything else — path reachability, word search over a type's content
regex, completion checks — is polynomial product automaton work
(:mod:`repro.typing.reach`).

Pinning semantics: a *pin* fixes a node variable to a type id, a label
variable (``$l``) to a label, or a value variable (``$v``) to an atomic
type name.  Satisfiability enumerates pins for the join variables; the
type-checking and inference entry points (:mod:`repro.typing.typecheck`,
:mod:`repro.typing.inference`) pass user-chosen pins straight through.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..automata.compiled import CompiledDFA
from ..cancel import checkpoint
from ..automata.syntax import ANY, Regex, Sym
from ..engine import Engine, get_default_engine
from ..query.model import PatternDef, PatternKind, Query
from ..schema.model import ATOMIC_TYPE_NAMES, Schema, TypeKind
from .reach import SchemaReach

#: Pin values: type id (node var), label (label var), atomic name (value var).
Pins = Dict[str, str]


class ArmSpec(NamedTuple):
    """A normalized pattern arm: label variables become regexes."""

    key: Tuple[str, int]
    regex: Regex
    target: str


class DefSpec(NamedTuple):
    """A normalized pattern definition.

    ``partial`` carries the first-edge order constraints of a partially
    ordered definition (None for the default total order).
    """

    var: str
    kind: PatternKind
    value: Optional[object]
    value_var: Optional[str]
    arms: Tuple[ArmSpec, ...]
    partial: Optional[Tuple[Tuple[int, int], ...]] = None


#: A pending path requirement: (arm key, walk state of the arm's path
#: automaton).  The state is an integer row of the compiled table, and
#: opaque: it is only hashed, compared, and passed back into the table
#: that produced it.  A dead walk is represented by the *absence* of a
#: requirement, never by a falsy state (integer state 0 is live).
Requirement = Tuple[Tuple[str, int], object]


def is_satisfiable(
    query: Query,
    schema: Schema,
    pins: Optional[Pins] = None,
    engine: Optional[Engine] = None,
) -> bool:
    """Decide type correctness: does ``query`` return a non-empty result on
    some instance of ``schema`` (respecting the given pins)?"""
    return SatisfiabilityChecker(query, schema, engine).satisfiable(pins or {})


class SatisfiabilityChecker:
    """Reusable checker for one (query, schema) pair.

    Construct once and call :meth:`satisfiable` with different pin sets;
    schema-side artifacts (the schema graph, path automata, content NFAs)
    live in the engine's cache and are shared with every other consumer of
    the same engine.
    """

    def __init__(self, query: Query, schema: Schema, engine: Optional[Engine] = None):
        self.query = query
        self.schema = schema
        self.engine = engine if engine is not None else get_default_engine()
        self.reach = self.engine.reach(schema)
        self.reachable = self.engine.reachable_types(schema)
        self.enumerated: int = 0  # pin assignments tried, for instrumentation

    # ------------------------------------------------------------------
    # Join enumeration
    # ------------------------------------------------------------------

    def satisfiable(self, pins: Pins) -> bool:
        """Enumerate pins for join variables and test each completion."""
        self._validate_pins(pins)
        free_vars: List[str] = []
        domains: List[List[str]] = []
        for var in self.query.node_join_vars():
            if var in pins:
                continue
            free_vars.append(var)
            domains.append(self._node_var_domain(var))
        for var in self.query.label_join_vars():
            if var in pins:
                continue
            free_vars.append(var)
            domains.append(sorted(self.schema.labels()))
        for var in self.query.value_join_vars():
            if var in pins:
                continue
            free_vars.append(var)
            domains.append(list(ATOMIC_TYPE_NAMES))
        for combo in itertools.product(*domains):
            checkpoint()
            self.enumerated += 1
            full_pins = dict(pins)
            full_pins.update(zip(free_vars, combo))
            if _PinnedChecker(self, full_pins).check():
                return True
        return False

    def _validate_pins(self, pins: Pins) -> None:
        for name, value in pins.items():
            if name.startswith("$"):
                continue
            if value not in self.schema:
                raise ValueError(f"pin {name!r} -> unknown type {value!r}")

    def _node_var_domain(self, var: str) -> List[str]:
        """Candidate types for a join node variable (the enumeration domain).

        Restricted to types reachable in the schema graph; for tagged
        schemas with constant-suffix incoming paths this is where the
        domain collapses to a single type, recovering the PTIME cells of
        Table 2 without a separate algorithm.
        """
        candidates = set(self.reachable)
        if var.startswith("&"):
            candidates = {t for t in candidates if t.startswith("&")}
        definition = self.query.definition(var)
        if definition is not None:
            wanted = _kind_of(definition)
            if wanted is not None:
                candidates = {
                    t for t in candidates if self.schema.type(t).kind is wanted
                }
        candidates &= self._incoming_type_bound(var)
        return sorted(candidates)

    def _incoming_type_bound(self, var: str) -> Set[str]:
        """Types var can have judging only by its incoming paths' suffixes.

        For every arm targeting ``var`` whose path has a determined constant
        suffix, the end type must be a tag-compatible target of that label.
        This is the tagging/constant-suffix shortcut of Section 3.1.
        """
        bound = set(self.reachable)
        relation = self.schema.tag_relation()
        from ..automata.syntax import last_symbols

        for pattern in self.query.patterns:
            for arm in pattern.arms:
                if arm.target != var or arm.is_label_var:
                    continue
                suffix = last_symbols(arm.path)
                if suffix is None:
                    continue
                allowed: Set[str] = set()
                for label in suffix:
                    allowed |= relation.get(label, set())
                bound &= allowed
        return bound


def _kind_of(definition: PatternDef) -> Optional[TypeKind]:
    if definition.kind is PatternKind.ORDERED:
        return TypeKind.ORDERED
    if definition.kind is PatternKind.UNORDERED:
        return TypeKind.UNORDERED
    if definition.kind in (PatternKind.VALUE, PatternKind.VALUE_VAR):
        return TypeKind.ATOMIC
    return None


class _PinnedChecker:
    """Satisfiability with every join variable pinned.

    The remaining pattern is join-free modulo the pinned cut points, so the
    check is a bottom-up computation over the pattern forest with product
    reachability for paths and a word search per node — the concrete form
    of the acyclic extended CFG for Tr(S) in Section 3.4.
    """

    def __init__(self, parent: SatisfiabilityChecker, pins: Pins):
        self.schema = parent.schema
        self.query = parent.query
        self.engine = parent.engine
        self.reach = parent.reach
        self.reachable = parent.reachable
        self.pins = pins
        self.defs: Dict[str, DefSpec] = {}
        self.arms: Dict[Tuple[str, int], ArmSpec] = {}
        for pattern in self.query.patterns:
            spec = self._normalize(pattern)
            self.defs[pattern.var] = spec
            for arm in spec.arms:
                self.arms[arm.key] = arm
        # Least-fixpoint bookkeeping for recursive schemas.
        self._known_true: Set[Tuple] = set()
        self._memo: Dict[Tuple, bool] = {}
        self._in_progress: Set[Tuple] = set()
        self._grew = False

    def _normalize(self, pattern: PatternDef) -> DefSpec:
        arms = []
        for index, arm in enumerate(pattern.arms):
            if arm.is_label_var:
                pinned = self.pins.get("$" + arm.path.name)
                regex: Regex = Sym(pinned) if pinned is not None else ANY
            else:
                regex = arm.path
            arms.append(ArmSpec((pattern.var, index), regex, arm.target))
        return DefSpec(
            pattern.var,
            pattern.kind,
            pattern.value,
            pattern.value_var,
            tuple(arms),
            pattern.partial_order,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self) -> bool:
        root_var = self.query.root_var
        root_pin = self.pins.get(root_var)
        if root_pin is not None and root_pin != self.schema.root:
            return False
        targets = [(self.schema.root, frozenset([root_var]), frozenset())]
        for var, tid in self.pins.items():
            if var.startswith("$") or var == root_var:
                continue
            if self.query.definition(var) is None and var not in self.query.node_vars():
                raise ValueError(f"pin for unknown variable {var!r}")
            if tid not in self.reachable:
                return False
            targets.append((tid, frozenset([var]), frozenset()))
        return self._solve_all(targets)

    def _solve_all(self, targets: Sequence[Tuple]) -> bool:
        """Evaluate all target states under least-fixpoint iteration."""
        while True:
            checkpoint()
            self._memo = {}
            self._in_progress = set()
            self._grew = False
            results = [self._state_sat(state) for state in targets]
            if all(results):
                return True
            if not self._grew:
                return False

    # ------------------------------------------------------------------
    # Node-state satisfiability (the recursive core)
    # ------------------------------------------------------------------

    def _state_sat(
        self,
        state: Tuple[str, FrozenSet[str], FrozenSet[Requirement]],
    ) -> bool:
        """Can a node of type ``state[0]`` host all of ``state[1]`` (bound
        variables) while completing all of ``state[2]`` (path requirements
        passing through or ending here), in some instance?"""
        if state in self._known_true:
            return True
        if state in self._memo:
            return self._memo[state]
        if state in self._in_progress:
            # Least-fixpoint seed: assume false; outer iteration re-runs
            # until no new true states appear.
            return False
        self._in_progress.add(state)
        result = self._compute_state(state)
        self._in_progress.discard(state)
        self._memo[state] = result
        if result and state not in self._known_true:
            self._known_true.add(state)
            self._grew = True
        return result

    def _compute_state(
        self, state: Tuple[str, FrozenSet[str], FrozenSet[Requirement]]
    ) -> bool:
        tid, vars_here, reqs = state
        type_def = self.schema.type(tid)
        # Pin and referenceability constraints for the bound variables.
        for var in vars_here:
            pinned = self.pins.get(var)
            if pinned is not None and pinned != tid:
                return False
            if var.startswith("&") and not tid.startswith("&"):
                return False
        # Choose which requirements end at this node (their targets then
        # bind here); the rest must continue into the children.
        endable = [
            req for req in reqs if self._req_accepting(req)
        ]
        for end_choice in _subsets(endable):
            ended = frozenset(end_choice)
            continuing = reqs - ended
            new_vars = vars_here | {self.arms[key].target for key, _s in ended}
            if self._vars_and_paths_sat(tid, type_def, new_vars, continuing):
                return True
        return False

    def _req_accepting(self, req: Requirement) -> bool:
        key, state = req
        return self.reach.path(self.arms[key].regex).is_accepting(state)

    def _vars_and_paths_sat(
        self,
        tid: str,
        type_def,
        vars_here: FrozenSet[str],
        reqs: FrozenSet[Requirement],
    ) -> bool:
        # Re-check constraints for variables added by ended requirements.
        for var in vars_here:
            pinned = self.pins.get(var)
            if pinned is not None and pinned != tid:
                return False
            if var.startswith("&") and not tid.startswith("&"):
                return False
        collection_defs: List[DefSpec] = []
        constants: List[object] = []
        for var in sorted(vars_here):
            spec = self.defs.get(var)
            if spec is None:
                continue
            if spec.kind is PatternKind.VALUE:
                if not type_def.is_atomic:
                    return False
                from ..schema.model import atomic_matches

                if not atomic_matches(type_def.atomic, spec.value):
                    return False
                constants.append(spec.value)
            elif spec.kind is PatternKind.VALUE_VAR:
                if not type_def.is_atomic:
                    return False
                pinned = self.pins.get("$" + spec.value_var)
                if pinned is not None and pinned != type_def.atomic:
                    return False
            elif spec.kind is PatternKind.ORDERED:
                if not type_def.is_ordered:
                    return False
                collection_defs.append(spec)
            else:  # UNORDERED
                if not type_def.is_unordered:
                    return False
                collection_defs.append(spec)
        if len(set(map(repr, constants))) > 1:
            return False
        if type_def.is_atomic:
            return not reqs  # atomic nodes have no outgoing edges
        if not collection_defs and not reqs:
            # No constraints below this node; it only needs to exist.
            return tid in self.schema.inhabited_types(self.engine)
        return self._word_search(tid, tuple(collection_defs), reqs)

    # ------------------------------------------------------------------
    # Word search over a type's content model
    # ------------------------------------------------------------------

    def _type_runner(self, tid: str) -> CompiledDFA:
        """The type's content table, restricted to inhabited targets."""
        return self.engine.compiled_restricted_content(self.schema, tid)

    def _word_search(
        self,
        tid: str,
        defs: Tuple[DefSpec, ...],
        reqs: FrozenSet[Requirement],
    ) -> bool:
        """Does some child word of type ``tid`` realize all pattern arms of
        ``defs`` and carry all ``reqs`` into (or out of) its children?

        Searches the product of the content automaton with per-definition
        arm progress and the set of unplaced requirements.  Ordered
        definitions advance their arms left to right on distinct word
        positions (Definition 2.2's ordering); unordered definitions may
        place arms anywhere, overlapping freely (set semantics).

        The content automaton is a minimized, dead-state-pruned table, so
        every offered symbol can still complete a content word — the
        search never wanders into doomed word prefixes.
        """
        runner = self._type_runner(tid)
        content_start = runner.initial()
        if content_start is None:
            return False  # the content language is empty

        def initial_progress(spec: DefSpec):
            if spec.kind is PatternKind.ORDERED and spec.partial is None:
                return 0
            return frozenset()

        start = (
            content_start,
            tuple(initial_progress(spec) for spec in defs),
            reqs,
        )
        visited: Set[Tuple] = set()
        stack = [start]
        while stack:
            checkpoint()
            state, progress, remaining = stack.pop()
            key = (state, progress, remaining)
            if key in visited:
                continue
            visited.add(key)
            if (
                runner.is_accepting(state)
                and not remaining
                and all(
                    self._def_complete(spec, prog)
                    for spec, prog in zip(defs, progress)
                )
            ):
                return True
            for symbol in runner.available_symbols(state):
                next_state = runner.step(state, symbol)
                if next_state is None:
                    continue
                label, child_tid = symbol
                for advance, riders in self._placements(defs, progress, remaining, label):
                    # One state may offer exponentially many placements.
                    checkpoint()
                    child_reqs: List[Requirement] = []
                    ok = True
                    for spec, arm in advance:
                        arm_runner = self.reach.path(arm.regex)
                        arm_start = arm_runner.initial()
                        stepped = (
                            arm_runner.step(arm_start, label)
                            if arm_start is not None
                            else None
                        )
                        if stepped is None:
                            ok = False
                            break
                        child_reqs.append((arm.key, stepped))
                    if not ok:
                        continue
                    for key_state in riders:
                        arm_key, arm_state = key_state
                        arm_runner = self.reach.path(self.arms[arm_key].regex)
                        stepped = arm_runner.step(arm_state, label)
                        if stepped is None:
                            ok = False
                            break
                        child_reqs.append((arm_key, stepped))
                    if not ok:
                        continue
                    if not self._child_ok(child_tid, child_reqs):
                        continue
                    new_progress = self._advance_progress(defs, progress, advance)
                    stack.append(
                        (next_state, new_progress, remaining - frozenset(riders))
                    )
        return False

    @staticmethod
    def _def_complete(spec: DefSpec, prog) -> bool:
        if isinstance(prog, int):
            return prog == len(spec.arms)
        return len(prog) == len(spec.arms)

    def _placements(
        self,
        defs: Tuple[DefSpec, ...],
        progress: Tuple,
        remaining: FrozenSet[Requirement],
        label: str,
    ) -> Iterator[Tuple[List[Tuple[DefSpec, ArmSpec]], Tuple[Requirement, ...]]]:
        """All ways to start arms / carry requirements on this word symbol.

        Per ordered definition: zero or one next arm (positions strictly
        increase).  Per unordered definition: any subset of its unmatched
        arms.  Plus any subset of the pending requirements.  Only arms and
        requirements whose regex can consume ``label`` are offered.
        """
        per_def_options: List[List[List[Tuple[DefSpec, ArmSpec]]]] = []
        for spec, prog in zip(defs, progress):
            options: List[List[Tuple[DefSpec, ArmSpec]]] = [[]]
            if spec.kind is PatternKind.ORDERED and spec.partial is None:
                if prog < len(spec.arms):
                    arm = spec.arms[prog]
                    if self._arm_consumes(arm, label):
                        options.append([(spec, arm)])
            elif spec.kind is PatternKind.ORDERED:
                # Partially ordered: any subset of unmatched arms whose
                # predecessors are already matched at earlier positions and
                # that are mutually unconstrained (a constraint forbids
                # sharing this first edge).
                order = spec.partial
                placeable = [
                    index
                    for index, arm in enumerate(spec.arms)
                    if index not in prog
                    and self._arm_consumes(arm, label)
                    and all(i in prog for i, j in order if j == index)
                ]
                for subset in _subsets(placeable):
                    if not subset:
                        continue
                    chosen = set(subset)
                    if any(
                        i in chosen and j in chosen for i, j in order
                    ):
                        continue
                    options.append([(spec, spec.arms[index]) for index in subset])
            else:
                unmatched = [
                    arm
                    for index, arm in enumerate(spec.arms)
                    if index not in prog and self._arm_consumes(arm, label)
                ]
                for subset in _subsets(unmatched):
                    if subset:
                        options.append([(spec, arm) for arm in subset])
            per_def_options.append(options)
        rider_candidates = [
            req
            for req in remaining
            if self._arm_consumes(self.arms[req[0]], label, req[1])
        ]
        for def_combo in itertools.product(*per_def_options):
            advance = [pair for option in def_combo for pair in option]
            for rider_subset in _subsets(rider_candidates):
                yield advance, tuple(rider_subset)

    def _arm_consumes(
        self, arm: ArmSpec, label: str, state: Optional[object] = None
    ) -> bool:
        runner = self.reach.path(arm.regex)
        base = state if state is not None else runner.initial()
        if base is None:
            return False
        return runner.step(base, label) is not None

    def _child_ok(self, child_tid: str, child_reqs: List[Requirement]) -> bool:
        if not child_reqs:
            return True
        if len(child_reqs) == 1:
            return self._single_completion(child_tid, child_reqs[0])
        return self._state_sat(
            (child_tid, frozenset(), frozenset(child_reqs))
        )

    @staticmethod
    def _advance_progress(
        defs: Tuple[DefSpec, ...],
        progress: Tuple,
        advance: List[Tuple[DefSpec, ArmSpec]],
    ) -> Tuple:
        new_progress = list(progress)
        for spec, arm in advance:
            index = defs.index(spec)
            if isinstance(new_progress[index], int):
                new_progress[index] = new_progress[index] + 1
            else:
                arm_index = spec.arms.index(arm)
                new_progress[index] = new_progress[index] | {arm_index}
        return tuple(new_progress)

    # ------------------------------------------------------------------
    # Single-path completion (the fast, purely polynomial path)
    # ------------------------------------------------------------------

    def _single_completion(self, start_tid: str, req: Requirement) -> bool:
        key, state = req
        arm = self.arms[key]
        end_types = self._completion_types(arm.target)
        return self.reach.can_complete(arm.regex, start_tid, state, end_types)

    def _completion_types(self, var: str) -> FrozenSet[str]:
        """Types at which a path targeting ``var`` may end.

        For pinned variables this is the pinned type (validity of the
        pinned variable's own definition is checked once, globally, in
        :meth:`check`).  Otherwise every reachable type at which the
        variable's definition (if any) is satisfiable qualifies.
        """
        pinned = self.pins.get(var)
        if pinned is not None:
            return frozenset([pinned])
        result = set()
        for tid in self.reachable:
            if self._state_sat((tid, frozenset([var]), frozenset())):
                result.add(tid)
        return frozenset(result)


def _subsets(items: Sequence) -> Iterator[Tuple]:
    """All subsets of ``items`` (small inputs only)."""
    for size in range(len(items) + 1):
        for subset in itertools.combinations(items, size):
            # 2^|items| subsets: a 3SAT reduction makes |items| large.
            checkpoint()
            yield subset
