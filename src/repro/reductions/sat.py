"""3SAT substrate: CNF formulas, random instances, and a DPLL solver.

The NP-completeness results of Theorem 3.1 are proved by reduction from
3SAT.  To make those proofs *executable* (and to benchmark the NP cells of
Table 2 on genuinely hard inputs), this module provides the source side of
the reduction: a CNF representation, a random-formula generator pinned at
the classic hard clause/variable ratio, and an independent DPLL solver
used as the ground-truth oracle.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..cancel import checkpoint

#: A literal: positive ints are variables, negative ints their negations.
Literal = int
#: A clause: a tuple of literals (disjunction).
Clause = Tuple[Literal, ...]


class Cnf:
    """A CNF formula over variables ``1..n_vars``."""

    def __init__(self, n_vars: int, clauses: Iterable[Clause]):
        self.n_vars = n_vars
        self.clauses: Tuple[Clause, ...] = tuple(tuple(c) for c in clauses)
        for clause in self.clauses:
            for literal in clause:
                if literal == 0 or abs(literal) > n_vars:
                    raise ValueError(f"literal {literal} out of range")

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total assignment ``var -> bool``."""
        for clause in self.clauses:
            if not any(
                assignment[abs(literal)] == (literal > 0) for literal in clause
            ):
                return False
        return True

    def __repr__(self) -> str:
        return f"Cnf(vars={self.n_vars}, clauses={len(self.clauses)})"


def random_3sat(
    n_vars: int,
    n_clauses: Optional[int] = None,
    rng: Optional[random.Random] = None,
    ratio: float = 4.26,
) -> Cnf:
    """A uniform random 3SAT formula.

    Defaults to the satisfiability phase-transition ratio of ~4.26
    clauses per variable, where random instances are empirically hardest.
    """
    rng = rng or random.Random()
    if n_clauses is None:
        n_clauses = max(1, round(ratio * n_vars))
    clauses = []
    for _ in range(n_clauses):
        variables = rng.sample(range(1, n_vars + 1), min(3, n_vars))
        clause = tuple(
            variable if rng.random() < 0.5 else -variable for variable in variables
        )
        clauses.append(clause)
    return Cnf(n_vars, clauses)


def dpll(formula: Cnf) -> Optional[Dict[int, bool]]:
    """Solve a CNF formula; return a satisfying assignment or None.

    Classic DPLL with unit propagation and pure-literal elimination —
    deliberately simple (it is a *substrate*, the benchmarks' ground
    truth), but complete.
    """
    clauses = [frozenset(c) for c in formula.clauses]
    assignment: Dict[int, bool] = {}

    def solve(clauses: List[FrozenSet[int]], assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        checkpoint()
        clauses, assignment = _propagate(clauses, dict(assignment))
        if clauses is None:
            return None
        if not clauses:
            return _complete(assignment, formula.n_vars)
        variable = abs(next(iter(min(clauses, key=len))))
        for value in (True, False):
            result = solve(
                _assign(clauses, variable, value), {**assignment, variable: value}
            )
            if result is not None:
                return result
        return None

    return solve(clauses, assignment)


def _propagate(
    clauses: List[FrozenSet[int]], assignment: Dict[int, bool]
) -> Tuple[Optional[List[FrozenSet[int]]], Dict[int, bool]]:
    changed = True
    while changed:
        changed = False
        # Unit propagation.
        for clause in clauses:
            if len(clause) == 1:
                literal = next(iter(clause))
                assignment[abs(literal)] = literal > 0
                clauses = _assign(clauses, abs(literal), literal > 0)
                if any(len(c) == 0 for c in clauses):
                    return None, assignment
                changed = True
                break
        if changed:
            continue
        # Pure literals.
        literals: Set[int] = set()
        for clause in clauses:
            literals |= clause
        for literal in sorted(literals, key=abs):
            if -literal not in literals:
                assignment[abs(literal)] = literal > 0
                clauses = _assign(clauses, abs(literal), literal > 0)
                changed = True
                break
    if any(len(clause) == 0 for clause in clauses):
        return None, assignment
    return clauses, assignment


def _assign(
    clauses: List[FrozenSet[int]], variable: int, value: bool
) -> List[FrozenSet[int]]:
    satisfied = variable if value else -variable
    falsified = -satisfied
    result = []
    for clause in clauses:
        if satisfied in clause:
            continue
        if falsified in clause:
            clause = clause - {falsified}
        result.append(clause)
    return result


def _complete(assignment: Dict[int, bool], n_vars: int) -> Dict[int, bool]:
    return {
        variable: assignment.get(variable, False)
        for variable in range(1, n_vars + 1)
    }
