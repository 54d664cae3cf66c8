"""Schema evolution deltas: typed diffs with compatibility verdicts.

A registry never holds frozen schemas for long — they migrate.  This
module diffs two :class:`~repro.schema.model.Schema`s into a typed
change-set (in the spirit of edgedb's delta-command trees) and classifies
every change with the paper's own machinery: the greatest-simulation
subsumption check of :mod:`repro.schema.subsumption` decides, per change
and for the whole schema, whether the migration

* **widens** (every old instance still conforms — the new language is a
  superset),
* **narrows** (every new instance conforms to the old schema — the new
  language is a subset),
* is **equivalent** (both directions hold), or
* is **incomparable** (neither holds).

Change taxonomy
---------------

``AddType`` / ``DropType`` / ``RenameType`` are *namespace* changes: the
existence (or name) of a type does not by itself change the instance
language rooted at the schema root, so they carry verdict ``equivalent``.
All language effects are attributed to the changes that carry them:
``ChangeContentModel``, ``ChangeEdgeLabel``, ``ChangeKind``,
``ChangeAtomicDomain``, and ``ChangeRoot``.  A content-model change's
verdict is *local* — it compares the old and new content languages of
that type (with renamed targets identified), even if the type is not
reachable from the root; the whole-schema ``compatibility`` level is the
authoritative root-level answer.

Rename detection matches a dropped type id to an added one when their
definitions agree modulo the candidate renaming (kind, atomic domain,
and content regex with renamed targets substituted); undetected renames
degrade gracefully to a ``DropType`` + ``AddType`` pair.

Counterexamples
---------------

For a narrowing or incomparable content change, :func:`separating_word`
produces the lexicographically-least shortest content word accepted by
the old model and rejected by the new one (for a widening change, the
word the new model gains).  The search runs a breadth-first product walk
over the engine's compiled tables; because the first accepting word in
(length, lexicographic) order is a property of the *languages*, not of
the automaton shape, the word does not depend on how the tables were
built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..automata.parser import regex_to_string
from ..automata.syntax import Regex, Symbol
from ..engine import Engine, get_default_engine
from .model import Schema, TypeDef
from .subsumption import simulation

#: The per-change (and whole-schema) compatibility lattice, weakest to
#: strongest claim: ``incomparable`` < ``widening``/``narrowing`` <
#: ``equivalent``.
EQUIVALENT = "equivalent"
WIDENING = "widening"
NARROWING = "narrowing"
INCOMPARABLE = "incomparable"
VERDICTS: Tuple[str, ...] = (EQUIVALENT, WIDENING, NARROWING, INCOMPARABLE)

#: Cap on explored state pairs in the separating-word product walk; the
#: content models this project deals in stay far below it.
SEPARATING_WORD_LIMIT = 4096


def render_symbol(symbol: Symbol) -> str:
    """A schema atom ``(label, tid)`` in the Table-1 ``label->Tid`` form."""
    label, target = symbol  # type: ignore[misc]
    return f"{label}->{target}"


def render_model(regex: Regex) -> str:
    """A content regex in the Table-1 syntax (matches the schema printer)."""
    return regex_to_string(regex, render_symbol)


def render_word(word: Sequence[Symbol]) -> List[str]:
    """A content word as a JSON-able list of ``label->Tid`` strings."""
    return [render_symbol(symbol) for symbol in word]


# ----------------------------------------------------------------------
# The change taxonomy
# ----------------------------------------------------------------------


class SchemaChange:
    """Base class of the typed change-set; every change carries a verdict."""

    kind: ClassVar[str] = "change"

    def to_dict(self) -> dict:
        """A deterministic JSON description (regexes rendered, words listed)."""
        data: Dict[str, object] = {"kind": self.kind}
        for spec in fields(self):  # type: ignore[arg-type]
            value = getattr(self, spec.name)
            if isinstance(value, Regex):
                data[spec.name.replace("_regex", "_model")] = render_model(value)
            elif spec.name == "counterexample":
                data[spec.name] = None if value is None else render_word(value)
            else:
                data[spec.name] = value
        return data

    def describe(self) -> str:
        """One human-readable line for the CLI diff listing."""
        details = ", ".join(
            f"{key}={value}"
            for key, value in sorted(self.to_dict().items())
            if key not in ("kind", "verdict") and value is not None
        )
        return f"{self.kind} [{self.verdict}] {details}"  # type: ignore[attr-defined]


@dataclass(frozen=True)
class AddType(SchemaChange):
    """A type id present only in the new schema."""

    kind: ClassVar[str] = "add_type"
    tid: str
    reachable: bool
    verdict: str = EQUIVALENT


@dataclass(frozen=True)
class DropType(SchemaChange):
    """A type id present only in the old schema."""

    kind: ClassVar[str] = "drop_type"
    tid: str
    was_reachable: bool
    verdict: str = EQUIVALENT


@dataclass(frozen=True)
class RenameType(SchemaChange):
    """A dropped/added pair whose definitions agree modulo the renaming."""

    kind: ClassVar[str] = "rename_type"
    old_tid: str
    new_tid: str
    verdict: str = EQUIVALENT


@dataclass(frozen=True)
class ChangeRoot(SchemaChange):
    """The schema root moved to a different type."""

    kind: ClassVar[str] = "change_root"
    old_root: str
    new_root: str
    verdict: str = INCOMPARABLE


@dataclass(frozen=True)
class ChangeKind(SchemaChange):
    """A type switched shape (ordered / unordered / atomic)."""

    kind: ClassVar[str] = "change_kind"
    tid: str
    old_kind: str
    new_kind: str
    verdict: str = INCOMPARABLE


@dataclass(frozen=True)
class ChangeAtomicDomain(SchemaChange):
    """An atomic type switched base domain (string / int / float)."""

    kind: ClassVar[str] = "change_atomic"
    tid: str
    old_domain: str
    new_domain: str
    verdict: str = INCOMPARABLE


@dataclass(frozen=True)
class ChangeEdgeLabel(SchemaChange):
    """A content model consistently renamed exactly one edge label."""

    kind: ClassVar[str] = "change_edge_label"
    tid: str
    old_label: str
    new_label: str
    old_regex: Regex
    new_regex: Regex
    verdict: str = INCOMPARABLE
    counterexample: Optional[Tuple[Symbol, ...]] = None


@dataclass(frozen=True)
class ChangeContentModel(SchemaChange):
    """A collection type's content regex changed (renamings identified)."""

    kind: ClassVar[str] = "change_content_model"
    tid: str
    old_regex: Regex
    new_regex: Regex
    verdict: str = INCOMPARABLE
    counterexample: Optional[Tuple[Symbol, ...]] = None


#: Change kinds in deterministic report order.
CHANGE_KINDS: Tuple[str, ...] = (
    AddType.kind,
    DropType.kind,
    RenameType.kind,
    ChangeRoot.kind,
    ChangeKind.kind,
    ChangeAtomicDomain.kind,
    ChangeEdgeLabel.kind,
    ChangeContentModel.kind,
)


def compose_verdicts(verdicts: Sequence[str]) -> str:
    """Join per-change verdicts in the compatibility lattice.

    A widening and a narrowing compose to ``incomparable``: neither
    containment direction survives both.
    """
    seen = set(verdicts)
    unknown = seen - set(VERDICTS)
    if unknown:
        raise ValueError(f"unknown verdicts: {sorted(unknown)}")
    if INCOMPARABLE in seen or {WIDENING, NARROWING} <= seen:
        return INCOMPARABLE
    if WIDENING in seen:
        return WIDENING
    if NARROWING in seen:
        return NARROWING
    return EQUIVALENT


# ----------------------------------------------------------------------
# The delta
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaDelta:
    """The typed diff of two schemas plus its compatibility levels.

    ``compatibility`` is the authoritative whole-schema level: it comes
    from the bidirectional root-level subsumption check (renames
    identified by the simulation itself).  ``composed`` is the lattice
    join of the per-change verdicts — a conservative local view that may
    be stricter than ``compatibility`` when a narrowed type is not
    reachable from the root.
    """

    old_fingerprint: str
    new_fingerprint: str
    changes: Tuple[SchemaChange, ...]
    renames: Tuple[Tuple[str, str], ...]
    compatibility: str
    composed: str

    @property
    def identical(self) -> bool:
        return self.old_fingerprint == self.new_fingerprint

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for change in self.changes:
            counts[change.kind] = counts.get(change.kind, 0) + 1
        return dict(sorted(counts.items()))

    def by_verdict(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for change in self.changes:
            counts[change.verdict] = counts.get(change.verdict, 0) + 1  # type: ignore[attr-defined]
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "old_fingerprint": self.old_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "identical": self.identical,
            "compatibility": self.compatibility,
            "composed": self.composed,
            "renames": [list(pair) for pair in self.renames],
            "changes": [change.to_dict() for change in self.changes],
            "summary": {
                "changes": len(self.changes),
                "by_kind": self.by_kind(),
                "by_verdict": self.by_verdict(),
            },
        }


# ----------------------------------------------------------------------
# Separating words
# ----------------------------------------------------------------------


def separating_word(
    accept: Regex,
    reject: Regex,
    engine: Optional[Engine] = None,
    limit: int = SEPARATING_WORD_LIMIT,
) -> Optional[Tuple[Symbol, ...]]:
    """The least (shortest, then lexicographic) word of lang(accept) \\ lang(reject).

    Returns None when the difference is empty — or, defensively, when the
    product walk exceeds ``limit`` state pairs.  The result depends only
    on the two languages, not on the automata that decide them.
    """
    if engine is None:
        engine = get_default_engine()
    alphabet = frozenset(accept.symbols() | reject.symbols())
    accepter = engine.compiled_path(accept, alphabet)
    rejecter = engine.compiled_path(reject, alphabet)
    start_a = accepter.initial()
    if start_a is None:
        return None
    start = (start_a, rejecter.initial())
    seen = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (state_a, state_r), word = queue.popleft()
        if accepter.is_accepting(state_a) and (
            state_r is None or not rejecter.is_accepting(state_r)
        ):
            return word
        if len(seen) > limit:
            return None
        for symbol in sorted(accepter.available_symbols(state_a)):
            next_a = accepter.step(state_a, symbol)
            if next_a is None:
                continue
            next_r = rejecter.step(state_r, symbol) if state_r is not None else None
            pair = (next_a, next_r)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (symbol,)))
    return None


# ----------------------------------------------------------------------
# Rename detection
# ----------------------------------------------------------------------


def _defs_match(
    old_def: TypeDef, new_def: TypeDef, mapping: Dict[str, str]
) -> bool:
    """True if the definitions agree modulo the candidate renaming."""
    if old_def.kind is not new_def.kind:
        return False
    if old_def.is_atomic:
        return old_def.atomic == new_def.atomic
    return _apply_renames(old_def.regex, mapping) == new_def.regex


def _apply_renames(regex: Regex, mapping: Dict[str, str]) -> Regex:
    """Rewrite atom targets through ``mapping`` (labels untouched)."""
    if not mapping:
        return regex
    return regex.map_symbols(
        lambda symbol: (symbol[0], mapping.get(symbol[1], symbol[1]))
    )


def _detect_renames(
    old: Schema, new: Schema, dropped: Sequence[str], added: Sequence[str]
) -> Dict[str, str]:
    """Greedy dropped->added matching, verified to a simultaneous fixpoint.

    Candidates pair up when kinds (and atomic domains) agree and, for
    collection types, the label multiset of their content regexes does;
    the candidate map is then pruned until every surviving pair's
    definitions agree modulo the *whole* surviving map — so mutually
    referencing types renamed together still match.
    """
    mapping: Dict[str, str] = {}
    taken: Set[str] = set()
    for old_tid in dropped:
        old_def = old.type(old_tid)
        for new_tid in added:
            if new_tid in taken:
                continue
            new_def = new.type(new_tid)
            if old_def.kind is not new_def.kind:
                continue
            if old_def.is_atomic:
                if old_def.atomic != new_def.atomic:
                    continue
            else:
                old_labels = sorted(label for label, _ in old_def.regex.symbols())
                new_labels = sorted(label for label, _ in new_def.regex.symbols())
                if old_labels != new_labels:
                    continue
            mapping[old_tid] = new_tid
            taken.add(new_tid)
            break
    changed = True
    while changed:
        changed = False
        for old_tid, new_tid in sorted(mapping.items()):
            if not _defs_match(old.type(old_tid), new.type(new_tid), mapping):
                del mapping[old_tid]
                changed = True
    return mapping


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------


def diff_schemas(
    old: Schema, new: Schema, engine: Optional[Engine] = None
) -> SchemaDelta:
    """Diff two schemas into a classified, deterministic change-set."""
    if engine is None:
        engine = get_default_engine()
    old_fp = old.fingerprint()
    new_fp = new.fingerprint()
    if old_fp == new_fp:
        return SchemaDelta(
            old_fingerprint=old_fp,
            new_fingerprint=new_fp,
            changes=(),
            renames=(),
            compatibility=EQUIVALENT,
            composed=EQUIVALENT,
        )

    old_tids = set(old.tids())
    new_tids = set(new.tids())
    dropped = sorted(old_tids - new_tids)
    added = sorted(new_tids - old_tids)
    renames = _detect_renames(old, new, dropped, added)
    dropped = [tid for tid in dropped if tid not in renames]
    added = [tid for tid in added if tid not in set(renames.values())]

    # One simulation per direction classifies every change; sharing one
    # engine is fine (the check only compiles regex NFAs, keyed on the
    # hash-consed regexes themselves).
    sim_forward = simulation(old, new, engine)
    sim_backward = simulation(new, old, engine)

    def pair_verdict(old_tid: str, new_tid: str) -> str:
        forward = (old_tid, new_tid) in sim_forward
        backward = (new_tid, old_tid) in sim_backward
        if forward and backward:
            return EQUIVALENT
        if forward:
            return WIDENING
        if backward:
            return NARROWING
        return INCOMPARABLE

    old_reachable = old.reachable_types(engine)
    new_reachable = new.reachable_types(engine)

    changes: List[SchemaChange] = []
    for tid in added:
        changes.append(AddType(tid=tid, reachable=tid in new_reachable))
    for tid in dropped:
        changes.append(DropType(tid=tid, was_reachable=tid in old_reachable))
    for old_tid, new_tid in sorted(renames.items()):
        changes.append(RenameType(old_tid=old_tid, new_tid=new_tid))

    mapped_root = renames.get(old.root, old.root)
    if mapped_root != new.root:
        changes.append(
            ChangeRoot(
                old_root=old.root,
                new_root=new.root,
                verdict=pair_verdict(old.root, new.root),
            )
        )

    for tid in sorted(old_tids & new_tids):
        old_def = old.type(tid)
        new_def = new.type(tid)
        if old_def.kind is not new_def.kind:
            changes.append(
                ChangeKind(
                    tid=tid,
                    old_kind=old_def.kind.value,
                    new_kind=new_def.kind.value,
                    verdict=pair_verdict(tid, tid),
                )
            )
            continue
        if old_def.is_atomic:
            if old_def.atomic != new_def.atomic:
                changes.append(
                    ChangeAtomicDomain(
                        tid=tid,
                        old_domain=old_def.atomic,
                        new_domain=new_def.atomic,
                        verdict=pair_verdict(tid, tid),
                    )
                )
            continue
        old_regex = _apply_renames(old_def.regex, renames)
        if old_regex == new_def.regex:
            continue
        verdict = pair_verdict(tid, tid)
        counterexample = _model_counterexample(
            old_regex, new_def.regex, verdict, engine
        )
        relabel = _edge_label_rename(old_regex, new_def.regex)
        if relabel is not None:
            changes.append(
                ChangeEdgeLabel(
                    tid=tid,
                    old_label=relabel[0],
                    new_label=relabel[1],
                    old_regex=old_regex,
                    new_regex=new_def.regex,
                    verdict=verdict,
                    counterexample=counterexample,
                )
            )
        else:
            changes.append(
                ChangeContentModel(
                    tid=tid,
                    old_regex=old_regex,
                    new_regex=new_def.regex,
                    verdict=verdict,
                    counterexample=counterexample,
                )
            )

    order = {kind: index for index, kind in enumerate(CHANGE_KINDS)}
    changes.sort(key=lambda change: (order[change.kind], change.to_dict().get("tid", ""), str(change.to_dict())))

    forward = (old.root, new.root) in sim_forward
    backward = (new.root, old.root) in sim_backward
    if forward and backward:
        compatibility = EQUIVALENT
    elif forward:
        compatibility = WIDENING
    elif backward:
        compatibility = NARROWING
    else:
        compatibility = INCOMPARABLE

    return SchemaDelta(
        old_fingerprint=old_fp,
        new_fingerprint=new_fp,
        changes=tuple(changes),
        renames=tuple(sorted(renames.items())),
        compatibility=compatibility,
        composed=compose_verdicts(
            [change.verdict for change in changes]  # type: ignore[attr-defined]
        ),
    )


def _model_counterexample(
    old_regex: Regex, new_regex: Regex, verdict: str, engine: Engine
) -> Optional[Tuple[Symbol, ...]]:
    """A content word witnessing the verdict's lost (or gained) language.

    Narrowing/incomparable: a word the old model accepts and the new one
    rejects.  Widening: the word the new model gains.  Equivalent (the
    models differ only syntactically or through renamed-equivalent
    targets): no word.
    """
    if verdict in (NARROWING, INCOMPARABLE):
        return separating_word(old_regex, new_regex, engine)
    if verdict == WIDENING:
        return separating_word(new_regex, old_regex, engine)
    return None


def _edge_label_rename(
    old_regex: Regex, new_regex: Regex
) -> Optional[Tuple[str, str]]:
    """Detect a single consistent label rename between two content models."""
    old_labels = {label for label, _ in old_regex.symbols()}
    new_labels = {label for label, _ in new_regex.symbols()}
    only_old = old_labels - new_labels
    only_new = new_labels - old_labels
    if len(only_old) != 1 or len(only_new) != 1:
        return None
    (old_label,) = only_old
    (new_label,) = only_new
    relabeled = old_regex.map_symbols(
        lambda symbol: (new_label, symbol[1])
        if symbol[0] == old_label
        else symbol
    )
    if relabeled == new_regex:
        return (old_label, new_label)
    return None
