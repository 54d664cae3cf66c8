"""Shippable compiled artifacts: the engine cache as a pickle payload.

The batch process executor used to ship *schema text* to its workers,
each of which re-parsed and re-compiled every automaton from scratch.
With the compile pipeline (NFA → subset → Hopcroft → tables) the
expensive part of that work is process-independent data: dense integer
transition tables, interned alphabets, schema-graph edge sets.  An
:class:`EngineArtifact` captures exactly those cache entries from a
parent engine and installs them into a fresh worker engine, so workers
start with hot caches instead of cold compilers.

Only *shippable* kinds are captured (:data:`SHIPPABLE_KINDS`): values
that are pure data, identical in any process, and cheap to pickle.
Runner wrappers, reachability objects, and raw NFAs stay behind — they
are either rebuilt trivially or hold process-local references.

The byte format is versioned (:data:`ARTIFACT_VERSION`); a worker
refuses a payload from a different version rather than guessing at its
layout.  Schema fingerprints are recomputed on unpickle (they are a pure
function of the definitions), which is what makes the shipped cache keys
match the keys a worker computes locally.
"""

from __future__ import annotations

import pickle
from typing import Dict, Hashable, Optional

from .core import Engine

#: Bump when the captured payload layout (or the pickle format of any
#: shipped value type) changes incompatibly.
ARTIFACT_VERSION = 2


class ArtifactError(ValueError):
    """A compiled-artifact payload that cannot be trusted.

    Raised by :meth:`EngineArtifact.from_bytes` for truncated bytes, a
    foreign pickle layout, or a version this process does not speak.  A
    ``ValueError`` subclass, so the CLI maps it to exit 2 and the service
    envelope layer to HTTP 400 without special-casing — a corrupt payload
    is a bad input, never a daemon crash.
    """

#: Cache kinds whose values are process-independent pure data.
SHIPPABLE_KINDS = frozenset(
    {
        "schema-alphabet",
        "inhabited",
        "possible-edges",
        "compiled-path",
        "compiled-content",
        "compiled-content-restricted",
        "compiled-trace",
    }
)


def _shippable(key: Hashable) -> bool:
    return (
        isinstance(key, tuple)
        and bool(key)
        and isinstance(key[0], str)
        and key[0] in SHIPPABLE_KINDS
    )


class EngineArtifact:
    """A schema plus the compiled cache entries derived from it.

    Build with :meth:`capture` in the parent process, move as bytes via
    :meth:`to_bytes` / :meth:`from_bytes`, and :meth:`install` into the
    worker's engine.
    """

    __slots__ = ("schema", "entries")

    def __init__(self, schema, entries: Dict[Hashable, object]):
        self.schema = schema
        self.entries = entries

    @classmethod
    def capture(cls, engine: Engine, schema) -> "EngineArtifact":
        """Snapshot the shippable entries currently in ``engine``'s cache.

        Entries are stored in a key-sorted order so that two captures of
        the same compiled state pickle to identical bytes within one
        process, regardless of the order the cache happened to fill in
        (``repro warm --check`` relies on this to verify determinism).
        """
        entries = engine.cache.snapshot(_shippable)
        ordered = {key: entries[key] for key in sorted(entries, key=repr)}
        return cls(schema, ordered)

    def fingerprint(self) -> str:
        """The carried schema's fingerprint (the store's key for us)."""
        return self.schema.fingerprint()

    def install(self, engine: Optional[Engine] = None) -> Engine:
        """Seed the artifact into ``engine`` (a fresh one by default)."""
        if engine is None:
            engine = Engine()
        engine.cache.seed(self.entries)
        return engine

    def to_bytes(self) -> bytes:
        return pickle.dumps(
            {
                "version": ARTIFACT_VERSION,
                "schema": self.schema,
                "entries": self.entries,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EngineArtifact":
        """Rebuild an artifact from bytes, refusing anything suspect.

        Raises:
            ArtifactError: on a truncated or otherwise unpicklable
                payload, a payload of the wrong shape, or a version this
                process does not speak.  Never lets a raw ``pickle`` /
                ``KeyError`` escape: corrupt bytes are a *diagnosed*
                rejection, not a stack trace.
        """
        try:
            payload = pickle.loads(data)
        except Exception as error:  # pickle raises a small zoo of types
            raise ArtifactError(
                f"engine artifact payload is corrupt or truncated "
                f"({type(error).__name__}: {error})"
            ) from None
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"engine artifact payload has the wrong shape "
                f"(expected a dict, got {type(payload).__name__})"
            )
        version = payload.get("version")
        if version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"engine artifact version mismatch: payload says {version!r}, "
                f"this process speaks {ARTIFACT_VERSION}"
            )
        from ..schema.model import Schema  # lazy: schema imports automata

        try:
            schema = payload["schema"]
            entries = payload["entries"]
        except KeyError as error:
            raise ArtifactError(
                f"engine artifact payload is missing field {error}"
            ) from None
        if not isinstance(schema, Schema):
            raise ArtifactError(
                f"engine artifact schema field holds "
                f"{type(schema).__name__}, not a Schema"
            )
        if not isinstance(entries, dict):
            raise ArtifactError(
                f"engine artifact entries field holds "
                f"{type(entries).__name__}, not a dict"
            )
        return cls(schema, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"EngineArtifact(schema={self.schema.root!r}, entries={len(self.entries)})"
        )


def prewarm_schema(engine: Engine, schema) -> None:
    """Compile everything schema-derived that workers will need.

    Forces the schema graph, the inhabited set, and the content tables of
    every collection type, so a subsequent :meth:`EngineArtifact.capture`
    has the full per-schema working set to ship.
    """
    engine.symbol_alphabet(schema)
    engine.inhabited_types(schema)
    engine.possible_edges(schema)
    for type_def in schema:
        if type_def.is_atomic:
            continue
        engine.compiled_content(schema, type_def.tid)
        engine.compiled_restricted_content(schema, type_def.tid)
