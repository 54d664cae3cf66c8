"""The shared compilation engine (see ``docs/architecture.md``).

Hash-consed regexes (:mod:`repro.automata.syntax`) and schema
fingerprints (:meth:`repro.schema.model.Schema.fingerprint`) give every
automata construction a cheap, stable cache key; :class:`Engine` memoizes
the constructions behind those keys in a bounded, instrumented
:class:`EngineCache`.  Every layer of the package accepts an optional
``engine=`` handle and falls back to the module default returned by
:func:`get_default_engine`.
"""

from .artifact import ARTIFACT_VERSION, ArtifactError, EngineArtifact, prewarm_schema
from .cache import CacheStats, EngineCache, KindStats
from .core import Engine, get_default_engine, set_default_engine
from .store import (
    CACHE_DIR_ENV_VAR,
    DEFAULT_MAX_BYTES,
    ArtifactStore,
    default_cache_dir,
    version_tag,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "CACHE_DIR_ENV_VAR",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "Engine",
    "EngineArtifact",
    "EngineCache",
    "KindStats",
    "default_cache_dir",
    "get_default_engine",
    "prewarm_schema",
    "set_default_engine",
    "version_tag",
]
