"""The shared compilation engine (see ``docs/architecture.md``).

Hash-consed regexes (:mod:`repro.automata.syntax`) and schema
fingerprints (:meth:`repro.schema.model.Schema.fingerprint`) give every
automata construction a cheap, stable cache key; :class:`Engine` memoizes
the constructions behind those keys in a bounded, instrumented
:class:`EngineCache`.  Every layer of the package accepts an optional
``engine=`` handle and falls back to the module default returned by
:func:`get_default_engine`.
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "ARTIFACT_VERSION": ".artifact",
    "ArtifactError": ".artifact",
    "EngineArtifact": ".artifact",
    "prewarm_schema": ".artifact",
    "CacheStats": ".cache",
    "EngineCache": ".cache",
    "KindStats": ".cache",
    "Engine": ".core",
    "get_default_engine": ".core",
    "set_default_engine": ".core",
    "CACHE_DIR_ENV_VAR": ".store",
    "DEFAULT_MAX_BYTES": ".store",
    "ArtifactStore": ".store",
    "default_cache_dir": ".store",
    "version_tag": ".store",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
