"""The typed-query service: the paper's decision problems as a daemon.

A stdlib-only HTTP/JSON server (:class:`TypedQueryService` /
:func:`serve`) over a concurrent, fingerprint-keyed
:class:`SchemaRegistry` that keeps one pre-warmed compilation
:class:`~repro.engine.Engine` per registered schema — so satisfiability,
type checking, inference, feedback, classification, conformance, and
evaluation requests pay schema parsing and automata construction once
per schema, not once per request.  See ``docs/service.md``.

Two serving tiers share that state machine: the single-process threaded
tier above, and a multi-process pool tier (:class:`PoolService` /
``repro serve --workers N``) that routes requests by schema fingerprint
to persistent worker processes warmed from the artifact store — see
:mod:`repro.service.pool`.
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "ServiceClient": ".client",
    "ServiceResponseError": ".client",
    "ServiceState": ".daemon",
    "TypedQueryService": ".daemon",
    "serve": ".daemon",
    "CompilerPool": ".pool",
    "PoolService": ".pool",
    "WorkerCrashed": ".pool",
    "serve_pool": ".pool",
    "shard_of": ".worker",
    "ENVELOPE_VERSION": ".envelope",
    "ERROR_CODES": ".envelope",
    "ServiceError": ".envelope",
    "as_service_error": ".envelope",
    "error_envelope": ".envelope",
    "ok_envelope": ".envelope",
    "DeadlineExceeded": ".limits",
    "DeadlineRunner": ".limits",
    "PayloadTooLarge": ".limits",
    "ServiceBusy": ".limits",
    "ServiceLimits": ".limits",
    "LATENCY_BUCKETS_MS": ".metrics",
    "ServiceMetrics": ".metrics",
    "RegisteredSchema": ".registry",
    "SchemaRegistry": ".registry",
    "UnknownSchemaError": ".registry",
    "prewarm": ".registry",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
