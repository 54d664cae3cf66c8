"""Batch executors: sequential, shared-engine threads, process pool.

Three ways to drive a :class:`~repro.batch.plan.BatchPlan`:

* ``sequential`` — compile once, loop.  The honest baseline and the
  fallback everywhere else.
* ``thread`` — compile once, fan items over a small pool of daemon
  threads that all share the one pre-warmed
  :class:`~repro.engine.Engine` (the engine is thread-safe and
  single-flight, so concurrent items reuse — never duplicate — compiled
  automata).  This is what ``POST /batch`` uses, handing in the
  registry's already-warm engine.
* ``process`` — compile once in the parent, then ship the *compiled
  artifact* (schema plus minimized transition tables, as one versioned
  pickle payload; see :mod:`repro.engine.artifact`) to each worker via
  the pool initializer.  Workers unpickle dense integer arrays instead
  of re-parsing schema text and re-running the compile pipeline; items
  then pay pickling for their JSON dicts only.

The threaded pool is hand-rolled from daemon threads rather than
``concurrent.futures.ThreadPoolExecutor`` because the latter's workers
are non-daemon: a batch abandoned by the service's deadline runner would
then keep the interpreter alive at exit.  Daemon threads pulling indices
from a locked cursor give the same fan-out with none of that teardown
hazard.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..cancel import Cancelled, checkpoint
from ..engine import Engine, EngineArtifact
from ..schema import Schema
from .plan import BatchPlan, item_envelope, summarize

#: The executor names :func:`run_batch` accepts.
EXECUTORS: Tuple[str, ...] = ("sequential", "thread", "process")


def default_workers() -> int:
    """A safe worker count for this host (bounded, never zero)."""
    return max(1, min(4, os.cpu_count() or 1))


def chunk_indexed(
    items: Sequence[Any], workers: int, chunk_size: Optional[int] = None
) -> List[List[Tuple[int, Any]]]:
    """Split ``items`` into index-tagged chunks for fan-out.

    Each element is ``(original_index, item)`` so results can be placed
    back in input order no matter which worker (or process) decided
    them.  The automatic chunk size aims for ~8 chunks per worker: large
    enough to amortize per-chunk dispatch, small enough that one slow
    chunk cannot strand the pool's tail.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / (workers * 8)))
    elif chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    indexed = list(enumerate(items))
    return [indexed[i : i + chunk_size] for i in range(0, len(indexed), chunk_size)]


# ----------------------------------------------------------------------
# In-process execution over a shared engine
# ----------------------------------------------------------------------


def run_items_shared(
    operation: str,
    schema: Optional[Schema],
    engine: Engine,
    items: Sequence[Any],
    workers: int = 4,
) -> List[dict]:
    """Decide ``items`` on daemon threads sharing one pre-warmed engine.

    Returns per-item envelopes in input order.  This is the path
    ``POST /batch`` takes with the registry's engine; ``workers <= 1``
    (or a single item) degrades to a plain loop.
    """
    n = len(items)
    if n == 0:
        return []
    workers = min(workers, n)
    if workers <= 1:
        envelopes = []
        for index, item in enumerate(items):
            checkpoint()
            envelopes.append(item_envelope(index, operation, schema, engine, item))
        return envelopes

    results: List[Optional[dict]] = [None] * n
    cursor_lock = threading.Lock()
    cursor = [0]

    def drain() -> None:
        try:
            while True:
                checkpoint()
                with cursor_lock:
                    index = cursor[0]
                    if index >= n:
                        return
                    cursor[0] = index + 1
                results[index] = item_envelope(
                    index, operation, schema, engine, items[index]
                )
        except Cancelled:
            return  # the caller's checkpoint below re-raises

    # Each drain thread runs in a copy of the caller's context, so a
    # cancelled batch stops its items too.
    threads = [
        threading.Thread(
            target=contextvars.copy_context().run,
            args=(drain,),
            daemon=True,
            name=f"repro-batch-{i}",
        )
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    checkpoint()
    # item_envelope raises only Cancelled, so every slot is filled once
    # the drain threads exit uncancelled.
    return [envelope for envelope in results if envelope is not None]


# ----------------------------------------------------------------------
# Process-pool execution (compiled artifacts shipped once per worker)
# ----------------------------------------------------------------------

#: Per-worker-process state set up by :func:`_process_init`.
_WORKER: dict = {}


def _process_init(operation: str, payload) -> None:
    """Pool initializer: install the parent's compiled artifact.

    ``payload`` is one of:

    * ``None`` — the schema-less ``evaluate`` operation;
    * ``bytes`` — an :class:`~repro.engine.EngineArtifact` payload: the
      schema plus the parent's compiled tables, so the worker unpickles
      dense integer arrays instead of re-parsing schema text and
      re-running the compile pipeline from scratch;
    * a ``dict`` — a *store reference* ``{"cache_dir", "fingerprint",
      "schema_text", "syntax", "wrap"}``: the parent persisted the
      artifact once into an on-disk :class:`~repro.engine.ArtifactStore`
      and every worker loads it from there, so N workers cost one write
      plus N reads instead of N pickled payloads over the pipe.  A store
      miss (racing eviction, corrupt blob) falls back to compiling from
      the carried schema text — slower, never wrong.
    """
    if payload is None:
        schema: Optional[Schema] = None
        engine = Engine()
    elif isinstance(payload, dict):
        from ..engine import ArtifactStore

        store = ArtifactStore(root=payload["cache_dir"])
        artifact = store.get(payload["fingerprint"])
        if artifact is not None:
            engine = artifact.install()
            schema = artifact.schema
        else:
            from .plan import compile_schema

            schema, engine = compile_schema(
                payload["schema_text"], payload["syntax"], payload["wrap"]
            )
    else:
        artifact = EngineArtifact.from_bytes(payload)
        engine = artifact.install()
        schema = artifact.schema
    _WORKER["operation"] = operation
    _WORKER["schema"] = schema
    _WORKER["engine"] = engine


def _process_chunk(chunk: List[Tuple[int, Any]]) -> List[dict]:
    """Decide one index-tagged chunk inside a worker process."""
    return [
        item_envelope(
            index, _WORKER["operation"], _WORKER["schema"], _WORKER["engine"], item
        )
        for index, item in chunk
    ]


def run_items_process(
    plan: BatchPlan,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    store=None,
) -> List[dict]:
    """Decide the plan's items across a process pool, in input order.

    The schema is parsed and compiled once in the parent — a syntax
    error must surface as this call's exception, not as an opaque
    ``BrokenProcessPool`` from a dying initializer — and the compiled
    artifacts reach each worker either as one explicit pickle payload or,
    with a ``store`` (an :class:`~repro.engine.ArtifactStore`), as a
    fingerprint the workers load from disk: the artifact is written once
    and shared by every worker instead of pickled per worker.  (The
    explicit ``to_bytes`` round-trip also holds under the ``fork`` start
    method, where initargs would otherwise reach workers by memory
    inheritance and never exercise pickling.)
    """
    schema, engine = plan.compile()
    payload = None
    if schema is not None:
        artifact = EngineArtifact.capture(engine, schema)
        if store is not None:
            store.put(artifact, syntax=plan.syntax)
            payload = {
                "cache_dir": str(store.root),
                "fingerprint": artifact.fingerprint(),
                "schema_text": plan.schema_text,
                "syntax": plan.syntax,
                "wrap": plan.wrap,
            }
        else:
            payload = artifact.to_bytes()
    workers = workers or default_workers()
    chunks = chunk_indexed(plan.items, workers, chunk_size)
    results: List[Optional[dict]] = [None] * len(plan.items)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_process_init,
        initargs=(plan.operation, payload),
    ) as pool:
        for envelopes in pool.map(_process_chunk, chunks):
            for envelope in envelopes:
                results[envelope["index"]] = envelope
    return [envelope for envelope in results if envelope is not None]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


@dataclass
class BatchResult:
    """Per-item envelopes (input order) plus the aggregate summary."""

    results: List[dict]
    summary: dict


def run_batch(
    plan: BatchPlan,
    executor: str = "thread",
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    store=None,
) -> BatchResult:
    """Run ``plan`` under the named executor and summarize the outcome.

    ``store`` (an :class:`~repro.engine.ArtifactStore`) only affects the
    ``process`` executor, whose workers then load the compiled artifact
    from disk instead of receiving pickled bytes apiece.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (expected one of {', '.join(EXECUTORS)})"
        )
    started = time.perf_counter()
    if executor == "process":
        results = run_items_process(
            plan, workers=workers, chunk_size=chunk_size, store=store
        )
    else:
        schema, engine = plan.compile()
        if executor == "sequential":
            results = [
                item_envelope(index, plan.operation, schema, engine, item)
                for index, item in enumerate(plan.items)
            ]
        else:
            results = run_items_shared(
                plan.operation,
                schema,
                engine,
                plan.items,
                workers=workers or default_workers(),
            )
    elapsed = time.perf_counter() - started
    return BatchResult(
        results=results,
        summary=summarize(plan.operation, executor, results, elapsed),
    )
