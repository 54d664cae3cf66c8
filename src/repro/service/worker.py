"""The pool worker process: the loop behind ``repro serve --workers N``.

Workers are started with ``spawn``, so each one re-imports the module
that holds its entry point.  That module is this one, not
:mod:`repro.service.pool`: the frontend's asyncio edge and process
bookkeeping have no business in a worker, and a worker should load only
the serving path (its :class:`~repro.service.daemon.ServiceState`).
"""

from __future__ import annotations

import json
import os
import time
import zlib


def shard_of(fingerprint: str, num_workers: int) -> int:
    """The home worker index for ``fingerprint``.

    CRC32 rather than ``hash()``: the assignment must be identical in the
    frontend and in every (separately spawned) worker process, and
    ``PYTHONHASHSEED`` randomizes ``hash()`` per process.
    """
    return zlib.crc32(fingerprint.encode("utf-8")) % num_workers


def worker_main(conn, worker_id: int, num_workers: int, config: dict) -> None:
    """The loop a pool worker runs: recv an op, answer it, repeat.

    Ops (tuples; first element is the op name):

    ``("request", method, path, body)``
        Dispatch through a full :class:`ServiceState`; replies
        ``("response", status, payload_bytes)`` — the envelope is
        JSON-encoded worker-side so N workers serialize in parallel.
    ``("list",)``   → ``("list", [entry descriptions])``
    ``("stats",)``  → ``("stats", {... state stats payload ...})``
    ``("ping", delay_s)`` → ``("pong", pid)`` after sleeping ``delay_s``
        (liveness probe; the crash tests use the delay to hold the
        worker mid-request deterministically).
    ``("shutdown",)`` → ``("bye",)`` and exit.
    """
    # Imports are local so ``spawn`` children pay them once, here, and a
    # traceback during warmup still reaches the handshake below.
    from ..engine import ArtifactStore
    from .daemon import ServiceState
    from .registry import SchemaRegistry

    try:
        store = None
        if config.get("store_dir"):
            store = ArtifactStore(root=config["store_dir"])
        extras = frozenset(config.get("extra_fingerprints") or ())

        def shard_filter(fingerprint: str) -> bool:
            return (
                shard_of(fingerprint, num_workers) == worker_id
                or fingerprint in extras
            )

        registry = SchemaRegistry(
            max_schemas=config.get("max_schemas", 64),
            engine_max_entries=config.get("engine_max_entries", 4096),
            store=store,
            restore_filter=shard_filter,
        )
        state = ServiceState(registry=registry, limits=config["limits"])
    except BaseException as error:  # noqa: BLE001 — surface to the frontend
        try:
            conn.send(("failed", f"{type(error).__name__}: {error}"))
        finally:
            return
    conn.send(("ready", os.getpid(), len(registry)))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        try:
            if op == "request":
                _, method, path, body = message
                status, envelope = state.handle(method, path, body)
                reply = ("response", status, json.dumps(envelope).encode("utf-8"))
            elif op == "list":
                reply = ("list", [entry.describe() for entry in registry.entries()])
            elif op == "stats":
                payload = state.stats_payload()
                payload["pid"] = os.getpid()
                reply = ("stats", payload)
            elif op == "ping":
                delay = message[1] if len(message) > 1 else 0.0
                if delay:
                    time.sleep(delay)
                reply = ("pong", os.getpid())
            elif op == "shutdown":
                try:
                    conn.send(("bye",))
                finally:
                    break
            else:
                reply = ("error", f"unknown worker op {op!r}")
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break  # frontend went away; nothing left to answer
