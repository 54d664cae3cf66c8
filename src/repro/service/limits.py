"""Per-request resource limits: deadlines, body caps, worker slots.

The paper's Table 2 has NP-complete cells, and the daemon accepts
arbitrary (schema, query) pairs — so any request may be a 3SAT instance
in disguise.  A production service cannot let one such request pin a
worker forever.  This module gives every request:

* a **wall-clock deadline** (client-settable per request, clamped to a
  server maximum).  The decision procedure runs on a daemon thread
  under a :class:`~repro.cancel.CancelToken`; if the deadline passes,
  the HTTP worker answers a structured 503 ``timeout`` envelope and is
  immediately reclaimed for new requests, and the token is cancelled so
  the computation stops at its next :func:`~repro.cancel.checkpoint`.
  Until it gets there it still holds its slot: a bounded **slot
  semaphore** caps how many computations (live or cancelled but not yet
  stopped) may exist at once; when no slot frees up in time the server
  answers 503 ``busy`` instead of queueing unboundedly.
* an **input size cap** on request bodies (413 ``payload-too-large``).

All three failure modes surface as :class:`~repro.service.envelope.ServiceError`
subclasses and therefore as machine-readable error envelopes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..cancel import CancelToken, cancel_scope
from .envelope import ServiceError


class DeadlineExceeded(ServiceError):
    """The per-request wall-clock deadline passed before an answer."""

    def __init__(self, deadline_s: float):
        super().__init__(
            f"request exceeded its {deadline_s:g}s deadline; "
            f"the computation was cancelled and the worker reclaimed",
            code="timeout",
            status=503,
            detail={"deadline_s": deadline_s},
        )


class ServiceBusy(ServiceError):
    """All computation slots are taken (live or abandoned-by-timeout)."""

    def __init__(self, slots: int):
        super().__init__(
            f"all {slots} computation slots are busy; retry later",
            code="busy",
            status=503,
            detail={"slots": slots},
        )


class PayloadTooLarge(ServiceError):
    """The request body exceeds the configured cap."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"request body of {size} bytes exceeds the {limit}-byte cap",
            code="payload-too-large",
            status=413,
            detail={"size": size, "limit": limit},
        )


@dataclass(frozen=True)
class ServiceLimits:
    """The knob set enforced on every request.

    Attributes:
        max_body_bytes: reject bodies larger than this (413).
        default_deadline_s: deadline when the request names none.
        max_deadline_s: ceiling a request's own ``deadline`` is clamped to.
        max_slots: concurrent computations (including ones abandoned by a
            timeout but still burning CPU) the server will carry.
        slot_wait_s: how long a request waits for a free slot before 503
            ``busy`` — kept short so saturation is visible, not queued.
        max_batch_items: largest item list ``POST /batch`` accepts; the
            whole batch occupies one computation slot, so this bounds the
            work a single slot may hide.
        batch_workers: threads a ``/batch`` request fans its items over
            (all sharing the schema's pre-warmed engine).
    """

    max_body_bytes: int = 1 << 20
    default_deadline_s: float = 30.0
    max_deadline_s: float = 120.0
    max_slots: int = 32
    slot_wait_s: float = 1.0
    max_batch_items: int = 256
    batch_workers: int = 4

    def clamp_deadline(self, requested: Optional[float]) -> float:
        """The effective deadline for a request asking for ``requested``.

        JSON booleans satisfy ``isinstance(value, int)`` (``True == 1``),
        so they are rejected explicitly — ``{"deadline": true}`` must be a
        400 ``bad-request``, not a silent 1-second deadline.
        """
        if requested is None:
            return self.default_deadline_s
        if (
            isinstance(requested, bool)
            or not isinstance(requested, (int, float))
            or requested <= 0
        ):
            raise ServiceError(
                "deadline must be a positive number of seconds",
                code="bad-request",
            )
        return min(float(requested), self.max_deadline_s)

    def check_body_size(self, size: int) -> None:
        if size > self.max_body_bytes:
            raise PayloadTooLarge(size, self.max_body_bytes)


class DeadlineRunner:
    """Runs callables under a deadline on cancellable daemon threads.

    One runner per server; the semaphore is the global computation-slot
    budget.  :meth:`call` either returns the callable's result, re-raises
    its exception, or raises :class:`DeadlineExceeded` /
    :class:`ServiceBusy`.
    """

    def __init__(self, limits: ServiceLimits):
        self.limits = limits
        self._slots = threading.BoundedSemaphore(limits.max_slots)
        self._lock = threading.Lock()
        self._timeouts = 0
        self._detached = 0  # threads currently running past their deadline

    def call(self, fn: Callable[[], Any], deadline_s: float) -> Any:
        if not self._slots.acquire(timeout=self.limits.slot_wait_s):
            raise ServiceBusy(self.limits.max_slots)
        box: dict = {}
        done = threading.Event()
        abandoned = threading.Event()
        token = CancelToken()

        def work() -> None:
            try:
                with cancel_scope(token):
                    box["value"] = fn()
            except BaseException as exc:  # propagated to the caller below
                box["error"] = exc
            finally:
                # done and abandoned are written/read under one lock so
                # exactly one side accounts for this thread: either the
                # caller sees done first and takes the result, or it
                # abandons first and this worker pays the decrement.
                with self._lock:
                    done.set()
                    if abandoned.is_set():
                        self._detached -= 1
                self._slots.release()

        thread = threading.Thread(target=work, daemon=True, name="repro-compute")
        thread.start()
        timed_out = False
        if not done.wait(timeout=deadline_s):
            with self._lock:
                # The worker may finish between the wait timing out and
                # this acquisition; deciding on done under the lock keeps
                # the detached counter exact and, when the answer did
                # arrive, returns it instead of a spurious timeout.
                if not done.is_set():
                    self._timeouts += 1
                    self._detached += 1
                    abandoned.set()
                    token.cancel()
                    timed_out = True
        if timed_out:
            raise DeadlineExceeded(deadline_s)
        if "error" in box:
            raise box["error"]
        return box["value"]

    def stats(self) -> dict:
        with self._lock:
            return {
                "timeouts": self._timeouts,
                "detached": self._detached,
                "max_slots": self.limits.max_slots,
            }
