"""Cooperative cancellation for computations that may run long.

Theorem 3.1 makes NP-hard requests ordinary input, so the service runs
every decision under a deadline.  A Python thread cannot be stopped
from outside; instead the loops that can run long — the satisfiability
word search, the inference enumerator, query evaluation, DPLL, the
witness builder's searches and the batch item loop — call
:func:`checkpoint`, which raises :class:`Cancelled` once the running
computation's :class:`CancelToken` has been cancelled.

The token travels in a context variable.  Code that runs outside any
token (the CLI, the library API) pays one ``ContextVar.get`` per
checkpoint and is never cancelled.  New threads start with an empty
context, so code that fans work out to threads must carry the context
across (``contextvars.copy_context().run``).
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator, Optional


class Cancelled(BaseException):
    """Raised at a checkpoint after the computation's token was cancelled.

    A ``BaseException``, like ``asyncio.CancelledError``, so that
    per-item ``except Exception`` isolation does not swallow it and turn
    an abandoned computation into a partial answer.
    """


class CancelToken:
    """A one-way flag: once :meth:`cancel` is called, checkpoints raise."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


_current: contextvars.ContextVar[Optional[CancelToken]] = contextvars.ContextVar(
    "repro_cancel_token", default=None
)


def checkpoint() -> None:
    """Raise :class:`Cancelled` if the current computation was cancelled."""
    token = _current.get()
    if token is not None and token.cancelled:
        raise Cancelled()


@contextmanager
def cancel_scope(token: CancelToken) -> Iterator[CancelToken]:
    """Run the ``with`` body under ``token``."""
    reset = _current.set(token)
    try:
        yield token
    finally:
        _current.reset(reset)
