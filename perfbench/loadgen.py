"""Open- and closed-loop drivers over a list of operations.

The open loop fixes each operation's send time in advance (operation
``i`` is due at ``start + i / rate``) and times it from that due time,
not from when it was actually sent: a stall makes every later operation
late, and that wait is part of their latency.  Missed slots are never
skipped; a sender that falls behind sends the backlog back to back.
What is still unsent ``grace_s`` after the window closes counts as
attempted and failed.  This is the opposite of
``repro.replay.runner._worker``, which skips forward when behind and
times from the actual send.

Both loops only collect outcomes; answers are checked after the phase,
so checking never steals time from the measured window.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    outcome: Any


@dataclass
class Phase:
    start: float
    elapsed_s: float
    samples: List[Sample] = field(default_factory=list)
    #: Operations scheduled (open loop) or started (closed loop).
    due: int = 0
    #: Operations actually sent before the hard stop.
    sent: int = 0


def open_loop(ops: Sequence[Any], rate: float, seconds: float, senders: int,
              execute: Callable[[Any], Any], grace_s: float = 10.0) -> Phase:
    n_due = max(1, int(rate * seconds))
    if n_due > len(ops):
        raise ValueError(f"open loop needs {n_due} operations, stream has {len(ops)}")
    start = time.perf_counter() + 0.02
    hard_stop = start + seconds + grace_s
    lock = threading.Lock()
    cursor = [0]
    samples: List[Optional[Sample]] = [None] * n_due

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= n_due:
                return
            due = start + index / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            if sent > hard_stop:
                continue
            outcome = execute(ops[index])
            samples[index] = Sample(index, due, sent, time.perf_counter(), outcome)

    _run_threads(sender, senders)
    kept = [s for s in samples if s is not None]
    return Phase(start, time.perf_counter() - start, kept, due=n_due, sent=len(kept))


def closed_loop(ops: Sequence[Any], seconds: float, senders: int,
                execute: Callable[[Any], Any], cycle: bool = True) -> Phase:
    """Each sender issues its next operation as soon as the last returns.

    With ``cycle`` false the phase also ends when the stream runs out
    (a stream whose operations must each be new to the server).
    """
    start = time.perf_counter()
    stop = start + seconds
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []

    def sender() -> None:
        while time.perf_counter() < stop:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops) and not cycle:
                return
            sent = time.perf_counter()
            outcome = execute(ops[index % len(ops)])
            done = time.perf_counter()
            with lock:
                samples.append(Sample(index, sent, sent, done, outcome))

    _run_threads(sender, senders)
    elapsed = min(time.perf_counter(), max([stop] + [s.done for s in samples])) - start
    return Phase(start, elapsed, samples, due=len(samples), sent=len(samples))


def _run_threads(target: Callable[[], None], count: int) -> None:
    """Run ``count`` senders to completion with the collector paused, so
    the generator's own garbage collection never delays a send."""
    threads = [threading.Thread(target=target, name=f"perfbench-{i}") for i in range(count)]
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
