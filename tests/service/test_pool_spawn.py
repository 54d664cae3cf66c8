"""``CompilerPool.spawn_all`` boots its workers in parallel.

A mocked multiprocessing context records the order of process starts and
handshake waits: every worker must be started before the pool waits on
any ready handshake, so start-up costs one worker boot, not N.
"""

import pytest

from repro.service.pool import SPAWN_TIMEOUT_S, CompilerPool


class _Conn:
    def __init__(self, events, worker, reply):
        self.events, self.worker, self.reply = events, worker, reply
        self.closed = False

    def poll(self, timeout):
        self.events.append(("poll", self.worker, timeout))
        return self.reply is not None

    def recv(self):
        self.events.append(("recv", self.worker))
        return self.reply

    def close(self):
        self.closed = True


class _Process:
    def __init__(self, events, worker):
        self.events, self.worker = events, worker
        self.terminated = False

    def start(self):
        self.events.append(("start", self.worker))

    def terminate(self):
        self.terminated = True
        self.events.append(("terminate", self.worker))

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return not self.terminated


class _Context:
    """Stands in for ``multiprocessing.get_context("spawn")``."""

    def __init__(self, replies):
        self.events = []
        self.replies = replies  # worker id -> handshake (None: never ready)
        self.processes = []
        self.conns = []

    def Pipe(self):
        worker = len(self.conns)
        parent = _Conn(self.events, worker, self.replies[worker])
        self.conns.append(parent)
        return parent, _Conn(self.events, worker, None)

    def Process(self, target, args, daemon, name):
        process = _Process(self.events, args[1])
        self.processes.append(process)
        return process


def _pool(replies):
    pool = CompilerPool(len(replies), store_dir=None)
    pool._ctx = _Context(replies)
    return pool


def test_every_worker_starts_before_any_handshake_wait():
    pool = _pool({0: ("ready", 100), 1: ("ready", 101), 2: ("ready", 102)})
    pool.spawn_all()
    events = pool._ctx.events
    kinds = [event[0] for event in events]
    assert kinds[:3] == ["start", "start", "start"]
    assert kinds.index("poll") > kinds.index("start") + 2
    assert [handle.pid for handle in pool._workers] == [100, 101, 102]
    assert all(event[2] == SPAWN_TIMEOUT_S for event in events if event[0] == "poll")


def test_a_worker_that_never_gets_ready_is_named_and_the_rest_stopped():
    pool = _pool({0: ("ready", 100), 1: None, 2: ("ready", 102)})
    with pytest.raises(RuntimeError, match="pool worker 1 never became ready"):
        pool.spawn_all()
    processes = pool._ctx.processes
    assert [p.terminated for p in processes] == [False, True, True]
    assert pool._ctx.conns[2].closed
    assert pool._workers[0].pid == 100 and pool._workers[2].pid is None


def test_a_worker_that_fails_to_boot_is_named():
    pool = _pool({0: ("error", "boom"), 1: ("ready", 101)})
    with pytest.raises(RuntimeError, match="pool worker 0 failed to boot: boom"):
        pool.spawn_all()


def test_single_worker_respawn_still_blocks_until_warm():
    pool = _pool({0: ("ready", 100)})
    pool._spawn(pool._workers[0])
    assert [event[0] for event in pool._ctx.events] == ["start", "poll", "recv"]
    assert pool._workers[0].pid == 100
