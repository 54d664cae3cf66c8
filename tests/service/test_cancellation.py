"""Cooperative cancellation: a computation past its deadline stops.

``DeadlineRunner`` used to answer a deadline with a 503 and leave the
computation running on a detached thread, holding its slot and
allocating without bound (an NP-hard satisfiability request grew past a
gigabyte).  Now the runner cancels the computation's token and the long
loops stop at their next checkpoint.
"""

import random
import threading
import time

import pytest

from repro.batch import run_items_shared
from repro.cancel import Cancelled, CancelToken, cancel_scope, checkpoint
from repro.engine import Engine
from repro.query import query_to_string
from repro.reductions import dpll, random_3sat, reduce_formula
from repro.service.limits import (
    DeadlineExceeded,
    DeadlineRunner,
    ServiceBusy,
    ServiceLimits,
)
from repro.typing import is_satisfiable


def _wait_until_stopped(runner: DeadlineRunner, within_s: float = 5.0) -> bool:
    deadline = time.monotonic() + within_s
    while runner.stats()["detached"] and time.monotonic() < deadline:
        time.sleep(0.01)
    return runner.stats()["detached"] == 0


def _hard_instance():
    formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
    return reduce_formula(formula)


class TestCheckpoint:
    def test_checkpoint_outside_a_scope_is_a_no_op(self):
        checkpoint()

    def test_checkpoint_raises_once_the_token_is_cancelled(self):
        token = CancelToken()
        with cancel_scope(token):
            checkpoint()
            token.cancel()
            with pytest.raises(Cancelled):
                checkpoint()
        checkpoint()  # the scope is gone again

    def test_cancelled_is_not_an_exception(self):
        """Per-item ``except Exception`` isolation must not swallow it."""
        assert not issubclass(Cancelled, Exception)

    def test_dpll_stops_at_a_cancelled_token(self):
        formula = random_3sat(20, n_clauses=80, rng=random.Random(1))
        token = CancelToken()
        token.cancel()
        with cancel_scope(token), pytest.raises(Cancelled):
            dpll(formula)


class TestRunnerCancels:
    def test_timed_out_computation_stops_and_frees_its_slot(self):
        def spin() -> None:
            end = time.monotonic() + 10
            while time.monotonic() < end:
                checkpoint()

        runner = DeadlineRunner(ServiceLimits(max_slots=1, slot_wait_s=0.5))
        with pytest.raises(DeadlineExceeded):
            runner.call(spin, deadline_s=0.05)
        assert runner.stats()["timeouts"] == 1
        assert _wait_until_stopped(runner, within_s=2.0)
        # The single slot is free again.
        assert runner.call(lambda: "next", deadline_s=1.0) == "next"

    def test_np_hard_satisfiability_is_cancelled(self):
        schema, query = _hard_instance()
        runner = DeadlineRunner(ServiceLimits())
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            runner.call(lambda: is_satisfiable(query, schema), deadline_s=0.3)
        assert _wait_until_stopped(runner, within_s=3.0)
        assert time.monotonic() - started < 3.5
        assert not any(t.name == "repro-compute" for t in threading.enumerate())

    def test_expired_requests_do_not_leave_the_runner_busy(self):
        """4x ``max_slots`` concurrent NP-hard calls: once they expire
        every slot comes back."""
        schema, query = _hard_instance()
        runner = DeadlineRunner(ServiceLimits(max_slots=2, slot_wait_s=0.1))
        outcomes = []

        def request() -> None:
            try:
                runner.call(lambda: is_satisfiable(query, schema), deadline_s=0.2)
            except (DeadlineExceeded, ServiceBusy) as error:
                outcomes.append(type(error).__name__)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 8
        assert _wait_until_stopped(runner, within_s=3.0)
        for _ in range(2):
            assert runner.call(lambda: "free", deadline_s=1.0) == "free"

    def test_cancelled_batch_stops_its_drain_threads(self):
        schema, query = _hard_instance()
        items = [{"query": query_to_string(query)}] * 4
        runner = DeadlineRunner(ServiceLimits())
        with pytest.raises(DeadlineExceeded):
            runner.call(
                lambda: run_items_shared(
                    "satisfiable", schema, Engine(), items, workers=2
                ),
                deadline_s=0.3,
            )
        assert _wait_until_stopped(runner, within_s=3.0)
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and any(
            t.name.startswith("repro-batch-") for t in threading.enumerate()
        ):
            time.sleep(0.01)
        assert not any(
            t.name.startswith("repro-batch-") for t in threading.enumerate()
        )

    def test_uncancelled_batch_still_answers_every_item(self):
        schema, _ = _hard_instance()
        runner = DeadlineRunner(ServiceLimits())
        text = "SELECT X WHERE Root = [_ -> X]"
        results = runner.call(
            lambda: run_items_shared(
                "satisfiable", schema, Engine(), [{"query": text}] * 3, workers=2
            ),
            deadline_s=30.0,
        )
        assert [envelope["index"] for envelope in results] == [0, 1, 2]
        assert all(envelope["ok"] for envelope in results)
