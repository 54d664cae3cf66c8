"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
from loadgen import Phase, Sample, open_loop  # noqa: E402
from stats import self_times  # noqa: E402
from tracing import layer_shares  # noqa: E402
from workloads import Tally, summarize_closed  # noqa: E402

DIGEST_SCRIPT = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import streams; "
    "print(streams.digest(streams.build(sys.argv[3], int(sys.argv[4]), 40)))"
)


def _digest_in_subprocess(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, str(ROOT / "src"), str(HERE), workload, str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


def test_same_seed_same_stream_different_seed_different_stream():
    for workload in run.WORKLOADS:
        first = streams.digest(streams.build(workload, 7, 40))
        assert first == streams.digest(streams.build(workload, 7, 40)), workload
        assert first != streams.digest(streams.build(workload, 8, 40)), workload


def test_stream_digest_is_byte_identical_across_processes():
    here = streams.digest(streams.build("schema-churn", 3, 40))
    assert _digest_in_subprocess("schema-churn", 3, "1") == here
    assert _digest_in_subprocess("schema-churn", 3, "2") == here


def test_churn_reloads_only_long_evicted_variants():
    plan = streams.build("schema-churn", 5, 80)
    fresh: list = []
    reloads = 0
    for op in plan.ops:
        text = op.reqs[0].payload.get("schema")
        if op.kind == "fresh":
            fresh.append(text)
        elif op.kind == "reload":
            reloads += 1
            assert text in fresh[:-streams.CHURN_RELOAD_AGE]
    assert reloads > 0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        {"id": 1, "parent": None, "name": "edge.roundtrip", "start": 0.0, "end": 10.0},
        # Two children on different threads that overlap each other.
        {"id": 2, "parent": 1, "name": "service.handle", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "limits.call", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "name": "typing.satisfiable", "start": 2.0, "end": 3.0},
        # A detached child that outlives its parent: clipped to the parent.
        {"id": 5, "parent": 1, "name": "typing.infer", "start": 8.0, "end": 12.0},
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    shares = layer_shares(spans)
    assert shares["edge"] == 3.0 / 13.0
    assert shares["typing"] == 5.0 / 13.0
    assert abs(sum(shares.values()) - 1.0) < 1e-12


def test_open_loop_times_from_schedule_and_never_skips():
    def execute(index):
        if index == 0:
            time.sleep(0.2)  # a stall: every later operation is now late
        return index

    phase = open_loop(list(range(20)), rate=100.0, seconds=0.2, senders=1, execute=execute)
    assert phase.due == phase.sent == 20
    assert [sample.index for sample in phase.samples] == list(range(20))
    late = phase.samples[1]
    assert late.sent - late.due >= 0.15
    assert late.done - late.due >= late.sent - late.due


def test_closed_loop_windows_hold_a_hundred_responses(monkeypatch):
    monkeypatch.setattr(Tally, "check", lambda self, op, outcome: (True, 1, 1))
    # 250 responses over 2.5 s make two windows of 1.25 s (100 and 150
    # responses), so the rate is the median of 80/s and 120/s.
    done = [i * 0.0125 for i in range(100)] + [1.25 + i * 0.0083 for i in range(150)]
    samples = [Sample(i, at, at, at, None) for i, at in enumerate(done)]
    summary = summarize_closed(Phase(0.0, 2.5, samples, due=250, sent=250), [None], Tally(None))
    assert summary["ops"] == 250
    assert abs(summary["max_rps"] - 100.0) < 1e-9


def test_deadline_mix_opens_with_one_np_hard_request_per_worker():
    plan = streams.build("deadline-mix", 5, 40)
    assert len(plan.opening) == len(os.sched_getaffinity(0))
    assert all(op.kind == "np-hard" for op in plan.opening)
    assert all(op.kind != "np-hard" for op in plan.ops)


def test_a_wrong_answer_is_caught():
    plan = streams.build("warm-serve", 1, 40)
    tally = Tally(plan.references)
    op = next(op for op in plan.ops if op.reqs[0].path == "/satisfiable")
    wrong = {"ok": True, "result": {"satisfiable": not op.reqs[0].expect[1]}}
    good, _requests, _items = tally.check(op, [(200, wrong)])
    assert not good and tally.failed == tally.wrong == 1
    good, _requests, _items = tally.check(op, [(500, {"ok": False})])
    assert not good and tally.failed == 2 and tally.wrong == 1


def test_planted_wrong_answer_fails_the_run(monkeypatch, capsys):
    real = streams.References.satisfiable
    monkeypatch.setattr(streams.References, "satisfiable",
                        lambda self, text, query: not real(self, text, query))
    code = run.main(["--workload", "warm-serve", "--seed", "1", "--seconds", "2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER
    assert not set(metrics.REPORTED) & set(metrics.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "spec.json").write_text((HERE / "spec.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
