"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 16 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics (untraced) on fresh server processes; ``--trace 1`` makes the
separate traced run and prints the per-layer metrics.  Human-readable
lines (metric, value, unit, sample count) come first, the untraced
run's figures that are not gated among them; the last line of standard
output is one JSON object with the gated metrics::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every answer is checked against references computed before the timed
window; a wrong answer (or a reference the brute-force oracle refutes)
makes ``correct`` false and the exit code 1.  A request that gets no
answer (an error status, a refusal, a transport error) counts as
failed; the run still exits 0.  Usage errors and a
checkout without the ``repro`` sources exit 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm-serve", "batch-decide", "schema-churn", "deadline-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import metrics as names
    import servers
    import streams
    import workloads

    tier_s = args.seconds / 2.0
    plan = streams.build(args.workload, args.seed, workloads.ops_needed(args.workload, tier_s)[1])
    reported = {}
    try:
        if args.trace:
            import tracing

            values, samples, tally = tracing.run(plan, args.seconds)
            declared = names.PER_LAYER
        else:
            values, samples, tally = workloads.run(plan, args.seconds)
            declared = names.END_TO_END
            reported = names.REPORTED
    finally:
        servers.remove_scratch()

    refs = plan.references
    wrong = tally.wrong + len(refs.mismatches)
    for mismatch in refs.mismatches:
        print(f"reference mismatch: {mismatch}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} wrong={wrong} oracle_checked={refs.oracle_checked} "
          f"oracle_out_of_reach={refs.oracle_out_of_reach}")
    for name, unit in list(declared.items()) + list(reported.items()):
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        gate = "  not gated" if name in reported else ""
        print(f"  {name:28s} {values[name]:14.6f} {unit}{suffix}{gate}")
    result = {
        "correct": wrong == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed + len(refs.mismatches),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
