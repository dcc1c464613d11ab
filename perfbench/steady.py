"""Steadiness check: run each workload N times and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads serve-bulk ...]
                                [--save runs.json] [--against earlier.json]

Each run uses a different seed (``--first-seed``, +1, ...).  For every
end-to-end metric of ``BENCHMARK.json`` it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound; a spread above a third of
the bound is flagged ``WIDE``, above the bound ``OVER``.  ``--against``
compares medians with an earlier ``--save`` file and flags any metric
whose median got worse by more than its bound.  The share of failed
operations is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--save", default=None, help="write every run's result here")
    ap.add_argument("--against", default=None, help="compare medians with this --save file")
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    status = 0
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            runs.append(run_once(spec, workload, args.first_seed + i, 0))
            print(f"{workload} run {i + 1}/{args.runs}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
        saved[workload] = runs
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed {failed}/{attempted} operations")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            flag = "OVER" if spread > m["bound"] else "WIDE" if spread > m["bound"] / 3 else ""
            line = (f"  {name:<14} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                    f"{spread:8.3f} {m['bound']:6.2f} {flag}")
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload]
                )
                change = worse_by(m, before, med)
                line += f"  vs earlier: {100 * change:+.1f}% worse"
                if change > m["bound"]:
                    line += " REGRESSED"
                    status = 1
            if flag == "OVER":
                status = 1
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved))
    return status


if __name__ == "__main__":
    sys.exit(main())
