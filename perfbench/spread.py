"""Run-to-run steadiness of the benchmark: runs one workload once per seed,
one run after another, and prints for each metric the quartile spread as a
share of the median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5 \\
        --against perfbench/out/spread-sweep-trace0.json

``--against`` compares each median with an earlier set of runs and flags a
metric whose median got worse by more than its bound.  A spread above a
third of the bound is flagged too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def collect(workload: str, seeds: list[int], seconds: int, trace: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
        print(f"seed {seed}: ok", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def worse_by(median: float, before: float, better: str) -> float:
    if not before:
        return 0.0
    change = (median - before) / before
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = collect(args.workload, args.seeds, spec["run_seconds"], args.trace)
    out = BENCH_DIR / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "values": values}, indent=1) + "\n")
    before = json.loads(args.against.read_text())["values"] if args.against else {}

    declared = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    steady = True
    print(f"{'metric':40} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        metric = declared[name]
        median = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        bound = metric.get("bound")
        verdict = []
        if bound is not None and name != "setup_s" and spread > bound / 3:
            verdict.append("spread above a third of the bound")
        if bound is not None and name in before:
            change = worse_by(median, statistics.median(before[name]), metric["better"])
            verdict.append(f"worse by {change:+.3f}")
            if change > bound:
                verdict.append("REGRESSION")
        steady &= not any(v.startswith(("spread", "REG")) for v in verdict)
        print(f"{name:40} {median:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}  "
              + "; ".join(verdict))
    print(f"wrote {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
