"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload finetune --seed 0 --seconds 30 --trace 0

It sets the workload up several times (``setup_s`` is the median): once
before the measured phase and the others between its repetitions.  It repeats
the workload in a closed loop for about ``--seconds``: the number of
repetitions is ``--seconds`` divided by the workload's nominal repetition
time, fixed before any timing so that every commit measures the same work
(at least two repetitions, three when traced).  After every set-up and
repetition it times a few slices of a fixed reference kernel, and reports
the end-to-end times at the reference host's speed (see calib.py); the
uncalibrated values are printed and kept in the result file.  It checks
that every repetition wrote byte-identical outputs that pass the
workload's sanity bars, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MIN_REPS = {False: 2, True: 3}  # keyed by --trace
# one BLAS thread: the lab's claim is one CPU core, and it is <= nproc anywhere
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    seconds: float
    traced: bool
    hashes: dict[str, str]
    span_range: tuple[int, int] = (0, 0)
    counts: dict | None = None


def sha256_files(paths: list[Path]) -> dict[str, str]:
    out = {}
    for path in paths:
        try:
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            out[path.name] = "missing"
    return out


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# end-to-end metrics that calibration scales: times are multiplied by the
# host-speed factor, rates divided by it
TIMES = ("setup_s", "wall_s", "step_ms_p50", "step_ms_tail", "eval_ms_p50", "eval_ms_tail")
RATES = ("train_samples_per_s",)


def calibrated(values: dict[str, float], factor: float) -> dict[str, float]:
    """``values`` at the reference host's speed (see calib.py)."""
    out = dict(values)
    for name in TIMES:
        out[name] *= factor
    for name in RATES:
        out[name] /= factor
    return out


def end_to_end(setup_s, reps, probe, attempted, failed, quality, notes,
               problems) -> dict[str, float]:
    """The end-to-end metrics as measured, before calibration."""
    from stats import pass_tail, percentile, tail

    measured = [b for b in probe.buckets if b["label"] == "rep"]
    setups = [b for b in probe.buckets if b["label"] == "setup"]
    # robustness trains only while setting up: its step numbers come from there
    train_buckets, train_seconds = measured, [r.seconds for r in reps]
    if not any(b["steps"] for b in measured):
        train_buckets, train_seconds = setups, setup_s
        notes["train_source"] = "setup"
    steps = [s for b in train_buckets for s in b["steps"]]
    evals = [e for b in measured for e in b["evals"]]
    if not steps or not evals:
        problems.append("the probes saw no fine-tune step or no evaluation")
        return {}
    step_tail = pass_tail([b["steps"] for b in train_buckets if b["steps"]])
    eval_tail = tail(evals)
    # which rungs the tail rule took; the values are in the metrics
    notes["step_ms_tail"] = {k: v for k, v in vars(step_tail).items() if k != "value"}
    notes["eval_ms_tail"] = {k: v for k, v in vars(eval_tail).items() if k != "value"}
    return {
        "setup_s": _median(setup_s),
        "wall_s": _median([r.seconds for r in reps]),
        "train_samples_per_s": _median(
            [b["rows"] / t for b, t in zip(train_buckets, train_seconds) if b["rows"]]),
        "step_ms_p50": 1e3 * percentile(steps, 50.0),
        "step_ms_tail": 1e3 * step_tail.value,
        "eval_ms_p50": 1e3 * percentile(evals, 50.0),
        "eval_ms_tail": 1e3 * eval_tail.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
        "in_domain_frame_auc": quality.in_domain,
        "heldout_frame_auc": quality.heldout,
    }


def per_layer(workload: str, reps, tracer, problems) -> dict[str, float]:
    import layers

    traced = [r for r in reps if r.traced]
    per = [layers.repetition_metrics(tracer.spans[lo:hi], lo, r.counts)
           for r in traced for lo, hi in [r.span_range]]
    for name in layers.EXACT_NAMES:
        if len({p[name] for p in per}) > 1:
            problems.append(f"{name} differs between traced repetitions: {[p[name] for p in per]}")
    for layer in layers.PREDICTED_IDLE.get(workload, []):
        if per[0][f"{layer}.calls"]:
            problems.append(f"{layer} was predicted idle on {workload} "
                            f"but made {per[0][f'{layer}.calls']} calls")
    values = {name: statistics.median(p[name] for p in per) for name in per[0]}
    values["trace.wall_s"] = _median([r.seconds for r in traced])
    values["trace.overhead_s"] = values["trace.wall_s"] - _median(
        [r.seconds for r in reps if not r.traced])
    return values


def write_spans(path: Path, tracer, reps) -> None:
    with path.open("w") as fh:
        fh.write(json.dumps({"run_id": tracer.run_id,
                             "fields": ["rep", "index", "name", "start", "end", "parent"]}) + "\n")
        for number, rep in enumerate(reps):
            lo, hi = rep.span_range
            for index in range(lo, hi):
                span = tracer.spans[index]
                fh.write(json.dumps([number, index, span.name, span.start, span.end,
                                     span.parent]) + "\n")


def run(args, spec: dict, work: Path) -> tuple[dict, dict]:
    from collections import Counter

    import layers
    from calib import Calibration
    from spans import StepProbe, Tracer, finetune_shape, patched
    from subtune.config import default_config
    from workloads import WORKLOADS, SetUp

    workload = WORKLOADS[args.workload]
    tracing = bool(args.trace)
    probe = None if tracing else StepProbe(finetune_shape(default_config()))
    tracer = Tracer() if tracing else None
    calibration = Calibration()
    problems: list[str] = []
    notes: dict = {}

    setup_s: list[float] = []
    setup_hashes: list[dict] = []

    def set_up() -> SetUp:
        i = len(setup_s)
        if probe:
            probe.begin("setup")
        start = perf_counter()
        s = workload.setup(work / f"setup{i}", args.seed)
        setup_s.append(perf_counter() - start)
        setup_hashes.append(sha256_files(s.files))
        if not s.ok:
            problems.append(f"set-up {i} failed")
        if setup_hashes[-1] != setup_hashes[0]:
            problems.append(f"set-up {i} outputs differ from set-up 0")
        calibration.sample()
        return s

    with patched(probe.wrappers()) if probe else nullcontext():
        first = set_up()
        reps: list[Rep] = []
        attempted = failed = 0
        n_reps = max(MIN_REPS[tracing], int(args.seconds // workload.rep_s))
        # the other set-ups run between repetitions, spread over the run, so
        # that one slow phase of a shared host does not land on all of them
        later_setups = [max(1, round(k * n_reps / workload.setups))
                        for k in range(1, workload.setups)]
        for _ in range(n_reps):
            traced = tracing and len(reps) % 2 == 0
            out = work / f"rep{len(reps)}"
            if probe:
                probe.begin("rep")
            lo = len(tracer.spans) if tracer else 0
            if traced:
                tracer.counts.clear()
            with patched(layers.tracer_wrappers(tracer)) if traced else nullcontext():
                t0 = perf_counter()
                outcome = workload.rep(first, out)
                seconds = perf_counter() - t0
            rep = Rep(seconds, traced, sha256_files(outcome.files))
            if traced:
                rep.span_range = (lo, len(tracer.spans))
                rep.counts = Counter(tracer.counts)
            attempted += outcome.attempted
            failed += outcome.failed
            if reps and rep.hashes != reps[0].hashes:
                failed += 1
                problems.append(f"repetition {len(reps)} outputs differ from repetition 0")
            if reps:
                shutil.rmtree(out, ignore_errors=True)
            reps.append(rep)
            calibration.sample()
            for _ in range(later_setups.count(len(reps))):
                set_up()

    try:
        quality = workload.quality(work / "rep0")
        problems += quality.problems
    except (OSError, KeyError, ValueError, statistics.StatisticsError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        quality = None

    if tracing:
        values = per_layer(args.workload, reps, tracer, problems)
        write_spans(OUT / f"spans-{args.workload}.jsonl", tracer, reps)
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup_s, reps, probe, attempted, failed, quality, notes,
                            problems) if quality else {}
        if values:
            notes["uncalibrated"] = values
            values = calibrated(values, calibration.factor())
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        problems.append("computed metrics do not match BENCHMARK.json: "
                        f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_s": setup_s,
        "rep_s": [r.seconds for r in reps], "rep_traced": [r.traced for r in reps],
        "setup_hashes": setup_hashes[0], "output_hashes": reps[0].hashes,
        "oracle": oracle_status(args.workload, args.seed, reps[0].hashes),
        "calibration": {"factor": calibration.factor(),
                        "median_slice_s": calibration.median_slice_s(),
                        "slices_s": calibration.slices},
        "notes": notes, "problems": problems, "result": result,
    }
    return result, report


def oracle_status(workload: str, seed: int, hashes: dict[str, str]) -> str:
    """Default-seed output hashes are information for refactors, not a gate:
    a change to float rounding legitimately changes them."""
    oracle = json.loads((BENCH_DIR / "oracle.json").read_text())
    if seed != oracle["seed"]:
        return f"no oracle for seed {seed}"
    expected = oracle["hashes"].get(workload)
    return "matches" if expected == hashes else "differs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subtune" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, report = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"environment": report["environment"]}, sort_keys=True))
    print(json.dumps({"output_hashes": report["output_hashes"], "oracle": report["oracle"]},
                     sort_keys=True))
    print(json.dumps({"calibration_factor": report["calibration"]["factor"],
                      "median_slice_s": report["calibration"]["median_slice_s"]}))
    for key in ("step_ms_tail", "eval_ms_tail", "train_source", "uncalibrated"):
        if key in report["notes"]:
            print(json.dumps({key: report["notes"][key]}))
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
