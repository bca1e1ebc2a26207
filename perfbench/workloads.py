"""The three benchmark workloads.  Each one drives the ``subtune`` command
line in-process through ``cli.main``, one call after another (a closed loop
with one client).  The benchmark seed goes into a generated YAML config; the
program sees nothing else of the benchmark.

The presets are reduced from the default so that a repetition fits many
times into one measured run; see README.md for the trade-offs.  ``rep_s``
is a workload's nominal repetition time (measured on a 2-core x86 host
with one BLAS thread); the runner turns ``--seconds`` into a repetition
count with it before any timing starts.  ``setups`` is how many times a
run sets the workload up; ``setup_s`` is their median.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# 4 epochs of 1,024 rows = 128 steps at batch 32, warmup one epoch, K=5,
# budget 16 of 24, both regularizers on.  The raised learning rate brings
# the detector near the default preset's quality in a tenth of the steps.
FINETUNE_PRESET = {"data": {"n_finetune": 1024},
                   "optimizer": {"epochs": 4, "learning_rate": 2e-3}}
FINETUNE_STEPS = 128
# robustness evaluates on the default data; its set-up fine-tune is short
# but real, so scores are not tied
ROBUSTNESS_PRESET: dict = {}
ROBUSTNESS_SETUP_PRESET = {"data": {"n_finetune": 512},
                           "optimizer": {"epochs": 4, "learning_rate": 5e-3}}
# 18 ablation cells, each: build splits, pretrain, 8 fine-tune steps, evaluate
SWEEP_PRESET = {"data": {"n_pretrain": 256, "n_pretrain_test": 64,
                         "n_finetune": 128, "n_test": 128},
                "optimizer": {"epochs": 2, "learning_rate": 2e-3}}
SWEEP_CELLS = 18
ROBUSTNESS_ROWS = 26  # clean baseline + 5 families x 5 levels
ABLATION_TABLES = ("components.csv", "losses.csv", "subspaces.csv", "budget.csv")


def write_config(path: Path, seed: int, preset: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump({"seed": seed, **preset}, sort_keys=True))
    return path


def cli_call(*argv) -> int:
    """One ``subtune`` command in this process; its progress lines are
    dropped so the benchmark's own output stays parseable."""
    from subtune import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@dataclass
class Outcome:
    attempted: int
    failed: int
    files: list[Path]


@dataclass
class SetUp:
    config: Path
    checkpoint: Path | None
    files: list[Path]
    ok: bool


@dataclass
class Quality:
    in_domain: float
    heldout: float
    problems: list[str] = field(default_factory=list)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _frame_aucs(metrics_csv: Path) -> tuple[float, float]:
    rows = {(r["split"], r["level"]): float(r["auc"]) for r in _read_csv(metrics_csv)}
    return rows[("in_domain", "frame")], rows[("heldout", "frame")]


def _finite_problems(values: dict[str, float]) -> list[str]:
    return [f"{name} is not finite ({v})" for name, v in values.items() if not math.isfinite(v)]


class Finetune:
    """The training steps are ~90% of a repetition: every step-time
    optimisation must show here."""

    name = "finetune"
    rep_s = 4.2
    setups = 3

    def setup(self, root: Path, seed: int) -> SetUp:
        config = write_config(root / "finetune.yaml", seed, FINETUNE_PRESET)
        code = cli_call("pretrain", "--config", config, "--out", root / "pre")
        ckpt = root / "pre" / "pretrained.ckpt"
        return SetUp(config, ckpt, [ckpt], code == 0)

    def rep(self, s: SetUp, out: Path) -> Outcome:
        code = cli_call("finetune", "--config", s.config, "--checkpoint", s.checkpoint, "--out", out)
        files = [out / "finetuned.ckpt", out / "train_log.csv", out / "metrics.csv"]
        return Outcome(1, int(code != 0), files)

    def quality(self, out: Path) -> Quality:
        in_auc, held_auc = _frame_aucs(out / "metrics.csv")
        q = Quality(in_auc, held_auc, _finite_problems({"in_domain": in_auc, "heldout": held_auc}))
        with (out / "train_log.csv").open() as fh:
            steps = sum(1 for _ in fh) - 1
        if steps != FINETUNE_STEPS:
            q.problems.append(f"train_log.csv has {steps} steps, expected {FINETUNE_STEPS}")
        return q


class Robustness:
    """Forward-only scoring at batch 256 over the 25-cell distortion grid:
    backward, losses and masking are idle, so a training-step change
    predicts no change in the measured phase."""

    name = "robustness"
    rep_s = 4.1
    # its step metrics come from the set-up fine-tunes: five of them spread
    # over the run sample the host at more moments than three
    setups = 5

    def setup(self, root: Path, seed: int) -> SetUp:
        config = write_config(root / "robustness.yaml", seed, ROBUSTNESS_PRESET)
        train = write_config(root / "setup-finetune.yaml", seed, ROBUSTNESS_SETUP_PRESET)
        code = cli_call("pretrain", "--config", train, "--out", root / "pre")
        if code == 0:
            code = cli_call("finetune", "--config", train, "--checkpoint",
                            root / "pre" / "pretrained.ckpt", "--out", root / "ft")
        ckpt = root / "ft" / "finetuned.ckpt"
        return SetUp(config, ckpt, [ckpt], code == 0)

    def rep(self, s: SetUp, out: Path) -> Outcome:
        failed = 0
        for command in ("robustness", "eval"):
            code = cli_call(command, "--config", s.config, "--checkpoint", s.checkpoint, "--out", out)
            failed += int(code != 0)
        return Outcome(2, failed, [out / "robustness.csv", out / "metrics.csv"])

    def quality(self, out: Path) -> Quality:
        in_auc, held_auc = _frame_aucs(out / "metrics.csv")
        rows = _read_csv(out / "robustness.csv")
        values = {"in_domain": in_auc, "heldout": held_auc}
        values.update({f"{r['family']}@{r['level']}": float(r["video_auc"]) for r in rows})
        q = Quality(in_auc, held_auc, _finite_problems(values))
        if len(rows) != ROBUSTNESS_ROWS:
            q.problems.append(f"robustness.csv has {len(rows)} rows, expected {ROBUSTNESS_ROWS}")
        return q


class Sweep:
    """18 independent ablation cells, each building data, pretraining and
    SVD-decomposing before a short fine-tune: the only workload where
    cell-level parallelism can show."""

    name = "sweep"
    rep_s = 10.5
    setups = 3

    def setup(self, root: Path, seed: int) -> SetUp:
        # one cell's worth of work through the command line, so that first
        # calls and filled caches are paid here and not in the first pass
        config = write_config(root / "sweep.yaml", seed, SWEEP_PRESET)
        code = cli_call("pretrain", "--config", config, "--out", root / "pre")
        if code == 0:
            code = cli_call("finetune", "--config", config, "--checkpoint",
                            root / "pre" / "pretrained.ckpt", "--out", root / "ft")
        ckpt = root / "ft" / "finetuned.ckpt"
        return SetUp(config, None, [ckpt], code == 0)

    def rep(self, s: SetUp, out: Path) -> Outcome:
        code = cli_call("ablate", "--config", s.config, "--out", out)
        files = [out / name for name in ABLATION_TABLES]
        ok = 0
        if code == 0:
            ok = sum(r["status"] == "ok" for r in self._rows(out))
        return Outcome(SWEEP_CELLS, SWEEP_CELLS - ok, files)

    @staticmethod
    def _rows(out: Path) -> list[dict]:
        return [row for name in ABLATION_TABLES for row in _read_csv(out / name)]

    def quality(self, out: Path) -> Quality:
        rows = self._rows(out)
        auc_in = [float(r["auc_in"] or "nan") for r in rows]
        auc_heldout = [float(r["auc_heldout"] or "nan") for r in rows]
        values = {f"cell{i}.auc_in": v for i, v in enumerate(auc_in)}
        values |= {f"cell{i}.auc_heldout": v for i, v in enumerate(auc_heldout)}
        q = Quality(statistics.fmean(auc_in), statistics.fmean(auc_heldout),
                    _finite_problems(values))
        if len(rows) != SWEEP_CELLS or any(r["status"] != "ok" for r in rows):
            q.problems.append(f"expected {SWEEP_CELLS} cells with status ok")
        return q


WORKLOADS = {w.name: w for w in (Finetune(), Robustness(), Sweep())}
