"""Host-speed reference for the end-to-end time metrics.

On a shared host the speed of a fixed fine-tune step drifts by a tenth to a
third between runs while process CPU time keeps tracking wall time: the
drift is in the CPU the host lends, not in scheduling, and more repetitions
in one run do not remove it.  A fixed kernel of the same kind of work as
the program (small numpy products, softmax, layer norm and a tanh GELU at
the fine-tune batch's shapes, driven from a Python loop) is timed in short
slices in the gaps between the set-ups and repetitions of a run.
``Calibration.factor`` is the kernel's reference slice time divided by the
run's median slice time; multiplying a measured time by it expresses that
time at the reference host's speed.  Over 6 runs of ``finetune`` the log
of the run's median slice time correlated 0.69-0.91 with the log of each
time metric, with slopes of 0.9-1.4, and dividing it out cut the
run-to-run standard deviation by a third to a half.

The kernel uses nothing of the program, so a change to the program cannot
move the factor.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# one fine-tune batch: 32 rows of 8 tokens, d_model 16, MLP width 32
ROWS, TOKENS, D_MODEL, HIDDEN = 32, 8, 16, 32
SLICE_ITERATIONS = 20
# median slice time on the reference host: a 2-core x86 KVM guest (Xeon,
# Python 3.11.7, numpy 2.4.6, one BLAS thread)
REFERENCE_SLICE_S = 0.027
SLICES_PER_GAP = 8


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((ROWS, TOKENS, D_MODEL))
        self._w = [rng.standard_normal((D_MODEL, D_MODEL)) / 4 for _ in range(4)]
        self._mlp_in = rng.standard_normal((D_MODEL, HIDDEN)) / 4
        self._mlp_out = rng.standard_normal((HIDDEN, D_MODEL)) / 6
        self.slices: list[float] = []
        self._slice()  # the first slice pays for first calls; it is not kept

    def _slice(self) -> float:
        x, ws, mlp_in, mlp_out = self._x, self._w, self._mlp_in, self._mlp_out
        start = perf_counter()
        for _ in range(SLICE_ITERATIONS):
            h = x
            for w in ws:
                centred = h - h.mean(axis=-1, keepdims=True)
                normed = centred / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-6)
                scores = normed @ w @ normed.transpose(0, 2, 1) / 4.0
                scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
                h = h + (scores / scores.sum(axis=-1, keepdims=True)) @ normed
            u = h @ mlp_in
            g = 0.5 * u * (1.0 + np.tanh(0.7978845608 * (u + 0.044715 * u ** 3)))
            float((g @ mlp_out).sum())
        return perf_counter() - start

    def sample(self, slices: int = SLICES_PER_GAP) -> None:
        """Time ``slices`` kernel slices; called in each gap of a run."""
        self.slices.extend(self._slice() for _ in range(slices))

    def median_slice_s(self) -> float:
        return statistics.median(self.slices)

    def factor(self) -> float:
        return REFERENCE_SLICE_S / self.median_slice_s()
