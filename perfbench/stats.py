"""Order statistics used by the benchmark: nearest-rank percentiles, the
tail rule (the highest percentile with at least ten samples beyond it), its
median over passes, and the quartile spread used to judge run-to-run
steadiness."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile_rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), p) - 1]


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    n: int
    beyond: int


def tail(values: list[float]) -> Tail:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples ranked
    above it.  A sample too small for any rung reports its median, and the
    recorded ``beyond`` count shows that the rule was not met."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = percentile_rank(n, p)
        if n - rank >= MIN_BEYOND:
            return Tail(p, ordered[rank - 1], n, n - rank)
    rank = percentile_rank(n, 50.0)
    return Tail(50.0, ordered[rank - 1], n, n - rank)


@dataclass(frozen=True)
class PassTail:
    """The tail rule applied to each pass's samples, and the median of the
    passes' tails."""

    value: float
    percentiles: tuple[float, ...]
    passes: int
    n_min: int


def pass_tail(passes: list[list[float]]) -> PassTail:
    """Median over passes of each pass's tail.  Slow bursts of a shared host
    hit a few passes of a run, and pooling every pass's samples lets those
    few set the pooled tail; the median over passes keeps a pass's tail as
    a user of one pass sees it and leaves out the burst-hit passes."""
    tails = [tail(p) for p in passes]
    return PassTail(statistics.median(t.value for t in tails),
                    tuple(sorted({t.percentile for t in tails})),
                    len(tails), min(t.n for t in tails))


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
