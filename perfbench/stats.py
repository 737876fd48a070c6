"""Order statistics the benchmark reports, with their sample counts."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Percentile:
    """A nearest-rank percentile and the samples it was taken over.

    ``beyond`` is how many samples lie strictly above the reported rank,
    which is what decides whether a tail percentile is trustworthy.
    """

    q: float
    value: float
    samples: int
    rank: int

    @property
    def beyond(self) -> int:
        return self.samples - self.rank


def percentile(values, q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    The rank is ``ceil(q/100 * n)``, so the value is always one of the
    samples and the median of an even count is the lower middle one.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return Percentile(q=q, value=ordered[rank - 1], samples=len(ordered), rank=rank)


def tail_percentile(values, q: float, *, min_beyond: int = 10) -> Percentile:
    """The workload's tail percentile, refusing one with too few samples.

    A tail read off fewer than ``min_beyond`` samples above it is one
    outlier's value, not a percentile; the benchmark fails loudly rather
    than report it.
    """
    result = percentile(values, q)
    if result.beyond < min_beyond:
        raise ValueError(
            f"p{q:g} over {result.samples} samples has only {result.beyond} "
            f"beyond it (need {min_beyond}); measure longer"
        )
    return result


def median(values) -> float:
    return percentile(values, 50.0).value
