"""Batch-means Monte Carlo with reproducible per-batch streams.

Every estimate is the mean of one scalar statistic per batch; a batch-means
estimate is the case where that statistic is the sample mean.  Each batch b
draws from numpy's default_rng seeded with [seed, b], so results do not
depend on how batches are scheduled across workers: running ranges in
parallel and concatenating the batch values in index order reproduces a
serial run bit for bit.

This module owns the batch layout and the gate.  `samples` are split into
`n_batches` batches of `samples // n_batches` each (at least MIN_BATCHES
batches of at least 2 samples, else ValueError), so `n_samples` reports the
floor-divided total.  An estimate agrees with an exact target when it lies
within GATE_SE standard errors of it (`EstimateWithError.within`) or below
a bound plus GATE_SE standard errors (`EstimateWithError.below`).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EstimateWithError",
    "GATE_SE",
    "MIN_BATCHES",
    "run_batch_stats",
    "combine_batch_means",
    "batch_estimate",
    "batch_statistic_estimate",
]

MIN_BATCHES = 30
GATE_SE = 5.0

BatchSampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    stderr: float
    n_samples: int
    seed: int

    def within(self, lo: float, hi: float | None = None) -> bool:
        """Within GATE_SE standard errors of the point `lo`, or of [lo, hi]."""
        pad = GATE_SE * self.stderr
        if hi is None:
            return abs(self.value - lo) <= pad
        return lo - pad <= self.value <= hi + pad

    def below(self, bound: float) -> bool:
        """At most `bound` plus GATE_SE standard errors."""
        return self.value <= bound + GATE_SE * self.stderr


def combine_batch_means(
    means: np.ndarray, batch_size: int, seed: int
) -> EstimateWithError:
    means = np.asarray(means, dtype=float)
    n_batches = len(means)
    if n_batches < 2:
        raise ValueError("need at least two batch means")
    stderr = float(means.std(ddof=1) / np.sqrt(n_batches))
    stderr = max(stderr, float(np.finfo(float).eps))
    return EstimateWithError(
        value=float(means.mean()),
        stderr=stderr,
        n_samples=batch_size * n_batches,
        seed=int(seed),
    )


def run_batch_stats(
    stat: Callable[[np.random.Generator, int], float],
    batch_size: int,
    batch_range: range,
    seed: int,
) -> np.ndarray:
    """One scalar statistic per batch in the given index range."""
    values = np.empty(len(batch_range))
    for slot, b in enumerate(batch_range):
        rng = np.random.default_rng([int(seed), int(b)])
        values[slot] = float(stat(rng, batch_size))
    return values


def _split_ranges(n_batches: int, jobs: int) -> list[range]:
    bounds = np.linspace(0, n_batches, jobs + 1).astype(int)
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _pooled_estimate(
    stat: Callable[[np.random.Generator, int], float],
    samples: int,
    n_batches: int,
    seed: int,
    jobs: int,
) -> EstimateWithError:
    """Split `samples` into batches, run them over up to `jobs` threads, combine."""
    if n_batches < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} batches for a stable stderr")
    batch_size = samples // n_batches
    if batch_size < 2:
        raise ValueError(
            f"{samples} samples over {n_batches} batches leave fewer than 2 per batch"
        )
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if jobs == 1:
        values = run_batch_stats(stat, batch_size, range(n_batches), seed)
    else:
        ranges = _split_ranges(n_batches, jobs)
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(
                pool.map(lambda r: run_batch_stats(stat, batch_size, r, seed), ranges)
            )
        values = np.concatenate(parts)
    return combine_batch_means(values, batch_size, seed)


def _mean_statistic(sampler: BatchSampler):
    """The per-batch statistic of a batch-means estimate: the sample mean."""

    def mean(rng: np.random.Generator, size: int) -> float:
        values = np.asarray(sampler(rng, size), dtype=float)
        if values.shape != (size,):
            raise ValueError(f"sampler returned shape {values.shape}, wanted ({size},)")
        return values.mean()

    return mean


def batch_estimate(
    sampler: BatchSampler,
    samples: int,
    *,
    n_batches: int,
    seed: int = 0,
    jobs: int = 1,
) -> EstimateWithError:
    """Batch-means estimate of E[sample], with a sample-std standard error."""
    return _pooled_estimate(_mean_statistic(sampler), samples, n_batches, seed, jobs)


def batch_statistic_estimate(
    stat: Callable[[np.random.Generator, int], float],
    samples: int,
    *,
    n_batches: int,
    seed: int = 0,
    jobs: int = 1,
) -> EstimateWithError:
    """Batch means of a per-batch scalar statistic (covariances and the like).

    The statistic must be unbiased at the batch size for the combined value to
    be unbiased; the stderr is the spread of the per-batch values.
    """
    return _pooled_estimate(stat, samples, n_batches, seed, jobs)
