"""Batch-means Monte Carlo with reproducible per-batch streams.

Every estimate is the mean of one scalar statistic per batch; a batch-means
estimate is the case where that statistic is the sample mean.  This module
owns the streams, the batch layout and the gate.  An estimate's `seed` is a
stream key, an int or a tuple of non-negative ints, and batch b draws from
numpy's default_rng seeded with the key followed by b.  The experiments key
row r of a report by (seed, r), so no two rows share a stream and a row's
stream follows its position: reordering `ns` reorders the streams.  Batch
values are concatenated in index order, so results do not depend on how
batches are spread over min(jobs, cpu count) threads.  `samples` are split
into `n_batches` batches of `samples // n_batches` each (at least MIN_BATCHES
batches of at least 2 samples, else ValueError), so `n_samples` is the
floor-divided total.  An estimate agrees with an exact target when it lies
within GATE_SE standard errors of it (`EstimateWithError.within`) or below a
bound plus GATE_SE standard errors (`EstimateWithError.below`).
"""
from __future__ import annotations

import os
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

    def within(self, lo: float, hi: float | None = None) -> bool:
        """Within GATE_SE standard errors of the point `lo`, or of [lo, hi]."""
        pad = GATE_SE * self.stderr
        if hi is None:
            return abs(self.value - lo) <= pad
        return lo - pad <= self.value <= hi + pad

    def below(self, bound: float) -> bool:
        """At most `bound` plus GATE_SE standard errors."""
        return self.value <= bound + GATE_SE * self.stderr


def combine_batch_means(means: np.ndarray, batch_size: int) -> EstimateWithError:
    means = np.asarray(means, dtype=float)
    n_batches = len(means)
    if n_batches < 2:
        raise ValueError("need at least two batch means")
    stderr = float(means.std(ddof=1) / np.sqrt(n_batches))
    stderr = max(stderr, float(np.finfo(float).eps))
    return EstimateWithError(float(means.mean()), stderr, batch_size * n_batches)


def run_batch_stats(
    stat: Callable[[np.random.Generator, int], float],
    batch_size: int,
    batch_range: range,
    seed: int | tuple[int, ...],
) -> np.ndarray:
    """One scalar statistic per batch in the given index range."""
    key = [int(s) for s in (seed if isinstance(seed, tuple) else (seed,))]
    if min(key) < 0:
        raise ValueError("a stream key holds non-negative ints")
    # numpy splits the ints of [*key, b] into these 32-bit words; uint32 seeds faster
    words = [k >> i & 0xFFFFFFFF for k in key for i in range(0, k.bit_length() or 1, 32)]
    values = np.empty(len(batch_range))
    for slot, b in enumerate(batch_range):
        rng = np.random.default_rng(np.array([*words, b], dtype=np.uint32))
        values[slot] = float(stat(rng, batch_size))
    return values


def _split_ranges(n_batches: int, jobs: int) -> list[range]:
    cuts = [n_batches * i // jobs for i in range(jobs + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _pooled_estimate(
    stat: Callable[[np.random.Generator, int], float],
    samples: int,
    n_batches: int,
    seed: int | tuple[int, ...],
    jobs: int,
) -> EstimateWithError:
    """Split `samples` into batches, run them over min(jobs, CPUs) threads, combine."""
    if n_batches < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} batches for a stable stderr")
    batch_size = samples // n_batches
    if batch_size < 2:
        raise ValueError(
            f"{samples} samples over {n_batches} batches leave fewer than 2 per batch"
        )
    if jobs < 1:
        raise ValueError("jobs must be positive")
    ranges = _split_ranges(n_batches, min(jobs, os.cpu_count() or 1))
    if len(ranges) == 1:
        values = run_batch_stats(stat, batch_size, ranges[0], seed)
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(
                pool.map(lambda r: run_batch_stats(stat, batch_size, r, seed), ranges)
            )
        values = np.concatenate(parts)
    return combine_batch_means(values, batch_size)


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
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> EstimateWithError:
    """Batch-means estimate of E[sample], with a sample-std standard error."""
    return _pooled_estimate(_mean_statistic(sampler), samples, n_batches, seed, jobs)


def batch_statistic_estimate(
    stat: Callable[[np.random.Generator, int], float],
    samples: int,
    *,
    n_batches: int,
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> EstimateWithError:
    """Batch means of a per-batch scalar statistic (covariances and the like).

    The statistic must be unbiased at the batch size for the combined value to
    be unbiased; the stderr is the spread of the per-batch values.
    """
    return _pooled_estimate(stat, samples, n_batches, seed, jobs)
