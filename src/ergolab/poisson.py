"""Poisson point configurations over a cutting-and-stacking base.

A model truncates the (typically infinite-measure) tower to a finite window
of depth-J levels.  A configuration is drawn as the suspension defines it: a
Poisson number of points with mean the window's exact measure, each in a
uniform window level, since every window level has the same width (Kingman,
*Poisson Processes*, 1993; Roy, "Poisson suspensions and infinite ergodic
theory", ETDS 29, 2009).  By the colouring theorem the level counts are then
independent with mean the exact rational level width, so any counting
observable over window levels has a known law and covariances reduce to
exact level-set measures from the tower arithmetic.  Every statistic reads
the points through one prepared kernel: its weight matrix is reduced once to
the distinct nonzero rows, and a batch costs one point draw, one histogram
and one small product.  Shifting a configuration moves each point up the
tower by the step map; points whose image leaves the materialized tower are
tracked as lost mass rather than silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, erfc, exp, lgamma, log, sqrt
from typing import Callable

import numpy as np

from .mc import EstimateWithError, batch_estimate
from .tower import (
    ConstructionParams,
    FinitarySwap,
    LevelSet,
    RationalInterval,
    build_stage,
    correlation_interval,
    refine_set,
    wh_defect,
)

__all__ = [
    "PoissonModel",
    "PoissonCovariance",
    "poisson_count_covariance",
    "PoissonGof",
    "poisson_gof",
    "PoissonWhResult",
    "poisson_wh_experiment",
]

_GOF_CHUNK = 4096  # configurations per goodness-of-fit draw


def _locate(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of `values` in the sorted index array, and which are present.

    Both arrays hold Python ints (dtype object), so indices past 2**63 compare
    exactly; `values` may have any shape.
    """
    slots = np.searchsorted(indices, values)
    found = np.zeros(values.shape, dtype=bool)
    inside = slots < len(indices)
    found[inside] = indices[slots[inside]] == values[inside]
    return slots, found


def _refined(params: ConstructionParams, levels: LevelSet, depth: int) -> np.ndarray:
    return np.array(refine_set(params, levels, depth).indices, dtype=object)


class PoissonModel:
    """Finite observation window of a tower, with Poisson mass per level."""

    def __init__(self, params: ConstructionParams, window: LevelSet, depth: int):
        self.params = params
        self.depth = int(depth)
        # sorted window indices as Python ints: slot s holds level indices[s]
        self.indices = _refined(params, window, self.depth)
        self.stage = build_stage(params, self.depth)
        self.level_width = self.stage.level_width
        self._point_mean = float(self.intensity)

    @property
    def n_levels(self) -> int:
        return len(self.indices)

    @property
    def intensity(self) -> Fraction:
        return self.level_width * self.n_levels

    def member_slots(self, levels: LevelSet) -> np.ndarray:
        """Window slots of a level set; every refined index must be observed."""
        slots, found = _locate(self.indices, _refined(self.params, levels, self.depth))
        if not found.all():
            raise ValueError("level set is not contained in the window")
        return slots

    def sample_points(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owner and window slot of every point of `size` configurations.

        Each configuration holds a Poisson(intensity) number of points, and
        each point sits in a uniform window slot, since every window level
        has the same width.  Owners come in increasing order.
        """
        totals = rng.poisson(self._point_mean, size=size)
        owner = np.repeat(np.arange(size), totals)
        return owner, rng.integers(self.n_levels, size=owner.size)


def _weighted_counts(
    model: PoissonModel, weights: np.ndarray
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Prepared (size, k) per-configuration sums of the weight rows of its points.

    `weights` is an n_levels x k integer matrix, so an indicator column gives
    the count of a level set.  Its distinct nonzero rows are found once, and
    each window slot gets its row's code, 0 for an all-zero row.  A batch then
    draws the points, histograms them by (owner, code) with one bincount and
    returns the histogram times the rows as float64.  The sums are integers
    far below 2**53, so they are exact.
    """
    nonzero = np.flatnonzero(weights.any(axis=1))
    distinct, inverse = np.unique(weights[nonzero], axis=0, return_inverse=True)
    code = np.zeros(model.n_levels, dtype=np.intp)
    code[nonzero] = inverse.reshape(-1) + 1
    rows = np.vstack([np.zeros((1, weights.shape[1])), distinct])
    n_codes = len(rows)

    def counts(rng: np.random.Generator, size: int) -> np.ndarray:
        owner, slot = model.sample_points(rng, size)
        hist = np.bincount(owner * n_codes + code[slot], minlength=size * n_codes)
        return hist.reshape(size, n_codes).astype(np.float64) @ rows

    return counts


def _sample_covariance(x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased sample covariance of two integer-valued count vectors.

    (n sum xy - sum x sum y) / (n (n - 1)) is taken in Python ints and
    rounded once, so it depends on neither the summation order nor the BLAS
    build.
    """
    n = len(x)
    sx, sy, sxy = int(x.sum()), int(y.sum()), int(x @ y)
    return (n * sxy - sx * sy) / (n * (n - 1))


@dataclass(frozen=True)
class PoissonCovariance:
    shift: int
    estimate: EstimateWithError
    exact: RationalInterval
    lost_mass: Fraction

    @property
    def within_five_se(self) -> bool:
        return self.estimate.within(float(self.exact.lo), float(self.exact.hi))


def _shift_slots(model: PoissonModel, n: int, a: LevelSet) -> tuple[np.ndarray, int]:
    """Window slots x with x + n in A, and how many A-levels have no such x.

    A must lie in the window.  An A-level a counts as lost when a - n is
    not a window level, whether it is outside the tower or only outside
    the window.
    """
    a_idx = model.indices[model.member_slots(a)]
    slots, found = _locate(model.indices, a_idx - n)
    return slots[found], len(a_idx) - int(found.sum())


def poisson_count_covariance(
    model: PoissonModel,
    n: int,
    a: LevelSet,
    b: LevelSet,
    samples: int,
    *,
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> PoissonCovariance:
    """Cov(N_A after n shift steps, N_B) against the exact base measure.

    For a Poisson configuration the covariance equals the measure of the
    intersection of B with the n-step preimage of A, which the tower gives as
    an exact interval.  A-mass whose preimage is not observed in the window
    is reported as lost; it biases the count mean but not the covariance,
    since points outside the window are independent of every window count.
    """
    n = int(n)
    shifted, lost_levels = _shift_slots(model, n, a)
    weights = np.zeros((model.n_levels, 2), dtype=np.int8)
    weights[shifted, 0] = 1
    weights[model.member_slots(b), 1] = 1
    lost_mass = model.level_width * lost_levels
    exact = correlation_interval(model.params, -n, a, b, model.depth)

    counts = _weighted_counts(model, weights)

    def stat(rng: np.random.Generator, size: int) -> float:
        both = counts(rng, size)
        return _sample_covariance(both[:, 0], both[:, 1])

    estimate = batch_estimate(stat, samples, seed=seed, jobs=jobs)
    return PoissonCovariance(
        shift=n, estimate=estimate, exact=exact, lost_mass=lost_mass
    )


def _pmf(k: float, mu: float) -> float:
    """e^-mu mu^k / Gamma(k + 1): the Poisson pmf at an integer k, and the
    half-integer terms of the odd-df chi-square tail."""
    return exp(k * log(mu) - lgamma(k + 1) - mu)


def _isf(q: float, mu: float) -> int:
    """Smallest k with P(X > k) <= q for X ~ Poisson(mu), mu > 0.

    The tail is summed from the top down, never formed as 1 - cdf.  It
    starts at k = mu + 11 sqrt(mu) + 40, where Bernstein's inequality puts
    it below e^-60.
    """
    k = ceil(mu + 11 * sqrt(mu) + 40)
    tail = 0.0  # P(X > k)
    while True:
        below = tail + _pmf(k, mu)  # P(X > k - 1)
        if below > q:
            return k
        tail, k = below, k - 1


def _chi2_sf(x: float, df: int) -> float:
    """P(chi-square with integer df > x), as a finite sum.

    With h = x / 2 it is sum_{i < df/2} e^-h h^i / i! for even df, and
    erfc(sqrt(h)) plus sum_{i < (df-1)/2} e^-h h^(i+1/2) / Gamma(i + 3/2)
    for odd df.
    """
    h = x / 2
    if h <= 0.0:
        return 1.0
    odd = df % 2
    head = erfc(sqrt(h)) if odd else 0.0
    return head + sum(_pmf(i + odd / 2, h) for i in range(df // 2))


@dataclass(frozen=True)
class PoissonGof:
    mean: float
    p_value: float
    n_samples: int
    n_bins: int

    def passed(self, alpha: float = 0.001) -> bool:
        return self.p_value >= alpha


def poisson_gof(
    model: PoissonModel,
    window: LevelSet,
    samples: int,
    *,
    seed: int = 0,
) -> PoissonGof:
    """Chi-square test of the window count against its exact Poisson law.

    The count is assembled from per-point slots, the points that fall in the
    window's levels, so the test exercises the construction path rather
    than a direct Poisson draw of the total.
    The mean is the exact measure, not fitted, so no degree of freedom is
    deducted for it.  The p-value is the closed-form chi-square tail for
    integer degrees of freedom.
    """
    slots = model.member_slots(window)
    member = np.zeros((model.n_levels, 1), dtype=np.int8)
    member[slots] = 1
    count = _weighted_counts(model, member)
    mu = float(model.level_width * len(slots))
    rng = np.random.default_rng([int(seed), 0x90F])
    upper = _isf(1e-9, mu) + 2
    observed = np.zeros(upper + 1, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        size = min(_GOF_CHUNK, remaining)
        totals = count(rng, size)[:, 0].astype(np.int64)
        observed += np.bincount(np.minimum(totals, upper), minlength=upper + 1)
        remaining -= size
    expected = np.array([_pmf(k, mu) for k in range(upper + 1)]) * samples
    expected[-1] = samples - expected[:-1].sum()

    # merge from both tails until every bin expects at least 5 counts
    obs_bins, exp_bins = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0.0 and obs_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    if len(obs_bins) < 2:
        raise ValueError("window mean too small for a multi-bin test")
    chi2 = float(((np.array(obs_bins) - np.array(exp_bins)) ** 2 / np.array(exp_bins)).sum())
    p_value = _chi2_sf(chi2, len(obs_bins) - 1)
    return PoissonGof(
        mean=mu, p_value=p_value, n_samples=samples, n_bins=len(obs_bins)
    )


@dataclass(frozen=True)
class PoissonWhResult:
    n_terms: int
    estimate: EstimateWithError
    wh_interval: RationalInterval
    majorant: float
    lost_mass: Fraction

    @property
    def below_majorant(self) -> bool:
        return self.estimate.below(self.majorant)


def _swap_weights(
    model: PoissonModel, swap: FinitarySwap, a: LevelSet, n_terms: int
) -> tuple[np.ndarray, int]:
    """Signed window x N matrix of the changes in the count of A, and the
    number of (window level, time) pairs whose time-i image leaves the tower.

    Column i - 1 is +1 on the window levels x that the swap conjugated to
    time i moves into A and -1 on those it moves out of A.  Only x with
    x + i on the swap's support can move, so the walk visits just the pairs
    of a window level x and a support level y with 1 <= y - x <= N.
    """
    a_slots = model.member_slots(a)
    a_idx = model.indices[a_slots]
    in_a = np.zeros(model.n_levels, dtype=bool)
    in_a[a_slots] = True
    i, k = swap.pair
    # copies of the two levels alternate: copies of one stage-`swap.stage`
    # level lie at least that tower's height apart
    supp = _refined(model.params, LevelSet(swap.stage, swap.pair), model.depth)
    terms = np.arange(1, n_terms + 1).astype(object)
    tops = np.searchsorted(model.indices, model.stage.height - terms)
    lost_levels = int((model.n_levels - tops).sum())
    signed = np.zeros((model.n_levels, n_terms), dtype=np.int8)
    for y, step in ((supp[0::2], k - i), (supp[1::2], i - k)):
        first = np.searchsorted(y, model.indices, side="right")
        counts = np.searchsorted(y, model.indices + n_terms, side="right") - first
        slots = np.repeat(np.arange(model.n_levels), counts)
        y = y[np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(slots))]
        x = model.indices[slots]
        _, after = _locate(a_idx, x + step)  # the swap moves x by step
        moved = in_a[slots] != after
        cols = (y - x - 1).astype(np.int64)
        signed[slots[moved], cols[moved]] = np.where(after[moved], 1, -1)
    return signed, lost_levels


def poisson_wh_experiment(
    model: PoissonModel,
    swap: FinitarySwap,
    a: LevelSet,
    n_terms: int,
    samples: int,
    *,
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> PoissonWhResult:
    """Averaged count disturbance of the conjugated swaps, with its certificate.

    For each i <= N the swap is conjugated to time i, a configuration is pushed
    through it, and the count of A is compared with the undisturbed count of
    the same configuration.  The average of |difference| over i is estimated;
    twice the exact Cesaro average of mu(T^i A intersect supp S) majorizes it.
    """
    if n_terms < 1:
        raise ValueError("need at least one Cesaro term")
    signed, lost_levels = _swap_weights(model, swap, a, n_terms)
    lost_mass = model.level_width * lost_levels

    counts = _weighted_counts(model, signed)

    def stat(rng: np.random.Generator, size: int) -> float:
        diffs = counts(rng, size)
        # in place: a second size x n_terms array per batch costs more than the product
        return (np.abs(diffs, out=diffs).sum(axis=1) / n_terms).mean()

    estimate = batch_estimate(stat, samples, seed=seed, jobs=jobs)
    interval = wh_defect(model.params, swap, a, n_terms, model.depth)
    return PoissonWhResult(
        n_terms=int(n_terms),
        estimate=estimate,
        wh_interval=interval,
        majorant=2.0 * float(interval.hi),
        lost_mass=lost_mass,
    )
