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
the points through one weighted sum over their window slots.  Shifting a
configuration moves each point up the tower by the step map; points whose
image leaves the materialized tower are tracked as lost mass rather than
silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .mc import EstimateWithError, batch_estimate, batch_statistic_estimate
from .tower import (
    ConstructionParams,
    FinitarySwap,
    LevelSet,
    RationalInterval,
    build_stage,
    correlation_interval,
    refine_set,
    supp_level_set,
    swap_index_map,
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

MAX_WINDOW_LEVELS = 200_000


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


def _exact_indices(levels: LevelSet) -> np.ndarray:
    return np.array(levels.indices, dtype=object)


def _refined_size(params: ConstructionParams, levels: LevelSet, depth: int) -> int:
    """How many depth-`depth` levels `levels` refines to, without refining."""
    return len(levels) * prod(
        build_stage(params, t).cuts for t in range(levels.stage, depth)
    )


def _check_cap(what: str, size: int) -> None:
    if size > MAX_WINDOW_LEVELS:
        raise ValueError(f"{what} refines to {size} levels, cap is {MAX_WINDOW_LEVELS}")


class PoissonModel:
    """Finite observation window of a tower, with Poisson mass per level."""

    def __init__(self, params: ConstructionParams, window: LevelSet, depth: int):
        self.params = params
        self.depth = int(depth)
        _check_cap("window", _refined_size(params, window, self.depth))
        self.stage = build_stage(params, self.depth)
        # sorted window indices as Python ints: slot s holds level indices[s]
        self.indices = _exact_indices(refine_set(params, window, self.depth))
        self.level_width = self.stage.level_width

    @property
    def n_levels(self) -> int:
        return len(self.indices)

    @property
    def intensity(self) -> Fraction:
        return self.level_width * self.n_levels

    def member_slots(self, levels: LevelSet) -> np.ndarray:
        """Window slots of a level set; every refined index must be observed."""
        if _refined_size(self.params, levels, self.depth) > self.n_levels:
            raise ValueError("level set is not contained in the window")
        slots, found = _locate(
            self.indices, _exact_indices(refine_set(self.params, levels, self.depth))
        )
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
        totals = rng.poisson(float(self.intensity), size=size)
        owner = np.repeat(np.arange(size), totals)
        return owner, rng.integers(self.n_levels, size=owner.size)

    def weighted_counts(
        self, rng: np.random.Generator, size: int, weights: np.ndarray
    ) -> np.ndarray:
        """(size, k) per-configuration sums of the weight rows of its points.

        `weights` is an n_levels x k matrix, so an indicator column gives the
        count of a level set.  Points on all-zero rows are dropped before
        the sums are taken.
        """
        owner, slot = self.sample_points(rng, size)
        keep = weights.any(axis=1)[slot]
        owner, slot = owner[keep], slot[keep]
        k = weights.shape[1]
        sums = np.zeros((size, k), dtype=np.result_type(weights, np.int64))
        cells = (owner[:, None] * k + np.arange(k)).ravel()
        np.add.at(sums.reshape(-1), cells, weights[slot].astype(sums.dtype).ravel())
        return sums

    def sample_configuration(self, rng: np.random.Generator) -> list:
        """One configuration as (level index, intra-level offset) pairs."""
        _, slots = self.sample_points(rng, 1)
        offsets = rng.random(len(slots))
        return [(self.indices[s], float(off)) for s, off in zip(slots, offsets)]


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
    n_batches: int = 40,
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

    def stat(rng: np.random.Generator, size: int) -> float:
        counts = model.weighted_counts(rng, size, weights)
        return float(np.cov(counts[:, 0], counts[:, 1], ddof=1)[0, 1])

    estimate = batch_statistic_estimate(
        stat, samples, n_batches=n_batches, seed=seed, jobs=jobs
    )
    return PoissonCovariance(
        shift=n, estimate=estimate, exact=exact, lost_mass=lost_mass
    )


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
    chunk: int = 4096,
) -> PoissonGof:
    """Chi-square test of the window count against its exact Poisson law.

    The count is assembled from per-point slots, the points that fall in the
    window's levels, so the test exercises the construction path rather
    than a direct Poisson draw of the total.
    The mean is the exact measure, not fitted, so no degree of freedom is
    deducted for it.
    """
    from scipy import stats  # deferred: scipy.stats dominates import time

    slots = model.member_slots(window)
    member = np.zeros((model.n_levels, 1), dtype=np.int8)
    member[slots] = 1
    mu = float(model.level_width * len(slots))
    rng = np.random.default_rng([int(seed), 0x90F])
    upper = int(stats.poisson.isf(1e-9, mu)) + 2
    observed = np.zeros(upper + 1, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        size = min(chunk, remaining)
        totals = model.weighted_counts(rng, size, member)[:, 0]
        observed += np.bincount(np.minimum(totals, upper), minlength=upper + 1)
        remaining -= size
    expected = stats.poisson.pmf(np.arange(upper + 1), mu) * samples
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
    p_value = float(stats.chi2.sf(chi2, df=len(obs_bins) - 1))
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
    supp = supp_level_set(model.params, swap)
    _check_cap("swap support", _refined_size(model.params, supp, model.depth))
    lo, hi, delta = swap_index_map(model.params, swap, model.depth)
    terms = np.arange(1, n_terms + 1).astype(object)
    tops = np.searchsorted(model.indices, model.stage.height - terms)
    lost_levels = int((model.n_levels - tops).sum())
    signed = np.zeros((model.n_levels, n_terms), dtype=np.int8)
    for support, step in ((lo, delta), (hi, -delta)):
        y = np.array(sorted(support), dtype=object)
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
    n_batches: int = 40,
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

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        diffs = model.weighted_counts(rng, size, signed)
        return np.abs(diffs).sum(axis=1) / n_terms

    estimate = batch_estimate(
        sampler, samples, n_batches=n_batches, seed=seed, jobs=jobs
    )
    interval = wh_defect(model.params, swap, a, n_terms, model.depth)
    return PoissonWhResult(
        n_terms=int(n_terms),
        estimate=estimate,
        wh_interval=interval,
        majorant=2.0 * float(interval.hi),
        lost_mass=lost_mass,
    )
