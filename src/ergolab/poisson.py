"""Poisson point configurations over a cutting-and-stacking base.

A model truncates the (typically infinite-measure) tower to a finite window
of depth-J levels, each of the same exact width.  In the suspension the
point counts on disjoint sets of levels are independent Poisson variables
whose means are those sets' exact measures (the colouring theorem: Kingman,
*Poisson Processes*, 1993; Roy, "Poisson suspensions and infinite ergodic
theory", ETDS 29, 2009), so any counting observable over window levels has
a known law and covariances reduce to exact level-set measures from the
tower arithmetic.  Every statistic reads the configurations through one
prepared kernel: a statistic weighs each window level by an integer row,
levels that share a row are counted together, and a batch draws one
Poisson count per distinct nonzero row, with mean the level width times how
many levels carry it, followed by one small product with the rows.  Shifting
a configuration moves each point up the tower by the step map; points whose
image leaves the materialized tower are tracked as lost mass rather than
silently dropped.

The window and the sets counted in it are refined to the model depth under
`refine_set`'s cap.  A finitary swap's support is not refined whole: only its
depth copies that a conjugate within the Cesaro range can meet are listed,
under the same cap.

numpy is imported on first call, not with the module, so the exact
commands never load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, erfc, exp, lgamma, log, sqrt
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

from .mc import EstimateWithError, batch_estimate
from .tower import (
    ConstructionParams,
    FinitarySwap,
    LevelSet,
    RationalInterval,
    _refined_copies,
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
    import numpy as np
    slots = np.searchsorted(indices, values)
    found = np.zeros(values.shape, dtype=bool)
    inside = slots < len(indices)
    found[inside] = indices[slots[inside]] == values[inside]
    return slots, found


def _refined(params: ConstructionParams, levels: LevelSet, depth: int) -> np.ndarray:
    import numpy as np
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


def _row_means(model: PoissonModel, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nonzero rows of `weights`, as float64, and their Poisson means.

    `weights` holds one integer row per window slot, for distinct slots;
    slots it leaves out weigh nothing.  The points on the m slots that share
    a row are one Poisson count with mean level_width * m, an exact Fraction
    rounded once.
    """
    import numpy as np
    nonzero = weights[weights.any(axis=1)]
    distinct, times = np.unique(nonzero, axis=0, return_counts=True)
    means = np.array([float(model.level_width * int(m)) for m in times])
    return means, distinct.astype(np.float64)


def _weighted_counts(
    model: PoissonModel, weights: np.ndarray
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Prepared (size, k) per-configuration sums of the weight rows of its points.

    `weights` is as for `_row_means`, so an indicator column gives the count
    of a level set.  A batch draws one Poisson count per configuration and
    distinct nonzero row and returns the counts times the rows as float64.
    The sums are integers far below 2**53, so they are exact.
    """
    import numpy as np
    means, rows = _row_means(model, weights)

    def counts(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(means, size=(size, len(means))).astype(np.float64) @ rows

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
    import numpy as np
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

    The count comes from the statistics' kernel, `_weighted_counts`.  Every
    level of the window carries the same row, so the count is a single
    Poisson draw whose mean is the kernel's rounding of the window's exact
    measure: the test checks the rows' means, and the kernel's draw, against
    the exact law.
    The mean is the exact measure, not fitted, so no degree of freedom is
    deducted for it.  The p-value is the closed-form chi-square tail for
    integer degrees of freedom.
    """
    import numpy as np
    slots = model.member_slots(window)
    count = _weighted_counts(model, np.ones((len(slots), 1), dtype=np.int8))
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
) -> tuple[np.ndarray, np.ndarray, int]:
    """Window slots whose count of A some conjugated swap changes, their
    signed rows of those changes, and the number of (window level, time)
    pairs whose time-i image leaves the tower.

    Entry i - 1 of a slot's row is +1 if the swap conjugated to time i moves
    its level x into A, -1 if it moves x out of A, and 0 otherwise; the
    other slots' rows are all zero and are not built.  Only x with x + i on
    the swap's support can move, and a support copy moves x to x + step
    whatever i is, so the walk visits just the pairs of a window level x
    that such a move takes across A's boundary and a support level y with
    1 <= y - x <= N.  Each swap level's depth copies are listed only in the
    union of the ranges [x + 1, x + N] over window levels x, under
    `refine_set`'s cap on the number listed; the support is never refined
    whole.
    """
    import numpy as np
    a_slots = model.member_slots(a)
    a_idx = model.indices[a_slots]
    in_a = np.zeros(model.n_levels, dtype=bool)
    in_a[a_slots] = True
    spans = []  # an empty window lists no copy
    if model.n_levels:  # a gap wider than N between window levels splits the reach
        cuts = np.flatnonzero(np.diff(model.indices) > n_terms)
        firsts, lasts = np.r_[0, cuts + 1], np.r_[cuts, model.n_levels - 1]
        spans = list(zip(model.indices[firsts] + 1, model.indices[lasts] + n_terms + 1))
    i, k = swap.pair
    terms = np.arange(1, n_terms + 1).astype(object)
    tops = np.searchsorted(model.indices, model.stage.height - terms)
    lost_levels = int((model.n_levels - tops).sum())
    slots, cols, signs = [], [], []
    for level, step in ((i, k - i), (k, i - k)):
        y = np.array(
            _refined_copies(model.params, LevelSet(swap.stage, (level,)), model.depth, spans),
            dtype=object,
        )
        first = np.searchsorted(y, model.indices, side="right")
        counts = np.searchsorted(y, model.indices + n_terms, side="right") - first
        near = np.flatnonzero(counts)
        _, after = _locate(a_idx, model.indices[near] + step)  # the swap moves x by step
        crossed = in_a[near] != after
        moved = near[crossed]
        counts = counts[moved]
        pair_slots = np.repeat(moved, counts)
        starts = np.repeat(first[moved] - np.cumsum(counts) + counts, counts)
        y = y[starts + np.arange(len(pair_slots))]
        slots.append(pair_slots)
        cols.append((y - model.indices[pair_slots] - 1).astype(np.int64))
        signs.append(np.repeat(np.where(after[crossed], 1, -1), counts))
    nonzero, row = np.unique(np.concatenate(slots), return_inverse=True)
    signed = np.zeros((len(nonzero), n_terms), dtype=np.int8)
    signed[row, np.concatenate(cols)] = np.concatenate(signs)
    return nonzero, signed, lost_levels


def _wh_statistic(
    model: PoissonModel, signed: np.ndarray
) -> Callable[[np.random.Generator, int], float]:
    """Prepared batch mean, over configurations, of the average |change| of
    the count of A over the times, from `_swap_weights`' signed rows.

    Times whose columns are equal change every configuration's count alike,
    so the sum over times takes one sum per distinct column, weighed by how
    many times share it.  Kept in first-appearance order, the distinct
    columns order the slots' rows as the whole rows do (two rows first differ
    where a column first appears), so a batch draws what the whole rows
    would; the per-configuration sums are exact integers, so the statistic
    is the whole rows' statistic too.
    """
    import numpy as np
    n_terms = signed.shape[1]
    _, first, times = np.unique(signed, axis=1, return_index=True, return_counts=True)
    order = np.argsort(first)
    counts = _weighted_counts(model, signed[:, first[order]])
    times = times[order].astype(np.float64)

    def stat(rng: np.random.Generator, size: int) -> float:
        diffs = counts(rng, size)
        return ((np.abs(diffs, out=diffs) @ times) / n_terms).mean()

    return stat


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
    _, signed, lost_levels = _swap_weights(model, swap, a, n_terms)
    lost_mass = model.level_width * lost_levels
    estimate = batch_estimate(_wh_statistic(model, signed), samples, seed=seed, jobs=jobs)
    interval = wh_defect(model.params, swap, a, n_terms, model.depth)
    return PoissonWhResult(
        n_terms=int(n_terms),
        estimate=estimate,
        wh_interval=interval,
        majorant=2.0 * float(interval.hi),
        lost_mass=lost_mass,
    )
