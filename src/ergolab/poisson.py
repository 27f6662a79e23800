"""Poisson point configurations over a cutting-and-stacking base.

A model truncates the (typically infinite-measure) tower to a finite window
of depth-J levels.  Every level carries independent Poisson mass with mean
equal to its exact rational width, so any counting observable over window
levels has a known law and covariances reduce to exact level-set measures
from the tower arithmetic.  Shifting a configuration moves each point up the
tower by the step map; points whose image leaves the materialized tower are
tracked as lost mass rather than silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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


class PoissonModel:
    """Finite observation window of a tower, with Poisson mass per level."""

    def __init__(self, params: ConstructionParams, window: LevelSet, depth: int):
        self.params = params
        self.depth = int(depth)
        self.stage = build_stage(params, self.depth)
        refined = refine_set(params, window, self.depth)
        if len(refined.indices) > MAX_WINDOW_LEVELS:
            raise ValueError(
                f"window refines to {len(refined.indices)} levels, "
                f"cap is {MAX_WINDOW_LEVELS}"
            )
        self.window = refined
        self.indices = list(refined.indices)
        self.slot = {x: i for i, x in enumerate(self.indices)}
        self.level_width = self.stage.level_width
        self.width_float = float(self.level_width)

    @property
    def n_levels(self) -> int:
        return len(self.indices)

    @property
    def intensity(self) -> Fraction:
        return self.level_width * self.n_levels

    def member_slots(self, levels: LevelSet) -> list:
        """Window slots of a level set; every refined index must be observed."""
        refined = refine_set(self.params, levels, self.depth)
        slots = []
        for x in refined.indices:
            if x not in self.slot:
                raise ValueError("level set is not contained in the window")
            slots.append(self.slot[x])
        return slots

    def sample_level_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n_levels) matrix of independent per-level point counts."""
        return rng.poisson(self.width_float, size=(size, self.n_levels)).astype(float)

    def sample_configuration(self, rng: np.random.Generator) -> list:
        """One configuration as (level index, intra-level offset) pairs."""
        counts = rng.poisson(self.width_float, size=self.n_levels)
        points = []
        for slot, c in enumerate(counts):
            for off in rng.random(int(c)):
                points.append((self.indices[slot], float(off)))
        return points


@dataclass(frozen=True)
class PoissonCovariance:
    shift: int
    estimate: EstimateWithError
    exact: RationalInterval
    lost_mass: Fraction

    @property
    def within_five_se(self) -> bool:
        pad = 5.0 * self.estimate.stderr
        return (
            float(self.exact.lo) - pad
            <= self.estimate.value
            <= float(self.exact.hi) + pad
        )


def poisson_count_covariance(
    model: PoissonModel,
    n: int,
    a: LevelSet,
    b: LevelSet,
    samples: int,
    *,
    seed: int = 0,
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
    a_set = frozenset(refine_set(model.params, a, model.depth).indices)
    model.member_slots(a)
    slots_b = model.member_slots(b)
    height = model.stage.height
    shifted_slots = [
        model.slot[x] for x in model.indices if (x + n) in a_set
    ]
    lost_levels = sum(
        1 for x in a_set if not (0 <= x - n < height and (x - n) in model.slot)
    )
    lost_mass = model.level_width * lost_levels
    exact = correlation_interval(model.params, -n, a, b, model.depth)

    sel_a = np.array(sorted(shifted_slots), dtype=np.intp)
    sel_b = np.array(sorted(slots_b), dtype=np.intp)

    def stat(rng: np.random.Generator, size: int) -> float:
        counts = model.sample_level_counts(rng, size)
        na = counts[:, sel_a].sum(axis=1)
        nb = counts[:, sel_b].sum(axis=1)
        return float(np.cov(na, nb, ddof=1)[0, 1])

    estimate = batch_statistic_estimate(
        stat,
        batch_size=max(2, samples // n_batches),
        n_batches=n_batches,
        seed=seed,
        jobs=jobs,
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

    The count is assembled by summing per-level draws, so the test exercises
    the construction path rather than a direct Poisson draw of the total.
    The mean is the exact measure, not fitted, so no degree of freedom is
    deducted for it.
    """
    from scipy import stats  # deferred: scipy.stats dominates import time

    slots = np.array(sorted(model.member_slots(window)), dtype=np.intp)
    mu = float(model.level_width * len(slots))
    rng = np.random.default_rng([int(seed), 0x90F])
    upper = int(stats.poisson.isf(1e-9, mu)) + 2
    observed = np.zeros(upper + 1, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        size = min(chunk, remaining)
        totals = model.sample_level_counts(rng, size)[:, slots].sum(axis=1)
        observed += np.bincount(
            np.minimum(totals.astype(np.int64), upper), minlength=upper + 1
        )
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
        return self.estimate.value <= self.majorant + 5.0 * self.estimate.stderr


def poisson_wh_experiment(
    model: PoissonModel,
    swap: FinitarySwap,
    a: LevelSet,
    n_terms: int,
    samples: int,
    *,
    seed: int = 0,
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
    a_set = frozenset(refine_set(model.params, a, model.depth).indices)
    model.member_slots(a)
    lo, hi, delta = swap_index_map(model.params, swap, model.depth)
    height = model.stage.height

    plus, minus = [], []
    lost_levels = 0
    for i in range(1, n_terms + 1):
        p_i, m_i = [], []
        for x in model.indices:
            y = x + i
            if not 0 <= y < height:
                lost_levels += 1
                continue
            if y in lo:
                y += delta
            elif y in hi:
                y -= delta
            z = y - i
            in_a_before = x in a_set
            in_a_after = z in a_set
            if in_a_after and not in_a_before:
                p_i.append(model.slot[x])
            elif in_a_before and not in_a_after:
                m_i.append(model.slot[x])
        plus.append(np.array(p_i, dtype=np.intp))
        minus.append(np.array(m_i, dtype=np.intp))
    lost_mass = model.level_width * lost_levels

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = model.sample_level_counts(rng, size)
        acc = np.zeros(size)
        for p_i, m_i in zip(plus, minus):
            diff = counts[:, p_i].sum(axis=1) - counts[:, m_i].sum(axis=1)
            acc += np.abs(diff)
        return acc / n_terms

    estimate = batch_estimate(
        sampler,
        batch_size=max(1, samples // n_batches),
        n_batches=n_batches,
        seed=seed,
        jobs=jobs,
    )
    interval = wh_defect(model.params, swap, a, n_terms, model.depth)
    return PoissonWhResult(
        n_terms=int(n_terms),
        estimate=estimate,
        wh_interval=interval,
        majorant=2.0 * float(interval.hi),
        lost_mass=lost_mass,
    )
