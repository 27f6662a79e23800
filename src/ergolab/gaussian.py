"""Stationary Gaussian sequences driven by a block rotation.

The sequence is X_i = <U^i f, xi> with xi a standard normal vector and U the
block rotation given by its angles, so every finite block of X values is an
exact linear image of a Gaussian and the covariance E[X_0 X_n] equals
<U^n f, f> to machine precision.  Every block of k linear functionals of xi
is drawn one way, through `rank_factor`: with R the triangular factor of a QR
of the k x d functional rows, R^T z for z standard normal in min(k, d)
coordinates has exactly the law of the rows applied to xi, so sampling stays
exact in law while drawing min(k, d) normals per sample instead of d.
Hermite polynomials in the X's then have closed-form cross moments, which
the Monte-Carlo estimators here are tested against.

`gaussian_wh_experiment` reads only the plane P that S turns: its exact gap
takes c_i = |f|^2 - (1 - cos theta)|P U^i f|^2, and its statistic draws four
functionals of xi (degree 1) or the n orbit rows and two plane rows (degree 2).

numpy is imported on first call, not with the module, so the exact
commands never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from .mc import EstimateWithError, batch_estimate
from .operators import CesaroDefect, FiniteRankPerturbation, conjugate_defect, rotate

__all__ = [
    "GaussianModel",
    "rank_factor",
    "hermite_value",
    "HermiteCorrelation",
    "gaussian_hermite_correlation",
    "orthant_probability",
    "TripleMixingEntry",
    "triple_correlation_weakmix_check",
    "GaussianWhResult",
    "gaussian_wh_experiment",
]

_COLUMNS = 256  # samples per slice of the wh-gaussian statistic


@dataclass(frozen=True)
class GaussianModel:
    """Block rotation, given by its angle vector, plus a unit cyclic vector."""

    angles: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        import numpy as np
        vec = np.asarray(self.vector, dtype=float)
        if vec.ndim != 1 or vec.shape[0] != self.dim:
            raise ValueError("vector does not match the operator dimension")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValueError("cyclic vector must have unit norm")

    @property
    def dim(self) -> int:
        return 2 * len(self.angles)

    def rho(self, n: int) -> float:
        """Covariance E[X_0 X_n] = <U^n f, f>, exact up to roundoff."""
        return float(self.orbit_rows([n])[0] @ self.vector)

    def orbit_rows(self, shifts: Sequence[int]) -> np.ndarray:
        """Rows U^s f for the requested shifts (repeats allowed), in closed
        form: each row is the one `rho` takes for its shift, bit for bit."""
        return rotate(self.angles, self.vector, shifts)


def rank_factor(rows: np.ndarray) -> np.ndarray:
    """F = R^T for k x d rows with rows^T = Q R, so F F^T = rows rows^T.

    rows @ xi = F (Q^T xi) and Q^T xi is standard normal for xi standard
    normal in R^d, so F @ rng.standard_normal((F.shape[1], size)) draws the
    law of rows @ xi from min(k, d) latent normals per sample.  Rank-deficient
    rows are fine: R then has zero rows and F F^T is still rows rows^T.
    """
    import numpy as np
    return np.linalg.qr(np.asarray(rows, dtype=float).T, mode="r").T


def hermite_value(k: int, x: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k, k = 1, 2 or 3, elementwise.

    Each degree is written out in the operation order of numpy's Clenshaw
    recursion (`numpy.polynomial.hermite_e.hermeval`), so it agrees with it
    bit for bit, signed zeros included.
    """
    import numpy as np
    if k not in (1, 2, 3):
        raise ValueError("degree must be 1, 2 or 3")
    x = np.asarray(x, dtype=float)
    if k == 1:
        return 0.0 + x
    if k == 2:
        return -1.0 + x * x
    return (0.0 - x) + (x * x - 2.0) * x


@dataclass(frozen=True)
class HermiteCorrelation:
    degree: int
    shift: int
    estimate: EstimateWithError
    prediction: float
    rho: float

    @property
    def within_five_se(self) -> bool:
        return self.estimate.within(self.prediction)


def gaussian_hermite_correlation(
    model: GaussianModel,
    k: int,
    n: int,
    samples: int,
    *,
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> HermiteCorrelation:
    """Monte-Carlo E[He_k(X_0) He_k(X_n)] against the k! rho^n closed form."""
    if k not in (1, 2, 3):
        raise ValueError("degree must be 1, 2 or 3")
    rows = model.orbit_rows([0, n])
    factor = rank_factor(rows)

    def stat(rng: np.random.Generator, size: int) -> float:
        x = factor @ rng.standard_normal((factor.shape[1], size))
        return (hermite_value(k, x[0]) * hermite_value(k, x[1])).mean()

    estimate = batch_estimate(stat, samples, seed=seed, jobs=jobs)
    rho = float(rows[1] @ model.vector)  # model.rho(n), from the rows sampled
    return HermiteCorrelation(
        degree=k,
        shift=int(n),
        estimate=estimate,
        prediction=math.factorial(k) * rho**k,
        rho=rho,
    )


def orthant_probability(r12: float, r13: float, r23: float) -> float:
    """P(X<=0, Y<=0, Z<=0) for standard trivariate normals, closed form."""
    clipped = []
    for r in (r12, r13, r23):
        if abs(r) > 1.0 + 1e-9:
            raise ValueError("correlations must lie in [-1, 1]")
        clipped.append(min(1.0, max(-1.0, r)))
    return 0.125 + sum(math.asin(r) for r in clipped) / (4 * math.pi)


@dataclass(frozen=True)
class TripleMixingEntry:
    m: int
    n: int
    rho_m: float
    rho_n: float
    rho_gap: float
    condition_met: bool
    failed_pairs: tuple
    estimate: EstimateWithError
    product: float
    exact: float

    @property
    def within_five_se(self) -> bool:
        return self.estimate.within(self.exact)


def triple_correlation_weakmix_check(
    model: GaussianModel,
    ms: Sequence[int],
    ns: Sequence[int],
    *,
    threshold: float = 0.02,
    samples: int = 10**5,
    seed: int = 0,
    jobs: int = 1,
) -> list[TripleMixingEntry]:
    """Triple-correlation deviations for events {X <= 0} at shifted times.

    For each pair (m, n) the three pairwise covariances are computed exactly
    from the operator; entries where any exceeds the threshold are flagged
    rather than dropped, since large pairwise correlation voids the premise
    that the triple correlation should factor.  The closed-form orthant
    probability is attached as the oracle for the estimate itself.
    """
    import numpy as np
    if len(ms) != len(ns):
        raise ValueError("shift sequences must have equal length")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    # one closed-form call for every shift of the run; row @ f is exactly model.rho
    shifts = sorted({0, *ms, *ns, *(n - m for m, n in zip(ms, ns))})
    rows = dict(zip(shifts, model.orbit_rows(shifts)))
    entries = []
    for idx, (m, n) in enumerate(zip(ms, ns)):
        rho_m, rho_n, rho_gap = (
            float(rows[s] @ model.vector) for s in (m, n, n - m)
        )
        failed = tuple(
            label
            for label, r in (("m", rho_m), ("n", rho_n), ("n-m", rho_gap))
            if abs(r) > threshold
        )
        factor = rank_factor(np.stack([rows[0], rows[m], rows[n]]))

        def stat(rng: np.random.Generator, size: int) -> float:
            x = factor @ rng.standard_normal((factor.shape[1], size))
            return np.count_nonzero((x[0] <= 0.0) & (x[1] <= 0.0) & (x[2] <= 0.0)) / size

        estimate = batch_estimate(stat, samples, seed=(seed, idx), jobs=jobs)
        entries.append(
            TripleMixingEntry(
                m=int(m),
                n=int(n),
                rho_m=rho_m,
                rho_n=rho_n,
                rho_gap=rho_gap,
                condition_met=not failed,
                failed_pairs=failed,
                estimate=estimate,
                product=0.125,
                exact=orthant_probability(rho_m, rho_n, rho_gap),
            )
        )
    return entries


@dataclass(frozen=True)
class GaussianWhResult:
    """Cesaro-averaged degree-k moment gap between conjugated and plain orbits.

    The conjugated observable is Y_i = <U^i f, S xi>; the statistic averages
    E[He_k(Y_i) He_k(X_i)] - E[He_k(X_i)^2] over i = 1..N.  Its exact value is
    the average of k!((c_i)^k - 1) with c_i = <U^i f, S U^i f> = |f|^2 -
    (1 - cos theta)|P U^i f|^2 for P the plane S turns, |f|^2 - (1 - cos theta)
    |P f|^2 at every i if P is a rotation block (the default [6, 7]); for k = 1
    Cauchy-Schwarz bounds the distance by the conjugation defect itself.
    """

    degree: int
    n_terms: int
    estimate: EstimateWithError
    exact: float
    majorant: float
    operator_defect: CesaroDefect

    @property
    def tracks_exact(self) -> bool:
        return self.estimate.within(self.exact)

    @property
    def below_majorant(self) -> bool:
        return self.estimate.within(-self.majorant, self.majorant)


def _wh_gap_functionals(rows: np.ndarray, pert: FiniteRankPerturbation) -> np.ndarray:
    """The 4 x d matrix A whose image v = A xi gives the degree-1 sample.

    With W = pert.defect_factor(rows), Y_m - X_m = W_m z for z the plane
    coordinates of xi, so (1/N) sum_m X_m (Y_m - X_m) = z . (M^T xi) with
    M = rows^T W / N: rows 0-1 of A are the plane, rows 2-3 are M^T, and
    the sample is v_0 v_2 + v_1 v_3.
    """
    import numpy as np
    m = rows.T @ pert.defect_factor(rows) / len(rows)
    return np.vstack([pert.plane.T, m.T])


def gaussian_wh_experiment(
    model: GaussianModel,
    pert: FiniteRankPerturbation,
    k: int,
    n_terms: int,
    samples: int,
    *,
    seed: int | tuple[int, ...] = 0,
    jobs: int = 1,
) -> GaussianWhResult:
    import numpy as np
    if k not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if pert.dim != model.dim:
        raise ValueError("perturbation dimension does not match the model")
    if n_terms < 1:
        raise ValueError("need at least one Cesaro term")
    rows = model.orbit_rows(range(1, n_terms + 1))

    pu = rows @ pert.plane  # each P U^i f, in the plane's two coordinates
    c_series = np.dot(model.vector, model.vector) - (1.0 - math.cos(pert.angle)) * (pu * pu).sum(1)
    exact = float(np.mean(math.factorial(k) * (c_series**k - 1.0)))

    defect = conjugate_defect(model.angles, pert, model.vector, n_terms)
    if k == 1:
        majorant = defect.defect
        factor = rank_factor(_wh_gap_functionals(rows, pert))

        def stat(rng: np.random.Generator, size: int) -> float:
            v = factor @ rng.standard_normal((factor.shape[1], size))
            return (v[0] * v[2] + v[1] * v[3]).mean()

    else:
        majorant = math.factorial(k) * k * defect.majorant1
        w = pert.defect_factor(rows)
        # X rows over the plane rows, whose image z is xi's plane coordinates;
        # factored only where drawing fewer normals saves more than the QR costs
        factor = np.vstack([rows, pert.plane.T])
        if samples * (model.dim - len(factor)) > model.dim * len(factor):
            factor = rank_factor(factor)
        ends = np.cumsum([0, factor.shape[1], n_terms + 2, n_terms])  # latent, X with z, He2(X)

        def stat(rng: np.random.Generator, size: int) -> float:
            # per-sample Cesaro means first: one mean over all entries rounds differently
            means = np.empty(size)
            # Each slice of _COLUMNS samples draws its own latent block, so no
            # array grows with the batch.  The slice's arrays share one work
            # block made once per batch: freeing separate or per-slice arrays
            # makes the allocator trim the heap and fault it in anew.  The last
            # slice also takes the remainder, since a narrow ragged product
            # can round apart from the full-width one (OpenBLAS does), and it
            # goes first.
            n_slices = max(1, size // _COLUMNS)
            edges = [i * _COLUMNS for i in range(n_slices)] + [size]
            work = np.empty(ends[-1] * (size - edges[-2]))
            for lo, hi in reversed(list(zip(edges, edges[1:]))):
                c = hi - lo
                latent, xz, hx = (work[a * c : b * c].reshape(-1, c) for a, b in zip(ends, ends[1:]))
                rng.standard_normal(out=latent)
                # Y = X + W z in place, then hx * (He2(Y) - hx), He2(t) = t * t - 1
                np.matmul(factor, latent, out=xz)
                x = xz[:n_terms]
                np.multiply(x, x, out=hx)
                hx -= 1.0
                x += w @ xz[n_terms:]
                np.multiply(x, x, out=x)
                x -= 1.0
                x -= hx
                x *= hx
                np.mean(x, axis=0, out=means[lo:hi])
            return means.mean()

    estimate = batch_estimate(stat, samples, seed=seed, jobs=jobs)
    return GaussianWhResult(
        degree=k,
        n_terms=int(n_terms),
        estimate=estimate,
        exact=exact,
        majorant=majorant,
        operator_defect=defect,
    )
