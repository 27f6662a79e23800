"""Finite-dimensional orthogonal models for Cesaro-average experiments.

The operator U is a block rotation given by its angle vector: U^s turns block
k by s * theta_k, so `rotate` applies any power in closed form, with no
matrix and no orbit walk.  A small finite-rank perturbation class supports
the conjugation experiments, where the interesting quantity is how far the
time average of an orbit moves under a rank-two rotation S = I + Q(R - I)Q^T
of one coordinate plane, and how cheaply that motion can be certified from
above.

numpy is imported on first call, not with the module, so the exact
commands never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "make_rotation_operator",
    "rotate",
    "random_unit_vector",
    "uniform_unit_vector",
    "FiniteRankPerturbation",
    "vector_with_plane_mass",
    "CesaroDefect",
    "conjugate_defect",
]

# array elements per block of `conjugate_defect`, so its memory grows with
# neither N nor the dimension
_BLOCK_ELEMENTS = 1 << 16


def make_rotation_operator(dim: int) -> np.ndarray:
    """Angles of the block-diagonal plane rotation on an even-dimensional space.

    Block k (coordinates 2k and 2k + 1) turns by 2*pi*frac((k + 1)*sqrt(2)):
    equidistributed and far from every turn of short rational period, so the
    averaging experiments equidistribute slowly instead of repeating.
    """
    import numpy as np
    if dim < 2 or dim % 2:
        raise ValueError("rotation operator needs an even dimension >= 2")
    frac = np.mod(np.arange(1, dim // 2 + 1, dtype=float) * math.sqrt(2.0), 1.0)
    return 2.0 * math.pi * frac


def rotate(angles: np.ndarray, vecs: np.ndarray, shifts) -> np.ndarray:
    """Rows U^s v, one per shift s: block k of v turned by s * theta_k.

    `vecs` is one vector, shared by every shift, or one row per shift.  Each
    row depends only on its own shift and vector, so repeated shifts give
    identical rows, and a shift of 10^9 costs what a shift of 1 does.
    """
    import numpy as np
    turns = np.multiply.outer(np.asarray(shifts, dtype=float), angles)
    v = np.asarray(vecs)
    x, y = v[..., 0::2], v[..., 1::2]
    rows = np.empty((len(turns), 2 * len(angles)))
    part = np.cos(turns)
    np.multiply(part, x, out=rows[:, 0::2])
    np.multiply(part, y, out=rows[:, 1::2])
    np.sin(turns, out=turns)
    rows[:, 0::2] -= np.multiply(turns, y, out=part)
    rows[:, 1::2] += np.multiply(turns, x, out=part)
    return rows


def random_unit_vector(dim: int, seed: int = 0) -> np.ndarray:
    import numpy as np
    rng = np.random.default_rng([int(seed), 0xF1])
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def uniform_unit_vector(dim: int) -> np.ndarray:
    """Equal mass on every coordinate; spreads weight over all blocks."""
    import numpy as np
    return np.full(dim, 1.0 / math.sqrt(dim))


class FiniteRankPerturbation:
    """Orthogonal S = I + Q(R - I)Q^T: a rotation by `angle` inside the plane
    of coordinates i and j of a `dim`-dimensional space.

    Q = [e_i, e_j], so S - I has rank two and operator norm exactly
    2|sin(angle/2)|.  Keeping the factored form lets a single application
    cost O(d) instead of a dense matvec.
    """

    def __init__(self, dim: int, i: int, j: int, angle: float):
        import numpy as np
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise ValueError("plane coordinates must be distinct and in range")
        self.dim = dim
        self.plane = np.zeros((dim, 2))
        self.plane[[i, j], [0, 1]] = 1.0
        self.angle = float(angle)
        c, s = math.cos(self.angle), math.sin(self.angle)
        self._r_minus_i = np.array([[c - 1.0, -s], [s, c - 1.0]])

    def apply_k(self, vec: np.ndarray) -> np.ndarray:
        """K vec for K = S - I; a (d, n) array maps column by column."""
        return self.plane @ (self._r_minus_i @ (self.plane.T @ vec))

    def defect_factor(self, rows: np.ndarray) -> np.ndarray:
        """W = rows @ Q(R - I), the n x 2 factor of rows @ (S - I) = W Q^T.

        So (rows @ S) xi - rows @ xi = W (xi_i, xi_j): the two coordinates
        of xi in the plane are all that conjugation adds.
        """
        return (rows @ self.plane) @ self._r_minus_i

    def plane_component_norm(self, vec: np.ndarray) -> float:
        import numpy as np
        return float(np.linalg.norm(self.plane.T @ vec))


def vector_with_plane_mass(
    dim: int, pert: FiniteRankPerturbation, delta: float, seed: int = 0
) -> np.ndarray:
    """Unit vector whose projection onto the perturbation plane has norm delta.

    The rest of the mass goes to a random direction orthogonal to the plane.
    When the plane is invariant under the operator this pins the projected
    orbit norm, and with it the cheap majorant, at exactly delta for all time.
    """
    import numpy as np
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    rng = np.random.default_rng([int(seed), 0xA7])
    q = pert.plane
    g = rng.standard_normal(dim)
    g -= q @ (q.T @ g)
    g /= np.linalg.norm(g)
    in_plane = q @ np.array([1.0, 0.0])
    return math.sqrt(max(0.0, 1.0 - delta * delta)) * g + delta * in_plane


@dataclass(frozen=True)
class CesaroDefect:
    """How far conjugation moves the Cesaro average, with two certificates.

    defect = ||f - (1/N) sum U^-i S U^i f||,
    majorant1 = (1/N) sum ||K U^i f||,
    majorant2 = (2/N) sum ||proj U^i f||  (projection onto the plane of K).
    The three are provably nondecreasing left to right; decay of majorant2
    certifies the averaged conjugates converge back to the identity on f.
    """

    defect: float
    majorant1: float
    majorant2: float
    n_terms: int


def conjugate_defect(
    angles: np.ndarray,
    pert: FiniteRankPerturbation,
    vec: np.ndarray,
    n_terms: int,
) -> CesaroDefect:
    """The defect of (1/N) sum U^-i S U^i f and its two majorants.

    Writing S = I + K, f minus the average is -(1/N) sum U^-i K U^i f.  The
    forward rows U^i f, their K-images and the rotations U^-i back are all
    closed-form `rotate` calls, taken about `_BLOCK_ELEMENTS` array
    elements (at least one shift) at a time.
    """
    import numpy as np
    if n_terms < 1:
        raise ValueError("need at least one term")
    if pert.dim != len(vec):
        raise ValueError("perturbation and vector dimensions differ")
    back, sum_k, sum_proj = np.zeros(len(vec)), 0.0, 0.0
    step = max(1, _BLOCK_ELEMENTS // len(vec))
    for lo in range(1, n_terms + 1, step):
        shifts = np.arange(lo, min(lo + step, n_terms + 1))
        rows = rotate(angles, vec, shifts)
        ks = pert.apply_k(rows.T).T
        sum_k += float(np.linalg.norm(ks, axis=1).sum())
        sum_proj += float(np.linalg.norm(rows @ pert.plane, axis=1).sum())
        back += rotate(angles, ks, -shifts).sum(axis=0)
    return CesaroDefect(
        defect=float(np.linalg.norm(back)) / n_terms,
        majorant1=sum_k / n_terms,
        majorant2=2.0 * sum_proj / n_terms,
        n_terms=n_terms,
    )
