"""Finite-dimensional orthogonal models for Cesaro-average experiments.

Everything here is dense numpy: operators are d x d orthogonal matrices,
vectors are unit vectors, and time averages are computed by iterating the
matrix on a vector.  A small finite-rank perturbation class supports the
conjugation experiments, where the interesting quantity is how far the time
average of an orbit moves under a rank-two rotation S = I + Q(R - I)Q^T and
how cheaply that motion can be certified from above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "orthogonality_defect",
    "require_orthogonal",
    "default_angles",
    "make_rotation_operator",
    "random_unit_vector",
    "uniform_unit_vector",
    "FiniteRankPerturbation",
    "vector_with_plane_mass",
    "orbit",
    "CesaroDefect",
    "conjugate_defect",
]

ORTHO_TOL = 1e-10


def orthogonality_defect(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator must be a square matrix")
    gram = matrix.T @ matrix
    return float(np.abs(gram - np.eye(matrix.shape[0])).max())


def require_orthogonal(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    defect = orthogonality_defect(matrix)
    if defect > ORTHO_TOL:
        raise ValueError(f"matrix fails the orthogonality certificate: {defect:.3e}")
    return matrix


def default_angles(n_blocks: int) -> np.ndarray:
    """Angles 2*pi*frac(k*sqrt(2)), equidistributed and safely irrational."""
    ks = np.arange(1, n_blocks + 1, dtype=float)
    frac = np.mod(ks * math.sqrt(2.0), 1.0)
    return 2.0 * math.pi * frac


def _rotation_block(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_rotation_operator(dim: int) -> np.ndarray:
    """Block-diagonal plane rotation on an even-dimensional space.

    Block k turns by `default_angles(dim // 2)[k]`, far from every turn of
    short rational period, so the averaging experiments equidistribute
    slowly instead of repeating.
    """
    if dim < 2 or dim % 2:
        raise ValueError("rotation operator needs an even dimension >= 2")
    operator = np.zeros((dim, dim))
    for k, theta in enumerate(default_angles(dim // 2)):
        operator[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _rotation_block(theta)
    return operator


def random_unit_vector(dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([int(seed), 0xF1])
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def uniform_unit_vector(dim: int) -> np.ndarray:
    """Equal mass on every coordinate; spreads weight over all blocks."""
    return np.full(dim, 1.0 / math.sqrt(dim))


class FiniteRankPerturbation:
    """Orthogonal S = I + Q(R - I)Q^T: a rotation by `angle` inside one plane.

    Q holds an orthonormal basis of the plane, so S - I has rank two and
    operator norm exactly 2|sin(angle/2)|.  Keeping the factored form lets a
    single application cost O(d) instead of a dense matvec.
    """

    def __init__(self, plane: np.ndarray, angle: float):
        plane = np.asarray(plane, dtype=float)
        if plane.ndim != 2 or plane.shape[1] != 2:
            raise ValueError("plane must be a (dim, 2) array")
        gram = plane.T @ plane
        if np.abs(gram - np.eye(2)).max() > ORTHO_TOL:
            raise ValueError("plane basis is not orthonormal")
        self.plane = plane
        self.angle = float(angle)
        self._r_minus_i = _rotation_block(self.angle) - np.eye(2)

    @classmethod
    def from_coordinates(cls, dim: int, i: int, j: int, angle: float):
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise ValueError("plane coordinates must be distinct and in range")
        plane = np.zeros((dim, 2))
        plane[i, 0] = 1.0
        plane[j, 1] = 1.0
        return cls(plane, angle)

    @classmethod
    def random(cls, dim: int, angle: float, seed: int = 0):
        rng = np.random.default_rng([int(seed), 0x91])
        q, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
        return cls(q, angle)

    @property
    def dim(self) -> int:
        return self.plane.shape[0]

    def matrix(self) -> np.ndarray:
        return np.eye(self.dim) + self.plane @ self._r_minus_i @ self.plane.T

    def apply_k(self, vec: np.ndarray) -> np.ndarray:
        return self.plane @ (self._r_minus_i @ (self.plane.T @ vec))

    def plane_component_norm(self, vec: np.ndarray) -> float:
        return float(np.linalg.norm(self.plane.T @ vec))


def vector_with_plane_mass(
    dim: int, pert: FiniteRankPerturbation, delta: float, seed: int = 0
) -> np.ndarray:
    """Unit vector whose projection onto the perturbation plane has norm delta.

    The rest of the mass goes to a random direction orthogonal to the plane.
    When the plane is invariant under the operator this pins the projected
    orbit norm, and with it the cheap majorant, at exactly delta for all time.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    rng = np.random.default_rng([int(seed), 0xA7])
    q = pert.plane
    g = rng.standard_normal(dim)
    g -= q @ (q.T @ g)
    g /= np.linalg.norm(g)
    in_plane = q @ np.array([1.0, 0.0])
    return math.sqrt(max(0.0, 1.0 - delta * delta)) * g + delta * in_plane


def orbit(op: np.ndarray, vec: np.ndarray, n_terms: int):
    """Yield op^i vec for i = 1..n_terms, each one matvec on from the last."""
    g = np.asarray(vec, dtype=float)
    for _ in range(n_terms):
        g = op @ g
        yield g


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
    op: np.ndarray,
    pert: FiniteRankPerturbation,
    vec: np.ndarray,
    n_terms: int,
) -> CesaroDefect:
    """The defect of (1/N) sum U^-i S U^i f and its two majorants, one pass.

    Writing S = I + K, f minus the average is -(1/N) sum U^-i K U^i f, built
    from the stored K-images by a backward Horner recurrence, so N forward and
    N backward matvecs replace N matrix powers.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if pert.dim != len(vec):
        raise ValueError("perturbation and vector dimensions differ")
    ks = []
    sum_k = 0.0
    sum_proj = 0.0
    for g in orbit(op, vec, n_terms):
        k = pert.apply_k(g)
        ks.append(k)
        sum_k += float(np.linalg.norm(k))
        sum_proj += pert.plane_component_norm(g)
    back = np.zeros(len(vec))
    for k in reversed(ks):
        back = op.T @ (k + back)
    return CesaroDefect(
        defect=float(np.linalg.norm(back)) / n_terms,
        majorant1=sum_k / n_terms,
        majorant2=2.0 * sum_proj / n_terms,
        n_terms=n_terms,
    )

