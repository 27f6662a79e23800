"""Independent oracles the library is tested against.

Everything here recomputes tower facts from first principles, sharing no
code path with ergolab.tower: stages are enumerated as literal cell layouts
and the transformation is iterated one step at a time on every grid cell.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from ergolab.tower import ConstructionParams, LevelSet, build_stage, refine_set

Q = Fraction


def stack_layout(height: int, r: int, spacers) -> list:
    """Next-stage tower as a literal cell list: column after column, each
    column is the full current tower followed by its spacer cells."""
    layout = []
    for k in range(r):
        layout.extend(("level", i, k) for i in range(height))
        layout.extend(("spacer", k, t) for t in range(spacers[k]))
    return layout


def enumerate_stages(params: ConstructionParams, depth: int) -> list[dict]:
    """Per-stage facts up to `depth` derived only from literal layouts.

    Entry j holds the stage-j height, the positions of each stage-j level
    inside the stage-(j+1) layout (the refinement map) and the column base
    positions, i.e. where each copy of level 0 lands.
    """
    facts = []
    height = params.initial_height
    for j in range(depth + 1):
        r, spacers = params.stage_data(j)
        layout = stack_layout(height, r, spacers)
        refine = {i: [] for i in range(height)}
        for pos, cell in enumerate(layout):
            if cell[0] == "level":
                refine[cell[1]].append(pos)
        facts.append(
            {
                "height": height,
                "cuts": r,
                "spacers": tuple(spacers),
                "refine": refine,
                "bases": tuple(refine[0]),
                "next_height": len(layout),
            }
        )
        height = len(layout)
    return facts


def oracle_refine(facts: list[dict], stage: int, indices, to_stage: int) -> list[int]:
    """Refinement map composed from literal layouts."""
    current = list(indices)
    for t in range(stage, to_stage):
        current = [p for i in current for p in facts[t]["refine"][i]]
    return sorted(current)


def orbit_correlation(
    params: ConstructionParams,
    n: int,
    a: LevelSet,
    b: LevelSet,
    depth: int,
) -> tuple[Fraction, Fraction]:
    """Brute-force value of mu(T^n A intersect B) by pointwise orbits.

    Every grid cell of A at the given depth is pushed one step at a time;
    cells whose orbit leaves the tower before n steps are reported as lost
    mass.  Returns (definite mass landing in B, lost mass).
    """
    stage = build_stage(params, depth)
    if stage.height >= 2**62:
        raise ValueError("tower too tall for the int64 grid oracle")
    w = stage.level_width
    pos = np.array(refine_set(params, a, depth).indices, dtype=np.int64)
    b_idx = np.array(refine_set(params, b, depth).indices, dtype=np.int64)
    alive = np.ones(len(pos), dtype=bool)
    step = 1 if n > 0 else -1
    for _ in range(abs(n)):
        pos[alive] += step
        alive &= (pos >= 0) & (pos < stage.height)
    hits = int(np.isin(pos[alive], b_idx).sum())
    lost = int((~alive).sum())
    return hits * w, lost * w


def shift_counts(height: int, a_idx: frozenset, b_idx: frozenset, n: int) -> tuple[int, int, int]:
    """Per-shift reference for the tower's shift-profile kernel.

    Walks every index of A and of B once: returns how many i in A land in B
    under i -> i + n inside [0, height), and how many indices of A (under
    +n) and of B (under -n) leave the tower.
    """
    hits = 0
    lost_a = 0
    for i in a_idx:
        t = i + n
        if 0 <= t < height:
            hits += t in b_idx
        else:
            lost_a += 1
    lost_b = 0
    for i in b_idx:
        t = i - n
        if not 0 <= t < height:
            lost_b += 1
    return hits, lost_a, lost_b


def orbit_rows(operator: np.ndarray, vector: np.ndarray, shifts) -> np.ndarray:
    """Per-shift reference for `GaussianModel.orbit_rows`.

    Builds U^s f for each distinct shift on its own, restarting the matvec
    chain at f every time (the transpose for negative s).
    """
    cache = {}
    rows = []
    for s in (int(s) for s in shifts):
        if s not in cache:
            g = vector
            step = operator if s >= 0 else operator.T
            for _ in range(abs(s)):
                g = step @ g
            cache[s] = g
        rows.append(cache[s])
    return np.stack(rows)


def gf2_window_measure(system) -> Fraction:
    """Brute-force measure of a GF(2) equation system by row-0 enumeration.

    Rows are packed into ints over a window of row-0 columns wide enough to
    generate every requested site; row b+1 is row_b XOR (row_b >> 1).  Every
    window assignment is enumerated, so spans beyond ~18 free bits are
    rejected rather than ground through.
    """
    sites = {s for f in system for s in f.sites}
    if not sites:
        return Fraction(1) if all(f.constant == 0 for f in system) else Fraction(0)
    lo = min(a for a, _ in sites)
    hi = max(a + b for a, b in sites)
    span = hi - lo + 1
    if span > 18:
        raise ValueError("window too wide for enumeration")
    b_max = max(b for _, b in sites)
    count = 0
    for assignment in range(2**span):
        rows = [assignment]
        for _ in range(b_max):
            prev = rows[-1]
            rows.append(prev ^ (prev >> 1))
        ok = True
        for f in system:
            acc = 0
            for a, b in f.sites:
                acc ^= (rows[b] >> (a - lo)) & 1
            if acc != f.constant:
                ok = False
                break
        if ok:
            count += 1
    return Fraction(count, 2**span)


def hermite_cross_moment(k: int, rho: float, nodes: int = 60) -> float:
    """E[He_k(X) He_k(Y)] for correlated standard normals by 2-D quadrature.

    Y is written as rho*X + sqrt(1-rho^2)*Z with X, Z independent, and both
    integrals use Gauss-Hermite nodes, so nothing is sampled.
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    x = np.sqrt(2.0) * t
    weights = w / np.sqrt(np.pi)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    hx = np.polynomial.hermite_e.hermeval(x, coeffs)
    y = rho * x[:, None] + np.sqrt(max(0.0, 1.0 - rho * rho)) * x[None, :]
    hy = np.polynomial.hermite_e.hermeval(y, coeffs)
    return float(weights @ (hy * hx[:, None]) @ weights)


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    """A Haar-random orthogonal matrix from scipy, seeded per `seed`."""
    from scipy.stats import ortho_group

    return ortho_group.rvs(dim, random_state=np.random.default_rng([int(seed), 0x0E7]))
