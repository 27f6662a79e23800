"""Independent oracles the library is tested against.

Everything here recomputes tower facts from first principles, sharing no
code path with ergolab.tower: stages are enumerated as literal cell layouts
and the transformation is iterated one step at a time on every grid cell.
The GF(2) measures likewise share no code with ergolab.ledrapier: one
expands sites into column sets, the other enumerates row-0 windows.  The
rigid/mixing pair's reference keeps its own stage records by the stacking
recurrence, where ergolab.constructions reads them off the towers.  The
schema check is held to jsonschema's 2020-12 validator, under ergolab's type
rules written out again here.
"""
from __future__ import annotations

import bisect
import functools
import sys
from fractions import Fraction

import numpy as np

from ergolab.tower import (
    ConstructionParams,
    FinitarySwap,
    GenerationError,
    LevelSet,
    build_stage,
    refine_set,
)

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


class _TimeSource:
    """Strictly increasing integer stream consumed via least_above queries,
    never answering at or below a value it has already given."""

    def __init__(self, spec: dict) -> None:
        self._values = spec.get("values")  # None unless explicit
        self._start, self._step = spec.get("start", 1), spec.get("step", 1)
        self._last = None

    def least_above(self, x: int) -> int:
        floor = x if self._last is None else max(x, self._last)
        if self._values is None:
            k = max(0, -(-(floor + 1 - self._start) // self._step))
            value = self._start + k * self._step
        else:
            pos = bisect.bisect_right(self._values, floor)
            if pos >= len(self._values):
                raise GenerationError(f"time stream exhausted before exceeding {x}")
            value = self._values[pos]
        self._last = value
        return value


class PairRecurrence:
    """Stage records of the interleaved rigid/mixing pair, kept apart from
    any tower: stage m takes the least time of its stream (the second at
    even m, the first at odd m) above 2 h_m, and h_{m+1} = r_m h_m +
    2 (r_m - 1) s_m.  `args` is a `pair` descriptor holding all three keys.
    """

    def __init__(self, args: dict) -> None:
        cuts = args["cuts"]
        if cuts["name"] == "constant":
            self._scale, self._offset = 0, cuts["r"]
        else:
            self._scale, self._offset = cuts.get("scale", 1), cuts.get("offset", 2)
        self._streams = {1: _TimeSource(args["cprime"]), 0: _TimeSource(args["dprime"])}
        self._records = []  # (r_m, s_m, h_m + s_m)
        self._heights = [1]

    def _ensure(self, j: int) -> None:
        while len(self._records) <= j:
            m = len(self._records)
            h = self._heights[m]
            r = self._scale * m + self._offset
            try:
                value = self._streams[m % 2].least_above(2 * h)
            except GenerationError as exc:
                raise GenerationError(f"stage {m}: {exc}") from None
            s = value - h
            self._records.append((r, s, value))
            self._heights.append(r * h + 2 * (r - 1) * s)

    def stage(self, role: str, j: int) -> tuple[int, tuple[int, ...]]:
        """(r_j, spacers_j) of construction `role`: "t" takes the uniform
        spacers at odd j, "s" at even j."""
        self._ensure(j)
        r, s, _ = self._records[j]
        if (role == "t") == (j % 2 == 1):
            return r, (s,) * (r - 1) + ((r - 1) * s,)
        return r, (2 * s,) * (r - 1) + (0,)

    def time_at(self, j: int) -> int:
        self._ensure(j)
        return self._records[j][2]

    def cuts_at(self, j: int) -> int:
        self._ensure(j)
        return self._records[j][0]

    def height(self, j: int) -> int:
        self._ensure(j)
        return self._heights[j]


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


def poisson_shift_walk(model, n: int, a: LevelSet) -> tuple[list, int]:
    """Per-level reference for the covariance's window walk.

    Walks every window level x once: returns the sorted slots with x + n in
    the refined A, and how many A-levels a have no window level a - n.
    """
    slot = {x: i for i, x in enumerate(model.indices)}
    a_set = frozenset(refine_set(model.params, a, model.depth).indices)
    height = model.stage.height
    shifted = sorted(slot[x] for x in model.indices if (x + n) in a_set)
    lost = sum(1 for x in a_set if not (0 <= x - n < height and (x - n) in slot))
    return shifted, lost


def poisson_swap_walk(model, swap: FinitarySwap, a: LevelSet, n_terms: int) -> tuple[list, list, int]:
    """Per-level reference for the wh experiment's window x N walk.

    For each i <= n_terms, pushes every window level x to x + i, applies the
    swap and comes back by i: returns, per i, the sorted slots that enter A
    and those that leave it, and the number of (x, i) whose x + i leaves the
    tower.
    """
    slot = {x: i for i, x in enumerate(model.indices)}
    a_set = frozenset(refine_set(model.params, a, model.depth).indices)
    lo, hi = (
        frozenset(refine_set(model.params, LevelSet(swap.stage, (level,)), model.depth).indices)
        for level in swap.pair
    )
    delta = swap.pair[1] - swap.pair[0]
    height = model.stage.height
    plus, minus, lost = [], [], 0
    for i in range(1, n_terms + 1):
        p_i, m_i = [], []
        for x in model.indices:
            y = x + i
            if not 0 <= y < height:
                lost += 1
                continue
            if y in lo:
                y += delta
            elif y in hi:
                y -= delta
            z = y - i
            if z in a_set and x not in a_set:
                p_i.append(slot[x])
            elif x in a_set and z not in a_set:
                m_i.append(slot[x])
        plus.append(sorted(p_i))
        minus.append(sorted(m_i))
    return plus, minus, lost


def dense_rotation(angles) -> np.ndarray:
    """The block rotation as a dense matrix: scipy `block_diag` of 2 x 2 turns."""
    from scipy.linalg import block_diag

    return block_diag(
        *(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in angles)
    )


def dense_orbit_rows(angles, vector: np.ndarray, shifts) -> np.ndarray:
    """Reference rows U^s f by dense matrix powers (of U^T for negative s)."""
    u = dense_rotation(angles)
    return np.stack(
        [np.linalg.matrix_power(u if s >= 0 else u.T, abs(int(s))) @ vector for s in shifts]
    )


def dense_perturbation(pert) -> np.ndarray:
    """S = I + Q(R - I)Q^T of a `FiniteRankPerturbation` as a dense matrix."""
    c, s = np.cos(pert.angle), np.sin(pert.angle)
    r_minus_i = np.array([[c - 1.0, -s], [s, c - 1.0]])
    return np.eye(pert.dim) + pert.plane @ r_minus_i @ pert.plane.T


def dense_conjugate_average(angles, pert, vector: np.ndarray, n_terms: int) -> np.ndarray:
    """(1/N) sum_{i=1..N} U^-i S U^i f, one dense power of U after another."""
    u = dense_rotation(angles)
    s = dense_perturbation(pert)
    acc = np.zeros(len(vector))
    power = np.eye(len(vector))
    for _ in range(n_terms):
        power = power @ u
        acc += power.T @ (s @ (power @ vector))
    return acc / n_terms


def gf2_submask_measure(system) -> Fraction:
    """Reference measure of a GF(2) equation system by submask expansion.

    Site (a, b) is the XOR of the row-0 sites a + k over the submasks k of
    b (binomial parity), added to a column set one insertion at a time, so
    a site costs 2^popcount(b): keep heights to a dozen one-bits.  The
    reduced equations are eliminated over their sorted columns.
    """
    reduced = []
    for f in system:
        columns: set = set()
        for a, b in f.sites:
            k = b
            while True:
                columns ^= {a + k}
                if k == 0:
                    break
                k = (k - 1) & b
        reduced.append((columns, f.constant))
    slot = {a: i for i, a in enumerate(sorted(set().union(*(c for c, _ in reduced))))}
    pivots = []  # (row bits, constant), one pivot bit each
    for columns, constant in reduced:
        digits = bytearray(b"0" * (len(slot) + 1))  # binary digits, lowest last
        for a in columns:
            digits[-1 - slot[a]] = ord("1")
        bits = int(digits, 2)
        for p_bits, p_const in pivots:
            if bits & p_bits & -p_bits:
                bits ^= p_bits
                constant ^= p_const
        if bits == 0:
            if constant == 1:
                return Fraction(0)
            continue
        pivots.append((bits, constant))
    return Fraction(1, 2 ** len(pivots))


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


def wh2_statistic_on_slice_draws(
    rows: np.ndarray, w: np.ndarray, coords: tuple[int, int], columns: int
):
    """`gaussian_wh_experiment`'s degree-2 statistic, fed the same draws.

    The latent block is drawn one slice of `columns` samples at a time, in
    the experiment's order (the last slice, which also takes the remainder,
    first), and laid out as one dim x batch block; the statistic is then
    hx * (He2(x + W z) - hx) over the whole batch at once, with full-width
    arrays, then the per-sample Cesaro means and their mean."""
    from ergolab.gaussian import hermite_value

    def stat(rng: np.random.Generator, size: int) -> float:
        n_slices = max(1, size // columns)
        edges = [i * columns for i in range(n_slices)] + [size]
        latent = np.empty((rows.shape[1], size))
        for lo, hi in reversed(list(zip(edges, edges[1:]))):
            latent[:, lo:hi] = rng.standard_normal((rows.shape[1], hi - lo))
        x = rows @ latent
        hx = hermite_value(2, x)
        hy = hermite_value(2, x + w @ latent[list(coords)])
        return np.mean(hx * (hy - hx), axis=0).mean()

    return stat


def _finite_number(checker, value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


@functools.cache
def schema_validator_class():
    """jsonschema's 2020-12 validator under ergolab's type rules: a number is
    a non-bool int or float of finite magnitude, and an integer is a number
    that is an int, so neither True nor 3.0 is one.  Its validators skip the
    metaschema check, which test_experiments makes once per schema.

    jsonschema is imported here, not with this module, which the benchmark's
    exact-deep workload loads for its orbit oracle."""
    import jsonschema

    checker = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {
            "number": _finite_number,
            "integer": lambda checker, value: (
                isinstance(value, int) and _finite_number(checker, value)
            ),
        }
    )
    return jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=checker)


def best_schema_error(schema: dict, value):
    """jsonschema's best-matching error of `value` under `schema`, or None."""
    from jsonschema.exceptions import best_match

    return best_match(schema_validator_class()(schema).iter_errors(value))
