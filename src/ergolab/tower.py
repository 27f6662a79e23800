"""Exact cutting-and-stacking towers over the rationals.

A construction is described stage by stage: the stage-j tower of height h_j
is cut into r_j columns of equal width, column k receives s_j(k) spacer
levels on top, and the columns are restacked left to right.  All widths and
measures are `fractions.Fraction`, so every quantity here is exact; any
uncertainty coming from finite depth is carried explicitly as an interval.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import inf, prod
from typing import Callable, Iterable, Optional, Sequence

Q = Fraction

# Largest tower depth the shift-count kernel accepts.  It refines no set to the
# depth, but its copy-pair recursion takes two Python frames per stage, and the
# copy distances it tracks grow with the depth: a 200-shift scan of the
# generated pair takes seconds at depth 60.
MAX_DEPTH = 64
# Most levels one refinement may produce, a Python int each: `refine_set` reads
# the refined size off the cut counts, so past it nothing is refined.
MAX_REFINED_LEVELS = 200_000
_DEPTH_MARGIN = 2  # stages `depth_for` adds past the first tall enough tower

__all__ = [
    "MAX_DEPTH",
    "MAX_REFINED_LEVELS",
    "ConstructionExhaustedError",
    "InsufficientDepthError",
    "GenerationError",
    "ConstructionParams",
    "TowerStage",
    "LevelSet",
    "RationalInterval",
    "FinitarySwap",
    "ScanEntry",
    "build_stage",
    "refine_set",
    "level_set_measure",
    "correlation_interval",
    "symdiff_interval",
    "depth_for",
    "rigidity_scan",
    "wh_defect",
]


class ConstructionExhaustedError(Exception):
    """Raised when a stage is requested beyond the described construction."""


class InsufficientDepthError(Exception):
    """Raised when the requested shift cannot be resolved at the given depth."""


class GenerationError(Exception):
    """Raised when a generated construction cannot satisfy its constraints."""


StageRule = Callable[[int], tuple[int, tuple[int, ...]]]


@dataclass(frozen=True)
class ConstructionParams:
    """Immutable description of a cutting-and-stacking construction.

    Stages are produced on demand by `rule(j) -> (r_j, spacers_j)`.
    """

    rule: StageRule
    name: str
    initial_width: Fraction = Q(1)
    initial_height: int = 1
    # Stages built so far (see build_stage); lives and dies with the params.
    _stages: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial_width <= 0:
            raise ValueError("initial width must be positive")
        if self.initial_height < 1:
            raise ValueError("initial height must be at least 1")

    def stage_data(self, j: int) -> tuple[int, tuple[int, ...]]:
        """Cut count and spacer tuple for stage j, validating shape."""
        r, spacers = self.rule(j)
        spacers = tuple(int(s) for s in spacers)
        if r < 2:
            raise ValueError(f"stage {j}: need at least 2 cuts, got {r}")
        if len(spacers) != r:
            raise ValueError(f"stage {j}: expected {r} spacer counts, got {len(spacers)}")
        if any(s < 0 for s in spacers):
            raise ValueError(f"stage {j}: spacer counts must be non-negative")
        return r, spacers


@dataclass(frozen=True)
class TowerStage:
    """Materialized stage-j tower data.

    `column_bases` are offsets of the stage-j columns inside the stage-(j+1)
    index space: stage-j level i refines to {base + i for base in
    column_bases}, and consecutive bases differ by h_j + s_j(k).
    """

    index: int
    height: int
    level_width: Fraction
    cuts: int
    spacers: tuple[int, ...]
    column_bases: tuple[int, ...]

    @property
    def next_height(self) -> int:
        return self.column_bases[-1] + self.height + self.spacers[-1]


def build_stage(params: ConstructionParams, j: int) -> TowerStage:
    """Tower data at stage j (heights, widths and next-stage column bases).

    Stages are kept on the params object, so they are freed with it.  Two
    threads building the same stage at once both store equal values.
    """
    stage = params._stages.get(j)
    if stage is None:
        stage = params._stages[j] = _new_stage(params, j)
    return stage


def _new_stage(params: ConstructionParams, j: int) -> TowerStage:
    if j < 0:
        raise ValueError("stage index must be non-negative")
    if j == 0:
        height, width = params.initial_height, params.initial_width
    else:
        prev = build_stage(params, j - 1)
        height = prev.next_height
        width = prev.level_width / prev.cuts
    r, spacers = params.stage_data(j)
    bases = [0]
    for k in range(r - 1):
        bases.append(bases[-1] + height + spacers[k])
    return TowerStage(j, height, width, r, spacers, tuple(bases))


@dataclass(frozen=True)
class LevelSet:
    """A finite union of stage-`stage` levels, stored as sorted indices."""

    stage: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(self.indices)))
        if idx != self.indices:
            object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def refine_set(params: ConstructionParams, levels: LevelSet, to_stage: int) -> LevelSet:
    """Rewrite a level set in stage-`to_stage` indices (measure unchanged)."""
    if to_stage < levels.stage:
        raise ValueError("cannot coarsen a level set")
    # Refined indices base + i stay in range, so only the input is checked.
    _checked_stage(params, levels)
    stages = [build_stage(params, t) for t in range(levels.stage, to_stage)]
    size = len(levels) * prod(stage.cuts for stage in stages)
    if size > MAX_REFINED_LEVELS:
        raise ValueError(
            f"{len(levels)} stage-{levels.stage} level(s) refine to {size} "
            f"stage-{to_stage} levels, cap is {MAX_REFINED_LEVELS}"
        )
    return LevelSet(to_stage, tuple(_copies(levels.indices, stages)))


def level_set_measure(params: ConstructionParams, levels: LevelSet) -> Fraction:
    return len(levels) * _checked_stage(params, levels).level_width


def _checked_stage(params: ConstructionParams, levels: LevelSet) -> TowerStage:
    """The tower of a level set's stage, once every index is one of its levels."""
    stage, idx = build_stage(params, levels.stage), levels.indices
    if idx and not 0 <= idx[0] <= idx[-1] < stage.height:
        raise ValueError(f"index out of range for stage-{levels.stage} tower")
    return stage


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _profile(
    params: ConstructionParams, a: LevelSet, b: LevelSet, depth: int, ns: Iterable[int]
) -> tuple[Fraction, list[tuple[int, int, int]]]:
    """Level width of the depth tower and `_shift_profile` there, depth checked.

    The one depth policy of the exact layer: the depth is bounded before any
    stage at it is built (building one recurses through every stage below),
    and every shift must stay strictly inside the tower height.
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the maximum of {MAX_DEPTH}")
    stage = build_stage(params, depth)
    ns = list(ns)
    far = max(map(abs, ns), default=0)
    if far >= stage.height:
        raise InsufficientDepthError(
            f"shift {far} does not fit in the stage-{depth} tower "
            f"(height {stage.height}); increase the depth"
        )
    return stage.level_width, _shift_profile(params, a, b, depth, ns)


def _interval(w: Fraction, hits: int, lost: int) -> RationalInterval:
    """[hits * w, (hits + lost) * w]: lost mass can only raise the value."""
    return RationalInterval(hits * w, (hits + lost) * w)


def _symdiff(mu: Fraction, corr: RationalInterval) -> RationalInterval:
    """mu(T^n A symdiff A) = 2 (mu(A) - mu(T^n A intersect A))."""
    return RationalInterval(2 * (mu - corr.hi), 2 * (mu - corr.lo))


def _shift_profile(
    params: ConstructionParams, a: LevelSet, b: LevelSet, depth: int, ns: Iterable[int]
) -> list[tuple[int, int, int]]:
    """(hits, lost_a, lost_b) for each shift n of A against B in the depth tower.

    hits counts the indices i of the refined A with i + n in the refined B.
    An A-index is unresolved (lost) when i + n leaves [0, height): those
    points exit through the top (or bottom) of the tower and their image is
    only pinned down by deeper stages.  The B-side count is the mirror image
    under n -> -n.  Every count is an exact integer.  No depth or shift is
    checked here; callers enter through `_profile`, which checks both.

    Neither set is refined whole.  Say A sits at stage i <= j, B's stage
    (else swap them and negate n).  The stage-i copies in the stage-t tower
    sit at U_t, the stage-j copies at P_t, and U_{t+1} = U_t + column_bases(t)
    (P_{t+1} likewise, from P_j = {0}).  The number E_t(m) of copy pairs
    (u, p) with p - u = m obeys E_{t+1}(m) = sum over base pairs (g, g') of
    E_t(m - g' + g), from E_j(m) = [-m in U_j], and hits(n) is
    sum_d D[d] * E_depth(n - d) over the differences d = y - x of A x B.
    When at most MAX_REFINED_LEVELS stage-j copies of A lie within reach of
    B, they are listed instead, and A counts as a stage-j set in D and E.
    Lost copies are counted by one descent through the cut columns.
    """
    if depth < max(a.stage, b.stage):
        raise ValueError("cannot coarsen a level set")
    _checked_stage(params, a)  # copies base + i of checked indices stay in range
    _checked_stage(params, b)
    if a.stage > b.stage:
        flipped = _shift_profile(params, b, a, depth, [-n for n in ns])
        return [(hits, lost_a, lost_b) for hits, lost_b, lost_a in flipped]
    a_idx, b_idx, ns, j = a.indices, b.indices, list(ns), b.stage
    walk = [build_stage(params, t) for t in range(a.stage, j)]
    stages = [build_stage(params, t) for t in range(j, depth + 1)]
    height, reach = stages[-1].height, stages[-1].height - stages[0].height
    copies = prod(stage.cuts for stage in stages[:-1])  # of a stage-j level at depth
    a_at_j = prod(stage.cuts for stage in walk) * len(a_idx)  # copies of A's levels at j
    lo, hi = min(ns, default=0) - reach, max(ns, default=0) + reach
    x_lo, x_hi = (b_idx[0] - hi, b_idx[-1] - lo + 1) if b_idx else (0, 0)
    # Listing A's stage-j copies within reach of B is fastest, but only a bounded
    # number are listed; past it, the recursion counts them from stage i up.
    lower, xs = walk, a_idx
    if _below(a_idx, walk, x_hi, a_at_j) - _below(a_idx, walk, x_lo, a_at_j) <= MAX_REFINED_LEVELS:
        lower, xs = [], _copies(a_idx, walk, x_lo, x_hi)
    lift = stages[0].height - (lower or stages)[0].height  # how much wider U_t is than P_t
    # E_depth(m) vanishes outside [-reach - lift, reach], so only these differences count.
    diffs = Counter()
    for x in xs:
        for y in b_idx[bisect_left(b_idx, x + lo) : bisect_right(b_idx, x + hi + lift)]:
            diffs[y - x] += 1
    keys = sorted(diffs)

    @cache
    def pairs(t: int, m: int) -> int:
        """E_t(m), for the copies of both stages in the stage-t tower."""
        if t == j:  # one copy of A's level 0 sits at -m, or none
            return len(_copies((0,), lower, -m, 1 - m))
        stage = stages[t - 1 - j]
        span = stage.height - stages[0].height
        bases, wide = stage.column_bases, span + lift
        return sum(
            pairs(t - 1, m - g2 + g)
            for g in bases
            for g2 in bases[bisect_left(bases, m + g - span) : bisect_right(bases, m + g + wide)]
        )

    def outside(idx: Sequence[int], walk: list, total: int, lo: int, hi: int) -> int:
        """How many of the `total` copies of the sorted indices lie outside [lo, hi)."""
        return total - _below(idx, walk, hi, total) + _below(idx, walk, lo, total)

    a_walk, a_total = walk + stages[:-1], a_at_j * copies
    out = []
    for n in ns:
        near = keys[bisect_left(keys, n - reach) : bisect_right(keys, n + reach + lift)]
        hits = sum(diffs[d] * pairs(depth, n - d) for d in near)
        lost_a = outside(a_idx, a_walk, a_total, -n, height - n)
        out.append((hits, lost_a, outside(b_idx, stages[:-1], copies * len(b_idx), n, height + n)))
    pairs.cache_clear()  # `pairs` refers to itself: free the memo now, not at a gc pass
    return out


def _copies(
    idx: Sequence[int], walk: list[TowerStage], lo: int = 0, hi: float = inf
) -> Sequence[int]:
    """The copies in [lo, hi) of the sorted indices after `walk`, and no others."""
    if not walk:
        return idx[bisect_left(idx, lo) : bisect_left(idx, hi)]
    bases = walk[-1].column_bases
    first = max(bisect_right(bases, lo) - 1, 0)  # the column holding lo, if any
    return [
        g + x
        for g in bases[first : bisect_left(bases, hi)]
        for x in _copies(idx, walk[:-1], lo - g, hi - g)
    ]


def _below(idx: Sequence[int], walk: list[TowerStage], x: int, total: int) -> int:
    """How many of the `total` copies of the sorted indices lie below x after `walk`."""
    x, count, per_column = max(x, 0), 0, total
    for stage in reversed(walk):  # past a column's top, x counts it whole
        per_column //= stage.cuts
        k = bisect_right(stage.column_bases, x) - 1
        count += k * per_column
        x -= stage.column_bases[k]
    return count + bisect_left(idx, x)


def correlation_interval(
    params: ConstructionParams,
    n: int,
    a: LevelSet,
    b: LevelSet,
    depth: int,
) -> RationalInterval:
    """Exact two-sided bound for mu(T^n A intersect B) at the given depth.

    Within the depth-J tower T^n acts as the index shift i -> i + n; mass of
    either set whose shift leaves the tower is unresolved and can only
    contribute to the upper endpoint.  Taking the smaller of the two
    unresolved masses keeps the answer symmetric under (n, A, B) ->
    (-n, B, A), and the width never exceeds |n| times the depth-J level width.
    """
    w, [(hits, lost_a, lost_b)] = _profile(params, a, b, depth, [n])
    return _interval(w, hits, min(lost_a, lost_b))


def symdiff_interval(
    params: ConstructionParams,
    n: int,
    a: LevelSet,
    depth: int,
) -> RationalInterval:
    """Exact two-sided bound for mu(T^n A symdiff A) at the given depth."""
    corr = correlation_interval(params, n, a, a, depth)
    return _symdiff(level_set_measure(params, a), corr)


def depth_for(params: ConstructionParams, n_max: int) -> int:
    """Smallest stage whose tower is taller than n_max, plus a safety margin."""
    j = 0
    while build_stage(params, j).height <= n_max:
        j += 1
    return j + _DEPTH_MARGIN


def _as_threshold(theta) -> Fraction:
    theta = Q(str(theta)) if isinstance(theta, float) else Q(theta)
    if not 0 < theta < Q(1, 2):
        raise ValueError("classification threshold must lie in (0, 1/2)")
    return theta


@dataclass(frozen=True)
class ScanEntry:
    """Classification of a single shift in a rigidity scan."""

    n: int
    kind: str  # "rigid" | "partially-rigid" | "none"
    alpha: Optional[Fraction]
    correlation: RationalInterval
    symdiff: RationalInterval


def rigidity_scan(
    params: ConstructionParams,
    a: LevelSet,
    n_max: int,
    depth: Optional[int] = None,
    theta=Q(1, 20),
) -> list[ScanEntry]:
    """Classify shifts 1..n_max against A as rigid / partially-rigid / none.

    A shift is rigid when the certified symmetric difference stays below
    theta * mu(A); otherwise the certified lower correlation bound yields the
    partial-rigidity coefficient alpha, clipped into [theta, 1 - theta].
    The verdict is always relative to the given set and depth.
    """
    theta = _as_threshold(theta)
    if depth is None:
        depth = depth_for(params, n_max)
    mu = level_set_measure(params, a)
    if mu == 0:
        raise ValueError("cannot classify against a null set")
    w, profile = _profile(params, a, a, depth, range(1, n_max + 1))
    out = []
    for n, (hits, lost_a, lost_b) in enumerate(profile, 1):
        corr = _interval(w, hits, min(lost_a, lost_b))
        sym = _symdiff(mu, corr)
        if sym.hi <= theta * mu:
            kind, alpha = "rigid", None
        else:
            ratio = corr.lo / mu
            if ratio >= theta:
                kind, alpha = "partially-rigid", min(ratio, 1 - theta)
            else:
                kind, alpha = "none", None
        out.append(ScanEntry(n, kind, alpha, corr, sym))
    return out


@dataclass(frozen=True)
class FinitarySwap:
    """Exchange of two same-stage levels by the width-preserving translation.

    The swap is an involution supported on exactly two levels; away from its
    support it is the identity, so it perturbs any deeper tower only along
    the refined copies of those two levels.  Its support is
    `LevelSet(stage, pair)`: at any depth, each copy of level i moves up by
    k - i onto a copy of level k, and back.
    """

    stage: int
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        i, k = self.pair
        if i == k:
            raise ValueError("swap levels must be distinct")
        if i < 0 or k < 0:
            raise ValueError("swap levels must be non-negative")
        if i > k:
            object.__setattr__(self, "pair", (k, i))


def wh_defect(
    params: ConstructionParams,
    swap: FinitarySwap,
    a: LevelSet,
    n_terms: int,
    depth: int,
) -> RationalInterval:
    """Exact interval for (1/N) sum_{i=1..N} mu(T^i A intersect supp S).

    Twice this value majorizes the L2 Cesaro defect of the conjugates
    T^{-i} S T^i applied to the indicator of A, so a certified decay here is
    a certificate of weak homoclinicity of the swap for the construction.
    """
    if n_terms < 1:
        raise ValueError("need at least one Cesaro term")
    supp = LevelSet(swap.stage, swap.pair)
    _checked_stage(params, supp)  # an invalid swap is reported before the depth
    w, profile = _profile(params, a, supp, depth, range(1, n_terms + 1))
    hits = sum(h for h, _, _ in profile)
    lost = sum(min(lost_a, lost_b) for _, lost_a, lost_b in profile)
    return _interval(w / n_terms, hits, lost)
