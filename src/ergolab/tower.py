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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

Q = Fraction

__all__ = [
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
    "level_width",
    "refine_set",
    "level_set_measure",
    "correlation_interval",
    "symdiff_interval",
    "depth_for",
    "rigidity_scan",
    "wh_defect",
    "supp_level_set",
    "apply_swap",
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

    Stages are either materialized up front (`stages`) or produced on demand
    by `rule(j) -> (r_j, spacers_j)`.  `rule_spec` keeps a JSON-able
    description of the rule when one exists, so parameters can round-trip
    through config files; closure-backed rules simply cannot be serialized.
    """

    measure_mode: str
    initial_width: Fraction = Q(1)
    initial_height: int = 1
    stages: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None
    rule: Optional[StageRule] = None
    rule_spec: Optional[str] = None
    name: str = "custom"
    # Stages built so far (see build_stage); lives and dies with the params.
    _stages: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.measure_mode not in ("finite", "infinite"):
            raise ValueError(f"unknown measure mode {self.measure_mode!r}")
        if self.initial_width <= 0:
            raise ValueError("initial width must be positive")
        if self.initial_height < 1:
            raise ValueError("initial height must be at least 1")
        if self.stages is None and self.rule is None:
            raise ValueError("either explicit stages or a rule is required")

    def stage_data(self, j: int) -> tuple[int, tuple[int, ...]]:
        """Cut count and spacer tuple for stage j, validating shape."""
        if self.stages is not None:
            if j >= len(self.stages):
                raise ConstructionExhaustedError(
                    f"construction {self.name!r} describes {len(self.stages)} "
                    f"stages, stage {j} requested"
                )
            r, spacers = self.stages[j]
        else:
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


def level_width(params: ConstructionParams, j: int) -> Fraction:
    return build_stage(params, j).level_width


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
    idx: Sequence[int] = levels.indices
    # Refined indices base + i stay in range, so only the input is checked.
    if idx and (idx[0] < 0 or idx[-1] >= build_stage(params, levels.stage).height):
        raise ValueError(f"index out of range for stage-{levels.stage} tower")
    for t in range(levels.stage, to_stage):
        idx = [b + i for b in build_stage(params, t).column_bases for i in idx]
    return LevelSet(to_stage, tuple(idx))


def level_set_measure(params: ConstructionParams, levels: LevelSet) -> Fraction:
    return len(levels) * level_width(params, levels.stage)


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

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


# Hits are counted on bool masks when the two refined sets fill at least
# 1/_DENSE_SPAN of the span they cover, and by a tally of index differences
# otherwise (a few copies spread over a very tall tower, as in the generated
# pairs).  Timed on random sets of 50 to 50000 indices, masks win at 16 for 1
# shift at every size and for 200 shifts from 2000 indices up, and the tally
# wins at 64 for 200 shifts; at 16 the masks (one byte per cell, two plus a
# temporary) also take about the memory of the index tuples themselves.
_DENSE_SPAN = 16


def _outside(idx: Sequence[int], lo: int, hi: int) -> int:
    """How many of the sorted indices lie outside [lo, hi)."""
    return len(idx) - bisect_left(idx, hi) + bisect_left(idx, lo)


def _mask(idx: Sequence[int], lo: int, span: int) -> np.ndarray:
    """Bool mask of the sorted indices over [lo, lo + span)."""
    if idx[-1] < 2**63:
        offsets = np.array(idx, dtype=np.int64) - lo
    else:  # offsets are small, the indices themselves beyond int64
        offsets = np.fromiter((i - lo for i in idx), dtype=np.int64, count=len(idx))
    mask = np.zeros(span, dtype=bool)
    mask[offsets] = True
    return mask


def _hit_counts(a_idx: Sequence[int], b_idx: Sequence[int], ns: list) -> list:
    """Per shift n, how many i in A have i + n in B."""
    if not a_idx or not b_idx or not ns:
        return [0] * len(ns)
    lo = min(a_idx[0], b_idx[0])
    span = max(a_idx[-1], b_idx[-1]) - lo + 1
    if span <= _DENSE_SPAN * (len(a_idx) + len(b_idx)):
        ma = _mask(a_idx, lo, span)
        mb = ma if b_idx == a_idx else _mask(b_idx, lo, span)
        out = []
        for n in ns:
            if abs(n) >= span:
                out.append(0)
            elif n >= 0:
                out.append(int(np.count_nonzero(ma[: span - n] & mb[n:])))
            else:
                out.append(int(np.count_nonzero(ma[-n:] & mb[: span + n])))
        return out
    # Sparse: tally the differences j - i that fall in [min(ns), max(ns)].
    # For a range of shifts this visits at most as many pairs as probing each
    # shift separately would, and far fewer when the sets are spread out.
    lo_n, hi_n = min(ns), max(ns)
    diffs = Counter()
    for i in a_idx:
        for j in b_idx[bisect_left(b_idx, i + lo_n) : bisect_right(b_idx, i + hi_n)]:
            diffs[j - i] += 1
    return [diffs[n] for n in ns]


def _shift_profile(
    height: int, a_idx: Sequence[int], b_idx: Sequence[int], ns: Iterable[int]
) -> list[tuple[int, int, int]]:
    """(hits, lost_a, lost_b) for each shift n, from sorted refined indices.

    An A-index is unresolved (lost) when i + n leaves [0, height): those
    points exit through the top (or bottom) of the tower and their image is
    only pinned down by deeper stages.  The B-side count is the mirror image
    under n -> -n.  Every count is an exact integer.
    """
    ns = list(ns)
    hits = _hit_counts(a_idx, b_idx, ns)
    return [
        (h, _outside(a_idx, -n, height - n), _outside(b_idx, n, height + n))
        for h, n in zip(hits, ns)
    ]


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
    (-n, B, A), and the width never exceeds |n| * level_width(J).
    """
    stage = build_stage(params, depth)
    if abs(n) >= stage.height:
        raise InsufficientDepthError(
            f"|n|={abs(n)} does not fit in the stage-{depth} tower "
            f"(height {stage.height}); increase the depth"
        )
    a_idx = refine_set(params, a, depth).indices
    b_idx = refine_set(params, b, depth).indices
    [(hits, lost_a, lost_b)] = _shift_profile(stage.height, a_idx, b_idx, [n])
    w = stage.level_width
    lo = hits * w
    return RationalInterval(lo, lo + min(lost_a, lost_b) * w)


def symdiff_interval(
    params: ConstructionParams,
    n: int,
    a: LevelSet,
    depth: int,
) -> RationalInterval:
    """Exact two-sided bound for mu(T^n A symdiff A) at the given depth."""
    corr = correlation_interval(params, n, a, a, depth)
    mu = level_set_measure(params, a)
    return RationalInterval(2 * (mu - corr.hi), 2 * (mu - corr.lo))


def depth_for(params: ConstructionParams, n_max: int, extra: int = 2) -> int:
    """Smallest stage whose tower is taller than n_max, plus a safety margin."""
    j = 0
    while build_stage(params, j).height <= n_max:
        j += 1
    return j + extra


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
    stage = build_stage(params, depth)
    a_idx = refine_set(params, a, depth).indices
    if n_max >= stage.height:
        raise InsufficientDepthError(
            f"n_max={n_max} does not fit in the stage-{depth} tower "
            f"(height {stage.height}); increase the depth"
        )
    w = stage.level_width
    out = []
    profile = _shift_profile(stage.height, a_idx, a_idx, range(1, n_max + 1))
    for n, (hits, lost_a, lost_b) in enumerate(profile, 1):
        lo = hits * w
        corr = RationalInterval(lo, lo + min(lost_a, lost_b) * w)
        sym = RationalInterval(2 * (mu - corr.hi), 2 * (mu - corr.lo))
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
    the refined copies of those two levels.
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


def supp_level_set(params: ConstructionParams, swap: FinitarySwap) -> LevelSet:
    """Support of the swap as a two-level set (measure 2 * level width)."""
    height = build_stage(params, swap.stage).height
    if swap.pair[1] >= height:
        raise ValueError(f"swap level {swap.pair[1]} exceeds stage height {height}")
    return LevelSet(swap.stage, swap.pair)


def swap_index_map(
    params: ConstructionParams, swap: FinitarySwap, depth: int
) -> tuple[frozenset, frozenset, int]:
    """Refined supports and index offset realizing the swap at `depth`."""
    i, k = swap.pair
    lo = refine_set(params, LevelSet(swap.stage, (i,)), depth)
    hi = refine_set(params, LevelSet(swap.stage, (k,)), depth)
    return frozenset(lo.indices), frozenset(hi.indices), k - i


def apply_swap(params: ConstructionParams, swap: FinitarySwap, levels: LevelSet) -> LevelSet:
    """Image of a level set under the swap (stage must be >= swap stage)."""
    if levels.stage < swap.stage:
        raise ValueError("refine the level set at least to the swap stage first")
    lo, hi, delta = swap_index_map(params, swap, levels.stage)
    moved = []
    for i in levels.indices:
        if i in lo:
            moved.append(i + delta)
        elif i in hi:
            moved.append(i - delta)
        else:
            moved.append(i)
    return LevelSet(levels.stage, tuple(moved))


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
    stage = build_stage(params, depth)
    if n_terms >= stage.height:
        raise InsufficientDepthError(
            f"N={n_terms} does not fit in the stage-{depth} tower"
        )
    supp = supp_level_set(params, swap)
    a_idx = refine_set(params, a, depth).indices
    s_idx = refine_set(params, supp, depth).indices
    profile = _shift_profile(stage.height, a_idx, s_idx, range(1, n_terms + 1))
    hits = sum(h for h, _, _ in profile)
    lost = sum(min(lost_a, lost_b) for _, lost_a, lost_b in profile)
    w = stage.level_width / n_terms
    return RationalInterval(hits * w, (hits + lost) * w)
