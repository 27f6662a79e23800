"""Exact tower core against independent enumeration and orbit oracles."""
from __future__ import annotations

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ergolab import tower
from ergolab.tower import (
    ConstructionExhaustedError,
    ConstructionParams,
    FinitarySwap,
    InsufficientDepthError,
    LevelSet,
    RationalInterval,
    build_stage,
    correlation_interval,
    depth_for,
    level_set_measure,
    refine_set,
    rigidity_scan,
    symdiff_interval,
    wh_defect,
)
from ergolab.constructions import (
    chacon,
    odometer,
    params_from_spec,
    rigid_mixing_pair,
    staircase,
)

from oracles import enumerate_stages, oracle_refine, orbit_correlation, shift_counts

Q = Fraction


def test_chacon_stage_facts_match_enumeration():
    p = chacon()
    facts = enumerate_stages(p, 5)
    heights = [build_stage(p, j).height for j in range(6)]
    assert heights == [1, 4, 13, 40, 121, 364]
    assert heights == [facts[j]["height"] for j in range(6)]
    s1 = build_stage(p, 1)
    assert (s1.height, s1.level_width) == (4, Q(1, 3))
    assert s1.column_bases == (0, 4, 9) == facts[1]["bases"]
    assert build_stage(p, 2).column_bases == (0, 13, 27) == facts[2]["bases"]
    for j in range(5):
        assert build_stage(p, j).column_bases == facts[j]["bases"]


def test_stacking_recurrence_and_base_gaps():
    for p in (chacon(), odometer(2), odometer(3), staircase()):
        for j in range(6):
            st_j = build_stage(p, j)
            assert st_j.next_height == sum(st_j.height + s for s in st_j.spacers)
            gaps = [
                b2 - b1 for b1, b2 in zip(st_j.column_bases, st_j.column_bases[1:])
            ]
            assert gaps == [st_j.height + s for s in st_j.spacers[:-1]]
            if j:
                prev = build_stage(p, j - 1)
                assert st_j.level_width == prev.level_width / prev.cuts


def test_refine_single_chacon_level():
    p = chacon()
    refined = refine_set(p, LevelSet(1, (0,)), 2)
    assert refined.indices == (0, 4, 9)
    facts = enumerate_stages(p, 4)
    assert list(refined.indices) == oracle_refine(facts, 1, [0], 2)
    # measure is preserved under refinement
    a = LevelSet(1, (0, 2))
    for to in (2, 3, 4):
        assert level_set_measure(p, refine_set(p, a, to)) == level_set_measure(p, a)


def test_refine_matches_enumeration_on_random_sets():
    rng = random.Random(271828)
    for p in (chacon(), staircase()):
        facts = enumerate_stages(p, 5)
        for _ in range(10):
            stage = rng.randint(0, 2)
            h = build_stage(p, stage).height
            picks = tuple(sorted(rng.sample(range(h), min(h, rng.randint(1, 4)))))
            to = rng.randint(stage, 4)
            got = refine_set(p, LevelSet(stage, picks), to)
            assert list(got.indices) == oracle_refine(facts, stage, picks, to)


def test_correlation_interval_contains_orbit_value():
    rng = random.Random(994009)
    for p in (chacon(), staircase()):
        h2 = build_stage(p, 2).height
        for _ in range(25):
            n = rng.randint(-60, 60) or 7
            a = LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
            b = LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
            depth = depth_for(p, abs(n))
            got = correlation_interval(p, n, a, b, depth)
            definite, lost = orbit_correlation(p, n, a, b, depth)
            assert got.lo <= definite <= got.hi
            assert definite + lost >= got.lo
            assert got.width <= abs(n) * build_stage(p, depth).level_width


def test_correlation_symmetry_and_depth_nesting():
    rng = random.Random(1729)
    p = chacon()
    h2 = build_stage(p, 2).height
    for _ in range(20):
        n = rng.randint(-30, 30) or 5
        a = LevelSet(2, tuple(rng.sample(range(h2), 3)))
        b = LevelSet(2, tuple(rng.sample(range(h2), 3)))
        shallow = correlation_interval(p, n, a, b, 4)
        assert shallow == correlation_interval(p, -n, b, a, 4)
        deep = correlation_interval(p, n, a, b, 6)
        assert shallow.lo <= deep.lo and deep.hi <= shallow.hi


def test_chacon_partial_rigidity_at_tower_height():
    # At n = h_2 = 13 roughly half of any level returns to itself: one third
    # of the copies shift exactly, one third land one level low, one third
    # resolve the same way a stage deeper.  Frozen from the orbit oracle.
    p = chacon()
    a = LevelSet(2, (0,))
    corr = correlation_interval(p, 13, a, a, 8)
    assert corr == RationalInterval(Q(364, 6561), Q(365, 6561))
    definite, lost = orbit_correlation(p, 13, a, a, 8)
    assert definite == Q(364, 6561) and lost == Q(1, 6561)
    entry = rigidity_scan(p, a, 13, depth=8)[-1]
    assert entry.kind == "partially-rigid"
    assert entry.alpha == Q(364, 729)  # ~ 0.499


def test_symdiff_complements_correlation():
    p = chacon()
    a = LevelSet(2, (0, 3, 7))
    mu = level_set_measure(p, a)
    for n in (1, 13, -9):
        corr = correlation_interval(p, n, a, a, 6)
        sym = symdiff_interval(p, n, a, 6)
        assert sym.lo == 2 * (mu - corr.hi)
        assert sym.hi == 2 * (mu - corr.lo)


def test_odometer_full_rigid_set():
    p = odometer(2)
    for j in (2, 3):
        rows = rigidity_scan(p, LevelSet(j, (0,)), 64, depth=14)
        rigid = {e.n for e in rows if e.kind == "rigid"}
        assert rigid == {m for m in range(1, 65) if m % 2**j == 0}
        assert all(e.kind == "none" for e in rows if e.n % 2**j)


def test_staircase_mixing_band_reports_none():
    rows = rigidity_scan(staircase(), LevelSet(3, (0,)), 120, depth=6)
    by_n = {e.n: e for e in rows}
    for n in list(range(5, 51)) + list(range(60, 106)):
        assert by_n[n].kind == "none", n
    # the echo just above the stage height is partially rigid instead
    assert by_n[54].kind == "partially-rigid"
    assert by_n[54].alpha == Q(1, 5)


def test_depth_for_clears_requested_shift():
    p = staircase()
    d = depth_for(p, 200)
    assert build_stage(p, d).height > 200
    assert build_stage(p, d - 2).height > 200  # margin on top of first clearance
    assert build_stage(p, d - 3).height <= 200


def test_swap_is_measure_preserving_involution():
    p = chacon()
    swap = FinitarySwap(1, (0, 2))
    supp = LevelSet(swap.stage, swap.pair)
    assert level_set_measure(p, supp) == 2 * Q(1, 3)
    # each copy of the lower level moves up by k - i onto a copy of the upper
    # one and back, and copies of other levels do not move
    lo, hi = (set(refine_set(p, LevelSet(1, (level,)), 3).indices) for level in swap.pair)
    assert {i + 2 for i in lo} == hi
    assert len(lo) == len(hi) == 9
    quiet = refine_set(p, LevelSet(1, (3,)), 3)
    assert not set(quiet.indices) & (lo | hi)


def test_wh_defect_averages_support_correlations():
    p = chacon()
    swap = FinitarySwap(1, (0, 2))
    a = LevelSet(1, (1,))
    supp = LevelSet(swap.stage, swap.pair)
    n_terms = 12
    acc_lo = acc_hi = Q(0)
    for i in range(1, n_terms + 1):
        c = correlation_interval(p, i, a, supp, 6)
        acc_lo += c.lo
        acc_hi += c.hi
    got = wh_defect(p, swap, a, n_terms, 6)
    assert got == RationalInterval(acc_lo / n_terms, acc_hi / n_terms)
    assert got.hi <= level_set_measure(p, supp)


def test_error_paths():
    p = chacon()
    with pytest.raises(InsufficientDepthError):
        correlation_interval(p, 50, LevelSet(1, (0,)), LevelSet(1, (0,)), 2)
    explicit = params_from_spec(
        {"stages": [{"r": 2, "spacers": [0, 1]}, {"r": 2, "spacers": [1, 0]}]}
    )
    with pytest.raises(
        ConstructionExhaustedError,
        match="construction 'explicit' describes 2 stages, stage 2 requested",
    ):
        build_stage(explicit, 2)
    with pytest.raises(ValueError, match="initial width must be positive"):
        ConstructionParams(p.rule, "flat", initial_width=Q(0))
    with pytest.raises(ValueError):
        rigidity_scan(p, LevelSet(2, ()), 5, depth=4)
    with pytest.raises(ValueError):
        FinitarySwap(1, (2, 2))
    # a swap level past the stage height is a domain error, reported before
    # the depth is found too shallow for the shifts
    for depth in (1, 4):
        with pytest.raises(ValueError, match="index out of range for stage-1 tower"):
            wh_defect(p, FinitarySwap(1, (0, 5)), LevelSet(1, (1,)), 10, depth)
    bad = ConstructionParams(lambda j: (2, (0, -1)), "bad")
    with pytest.raises(ValueError):
        build_stage(bad, 0)


@st.composite
def small_construction(draw):
    """An explicit construction of 3 to 5 stages, and its stage count."""
    n_stages = draw(st.integers(3, 5))
    stages = []
    for _ in range(n_stages):
        r = draw(st.integers(2, 4))
        stages.append({"r": r, "spacers": [draw(st.integers(0, 3)) for _ in range(r)]})
    return params_from_spec({"stages": stages}), n_stages


@settings(max_examples=60, deadline=None)
@given(small_construction(), st.data())
def test_interval_soundness_property(construction, data):
    params, n_stages = construction
    depth = n_stages - 1
    stage = build_stage(params, depth)
    h1 = build_stage(params, 1).height
    a = LevelSet(1, tuple(data.draw(st.sets(st.integers(0, h1 - 1), min_size=1))))
    b = LevelSet(1, tuple(data.draw(st.sets(st.integers(0, h1 - 1), min_size=1))))
    n = data.draw(st.integers(-(stage.height - 1), stage.height - 1))
    got = correlation_interval(params, n, a, b, depth)
    definite, lost = orbit_correlation(params, n, a, b, depth)
    assert got.lo <= definite <= got.hi
    assert got.width <= abs(n) * stage.level_width
    assert got == correlation_interval(params, -n, b, a, depth)
    if depth > 1:
        shallow_h = build_stage(params, depth - 1).height
        if abs(n) < shallow_h:
            shallow = correlation_interval(params, n, a, b, depth - 1)
            assert shallow.lo <= got.lo and got.hi <= shallow.hi


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shift_profile_matches_per_shift_reference(data):
    kind = data.draw(st.sampled_from(["explicit", "pair", "odometer"]))
    if kind == "explicit":
        params, n_stages = data.draw(small_construction())
        depth = data.draw(st.integers(0, n_stages - 1))
    elif kind == "pair":
        cuts = data.draw(st.sampled_from([{"name": "constant", "r": 2}, {"name": "affine"}]))
        pair = rigid_mixing_pair({"cuts": cuts})
        params = data.draw(st.sampled_from([pair.t_params, pair.s_params]))
        depth = data.draw(st.integers(0, 3))
    else:  # no spacers: copies reach both ends of the tower
        params, depth = odometer(data.draw(st.integers(2, 3))), data.draw(st.integers(0, 4))
    sets = []
    for _ in "ab":  # each set at its own stage, so A and B may differ in stage
        stage = data.draw(st.integers(0, depth))
        cells = st.integers(0, build_stage(params, stage).height - 1)
        sets.append(LevelSet(stage, tuple(data.draw(st.sets(cells, max_size=6)))))
    a, b = sets
    height = build_stage(params, depth).height
    ns = data.draw(st.lists(st.integers(-height - 3, height + 3), max_size=10))
    ns += [height - 1, 1 - height, height, -height]  # the extreme shifts
    a_idx = frozenset(refine_set(params, a, depth).indices)
    b_idx = frozenset(refine_set(params, b, depth).indices)
    want = [shift_counts(height, a_idx, b_idx, n) for n in ns]
    for cap in (tower.MAX_REFINED_LEVELS, 0):  # the lower set's copies listed, then not
        with mock.patch.object(tower, "MAX_REFINED_LEVELS", cap):
            assert tower._shift_profile(params, a, b, depth, ns) == want
            # one shift at a time, so the differences kept are the fewest
            assert [tower._shift_profile(params, a, b, depth, [n])[0] for n in ns] == want


def test_level_past_stage_height_has_no_interval():
    t_params = rigid_mixing_pair().t_params
    assert build_stage(t_params, 2).height < 10**6
    far = LevelSet(2, (10**6,))
    with pytest.raises(ValueError, match="out of range"):
        correlation_interval(t_params, 1, far, far, 2)
    with pytest.raises(ValueError, match="out of range"):
        refine_set(t_params, far, 3)
    # the stage-2 chacon tower has levels 0..12 only
    chacon_params = chacon()
    for levels in (LevelSet(2, (0, 99)), LevelSet(2, (-3,))):
        with pytest.raises(ValueError, match="index out of range for stage-2 tower"):
            level_set_measure(chacon_params, levels)


def test_refinement_past_the_cap_is_refused_before_it_starts():
    # one stage-0 level of the pair has 8 * 16 * ... * 320 stage-40 copies
    size = prod(8 * j + 8 for j in range(40))
    with pytest.raises(ValueError, match=rf"1 stage-0 level\(s\) refine to {size} stage-40"):
        refine_set(rigid_mixing_pair().t_params, LevelSet(0, (0,)), 40)


def test_sets_stages_apart_are_counted_without_refining(monkeypatch):
    params = chacon()
    a, b = LevelSet(1, (2,)), LevelSet(12, (0, 7, 40000, 88000))
    # 3**17 copies of A at stage 18, all within reach at depth 19: too many to list.
    # The copy at the base of each of the 3 columns lifts level 2 by 5 onto level 7.
    far = LevelSet(18, (7, 12))
    tracemalloc.start()
    try:
        corr = correlation_interval(params, 5, a, far, 19)
        assert corr == correlation_interval(params, -5, far, a, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corr.lo == 3 * build_stage(params, 19).level_width
    assert peak < 10**6
    height = build_stage(params, 12).height
    ns = [-88000, -5, 1, 7, 39000, height - 1]
    a_idx = frozenset(refine_set(params, a, 12).indices)  # 3**11 levels, under the cap
    want = [shift_counts(height, a_idx, frozenset(b.indices), n) for n in ns]
    assert tower._shift_profile(params, a, b, 12, ns) == want  # A's copies listed
    monkeypatch.setattr(tower, "MAX_REFINED_LEVELS", 0)  # and counted by the recursion
    assert tower._shift_profile(params, a, b, 12, ns) == want
    flipped = tower._shift_profile(params, b, a, 12, [-n for n in ns])
    assert flipped == [(hits, lost_a, lost_b) for hits, lost_b, lost_a in want]


def test_dropped_pair_frees_its_stages():
    pair = rigid_mixing_pair()
    a = LevelSet(1, (0,))
    rigidity_scan(pair.t_params, a, 20)
    correlation_interval(pair.s_params, pair.time_at(2), a, a, 3)
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None


def test_library_depth_is_bounded():
    p = chacon()
    a = LevelSet(2, (0,))
    swap = FinitarySwap(stage=1, pair=(0, 1))
    for call in (
        lambda: rigidity_scan(p, a, 5, depth=600),
        lambda: correlation_interval(p, 3, a, a, 600),
        lambda: symdiff_interval(p, 3, a, 600),
        lambda: wh_defect(p, swap, a, 5, 600),
    ):
        with pytest.raises(ValueError, match=f"maximum of {tower.MAX_DEPTH}"):
            call()
    assert correlation_interval(p, 3, a, a, tower.MAX_DEPTH).lo >= 0


def test_every_shift_stays_below_the_depth_tower_height():
    p, depth = chacon(), 3
    height = build_stage(p, depth).height
    a, swap = LevelSet(2, (0, 4)), FinitarySwap(stage=1, pair=(0, 2))
    for call in (
        lambda n: correlation_interval(p, n, a, a, depth),
        lambda n: correlation_interval(p, -n, a, a, depth),
        lambda n: symdiff_interval(p, n, a, depth),
        lambda n: rigidity_scan(p, a, n, depth)[-1].symdiff,
        lambda n: wh_defect(p, swap, a, n, depth),
    ):
        with pytest.raises(InsufficientDepthError, match=f"stage-{depth} tower"):
            call(height)
        assert isinstance(call(height - 1), RationalInterval)
