import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

import oracles
from ergolab import poisson
from ergolab.poisson import (
    PoissonModel,
    _shift_slots,
    _swap_weights,
    poisson_count_covariance,
    poisson_gof,
    poisson_wh_experiment,
)
from ergolab.tower import (
    ConstructionParams,
    FinitarySwap,
    LevelSet,
    RationalInterval,
    build_stage,
    correlation_interval,
)
from ergolab.constructions import builtin_params, rigid_mixing_pair


@pytest.fixture(scope="module")
def band_model():
    params = rigid_mixing_pair().t_params
    return PoissonModel(params, LevelSet(2, range(700)), depth=2)


def test_window_bookkeeping(band_model):
    assert band_model.n_levels == 700
    assert band_model.level_width == Q(1, 128)
    assert band_model.intensity == Q(700, 128)
    with pytest.raises(ValueError):
        band_model.member_slots(LevelSet(2, [699, 700]))


def test_window_size_is_capped():
    params = builtin_params("chacon")
    with pytest.raises(ValueError):
        PoissonModel(params, LevelSet(11, range(250_000)), depth=11)


def _refused_before_refining(call, match):
    """`call` raises the refinement cap's ValueError without refining: the
    refused sets hold millions of levels, a Python int each."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7


def test_window_size_is_checked_before_refining():
    params = rigid_mixing_pair().t_params
    _refused_before_refining(
        lambda: PoissonModel(params, LevelSet(2, range(700)), depth=5),
        r"700 stage-2 level\(s\) refine to 21504000 stage-5 levels, cap is 200000",
    )


def test_level_sets_and_swap_supports_are_sized_before_refining():
    model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(5, range(700)), depth=5)
    # one stage-0 level is 8 * 16 * 24 * 32 * 40 = 3932160 depth-5 levels
    cap = r"1 stage-0 level\(s\) refine to 3932160 stage-5 levels, cap is 200000"
    _refused_before_refining(lambda: model.member_slots(LevelSet(0, (0,))), cap)
    _refused_before_refining(
        lambda: poisson_count_covariance(
            model, 0, LevelSet(0, (0,)), LevelSet(5, range(5)), 4000
        ),
        cap,
    )
    # a set under the cap that the window does not hold is still refused
    with pytest.raises(ValueError, match="not contained in the window"):
        model.member_slots(LevelSet(3, (0,)))
    # each stage-1 swap level has 16 * 24 * 32 * 40 = 491520 depth-5 copies;
    # A refines, the swap support may not
    a = LevelSet(5, range(50, 350))
    _refused_before_refining(
        lambda: poisson_wh_experiment(model, FinitarySwap(1, (1, 3)), a, 50, 4000),
        r"2 stage-1 level\(s\) refine to 983040 stage-5 levels, cap is 200000",
    )


def test_too_few_samples_per_batch_are_rejected(band_model):
    a = LevelSet(2, range(100, 150))
    swap = FinitarySwap(stage=1, pair=(1, 3))
    for samples in (10, 79):
        with pytest.raises(ValueError, match="fewer than 2 per batch"):
            poisson_count_covariance(band_model, 0, a, a, samples)
        with pytest.raises(ValueError, match="fewer than 2 per batch"):
            poisson_wh_experiment(band_model, swap, a, 50, samples)
    assert poisson_count_covariance(band_model, 0, a, a, 119).estimate.n_samples == 80
    assert poisson_wh_experiment(band_model, swap, a, 50, 119).estimate.n_samples == 80


def _dense_counts(model, owner, slot, size):
    counts = np.zeros((size, model.n_levels), dtype=np.int64)
    np.add.at(counts, (owner, slot), 1)
    return counts


@pytest.mark.parametrize("size", [1, 7, 500])
@pytest.mark.parametrize("window", [range(700), [5], range(0, 300, 3)])
def test_weighted_counts_equal_the_dense_counts_of_the_same_points(size, window):
    model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, window), depth=2)
    picks = np.random.default_rng(size)
    weights = picks.integers(-3, 4, size=(model.n_levels, 6)).astype(np.int8)
    weights[picks.random(model.n_levels) < 0.5] = 0  # empty rows
    weights[:, 2] = 0  # an empty column
    weights[::4] = (1, -3, 0, 3, 0, -1)  # duplicated nonzero rows
    matrices = (weights, weights.astype(np.int64), np.zeros_like(weights), weights[:, :1])
    for w in matrices:
        counts = poisson._weighted_counts(model, w)
        for seed in range(5):
            owner, slot = model.sample_points(np.random.default_rng(seed), size)
            sums = counts(np.random.default_rng(seed), size)
            assert sums.dtype == np.float64
            assert sums.shape == (size, w.shape[1])
            assert np.array_equal(sums, _dense_counts(model, owner, slot, size) @ w)
    if len(window) == 1:  # mean 1/128 per configuration: most hold no point
        assert np.bincount(owner, minlength=size).min() == 0


@pytest.mark.parametrize("seed", range(8))
def test_sample_covariance_is_the_exact_covariance_rounded_once(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    x = rng.poisson(rng.uniform(0.01, 40), size=n)
    y = x * int(rng.integers(-2, 3)) + rng.poisson(3, size=n)
    constant = np.full(n, 7)  # covariance 0 with anything
    pairs = [(x, y), (x, x), (x, constant), (constant, y)]
    for u, v in pairs:
        mean_u, mean_v = Q(int(u.sum()), n), Q(int(v.sum()), n)
        exact = sum((int(a) - mean_u) * (int(b) - mean_v) for a, b in zip(u, v)) / (n - 1)
        for cast in (np.int64, np.float64):
            got = poisson._sample_covariance(u.astype(cast), v.astype(cast))
            assert got == float(exact)
            assert got == pytest.approx(np.cov(u, v, ddof=1)[0, 1], rel=1e-12, abs=1e-12)


def test_configuration_levels_are_the_window_indices_of_the_drawn_slots(band_model):
    # configuration c holds the levels indices[slot] of the points that c owns
    for seed in range(20):
        owner, slot = band_model.sample_points(np.random.default_rng(seed), 5)
        totals = np.random.default_rng(seed).poisson(float(band_model.intensity), size=5)
        assert owner.tolist() == np.repeat(np.arange(5), totals).tolist()
        assert len(slot) == totals.sum()


def _walk_models():
    band = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, range(700)), depth=2)
    odometer = PoissonModel(builtin_params("odometer"), LevelSet(9, range(300)), depth=9)
    chacon = builtin_params("chacon")
    top, top38 = build_stage(chacon, 40).height, build_stage(chacon, 38).height
    tall = PoissonModel(chacon, LevelSet(40, range(top - 400, top)), depth=40)
    assert tall.indices[0] > 2**63
    return [
        (band, FinitarySwap(1, (1, 3)), LevelSet(2, range(50, 350)),
         LevelSet(2, range(100, 150)), (0, 3, 17, 73, 699, 700)),
        (odometer, FinitarySwap(3, (2, 5)), LevelSet(9, range(0, 200)),
         LevelSet(9, range(40, 240)), (0, 1, 64, 250)),
        (tall, FinitarySwap(38, (top38 - 30, top38 - 3)), LevelSet(40, range(top - 60, top - 20)),
         LevelSet(40, range(top - 60, top - 20)), (0, 5, 100, 390, 395)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_vectorized_walks_match_the_per_level_walks(case):
    model, swap, a, cov_a, shifts = _walk_models()[case]
    for n in shifts:
        slots, lost = _shift_slots(model, n, cov_a)
        assert (sorted(slots.tolist()), lost) == oracles.poisson_shift_walk(model, n, cov_a)
    for n_terms in (1, 60):
        signed, lost = _swap_weights(model, swap, a, n_terms)
        plus, minus, walk_lost = oracles.poisson_swap_walk(model, swap, a, n_terms)
        assert lost == walk_lost
        assert [np.flatnonzero(col == 1).tolist() for col in signed.T] == plus
        assert [np.flatnonzero(col == -1).tolist() for col in signed.T] == minus
        if n_terms == 60:
            assert any(plus) and any(minus)


def test_configuration_sampler_stays_inside_the_window(band_model):
    owner, slot = band_model.sample_points(np.random.default_rng(4), 50)
    levels = band_model.indices[slot]
    assert all(0 <= level < 700 for level in levels)
    assert 1 <= len(owner) / 50 <= 12


def test_autocovariance_at_zero_is_the_measure(band_model):
    a = LevelSet(2, range(100, 150))
    r = poisson_count_covariance(band_model, 0, a, a, 10**4, seed=1)
    assert r.exact == RationalInterval(Q(25, 64), Q(25, 64))
    assert r.lost_mass == 0
    assert r.within_five_se


def test_covariance_tracks_the_exact_interval(band_model):
    a = LevelSet(2, range(100, 150))
    b = LevelSet(2, range(90, 200))
    for n in (3, 17, 73):
        r = poisson_count_covariance(band_model, n, a, b, 10**4, seed=n)
        assert r.exact == correlation_interval(
            band_model.params, -n, a, b, 2
        )
        assert r.lost_mass == 0
        assert r.within_five_se, (n, r)


def test_disjoint_sets_have_zero_covariance(band_model):
    a = LevelSet(2, range(100, 150))
    b = LevelSet(2, range(400, 450))
    r = poisson_count_covariance(band_model, 0, a, b, 10**4, seed=2)
    assert r.exact == RationalInterval(Q(0), Q(0))
    assert abs(r.estimate.value) <= 5 * r.estimate.stderr


def test_lost_mass_counts_preimages_that_leave_the_tower(band_model):
    a = LevelSet(2, range(0, 30))
    b = LevelSet(2, range(0, 700))
    r = poisson_count_covariance(band_model, 10, a, b, 10**4, seed=3)
    assert r.lost_mass == Q(10, 128)


def test_covariance_requires_window_membership(band_model):
    outside = LevelSet(2, range(690, 710))
    with pytest.raises(ValueError):
        poisson_count_covariance(band_model, 0, outside, outside, 10**4)


def test_covariance_is_seed_reproducible(band_model):
    a = LevelSet(2, range(100, 150))
    b = LevelSet(2, range(90, 200))
    r1 = poisson_count_covariance(band_model, 3, a, b, 10**4, seed=7)
    r2 = poisson_count_covariance(band_model, 3, a, b, 10**4, seed=7)
    assert r1 == r2


def test_gof_accepts_the_simulator(band_model):
    a = LevelSet(2, range(100, 150))
    g = poisson_gof(band_model, a, 2 * 10**4, seed=5)
    assert g.mean == pytest.approx(25 / 64)
    assert g.n_bins >= 2
    assert g.passed()
    again = poisson_gof(band_model, a, 2 * 10**4, seed=5)
    assert again.p_value == g.p_value


def test_gof_handles_a_sparse_window(band_model):
    g = poisson_gof(band_model, LevelSet(2, [5]), 2 * 10**4, seed=6)
    assert g.mean == pytest.approx(1 / 128)
    assert g.passed()


# scipy is the oracle for the closed forms behind `poisson_gof`

@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1500.0), st.integers(1, 200))
@example(0.0, 1)
@example(1e-300, 1)
@example(1350.0, 163)
def test_chi2_tail_matches_scipy(x, df):
    ref = stats.chi2.sf(x, df)
    assume(ref > 1e-290)  # relative error is meaningless near underflow
    assert poisson._chi2_sf(x, df) == pytest.approx(ref, rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(st.floats(2.0**-10, 300.0), st.floats(0.0, 1.0))
@example(1 / 128, 1.0)
@example(300.0, 1.0)
def test_pmf_matches_scipy(mu, u):
    # k anywhere in the goodness-of-fit range 0..upper, for mu up to 300
    # (every mean the tests, demos and benchmark use is below 6); at
    # mu = 5000 both forms round an exponent of ~1e5 and differ by ~1e-11
    k = round(u * (int(stats.poisson.isf(1e-9, mu)) + 2))
    assert poisson._pmf(k, mu) == pytest.approx(stats.poisson.pmf(k, mu), rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(st.floats(2.0**-10, 5000.0))
@example(1 / 128)
@example(25 / 64)
@example(0.78125)
@example(5.46875)
@example(300.0)
@example(5000.0)
def test_gof_range_matches_scipy_isf(mu):
    assert poisson._isf(1e-9, mu) == int(stats.poisson.isf(1e-9, mu))


# criterion 07's windows at 10**5 samples, seeds 400-404: (mean, n_bins,
# p-value) as scipy's isf, pmf and chi2.sf gave them; every verdict at alpha
# 0.001 is a pass
_CRITERION_07_GOF = [
    (range(100, 150), 25 / 64, 6, 0.8075570816907159),
    (range(0, 700), 5.46875, 18, 0.2639463158506682),
    (range(650, 700), 25 / 64, 6, 0.9924264201317295),
    ([5], 1 / 128, 2, 0.016228812541794178),
    (range(0, 300, 3), 0.78125, 7, 0.8495578372476476),
]


def test_gof_bins_and_verdicts_match_the_scipy_test(band_model):
    for idx, (levels, mean, n_bins, p_value) in enumerate(_CRITERION_07_GOF):
        g = poisson_gof(band_model, LevelSet(2, levels), 10**5, seed=400 + idx)
        assert (g.mean, g.n_bins, g.passed(0.001)) == (mean, n_bins, True)
        assert g.p_value == pytest.approx(p_value, rel=1e-12)


def test_gof_needs_enough_mass():
    params = rigid_mixing_pair().t_params
    model = PoissonModel(params, LevelSet(2, [5]), depth=2)
    with pytest.raises(ValueError):
        poisson_gof(model, LevelSet(2, [5]), 200, seed=1)


def test_wh_statistic_sits_below_its_majorant(band_model):
    swap = FinitarySwap(stage=1, pair=(1, 3))
    a = LevelSet(2, range(50, 350))
    for n_terms in (50, 100):
        r = poisson_wh_experiment(
            band_model, swap, a, n_terms, 10**4, seed=n_terms
        )
        assert r.lost_mass == 0
        assert r.estimate.value > 0.0
        assert r.below_majorant, r
        assert r.majorant == 2 * float(r.wh_interval.hi)


def test_wh_swap_outside_the_window_is_exactly_silent(band_model):
    swap = FinitarySwap(stage=2, pair=(1200, 1205))
    a = LevelSet(2, range(50, 350))
    r = poisson_wh_experiment(band_model, swap, a, 50, 10**4, seed=1)
    assert r.estimate.value == 0.0
    assert r.majorant == 0.0


def test_wh_on_the_odometer_band():
    params = builtin_params("odometer")
    model = PoissonModel(params, LevelSet(9, range(300)), depth=9)
    swap = FinitarySwap(stage=3, pair=(2, 5))
    a = LevelSet(9, range(0, 200))
    r = poisson_wh_experiment(model, swap, a, 50, 10**4, seed=8)
    assert r.lost_mass == 0
    assert r.below_majorant


def test_wh_is_seed_reproducible(band_model):
    swap = FinitarySwap(stage=1, pair=(1, 3))
    a = LevelSet(2, range(50, 350))
    r1 = poisson_wh_experiment(band_model, swap, a, 50, 10**4, seed=4)
    r2 = poisson_wh_experiment(band_model, swap, a, 50, 10**4, seed=4)
    assert r1 == r2
