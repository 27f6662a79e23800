import tracemalloc
from collections import Counter
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


def _deep_model():
    return PoissonModel(rigid_mixing_pair().t_params, LevelSet(5, range(700)), depth=5)


def test_level_sets_are_sized_before_refining():
    model = _deep_model()
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


@pytest.mark.parametrize(
    "window, depth, a, n_terms, listed",
    [
        # one run of window levels: each stage-1 swap level has
        # 16 * 24 * 32 * 40 = 491520 depth-5 copies, 11 of them below 700 + N
        (LevelSet(5, range(700)), 5, LevelSet(5, range(50, 350)), 50, 11),
        # one window level refined to a copy at the foot of each of the 48 (56)
        # depth columns, where a stage-1 swap level has 23592960 (1321205760)
        # copies: only the 3 within N above each window copy are listed
        (LevelSet(5, (0,)), 6, LevelSet(6, (0,)), 200, 144),
        (LevelSet(6, (0,)), 7, LevelSet(7, (0,)), 200, 168),
    ],
)
def test_a_swap_support_is_listed_only_where_it_can_move_a_window_level(
    monkeypatch, window, depth, a, n_terms, listed
):
    model = PoissonModel(rigid_mixing_pair().t_params, window, depth=depth)
    got, refined_copies = [], poisson._refined_copies

    def copies(*args):
        got.append(len(found := refined_copies(*args)))
        return found

    monkeypatch.setattr(poisson, "_refined_copies", copies)
    tracemalloc.start()
    try:
        r = poisson_wh_experiment(model, FinitarySwap(1, (1, 3)), a, n_terms, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [listed, listed] and peak < 10**7
    assert r.below_majorant and r.lost_mass == 0


def test_a_swap_is_checked_and_an_empty_window_lists_nothing():
    model, a = _deep_model(), LevelSet(5, range(50, 350))
    with pytest.raises(ValueError, match="index out of range for stage-1 tower"):
        _swap_weights(model, FinitarySwap(1, (1, 9999)), a, 50)
    with pytest.raises(ValueError, match="cannot coarsen a level set"):
        _swap_weights(model, FinitarySwap(6, (1, 3)), a, 50)
    empty = PoissonModel(model.params, LevelSet(2, ()), depth=2)
    slots, signed, lost = _swap_weights(empty, FinitarySwap(1, (1, 3)), LevelSet(2, ()), 5)
    assert slots.shape == (0,) and signed.shape == (0, 5) and lost == 0


def test_swap_weights_build_no_window_by_n_matrix():
    # 700 stage-2 levels refine to 16800 depth-3 levels: a dense int8
    # window x N matrix would be 33.6 MB at N = 2000
    model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, range(700)), depth=3)
    assert model.n_levels == 16800
    a, n_terms = LevelSet(2, range(50, 350)), 2000
    tracemalloc.start()
    try:
        slots, signed, _ = _swap_weights(model, FinitarySwap(1, (1, 3)), a, n_terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert signed.shape == (len(slots), n_terms) and signed.any(axis=1).all()
    assert 0 < len(slots) < model.n_levels // 50
    assert peak < model.n_levels * n_terms // 8


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


def _weight_matrices(model):
    picks = np.random.default_rng(model.n_levels)
    weights = picks.integers(-3, 4, size=(model.n_levels, 6)).astype(np.int8)
    weights[picks.random(model.n_levels) < 0.5] = 0  # empty rows
    weights[:, 2] = 0  # an empty column
    weights[::4] = (1, -3, 0, 3, 0, -1)  # duplicated nonzero rows
    return weights, weights.astype(np.int64), np.zeros_like(weights), weights[:, :1]


_WINDOWS = [range(700), [5], range(0, 300, 3)]


@pytest.mark.parametrize("window", _WINDOWS)
def test_row_means_are_the_exact_measures_of_the_slots_sharing_a_row(window):
    model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, window), depth=2)
    for w in _weight_matrices(model):
        means, rows = poisson._row_means(model, w)
        assert rows.dtype == np.float64 and rows.shape == (len(means), w.shape[1])
        times = Counter(tuple(r) for r in w.tolist() if any(r))
        got = dict(zip(map(tuple, rows.astype(np.int64).tolist()), means.tolist()))
        assert got == {r: float(model.level_width * m) for r, m in times.items()}
        # the width is 1/128, so every mean is exact and so is their sum
        nonzero = int(w.any(axis=1).sum())
        assert sum(map(Q, means.tolist())) == model.level_width * nonzero


@pytest.mark.parametrize("size", [1, 7, 500])
@pytest.mark.parametrize("window", _WINDOWS)
def test_weighted_counts_equal_the_dense_counts_of_the_same_points(size, window):
    # the points on the slots that share a row are one Poisson count, so the
    # kernel's sums are the dense (size, k) matrix of those counts, drawn on
    # the same generator, times the rows
    model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, window), depth=2)
    for w in _weight_matrices(model):
        counts = poisson._weighted_counts(model, w)
        means, rows = poisson._row_means(model, w)
        for seed in range(5):
            sums = counts(np.random.default_rng(seed), size)
            drawn = np.random.default_rng(seed).poisson(means, (size, len(means)))
            assert sums.dtype == np.float64
            assert sums.shape == (size, w.shape[1])
            assert np.array_equal(sums, drawn.astype(np.float64) @ rows)
    if len(window) == 1:  # mean 1/128 per configuration: most hold no point
        assert not sums.any(axis=1).all()


def test_weighted_sums_have_the_exact_mean_and_covariance(band_model):
    w = _weight_matrices(band_model)[0].astype(np.int64)
    width = float(band_model.level_width)
    mean, cov = w.sum(axis=0) * width, (w.T @ w) * width
    counts = poisson._weighted_counts(band_model, w)
    rng = np.random.default_rng(11)
    sums = np.vstack([counts(rng, 2000) for _ in range(10)])
    n = len(sums)
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(sums.mean(axis=0) - mean) <= 5 * sd / np.sqrt(n))
    centred = sums - mean
    products = centred[:, :, None] * centred[:, None, :]
    se = products.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(products.mean(axis=0) - cov) <= 5 * se)
    assert cov[2, 2] == 0 and cov[0, 0] > 0


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


def _walk_models():
    band = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, range(700)), depth=2)
    odometer = PoissonModel(builtin_params("odometer"), LevelSet(9, range(300)), depth=9)
    chacon = builtin_params("chacon")
    top, top38 = build_stage(chacon, 40).height, build_stage(chacon, 38).height
    tall = PoissonModel(chacon, LevelSet(40, range(top - 400, top)), depth=40)
    assert tall.indices[0] > 2**63
    # ten stage-3 levels at the foot of each of the 32 depth-4 columns: the
    # swap's reach splits into one span per column
    split = PoissonModel(rigid_mixing_pair().t_params, LevelSet(3, range(10)), depth=4)
    return [
        (band, FinitarySwap(1, (1, 3)), LevelSet(2, range(50, 350)),
         LevelSet(2, range(100, 150)), (0, 3, 17, 73, 699, 700)),
        (odometer, FinitarySwap(3, (2, 5)), LevelSet(9, range(0, 200)),
         LevelSet(9, range(40, 240)), (0, 1, 64, 250)),
        (tall, FinitarySwap(38, (top38 - 30, top38 - 3)), LevelSet(40, range(top - 60, top - 20)),
         LevelSet(40, range(top - 60, top - 20)), (0, 5, 100, 390, 395)),
        (split, FinitarySwap(1, (1, 3)), LevelSet(3, range(2)),
         LevelSet(3, range(2, 8)), (0, 3, 50)),
    ]


@pytest.mark.parametrize("case", range(4))
def test_vectorized_walks_match_the_per_level_walks(case):
    model, swap, a, cov_a, shifts = _walk_models()[case]
    for n in shifts:
        slots, lost = _shift_slots(model, n, cov_a)
        assert (sorted(slots.tolist()), lost) == oracles.poisson_shift_walk(model, n, cov_a)
    for n_terms in (1, 60):
        slots, rows, lost = _swap_weights(model, swap, a, n_terms)
        assert rows.any(axis=1).all()  # only the nonzero rows are built
        signed = np.zeros((model.n_levels, n_terms), dtype=np.int8)
        signed[slots] = rows
        plus, minus, walk_lost = oracles.poisson_swap_walk(model, swap, a, n_terms)
        assert lost == walk_lost
        assert [np.flatnonzero(col == 1).tolist() for col in signed.T] == plus
        assert [np.flatnonzero(col == -1).tolist() for col in signed.T] == minus
        if n_terms == 60:
            assert any(plus) and any(minus)


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
    (range(100, 150), 25 / 64, 6, 0.8017663852187572),
    (range(0, 700), 5.46875, 18, 0.10635670463596456),
    (range(650, 700), 25 / 64, 6, 0.3418549709822274),
    ([5], 1 / 128, 2, 0.9081427353919551),
    (range(0, 300, 3), 0.78125, 7, 0.9447613077496322),
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
