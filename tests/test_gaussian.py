import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite_e

from ergolab.gaussian import (
    GaussianModel,
    _wh_gap_functionals,
    gaussian_hermite_correlation,
    gaussian_wh_experiment,
    hermite_value,
    orthant_probability,
    rank_factor,
    triple_correlation_weakmix_check,
)
from ergolab.experiments import resolve_config
from ergolab.mc import BATCHES, EstimateWithError
from ergolab.operators import (
    FiniteRankPerturbation,
    make_rotation_operator,
    random_unit_vector,
    uniform_unit_vector,
    vector_with_plane_mass,
)
from oracles import dense_orbit_rows, dense_rotation, hermite_cross_moment


def _random_angles(n_blocks: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_blocks)


@pytest.fixture(scope="module")
def model():
    return GaussianModel(make_rotation_operator(64), random_unit_vector(64, seed=100))


@pytest.fixture(scope="module")
def flat_model():
    return GaussianModel(make_rotation_operator(64), uniform_unit_vector(64))


def test_model_validates_inputs():
    angles = make_rotation_operator(4)
    with pytest.raises(ValueError):
        GaussianModel(angles, np.array([1.0, 2.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        GaussianModel(angles, np.array([1.0, 0.0]))


def test_covariance_function_basics(model):
    assert model.rho(0) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 5, 40):
        assert abs(model.rho(n)) <= 1.0 + 1e-12
        assert model.rho(-n) == pytest.approx(model.rho(n), abs=1e-12)


def test_hermite_values_match_the_low_degrees():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(hermite_value(1, x), x)
    assert np.allclose(hermite_value(2, x), x**2 - 1)
    assert np.allclose(hermite_value(3, x), x**3 - 3 * x)


def test_hermite_closed_forms_are_bitwise_hermeval():
    x = np.concatenate(
        [
            [0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e150, -3e103, np.inf, -np.inf],
            np.random.default_rng(4).standard_normal(2000) * 3.0,
        ]
    )
    for k in (1, 2, 3):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        for arg in (x, x.reshape(30, 67)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = hermite_value(k, arg)
                want = hermite_e.hermeval(arg, coeffs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), k
    for k in (0, 4):
        with pytest.raises(ValueError):
            hermite_value(k, x)


_SHIFTS = st.lists(st.integers(-70, 70), min_size=1, max_size=14)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["default", "random"]), _SHIFTS)
def test_orbit_rows_are_bitwise_per_shift_and_match_dense_powers(kind, shifts):
    angles = make_rotation_operator(16) if kind == "default" else _random_angles(8, 7)
    model = GaussianModel(angles, random_unit_vector(16, seed=3))
    got = model.orbit_rows(shifts)
    for s, row in zip(shifts, got):
        assert row.tobytes() == model.orbit_rows([s])[0].tobytes()
    want = dense_orbit_rows(angles, model.vector, shifts)
    assert np.abs(got - want).max() <= 1e-13


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([4, 8, 16]), _SHIFTS)
def test_factor_reproduces_the_row_covariance(dim, shifts):
    model = GaussianModel(_random_angles(dim // 2, dim), random_unit_vector(dim, seed=1))
    rows = model.orbit_rows(shifts)
    k = len(shifts)
    factor = rank_factor(rows)
    assert factor.shape == (k, min(k, dim))
    assert np.allclose(factor @ factor.T, rows @ rows.T, rtol=0.0, atol=1e-12)


def test_rank_factor_handles_repeated_shifts(model):
    factor = rank_factor(model.orbit_rows([0, 0]))
    assert factor.shape == (2, 2)
    assert np.allclose(factor @ factor.T, np.ones((2, 2)), rtol=0.0, atol=1e-12)
    factor = rank_factor(model.orbit_rows([5, 5]))
    x = factor @ np.random.default_rng(0).standard_normal((factor.shape[1], 100))
    assert x.shape == (2, 100)
    assert np.allclose(x[0], x[1], rtol=0.0, atol=1e-12)


class _CountingDraws:
    """Generator stand-in that counts the standard normals it hands out."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self.normals = 0

    def standard_normal(self, size=None, out=None):
        x = self._rng.standard_normal(size, out=out)
        self.normals += x.size
        return x


def _calibrated(dim):
    pert = FiniteRankPerturbation(dim, 6, 7, angle=0.5)
    model = GaussianModel(
        make_rotation_operator(dim), vector_with_plane_mass(dim, pert, delta=0.02, seed=5)
    )
    return model, pert


_WH_SAMPLES = resolve_config({"experiment": "wh-gaussian"})["params"]["samples"]


@pytest.mark.parametrize(
    "estimate, normals",
    [
        pytest.param(
            lambda: gaussian_hermite_correlation(_calibrated(64)[0], 2, 5, 4000), 2, id="gauss"
        ),
        pytest.param(
            lambda: triple_correlation_weakmix_check(_calibrated(64)[0], [3], [7], samples=4000),
            3,
            id="triple-mixing",
        ),
        pytest.param(
            lambda: gaussian_wh_experiment(*_calibrated(64), 1, 100, 4000), 4, id="wh-degree-1"
        ),
        # n_terms + 2 = 102 rows on 64 coordinates: the dim normals are fewer
        pytest.param(
            lambda: gaussian_wh_experiment(*_calibrated(64), 2, 100, _WH_SAMPLES),
            64,
            id="wh-degree-2-full-width",
        ),
        # 22 rows on 256 coordinates, and the QR repays at these samples
        pytest.param(
            lambda: gaussian_wh_experiment(*_calibrated(256), 2, 20, _WH_SAMPLES),
            22,
            id="wh-degree-2-factored",
        ),
    ],
)
def test_gaussian_blocks_draw_min_rows_or_dim_latent_normals(monkeypatch, estimate, normals):
    per_sample = []

    def one_batch(stat, samples, **kwargs):
        draws, size = _CountingDraws(), samples // BATCHES
        stat(draws, size)
        per_sample.append(draws.normals / size)
        return EstimateWithError(0.0, 1.0, samples)

    monkeypatch.setattr("ergolab.gaussian.batch_estimate", one_batch)
    estimate()
    assert per_sample == [normals]


def test_rho_matches_matrix_power():
    angles = make_rotation_operator(6)
    op = dense_rotation(angles)
    f = random_unit_vector(6, seed=2)
    model = GaussianModel(angles, f)
    for n in (-9, -1, 0, 1, 5, 23):
        want = float(np.linalg.matrix_power(op, abs(n)).T @ f @ f) if n < 0 else float(
            np.linalg.matrix_power(op, n) @ f @ f
        )
        assert model.rho(n) == pytest.approx(want, abs=1e-12)


def test_prediction_agrees_with_quadrature_oracle(model):
    for k in (1, 2, 3):
        for n in (3, 7, 25):
            rho = model.rho(n)
            assert math.factorial(k) * rho**k == pytest.approx(
                hermite_cross_moment(k, rho), abs=1e-10
            )


def test_degree_one_shift_zero_is_the_plain_variance(model):
    r = gaussian_hermite_correlation(model, 1, 0, 10**4, seed=1)
    assert r.prediction == pytest.approx(1.0, abs=1e-12)
    assert r.within_five_se


def test_hermite_correlations_within_five_se(model):
    for k in (1, 2, 3):
        for n in (3, 7):
            r = gaussian_hermite_correlation(model, k, n, 10**4, seed=10 * k + n)
            assert r.within_five_se, (k, n, r)


def test_nearly_uncorrelated_shift_gives_zero_for_all_degrees(flat_model):
    quiet = next(
        n for n in range(1, 300) if abs(flat_model.rho(n)) <= 0.005
    )
    for k in (1, 2, 3):
        r = gaussian_hermite_correlation(flat_model, k, quiet, 10**4, seed=k)
        assert abs(r.prediction) <= math.factorial(k) * 0.005**k
        assert abs(r.estimate.value) <= abs(r.prediction) + 5 * r.estimate.stderr


def test_estimates_are_seed_reproducible(model):
    a = gaussian_hermite_correlation(model, 2, 7, 10**4, seed=3)
    b = gaussian_hermite_correlation(model, 2, 7, 10**4, seed=3)
    assert a == b


def test_degree_and_sample_guards(model):
    with pytest.raises(ValueError):
        gaussian_hermite_correlation(model, 4, 1, 10**4)
    # mc's floor of 2 samples in each of its 40 batches is the only one
    with pytest.raises(ValueError, match="79 samples over 40 batches leave fewer than 2"):
        gaussian_hermite_correlation(model, 1, 1, 79)
    assert gaussian_hermite_correlation(model, 1, 1, 80).estimate.n_samples == 80


def test_orthant_formula_matches_scipy():
    from scipy.stats import multivariate_normal

    for r12, r13, r23 in [(0.3, -0.2, 0.1), (0.0, 0.0, 0.0), (0.6, 0.5, 0.4)]:
        cov = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
        via_scipy = multivariate_normal(np.zeros(3), cov).cdf(np.zeros(3))
        assert orthant_probability(r12, r13, r23) == pytest.approx(
            via_scipy, abs=2e-5
        )
    with pytest.raises(ValueError):
        orthant_probability(1.5, 0.0, 0.0)


def test_triple_zero_shifts_are_flagged_and_large(model):
    entry = triple_correlation_weakmix_check(
        model, [0], [0], samples=10**4, seed=1
    )[0]
    assert not entry.condition_met
    assert entry.failed_pairs == ("m", "n", "n-m")
    assert entry.exact == pytest.approx(0.5, abs=1e-12)
    assert abs(entry.estimate.value - 0.5) <= 5 * entry.estimate.stderr
    assert entry.estimate.value - entry.product > 0.3


def test_triple_condition_met_deviations_vanish(flat_model):
    good = [
        i
        for i in range(1, 60)
        if abs(flat_model.rho(i)) <= 0.02 and abs(flat_model.rho(2 * i)) <= 0.02
    ]
    assert len(good) >= 3
    ms, ns = good[:3], [2 * i for i in good[:3]]
    entries = triple_correlation_weakmix_check(
        flat_model, ms, ns, threshold=0.02, samples=10**4, seed=5
    )
    for e in entries:
        assert e.condition_met
        assert abs(e.estimate.value - e.exact) <= 5 * e.estimate.stderr
        assert e.within_five_se


def test_triple_correlations_are_exactly_rho(model):
    ms, ns = [0, 3, 17, 40, -6], [0, 7, 34, 25, 9]
    entries = triple_correlation_weakmix_check(model, ms, ns, samples=10**4, seed=4)
    for e, m, n in zip(entries, ms, ns):
        assert (e.rho_m, e.rho_n, e.rho_gap) == (
            model.rho(m),
            model.rho(n),
            model.rho(n - m),
        )


def test_wh_identity_perturbation_is_exactly_silent(model):
    pert = FiniteRankPerturbation(64, 6, 7, angle=0.0)
    r = gaussian_wh_experiment(model, pert, 1, 50, 10**4, seed=2)
    assert r.estimate.value == 0.0
    assert abs(r.exact) < 1e-12
    assert r.majorant == pytest.approx(0.0, abs=1e-12)


def test_wh_moment_gap_tracks_the_conjugation_defect():
    angles = make_rotation_operator(64)
    pert = FiniteRankPerturbation(64, 6, 7, angle=0.5)
    f = vector_with_plane_mass(64, pert, delta=0.02, seed=5)
    model = GaussianModel(angles, f)
    for k in (1, 2):
        r = gaussian_wh_experiment(model, pert, k, 100, 10**4, seed=9)
        assert r.tracks_exact
        assert r.below_majorant
        if k == 1:
            assert r.majorant == pytest.approx(r.operator_defect.defect, abs=1e-15)
            assert abs(r.exact) <= r.operator_defect.defect + 1e-12
        else:
            assert r.majorant == pytest.approx(
                4 * r.operator_defect.majorant1, abs=1e-15
            )


def test_wh_generic_plane_also_tracks():
    # coordinates 5 and 10 lie in two rotation blocks, so the plane moves;
    # 102 rows on 64 coordinates draw all 64, 22 rows on 256 draw 22
    for dim, n_terms in ((64, 100), (256, 20)):
        pert = FiniteRankPerturbation(dim, 5, 10, angle=0.8)
        model = GaussianModel(make_rotation_operator(dim), random_unit_vector(dim, seed=30))
        r = gaussian_wh_experiment(model, pert, 2, n_terms, 10**4, seed=11)
        assert r.tracks_exact, dim
        assert r.below_majorant, dim


@pytest.mark.parametrize(
    "plane, angle",
    [
        pytest.param((6, 7), 0.5, id="rotation-block"),
        pytest.param((5, 10), 0.8, id="across-two-blocks"),
        pytest.param((6, 7), 0.0, id="identity"),
    ],
)
def test_wh_conjugation_moves_only_the_plane_coordinates(plane, angle):
    pert = FiniteRankPerturbation(64, *plane, angle=angle)
    model = GaussianModel(make_rotation_operator(64), random_unit_vector(64, seed=30))
    rows = model.orbit_rows(range(1, 101))
    xi = np.random.default_rng(4).standard_normal((64, 500))
    x, y = rows @ xi, pert.right_multiply(rows) @ xi
    # the rank-2 term is the whole conjugation
    w = pert.defect_factor(rows)
    np.testing.assert_allclose(w @ (pert.plane.T @ xi), y - x, rtol=0, atol=1e-14)
    # degree 1: four linear functionals of xi give the full Cesaro statistic
    v = _wh_gap_functionals(rows, pert) @ xi
    full = np.mean(np.mean(y * x - x**2, axis=0))
    assert (v[0] * v[2] + v[1] * v[3]).mean() == pytest.approx(full, rel=1e-12, abs=0)


_SLICED_VS_ORACLE = """
import numpy as np
from ergolab.gaussian import _COLUMNS, GaussianModel, gaussian_wh_experiment, rank_factor
from ergolab.mc import batch_estimate
from ergolab.operators import (
    FiniteRankPerturbation, make_rotation_operator, vector_with_plane_mass,
)
from oracles import wh2_statistic_on_slice_draws

# 102 rows on 64 coordinates draw all 64; 22 rows on 256 draw through the factor
for dim, n_terms, factored in ((64, 100, False), (256, 20, True)):
    pert = FiniteRankPerturbation(dim, 6, 7, angle=0.5)
    model = GaussianModel(make_rotation_operator(dim), vector_with_plane_mass(dim, pert, delta=0.02, seed=5))
    rows = model.orbit_rows(range(1, n_terms + 1))
    stack = np.vstack([rows, pert.plane.T])
    factor = rank_factor(stack) if factored else stack
    oracle = wh2_statistic_on_slice_draws(factor, pert.defect_factor(rows), _COLUMNS)
    for samples in (12000, 30000, 40000):  # batches of 300, 750 and 1000 samples
        got = gaussian_wh_experiment(model, pert, 2, n_terms, samples, seed=7)
        ref = batch_estimate(oracle, samples, seed=7)
        print(got.estimate == ref, got.estimate.value != 0.0)
"""


def test_wh_degree2_slices_equal_the_full_width_statistic_on_the_same_draws():
    # batch sizes that are not multiples of the 256-column slice: one slice
    # of 300 columns, slices of 256 and 494, and of 256, 256 and 488.  One
    # BLAS thread, as the benchmark runs: a threaded GEMM may split a slice's
    # rows differently from the full batch's and round apart.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SLICED_VS_ORACLE], capture_output=True, text=True,
        env=env, cwd=os.path.dirname(os.path.abspath(__file__)),  # for `oracles`
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 12


def test_wh_degree2_peak_memory_does_not_grow_with_the_batch():
    # a whole batch's latent, X with z, and He2(X) would hold about 2.2 MB at
    # 1024 samples and 8.7 MB at 4096 at dim 64 (64 latent normals a sample),
    # 2.5 and 10 MB at dim 256 (102); the statistic's work block holds one slice
    for dim in (64, 256):
        model, pert = _calibrated(dim)
        peaks = []
        for batch in (1024, 4096):
            tracemalloc.start()
            try:
                gaussian_wh_experiment(model, pert, 2, 100, BATCHES * batch, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, (dim, peaks)


def test_wh_rejects_bad_degree_or_dimension(model):
    pert = FiniteRankPerturbation(64, 0, 1, angle=0.5)
    with pytest.raises(ValueError):
        gaussian_wh_experiment(model, pert, 3, 10, 10**4)
    small = FiniteRankPerturbation(8, 0, 1, angle=0.5)
    with pytest.raises(ValueError):
        gaussian_wh_experiment(model, small, 1, 10, 10**4)


@pytest.mark.parametrize("k", [1, 2])
def test_wh_rejects_an_empty_cesaro_range_before_averaging_it(model, k):
    pert = FiniteRankPerturbation(64, 0, 1, angle=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need at least one Cesaro term"):
            gaussian_wh_experiment(model, pert, k, 0, 10**4)
