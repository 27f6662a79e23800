import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite_e

from ergolab.gaussian import (
    GaussianModel,
    factor_sampler,
    gaussian_hermite_correlation,
    gaussian_wh_experiment,
    hermite_value,
    orthant_probability,
    triple_correlation_weakmix_check,
)
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


class _IdentityDraws:
    """Generator stand-in whose normals are the identity's leading columns,
    so a factor sampler hands back its factor (padded with zero columns)."""

    def standard_normal(self, shape):
        self.shape = shape
        return np.eye(*shape)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([4, 8, 16]), _SHIFTS)
def test_factor_reproduces_the_row_covariance(dim, shifts):
    model = GaussianModel(_random_angles(dim // 2, dim), random_unit_vector(dim, seed=1))
    rows = model.orbit_rows(shifts)
    k = len(shifts)
    draws = _IdentityDraws()
    padded = factor_sampler(rows)(draws, k)
    assert draws.shape == (min(k, dim), k)
    factor = padded[:, : min(k, dim)]
    assert not padded[:, min(k, dim):].any()
    assert np.allclose(factor @ factor.T, rows @ rows.T, rtol=0.0, atol=1e-12)


def test_factor_sampler_handles_repeated_shifts(model):
    draws = _IdentityDraws()
    factor = factor_sampler(model.orbit_rows([0, 0]))(draws, 2)
    assert draws.shape == (2, 2)
    assert np.allclose(factor @ factor.T, np.ones((2, 2)), rtol=0.0, atol=1e-12)
    x = factor_sampler(model.orbit_rows([5, 5]))(np.random.default_rng(0), 100)
    assert x.shape == (2, 100)
    assert np.allclose(x[0], x[1], rtol=0.0, atol=1e-12)


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
    # coordinates 5 and 10 lie in two rotation blocks, so the plane moves
    angles = make_rotation_operator(64)
    pert = FiniteRankPerturbation(64, 5, 10, angle=0.8)
    model = GaussianModel(angles, random_unit_vector(64, seed=30))
    r = gaussian_wh_experiment(model, pert, 2, 100, 10**4, seed=11)
    assert r.tracks_exact
    assert r.below_majorant


_SLICED_VS_UNBLOCKED = """
from ergolab.gaussian import GaussianModel, gaussian_wh_experiment
from ergolab.mc import batch_estimate
from ergolab.operators import (
    FiniteRankPerturbation, make_rotation_operator, vector_with_plane_mass,
)
from oracles import unblocked_wh_statistic

pert = FiniteRankPerturbation(64, 6, 7, angle=0.5)
model = GaussianModel(make_rotation_operator(64), vector_with_plane_mass(64, pert, delta=0.02, seed=5))
rows = model.orbit_rows(range(1, 101))
for samples in (12000, 30000, 40000):  # batches of 300, 750 and 1000 samples
    for k in (1, 2):
        got = gaussian_wh_experiment(model, pert, k, 100, samples, seed=7)
        ref = batch_estimate(
            unblocked_wh_statistic(rows, pert.right_multiply(rows), k), samples, seed=7
        )
        print(got.estimate == ref, got.estimate.value != 0.0)
"""


def test_wh_column_slices_equal_the_unblocked_statistic():
    # batch sizes that are not multiples of the 256-column slice: one slice
    # of 300 columns, slices of 256 and 494, and of 256, 256 and 488.  One
    # BLAS thread, as the benchmark runs: a threaded GEMM may split a slice's
    # rows differently from the full batch's and round apart.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SLICED_VS_UNBLOCKED], capture_output=True, text=True,
        env=env, cwd=os.path.dirname(os.path.abspath(__file__)),  # for `oracles`
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 12


def test_wh_rejects_bad_degree_or_dimension(model):
    pert = FiniteRankPerturbation(64, 0, 1, angle=0.5)
    with pytest.raises(ValueError):
        gaussian_wh_experiment(model, pert, 3, 10, 10**4)
    small = FiniteRankPerturbation(8, 0, 1, angle=0.5)
    with pytest.raises(ValueError):
        gaussian_wh_experiment(model, small, 1, 10, 10**4)
