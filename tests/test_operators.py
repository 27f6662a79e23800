import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from ergolab.operators import (
    FiniteRankPerturbation,
    cesaro_average,
    cesaro_square_average,
    cesaro_square_sweep,
    conjugate_average,
    conjugate_defect,
    default_angles,
    majorant_decay_series,
    make_operator,
    make_permutation_operator,
    make_random_orthogonal,
    make_rotation_operator,
    min_return_distance,
    operator_correlation,
    orthogonality_defect,
    random_unit_vector,
    vector_with_plane_mass,
)


def test_rotation_operator_is_bit_identical_to_block_diag():
    for dim in (2, 8, 64):
        blocks = [
            np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for t in default_angles(dim // 2)
        ]
        reference = block_diag(*blocks)
        op = make_rotation_operator(dim)
        assert op.dtype == reference.dtype
        assert op.tobytes() == reference.tobytes()


def test_all_operator_kinds_pass_the_orthogonality_certificate():
    for op in (
        make_rotation_operator(8),
        make_permutation_operator(7),
        make_random_orthogonal(12, seed=3),
        make_operator("matrix", 4, matrix=np.diag([1.0, -1.0, 1.0, -1.0])),
    ):
        assert orthogonality_defect(op) <= 1e-10


def test_near_rational_angles_are_rejected():
    with pytest.raises(ValueError):
        make_rotation_operator(2, [2 * math.pi / 3])
    with pytest.raises(ValueError):
        make_rotation_operator(2, [2 * math.pi * (13 / 64 + 1e-12)])
    # the default angles all survive the same filter
    make_rotation_operator(64)


def test_rotation_dimension_must_be_even():
    with pytest.raises(ValueError):
        make_rotation_operator(7)


def test_non_orthogonal_user_matrix_rejected():
    with pytest.raises(ValueError):
        make_operator("matrix", 2, matrix=np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_permutation_average_hits_uniform_exactly():
    dim = 5
    op = make_permutation_operator(dim)
    f = np.zeros(dim)
    f[0] = 1.0
    avg = cesaro_average(op, f, 2 * dim)
    assert np.allclose(avg, np.full(dim, 1.0 / dim), atol=1e-14)
    assert min_return_distance(op, 10) == (0.0, dim)


def test_single_block_average_matches_the_dirichlet_sum():
    theta = 2 * math.pi * math.sqrt(2) % (2 * math.pi)
    op = make_rotation_operator(2, [theta])
    f = np.array([1.0, 0.0])
    for n in (1, 7, 50, 313):
        value = cesaro_square_average(op, f, f, n)
        closed = 0.5 + math.sin(n * theta) * math.cos((n + 1) * theta) / (
            2 * n * math.sin(theta)
        )
        assert value == pytest.approx(closed, abs=1e-13)


def test_fixed_vector_pins_the_square_average_at_one():
    op = make_operator("matrix", 4, matrix=np.eye(4))
    f = random_unit_vector(4, seed=0)
    for n in (1, 17, 100):
        assert cesaro_square_average(op, f, f, n) == pytest.approx(1.0, abs=1e-12)


def test_rotation_square_average_decays_to_the_calibrated_level():
    op = make_rotation_operator(64)
    f = random_unit_vector(64, seed=100)
    g = random_unit_vector(64, seed=200)
    value = cesaro_square_average(op, f, g, 10**4)
    assert 0.0 < value <= 0.02


def test_sweep_agrees_with_pointwise_averages():
    op = make_rotation_operator(8)
    f = random_unit_vector(8, seed=11)
    g = random_unit_vector(8, seed=12)
    points = [1, 4, 9, 60]
    swept = cesaro_square_sweep(op, f, g, points)
    for n in points:
        assert swept[n] == pytest.approx(cesaro_square_average(op, f, g, n), abs=1e-13)


def test_default_rotation_has_no_early_near_returns():
    # frozen from a direct scan: the closest return within 200 steps
    dist, step = min_return_distance(make_rotation_operator(8), 200)
    assert step == 169
    assert dist == pytest.approx(0.052572670174812, abs=1e-12)
    assert dist > 0.05


def test_perturbation_norm_and_rank():
    pert = FiniteRankPerturbation.random(10, angle=0.9, seed=3)
    k = pert.k_matrix()
    assert np.linalg.matrix_rank(k) == 2
    assert np.linalg.norm(k, 2) == pytest.approx(pert.operator_norm, abs=1e-12)
    assert orthogonality_defect(pert.matrix()) <= 1e-10


def test_perturbation_rejects_bad_planes():
    with pytest.raises(ValueError):
        FiniteRankPerturbation(np.ones((6, 2)), 0.3)
    with pytest.raises(ValueError):
        FiniteRankPerturbation.from_coordinates(4, 2, 2, 0.3)


def test_conjugate_average_matches_dense_matrix_powers():
    op = make_random_orthogonal(8, seed=2)
    pert = FiniteRankPerturbation.random(8, angle=1.1, seed=3)
    f = random_unit_vector(8, seed=4)
    n = 23
    s = pert.matrix()
    acc = np.zeros(8)
    power = np.eye(8)
    for _ in range(n):
        power = power @ op
        acc += power.T @ s @ power @ f
    dense = acc / n
    assert np.abs(conjugate_average(op, pert, f, n) - dense).max() < 1e-13
    res = conjugate_defect(op, pert, f, n)
    assert res.defect == pytest.approx(float(np.linalg.norm(f - dense)), abs=1e-13)


def test_identity_perturbation_gives_zero_defect():
    op = make_rotation_operator(8)
    pert = FiniteRankPerturbation.random(8, angle=0.0, seed=1)
    f = random_unit_vector(8, seed=2)
    res = conjugate_defect(op, pert, f, 50)
    assert res.defect == pytest.approx(0.0, abs=1e-14)
    assert res.majorant1 == pytest.approx(0.0, abs=1e-14)
    assert res.majorant2 > 0.0


def test_permutation_with_fixed_vector_plane_keeps_a_floor():
    # closed form: averaging over whole periods of the cyclic shift leaves
    # exactly the period-average conjugation, whose defect never decays
    dim = 6
    op = make_permutation_operator(dim)
    fixed = np.ones(dim) / math.sqrt(dim)
    other = np.zeros(dim)
    other[0] = 1.0
    other -= (other @ fixed) * fixed
    other /= np.linalg.norm(other)
    pert = FiniteRankPerturbation(np.column_stack([fixed, other]), angle=0.7)
    f = random_unit_vector(dim, seed=8)
    s = pert.matrix()
    mean_conj = np.zeros((dim, dim))
    power = np.eye(dim)
    for _ in range(dim):
        power = power @ op
        mean_conj += power.T @ s @ power
    mean_conj /= dim
    closed = float(np.linalg.norm(f - mean_conj @ f))
    assert closed == pytest.approx(0.047119917118836, abs=1e-12)
    for n in (dim, 2 * dim, 10 * dim):
        assert conjugate_defect(op, pert, f, n).defect == pytest.approx(
            closed, abs=1e-12
        )
    assert closed > 0.04


def test_rotation_defect_sweep_decreases_below_the_calibrated_bound():
    op = make_rotation_operator(64)
    pert = FiniteRankPerturbation.random(64, angle=0.8, seed=9)
    f = random_unit_vector(64, seed=30)
    values = [conjugate_defect(op, pert, f, n).defect for n in (100, 1000, 10000)]
    assert values[0] >= values[1] >= values[2] - 1e-12
    assert values[2] <= 0.05


def test_majorant_decay_series_bounds_and_scale():
    op = make_rotation_operator(64)
    pert = FiniteRankPerturbation.random(64, angle=0.8, seed=9)
    f = random_unit_vector(64, seed=30)
    points = [50, 100, 200, 400, 800]
    series = majorant_decay_series(op, pert, f, points)
    for n in points:
        m2, squares, bound = series[n]
        assert m2 <= bound + 1e-12
        assert bound == pytest.approx(2 * math.sqrt(sum(squares)), abs=1e-14)
        assert conjugate_defect(op, pert, f, n).majorant2 == pytest.approx(
            m2, abs=1e-12
        )
    for n in (50, 100, 200, 400):
        assert series[2 * n][0] <= series[n][0] + 1 / math.sqrt(n)


def test_invariant_plane_makes_the_square_average_bound_tight():
    op = make_rotation_operator(64)
    pert = FiniteRankPerturbation.from_coordinates(64, 6, 7, angle=0.5)
    f = vector_with_plane_mass(64, pert, delta=0.02, seed=5)
    series = majorant_decay_series(op, pert, f, [10, 100])
    for m2, squares, bound in series.values():
        assert m2 == pytest.approx(0.04, abs=1e-12)
        assert bound == pytest.approx(0.04, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_certificate_chain_is_ordered(seed):
    op = make_random_orthogonal(16, seed=seed)
    pert = FiniteRankPerturbation.random(16, angle=0.4 + 0.1 * seed, seed=seed + 50)
    f = random_unit_vector(16, seed=seed + 100)
    res = conjugate_defect(op, pert, f, 64)
    assert res.defect <= res.majorant1 + 1e-9
    assert res.majorant1 <= res.majorant2 + 1e-9


def test_invariant_plane_pins_the_cheap_majorant():
    # perturbation plane = one rotation block, so the projected orbit norm
    # never moves and the majorant is 2*delta for every horizon
    op = make_rotation_operator(64)
    pert = FiniteRankPerturbation.from_coordinates(64, 6, 7, angle=0.5)
    f = vector_with_plane_mass(64, pert, delta=0.02, seed=5)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert pert.plane_component_norm(f) == pytest.approx(0.02, abs=1e-12)
    for n in (10, 200, 1500):
        res = conjugate_defect(op, pert, f, n)
        assert res.majorant2 == pytest.approx(0.04, abs=1e-10)
        assert res.defect <= res.majorant1 + 1e-9
        assert res.majorant1 <= res.majorant2 + 1e-9
    # a generic unit vector cannot get anywhere near that
    loose = conjugate_defect(op, pert, random_unit_vector(64, seed=1), 1500)
    assert loose.majorant2 > 0.1


def test_operator_correlation_matches_matrix_power():
    op = make_rotation_operator(6)
    f = random_unit_vector(6, seed=2)
    for n in (-9, -1, 0, 1, 5, 23):
        want = float(np.linalg.matrix_power(op, abs(n)).T @ f @ f) if n < 0 else float(
            np.linalg.matrix_power(op, n) @ f @ f
        )
        assert operator_correlation(op, f, n) == pytest.approx(want, abs=1e-12)


def test_angles_are_equidistributed_enough_to_differ():
    angles = default_angles(32)
    assert len(np.unique(np.round(angles, 12))) == 32
