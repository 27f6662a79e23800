import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from ergolab.experiments import _CATALOGUE
from ergolab.operators import (
    FiniteRankPerturbation,
    conjugate_defect,
    default_angles,
    make_rotation_operator,
    orthogonality_defect,
    random_unit_vector,
    require_orthogonal,
    vector_with_plane_mass,
)
from oracles import random_orthogonal


def _cyclic_shift(dim: int) -> np.ndarray:
    """The permutation U e_i = e_{i+1 mod dim}, exactly periodic."""
    return np.roll(np.eye(dim), 1, axis=0)


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
        _cyclic_shift(7),
        random_orthogonal(12, seed=3),
        np.diag([1.0, -1.0, 1.0, -1.0]),
    ):
        assert orthogonality_defect(op) <= 1e-10
        assert require_orthogonal(op).tobytes() == op.tobytes()


def test_default_angles_are_far_from_short_rational_turns():
    # up to the schema's dim cap, no block turns within 1e-9 of a rational
    # with denominator at most 64: none repeats with a short exact period
    (cap,) = {
        spec.params_schema["properties"]["dim"]["maximum"]
        for spec in _CATALOGUE.values()
        if "dim" in spec.params_schema["properties"]
    }
    for theta in default_angles(cap // 2):
        turn = float(theta) / (2.0 * math.pi)
        assert abs(turn - float(Fraction(turn).limit_denominator(64))) > 1e-9


def test_rotation_dimension_must_be_even():
    with pytest.raises(ValueError):
        make_rotation_operator(7)


def test_non_orthogonal_user_matrix_rejected():
    with pytest.raises(ValueError):
        require_orthogonal(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_perturbation_norm_and_rank():
    pert = FiniteRankPerturbation.random(10, angle=0.9, seed=3)
    k = pert.matrix() - np.eye(10)
    assert np.linalg.matrix_rank(k) == 2
    assert np.linalg.norm(k, 2) == pytest.approx(2 * abs(math.sin(0.45)), abs=1e-12)
    f = random_unit_vector(10, seed=4)
    assert np.abs(pert.apply_k(f) - k @ f).max() < 1e-15
    assert orthogonality_defect(pert.matrix()) <= 1e-10


def test_perturbation_rejects_bad_planes():
    with pytest.raises(ValueError):
        FiniteRankPerturbation(np.ones((6, 2)), 0.3)
    with pytest.raises(ValueError):
        FiniteRankPerturbation.from_coordinates(4, 2, 2, 0.3)


def test_conjugate_average_matches_dense_matrix_powers():
    op = random_orthogonal(8, seed=2)
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
    op = _cyclic_shift(dim)
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


@pytest.mark.parametrize("seed", range(8))
def test_certificate_chain_is_ordered(seed):
    op = random_orthogonal(16, seed=seed)
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


def test_angles_are_equidistributed_enough_to_differ():
    angles = default_angles(32)
    assert len(np.unique(np.round(angles, 12))) == 32
