import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import operators
from ergolab.experiments import _CATALOGUE
from ergolab.operators import (
    FiniteRankPerturbation,
    conjugate_defect,
    make_rotation_operator,
    random_unit_vector,
    rotate,
    vector_with_plane_mass,
)
from oracles import (
    dense_conjugate_average,
    dense_orbit_rows,
    dense_perturbation,
    dense_rotation,
)


def _random_angles(n_blocks: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0xA9]).uniform(0.0, 2.0 * math.pi, n_blocks)


def _random_pair(dim: int, seed: int) -> tuple[int, int]:
    """Two distinct coordinates; most such pairs span two rotation blocks."""
    i, j = np.random.default_rng([seed, 0x91]).choice(dim, size=2, replace=False)
    return int(i), int(j)


def test_rotation_operator_is_bit_identical_to_block_diag():
    # one step on the standard basis gives the columns of the dense rotation;
    # adding 0.0 folds the signed zeros that the closed form can leave
    for dim in (2, 8, 64):
        angles = make_rotation_operator(dim)
        columns = rotate(angles, np.eye(dim), np.ones(dim))
        assert (columns.T + 0.0).tobytes() == dense_rotation(angles).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 8, 64]),
    st.integers(0, 2**16),
    st.lists(st.integers(-(10**4), 10**4), min_size=1, max_size=6),
)
def test_rotate_rows_match_dense_matrix_powers(dim, seed, shifts):
    # both sides carry an angle error of about |s| ulps of theta: rounding
    # s * theta here, the float entries of U and its products there
    for angles in (make_rotation_operator(dim), _random_angles(dim // 2, seed)):
        f = random_unit_vector(dim, seed=seed)
        got = rotate(angles, f, shifts)
        want = dense_orbit_rows(angles, f, shifts)
        tol = 1e-12 * (1 + np.abs(np.asarray(shifts)) / 1000)
        assert (np.abs(got - want).max(axis=1) <= tol).all()


def test_rotate_repeated_shifts_give_identical_rows():
    angles = _random_angles(8, seed=1)
    f = random_unit_vector(16, seed=2)
    shifts = [7, -3, 7, 10**9, 0, -3, 10**9]
    rows = rotate(angles, f, shifts)
    for s, row in zip(shifts, rows):
        assert row.tobytes() == rotate(angles, f, [s])[0].tobytes()
    per_row = rotate(angles, np.stack([f] * len(shifts)), shifts)
    assert per_row.tobytes() == rows.tobytes()
    assert rows[4].tobytes() == f.tobytes()


def test_default_angles_are_far_from_short_rational_turns():
    # up to the schema's dim cap, no block turns within 1e-9 of a rational
    # with denominator at most 64: none repeats with a short exact period
    (cap,) = {
        spec.params_schema["properties"]["dim"]["maximum"]
        for spec in _CATALOGUE.values()
        if "dim" in spec.params_schema["properties"]
    }
    for theta in make_rotation_operator(cap):
        turn = float(theta) / (2.0 * math.pi)
        assert abs(turn - float(Fraction(turn).limit_denominator(64))) > 1e-9


def test_rotation_dimension_must_be_even():
    with pytest.raises(ValueError):
        make_rotation_operator(7)


def test_perturbation_norm_and_rank():
    # seed 1 draws the pair (5, 4), inside one rotation block; the others span two
    for seed in range(6):
        i, j = _random_pair(10, seed)
        pert = FiniteRankPerturbation(10, i, j, angle=0.9)
        s = dense_perturbation(pert)
        k = s - np.eye(10)
        assert np.linalg.matrix_rank(k) == 2
        assert np.linalg.norm(k, 2) == pytest.approx(2 * abs(math.sin(0.45)), abs=1e-12)
        assert np.abs(s.T @ s - np.eye(10)).max() <= 1e-15
        f = random_unit_vector(10, seed=4)
        assert np.abs(pert.apply_k(f) - k @ f).max() < 1e-15
        rows = np.stack([random_unit_vector(10, seed=m) for m in range(5)])
        assert np.abs(pert.apply_k(rows.T).T - rows @ k.T).max() < 1e-15
        assert np.abs(pert.right_multiply(rows) - rows @ s).max() < 1e-15
        # the plane mass sits on coordinate i; the dense projector sees delta of it
        g = vector_with_plane_mass(10, pert, delta=0.3, seed=seed)
        assert (g[i], g[j]) == (0.3, 0.0)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pert.plane @ pert.plane.T @ g) == pytest.approx(0.3, abs=1e-15)
        assert pert.plane_component_norm(g) == pytest.approx(0.3, abs=1e-15)


def test_perturbation_rejects_bad_planes():
    for i, j in ((2, 2), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            FiniteRankPerturbation(4, i, j, 0.3)


def test_conjugate_average_matches_dense_matrix_powers(monkeypatch):
    # random angles and random coordinate planes, across blocks of 8192,
    # 1024, 7 and 1 shifts at dim 8
    for block_elements in (1 << 16, 8 * 1024, 59, 3):
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", block_elements)
        for seed, n in enumerate((1, 23, 1024, 1025, 2500)):
            angles = _random_angles(4, seed)
            pert = FiniteRankPerturbation(8, *_random_pair(8, seed + 3), angle=1.1)
            f = random_unit_vector(8, seed=seed + 4)
            dense = dense_conjugate_average(angles, pert, f, n)
            res = conjugate_defect(angles, pert, f, n)
            want = float(np.linalg.norm(f - dense))
            assert res.defect == pytest.approx(want, abs=1e-13), (block_elements, n)


# The peak RSS of this process alone: Linux folds the peak of the process
# that spawned it into ru_maxrss, but not into VmHWM.
_EQ1_PEAK_RSS = """
from ergolab.experiments import run_experiment

run_experiment({"experiment": "eq1-sweep", "params": {"dim": 4096, "ns": [2000]}})
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_conjugate_defect_memory_does_not_grow_with_dim():
    # blocks of 1024 shifts held 2000 x 4096 rows at once: 228 MB peak, of
    # which about 35 MB is the interpreter and its imports
    proc = subprocess.run(
        [sys.executable, "-c", _EQ1_PEAK_RSS], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100 * 1024  # kB


def test_identity_perturbation_gives_zero_defect():
    angles = make_rotation_operator(8)
    pert = FiniteRankPerturbation(8, 1, 4, angle=0.0)
    f = random_unit_vector(8, seed=2)
    res = conjugate_defect(angles, pert, f, 50)
    assert res.defect == pytest.approx(0.0, abs=1e-14)
    assert res.majorant1 == pytest.approx(0.0, abs=1e-14)
    assert res.majorant2 > 0.0


def test_rotation_defect_sweep_decreases_below_the_calibrated_bound():
    # coordinates 5 and 10 lie in blocks 2 and 5.  The average of U^-i S U^i
    # tends to the part of S that commutes with U, (cos(angle) - 1)/2 times
    # the identity on both blocks, so the defect tends to (1 - cos(angle))/2
    # times the norm of f on those blocks, and its distance to that shrinks
    angles = make_rotation_operator(64)
    pert = FiniteRankPerturbation(64, 5, 10, angle=0.8)
    f = random_unit_vector(64, seed=30)
    limit = (1.0 - math.cos(0.8)) / 2 * np.linalg.norm(f[[4, 5, 10, 11]])
    values = [conjugate_defect(angles, pert, f, n).defect for n in (100, 1000, 10000)]
    gaps = [abs(v - limit) for v in values]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-5
    assert values[2] <= 0.05


@pytest.mark.parametrize("seed", range(8))
def test_certificate_chain_is_ordered(seed):
    angles = _random_angles(8, seed)
    pert = FiniteRankPerturbation(16, *_random_pair(16, seed + 50), angle=0.4 + 0.1 * seed)
    f = random_unit_vector(16, seed=seed + 100)
    res = conjugate_defect(angles, pert, f, 64)
    assert res.defect <= res.majorant1 + 1e-9
    assert res.majorant1 <= res.majorant2 + 1e-9


def test_invariant_plane_pins_the_cheap_majorant():
    # perturbation plane = one rotation block, so the projected orbit norm
    # never moves and the majorant is 2*delta for every horizon
    angles = make_rotation_operator(64)
    pert = FiniteRankPerturbation(64, 6, 7, angle=0.5)
    f = vector_with_plane_mass(64, pert, delta=0.02, seed=5)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert pert.plane_component_norm(f) == pytest.approx(0.02, abs=1e-12)
    for n in (10, 200, 1500):
        res = conjugate_defect(angles, pert, f, n)
        assert res.majorant2 == pytest.approx(0.04, abs=1e-10)
        assert res.defect <= res.majorant1 + 1e-9
        assert res.majorant1 <= res.majorant2 + 1e-9
    # a generic unit vector cannot get anywhere near that
    loose = conjugate_defect(angles, pert, random_unit_vector(64, seed=1), 1500)
    assert loose.majorant2 > 0.1


def test_angles_are_equidistributed_enough_to_differ():
    angles = make_rotation_operator(64)
    assert len(np.unique(np.round(angles, 12))) == 32
