"""Top-level acceptance gate: ten criteria, one test (one line) each.

Run with -v to get exactly one pass/fail line per criterion.  Tolerances are
pinned here as constants; exact claims use tolerance zero, statistical claims
use five batch-means standard errors, the operator chain uses 1e-9.
"""
import random
import time
from fractions import Fraction as Q

import pytest

from ergolab.constructions import (
    builtin_params,
    chacon,
    odometer,
    rigid_mixing_pair,
    staircase,
)
from ergolab.experiments import resolve_config, run_experiment
from ergolab.gaussian import (
    GaussianModel,
    gaussian_hermite_correlation,
    gaussian_wh_experiment,
)
from ergolab.ledrapier import (
    base_event,
    event_measure,
    pair_measure,
    triple_measure,
)
from ergolab.operators import (
    FiniteRankPerturbation,
    conjugate_defect,
    make_rotation_operator,
    uniform_unit_vector,
    vector_with_plane_mass,
)
from ergolab.poisson import (
    PoissonModel,
    poisson_count_covariance,
    poisson_gof,
    poisson_wh_experiment,
)
from ergolab.tower import (
    FinitarySwap,
    LevelSet,
    build_stage,
    correlation_interval,
    depth_for,
    level_set_measure,
    rigidity_scan,
    symdiff_interval,
)
from oracles import orbit_correlation

EXACT_TOL = 0          # exact rational claims admit no tolerance
CHAIN_TOL = 1e-9       # operator inequality chain
CALIBRATED_BOUND = 0.05
RATIO_BOUND = Q(1, 20)
GOF_ALPHA = 0.001


def test_criterion_01_gf2_exact_cylinder_measures():
    started = time.perf_counter()
    assert event_measure([base_event()]) == Q(1, 2)
    for k in range(1, 11):
        z, w = (2**k, 0), (0, 2**k)
        assert triple_measure(z, w) == 0
        assert pair_measure(z) == Q(1, 4)
        assert pair_measure(w) == Q(1, 4)
    rng = random.Random(7)
    seen = set()
    while len(seen) < 20:
        z = (rng.randint(-9, 9), rng.randint(0, 9))
        if z == (0, 0) or z in seen:
            continue
        seen.add(z)
        assert pair_measure(z) == Q(1, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS (exact, tolerance {EXACT_TOL}, {elapsed:.2f}s)")


def test_criterion_02_interval_contains_orbit_oracle():
    started = time.perf_counter()
    rng = random.Random(20260814)
    for params in (chacon(), staircase()):
        h2 = build_stage(params, 2).height
        for _ in range(100):
            n = rng.randint(-200, 200) or 11
            a = LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
            b = LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
            depth = depth_for(params, abs(n))
            interval = correlation_interval(params, n, a, b, depth)
            definite, lost = orbit_correlation(params, n, a, b, depth)
            assert interval.lo <= definite <= interval.hi
            assert definite + lost >= interval.lo
            width_budget = abs(n) * build_stage(params, depth).level_width
            assert interval.width <= width_budget
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"criterion 2: PASS (200 random triples, {elapsed:.2f}s)")


def test_criterion_03_stacking_recurrence_everywhere():
    pair = rigid_mixing_pair()
    towers = [
        (chacon(), 9),
        (odometer(2), 9),
        (odometer(3), 7),
        (staircase(), 7),
        (pair.t_params, 7),
        (pair.s_params, 7),
    ]
    for params, depth in towers:
        for j in range(depth):
            h = build_stage(params, j).height
            _, spacers = params.stage_data(j)
            assert build_stage(params, j + 1).height == sum(h + s for s in spacers)
    print("criterion 3: PASS (exact integer identity on all built-ins)")


def test_criterion_04_pair_shares_heights_and_swaps_roles():
    pair = rigid_mixing_pair()
    for j in range(13):
        assert (
            build_stage(pair.t_params, j).height
            == build_stage(pair.s_params, j).height
        )
    ratios = {}
    for j in range(1, 12):
        c = pair.time_at(j)
        rigid, mixing = (
            (pair.t_params, pair.s_params) if j % 2 else (pair.s_params, pair.t_params)
        )
        a = LevelSet(j, (0,))
        mu = level_set_measure(rigid, a)
        sym = symdiff_interval(rigid, c, a, j + 1)
        corr = correlation_interval(mixing, c, a, a, j + 1)
        ratios[j] = (sym.hi / mu, corr.hi / mu)
    for j, (rel_sym, rel_corr) in ratios.items():
        if j >= 2:
            assert rel_sym < ratios[j - 1][0]  # decreasing stage over stage
        if j >= 8:
            assert rel_sym < RATIO_BOUND and rel_corr < RATIO_BOUND
    # at the last odd/even stages before 8 the bound is already met
    assert ratios[7][0] < RATIO_BOUND and ratios[8][0] < RATIO_BOUND
    print("criterion 4: PASS (shared heights to stage 12, ratios below "
          f"{float(RATIO_BOUND)} from stage 8, roles swap)")


def test_criterion_05_defect_chain_and_calibrated_majorant():
    started = time.perf_counter()
    dim = 64
    op = make_rotation_operator(dim)
    pert = FiniteRankPerturbation(dim, 6, 7, angle=0.5)
    vec = vector_with_plane_mass(dim, pert, delta=0.02, seed=5)
    final = None
    for n_terms in (1, 2, 3, 5, 10, 50, 100, 1000, 10000):
        d = conjugate_defect(op, pert, vec, n_terms)
        assert d.defect <= d.majorant1 + CHAIN_TOL
        assert d.majorant1 <= d.majorant2 + CHAIN_TOL
        final = d
    assert final.majorant2 <= CALIBRATED_BOUND
    report = run_experiment({"experiment": "eq1-sweep"})
    assert report.all_passed  # threshold recorded in the report's checks
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 5: PASS (chain to {CHAIN_TOL}, majorant2(1e4) = "
          f"{final.majorant2:.4f} <= {CALIBRATED_BOUND}, {elapsed:.2f}s)")


def test_criterion_06_hermite_degrees_match_predictions():
    started = time.perf_counter()
    model = GaussianModel(make_rotation_operator(64), uniform_unit_vector(64))
    for n in range(1, 21):
        r2 = gaussian_hermite_correlation(model, 2, n, 10**5, seed=200 + n)
        assert r2.prediction == pytest.approx(2 * model.rho(n) ** 2, abs=1e-12)
        assert r2.within_five_se, (2, n, r2)
        r1 = gaussian_hermite_correlation(model, 1, n, 10**5, seed=100 + n)
        assert r1.within_five_se, (1, n, r1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"criterion 6: PASS (20 shifts, both degrees, 1e5 samples, "
          f"{elapsed:.2f}s)")


def test_criterion_07_poisson_covariance_and_gof():
    params = rigid_mixing_pair().t_params
    model = PoissonModel(params, LevelSet(2, range(700)), depth=2)
    a = LevelSet(2, range(100, 150))
    b = LevelSet(2, range(90, 200))
    for n in (0, 1, 3, 5, 10, 17, 36, 73, 100, 150):
        r = poisson_count_covariance(model, n, a, b, 10**5, seed=300 + n)
        assert r.within_five_se, (n, r)
    windows = [
        LevelSet(2, range(100, 150)),
        LevelSet(2, range(0, 700)),
        LevelSet(2, range(650, 700)),
        LevelSet(2, [5]),
        LevelSet(2, range(0, 300, 3)),
    ]
    for idx, window in enumerate(windows):
        gof = poisson_gof(model, window, 10**5, seed=400 + idx)
        assert gof.passed(GOF_ALPHA), (idx, gof)
    print(f"criterion 7: PASS (10 covariance cases, 5 GOF windows at "
          f"alpha {GOF_ALPHA})")


def test_criterion_08_wh_certificates():
    pair = rigid_mixing_pair()
    model = PoissonModel(pair.t_params, LevelSet(2, range(700)), depth=2)
    swap = FinitarySwap(stage=1, pair=(1, 3))
    a = LevelSet(2, range(50, 350))
    for n_terms in (50, 100, 200):
        r = poisson_wh_experiment(model, swap, a, n_terms, 10**4, seed=n_terms)
        assert r.below_majorant, (n_terms, r)

    dim = 64
    op = make_rotation_operator(dim)
    pert = FiniteRankPerturbation(dim, 6, 7, angle=0.5)
    vec = vector_with_plane_mass(dim, pert, delta=0.02, seed=5)
    gm = GaussianModel(op, vec)
    for k in (1, 2):
        r = gaussian_wh_experiment(gm, pert, k, 100, 10**4, seed=500 + k)
        assert r.tracks_exact, (k, r)
        assert r.below_majorant, (k, r)
    print("criterion 8: PASS (poisson defect below majorant at N in "
          "{50,100,200}; gaussian gap tracks the operator defect)")


def test_criterion_09_rigidity_classifier_is_sharp():
    odo = builtin_params("odometer")
    h6 = build_stage(odo, 6).height
    assert h6 == 64
    a = LevelSet(3, (0,))
    first = rigidity_scan(odo, a, h6, depth=12)
    second = rigidity_scan(odo, a, h6, depth=12)
    assert first == second  # deterministic
    rigid = [e.n for e in first if e.kind == "rigid"]
    assert rigid == [8, 16, 24, 32, 40, 48, 56, 64]  # no false negatives
    st = builtin_params("staircase")
    entries = rigidity_scan(st, LevelSet(3, (0,)), 50, depth=6)
    assert all(e.kind == "none" for e in entries)
    print("criterion 9: PASS (odometer lattice complete to h_6, staircase "
          "range all none, deterministic)")


def test_criterion_10_every_experiment_is_seed_reproducible():
    shrink = {
        "wh-gaussian": {"samples": 10**4},
        "wh-poisson": {"samples": 10**4},
        "triple-mixing": {"samples": 10**4, "count": 30, "threshold": 0.02},
    }
    for name in (
        "ledrapier",
        "theorem1",
        "theorem6",
        "eq1-sweep",
        "wh-gaussian",
        "wh-poisson",
        "rigidity-scan",
        "triple-mixing",
    ):
        cfg = resolve_config({"experiment": name})
        cfg["params"].update(shrink.get(name, {}))
        cfg["seed"] = 11
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.results_bytes() == second.results_bytes(), name
    print("criterion 10: PASS (byte-identical result sections for all "
          "eight experiments)")
