import hashlib
import inspect
import json

import jsonschema
import pytest

from ergolab import constructions, experiments, gaussian, mc, poisson
from ergolab.constructions import DESCRIPTOR_DEFS, schema_error
from ergolab.experiments import (
    _CATALOGUE,
    ConfigError,
    describe_experiments,
    resolve_config,
    run_experiment,
)
from ergolab.ledrapier import symdiff_identity_check
from ergolab.reports import RNG_SCHEME
from ergolab.tower import MAX_REFINED_LEVELS

# sha256 of results_bytes() at seed 3 for the exact entries whose floats do
# not depend on the BLAS build (eq1-sweep's do, so it is left out)
EXACT_RESULT_DIGESTS = {
    "ledrapier": "f0eba8561b9bea90ac828ec6d3a24dd6b5b2563d49f1b2ff51d48325106f7c41",
    "theorem1": "3751f6815f4d697b315fee163ef7ee99cc9af2eff46f3a32c1d5c7d2fec53d99",
    "theorem6": "20e4df240a479675e67ede86d965f5e770c09f438a7e1a2c159180babbe3edeb",
    "rigidity-scan": "17bcf576fee7bb4301ae7dfc1b2b20df68bef3f840c1e58fe2f48f4752c38719",
    "build": "88ca6a6ea252e52148f00b5878c2c5c0f72b8c35ca99ddd88884a04a8b556723",
    "correlate": "5a8c07644ccedb5202ced4ea6818f44759bfe835396a14cb20e78a5d05cb60b6",
}

# sha256 of results_bytes() at seed 3 for the MC_SHRUNK configs of the two
# Poisson entries.  Their rows are integer count sums rounded once, so they do
# not depend on the BLAS build; they do follow numpy's Generator.poisson
# stream, so a numpy that changes it moves them.
POISSON_RESULT_DIGESTS = {
    "poisson": "51b275853727756bba0852fdf4ae6b88a5bd9f5e377db416b9b523f0acaa42bc",
    "wh-poisson": "aa2c2c0ff06eaa7ba67a2fb06188b87bab1bda77e6b73e5a9ee746e08ac03f64",
}

# sha256 of json.dumps(resolve_config({"experiment": name}), sort_keys=True)
# for every entry, so that a default lost or changed in the schema shows
DEFAULT_CONFIG_DIGESTS = {
    "ledrapier": "dce104f1332695df53ea500c96b2a26992313b94c1f9ed6e893ba7672519b5d6",
    "theorem1": "b61dfa1b91f62047aab7d82983b0ef0a3fd28d9b44c44688ee52b6b51e857a3a",
    "theorem6": "f825bda8378a847e3dfb627575160c13e40056b2a5f85e969fd4300c6b56cf19",
    "eq1-sweep": "efce3a002cb3e74b17972427f42f3cad49cdaff4c0ce3940e42195eb49a36785",
    "wh-gaussian": "a0d2fdb243f4c02f2aafd1ec628ef8d6a09a520860451e3bf9a13f9b0d76f83c",
    "wh-poisson": "dcc905fc273fc6b86ef67fb9ecc4228c186b20eb767271e21ad11b766b4e9460",
    "rigidity-scan": "a899b8ebf5c856c159c1213eee228a4f2dbd30ad5a345bb8fcea4654a484ca84",
    "triple-mixing": "de0042480f2a2ec084c4b571bfc89f3ab209bdc0b056f69dbb2d3ae229e4ee18",
    "build": "6ca36304d631730bbb48a6b0889d86240004871d5baad176c6ffd3693672fbc2",
    "correlate": "bfdfcb7c6677ac94301191f62c1533bb9cbad1e8f9a762b8d9ebd882dae7f8b8",
    "gauss": "18c2b396d011ed2bb46f2d736c0b558ebb5930fc30564ee592869471581a83f2",
    "poisson": "8e4e21ee6361b668f55cbe5b9e7e532fb68c619bc1b8338ab84e905845922789",
}


def _shrunk(name, **params):
    cfg = resolve_config({"experiment": name})
    cfg["params"].update(params)
    return cfg


LISTED = [name for name, _ in describe_experiments()]


def test_catalogue_is_the_documented_eight():
    assert LISTED == [
        "ledrapier",
        "theorem1",
        "theorem6",
        "eq1-sweep",
        "wh-gaussian",
        "wh-poisson",
        "rigidity-scan",
        "triple-mixing",
    ]


def test_every_default_config_round_trips_the_schema():
    for name in LISTED + ["build", "correlate", "gauss", "poisson"]:
        resolved = resolve_config({"experiment": name})
        assert resolved["experiment"] == name
        assert resolved["seed"] == 0
        assert resolve_config(resolved) == resolved


def test_default_configs_are_frozen():
    assert set(DEFAULT_CONFIG_DIGESTS) == set(_CATALOGUE)
    for name, want in DEFAULT_CONFIG_DIGESTS.items():
        blob = json.dumps(resolve_config({"experiment": name}), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == want, name


def test_config_rejection_paths():
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "nope"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "bogus": 1})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "params": {"bogus": 1}})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "params": {"k_max": "ten"}})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "seed": -1})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "seed": True})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "ledrapier", "params": []})
    # `maximum` skips a value that is no number, so an int too large for a
    # float must be no integer either, or it would pass every bound
    with pytest.raises(ConfigError, match="is not of type 'integer'"):
        resolve_config({"experiment": "ledrapier", "params": {"k_max": 10**400}})
    with pytest.raises(ConfigError):
        resolve_config([])
    # the batch count and the defect-chain slack are constants, not params
    with pytest.raises(ConfigError, match="'n_batches' was unexpected"):
        resolve_config({"experiment": "gauss", "params": {"n_batches": 40}})
    with pytest.raises(ConfigError, match="'chain_tol' was unexpected"):
        resolve_config({"experiment": "eq1-sweep", "params": {"chain_tol": 1e-9}})
    # output paths come from --out and --csv only, and the all-none scan check
    # is the caller's own assert on the rows
    for key in ("out", "csv"):
        with pytest.raises(ConfigError, match=f"unknown config field.*'{key}'"):
            resolve_config({"experiment": "build", key: "x.json"})
    with pytest.raises(ConfigError, match="'expect_all_none' was unexpected"):
        resolve_config({"experiment": "rigidity-scan", "params": {"expect_all_none": True}})


BESIDE_SPEC = "cannot be given beside 'spec' (--spec-file): a spec names its whole construction"


@pytest.mark.parametrize(
    "params, words",
    [
        ({"construction": "odometer"}, f"'construction' (--construction) {BESIDE_SPEC}"),
        ({"construction": "chacon"}, f"'construction' (--construction) {BESIDE_SPEC}"),
        ({"r": 3}, f"'r' (--r) {BESIDE_SPEC}"),
        ({"role": "s"}, f"'role' (--role) {BESIDE_SPEC}"),
        ({"r": 3, "role": "s"}, f"'r' (--r) {BESIDE_SPEC}"),
    ],
)
def test_a_spec_is_refused_beside_construction_flags(params, words):
    for name in ("build", "correlate", "rigidity-scan"):
        config = {"experiment": name, "params": {"spec": {"rule": {"name": "chacon"}}, **params}}
        with pytest.raises(ConfigError) as error:
            resolve_config(config)
        assert str(error.value) == words


@pytest.mark.parametrize(
    "params, words",
    [
        ({"construction": "chacon", "r": 3}, "('r' was unexpected)"),
        ({"construction": "theorem6", "r": 3}, "('r' was unexpected)"),
        ({"construction": "odometer", "role": "s"}, "('role' was unexpected)"),
        ({"construction": "staircase", "role": "t"}, "('role' was unexpected)"),
    ],
)
def test_the_rule_the_flags_name_is_checked_on_resolve(params, words):
    for name in ("build", "correlate", "rigidity-scan"):
        with pytest.raises(ConfigError) as error:
            resolve_config({"experiment": name, "params": params})
        assert str(error.value) == (
            f"invalid rule descriptor at $.args: Additional properties are not allowed {words}"
        )


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "build", "params": {"spec": {"rule": {"name": "staircase"}}}},
        {"experiment": "correlate", "params": {"construction": "odometer", "r": 3}},
        {"experiment": "theorem6", "params": {"pair": {"cuts": {"name": "constant", "r": 3}}}},
        {"experiment": "poisson", "params": {"pair": {}, "samples": 2_007, "ns": [0]}},
    ],
    ids=["build-spec", "correlate-flags", "theorem6-pair", "poisson-pair"],
)
def test_run_experiment_checks_a_config_only_in_resolve_config(config, monkeypatch):
    # the runners build from the resolved config without checking it again
    inside, outside, resolving = [], [], []

    def counted(schema, value):
        (inside if resolving else outside).append(value)
        return schema_error(schema, value)

    def resolve(raw):
        resolving.append(True)
        try:
            return resolve_config(raw)
        finally:
            resolving.pop()

    monkeypatch.setattr(constructions, "schema_error", counted)
    monkeypatch.setattr(experiments, "schema_error", counted)
    monkeypatch.setattr(experiments, "resolve_config", resolve)
    run_experiment(config)
    assert inside and outside == []


@pytest.mark.parametrize(
    "name, params",
    [
        ("rigidity-scan", {"n_max": 10**8, "depth": 30}),
        ("theorem1", {"scan_n_max": 10**8}),
        ("theorem1", {"ratio_stages": 1000}),
        ("theorem1", {"wh_ns": [50, 10**12]}),
        ("eq1-sweep", {"ns": [10**12]}),
        ("wh-gaussian", {"n_terms": 10**12}),
        ("wh-poisson", {"ns": [10**12]}),
        ("triple-mixing", {"count": 10**9}),
        ("gauss", {"samples": 10**15}),
        ("poisson", {"window_size": 10**12}),
    ],
)
def test_sizes_whose_cost_grows_with_them_are_capped(name, params):
    with pytest.raises(ConfigError, match="is greater than the maximum of"):
        resolve_config({"experiment": name, "params": params})


@pytest.mark.parametrize(
    "name, side",
    [("theorem1", "a"), ("wh-poisson", "a"), ("correlate", "b"), ("poisson", "b")],
)
def test_a_level_range_wider_than_the_refinement_cap_is_refused(name, side):
    # a range's levels are listed before any is checked against its tower
    params = {f"{side}_stage": 12, f"{side}_lo": 0, f"{side}_hi": MAX_REFINED_LEVELS}
    resolve_config({"experiment": name, "params": params})
    params[f"{side}_hi"] += 1
    with pytest.raises(ConfigError) as error:
        resolve_config({"experiment": name, "params": params})
    assert str(error.value) == (
        f"level set too wide: {side}_lo=0 to {side}_hi={MAX_REFINED_LEVELS + 1} "
        f"holds {MAX_REFINED_LEVELS + 1} levels, cap is {MAX_REFINED_LEVELS}"
    )


def test_operator_dim_is_capped_before_anything_is_allocated():
    # every experiment on the block rotation shares one dim cap
    for name in ("eq1-sweep", "wh-gaussian", "triple-mixing", "gauss"):
        assert resolve_config({"experiment": name, "params": {"dim": 4096}})
        with pytest.raises(ConfigError, match="60000 is greater than the maximum of 4096"):
            resolve_config({"experiment": name, "params": {"dim": 60000}})


def test_schema_errors_read_as_jsonschema_validate_words_them():
    cases = [
        ("theorem1", {"bogus": 1}),
        ("gauss", {"dim": 2}),
        ("gauss", {"degrees": [5], "dim": "x"}),
        ("ledrapier", {"k_max": "ten"}),
        ("poisson", {"ns": [1, "2"], "samples": -1}),
    ]
    for name, params in cases:
        merged = {**resolve_config({"experiment": name})["params"], **params}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(merged, _CATALOGUE[name].params_schema)
        with pytest.raises(ConfigError) as got:
            resolve_config({"experiment": name, "params": params})
        assert str(got.value) == f"invalid params for {name!r}: {want.value.message}"


def test_every_schema_passes_its_metaschema():
    # Neither the stdlib reader nor the tests' oracle makes this check, so it
    # is made here, once; the draft the schemas declare (none: 2020-12) is the
    # one they are read under.
    for schema in [spec.params_schema for spec in _CATALOGUE.values()] + [
        {"$defs": DESCRIPTOR_DEFS}
    ]:
        cls = jsonschema.validators.validator_for(schema)
        assert cls is jsonschema.Draft202012Validator
        cls.check_schema(schema)


def test_vector_seed_matters_only_off_a_rotation_block():
    # the default plane [6, 7] is one rotation block, so only the vector's
    # in-plane part, which vector_seed does not draw, reaches the rows
    def results(plane, vector_seed):
        params = {"plane": plane, "vector_seed": vector_seed}
        config = {"experiment": "eq1-sweep", "seed": 3, "params": params}
        return run_experiment(config).results_bytes()

    assert resolve_config({"experiment": "eq1-sweep"})["params"]["plane"] == [6, 7]
    assert results([6, 7], 5) == results([6, 7], 6)
    assert results([5, 6], 5) != results([5, 6], 6)


def test_exact_results_bytes_are_frozen_and_reports_name_the_rng_scheme():
    for name, digest in EXACT_RESULT_DIGESTS.items():
        report = run_experiment({"experiment": name, "seed": 3})
        assert hashlib.sha256(report.results_bytes()).hexdigest() == digest, name
        full = report.to_dict()
        assert full["rng_scheme"] == RNG_SCHEME
        assert "rng_scheme" not in full["results"]


def test_top_level_depth_and_threshold_are_unknown_fields():
    for key, value in (("depth", 9), ("threshold", 0.1)):
        with pytest.raises(ConfigError, match="unknown config field"):
            resolve_config({"experiment": "rigidity-scan", key: value})
    resolved = resolve_config(
        {"experiment": "rigidity-scan", "params": {"theta": 0.1, "depth": 9}}
    )
    assert resolved["params"]["theta"] == 0.1
    assert resolved["params"]["depth"] == 9


def test_ledrapier_experiment_is_exact_and_green():
    report = run_experiment({"experiment": "ledrapier"})
    assert report.all_passed
    assert len(report.rows) == 31
    assert all(r["provenance"] == "exact" for r in report.rows)
    triples = [r["triple"] for r in report.rows if r.get("item") == "dyadic"]
    assert triples == ["0"] * 10


def test_ledrapier_runs_green_at_its_schema_maxima():
    props = _CATALOGUE["ledrapier"].params_schema["properties"]
    assert props["generic_pairs"]["maximum"] == 189  # 19 x 10 box less the origin
    params = {"k_max": props["k_max"]["maximum"], "generic_pairs": 189}
    report = run_experiment({"experiment": "ledrapier", "params": params})
    assert report.all_passed
    dyadic = [r for r in report.rows if r.get("item") == "dyadic"]
    assert [r["k"] for r in dyadic] == list(range(1, 61))
    assert all(r["triple"] == "0" and r["identity"] is True for r in dyadic)
    assert symdiff_identity_check(60)
    generic = {tuple(r["z"]) for r in report.rows if r.get("item") == "generic"}
    assert len(generic) == 189
    assert all(-9 <= a <= 9 and 0 <= b <= 9 for a, b in generic)
    with pytest.raises(ConfigError, match="maximum of 189"):
        resolve_config({"experiment": "ledrapier", "params": {"generic_pairs": 190}})


def test_rigidity_scan_finds_the_odometer_lattice():
    report = run_experiment({"experiment": "rigidity-scan"})
    assert report.all_passed
    rigid = [r["n"] for r in report.rows if r["kind"] == "rigid"]
    assert rigid == [8, 16, 24, 32, 40, 48, 56, 64]


def test_rigidity_scan_staircase_variant_sees_no_rigidity():
    cfg = _shrunk(
        "rigidity-scan",
        construction="staircase",
        a_stage=3,
        a_levels=[0],
        n_max=50,
        depth=6,
        expect_rigid=[],
    )
    report = run_experiment(cfg)
    assert report.all_passed
    assert all(r["kind"] == "none" for r in report.rows)


def test_theorem6_certifies_both_roles():
    report = run_experiment({"experiment": "theorem6"})
    assert report.all_passed
    sides = [r["rigid_side"] for r in report.rows]
    assert sides == ["t", "s"] * 6
    late = [r for r in report.rows if r["stage"] >= 8]
    assert all(r["rel_symdiff_float"] < 0.05 for r in late)
    assert all(r["rel_corr_float"] < 0.05 for r in late)


def test_theorem1_reports_the_certified_layer():
    report = run_experiment({"experiment": "theorem1"})
    assert report.all_passed
    assert any("Certified layer" in note for note in report.notes)
    wh = [r for r in report.rows if r.get("item") == "wh-defect"]
    assert [r["n_terms"] for r in wh] == [50, 100, 200]
    assert all(r["defect_float"] <= 0.1 for r in wh)


def test_eq1_sweep_keeps_the_calibrated_majorant():
    report = run_experiment({"experiment": "eq1-sweep"})
    assert report.all_passed
    for row in report.rows:
        assert row["majorant2"] == pytest.approx(0.04, abs=1e-10)
        assert row["defect"] <= row["majorant1"] + 1e-9
        assert row["majorant1"] <= row["majorant2"] + 1e-9


def test_wh_gaussian_experiment_shrunk():
    report = run_experiment(_shrunk("wh-gaussian", samples=10**4))
    assert report.all_passed
    assert {r["degree"] for r in report.rows} == {1, 2}
    assert all(r["provenance"] == "monte-carlo" for r in report.rows)


def test_wh_poisson_experiment_shrunk():
    report = run_experiment(_shrunk("wh-poisson", samples=10**4))
    assert report.all_passed
    assert all(r["lost_mass"] == "0" for r in report.rows)


def test_triple_mixing_experiment_shrunk():
    cfg = _shrunk("triple-mixing", count=40, samples=10**4, threshold=0.02)
    report = run_experiment(cfg)
    assert report.all_passed
    met = [r for r in report.rows if r["condition_met"]]
    assert len(met) >= 10
    assert all(r["within"] for r in met)


def test_triple_mixing_default_passes_at_seed_11():
    # quiet rows are gated against their orthant probability, which the
    # estimator is unbiased for; row (157, 314) lies 5.07 SE from 1/8 here
    cfg = resolve_config({"experiment": "triple-mixing"})
    cfg["seed"] = 11
    report = run_experiment(cfg)
    assert report.all_passed, [c for c in report.checks if not c["passed"]]
    row = next(r for r in report.rows if (r["m"], r["n"]) == (157, 314))
    assert row["condition_met"] and row["within"]


def test_gauss_and_poisson_adhoc_runners_shrunk():
    assert run_experiment(_shrunk("gauss", samples=10**4)).all_passed
    assert run_experiment(_shrunk("poisson", samples=10**4)).all_passed


# Shrunk configs of the five Monte-Carlo entries, with `samples` not a
# multiple of `mc.BATCHES`.
MC_SHRUNK = {
    "gauss": {"samples": 10_007, "shifts": [3]},
    "triple-mixing": {"samples": 10_007, "count": 12},
    "wh-gaussian": {"samples": 10_007, "n_terms": 20},
    "poisson": {"samples": 2_007, "ns": [0, 3]},
    "wh-poisson": {"samples": 2_007, "ns": [50]},
}


def test_poisson_results_bytes_are_frozen():
    for name, digest in POISSON_RESULT_DIGESTS.items():
        cfg = _shrunk(name, **MC_SHRUNK[name])
        cfg["seed"] = 3
        assert hashlib.sha256(run_experiment(cfg).results_bytes()).hexdigest() == digest, name


def test_result_bytes_are_seed_deterministic_and_jobs_invariant(thread_pools):
    for name, params in MC_SHRUNK.items():
        cfg = _shrunk(name, **params)
        a = run_experiment(cfg)
        assert run_experiment(cfg).results_bytes() == a.results_bytes(), name
        assert thread_pools.ran == [], name
        parallel = run_experiment(cfg, jobs=3)
        assert parallel.results_bytes() == a.results_bytes(), name
        # each Monte-Carlo row is one estimate, and each ran on a 3-thread pool
        mc_rows = [r for r in parallel.rows if r["provenance"] == "monte-carlo"]
        assert thread_pools.ran == [3] * len(mc_rows) != [], name
        thread_pools.ran.clear()
        cfg["seed"] = 9
        assert run_experiment(cfg).results_bytes() != a.results_bytes(), name


def test_report_config_echo_is_re_runnable():
    report = run_experiment(_shrunk("gauss", samples=10**4))
    again = run_experiment(report.config)
    assert again.results_bytes() == report.results_bytes()


# a stream seeded by seed + 31 k + n gives rows (1, 31) and (2, 0) one stream
GAUSS_CROSSED = {"samples": 10_007, "degrees": [1, 2], "shifts": [0, 31]}


@pytest.mark.parametrize(
    "name, params",
    [pytest.param(n, p, id=n) for n, p in sorted(MC_SHRUNK.items())]
    + [pytest.param("gauss", GAUSS_CROSSED, id="gauss-crossed")],
)
def test_each_monte_carlo_row_is_one_mc_call_with_the_floor_layout(monkeypatch, name, params):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(kwargs["seed"])
            return fn(*args, **kwargs)

        return wrapper

    for module in (experiments, gaussian, poisson):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == mc.__name__:
                monkeypatch.setattr(module, attr, counting(obj))
    report = run_experiment(_shrunk(name, **params))
    rows = [r for r in report.rows if r["provenance"] == "monte-carlo"]
    assert len(rows) == len(calls) > 0
    # every row draws from its own stream key
    assert len(set(calls)) == len(calls), calls
    want = params["samples"] // mc.BATCHES * mc.BATCHES
    assert want < params["samples"]
    assert all(r["n_samples"] == want for r in rows)


def _check_of(name):
    return lambda report: next(
        (c["passed"], c.get("detail")) for c in report.checks if c["name"] == name
    )


def _rows(report):
    return len(report.rows)


def _column(key, item=None, digits=None):
    def read(report):
        values = [r[key] for r in report.rows if item is None or r.get("item") == item]
        return [round(v, digits) for v in values] if digits is not None else values

    return read


# (experiment, shared params, property, its non-default value, what it changes,
# that reading at the property's default, and at the value)
SCHEMA_PROPERTY_EFFECTS = [
    ("theorem1", {}, "ratio_stages", 3, _rows, 14, 8),
    ("theorem1", {}, "scan_n_max", 72,  # c_1 = 73
     _check_of("scan-confirms-overlap-on-the-rigid-side"),
     (True, "1 shared time(s) within scan range"), (False, "0 shared time(s) within scan range")),
    ("theorem1", {}, "scan_theta", 0.2,  # 2 / r_1 = 1/8 mu: rigid, not partially rigid
     _check_of("scan-confirms-overlap-on-the-rigid-side"),
     (True, "1 shared time(s) within scan range"), (False, "1 shared time(s) within scan range")),
    ("theorem1", {}, "wh_ns", [50], _column("n_terms", "wh-defect"), [50, 100, 200], [50]),
    # stage-2 levels 1 and 3 lie below A = 50..349, so no upward shift of A meets them
    ("theorem1", {}, "swap_stage", 2, _column("defect_hi", "wh-defect"),
     ["13/200", "13/200", "103/1600"], ["0", "0", "0"]),
    ("wh-poisson", {"samples": 80}, "swap_stage", 2, _column("wh_hi"),
     ["13/200", "13/200", "103/1600"], ["0", "0", "0"]),
    ("ledrapier", {}, "generic_seed", 8, lambda report: _column("z", "generic")(report)[:3],
     [[1, 2], [3, 0], [-7, 8]], [[-2, 5], [3, 2], [-3, 0]]),
    # off a rotation block the plane's mass moves, and with it the majorant
    ("eq1-sweep", {"plane": [5, 6]}, "vector_seed", 6, _column("majorant2", digits=3),
     [0.182, 0.181, 0.181], [0.364, 0.362, 0.362]),
    ("wh-gaussian", {"plane": [5, 6], "samples": 80, "degrees": [1], "n_terms": 20},
     "vector_seed", 6, _column("operator_defect", digits=3), [0.009], [0.017]),
]


@pytest.mark.parametrize(
    "name, shared, key, value, read, at_default, at_value",
    [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in SCHEMA_PROPERTY_EFFECTS],
)
def test_each_schema_property_changes_its_run(name, shared, key, value, read, at_default, at_value):
    assert _CATALOGUE[name].params_schema["properties"][key].get("default") != value
    assert read(run_experiment(_shrunk(name, **shared))) == at_default
    assert read(run_experiment(_shrunk(name, **shared, **{key: value}))) == at_value


# A check's threshold is a constant, so each is shown to fail on an input:
# (experiment, params, check, its reading there)
FAILING_INPUTS = [
    # 2 / r_j = 2/3 at every stage
    ("theorem6", {"pair": {"cuts": {"name": "constant", "r": 3}}},
     "both-defect-ratios-below-bound-from-certify-stage", (False, "bound 1/20 from stage 8")),
    # the same pair; A and N shrink to fit its 81-level stage-2 tower
    ("theorem1", {"pair": {"cuts": {"name": "constant", "r": 3}}, "a_lo": 0, "a_hi": 3,
                  "wh_ns": [20]},
     "both-defect-ratios-below-bound-from-certify-stage", (False, None)),
    # defect_hi 47/200 at N = 50
    ("theorem1", {"a_lo": 0, "a_hi": 1600}, "finitary-swap-defect-below-bound",
     (False, "bound 0.1")),
    ("eq1-sweep", {"delta": 0.03}, "final-majorant-below-bound",
     (False, "majorant2(10000) = 0.06")),
    ("triple-mixing", {"threshold": 0.001, "samples": 10**4}, "enough-correlation-quiet-times",
     (False, "2 of 200 times met the threshold")),
    # the whole stage-2 tower is the window, so 1 + 2 + ... + 50 levels are lost
    ("wh-poisson", {"samples": 80, "window_size": 1686, "ns": [50]},
     "n-50-lost-mass-within-budget", (False, "lost 1275/128 of intensity 843/64")),
]

# (experiment, params, check): each config leaves the check nothing to cover
NOTHING_COVERED = [
    ("theorem6", {"stages": 5}, "both-defect-ratios-below-bound-from-certify-stage"),
    ("theorem1", {"ratio_stages": 3}, "both-defect-ratios-below-bound-from-certify-stage"),
    # the first shared time is c_1 = 73
    ("theorem1", {"scan_n_max": 72}, "scan-confirms-vanishing-correlation-on-the-other-side"),
    ("ledrapier", {"generic_pairs": 0}, "generic-pairs-are-quarter"),
    # no time of 1..20 has all three correlations below 1e-9
    ("triple-mixing", {"threshold": 1e-9, "samples": 10000, "count": 20},
     "quiet-times-match-orthant-probability-within-five-se"),
]


def _failing_check(name, params, check_name):
    report = run_experiment({"experiment": name, "params": params})
    assert not report.all_passed
    return _check_of(check_name)(report)


@pytest.mark.parametrize(
    "name, params, check_name, reading",
    [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in FAILING_INPUTS],
)
def test_each_check_threshold_fails_a_genuine_input(name, params, check_name, reading):
    assert _failing_check(name, params, check_name) == reading


@pytest.mark.parametrize(
    "name, params, check_name",
    [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in NOTHING_COVERED],
)
def test_a_check_that_covers_nothing_fails(name, params, check_name):
    assert _failing_check(name, params, check_name)[0] is False


def test_a_quiet_times_check_with_no_quiet_row_says_so():
    params = {"threshold": 1e-9, "samples": 10000, "count": 20}
    check_name = "quiet-times-match-orthant-probability-within-five-se"
    reading = _failing_check("triple-mixing", params, check_name)
    assert reading == (False, "no quiet row was compared")
