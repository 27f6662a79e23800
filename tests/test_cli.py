import argparse
import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

from conftest import run_cli
from ergolab import cli, experiments, mc
from ergolab.constructions import MAX_DEPTH
from ergolab.experiments import command_specs, resolve_config

COMMON_FLAGS = {"--seed", "--out", "--csv", "--jobs"}


def fresh_python(*args, timeout=None):
    """`python <args>` in a fresh interpreter: only for what a test of an
    in-process `run_cli` cannot see, the state of a new interpreter or a
    real process's exit."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout
    )


# the helpers above that start an interpreter; nothing else here starts one
FRESH_INTERPRETER_HELPERS = ("fresh_python",)


def test_list_experiments_prints_the_catalogue():
    proc = run_cli("list-experiments")
    assert proc.returncode == 0
    names = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    assert names == [
        "ledrapier",
        "theorem1",
        "theorem6",
        "eq1-sweep",
        "wh-gaussian",
        "wh-poisson",
        "rigidity-scan",
        "triple-mixing",
    ]


def test_build_writes_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "rows.csv"
    proc = run_cli(
        "build", "--construction", "chacon", "--depth", "6",
        "--out", str(out), "--csv", str(csv),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["experiment"] == "build"
    assert report["all_passed"] is True
    assert report["config"]["params"]["depth"] == 6
    heights = [r["height"] for r in report["results"]["rows"]]
    assert heights == [1, 4, 13, 40, 121, 364, 1093]
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("stage,height,")
    assert len(lines) == 8


def test_ledrapier_subcommand_is_green():
    proc = run_cli("ledrapier", "--k-max", "3", "--generic-pairs", "5")
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_malformed_config_exits_2_with_no_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "ledrapier", "params": {', encoding="utf-8")
    out = tmp_path / "never.json"
    proc = run_cli("experiment", "ledrapier", "--config", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_unknown_experiment_exits_2():
    proc = run_cli("experiment", "singularity")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_unknown_config_field_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"experiment": "ledrapier", "params": {"k_max": 3, "zzz": 1}}',
        encoding="utf-8",
    )
    proc = run_cli("experiment", "ledrapier", "--config", str(cfg))
    assert proc.returncode == 2


def test_config_name_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "theorem6"}', encoding="utf-8")
    proc = run_cli("experiment", "ledrapier", "--config", str(cfg))
    assert proc.returncode == 2


DEPTH_EXHAUSTED = [
    "correlate", "--construction", "chacon", "--n", "120",
    "--a-stage", "2", "--a-lo", "0", "--a-hi", "13", "--depth", "2",
]


def test_depth_exhaustion_exits_3():
    proc = run_cli(*DEPTH_EXHAUSTED)
    assert proc.returncode == 3
    assert "ergolab.tower" in proc.stderr


@pytest.mark.parametrize(
    "argv, code, words",
    [
        (["build", "--jobs", "0"], 2, "--jobs: expected an integer of at least 1"),
        (DEPTH_EXHAUSTED, 3, "ergolab: construction exhausted in ergolab.tower"),
    ],
    ids=["exit-2", "exit-3"],
)
def test_a_real_process_exits_with_the_code_and_no_traceback(argv, code, words):
    # the in-process runs see cli.main's code; this is the process's own
    proc = fresh_python("-m", "ergolab", *argv)
    assert proc.returncode == code
    assert words in proc.stderr
    assert "Traceback" not in proc.stderr


def test_depth_is_bounded_by_the_schema():
    assert run_cli("correlate", "--depth", "30").returncode == 0
    proc = run_cli("correlate", "--depth", str(MAX_DEPTH + 1))
    assert proc.returncode == 2
    assert f"maximum of {MAX_DEPTH}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failing_check_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"experiment": "rigidity-scan", "params": {"expect_rigid": [1, 2]}}',
        encoding="utf-8",
    )
    proc = run_cli("experiment", "rigidity-scan", "--config", str(cfg))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_expect_rigid_flag_failing_check_exits_1():
    proc = run_cli("rigidity", "--expect-rigid", "1,2")
    assert proc.returncode == 1
    assert "FAIL  rigid-set-matches-expected" in proc.stdout


def test_expect_rigid_null_exits_2(tmp_path):
    # an empty list is what expects no rigid shift; the check always runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"experiment": "rigidity-scan", "params": {"expect_rigid": null}}', encoding="utf-8"
    )
    proc = run_cli("experiment", "rigidity-scan", "--config", str(cfg))
    assert proc.returncode == 2
    assert "None is not of type 'array'" in proc.stderr
    assert "Traceback" not in proc.stderr


# NaN, the infinities and ints too large for a float are no JSON Schema numbers
NOT_NUMBERS = [
    ["cesaro", "--angle", "nan"],
    ["rigidity", "--theta", "inf"],
    ["experiment", "eq1-sweep", "--config", {"angle": float("nan")}],
    ["experiment", "eq1-sweep", "--config", {"angle": int("9" * 400)}],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["rigidity", "--theta", "0.7"],
        ["gauss", "--samples", "10"],
        ["cesaro", "--dim", "5"],
        ["poisson", "--window-size", "100000"],
        ["poisson", "--samples", "10"],
        ["ledrapier", "--generic-pairs", "190"],
        ["poisson", "--depth", "5", "--window-stage", "5", "--a-stage", "0", "--a-lo", "0",
         "--a-hi", "1", "--b-stage", "5", "--b-lo", "0", "--b-hi", "5"],
        ["cesaro", "--plane", "6,7,9"],
        # a dict stands for a config file holding those params
        ["experiment", "theorem1", "--config", {"swap_pair": [1, 3, 5]}],
        *NOT_NUMBERS,
        # a swap level past the stage-1 height
        ["experiment", "wh-poisson", "--config", {"swap_pair": [1, 9999]}],
        ["experiment", "theorem1", "--config", {"swap_pair": [1, 9999]}],
    ],
)
def test_domain_errors_exit_2_without_traceback(argv, tmp_path):
    not_a_number = argv in NOT_NUMBERS
    argv = list(argv)
    for i, item in enumerate(argv):
        if isinstance(item, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"params": item}), encoding="utf-8")
            argv[i] = str(cfg)
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    if not_a_number:
        assert "is not of type 'number'" in proc.stderr


@pytest.mark.parametrize("command, samples", [("poisson", 10), ("gauss", 79)])
def test_samples_below_two_a_batch_exit_2_before_anything_runs(command, samples, monkeypatch):
    # the schema's minimum, 2 * mc.BATCHES = 80, refuses them: a runner that
    # cannot be called shows nothing is built
    monkeypatch.setitem(
        experiments._CATALOGUE, command,
        dataclasses.replace(experiments._CATALOGUE[command], runner=None),
    )
    proc = run_cli(command, "--samples", str(samples))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"ergolab: config error: invalid params for {command!r}: "
        f"{samples} is less than the minimum of {2 * mc.BATCHES}\n"
    )


# a check's threshold is a constant of the code, which no config can move
DELETED_THRESHOLDS = [
    ("theorem1", "bound"),
    ("theorem1", "certify_from"),
    ("theorem1", "wh_bound"),
    ("theorem6", "bound"),
    ("theorem6", "certify_from"),
    ("eq1-sweep", "final_bound"),
    ("wh-poisson", "lost_budget"),
    ("triple-mixing", "min_usable"),
]


@pytest.mark.parametrize(
    "name, key", DELETED_THRESHOLDS, ids=[f"{name}-{key}" for name, key in DELETED_THRESHOLDS]
)
def test_a_check_threshold_in_a_config_exits_2(name, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {key: 1}}), encoding="utf-8")
    assert cli.main(["experiment", name, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"Additional properties are not allowed ('{key}' was unexpected)" in err


def test_cesaro_takes_no_final_bound_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cesaro", "--final-bound", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --final-bound 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["cesaro", "--help"])
    assert "--final-bound" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["rigidity", "--a-stage", "5000"],
        ["experiment", "theorem1", "--config", {"swap_stage": 4000}],
        ["poisson", "--window-stage", "65"],
        ["correlate", "--b-stage", "65"],
    ],
)
def test_stage_parameters_are_bounded_by_the_depth_cap(argv, tmp_path, capsys):
    # a kernel call needs a depth of at least its sets' stage
    for i, item in enumerate(argv):
        if isinstance(item, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"params": item}), encoding="utf-8")
            argv[i] = str(cfg)
    assert cli.main(argv) == 2
    assert f"is greater than the maximum of {MAX_DEPTH}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_exits_2_and_leaves_no_temp_file(tmp_path, flag):
    # the other output can be written, and is not left behind either
    other = {"--out": "--csv", "--csv": "--out"}[flag]
    existing = tmp_path / "existing"  # its temp file goes beside it, in tmp_path
    existing.mkdir()
    for path in (tmp_path / "missing" / "r.json", existing):
        proc = run_cli("build", flag, str(path), other, str(tmp_path / "ok"))
        assert proc.returncode == 2
        assert f"ergolab: cannot write {path}: " in proc.stderr
        assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["existing"]
    assert os.listdir(existing) == []


def test_out_and_csv_naming_one_file_exit_2_and_write_nothing(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    target = tmp_path / "r.txt"
    for other in (target, sub / ".." / "r.txt"):
        proc = run_cli("build", "--depth", "2", "--out", str(target), "--csv", str(other))
        assert proc.returncode == 2
        assert f"--out and --csv name one file: {target}" in proc.stderr
        assert "report written" not in proc.stdout
    assert os.listdir(tmp_path) == ["sub"]


def test_negative_shifts_run_at_any_seed():
    # a row's stream is keyed by its position, not by its shift, so a
    # negative shift cannot make the stream seed negative
    proc = run_cli("poisson", "--ns=-3,0", "--seed", "1")
    assert proc.returncode == 0, proc.stderr


def test_swap_support_of_a_deep_window_runs(tmp_path):
    # the stage-1 swap levels have 47185920 depth-6 copies; only those within
    # N levels above a window level are listed, whether the window is one
    # run of levels or refined into one copy per depth column
    cfg = tmp_path / "cfg.json"
    for params in (
        {"depth": 6, "window_stage": 6, "a_stage": 6},
        {"depth": 6, "window_stage": 5, "window_size": 1, "a_stage": 6, "a_lo": 0, "a_hi": 1},
    ):
        cfg.write_text(json.dumps({"experiment": "wh-poisson", "params": params}), encoding="utf-8")
        _passes(run_cli("experiment", "wh-poisson", "--config", str(cfg)))


def _passes(proc):
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_swap_defect_of_a_deep_set_runs(tmp_path):
    # the swap defect counts the stage-1 swap support's copies at A's stage, 12
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"a_stage": 12, "a_lo": 0, "a_hi": 5}}), encoding="utf-8")
    _passes(run_cli("experiment", "theorem1", "--config", str(cfg)))


@pytest.mark.parametrize("depth", ["18", "19"])  # 1 and all 3**17 copies within reach
def test_correlation_across_far_apart_stages_runs(depth):
    # one stage-1 level of A has 3**17 copies at B's stage, 18
    proc = run_cli(
        "correlate", "--construction", "chacon", "--n", "5", "--a-stage", "1", "--a-lo", "0",
        "--a-hi", "1", "--b-stage", "18", "--b-lo", "0", "--b-hi", "1", "--depth", depth,
    )
    _passes(proc)


@pytest.mark.parametrize(
    "name,side",
    [
        ("theorem1", "a"),
        ("wh-poisson", "a"),
        ("correlate", "a"),
        ("correlate", "b"),
        ("poisson", "a"),
        ("poisson", "b"),
    ],
)
def test_empty_level_set_exits_2(tmp_path, name, side):
    cfg = tmp_path / "cfg.json"
    params = {f"{side}_lo": 5, f"{side}_hi": 5}
    cfg.write_text(json.dumps({"experiment": name, "params": params}), encoding="utf-8")
    proc = run_cli("experiment", name, "--config", str(cfg))
    assert proc.returncode == 2
    assert "empty level set" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_spec_file_without_mode_builds(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"rule": {"name": "chacon"}}', encoding="utf-8")
    proc = run_cli("build", "--spec-file", str(spec), "--depth", "3")
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_spec_file_with_an_unknown_key_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"rule": {"name": "chacon"}, "junk": 1}', encoding="utf-8")
    proc = run_cli("build", "--spec-file", str(spec))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "'junk'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "pair, key",
    [
        ({"cuts": {"name": "constant"}}, "'r'"),
        ({"cprime": {"name": "explicit"}}, "'values'"),
        ({"cuts": 5}, "is not of type 'object'"),
        ({"bogus": 1}, "'bogus'"),
        ({"cuts": {"name": "affine", "scale": 1, "offset": 2, "junk": 1}}, "'junk'"),
        ({"dprime": {"name": "naturals", "step": 2}}, "'step'"),
    ],
    ids=[
        "constant-cuts-without-r",
        "explicit-stream-without-values",
        "cuts-not-an-object",
        "unknown-pair-key",
        "unknown-cuts-key",
        "unknown-stream-key",
    ],
)
def test_pair_file_with_a_missing_key_exits_2(tmp_path, pair, key):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair), encoding="utf-8")
    proc = run_cli("poisson", "--pair-file", str(path), "--samples", "10000")
    assert proc.returncode == 2
    assert "config error" in proc.stderr and key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, spec, words",
    [
        ([], {"stages": 5}, "5 is not of type 'array'"),
        (
            [],
            {"rule": {"name": "theorem6", "args": {"role": 5}}},
            "5 is not one of ['t', 's']",
        ),
        (
            [],
            {"rule": {"name": "odometer", "args": {"r": "3"}}},
            "'3' is not of type 'integer'",
        ),
        (
            [],
            {"rule": {"name": "chacon", "args": {"bogus": 1}}},
            "'bogus' was unexpected",
        ),
        ([], {}, "'rule' is a required property"),
        # a construction's measure follows from its cuts and spacers
        ([], {"mode": "infinite", "rule": {"name": "chacon"}}, "'mode' was unexpected"),
        (["--construction", "chacon", "--r", "3"], None, "'r' was unexpected"),
        (["--construction", "odometer", "--role", "s"], None, "'role' was unexpected"),
        (["--r", "3"], {"rule": {"name": "chacon"}}, "'r' (--r)"),
        (["--role", "s"], {"rule": {"name": "chacon"}}, "'role' (--role)"),
        (
            ["--construction", "odometer"],
            {"rule": {"name": "chacon"}},
            "'construction' (--construction)",
        ),
    ],
    ids=[
        "stages-not-a-list",
        "role-not-a-string",
        "r-a-string",
        "chacon-unknown-arg",
        "spec-without-stages-or-rule",
        "spec-with-mode",
        "chacon-with-r",
        "odometer-with-role",
        "spec-with-r",
        "spec-with-role",
        "spec-with-construction",
    ],
)
def test_ill_typed_or_unused_construction_arguments_exit_2(tmp_path, flags, spec, words):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        flags = flags + ["--spec-file", str(path)]
    proc = run_cli("build", *flags)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and words in proc.stderr
    assert "Traceback" not in proc.stderr


def _subparsers() -> dict:
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flag(name: str, prop: dict) -> str:
    flag = "--" + name.replace("_", "-")
    return flag + "-file" if prop["type"] == "object" else flag


def test_subcommand_flags_are_the_schema_properties():
    subparsers = _subparsers()
    specs = command_specs()
    assert sorted(spec.command for spec in specs) == [
        "build", "cesaro", "correlate", "gauss", "ledrapier", "poisson", "rigidity",
    ]
    for spec in specs:
        props = spec.params_schema["properties"]
        expected = {_flag(name, prop) for name, prop in props.items()}
        assert not expected & COMMON_FLAGS, spec.command
        flags = {
            option
            for action in subparsers[spec.command]._actions
            for option in action.option_strings
        }
        assert flags == expected | COMMON_FLAGS | {"-h", "--help"}, spec.command


def test_descriptor_file_flags_name_their_descriptor_in_the_help():
    subparsers = _subparsers()
    for spec in command_specs():
        for name, prop in spec.params_schema["properties"].items():
            if prop["type"] != "object":
                continue
            (action,) = [
                a
                for a in subparsers[spec.command]._actions
                if _flag(name, prop) in a.option_strings
            ]
            assert f"`{name}` descriptor" in action.help, (spec.command, name)
            assert "Construction descriptors" in action.help


@pytest.mark.parametrize("jobs", ["-3", "0", "two"])
def test_jobs_below_one_exits_2(jobs):
    proc = run_cli("build", "--depth", "2", "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs: expected an integer of at least 1" in proc.stderr
    assert "result:" not in proc.stdout


def test_gauss_at_a_shift_of_a_billion_runs_in_closed_form():
    # U^s f is one closed-form rotation whatever s is; a walk of 10^9
    # matvecs would take tens of minutes
    proc = fresh_python(
        "-m", "ergolab", "gauss", "--shifts", "1000000000", "--samples", "4000", timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


# a valid descriptor for each object property (`$ref` of the same name)
DESCRIPTORS = {
    "spec": {"rule": {"name": "odometer", "args": {"r": 3}}},
    "pair": {"cuts": {"name": "constant", "r": 3}},
}


def _flag_value(name: str, prop: dict, tmp_path):
    """A schema-valid value for one property, and its command-line text."""
    kind = prop["type"]
    if kind == "object":
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(DESCRIPTORS[name]), encoding="utf-8")
        return DESCRIPTORS[name], str(path)
    if kind == "array":
        items = prop["items"].get("enum", [3, 5])[-2:]
        return items, ",".join(map(str, items))
    if "enum" in prop:
        return prop["enum"][-1], prop["enum"][-1]
    if kind == "integer":
        value = prop.get("minimum", 0) + 6
        return value, str(value)
    return 0.375, "0.375"


# Flags that need a run of their own, and what they are run beside: a spec
# names its whole construction, and of the rules only odometer takes `r` (the
# last rule, theorem6, takes `role`).
SEPARATE_RUNS = {"spec": [], "r": ["--construction", "odometer"]}


def test_every_generated_flag_lands_in_the_report_params(tmp_path):
    for spec in command_specs():
        runs = {}  # run -> (argv, expected params)
        for name, prop in spec.params_schema["properties"].items():
            value, text = _flag_value(name, prop, tmp_path)
            run = name if name in SEPARATE_RUNS else None
            argv, expected = runs.setdefault(
                run, ([spec.command, *SEPARATE_RUNS.get(run, [])], {})
            )
            argv += [_flag(name, prop), text]
            expected[name] = value
        for argv, expected in runs.values():
            config = cli._config_from_args(cli._build_parser().parse_args(argv))
            params = resolve_config(config)["params"]
            for name, value in expected.items():
                assert params[name] == value, (spec.command, name)
                assert value != spec.defaults.get(name), (spec.command, name)


def test_fresh_import_loads_no_scipy():
    # nor the package-metadata lookup or numpy's polynomial classes
    prefixes = ("scipy.", "importlib.metadata.", "numpy.polynomial.")
    proc = fresh_python(
        "-c",
        "import sys, ergolab; "
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefixes})))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # and no code path needs it: the goodness-of-fit test runs with scipy
    # unimportable, on criterion 07's model and first window
    gof = (
        "import sys; sys.modules['scipy'] = None\n"
        "from ergolab import LevelSet, PoissonModel, poisson_gof, rigid_mixing_pair\n"
        "model = PoissonModel(rigid_mixing_pair().t_params, LevelSet(2, range(700)), depth=2)\n"
        "g = poisson_gof(model, LevelSet(2, range(100, 150)), 2 * 10**4, seed=400)\n"
        "print(g.n_bins, g.passed(0.001))"
    )
    proc = fresh_python("-c", gof)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5", "True"]


EXACT_ENTRIES = ("build", "correlate", "rigidity-scan", "ledrapier", "theorem1", "theorem6")

# the report-writing subcommands of perfbench's cli-cold workload
CLI_COLD_COMMANDS = {
    "build": ["build", "--construction", "odometer", "--depth", "8"],
    "correlate": ["correlate", "--construction", "chacon", "--n", "17",
                  "--a-stage", "2", "--a-lo", "3", "--a-hi", "6"],
    "rigidity": ["rigidity"],
    "ledrapier": ["ledrapier", "--k-max", "8"],
}

# a command, the text of the input file it is given last, and jsonschema's wording
REJECTIONS = [
    (
        ["build", "--spec-file"],
        '{"stages": 5}',
        "invalid params for 'build' at $.spec.stages: 5 is not of type 'array'",
    ),
    (
        ["correlate", "--spec-file"],
        '{"rule": {"name": "odometer", "args": {"r": 1}}}',
        "invalid params for 'correlate' at $.spec.rule.args.r: "
        "1 is less than the minimum of 2",
    ),
    (
        ["experiment", "ledrapier", "--config"],
        '{"params": {"k_max": "ten"}}',
        "invalid params for 'ledrapier': 'ten' is not of type 'integer'",
    ),
]

WITHOUT_NUMPY = [["experiment", name] for name in EXACT_ENTRIES] + [["list-experiments"]]
WITHOUT_JSONSCHEMA = (
    [["experiment", name] for name in EXACT_ENTRIES]
    + list(CLI_COLD_COMMANDS.values())
    + [["list-experiments"]]
)

# The runs with a module unimportable, as (argv, input text or None).  One
# fresh interpreter per module runs them all, each through cli.main.
RUNS_WITHOUT = {
    "numpy": [(argv, None) for argv in WITHOUT_NUMPY],
    "jsonschema": [(argv, None) for argv in WITHOUT_JSONSCHEMA]
    + [(argv, text) for argv, text, _ in REJECTIONS],
}

_RUN_WITHOUT = """\
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None
from ergolab import cli
outcomes = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    outcomes.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(outcomes))
"""


def _run_without(module, path):
    """Each outcome of RUNS_WITHOUT[module], by (argv, text), from one fresh
    interpreter in which `module` cannot be imported.  A report run writes
    its JSON and CSV in `path`; `report` holds their results and bytes."""
    argvs = []
    for i, (argv, text) in enumerate(RUNS_WITHOUT[module]):
        if text is not None:
            (path / f"{i}.input").write_text(text, encoding="utf-8")
            argvs.append([*argv, str(path / f"{i}.input")])
        elif argv[0] == "list-experiments":
            argvs.append(argv)
        else:
            stem = path / str(i)
            argvs.append([*argv, "--out", f"{stem}.json", "--csv", f"{stem}.csv"])
    proc = fresh_python("-c", _RUN_WITHOUT, module, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    outcomes = {}
    for i, ((argv, text), (code, stdout, stderr)) in enumerate(
        zip(RUNS_WITHOUT[module], json.loads(proc.stdout))
    ):
        out = path / f"{i}.json"
        report = None
        if out.exists():
            results = json.loads(out.read_text(encoding="utf-8"))["results"]
            report = (results, (path / f"{i}.csv").read_bytes())
        outcomes[tuple(argv), text] = types.SimpleNamespace(
            returncode=code, stdout=stdout, stderr=stderr, report=report
        )
    return outcomes


@pytest.fixture(scope="module")
def without(tmp_path_factory):
    """`without(module, argv, text=None)`: that run of RUNS_WITHOUT[module];
    the first call for a module runs all of them."""
    outcomes = {}

    def outcome(module, argv, text=None):
        if module not in outcomes:
            outcomes[module] = _run_without(module, tmp_path_factory.mktemp(module))
        return outcomes[module][tuple(argv), text]

    return outcome


def assert_runs_without(module, argv, without, tmp_path):
    """`ergolab <argv>` succeeds with `module` unimportable, and its report
    results and CSV (or, for list-experiments, its stdout) equal a normal run's."""
    report = argv[0] != "list-experiments"
    out, csv = tmp_path / "a.json", tmp_path / "a.csv"
    normal = run_cli(*argv, *(["--out", str(out), "--csv", str(csv)] if report else []))
    blocked = without(module, argv)
    for proc in (normal, blocked):
        assert proc.returncode == 0, proc.stderr
    if report:
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert (results, csv.read_bytes()) == blocked.report
    else:
        assert normal.stdout == blocked.stdout


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=[*EXACT_ENTRIES, "list-experiments"])
def test_exact_entries_run_without_numpy(argv, without, tmp_path):
    assert_runs_without("numpy", argv, without, tmp_path)


@pytest.mark.parametrize(
    "argv",
    WITHOUT_JSONSCHEMA,
    ids=[*EXACT_ENTRIES, *(f"{cmd}-command" for cmd in CLI_COLD_COMMANDS), "list-experiments"],
)
def test_exact_commands_run_without_jsonschema(argv, without, tmp_path):
    assert_runs_without("jsonschema", argv, without, tmp_path)


@pytest.mark.parametrize(
    "argv, text, stderr", REJECTIONS, ids=["spec-stages", "spec-rule-r", "config-k-max"]
)
def test_rejections_keep_jsonschemas_wording(argv, text, stderr, without, tmp_path):
    # and need no jsonschema to be worded so
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    for proc in (run_cli(*argv, str(path)), without("jsonschema", argv, text)):
        assert proc.returncode == 2
        assert proc.stderr == f"ergolab: config error: {stderr}\n"


def test_cli_import_loads_neither_numpy_nor_a_thread_pool():
    # nor jsonschema and its dependencies, which only the tests use
    modules = ("numpy", "concurrent.futures", "jsonschema", "referencing", "attrs", "rpds")
    proc = fresh_python(
        "-c", f"import sys, ergolab.cli; print([m for m in {modules} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    # every import in the package, lazy ones too, names a stdlib module,
    # numpy or ergolab itself; jsonschema is a test extra, the oracle only
    root = pathlib.Path(__file__).resolve().parents[1]
    imported = set()
    for module in (root / "src" / "ergolab").glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names <= {"numpy", "ergolab"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match("[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("jsonschema") for dep in project["optional-dependencies"]["test"])


def test_import_binds_every_public_name_and_loads_every_module():
    # Code that wraps ergolab's functions from outside, as perfbench does,
    # only sees the modules already loaded, so `import ergolab` must load them all.
    script = (
        "import ast, json, sys, ergolab\n"
        "from ergolab import run_experiment\n"
        "tree = ast.parse(open(ergolab.__file__, encoding='utf-8').read())\n"
        "names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)\n"
        "         and node.module != '__future__' for a in node.names]\n"
        "modules = ['ergolab.' + m for m in ('mc', 'gaussian', 'poisson', 'operators')]\n"
        "print(json.dumps({\n"
        "    'names': len(names),\n"
        "    'missing': [n for n in names if n not in vars(ergolab)],\n"
        "    'getattr': '__getattr__' in vars(ergolab),\n"
        "    'unloaded': [m for m in modules if m not in sys.modules],\n"
        "    'numpy_before': 'numpy' in sys.modules,\n"
        "    'passed': run_experiment({'experiment': 'gauss'}).all_passed,\n"
        "    'numpy_after': 'numpy' in sys.modules,\n"
        "}))"
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found.pop("names") > 0
    assert found == {
        "missing": [],
        "getattr": False,
        "unloaded": [],
        "numpy_before": False,
        "passed": True,
        "numpy_after": True,
    }


def test_env_seed_does_not_override_the_flag_seed(tmp_path, monkeypatch):
    # ERGOLAB_SEED is no input: the seed comes from --seed alone
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["gauss", "--samples", "10000", "--degrees", "1", "--shifts", "3", "--seed", "7"]
    p1 = run_cli(*base, "--out", str(out1))
    monkeypatch.setenv("ERGOLAB_SEED", "1")
    p2 = run_cli(*base, "--out", str(out2))
    assert p1.returncode == 0 and p2.returncode == 0, p1.stderr + p2.stderr
    a = json.loads(out1.read_text(encoding="utf-8"))
    b = json.loads(out2.read_text(encoding="utf-8"))
    assert a["config"]["seed"] == b["config"]["seed"] == 7
    assert a["results"] == b["results"]


def test_invalid_env_seed_is_ignored(monkeypatch):
    monkeypatch.setenv("ERGOLAB_SEED", "x")
    proc = run_cli("ledrapier", "--k-max", "2")
    assert proc.returncode == 0, proc.stderr


def test_same_seed_reruns_are_byte_identical(tmp_path):
    # a fresh interpreter's run and two in-process runs after it: an
    # in-process run carries no state of an earlier one into its results
    outs = [tmp_path / f"{run}.json" for run in ("fresh", "again", "twice")]
    args = ["poisson", "--samples", "10000", "--ns", "0,3", "--seed", "5"]
    assert fresh_python("-m", "ergolab", *args, "--out", str(outs[0])).returncode == 0
    for out in outs[1:]:
        assert run_cli(*args, "--out", str(out)).returncode == 0
    blobs = [
        json.dumps(json.loads(out.read_text(encoding="utf-8"))["results"], sort_keys=True)
        for out in outs
    ]
    assert blobs[0] == blobs[1] == blobs[2]


def test_only_the_fresh_interpreter_helpers_start_a_process():
    # a CLI case runs in-process through run_cli; a case whose subject is a
    # new interpreter or a real process goes through a named helper
    tree = ast.parse(pathlib.Path(__file__).read_text(encoding="utf-8"))
    reaching = set()
    for node in tree.body:
        if isinstance(node, ast.Import) and all(a.asname is None for a in node.names):
            continue  # `import subprocess` binds the name looked for below
        if any(
            isinstance(n, ast.Name) and n.id == "subprocess"
            or isinstance(n, ast.alias) and n.name == "subprocess"
            or isinstance(n, ast.ImportFrom) and n.module == "subprocess"
            or isinstance(n, ast.Attribute) and n.attr == "executable"
            for n in ast.walk(node)
        ):
            reaching.add(getattr(node, "name", None) or ast.unparse(node).splitlines()[0])
    assert reaching == set(FRESH_INTERPRETER_HELPERS)
