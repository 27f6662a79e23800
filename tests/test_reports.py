import csv
import json
import os
from fractions import Fraction as Q

import pytest

import ergolab
from ergolab.mc import EstimateWithError
from ergolab.reports import (
    RNG_SCHEME,
    ExperimentReport,
    check,
    exact_row,
    mc_row,
    rational,
    write_report_files,
)


def test_rational_rendering():
    assert rational(Q(25, 64)) == "25/64"
    assert rational(Q(0)) == "0"
    assert rational(3) == "3"


def test_exact_row_cleans_fractions_and_tags_provenance():
    row = exact_row(n=3, value=Q(1, 4), flags=[True, Q(2, 3)])
    assert row == {
        "n": 3,
        "value": "1/4",
        "flags": [True, "2/3"],
        "provenance": "exact",
    }
    with pytest.raises(TypeError):
        exact_row(bad=object())


def test_mc_row_records_the_error_bar():
    est = EstimateWithError(value=0.5, stderr=0.01, n_samples=1000)
    row = mc_row(est, shift=7)
    assert row["provenance"] == "monte-carlo"
    assert row["value"] == 0.5 and row["stderr"] == 0.01
    assert row["n_samples"] == 1000 and row["shift"] == 7


def test_check_entries():
    assert check("x", True) == {"name": "x", "passed": True}
    assert check("y", 0, detail="why")["detail"] == "why"


def _sample_report(wall: float, rows: list | None = None) -> ExperimentReport:
    return ExperimentReport(
        experiment="demo",
        config={"experiment": "demo", "seed": 0, "params": {}},
        rows=[exact_row(a=1)] if rows is None else rows,
        checks=[check("ok", True)],
        notes=["n"],
        wall_clock_seconds=wall,
    )


def test_result_bytes_exclude_wall_clock():
    a, b = _sample_report(0.5), _sample_report(99.0)
    assert a.results_bytes() == b.results_bytes()
    assert a.all_passed


def test_failed_check_flips_all_passed():
    rep = _sample_report(0.1)
    rep.checks.append(check("broken", False))
    assert not rep.all_passed


def test_report_json_round_trip(tmp_path):
    path = tmp_path / "out" / "report.json"
    os.makedirs(path.parent)
    rep = _sample_report(0.25)
    write_report_files(rep, str(path), None)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["experiment"] == "demo"
    assert loaded["results"]["rows"] == rep.rows
    assert loaded["all_passed"] is True
    assert loaded["version"] == rep.version
    assert loaded["rng_scheme"] == RNG_SCHEME
    assert not [p for p in os.listdir(path.parent) if p.endswith(".tmp")]


def test_failed_serialization_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    rep = _sample_report(0.1)
    rep.config["params"]["bad"] = object()
    with pytest.raises(TypeError):
        write_report_files(rep, str(path), None)
    assert not path.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_csv_columns_keep_first_appearance_order(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        {"n": 1, "value": "1/4", "provenance": "exact"},
        {"n": 2, "value": 0.5, "stderr": 0.1, "provenance": "monte-carlo"},
    ]
    write_report_files(_sample_report(0.1, rows), None, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,value,provenance,stderr"
    assert lines[1] == "1,1/4,exact,"
    assert lines[2] == "2,0.5,monte-carlo,0.1"


def test_csv_bytes_match_a_dictwriter_reference(tmp_path):
    rows = [
        {"item": "base", "measure": "1/2", "provenance": "exact"},
        {"item": 'a, "quoted"\nvalue', "z": [1, 2], "provenance": "exact"},
    ]
    path = tmp_path / "rows.csv"
    write_report_files(_sample_report(0.1, rows), None, str(path))
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["item", "measure", "provenance", "z"], restval=""
        )
        writer.writeheader()
        writer.writerows(rows)
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_bytes().endswith(b"\r\n")


def test_failed_csv_write_leaves_no_file(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(UnicodeEncodeError):
        write_report_files(_sample_report(0.1, [{"item": "\ud800"}]), None, str(path))
    assert os.listdir(tmp_path) == []


def test_one_version_for_package_pyproject_and_reports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert declared == ergolab.__version__ == _sample_report(0.0).version
