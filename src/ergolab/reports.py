"""Report assembly and atomic file output for experiment runs.

Every run produces one ExperimentReport: the fully resolved config it was
started from, the tool version, wall-clock time, a list of flat result rows,
and a list of named pass/fail checks.  Rows carry their provenance: "exact"
for values computed with rational or deterministic float arithmetic,
"monte-carlo" for sampled estimates, which also carry a stderr column.

The `results` section (rows, checks, notes) is what determinism promises
cover; `results_bytes` serializes exactly that section with sorted keys so
two runs can be compared byte for byte.  Wall-clock time lives outside it,
and so does `rng_scheme`, which names the random stream Monte-Carlo rows were
drawn from: a change of stream changes those rows but no exact row.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__ as TOOL_VERSION
from .mc import EstimateWithError

RNG_SCHEME = (
    "row-batch-seeded/rank-factor/poisson-rows: batch b of the Monte-Carlo row "
    "at report position r draws from numpy default_rng([seed, r, b]), so "
    "reordering ns reorders the streams; Gaussian shift blocks (gauss, "
    "triple-mixing) draw min(k, d) latent normals through the QR factor of "
    "their k orbit rows; wh-gaussian degree 1 draws 4 through the QR factor of "
    "its two plane coordinates and two gap functionals, degree 2 through that "
    "of its n_terms + 2 orbit and plane rows if samples x (d - n_terms - 2) > "
    "d x (n_terms + 2), else all d, in slices of 256 samples, the last (with "
    "the remainder) first; Poisson configurations (poisson, wh-poisson) draw "
    "one Poisson count per configuration and distinct nonzero weight row, with "
    "mean the level width times the number of window levels carrying that row"
)

__all__ = [
    "RNG_SCHEME",
    "TOOL_VERSION",
    "ExperimentReport",
    "check",
    "exact_row",
    "mc_row",
    "rational",
    "write_report_files",
]


def rational(value) -> str:
    """Lossless text form of an exact rational value."""
    return str(Fraction(value))


def _clean(value):
    if isinstance(value, Fraction):
        return rational(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    raise TypeError(f"row field of type {type(value).__name__} is not reportable")


def exact_row(**fields) -> dict:
    """Result row whose numbers are exact (rational or deterministic)."""
    row = {k: _clean(v) for k, v in fields.items()}
    row["provenance"] = "exact"
    return row


def mc_row(estimate: EstimateWithError, **fields) -> dict:
    """Result row around a sampled estimate; records value and stderr."""
    row = {k: _clean(v) for k, v in fields.items()}
    row.update(
        value=float(estimate.value),
        stderr=float(estimate.stderr),
        n_samples=int(estimate.n_samples),
        provenance="monte-carlo",
    )
    return row


def check(name: str, passed, detail: str = "") -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    return entry


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    version = TOOL_VERSION  # unannotated: class constants, not fields
    rng_scheme = RNG_SCHEME

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def results_section(self) -> dict:
        return {"rows": self.rows, "checks": self.checks, "notes": self.notes}

    def results_bytes(self) -> bytes:
        """Canonical bytes of the result section, for reproducibility checks."""
        return json.dumps(
            self.results_section(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": self.version,
            "rng_scheme": self.rng_scheme,
            "config": self.config,
            "wall_clock_seconds": self.wall_clock_seconds,
            "results": self.results_section(),
            "all_passed": self.all_passed,
        }


def _write_atomically(files: dict) -> None:
    """Write each path's text so that every file lands or none does.

    Every text goes to a same-directory temp file before any is renamed into
    place.  On a failure every temp is removed, and so is every target
    already renamed (its earlier content was replaced anyway), so no partial
    or lone file is left.  An OSError names the target it failed on.
    """
    staged: list = []  # (temp, target)
    placed: list = []
    path = None
    try:
        for path, text in files.items():
            directory = os.path.dirname(os.path.abspath(path)) or "."
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergolab-", suffix=".tmp")
            staged.append((tmp, path))
            # newline="" keeps the text's line ends as given (CSV rows end in \r\n)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException as exc:
        for leftover in [tmp for tmp, _ in staged] + placed:
            try:
                os.unlink(leftover)
            except OSError:
                pass  # a temp already renamed into place
        if isinstance(exc, OSError):
            exc.filename = path
        raise


def _rows_text(rows: list) -> str:
    """Flat CSV of the result rows; columns in first-appearance order."""
    fieldnames: list = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def write_report_files(
    report: ExperimentReport, json_path: str | None, csv_path: str | None
) -> None:
    """The JSON report and the CSV rows, each where a path is given.

    Both land or neither does: a path that cannot be written leaves the
    other unwritten too.
    """
    files = {}
    if json_path:
        files[json_path] = json.dumps(report.to_dict(), indent=2) + "\n"
    if csv_path:
        files[csv_path] = _rows_text(report.rows)
    _write_atomically(files)
