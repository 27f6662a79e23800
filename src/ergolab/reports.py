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
    "batch-seeded/rank-factor/poisson-points: Monte-Carlo batch b draws from "
    "numpy default_rng([seed, b]); Gaussian shift blocks (gauss, "
    "triple-mixing) draw min(k, d) latent normals through the QR factor of "
    "their k orbit rows, wh-gaussian draws all d; Poisson configurations "
    "(poisson, wh-poisson) draw a Poisson total per configuration, then a "
    "uniform window slot per point"
)

__all__ = [
    "RNG_SCHEME",
    "TOOL_VERSION",
    "ExperimentReport",
    "check",
    "exact_row",
    "mc_row",
    "rational",
    "write_report_json",
    "write_rows_csv",
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
    version: str = TOOL_VERSION
    rng_scheme: str = RNG_SCHEME

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


def _atomic_write_text(path: str, text: str) -> None:
    """Write via a same-directory temp file so failures leave no partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergolab-", suffix=".tmp")
    try:
        # newline="" keeps the text's line ends as given (CSV rows end in \r\n)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_report_json(report: ExperimentReport, path: str) -> None:
    _atomic_write_text(path, json.dumps(report.to_dict(), indent=2) + "\n")


def write_rows_csv(rows: list, path: str) -> None:
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
    _atomic_write_text(path, buffer.getvalue())
