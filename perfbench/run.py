"""ergolab benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-deep, mc-gaussian, mc-poisson, cli-cold (see workloads.py
for what each runs and why it was chosen).  Run from anywhere; the program
measured is the ergolab under `src/` of the checkout this file sits in.

The launcher pins the BLAS thread count so that mc jobs x BLAS threads stays
within the CPUs available, times set-up in fresh processes, runs the
workload in one more fresh process (worker.py) and prints:

* a stamp line with the machine and program state;
* one line per metric, with its unit (and, for the tail, its percentile and
  sample count), plus op_fail_ratio and any failed operation;
* as the last line, one JSON object: correct, attempted, failed, metrics.

End-to-end metrics (--trace 0):
  wall_s       median wall time of one round (the workload's fixed input size,
               every output checked)
  op_p50_s     median latency of one operation
  op_tail_s    latency at the highest of p50/p90/p99/p99.9 with at least ten
               operations beyond it in a run of the minimum number of rounds,
               so the percentile is the same on every run (cli-cold has too
               few operations for that and reports p90)
  setup_s      interpreter start to the first timed operation (import ergolab
               and build the inputs), median over fresh processes
  peak_rss_mb  ru_maxrss of the worker (RUSAGE_SELF), or of its ergolab
               children for cli-cold (RUSAGE_CHILDREN)
op_fail_ratio (failed / attempted) is printed with them and carried by the
`failed` and `attempted` fields; it is 0 whenever the program is correct, so
it is not listed as a bounded metric.

Per-layer metrics (--trace 1) are listed in worker.py; they are totals per
traced round, and the layer self times plus bench.uncovered_s add up to
bench.traced_wall_s.

Exit status is 0 when a result was printed; otherwise nonzero and no result
line (for instance when the checkout has no ergolab sources).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("exact-deep", "mc-gaussian", "mc-poisson", "cli-cold")
JOBS = {"mc-poisson": 2}
SETUP_PROBES = 3  # fresh processes timed for set-up besides the worker itself
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
FALLBACK_PERCENTILE = 90.0
RUN_TIMEOUT_S = 170.0

UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def quantile(xs: list, q: float) -> float:
    """Linear-interpolation quantile of sorted values, q in [0, 1]."""
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_round: int, min_rounds: int) -> tuple:
    """Highest listed percentile with ten operations beyond it in a run of
    the minimum length; (percentile, whether the rule could be met)."""
    n = ops_per_round * min_rounds
    met = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    return (max(met), True) if met else (FALLBACK_PERCENTILE, False)


def _commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _run_child(cmd: list, env: dict, timeout: float) -> dict:
    """Run a worker in its own session; its last stdout line is its JSON."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run(args) -> tuple:
    if not os.path.isfile(os.path.join(ROOT, "src", "ergolab", "__init__.py")):
        raise BenchError(f"no ergolab sources under {os.path.join(ROOT, 'src')}")
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    jobs = JOBS.get(args.workload, 1)
    blas = 1  # jobs x BLAS threads <= nproc for every workload on 2+ CPUs
    env = dict(os.environ)
    env.pop("ERGOLAB_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    worker = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        probe = _run_child(worker + ["--setup-only"], env, 60.0)
        setups.append(probe["t_ready"] - t0)
        imports.append(probe["import_s"])
    t0 = time.monotonic()
    out = _run_child(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
        RUN_TIMEOUT_S - (t0 - started),
    )
    setups.append(out["t_ready"] - t0)
    imports.append(out["import_s"])
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "jobs": jobs,
        "blas_threads": blas,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(ROOT),
        "machine": platform.machine(),
    }
    return stamp, out, setups, imports


def end_to_end(out: dict, setups: list) -> tuple:
    lat = sorted(out["latencies"])
    if not lat:
        raise BenchError("no operation was timed")
    pct, met = tail_percentile(out["n_round_ops"], out["min_rounds"])
    tail = quantile(lat, pct / 100)
    metrics = {
        "wall_s": statistics.median(out["walls"]),
        "op_p50_s": quantile(lat, 0.5),
        "op_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    beyond = sum(1 for x in lat if x > tail)
    notes = {
        "wall_s": f"median of {len(out['walls'])} rounds",
        "op_p50_s": f"{len(lat)} ops, {out['n_round_ops']} per round",
        "op_tail_s": f"p{pct:g} of {len(lat)} ops, {beyond} beyond it"
        + ("" if met else "; fewer than 20 ops per minimum run, so p90"),
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": "ru_maxrss",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        stamp, out, setups, imports = run(args)
        if args.trace:
            layers = dict(out["layers"])
            layers["init.import_s"] = statistics.median(imports)
            layers["init.scipy_stats_loaded"] = out["scipy_stats_loaded"]
            layers["init.modules_loaded"] = out["modules_loaded"]
            values, units, notes = layers, _layer_units(), {}
        else:
            values, notes = end_to_end(out, setups)
            units = UNITS
        metrics = {k: {"value": _number(k, v), "unit": units[k]} for k, v in values.items()}
        _check_manifest(metrics, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = out["attempted"], out["failed"]
    print("perfbench stamp " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        if name != "op_fail_ratio":
            print(f"perfbench {name:34s} {m['value']:.6g} {m['unit']}{note}")
    ratio = failed / attempted if attempted else 0.0
    print(f"perfbench {'op_fail_ratio':34s} {ratio:.6g} 1  ({failed} of {attempted} ops failed)")
    for defect in out["defects"]:
        print(f"perfbench DEFECT {defect}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _number(name: str, value) -> float:
    """A metric value as a finite JSON float.

    Counts go out as floats too: a count as large as a tower height (~1e27)
    has more digits than a double holds, and a JSON reader that maps numbers
    to doubles would not read it back as written.
    """
    out = float(value)
    if not math.isfinite(out):
        raise BenchError(f"metric {name} is not a finite number: {value!r}")
    return out


def _check_manifest(metrics: dict, trace: int) -> None:
    """Refuse to print a result whose metrics are not exactly those of
    BENCHMARK.json, each in its unit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    wanted = {e["name"]: e["unit"] for e in manifest["per_layer" if trace else "end_to_end"]}
    given = {name: m["unit"] for name, m in metrics.items()}
    if given != wanted:
        odd = sorted(set(wanted.items()) ^ set(given.items()))
        raise BenchError(f"metrics differ from BENCHMARK.json: {odd}")


def _layer_units() -> dict:
    sys.path.insert(0, HERE)
    from worker import PER_LAYER_UNITS

    return {
        **PER_LAYER_UNITS,
        "init.import_s": "s",
        "init.scipy_stats_loaded": "1",
        "init.modules_loaded": "count",
    }


if __name__ == "__main__":
    sys.exit(main())
