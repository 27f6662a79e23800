"""One fresh process running one workload; started by `run.py`, not by hand.

    python perfbench/worker.py --workload NAME --seed N --setup-only
    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It imports ergolab from the checkout, builds the workload's inputs from the
seed (the set-up), then repeats rounds until the time is up and prints one
JSON line of raw measurements for `run.py` to turn into metrics.  With
`--trace 1` untraced and traced rounds alternate, so the tracing overhead is
measured within the run; the per-layer metrics come from the traced rounds,
as totals per round.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from instrument import LAYERS, Instrument, OpClock, Tracer, import_ergolab  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402

MIN_ROUNDS = 2  # per kind of round; the op-count rules in run.py rely on it

PER_LAYER_UNITS = {
    "tower.scan_d8_s": "s",
    "tower.scan_d10_s": "s",
    "tower.scan_d11_s": "s",
    "tower.correlation_interval_s": "s",
    "tower.refine_set_s": "s",
    "tower.wh_defect_s": "s",
    "tower.correlation_interval_calls": "count",
    "tower.refined_indices": "count",
    "tower.max_height": "count",
    "constructions.pair_s": "s",
    "ledrapier.event_measure_s": "s",
    "ledrapier.equations": "count",
    "ledrapier.row0_bits": "count",
    "operators.conjugate_defect_s": "s",
    "operators.correlation_s": "s",
    "operators.matvecs": "count",
    "gaussian.orbit_rows_s": "s",
    "gaussian.sampler_s": "s",
    "gaussian.normals_drawn": "count",
    "poisson.model_init_s": "s",
    "poisson.index_walk_s": "s",
    "poisson.sampler_s": "s",
    "poisson.variates_drawn": "count",
    "poisson.window_levels": "count",
    "poisson.gof_s": "s",
    "mc.estimates": "count",
    "mc.batches": "count",
    "mc.samples": "count",
    "mc.samples_per_s": "1/s",
    "mc.sampler_share": "1",
    "mc.thread_busy_share": "1",
    "experiments.resolve_config_s": "s",
    "reports.results_bytes_s": "s",
    "reports.write_s": "s",
    "reports.bytes_written": "B",
    "cli.main_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.uncovered_s": "s",
    "op_fail_ratio": "1",
}


def _load_frozen(workload: str) -> dict:
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, ctx: Ctx, walls_u: list, walls_t: list) -> dict:
    """Per-layer totals per traced round, and the wall-time accounting."""
    r = len(walls_t)
    incl, busy, calls = tracer.incl_s, tracer.busy_s, tracer.calls
    counts, maxima, own = tracer.counts, tracer.maxima, tracer.name_self_s
    sampler_s = sum(v for k, v in busy.items() if k.endswith(".sampler"))
    estimate_s = counts["mc.estimate_s"]
    m = {
        **{f"tower.scan_d{d}_s": ctx.label_s[f"scan_d{d}"] / r for d in (8, 10, 11)},
        "tower.correlation_interval_s": incl["tower.correlation_interval"] / r,
        "tower.refine_set_s": incl["tower.refine_set"] / r,
        "tower.wh_defect_s": incl["tower.wh_defect"] / r,
        "tower.correlation_interval_calls": calls["tower.correlation_interval"] / r,
        "tower.refined_indices": counts["tower.refined_indices"] / r,
        "tower.max_height": maxima["tower.max_height"],
        "constructions.pair_s": (
            incl["constructions.rigid_mixing_pair"]
            + incl["constructions.RigidMixingPair._stage_for"]
        ) / r,
        "ledrapier.event_measure_s": incl["ledrapier.event_measure"] / r,
        "ledrapier.equations": counts["ledrapier.equations"] / r,
        "ledrapier.row0_bits": counts["ledrapier.row0_bits"] / r,
        "operators.conjugate_defect_s": incl["operators.conjugate_defect"] / r,
        "operators.correlation_s": incl["operators.operator_correlation"] / r,
        "operators.matvecs": counts["operators.matvecs"] / r,
        "gaussian.orbit_rows_s": incl["gaussian.GaussianModel.orbit_rows"] / r,
        "gaussian.sampler_s": busy["gaussian.sampler"] / r,
        "gaussian.normals_drawn": (
            counts["draws.gaussian.standard_normal"] + counts["draws.gaussian.normal"]
        ) / r,
        "poisson.model_init_s": incl["poisson.PoissonModel.__init__"] / r,
        "poisson.index_walk_s": (
            own["poisson.poisson_wh_experiment"] + own["poisson.poisson_count_covariance"]
        ) / r,
        "poisson.sampler_s": busy["poisson.sampler"] / r,
        "poisson.variates_drawn": sum(
            v for k, v in counts.items() if k.startswith("draws.poisson.")
        ) / r,
        "poisson.window_levels": maxima["poisson.window_levels"],
        "poisson.gof_s": incl["poisson.poisson_gof"] / r,
        "mc.estimates": counts["mc.estimates"] / r,
        "mc.batches": counts["mc.batches"] / r,
        "mc.samples": counts["mc.samples"] / r,
        "mc.samples_per_s": _ratio(counts["mc.samples"], estimate_s),
        "mc.sampler_share": _ratio(sampler_s, estimate_s),
        "mc.thread_busy_share": _ratio(sampler_s, counts["mc.capacity_s"]),
        "experiments.resolve_config_s": incl["experiments.resolve_config"] / r,
        "reports.results_bytes_s": incl["reports.ExperimentReport.results_bytes"] / r,
        "reports.write_s": (
            incl["reports.write_report_json"] + incl["reports.write_rows_csv"]
        ) / r,
        "reports.bytes_written": counts["reports.bytes_written"] / r,
        "cli.main_self_s": own["cli.main"] / r,
    }
    covered = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_s[layer] / r
        covered += m[f"{layer}.self_s"]
    traced = statistics.fmean(walls_t)
    untraced = statistics.fmean(walls_u)
    m.update({
        "bench.untraced_wall_s": untraced,
        "bench.traced_wall_s": traced,
        "bench.trace_overhead_s": traced - untraced,
        "bench.uncovered_s": traced - covered,
        "op_fail_ratio": _ratio(ctx.failed, ctx.attempted),
    })
    return m


def measure(wl, seconds: float, trace: bool) -> dict:
    clock = OpClock()
    ctx = Ctx(_load_frozen(wl.name), clock)
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    n_round_ops = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        ctx.traced = traced
        inst = Instrument(clock, tracer if traced else None)
        before = len(ctx.latencies)
        inst.install()
        t0 = time.perf_counter()
        try:
            wl.round(ctx)
        finally:
            wall = time.perf_counter() - t0
            inst.remove()
        walls[traced].append(wall)
        if not traced and n_round_ops is None:
            n_round_ops = len(ctx.latencies) - before
        k += 1
        if trace and k % 2:
            continue
        step = wall + (walls[False][-1] if trace else 0.0)
        done = min(len(walls[False]), len(walls[True]) if trace else len(walls[False]))
        if done >= MIN_ROUNDS and time.perf_counter() - start + step > seconds:
            break
    for snap in ctx.spans:
        tracer.merge(snap)
    wl.after(ctx)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    out = {
        "rounds": k,
        "min_rounds": MIN_ROUNDS,
        "walls": walls[False],
        "latencies": ctx.latencies,
        "n_round_ops": n_round_ops,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "defects": ctx.defects,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if trace:
        out["layers"] = layer_metrics(tracer, ctx, walls[False], walls[True])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lab, import_s, new_modules = import_ergolab(ROOT)
    info = {
        "import_s": import_s,
        "modules_loaded": new_modules,
        "scipy_stats_loaded": int("scipy.stats" in sys.modules),
    }
    wl = WORKLOADS[args.workload](lab, args.seed, ROOT)
    try:
        info["t_ready"] = time.monotonic()
        if not args.setup_only:
            info.update(measure(wl, args.seconds, bool(args.trace)))
    finally:
        wl.close()
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
