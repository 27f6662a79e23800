"""The four workloads: inputs from the seed, one round of work, and its checks.

Each workload is a closed loop run by one client in one process: a round is a
fixed list of operations, each started when the previous one has returned,
and rounds repeat until the run's time is up.  An operation is one timed
public call: a certified interval or scan, a GF(2) system, one Monte-Carlo
estimate, a goodness-of-fit test, an exact experiment, or one CLI
invocation.  Every operation is checked:

* exact results are compared, as canonical bytes, with the digests frozen in
  `frozen.json` (written by `freeze.py` at the commit the benchmark was
  defined at);
* a Monte-Carlo estimate fails when the library's own check fails (5
  standard errors, goodness of fit at alpha 0.001), and when a later round
  with the same seed does not reproduce the first round's report bytes;
* any exception, or a nonzero exit of a CLI invocation, is a failure.

The seed picks which inputs a run uses from fixed pools, so every exact
input any seed can produce has a frozen result.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

GOF_ALPHA = 0.001


def digest(value) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:32]


def _interval(iv) -> list:
    return [str(iv.lo), str(iv.hi)]


def _scan(entries) -> list:
    return [
        [
            e.n,
            e.kind,
            None if e.alpha is None else str(e.alpha),
            *_interval(e.correlation),
            *_interval(e.symdiff),
        ]
        for e in entries
    ]


def _report(report):
    return report.results_bytes()


def _row_ok(row: dict) -> bool:
    """A Monte-Carlo row's own verdict; rows flagged as outside the premise
    (triple-mixing times with large pairwise correlation) carry none."""
    if row.get("condition_met") is False:
        return True
    return all(row[k] for k in ("within", "tracks", "below") if k in row)


class Ctx:
    """Latencies and verdicts of one run."""

    def __init__(self, frozen: dict, clock, freezing: bool = False):
        self.frozen = frozen
        self.clock = clock
        self.freezing = freezing
        self.traced = False
        self.latencies = []  # untraced rounds only
        self.label_s = defaultdict(float)  # traced rounds: label -> seconds
        self.attempted = 0
        self.failed = 0
        self.defects = []
        self._first = {}
        self.spans = []  # span snapshots handed back by traced CLI children

    def _latency(self, label: str, seconds: float) -> None:
        if self.traced:
            self.label_s[label] += seconds
        else:
            self.latencies.append(seconds)

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.defects) < 20:
                self.defects.append(what)

    def matches(self, key: str, value) -> tuple:
        got = digest(value)
        if self.freezing:
            self.frozen[key] = got
            return True, ""
        want = self.frozen.get(key)
        if want is None:
            return False, f"{key}: no frozen result"
        return got == want, f"{key}: digest {got} differs from frozen {want}"

    def reproduces(self, key: str, value: bytes) -> bool:
        return self._first.setdefault(key, value) == value

    def exact(self, label: str, key: str, call, canon, extra_ok=None, frozen=True):
        """One timed call whose canonical result must match its frozen digest,
        or, when `frozen` is false, repeat exactly in every round."""
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raises is a failed op
            self._latency(label, time.perf_counter() - t0)
            self.verdict(False, f"{key}: {type(exc).__name__}: {exc}")
            return None
        self._latency(label, time.perf_counter() - t0)
        if frozen:
            ok, why = self.matches(key, canon(result))
        else:
            ok, why = self.reproduces(key, canon(result)), f"{key}: differs between rounds"
        if ok and extra_ok is not None and not extra_ok(result):
            ok, why = False, f"{key}: library check failed"
        self.verdict(ok, why)
        return result

    def mc_experiment(self, label: str, run, config: dict, jobs: int, tower=None):
        """Run one Monte-Carlo experiment; each of its estimates is an op.

        `tower(row) -> (key, value)` names the exact part of a row that is
        frozen (the tower intervals and lost mass of the Poisson rows).
        """
        self.clock.take()
        try:
            report = run(config, jobs=jobs)
        except Exception as exc:
            spent = self.clock.take()
            for dt in spent:
                self._latency(label, dt)
            for _ in range(max(1, len(spent))):
                self.verdict(False, f"{label}: {type(exc).__name__}: {exc}")
            return None
        spent = self.clock.take()
        for dt in spent:
            self._latency(label, dt)
        rows = [r for r in report.rows if r.get("provenance") == "monte-carlo"]
        if len(rows) != len(spent):
            for _ in range(max(1, len(spent))):
                self.verdict(False, f"{label}: {len(rows)} rows for {len(spent)} estimates")
            return report
        key = f"{label}:{json.dumps(config, sort_keys=True)}"
        same = self.reproduces(key, report.results_bytes())
        flags = [_row_ok(r) for r in rows]
        unexplained = not report.all_passed and all(flags)
        for row, ok in zip(rows, flags):
            why = f"{label}: row {row} failed its check"
            if tower is not None:
                t_key, t_value = tower(row)
                t_ok, t_why = self.matches(t_key, t_value)
                if not t_ok:
                    ok, why = False, t_why
            if not same:
                ok, why = False, f"{label}: report bytes differ between rounds"
            if unexplained:
                ok, why = False, f"{label}: failed checks {[c['name'] for c in report.checks if not c['passed']]}"
            self.verdict(ok, why)
        return report


def _scratch_dir(root: str) -> str:
    """Where CLI invocations write their reports: inside the checkout."""
    path = os.path.join(root, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _pool(name: str, i: int) -> random.Random:
    return random.Random(f"perfbench/{name}/{i}")


class Workload:
    name = ""
    jobs = 1

    def __init__(self, lab, seed: int, root: str):
        self.lab = lab
        self.seed = seed
        self.root = root

    def round(self, ctx: Ctx) -> None:
        raise NotImplementedError

    def after(self, ctx: Ctx) -> None:
        """Checks made once per run, outside the timed rounds."""

    def freeze(self, ctx: Ctx) -> None:
        """Run every input the pools hold, recording digests."""

    def close(self) -> None:
        """Release what the inputs hold on disk."""


# ---------------------------------------------------------------------------
# exact-deep


class ExactDeep(Workload):
    """Exact tower kernel at depth, GF(2) elimination, exact experiments.

    Chosen because the frozenset loops in the shift counts and refinement do
    almost all the work, and their cost grows with the tower height; the
    depth sweep 8/10/11 shows the kernel's complexity and peak RSS catches a
    kernel that materializes the tower.  No Monte-Carlo work happens here.
    """

    name = "exact-deep"
    SCAN_DEPTHS = (8, 10, 11)
    SCAN_SHIFTS = 200
    SCAN_POOL = 8
    ODO_POOL, ODO_PER_ROUND = 256, 80
    PAIR_POOL, PAIR_PER_ROUND = 128, 40
    WH_POOL, WH_TERMS = 8, (50, 100, 200)
    GF2_POOL, GF2_PER_ROUND, GF2_EQUATIONS = 1024, 300, 40
    EXPERIMENTS = ("theorem1", "theorem6", "rigidity-scan")
    ORACLE_CASES = 8

    def __init__(self, lab, seed, root):
        super().__init__(lab, seed, root)
        rng = random.Random(seed)
        self.scan_set = self._scan_set(rng.randrange(self.SCAN_POOL))
        self.odo = [self._odo_item(i) for i in sorted(rng.sample(range(self.ODO_POOL), self.ODO_PER_ROUND))]
        self.pair_items = [self._pair_item(i) for i in sorted(rng.sample(range(self.PAIR_POOL), self.PAIR_PER_ROUND))]
        self.wh_lo = self._wh_item(rng.randrange(self.WH_POOL))
        self.gf2 = [self._gf2_item(i) for i in sorted(rng.sample(range(self.GF2_POOL), self.GF2_PER_ROUND))]
        self.oracle_cases = [self._oracle_case(rng) for _ in range(self.ORACLE_CASES)]

    # -- input pools -------------------------------------------------------

    def _scan_set(self, i):
        levels = tuple(sorted(_pool("scan", i).sample(range(13), 5)))
        return i, self.lab.LevelSet(2, levels)

    def _odo_item(self, i):
        r = _pool("odometer", i)
        a = self.lab.LevelSet(3, tuple(r.sample(range(8), 4)))
        b = self.lab.LevelSet(3, tuple(r.sample(range(8), 4)))
        n = r.randint(1, 4095) * r.choice((-1, 1))
        return i, a, b, n

    def _pair_item(self, i):
        r = _pool("pair", i)
        role = r.choice("ts")
        j = r.randint(1, 6)
        levels = tuple(r.sample(range(30), r.randint(1, 3)))
        designated = r.random() < 0.25
        return i, role, j, self.lab.LevelSet(j, levels), designated, r.random()

    def _wh_item(self, i):
        return i, 25 * i

    def _gf2_item(self, i):
        r = _pool("gf2", i)
        base = []
        for _ in range(self.GF2_EQUATIONS * 3 // 4):
            sites = frozenset((r.randint(-24, 24), r.randint(0, 15)) for _ in range(r.randint(1, 3)))
            base.append((sites, r.randint(0, 1)))
        system = list(base)
        while len(system) < self.GF2_EQUATIONS:
            picked = r.sample(base, r.randint(2, 3))
            sites, const = frozenset(), 0
            for s, c in picked:
                sites, const = sites ^ s, const ^ c
            system.append((sites, const))
        r.shuffle(system)
        return i, [self.lab.SiteFunctional(s, c) for s, c in system]

    def _oracle_case(self, rng):
        h2 = 13  # stage-2 height of chacon
        n = rng.randint(-200, 200) or 11
        a = self.lab.LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
        b = self.lab.LevelSet(2, tuple(rng.sample(range(h2), rng.randint(1, 5))))
        return n, a, b

    # -- operations --------------------------------------------------------

    def _ops(self, scan_sets, odo, pair_items, wh_los, gf2):
        lab = self.lab
        chacon = lab.builtin_params("chacon")
        odometer = lab.builtin_params("odometer", r=2)
        pair = lab.rigid_mixing_pair()
        ops = []
        for i, a in scan_sets:
            for d in self.SCAN_DEPTHS:
                ops.append((
                    f"scan_d{d}", f"scan:{i}:d{d}",
                    lambda a=a, d=d: lab.rigidity_scan(chacon, a, self.SCAN_SHIFTS, depth=d),
                    _scan, None,
                ))
        for i, a, b, n in odo:
            ops.append((
                "odometer_d12", f"odometer:{i}",
                lambda a=a, b=b, n=n: lab.correlation_interval(odometer, n, a, b, 12),
                _interval, None,
            ))
        for i, role, j, a, designated, u in pair_items:
            params = pair.t_params if role == "t" else pair.s_params

            def call(params=params, j=j, a=a, designated=designated, u=u):
                if designated:
                    n = pair.time_at(j)
                else:
                    n = 1 + int(u * (lab.build_stage(params, j + 1).height - 2))
                return lab.correlation_interval(params, n, a, a, j + 1)

            ops.append(("pair_interval", f"pair:{i}", call, _interval, None))
        swap = lab.FinitarySwap(1, (1, 3))
        for i, lo in wh_los:
            a = lab.LevelSet(2, range(lo, lo + 300))
            for nt in self.WH_TERMS:
                ops.append((
                    "wh_defect", f"wh:{i}:{nt}",
                    lambda a=a, nt=nt: lab.wh_defect(pair.t_params, swap, a, nt, 2),
                    _interval, None,
                ))
        for name in self.EXPERIMENTS:
            config = {"experiment": name, "seed": self.seed}
            ops.append((
                "experiment", f"experiment:{name}",
                lambda config=config: lab.run_experiment(config),
                _report, lambda rep: rep.all_passed,
            ))
        for i, system in gf2:
            ops.append((
                "gf2_system", f"gf2:{i}",
                lambda system=system: lab.event_measure(system),
                str, None,
            ))
        return ops

    def round(self, ctx):
        for label, key, call, canon, extra in self._ops(
            [self.scan_set], self.odo, self.pair_items, [self.wh_lo], self.gf2
        ):
            ctx.exact(label, key, call, canon, extra)

    def after(self, ctx):
        """Shallow chacon intervals against the brute-force orbit oracle."""
        lab = self.lab
        sys.path.insert(0, os.path.join(self.root, "tests"))
        try:
            from oracles import orbit_correlation
        except ImportError as exc:
            ctx.verdict(False, f"orbit oracle unavailable: {exc}")
            return
        finally:
            sys.path.pop(0)
        chacon = lab.builtin_params("chacon")
        for n, a, b in self.oracle_cases:
            depth = lab.depth_for(chacon, abs(n))
            try:
                iv = lab.correlation_interval(chacon, n, a, b, depth)
                definite, lost = orbit_correlation(chacon, n, a, b, depth)
                width_budget = abs(n) * lab.build_stage(chacon, depth).level_width
                ok = iv.lo <= definite <= iv.hi and definite + lost >= iv.lo and iv.width <= width_budget
            except Exception as exc:
                ok = False
            ctx.verdict(ok, f"oracle: chacon n={n} A={a.indices} B={b.indices} disagrees")

    def freeze(self, ctx):
        ops = self._ops(
            [self._scan_set(i) for i in range(self.SCAN_POOL)],
            [self._odo_item(i) for i in range(self.ODO_POOL)],
            [self._pair_item(i) for i in range(self.PAIR_POOL)],
            [self._wh_item(i) for i in range(self.WH_POOL)],
            [self._gf2_item(i) for i in range(self.GF2_POOL)],
        )
        for label, key, call, canon, extra in ops:
            ctx.exact(label, key, call, canon, extra)


# ---------------------------------------------------------------------------
# mc-gaussian


class McGaussian(Workload):
    """Gaussian sampler and operator chains, single-threaded.

    Chosen because the 64 latent normals per sample and the O(n d^2) chains
    of `rho` and `orbit_rows` dominate; tower and poisson do nothing here.
    triple-mixing keeps its 200 times (at 40 or 80 times too few quiet times
    exist for its check) and is shortened through its sample count instead.
    """

    name = "mc-gaussian"
    jobs = 1
    TRIPLE_SAMPLES = 10_000

    def __init__(self, lab, seed, root):
        super().__init__(lab, seed, root)
        self.configs = [
            ("triple-mixing", {"experiment": "triple-mixing", "seed": seed, "params": {"samples": self.TRIPLE_SAMPLES}}),
            ("gauss", {"experiment": "gauss", "seed": seed}),
            ("wh-gaussian", {"experiment": "wh-gaussian", "seed": seed}),
        ]
        self.exact_config = {"experiment": "eq1-sweep", "seed": seed}

    def round(self, ctx):
        for label, config in self.configs:
            ctx.mc_experiment(label, self.lab.run_experiment, config, self.jobs)
        # deterministic float results whose last bits depend on the BLAS build:
        # checked by the experiment itself and for repeating, not frozen
        ctx.exact(
            "experiment", "experiment:eq1-sweep",
            lambda: self.lab.run_experiment(self.exact_config),
            _report, lambda rep: rep.all_passed, frozen=False,
        )


# ---------------------------------------------------------------------------
# mc-poisson


class McPoisson(Workload):
    """Poisson sampler with two mc thread workers, over a shallow tower.

    Chosen because the dense per-level draws (samples x 700 levels)
    dominate, the same tower functions run here at depth 2 (so per-call
    set-up added to the kernel shows as a cost), and the goodness-of-fit
    test uses the sampler and scipy differently from the covariance path.
    The goodness-of-fit tests use criterion 07's windows and seeds: each has
    a 0.1% false-alarm rate by design, which fresh seeds per run would turn
    into runs that fail with a correct sampler.
    """

    name = "mc-poisson"
    jobs = 2
    SHIFTS, SHIFT_RANGE = 62, 151
    COV_SAMPLES = 6_000
    WH_SAMPLES = 20_000
    GOF_SAMPLES = 20_000
    GOF_WINDOWS = (
        range(100, 150),
        range(0, 700),
        range(650, 700),
        (5,),
        range(0, 300, 3),
    )

    def __init__(self, lab, seed, root):
        super().__init__(lab, seed, root)
        rng = random.Random(seed)
        ns = sorted(rng.sample(range(self.SHIFT_RANGE), self.SHIFTS))
        self.cov_config = {
            "experiment": "poisson", "seed": seed,
            "params": {"ns": ns, "samples": self.COV_SAMPLES},
        }
        self.wh_config = {
            "experiment": "wh-poisson", "seed": seed,
            "params": {"samples": self.WH_SAMPLES},
        }
        self.windows = [lab.LevelSet(2, w) for w in self.GOF_WINDOWS]

    @staticmethod
    def _cov_tower(row):
        return f"poisson:{row['shift']}", [row["exact_lo"], row["exact_hi"], row["lost_mass"]]

    @staticmethod
    def _wh_tower(row):
        return f"wh-poisson:{row['n_terms']}", [row["wh_lo"], row["wh_hi"], row["majorant"], row["lost_mass"]]

    def _gof(self, ctx):
        lab = self.lab
        pair = lab.rigid_mixing_pair()
        model = lab.PoissonModel(pair.t_params, lab.LevelSet(2, range(700)), depth=2)
        for idx, window in enumerate(self.windows):
            ctx.exact(
                "gof", f"gof:{idx}",
                lambda window=window, idx=idx: lab.poisson_gof(model, window, self.GOF_SAMPLES, seed=400 + idx),
                lambda g: [g.mean, g.n_bins, g.n_samples],
                lambda g: g.passed(GOF_ALPHA),
            )

    def round(self, ctx):
        run = self.lab.run_experiment
        ctx.mc_experiment("poisson", run, self.cov_config, self.jobs, self._cov_tower)
        ctx.mc_experiment("wh-poisson", run, self.wh_config, self.jobs, self._wh_tower)
        self._gof(ctx)

    def freeze(self, ctx):
        every = dict(self.cov_config, params={"ns": list(range(self.SHIFT_RANGE)), "samples": self.COV_SAMPLES})
        run = self.lab.run_experiment
        ctx.mc_experiment("poisson", run, every, self.jobs, self._cov_tower)
        ctx.mc_experiment("wh-poisson", run, self.wh_config, self.jobs, self._wh_tower)
        self._gof(ctx)


# ---------------------------------------------------------------------------
# cli-cold


class CliCold(Workload):
    """Short `ergolab` subprocess invocations, each a cold start.

    Chosen because import dominates here (scipy.stats most of it), with
    argument parsing, schema validation and atomic report writes making up
    the rest; without it init, cli, experiments and reports go unmeasured
    and work moved into import time would go unseen.
    """

    name = "cli-cold"
    BUILDS = [("chacon", d) for d in (6, 7, 8)] + [("odometer", d) for d in (8, 9, 10)] + [("staircase", d) for d in (6, 7)]
    CORRELATE_POOL = 16
    LEDRAPIER_K = (8, 9, 10, 11, 12)

    def __init__(self, lab, seed, root):
        super().__init__(lab, seed, root)
        rng = random.Random(seed)
        self.argvs = self._argvs(
            rng.choice(self.BUILDS),
            self._correlate(rng.randrange(self.CORRELATE_POOL)),
            rng.choice(self.LEDRAPIER_K),
        )
        self.tmp = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=_scratch_dir(root))
        self.env = self._child_env()

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @staticmethod
    def _correlate(i):
        r = _pool("correlate", i)
        lo = r.randint(0, 8)
        return r.randint(1, 120), lo, lo + r.randint(1, 4)

    def _argvs(self, build, correlate, k_max):
        construction, depth = build
        n, lo, hi = correlate
        seed = str(self.seed)
        return [
            ["build", "--construction", construction, "--depth", str(depth), "--seed", seed],
            ["correlate", "--construction", "chacon", "--n", str(n), "--a-stage", "2",
             "--a-lo", str(lo), "--a-hi", str(hi), "--seed", seed],
            ["rigidity", "--seed", seed],
            ["ledrapier", "--k-max", str(k_max), "--seed", seed],
            ["experiment", "theorem6", "--seed", seed],
            ["list-experiments"],
        ]

    def _child_env(self):
        env = dict(os.environ)
        env.pop("ERGOLAB_SEED", None)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def _invoke(self, ctx, argv, slot: int):
        writes = argv[0] != "list-experiments"
        out = os.path.join(self.tmp, f"{slot}.json")
        csv_path = os.path.join(self.tmp, f"{slot}.csv")
        for path in (out, csv_path):
            if os.path.exists(path):
                os.unlink(path)
        full = list(argv) + (["--out", out, "--csv", csv_path] if writes else [])
        if ctx.traced:
            spans = os.path.join(self.tmp, f"{slot}.spans.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "tracecli.py"), spans] + full
        else:
            cmd = [sys.executable, "-m", "ergolab"] + full
        key = "cli:" + " ".join(a for a, prev in zip(argv, [""] + argv) if "--seed" not in (a, prev))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.tmp, env=self.env, capture_output=True, text=True, timeout=120
            )
        except subprocess.TimeoutExpired:
            ctx._latency("cli", time.perf_counter() - t0)
            ctx.verdict(False, f"{key}: timed out")
            return
        ctx._latency("cli", time.perf_counter() - t0)
        if proc.returncode != 0:
            ctx.verdict(False, f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        if ctx.traced:
            with open(spans, encoding="utf-8") as handle:
                ctx.spans.append(json.load(handle))
        if not writes:
            ok, why = ctx.matches(key, proc.stdout.encode())
            ctx.verdict(ok, why)
            return
        try:
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            csv_ok = os.path.getsize(csv_path) > 0
        except (OSError, ValueError) as exc:
            ctx.verdict(False, f"{key}: unreadable output: {exc}")
            return
        ok, why = ctx.matches(key, report["results"])
        if ok and not (report.get("all_passed") and csv_ok):
            ok, why = False, f"{key}: checks failed or CSV empty"
        ctx.verdict(ok, why)

    def round(self, ctx):
        for slot, argv in enumerate(self.argvs):
            self._invoke(ctx, argv, slot)

    def freeze(self, ctx):
        argvs = []
        for b in self.BUILDS:
            argvs.append(self._argvs(b, self._correlate(0), self.LEDRAPIER_K[0])[0])
        for i in range(self.CORRELATE_POOL):
            argvs.append(self._argvs(self.BUILDS[0], self._correlate(i), self.LEDRAPIER_K[0])[1])
        for k in self.LEDRAPIER_K:
            argvs.append(self._argvs(self.BUILDS[0], self._correlate(0), k)[3])
        base = self._argvs(self.BUILDS[0], self._correlate(0), self.LEDRAPIER_K[0])
        argvs += [base[2], base[4], base[5]]
        for slot, argv in enumerate(argvs):
            self._invoke(ctx, argv, slot)


WORKLOADS = {w.name: w for w in (ExactDeep, McGaussian, McPoisson, CliCold)}
