"""Wrappers installed from outside ergolab: MC op timing and layer spans.

Nothing in `src/ergolab` is edited.  Instead, the public names through which
the layers call each other are replaced, for the duration of one round, by
wrappers defined here.  A function imported by name into another module
(`ergolab.gaussian.batch_estimate`, `ergolab.poisson.wh_defect`, ...) is
rebound in every module that holds it, so cross-layer calls go through the
wrapper.  Names that a later version of ergolab no longer has are skipped.

Two levels:

* always: every call from outside `ergolab.mc` into a public `mc` function
  is timed as one Monte-Carlo operation (one estimate);
* traced: every public function and method of every layer records a span.
  Spans keep a per-thread stack, so a layer's self time is its span time
  minus the time of the spans it caused.  Counts are taken at the same
  boundaries (refined indices, equations, variates drawn, ...).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "init",
    "cli",
    "experiments",
    "reports",
    "tower",
    "constructions",
    "ledrapier",
    "operators",
    "gaussian",
    "poisson",
    "mc",
)

# Methods that are not public but are the only boundary a layer is entered
# through: the pair's stage rule is how `tower.build_stage` calls back into
# `constructions`, and a Poisson model's set-up happens in its constructor.
_EXTRA_METHODS = {
    "constructions": {"RigidMixingPair": ("_stage_for",)},
    "poisson": {"PoissonModel": ("__init__",)},
}

# Kept out of the spans because their time is by definition the caller's own
# work (the index walk of the Poisson layer).
_SKIP = {"poisson": {"PoissonModel.member_slots"}}

# Tower functions that run the shift-count kernel on the stage they build:
# the height of that stage is what a kernel materializing the tower would hold.
_KERNELS = ("tower.correlation_interval", "tower.rigidity_scan", "tower.wh_defect")

_DRAW_METHODS = (
    "standard_normal",
    "normal",
    "poisson",
    "random",
    "integers",
    "uniform",
    "exponential",
    "binomial",
    "multinomial",
    "choice",
    "permutation",
    "shuffle",
)


def _is_plain_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class CountingGenerator:
    """Proxy of a numpy Generator that counts the variates each draw returns."""

    def __init__(self, rng, tracer, layer: str):
        self._rng = rng
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if name not in _DRAW_METHODS or not callable(attr):
            return attr
        tracer, layer = self._tracer, self._layer

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            size = 1 if out is None or not hasattr(out, "size") else int(out.size)
            tracer.add(f"draws.{layer}.{name}", size)
            return out

        return draw


class Tracer:
    """In-memory span and counter store; aggregated when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main = threading.main_thread()
        self.self_s = defaultdict(float)  # layer -> main-thread self time
        self.name_self_s = defaultdict(float)  # "layer.name" -> main-thread self
        self.incl_s = defaultdict(float)  # "layer.name" -> outermost inclusive
        self.busy_s = defaultdict(float)  # "layer.name" -> all threads, inclusive
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], defaultdict(int))
        return st

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def note_max(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def caller(self):
        """Key of the innermost open span of this thread, if any."""
        stack = self._state()[0]
        return stack[-1][0] if stack else None

    def span(self, layer: str, name: str, fn, args, kwargs):
        stack, active = self._state()
        key = f"{layer}.{name}"
        stack.append([key, 0.0])
        active[key] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()[1]
            active[key] -= 1
            if stack:
                stack[-1][1] += dt
            own = dt - child
            with self._lock:
                self.calls[key] += 1
                self.busy_s[key] += dt
                if active[key] == 0:
                    self.incl_s[key] += dt
                if threading.current_thread() is self.main:
                    self.self_s[layer] += own
                    self.name_self_s[key] += own

    def record_span(self, layer: str, name: str, seconds: float) -> None:
        """A span measured elsewhere (the package import)."""
        key = f"{layer}.{name}"
        with self._lock:
            self.calls[key] += 1
            self.busy_s[key] += seconds
            self.incl_s[key] += seconds
            self.self_s[layer] += seconds
            self.name_self_s[key] += seconds

    def snapshot(self) -> dict:
        """Plain-JSON totals, merged across processes by `merge`."""
        return {
            "self_s": dict(self.self_s),
            "name_self_s": dict(self.name_self_s),
            "incl_s": dict(self.incl_s),
            "busy_s": dict(self.busy_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def merge(self, snap: dict) -> None:
        with self._lock:
            for field in ("self_s", "name_self_s", "incl_s", "busy_s", "calls", "counts"):
                target = getattr(self, field)
                for k, v in snap[field].items():
                    target[k] += v
            for k, v in snap["maxima"].items():
                self.maxima[k] = max(self.maxima[k], v)


class OpClock:
    """Latencies of the Monte-Carlo estimates started since the last `take`."""

    def __init__(self):
        self.pending = []

    def take(self) -> list:
        out, self.pending = self.pending, []
        return out


def _layer_of(module_name: str):
    parts = module_name.split(".")
    if parts[0] != "ergolab" or len(parts) < 2:
        return None
    return parts[1] if parts[1] in LAYERS else None


def _ergolab_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ergolab" or name.startswith("ergolab."))
    ]


class Instrument:
    """Install wrappers for one round and take them out again afterwards."""

    def __init__(self, clock: OpClock, tracer: Tracer | None = None):
        self.clock = clock
        self.tracer = tracer
        self._saved = []

    # -- hooks giving the per-layer counts ---------------------------------

    def _before(self, key: str, args, kwargs):
        t = self.tracer
        if key == "ledrapier.event_measure":
            system = list(kwargs.pop("system") if "system" in kwargs else args[0])
            t.add("ledrapier.equations", len(system))
            return (system,) + tuple(args[1:]), kwargs
        if key == "poisson.PoissonModel.sample_level_counts" and len(args) > 1:
            if not isinstance(args[1], CountingGenerator):
                args = (args[0], CountingGenerator(args[1], t, "poisson")) + tuple(args[2:])
        return args, kwargs

    def _after(self, key: str, args, kwargs, result) -> None:
        t = self.tracer
        if key == "tower.refine_set":
            t.add("tower.refined_indices", len(result.indices))
        elif key == "tower.build_stage" and t.caller() in _KERNELS:
            t.note_max("tower.max_height", int(result.height))
        elif key == "ledrapier.reduce_functional":
            t.add("ledrapier.row0_bits", len(result.sites))
        elif key == "poisson.PoissonModel.__init__":
            t.note_max("poisson.window_levels", int(args[0].n_levels))
        # matrix-vector products, computed from the arguments
        elif key == "operators.operator_correlation":
            n = kwargs.get("n", args[2] if len(args) > 2 else 0)
            t.add("operators.matvecs", abs(int(n)))
        elif key in ("operators.conjugate_defect", "operators.conjugate_average"):
            n = kwargs.get("n_terms", args[3] if len(args) > 3 else 0)
            t.add("operators.matvecs", 2 * int(n))
        elif key == "operators.cesaro_average":
            n = kwargs.get("n_terms", args[2] if len(args) > 2 else 0)
            t.add("operators.matvecs", int(n))
        elif key in ("reports.write_report_json", "reports.write_rows_csv"):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            if path and os.path.exists(path):
                t.add("reports.bytes_written", os.path.getsize(path))

    # -- wrapper factories -------------------------------------------------

    def _traced(self, layer: str, name: str, fn):
        tracer = self.tracer
        key = f"{layer}.{name}"
        before = self._before
        after = self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs = before(key, args, kwargs)
            result = tracer.span(layer, name, fn, args, kwargs)
            after(key, args, kwargs, result)
            return result

        return wrapper

    def _estimate(self, caller: str, name: str, fn):
        """Wrapper of an mc entry point as bound in the calling layer."""
        clock, tracer = self.clock, self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer is not None and args:
                args = (self._sampler(caller, args[0]),) + tuple(args[1:])
            t0 = time.perf_counter()
            if tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.span("mc", name, fn, args, kwargs)
            dt = time.perf_counter() - t0
            clock.pending.append(dt)
            if tracer is not None:
                jobs = int(kwargs.get("jobs", 1))
                tracer.add("mc.estimates", 1)
                tracer.add("mc.batches", int(kwargs.get("n_batches", 0)))
                tracer.add("mc.samples", int(getattr(result, "n_samples", 0)))
                tracer.add("mc.estimate_s", dt)
                tracer.add("mc.capacity_s", jobs * dt)
            return result

        return wrapper

    def _sampler(self, caller: str, sampler):
        tracer = self.tracer

        def sample(rng, size):
            return tracer.span(
                caller, "sampler", sampler, (CountingGenerator(rng, tracer, caller), size), {}
            )

        return sample

    # -- install / remove ----------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = _ergolab_modules()
        originals = {}  # id(function) -> (layer, name, function)
        for mod in modules:
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _is_plain_function(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (layer, name, obj)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and self.tracer is not None
                ):
                    self._wrap_class(layer, obj)
        for mod in modules:
            binder = _layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None or hit[2] is not obj:
                    continue
                layer, name, fn = hit
                if layer == "mc" and binder not in (None, "mc"):
                    self._set(mod, attr, self._estimate(binder, name, fn))
                elif self.tracer is not None:
                    self._set(mod, attr, self._traced(layer, name, fn))

    def _wrap_class(self, layer: str, cls) -> None:
        extra = _EXTRA_METHODS.get(layer, {}).get(cls.__name__, ())
        skip = _SKIP.get(layer, set())
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            qual = f"{cls.__name__}.{name}"
            if qual in skip or not inspect.isfunction(member):
                continue
            self._set(cls, name, self._traced(layer, qual, member))

    def remove(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def import_ergolab(root: str):
    """Import ergolab from the checkout's `src`; (module, seconds, new modules).

    Fails when the checkout has no sources, or when the import resolves to a
    copy of ergolab other than the checkout's own.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ergolab", "__init__.py")):
        raise SystemExit(f"perfbench: no ergolab sources under {src}")
    sys.path.insert(0, src)
    before = len(sys.modules)
    t0 = time.perf_counter()
    import ergolab

    seconds = time.perf_counter() - t0
    if not os.path.abspath(ergolab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: imported ergolab from {ergolab.__file__}, not {src}")
    return ergolab, seconds, len(sys.modules) - before
