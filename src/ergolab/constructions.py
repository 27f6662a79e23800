"""Named constructions, parameter serialization and the paired generator.

Besides the classical desk examples (chacon, odometer, staircase) this module
builds matched pairs of infinite-measure constructions whose designated time
sets interleave: along the times emitted for one map the other map is rigid,
and vice versa.  Parameters round-trip through a small JSON vocabulary so the
command line can name them.
"""
from __future__ import annotations

import bisect
import json
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .tower import ConstructionParams, GenerationError

Q = Fraction

__all__ = [
    "chacon",
    "odometer",
    "staircase",
    "builtin_params",
    "BUILTIN_RULES",
    "RigidMixingPair",
    "rigid_mixing_pair",
    "default_pair_args",
    "params_to_spec",
    "params_from_spec",
    "stream_from_spec",
    "cuts_from_spec",
]


# ---------------------------------------------------------------------------
# classical single constructions


def _chacon_rule(j: int) -> tuple[int, tuple[int, ...]]:
    return 3, (0, 1, 0)


def _staircase_rule(j: int) -> tuple[int, tuple[int, ...]]:
    r = j + 2
    return r, tuple(range(r))


def _canonical(name: str, args: dict) -> str:
    return json.dumps({"name": name, "args": args}, sort_keys=True)


@lru_cache(maxsize=None)
def chacon() -> ConstructionParams:
    """Three cuts, one spacer on the middle column, every stage."""
    return ConstructionParams(
        "finite", Q(1), 1, None, _chacon_rule, _canonical("chacon", {}), "chacon"
    )


@lru_cache(maxsize=None)
def odometer(r: int = 2) -> ConstructionParams:
    """r cuts and no spacers at every stage (adding machine)."""
    if r < 2:
        raise ValueError("odometer needs at least 2 cuts")
    rule = lambda j, _r=r: (_r, (0,) * _r)
    return ConstructionParams(
        "finite", Q(1), 1, None, rule, _canonical("odometer", {"r": r}), f"odometer-{r}"
    )


@lru_cache(maxsize=None)
def staircase() -> ConstructionParams:
    """Growing cuts r_j = j + 2 with 0, 1, .., r-1 spacers per column."""
    return ConstructionParams(
        "finite", Q(1), 1, None, _staircase_rule, _canonical("staircase", {}), "staircase"
    )


# ---------------------------------------------------------------------------
# integer streams and cut-count rules for generated pairs


class _TimeSource:
    """Strictly increasing integer stream consumed via least_above queries.

    An arithmetic source answers "least element > x not yet consumed" in
    O(1), an explicit one by bisection, so both keep up with tower heights
    that grow geometrically from stage to stage.
    """

    def __init__(self, kind: str, payload) -> None:
        self._kind = kind
        self._payload = payload
        self._last: Optional[int] = None

    @classmethod
    def from_spec(cls, spec: dict) -> "_TimeSource":
        name = _kind_of(spec, "stream", _STREAM_KEYS)
        if name == "naturals":
            return cls("arithmetic", (1, 1))
        if name == "arithmetic":
            start, step = int(spec.get("start", 1)), int(spec.get("step", 1))
            if step < 1:
                raise ValueError("arithmetic stream needs a positive step")
            return cls("arithmetic", (start, step))
        values = [int(v) for v in _required(spec, "values", "explicit stream")]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("explicit stream must be strictly increasing")
        return cls("explicit", values)

    def least_above(self, x: int) -> int:
        floor = x if self._last is None else max(x, self._last)
        if self._kind == "arithmetic":
            start, step = self._payload
            k = max(0, -(-(floor + 1 - start) // step))
            value = start + k * step
            if value <= floor:
                value += step
        else:
            values = self._payload
            pos = bisect.bisect_right(values, floor)
            if pos >= len(values):
                raise GenerationError(
                    f"time stream exhausted before exceeding {x}"
                )
            value = values[pos]
        self._last = value
        return value


def stream_from_spec(spec: dict) -> _TimeSource:
    """Strictly increasing integer stream from a JSON descriptor."""
    return _TimeSource.from_spec(spec)


_PAIR_KEYS = ("cuts", "cprime", "dprime")
_STREAM_KEYS = {
    "naturals": ("name",),
    "arithmetic": ("name", "start", "step"),
    "explicit": ("name", "values"),
}
_CUTS_KEYS = {"constant": ("name", "r"), "affine": ("name", "scale", "offset")}
_SPEC_KEYS = ("mode", "initial_width", "initial_height", "stages", "rule")


def _descriptor(spec, what: str, keys: Optional[tuple] = None) -> dict:
    """spec itself, or a ValueError when the JSON value is not an object or
    (unless `keys` is None) has a key outside `keys`."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} descriptor must be a JSON object, not {spec!r}")
    unknown = sorted(set(spec) - set(keys)) if keys is not None else []
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ValueError(f"{what} descriptor has unknown key(s) {names}")
    return spec


def _kind_of(spec, what: str, kinds: dict) -> str:
    """The `name` of a named descriptor, once the descriptor is known to be
    an object of one of `kinds` holding only that kind's keys."""
    name = _descriptor(spec, what).get("name")
    if not isinstance(name, str) or name not in kinds:
        raise ValueError(f"unknown {what} {name!r}")
    _descriptor(spec, f"{name} {what}", kinds[name])
    return name


def _required(spec: dict, key: str, what: str):
    """spec[key], or a ValueError naming the key the descriptor lacks."""
    if key not in spec:
        raise ValueError(f"{what} descriptor is missing the key {key!r}")
    return spec[key]


def cuts_from_spec(spec: dict) -> Callable[[int], int]:
    """Cut-count rule j -> r_j from a JSON descriptor."""
    if _kind_of(spec, "cuts rule", _CUTS_KEYS) == "constant":
        r = int(_required(spec, "r", "constant cuts"))
        return lambda j: r
    scale = int(spec.get("scale", 1))
    offset = int(spec.get("offset", 2))
    return lambda j: scale * j + offset


def default_pair_args() -> dict:
    """Stream and cut choices used when the pair generator is run by name."""
    return {
        "cuts": {"name": "affine", "scale": 8, "offset": 8},
        "cprime": {"name": "naturals"},
        "dprime": {"name": "naturals"},
    }


class RigidMixingPair:
    """Two infinite-measure constructions with interleaved special times.

    Stage j gets a uniform spacer count s_j on all but the last column of one
    construction and 2*s_j on all but the last column of the other; the last
    columns (coefficient r_j - 1 and 0 respectively) equalize the heights, so
    both towers share h_j at every stage.  s_j is chosen so that the common
    time h_j + s_j lands in the supplied stream (odd stages consume the first
    stream, even stages the second) and exceeds 2*h_j.  Along an odd-stage
    time the first construction ("t") moves all but a 1/r_j fraction of any
    level set onto itself while the second ("s") moves everything into
    spacers, and even stages swap the roles.
    """

    def __init__(
        self,
        cprime: _TimeSource,
        dprime: _TimeSource,
        cuts: Callable[[int], int],
        spec_args: dict,
    ) -> None:
        self._streams = {1: cprime, 0: dprime}
        self._cuts = cuts
        self._records: list[tuple[int, int, int]] = []  # (r_j, s_j, h_j + s_j)
        self._heights = [1]
        self.t_params = self._role_params("t", spec_args)
        self.s_params = self._role_params("s", spec_args)

    def _role_params(self, role: str, spec_args: dict) -> ConstructionParams:
        spec = _canonical("theorem6", {**spec_args, "role": role})
        rule = lambda j, _role=role: self._stage_for(_role, j)
        return ConstructionParams(
            "infinite", Q(1), 1, None, rule, spec, f"pair-{role}"
        )

    def _ensure(self, j: int) -> None:
        while len(self._records) <= j:
            m = len(self._records)
            h = self._heights[m]
            r = self._cuts(m)
            if r < 2:
                raise GenerationError(f"stage {m}: cut rule returned r={r} < 2")
            try:
                value = self._streams[m % 2].least_above(2 * h)
            except GenerationError as exc:
                raise GenerationError(f"stage {m}: {exc}") from None
            s = value - h
            self._records.append((r, s, value))
            self._heights.append(r * h + 2 * (r - 1) * s)

    def _stage_for(self, role: str, j: int) -> tuple[int, tuple[int, ...]]:
        self._ensure(j)
        r, s, _ = self._records[j]
        uniform_role = "t" if j % 2 == 1 else "s"
        if role == uniform_role:
            return r, (s,) * (r - 1) + ((r - 1) * s,)
        return r, (2 * s,) * (r - 1) + (0,)

    def shared_height(self, j: int) -> int:
        self._ensure(max(j - 1, 0))
        return self._heights[j]

    def time_at(self, j: int) -> int:
        """The designated time h_j + s_j materialized at stage j."""
        self._ensure(j)
        return self._records[j][2]

    def cuts_at(self, j: int) -> int:
        self._ensure(j)
        return self._records[j][0]

def rigid_mixing_pair(spec_args: Optional[dict] = None) -> RigidMixingPair:
    """Build a pair from JSON descriptors (defaults from default_pair_args)."""
    args = default_pair_args()
    if spec_args:
        args.update(_descriptor(spec_args, "pair", _PAIR_KEYS))
    return RigidMixingPair(
        stream_from_spec(args["cprime"]),
        stream_from_spec(args["dprime"]),
        cuts_from_spec(args["cuts"]),
        spec_args=args,
    )


# ---------------------------------------------------------------------------
# JSON round-trip


@lru_cache(maxsize=None)
def _pair_from_canonical(args_json: str) -> RigidMixingPair:
    return rigid_mixing_pair(json.loads(args_json))


def builtin_params(name: str, **args) -> ConstructionParams:
    """Construction parameters for a named built-in."""
    if name == "chacon":
        return chacon()
    if name == "odometer":
        return odometer(int(args.get("r", 2)))
    if name == "staircase":
        return staircase()
    if name == "theorem6":
        _descriptor(args, "theorem6 args", ("role",) + _PAIR_KEYS)
        role = args.pop("role", "t").lower()
        if role not in ("t", "s"):
            raise ValueError("pair role must be 't' or 's'")
        merged = default_pair_args()
        merged.update(args)
        pair = _pair_from_canonical(json.dumps(merged, sort_keys=True))
        return pair.t_params if role == "t" else pair.s_params
    raise ValueError(f"unknown construction {name!r}")


BUILTIN_RULES = ("chacon", "odometer", "staircase", "theorem6")


def params_to_spec(params: ConstructionParams) -> dict:
    """JSON-able description; fails for closure-backed rules without a spec."""
    out: dict = {"mode": params.measure_mode, "initial_width": str(params.initial_width)}
    if params.initial_height != 1:
        out["initial_height"] = params.initial_height
    if params.stages is not None:
        out["stages"] = [
            {"r": r, "spacers": list(spacers)} for r, spacers in params.stages
        ]
        return out
    if params.rule_spec is None:
        raise ValueError("rule-backed parameters without a descriptor cannot be serialized")
    out["rule"] = json.loads(params.rule_spec)
    return out


def params_from_spec(spec: dict) -> ConstructionParams:
    """Inverse of params_to_spec, accepting both explicit and named forms."""
    try:
        return _params_from_spec(spec)
    except KeyError as exc:
        raise ValueError(f"construction spec is missing the key {exc}") from None


def _params_from_spec(spec: dict) -> ConstructionParams:
    mode = _descriptor(spec, "construction spec")["mode"]
    _descriptor(spec, "construction spec", _SPEC_KEYS)
    width = Q(str(spec.get("initial_width", "1")))
    height = int(spec.get("initial_height", 1))
    if "stages" in spec:
        stages = []
        for st in spec["stages"]:
            _descriptor(st, "stage", ("r", "spacers"))
            stages.append((int(st["r"]), tuple(int(x) for x in st["spacers"])))
        return ConstructionParams(mode, width, height, tuple(stages), None, None, "explicit")
    rule = spec.get("rule")
    if not rule:
        raise ValueError("spec needs either 'stages' or 'rule'")
    _descriptor(rule, "rule", ("name", "args"))
    name, args = rule.get("name"), dict(rule.get("args", {}))
    if name not in BUILTIN_RULES:
        raise ValueError(f"unknown rule {name!r}")
    params = builtin_params(name, **args)
    if (params.measure_mode, params.initial_width, params.initial_height) != (
        mode,
        width,
        height,
    ):
        # Named rules fix their own geometry; honour an explicit override by
        # rebuilding on the same rule.
        params = ConstructionParams(
            mode, width, height, None, params.rule, params.rule_spec, params.name
        )
    return params
