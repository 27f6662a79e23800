"""Named constructions, JSON construction descriptors and the paired generator.

Besides the classical desk examples (chacon, odometer, staircase) this module
builds matched pairs of infinite-measure constructions whose designated time
sets interleave: along the times emitted for one map the other map is rigid,
and vice versa.  Parameters are read from a small JSON vocabulary so the
command line can name them; its descriptors are declared once, as the JSON
Schema `$defs` in DESCRIPTOR_DEFS, which both the experiment schemas and the
library entry points validate against.
"""
from __future__ import annotations

import bisect
import functools
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import jsonschema

from .tower import (
    MAX_DEPTH,
    ConstructionExhaustedError,
    ConstructionParams,
    GenerationError,
)

Q = Fraction

__all__ = [
    "chacon",
    "odometer",
    "staircase",
    "builtin_params",
    "BUILTIN_RULES",
    "DESCRIPTOR_DEFS",
    "MAX_CUTS",
    "MAX_DEPTH",
    "SchemaValidator",
    "RigidMixingPair",
    "rigid_mixing_pair",
    "params_from_spec",
]


# ---------------------------------------------------------------------------
# classical single constructions


def _chacon_rule(j: int) -> tuple[int, tuple[int, ...]]:
    return 3, (0, 1, 0)


def _staircase_rule(j: int) -> tuple[int, tuple[int, ...]]:
    r = j + 2
    return r, tuple(range(r))


@lru_cache(maxsize=None)
def chacon() -> ConstructionParams:
    """Three cuts, one spacer on the middle column, every stage."""
    return ConstructionParams(_chacon_rule, "chacon")


@lru_cache(maxsize=None)
def odometer(r: int = 2) -> ConstructionParams:
    """r cuts and no spacers at every stage (adding machine)."""
    if not 2 <= r <= MAX_CUTS:  # which also bounds this cache
        raise ValueError(f"odometer needs 2 to {MAX_CUTS} cuts, got {r}")
    rule = lambda j, _r=r: (_r, (0,) * _r)
    return ConstructionParams(rule, f"odometer-{r}")


@lru_cache(maxsize=None)
def staircase() -> ConstructionParams:
    """Growing cuts r_j = j + 2 with 0, 1, .., r-1 spacers per column."""
    return ConstructionParams(_staircase_rule, "staircase")


# ---------------------------------------------------------------------------
# integer streams and the generated pair


class _TimeSource:
    """Strictly increasing integer stream consumed via least_above queries.

    An arithmetic source answers "least element > x not yet consumed" in
    O(1), an explicit one by bisection, so both keep up with tower heights
    that grow geometrically from stage to stage.
    """

    def __init__(self, spec: dict) -> None:
        """`spec`: a schema-valid `stream` descriptor (naturals: start 1, step 1)."""
        values = self._values = spec.get("values")  # None unless explicit
        if values is not None and any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("explicit stream must be strictly increasing")
        self._start, self._step = spec.get("start", 1), spec.get("step", 1)
        self._last: Optional[int] = None

    def least_above(self, x: int) -> int:
        floor = x if self._last is None else max(x, self._last)
        if self._values is None:
            start, step = self._start, self._step
            k = max(0, -(-(floor + 1 - start) // step))
            value = start + k * step
            if value <= floor:
                value += step
        else:
            values = self._values
            pos = bisect.bisect_right(values, floor)
            if pos >= len(values):
                raise GenerationError(
                    f"time stream exhausted before exceeding {x}"
                )
            value = values[pos]
        self._last = value
        return value


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

    def __init__(self, args: dict) -> None:
        """`args`: a schema-valid `pair` descriptor holding all three keys."""
        cuts = args["cuts"]
        if cuts["name"] == "constant":
            self._scale, self._offset = 0, cuts["r"]
        else:
            self._scale, self._offset = cuts.get("scale", 1), cuts.get("offset", 2)
        self._streams = {1: _TimeSource(args["cprime"]), 0: _TimeSource(args["dprime"])}
        self._records: list[tuple[int, int, int]] = []  # (r_j, s_j, h_j + s_j)
        self._heights = [1]
        self.t_params = self._role_params("t")
        self.s_params = self._role_params("s")

    def _role_params(self, role: str) -> ConstructionParams:
        rule = lambda j: self._stage_for(role, j)
        return ConstructionParams(rule, f"pair-{role}")

    def _ensure(self, j: int) -> None:
        while len(self._records) <= j:
            m = len(self._records)
            h = self._heights[m]
            r = self._scale * m + self._offset  # at least 2, by the `cuts` schema
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

    def time_at(self, j: int) -> int:
        """The designated time h_j + s_j materialized at stage j."""
        self._ensure(j)
        return self._records[j][2]

    def cuts_at(self, j: int) -> int:
        self._ensure(j)
        return self._records[j][0]


def rigid_mixing_pair(spec_args: Optional[dict] = None) -> RigidMixingPair:
    """Build a pair from a `pair` descriptor; a key left out takes its default."""
    if spec_args is not None:
        _check("pair", spec_args)
    defaults = {key: prop["default"] for key, prop in _PAIR.items()}
    return RigidMixingPair(defaults | (spec_args or {}))


# ---------------------------------------------------------------------------
# JSON descriptors, declared once

# Largest cut count a descriptor or experiment may name (r, r_j, and the affine
# scale and offset): a stage builds a spacer tuple of r_j entries.
MAX_CUTS = 1024
# The largest depth an experiment may name is the tower kernel's MAX_DEPTH.

_INT = {"type": "integer"}
_CUT_COUNT = {"type": "integer", "minimum": 2, "maximum": MAX_CUTS}


def _closed(properties: dict, required: tuple = ()) -> dict:
    """An object with exactly these typed properties; `required` comes before
    `additionalProperties`, so a missing key is the error reported first."""
    return {"type": "object", "required": list(required), "properties": properties,
            "additionalProperties": False}


def _tagged(arms: dict) -> dict:
    """A union of the closed objects in `arms`, told apart by their `name`.
    Each kind is an `if {name: const}` / `then` arm under `allOf`, not a
    `oneOf` branch, so `best_match` reports the bad key of the kind given."""
    return {
        "type": "object",
        "required": ["name"],
        "properties": {"name": {"enum": list(arms)}},
        "allOf": [
            {
                "if": {"properties": {"name": {"const": name}}, "required": ["name"]},
                "then": {**then, "properties": {"name": True, **then["properties"]}},
            }
            for name, then in arms.items()
        ],
    }


_PAIR = {
    "cuts": {"$ref": "#/$defs/cuts", "default": {"name": "affine", "scale": 8, "offset": 8}},
    "cprime": {"$ref": "#/$defs/stream", "default": {"name": "naturals"}},
    "dprime": {"$ref": "#/$defs/stream", "default": {"name": "naturals"}},
}
_NO_ARGS = _closed({"args": _closed({})})
_POSITIVE_RATIONAL = "^0*[1-9][0-9]*(/0*[1-9][0-9]*)?$"  # p or p/q, both positive

DESCRIPTOR_DEFS = {
    "stream": _tagged({
        "naturals": _closed({}),
        "arithmetic": _closed({"start": _INT, "step": {**_INT, "minimum": 1}}),
        "explicit": _closed({"values": {"type": "array", "items": _INT}}, ("values",)),
    }),
    "cuts": _tagged({
        "constant": _closed({"r": _CUT_COUNT}, ("r",)),
        "affine": _closed({"scale": {**_CUT_COUNT, "minimum": 0}, "offset": _CUT_COUNT}),
    }),
    "pair": _closed(_PAIR),
    "rule": _tagged({
        "chacon": _NO_ARGS,
        "odometer": _closed({"args": _closed({"r": _CUT_COUNT})}),
        "staircase": _NO_ARGS,
        "theorem6": _closed({"args": _closed({"role": {"enum": ["t", "s"]}, **_PAIR})}),
    }),
    "stage": _closed(
        {"r": _CUT_COUNT, "spacers": {"type": "array", "items": {**_INT, "minimum": 0}}},
        ("r", "spacers"),
    ),
    "spec": {
        **_closed(
            {
                "initial_width": {"type": "string", "pattern": _POSITIVE_RATIONAL},
                "initial_height": {**_INT, "minimum": 1},
                "stages": {"type": "array", "items": {"$ref": "#/$defs/stage"}},
                "rule": {"$ref": "#/$defs/rule"},
            }
        ),
        # exactly one of `stages` and `rule`, as an if/else rather than a
        # `oneOf`, so that `best_match` names the key at fault
        "if": {"required": ["stages"]},
        "then": {"not": {"required": ["rule"]}},
        "else": {"required": ["rule"]},
    },
}

BUILTIN_RULES = tuple(DESCRIPTOR_DEFS["rule"]["properties"]["name"]["enum"])


def _is_number(_, value) -> bool:
    """A non-bool int or float with a finite float value (compared exactly)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


# The validator class of every schema here: JSON Schema 2020-12, as
# `validator_for` picks, but a 3.0 is no integer, lest a float reach the exact
# layer as a cut count or index, and a number has a finite float value.  An
# integer must be a number too: `minimum` and `maximum` skip any value that is
# not one.  Validators are built without the costly metaschema check; the
# tests make it once for every schema.
SchemaValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {
            "number": _is_number,
            "integer": lambda _, value: isinstance(value, int) and _is_number(_, value),
        }
    ),
)


@functools.cache
def _def_validator(name: str):
    """One validator per descriptor def, so at most len(DESCRIPTOR_DEFS)."""
    return SchemaValidator({"$defs": DESCRIPTOR_DEFS, "$ref": f"#/$defs/{name}"})


def _check(name: str, value) -> None:
    """Raise ValueError with the best-matching schema error unless `value`
    is a valid `name` descriptor."""
    error = jsonschema.exceptions.best_match(_def_validator(name).iter_errors(value))
    if error is not None:
        raise ValueError(f"invalid {name} descriptor at {error.json_path}: {error.message}")


def builtin_params(name: str, **args) -> ConstructionParams:
    """Construction parameters of the `rule` descriptor {name, args}: odometer
    takes `r`, theorem6 a `role` and the keys of a `pair`, the others none."""
    _check("rule", {"name": name, "args": args})
    if name != "theorem6":
        return {"chacon": chacon, "odometer": odometer, "staircase": staircase}[name](**args)
    role = args.pop("role", "t")
    pair = rigid_mixing_pair(args)
    return pair.t_params if role == "t" else pair.s_params


# ---------------------------------------------------------------------------
# construction from a `spec` descriptor


def _explicit_rule(stages: tuple, j: int) -> tuple[int, tuple[int, ...]]:
    if j >= len(stages):
        raise ConstructionExhaustedError(
            f"construction 'explicit' describes {len(stages)} stages, stage {j} requested"
        )
    return stages[j]


def params_from_spec(spec: dict) -> ConstructionParams:
    """Construction parameters of a `spec` descriptor, explicit or named."""
    _check("spec", spec)
    height, width = spec.get("initial_height", 1), Q(spec.get("initial_width", "1"))
    if "stages" in spec:
        stages = tuple((st["r"], tuple(st["spacers"])) for st in spec["stages"])
        return ConstructionParams(
            functools.partial(_explicit_rule, stages), "explicit", width, height
        )
    rule = spec["rule"]
    params = builtin_params(rule["name"], **rule.get("args", {}))
    if (params.initial_width, params.initial_height) != (width, height):
        # Named rules fix their own geometry; honour an explicit override by
        # rebuilding on the same rule.
        params = ConstructionParams(params.rule, params.name, width, height)
    return params
