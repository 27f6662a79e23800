"""Named constructions, JSON construction descriptors and the paired generator.

Besides the classical desk examples (chacon, odometer, staircase) this module
builds matched pairs of infinite-measure constructions whose designated time
sets interleave: along the times emitted for one map the other map is rigid,
and vice versa.  Parameters are read from a small JSON vocabulary so the
command line can name them; its descriptors are declared once, as the JSON
Schema `$defs` in DESCRIPTOR_DEFS, which both the experiment schemas and the
library entry points validate against.  One stdlib reader of the keywords
those schemas use, the `_KEYWORDS` table, decides every value and words every
rejection as jsonschema's `best_match` would; the tests hold it to jsonschema.
"""
from __future__ import annotations

import bisect
import functools
import re
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .tower import (
    MAX_DEPTH,
    ConstructionExhaustedError,
    ConstructionParams,
    GenerationError,
    build_stage,
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
    "json_path",
    "schema_error",
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


def _least_above(stream: dict, x: int) -> int:
    """Least element above x of a schema-valid `stream` descriptor (naturals:
    start 1, step 1): arithmetic in O(1), explicit by bisection, so either
    keeps up with tower heights that grow geometrically from stage to stage."""
    values = stream.get("values")  # None unless explicit
    if values is None:
        start, step = stream.get("start", 1), stream.get("step", 1)
        return start + max(0, (x - start) // step + 1) * step
    pos = bisect.bisect_right(values, x)
    if pos >= len(values):
        raise GenerationError(f"time stream exhausted before exceeding {x}")
    return values[pos]


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
    spacers, and even stages swap the roles.  Every stage fact is read from
    the towers themselves, so the pair keeps no stage records of its own.
    """

    def __init__(self, args: dict) -> None:
        """`args`: a schema-valid `pair` descriptor holding all three keys;
        any other key is ignored."""
        cuts = args["cuts"]
        if cuts["name"] == "constant":
            self._scale, self._offset = 0, cuts["r"]
        else:
            self._scale, self._offset = cuts.get("scale", 1), cuts.get("offset", 2)
        self._streams = (args["dprime"], args["cprime"])  # even, odd stages
        for stream in self._streams:
            values = stream.get("values", ())
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError("explicit stream must be strictly increasing")
        self.t_params = self._role_params("t")
        self.s_params = self._role_params("s")

    def _role_params(self, role: str) -> ConstructionParams:
        # `_stage_for` is looked up at call time, so it can be wrapped by name
        rule = lambda j: self._stage_for(role, j)
        return ConstructionParams(rule, f"pair-{role}")

    def roles_at(self, j: int) -> tuple[str, str]:
        """(rigid, mixing) along the stage-j time: "t" is rigid at odd j."""
        return ("t", "s") if j % 2 else ("s", "t")

    def params(self, role: str) -> ConstructionParams:
        return self.t_params if role == "t" else self.s_params

    def _height(self, j: int) -> int:
        """h_j, from stage j - 1 only: stage j's rule is what asks for it."""
        return 1 if j == 0 else build_stage(self.t_params, j - 1).next_height

    def _stage_for(self, role: str, j: int) -> tuple[int, tuple[int, ...]]:
        r = self._scale * j + self._offset  # at least 2, by the `cuts` schema
        s = self.time_at(j) - self._height(j)
        if role == self.roles_at(j)[0]:
            return r, (s,) * (r - 1) + ((r - 1) * s,)
        return r, (2 * s,) * (r - 1) + (0,)

    def time_at(self, j: int) -> int:
        """The designated time h_j + s_j: the least of stage j's stream above 2*h_j."""
        h = self._height(j)
        try:
            return _least_above(self._streams[j % 2], 2 * h)
        except GenerationError as exc:
            raise GenerationError(f"stage {j}: {exc}") from None

    def cuts_at(self, j: int) -> int:
        return build_stage(self.t_params, j).cuts


def rigid_mixing_pair(spec_args: Optional[dict] = None) -> RigidMixingPair:
    """Build a pair from a `pair` descriptor; a key left out takes its default."""
    if spec_args is not None:
        _check("pair", spec_args)
    return _pair(spec_args or {})


def _pair(args: dict) -> RigidMixingPair:
    """The pair of a valid `pair` descriptor, or of a theorem6 rule's args."""
    defaults = {key: prop["default"] for key, prop in _PAIR.items()}
    return RigidMixingPair(defaults | args)


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


def _is_number(value) -> bool:
    """A non-bool int or float with a finite float value (compared exactly)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


# The type rules of every schema here: JSON Schema 2020-12, as `validator_for`
# picks, but a 3.0 is no integer, lest a float reach the exact layer as a cut
# count or index, and a number has a finite float value.  An integer must be a
# number too: `minimum` and `maximum` skip any value that is not one.
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and _is_number(value),
}


def _equal(one, two) -> bool:
    """jsonschema's `equal`: a bool equals no number, and sequences and
    mappings compare item by item."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(
            key in two and _equal(item, two[key]) for key, item in one.items()
        )
    return not isinstance(one, bool) and not isinstance(two, bool) and one == two


def _at(node, path):
    """The part of `node` that `path`, a sequence of keys and indices, names."""
    return functools.reduce(lambda part, key: part[key], path, node)


def _resolve(ref: str, root: dict):
    if not ref.startswith("#/"):
        raise NotImplementedError(f"schema $ref {ref!r}")
    return _at(root, ref[2:].split("/"))


def _properties(arg, value, schema, root):
    if isinstance(value, dict):
        for key, sub in arg.items():
            if key in value:
                for path, message, where in _errors(sub, value[key], root):
                    yield (key, *path), message, where


def _additional(arg, value, schema, root):
    if arg is not False:  # the only form the schemas here use
        raise NotImplementedError(f"additionalProperties {arg!r}")
    properties = schema.get("properties", {})
    extras = isinstance(value, dict) and [key for key in value if key not in properties]
    if not extras:
        return ()
    extras.sort(key=str)
    words = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
    return [((), "Additional properties are not allowed (%s %s unexpected)" % words, schema)]


def _items(arg, value, schema, root):
    if isinstance(value, list):
        for index, item in enumerate(value):
            for path, message, where in _errors(arg, item, root):
                yield (index, *path), message, where


def _all_of(arg, value, schema, root):
    for sub in arg:
        yield from _errors(sub, value, root)


# keyword -> errors(argument, value, schema, root): what the keyword of `schema`
# finds wrong with `value`, as (path, message, schema) triples: the keys and
# indices from `value` to the part at fault, and the schema holding the failing
# keyword.  Each keyword is read as 2020-12 reads it, and its errors come worded
# and ordered as jsonschema yields them.  A keyword that applies to one type
# passes a value of any other type; an empty tuple means no error.
_KEYWORDS: dict[str, Callable] = {
    "$defs": lambda arg, value, schema, root: (),
    "default": lambda arg, value, schema, root: (),
    "then": lambda arg, value, schema, root: (),  # read by "if"
    "else": lambda arg, value, schema, root: (),  # read by "if"
    "$ref": lambda arg, value, schema, root: _errors(_resolve(arg, root), value, root),
    "type": lambda arg, value, schema, root: (
        () if _TYPES[arg](value) else [((), f"{value!r} is not of type {arg!r}", schema)]
    ),
    "enum": lambda arg, value, schema, root: (
        () if any(_equal(each, value) for each in arg)
        else [((), f"{value!r} is not one of {arg!r}", schema)]
    ),
    "const": lambda arg, value, schema, root: (
        () if _equal(value, arg) else [((), f"{arg!r} was expected", schema)]
    ),
    "pattern": lambda arg, value, schema, root: (
        () if not isinstance(value, str) or re.search(arg, value)
        else [((), f"{value!r} does not match {arg!r}", schema)]
    ),
    "minimum": lambda arg, value, schema, root: (
        () if not _is_number(value) or value >= arg
        else [((), f"{value!r} is less than the minimum of {arg!r}", schema)]
    ),
    "maximum": lambda arg, value, schema, root: (
        () if not _is_number(value) or value <= arg
        else [((), f"{value!r} is greater than the maximum of {arg!r}", schema)]
    ),
    "exclusiveMinimum": lambda arg, value, schema, root: (
        () if not _is_number(value) or value > arg
        else [((), f"{value!r} is less than or equal to the minimum of {arg!r}", schema)]
    ),
    "minItems": lambda arg, value, schema, root: (
        () if not isinstance(value, list) or len(value) >= arg
        else [((), f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}",
               schema)]
    ),
    "maxItems": lambda arg, value, schema, root: (
        () if not isinstance(value, list) or len(value) <= arg
        else [((), f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}",
               schema)]
    ),
    "items": _items,
    "required": lambda arg, value, schema, root: (
        () if not isinstance(value, dict)
        else [((), f"{key!r} is a required property", schema) for key in arg if key not in value]
    ),
    "properties": _properties,
    "additionalProperties": _additional,
    "allOf": _all_of,
    "not": lambda arg, value, schema, root: (
        () if not _passes(arg, value, root)
        else [((), f"{value!r} should not be valid under {arg!r}", schema)]
    ),
    "if": lambda arg, value, schema, root: _errors(
        schema.get("then" if _passes(arg, value, root) else "else", True), value, root
    ),
}


def _errors(schema, value, root: dict):
    """Every error of `value` under `schema`, a part of `root`."""
    if schema is True:
        return
    if schema is False:
        yield (), f"False schema does not allow {value!r}", schema
        return
    for keyword, arg in schema.items():
        errors = _KEYWORDS.get(keyword)
        if errors is None:
            raise NotImplementedError(f"schema keyword {keyword!r}")
        found = errors(arg, value, schema, root)
        if found:  # most keywords pass, with ()
            yield from found


def _passes(schema, value, root: dict) -> bool:
    return next(_errors(schema, value, root), None) is None


def json_path(path: tuple) -> str:
    """`path` as jsonschema's `json_path` writes it, $.spec.stages[0], for the
    property names here, which are all identifiers."""
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def schema_error(schema: dict, value) -> Optional[tuple[tuple, str]]:
    """None if `value` is valid under `schema`, else the (path, message) of
    the error jsonschema's `best_match` picks: the shallowest, then the one
    with the greatest path, then one whose schema's `type` the value at fault
    fails; the first of equals.  A keyword the schemas here do not use
    raises NotImplementedError."""

    def relevance(error):
        path, _, sub = error
        typed = isinstance(sub, dict) and "type" in sub
        return -len(path), path, not (typed and _TYPES[sub["type"]](_at(value, path)))

    best = max(_errors(schema, value, schema), key=relevance, default=None)
    return None if best is None else best[:2]


def _def_schema(name: str) -> dict:
    return {"$defs": DESCRIPTOR_DEFS, "$ref": f"#/$defs/{name}"}


def _check(name: str, value) -> None:
    """Raise ValueError with the best-matching schema error unless `value`
    is a valid `name` descriptor."""
    error = schema_error(_def_schema(name), value)
    if error is not None:
        path, message = error
        raise ValueError(f"invalid {name} descriptor at {json_path(path)}: {message}")


def builtin_params(name: str, **args) -> ConstructionParams:
    """Construction parameters of the `rule` descriptor {name, args}: odometer
    takes `r`, theorem6 a `role` and the keys of a `pair`, the others none."""
    _check("rule", {"name": name, "args": args})
    return _rule_params(name, args)


def _rule_params(name: str, args: dict) -> ConstructionParams:
    """The construction of a valid `rule` descriptor {name, args}."""
    if name == "theorem6":
        return _pair(args).params(args.get("role", "t"))
    return {"chacon": chacon, "odometer": odometer, "staircase": staircase}[name](**args)


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
    return _spec_params(spec)


def _spec_params(spec: dict) -> ConstructionParams:
    """The construction of a valid `spec` descriptor."""
    height, width = spec.get("initial_height", 1), Q(spec.get("initial_width", "1"))
    if "stages" in spec:
        stages = tuple((st["r"], tuple(st["spacers"])) for st in spec["stages"])
        return ConstructionParams(
            functools.partial(_explicit_rule, stages), "explicit", width, height
        )
    rule = spec["rule"]
    params = _rule_params(rule["name"], rule.get("args", {}))
    if (params.initial_width, params.initial_height) != (width, height):
        # Named rules fix their own geometry; honour an explicit override by
        # rebuilding on the same rule.
        params = ConstructionParams(params.rule, params.name, width, height)
    return params
