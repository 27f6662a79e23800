"""The construction descriptors: every `spec` or `pair` the schema accepts
builds or fails with a library error, and so does any one-node corruption.

`from_schema` draws values valid under DESCRIPTOR_DEFS.  It reads only the
keywords the defs use, and every bound it draws within comes from the schema.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ergolab.constructions import (
    DESCRIPTOR_DEFS,
    MAX_CUTS,
    SchemaValidator,
    builtin_params,
    odometer,
    params_from_spec,
    rigid_mixing_pair,
)
from ergolab.experiments import ConfigError, resolve_config
from ergolab.tower import ConstructionExhaustedError, GenerationError, build_stage

LIBRARY_ERRORS = (ValueError, GenerationError, ConstructionExhaustedError)


def from_schema(schema: dict) -> st.SearchStrategy:
    """Values valid under `schema`, a def of DESCRIPTOR_DEFS or a part of one."""
    if "$ref" in schema:
        rest = {k: v for k, v in schema.items() if k not in ("$ref", "default")}
        return from_schema({**rest, **DESCRIPTOR_DEFS[schema["$ref"].rsplit("/", 1)[1]]})
    if "allOf" in schema:  # tagged union: one `if {name: const}` / `then` arm per kind
        return st.sampled_from(schema["allOf"]).flatmap(
            lambda arm: _object(arm["then"], name=arm["if"]["properties"]["name"]["const"])
        )
    if "else" in schema:  # exactly one of the keys `if` and `else` require
        keys = [schema["if"]["required"], schema["else"]["required"]]
        return st.sampled_from(keys).flatmap(
            lambda chosen: _object(schema, require=chosen, omit=sum(keys, []))
        )
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        return _object(schema)
    if kind == "array":
        return st.lists(from_schema(schema["items"]))
    if kind == "integer":
        return st.integers(schema.get("minimum"), schema.get("maximum"))
    if kind == "string":
        return st.from_regex(schema["pattern"], fullmatch=True)
    raise NotImplementedError(schema)


def _object(schema: dict, name=None, require=(), omit=()) -> st.SearchStrategy:
    """A closed object: its required keys, any of the others, and `name` if given."""
    props = {k: v for k, v in schema["properties"].items() if v is not True}
    required = set(schema["required"]) | set(require)
    return st.fixed_dictionaries(
        {k: from_schema(props[k]) for k in props if k in required}
        | ({} if name is None else {"name": st.just(name)}),
        optional={
            k: from_schema(props[k]) for k in props if k not in required and k not in omit
        },
    )


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8,
)


def _nodes(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _stand_ins(value) -> st.SearchStrategy:
    """Any JSON value, or `value` itself as another JSON type (3.0 or "3" for 3)."""
    alike = [str(value)]
    if isinstance(value, int) and abs(value) < 2**53:
        alike.append(float(value))
    return st.sampled_from(alike) | JSON


def _replaced(value, path, new):
    if not path:
        return new
    out = value.copy()
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def _build_through_stage_4(kind: str, descriptor) -> None:
    if kind == "spec":
        constructions = [params_from_spec(descriptor)]
    else:
        pair = rigid_mixing_pair(descriptor)
        constructions = [pair.t_params, pair.s_params]
    for params in constructions:
        build_stage(params, 4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["spec", "pair"]), st.data())
def test_valid_descriptors_build_or_fail_with_a_library_error(kind, data):
    descriptor = data.draw(from_schema(DESCRIPTOR_DEFS[kind]))
    schema = {"$defs": DESCRIPTOR_DEFS, "$ref": f"#/$defs/{kind}"}
    assert SchemaValidator(schema).is_valid(descriptor)
    try:
        _build_through_stage_4(kind, descriptor)
    except LIBRARY_ERRORS:
        pass


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["spec", "pair"]), st.data())
def test_one_corrupted_node_still_fails_with_a_library_error(kind, data):
    descriptor = data.draw(from_schema(DESCRIPTOR_DEFS[kind]))
    path = data.draw(st.sampled_from(list(_nodes(descriptor))))
    node = descriptor
    for key in path:
        node = node[key]
    corrupted = _replaced(descriptor, path, data.draw(_stand_ins(node)))
    try:  # a TypeError, AttributeError or KeyError fails the test
        _build_through_stage_4(kind, corrupted)
    except LIBRARY_ERRORS:
        pass


@pytest.mark.parametrize(
    "cuts",
    [
        {"name": "constant", "r": 10**9},
        {"name": "affine", "scale": 10**9},
        {"name": "affine", "offset": 10**9},
    ],
)
def test_oversized_pair_cut_counts_are_rejected(cuts):
    with pytest.raises(ValueError, match=f"maximum of {MAX_CUTS}"):
        rigid_mixing_pair({"cuts": cuts})
    with pytest.raises(ConfigError, match=f"maximum of {MAX_CUTS}"):
        resolve_config({"experiment": "theorem6", "params": {"pair": {"cuts": cuts}}})


def test_oversized_construction_cut_counts_are_rejected_before_any_stage():
    built = odometer.cache_info().currsize
    with pytest.raises(ConfigError, match=f"maximum of {MAX_CUTS}"):
        resolve_config(
            {"experiment": "build", "params": {"construction": "odometer", "r": 10**9}}
        )
    with pytest.raises(ValueError, match=f"maximum of {MAX_CUTS}"):
        builtin_params("odometer", r=10**9)
    rule = {"name": "odometer", "args": {"r": 10**9}}
    with pytest.raises(ValueError, match=f"maximum of {MAX_CUTS}"):
        params_from_spec({"mode": "finite", "rule": rule})
    stages = [{"r": 10**9, "spacers": [0]}]
    with pytest.raises(ValueError, match=f"maximum of {MAX_CUTS}"):
        params_from_spec({"mode": "finite", "stages": stages})
    assert odometer.cache_info().currsize == built
    assert builtin_params("odometer", r=MAX_CUTS).stage_data(0)[0] == MAX_CUTS


def test_odometer_cache_is_bounded_by_the_cut_limit():
    with pytest.raises(ValueError, match=f"2 to {MAX_CUTS} cuts"):
        odometer(MAX_CUTS + 1)
    for r in range(2, MAX_CUTS + 100):
        for args, kwargs in (((r,), {}), ((), {"r": r})):
            try:
                odometer(*args, **kwargs)
            except ValueError:
                assert r > MAX_CUTS
    # the cache keys a positional, a keyword and a default r apart
    assert odometer.cache_info().currsize <= 2 * (MAX_CUTS - 1) + 1


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda: builtin_params("chacon", r=3), "'r' was unexpected"),
        (lambda: builtin_params("staircase", bogus=1), "'bogus' was unexpected"),
        (lambda: builtin_params("odometer", role="s"), "'role' was unexpected"),
        (lambda: builtin_params("odometer", r="3"), "'3' is not of type 'integer'"),
        (lambda: builtin_params("odometer", r=3.0), "3.0 is not of type 'integer'"),
        (lambda: builtin_params("theorem6", role="T"), "'T' is not one of"),
        (
            lambda: rigid_mixing_pair({"cprime": {"name": "arithmetic", "step": 0}}),
            "$.cprime.step: 0 is less than the minimum of 1",
        ),
    ],
    ids=["chacon-r", "staircase-arg", "odometer-role", "string-r", "float-r",
         "upper-role", "zero-step"],
)
def test_rule_arguments_are_checked_per_rule(call, words):
    with pytest.raises(ValueError) as error:
        call()
    assert words in str(error.value)
