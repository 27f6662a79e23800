"""The construction descriptors: every `spec` or `pair` the schema accepts
builds or fails with a library error, and so does any one-node corruption.
The stdlib schema check gives jsonschema's verdict on every such value, and
on every catalogue config, and words each rejection as jsonschema's
`best_match` does.

`from_schema` draws values valid under DESCRIPTOR_DEFS and the catalogue's
params schemas.  It reads only the keywords those schemas use, and every
bound it draws within comes from the schema.
"""
from __future__ import annotations

import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ergolab import constructions
from ergolab.constructions import (
    _KEYWORDS,
    _TYPES,
    DESCRIPTOR_DEFS,
    MAX_CUTS,
    _def_schema,
    _equal,
    builtin_params,
    json_path,
    odometer,
    params_from_spec,
    rigid_mixing_pair,
    schema_error,
)
from ergolab.experiments import _CATALOGUE, ConfigError, resolve_config
from ergolab.tower import ConstructionExhaustedError, GenerationError, build_stage

LIBRARY_ERRORS = (ValueError, GenerationError, ConstructionExhaustedError)


def from_schema(schema: dict) -> st.SearchStrategy:
    """Values valid under `schema`: a def of DESCRIPTOR_DEFS, a catalogue
    params schema, or a part of one."""
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
        return st.lists(
            from_schema(schema["items"]),
            min_size=schema.get("minItems", 0),
            max_size=schema.get("maxItems"),
        )
    if kind == "integer":
        return st.integers(schema.get("minimum"), schema.get("maximum"))
    if kind == "number":
        exclusive = "exclusiveMinimum" in schema
        return st.floats(
            schema["exclusiveMinimum"] if exclusive else schema.get("minimum"),
            schema.get("maximum"),
            exclude_min=exclusive,
            allow_nan=False,
            allow_infinity=False,
        )
    if kind == "string":
        return st.from_regex(schema["pattern"], fullmatch=True)
    raise NotImplementedError(schema)


def _object(schema: dict, name=None, require=(), omit=()) -> st.SearchStrategy:
    """A closed object: its required keys, any of the others, and `name` if given."""
    props = {k: v for k, v in schema["properties"].items() if v is not True}
    required = set(schema.get("required", ())) | set(require)
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
    assert oracles.schema_validator_class()(_def_schema(kind)).is_valid(descriptor)
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


def _drawn_value(target: str, data):
    """A valid value for `target` (a descriptor def, or a catalogue entry whose
    drawn params are merged over its defaults) and its schema."""
    if target in DESCRIPTOR_DEFS:
        return data.draw(from_schema(DESCRIPTOR_DEFS[target])), _def_schema(target)
    spec = _CATALOGUE[target]
    return spec.defaults | data.draw(from_schema(spec.params_schema)), spec.params_schema


def assert_checked_as_jsonschema_checks(schema: dict, value) -> None:
    """The stdlib check gives jsonschema's verdict, and on a rejection the
    path and message of jsonschema's best match."""
    got, want = schema_error(schema, value), oracles.best_schema_error(schema, value)
    assert (got is None) is (want is None)
    if want is not None:
        path, message = got
        assert (json_path(path), message, len(path)) == (
            want.json_path, want.message, len(want.path)
        )


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([*DESCRIPTOR_DEFS, *_CATALOGUE]), st.booleans(), st.data())
def test_stdlib_check_gives_jsonschemas_verdict(target, corrupt, data):
    value, schema = _drawn_value(target, data)
    if corrupt:
        path = data.draw(st.sampled_from(list(_nodes(value))))
        node = value
        for key in path:
            node = node[key]
        value = _replaced(value, path, data.draw(_stand_ins(node)))
    assert_checked_as_jsonschema_checks(schema, value)
    assert corrupt or schema_error(schema, value) is None


def _schema_nodes(schema):
    """Every (keyword, argument) pair in `schema` and its subschemas."""
    if isinstance(schema, bool):
        return
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword in ("properties", "$defs"):
            subschemas = arg.values()
        elif keyword == "allOf":
            subschemas = arg
        elif keyword in ("items", "not", "if", "then", "else", "additionalProperties"):
            subschemas = [arg]
        else:
            subschemas = []
        for sub in subschemas:
            yield from _schema_nodes(sub)


def test_stdlib_check_reads_exactly_the_keywords_the_schemas_use():
    nodes = [
        node
        for schema in [spec.params_schema for spec in _CATALOGUE.values()]
        + [{"$defs": DESCRIPTOR_DEFS}]
        for node in _schema_nodes(schema)
    ]
    assert {keyword for keyword, _ in nodes} == set(_KEYWORDS)
    assert {arg for keyword, arg in nodes if keyword == "type"} == set(_TYPES)
    with pytest.raises(NotImplementedError, match="uniqueItems"):
        schema_error({"type": "array", "uniqueItems": True}, [1, 1])
    with pytest.raises(NotImplementedError, match="additionalProperties"):
        schema_error({"additionalProperties": {"type": "integer"}}, {"k": 1})


def _params(name: str, **params) -> tuple:
    spec = _CATALOGUE[name]
    return spec.params_schema, spec.defaults | params


def _spec(**spec) -> tuple:
    return _def_schema("spec"), spec


_CHACON = {"name": "chacon"}


@pytest.mark.parametrize(
    "schema, value, valid",
    [
        (*_params("build", depth=True), False),
        (*_params("build", depth=3.0), False),
        (*_params("ledrapier", k_max=10**400), False),
        (*_params("theorem1", bound=0), False),
        (*_params("eq1-sweep", delta=1), True),
        (*_params("eq1-sweep", angle=math.nan), False),
        (*_params("eq1-sweep", angle=math.inf), False),
        (*_params("eq1-sweep", ns=(100,)), False),
        (*_spec(initial_width="0/1", rule=_CHACON), False),
        (*_spec(initial_width="01/02", rule=_CHACON), True),
        (*_spec(initial_width=" 1", rule=_CHACON), False),
        # re.search's `$` matches before a final newline
        (*_spec(initial_width="1\n", rule=_CHACON), True),
        (*_spec(stages=[], rule=_CHACON), False),
        (*_spec(), False),
        (_def_schema("rule"), {"name": "odometer", "args": {}}, True),
        # the wording: minItems 1, 2 and maxItems; extra keys sorted
        (*_params("eq1-sweep", ns=[]), False),
        (*_params("eq1-sweep", plane=[6]), False),
        (*_params("eq1-sweep", plane=[5, 6, 7]), False),
        (*_spec(rule=_CHACON, b=1, a=2), False),
        # which error is reported: the shallowest, then the greatest path, then
        # one from a schema whose type the value fails (`else` has none)
        (*_spec(stages=[{"r": 1}], bogus=1), False),
        (*_params("correlate", a_lo=-1, b_hi=-1), False),
        (*_spec(bogus=1), False),
    ],
    ids=["bool-depth", "float-depth", "huge-k-max", "zero-bound", "unit-delta", "nan-angle",
         "inf-angle", "tuple-ns", "zero-width", "padded-width", "spaced-width",
         "newline-width", "stages-and-rule", "neither", "odometer-no-args", "empty-ns",
         "short-plane", "long-plane", "two-extra-keys", "shallow-over-deep",
         "greater-path", "untyped-over-typed"],
)
def test_stdlib_check_matches_jsonschema_on_edge_cases(schema, value, valid):
    assert (schema_error(schema, value) is None) is valid
    assert_checked_as_jsonschema_checks(schema, value)


@given(JSON, JSON)
def test_stdlib_enum_equality_is_jsonschemas(one, two):
    # a bool equals no number, and 1 equals 1.0, also inside lists and objects
    from jsonschema._utils import equal

    for a, b in ((one, two), ([one, True], [one, 1]), ([one, {"k": 1}], [one, {"k": 1.0}])):
        assert _equal(a, b) == equal(a, b)


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
        params_from_spec({"rule": rule})
    stages = [{"r": 10**9, "spacers": [0]}]
    with pytest.raises(ValueError, match=f"maximum of {MAX_CUTS}"):
        params_from_spec({"stages": stages})
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


RULE_ARGUMENT_CASES = {
    "chacon-r": (lambda: builtin_params("chacon", r=3), "'r' was unexpected"),
    "staircase-arg": (lambda: builtin_params("staircase", bogus=1), "'bogus' was unexpected"),
    "odometer-role": (lambda: builtin_params("odometer", role="s"), "'role' was unexpected"),
    "string-r": (lambda: builtin_params("odometer", r="3"), "'3' is not of type 'integer'"),
    "float-r": (lambda: builtin_params("odometer", r=3.0), "3.0 is not of type 'integer'"),
    "upper-role": (lambda: builtin_params("theorem6", role="T"), "'T' is not one of"),
    "zero-step": (
        lambda: rigid_mixing_pair({"cprime": {"name": "arithmetic", "step": 0}}),
        "$.cprime.step: 0 is less than the minimum of 1",
    ),
}


@pytest.mark.parametrize(
    "call, words", RULE_ARGUMENT_CASES.values(), ids=list(RULE_ARGUMENT_CASES)
)
def test_rule_arguments_are_checked_per_rule(call, words):
    with pytest.raises(ValueError) as error:
        call()
    assert words in str(error.value)


def test_rejections_are_worded_without_jsonschema(monkeypatch):
    def messages():
        texts = []
        for call, words in RULE_ARGUMENT_CASES.values():
            with pytest.raises(ValueError, match=re.escape(words)) as error:
                call()
            texts.append(str(error.value))
        config = {"experiment": "build", "params": {"spec": {"stages": [{"r": 1}]}}}
        with pytest.raises(ConfigError) as error:
            resolve_config(config)
        return texts + [str(error.value)]

    expected = messages()
    blocked = [name for name in sys.modules if name.split(".")[0] == "jsonschema"]
    for name in {"jsonschema", *blocked}:
        monkeypatch.setitem(sys.modules, name, None)
    assert messages() == expected
    assert expected[-1] == (
        "invalid params for 'build' at $.spec.stages[0]: 'spacers' is a required property"
    )
    assert all(sys.modules[name] is None for name in {"jsonschema", *blocked})


@pytest.mark.parametrize(
    "call",
    [
        lambda: params_from_spec({"rule": {"name": "theorem6", "args": {"role": "s"}}}),
        lambda: builtin_params("theorem6", role="s"),
        lambda: rigid_mixing_pair({}),
    ],
    ids=["spec", "rule", "pair"],
)
def test_a_descriptor_is_checked_once_per_call(call, monkeypatch):
    # the outermost entry point checks the whole descriptor; the rule or pair
    # inside it is then built unchecked
    calls = []

    def counted(schema, value):
        calls.append(value)
        return schema_error(schema, value)

    monkeypatch.setattr(constructions, "schema_error", counted)
    call()
    assert len(calls) == 1
