"""Named constructions, the paired generator and JSON construction descriptors."""
from __future__ import annotations

from fractions import Fraction

import pytest

from ergolab.tower import (
    GenerationError,
    LevelSet,
    build_stage,
    correlation_interval,
    level_set_measure,
    symdiff_interval,
)
from ergolab.constructions import (
    builtin_params,
    chacon,
    odometer,
    params_from_spec,
    rigid_mixing_pair,
    staircase,
)

Q = Fraction


def test_pair_shares_heights_and_interleaves_times():
    pair = rigid_mixing_pair()
    for j in range(14):
        assert (
            build_stage(pair.t_params, j).height
            == build_stage(pair.s_params, j).height
        )
    c_times = [pair.time_at(j) for j in range(1, 13, 2)]
    d_times = [pair.time_at(j) for j in range(0, 13, 2)]
    assert c_times[:2] == [73, 236133]
    assert d_times[:2] == [3, 3373]
    assert not set(c_times) & set(d_times)
    merged = sorted(c_times + d_times)
    assert merged == [pair.time_at(j) for j in range(13)]
    for j in range(13):
        assert pair.time_at(j) > 2 * build_stage(pair.t_params, j).height


def test_pair_spacer_shapes():
    pair = rigid_mixing_pair()
    for j in range(6):
        r = pair.cuts_at(j)
        s = pair.time_at(j) - build_stage(pair.t_params, j).height
        t_r, t_spacers = pair.t_params.stage_data(j)
        s_r, s_spacers = pair.s_params.stage_data(j)
        assert t_r == s_r == r
        uniform, doubled = (t_spacers, s_spacers) if j % 2 else (s_spacers, t_spacers)
        assert uniform == (s,) * (r - 1) + ((r - 1) * s,)
        assert doubled == (2 * s,) * (r - 1) + (0,)


def test_pair_certified_ratios_at_next_stage():
    # At the time materialized by an odd stage j the rigid-side symmetric
    # difference is exactly 2/r_j of the level measure and the other map's
    # correlation upper bound is exactly 1/r_j; even stages swap the roles.
    pair = rigid_mixing_pair()
    for j in (1, 5, 9):
        c = pair.time_at(j)
        r = pair.cuts_at(j)
        a = LevelSet(j, (0,))
        mu = level_set_measure(pair.t_params, a)
        sym = symdiff_interval(pair.t_params, c, a, j + 1)
        assert sym.lo == sym.hi == Q(2, r) * mu
        corr = correlation_interval(pair.s_params, c, a, a, j + 1)
        assert corr.lo == 0 and corr.hi == Q(1, r) * mu
    for j in (8, 10):
        d = pair.time_at(j)
        r = pair.cuts_at(j)
        a = LevelSet(j, (0,))
        mu = level_set_measure(pair.s_params, a)
        assert symdiff_interval(pair.s_params, d, a, j + 1).hi == Q(2, r) * mu
        assert correlation_interval(pair.t_params, d, a, a, j + 1).hi == Q(1, r) * mu


def test_pair_interval_nests_one_stage_deeper():
    pair = rigid_mixing_pair()
    j = 3
    c = pair.time_at(j)
    a = LevelSet(j, (0,))
    near = correlation_interval(pair.t_params, c, a, a, j + 1)
    deep = correlation_interval(pair.t_params, c, a, a, j + 2)
    assert near.lo <= deep.lo and deep.hi <= near.hi


def test_generate_from_raw_streams():
    # naturals for both streams and r_j = j + 2 cuts
    pair = rigid_mixing_pair({"cuts": {"name": "affine", "scale": 1, "offset": 2}})
    c0, c1 = pair.time_at(1), pair.time_at(3)
    d0 = pair.time_at(0)
    assert d0 == 3  # h_0 = 1, least admissible even-stage time
    h1 = build_stage(pair.t_params, 1).height
    assert h1 == 2 * 1 + 2 * 1 * 2 == 6  # r_0 = 2, s_0 = 2
    assert c0 == 2 * h1 + 1 == 13
    assert build_stage(pair.s_params, 1).height == h1
    assert c1 > c0


def test_generation_error_on_exhausted_stream():
    pair = rigid_mixing_pair({"cprime": {"name": "explicit", "values": [3]}})
    with pytest.raises(GenerationError):
        pair.time_at(1)


def test_builtin_pair_roles_share_one_generator():
    t = builtin_params("theorem6", role="t")
    s = builtin_params("theorem6", role="s")
    for j in range(5):
        assert build_stage(t, j).height == build_stage(s, j).height


def test_params_from_spec_named_and_explicit():
    named = [
        ({"rule": {"name": "chacon"}}, chacon()),
        ({"rule": {"name": "odometer", "args": {"r": 3}}}, odometer(3)),
        ({"initial_width": "1", "rule": {"name": "staircase"}}, staircase()),
        (
            {"rule": {"name": "theorem6", "args": {"role": "t"}}},
            builtin_params("theorem6", role="t"),
        ),
    ]
    for spec, p in named:
        q = params_from_spec(spec)
        assert (q.initial_width, q.initial_height) == (p.initial_width, p.initial_height)
        for j in range(4):
            assert q.stage_data(j) == p.stage_data(j)
    # an explicit geometry rebuilds the named rule on it
    taller = params_from_spec({"initial_height": 2, "rule": {"name": "chacon"}})
    assert (taller.rule, taller.name) == (chacon().rule, "chacon")
    assert [build_stage(taller, j).height for j in range(3)] == [2, 7, 22]
    explicit = params_from_spec(
        {
            "initial_width": "1/2",
            "stages": [{"r": 2, "spacers": [0, 1]}, {"r": 3, "spacers": [2, 0, 1]}],
        }
    )
    assert explicit.initial_width == Q(1, 2)
    assert [explicit.stage_data(j) for j in range(2)] == [(2, (0, 1)), (3, (2, 0, 1))]


def test_serialization_rejects_bad_specs():
    with pytest.raises(ValueError):
        params_from_spec({"rule": {"name": "nope"}})
    with pytest.raises(ValueError, match="'rule' is a required property"):
        params_from_spec({})
    with pytest.raises(ValueError):
        builtin_params("mystery")


def test_explicit_stream_spec_must_increase():
    with pytest.raises(ValueError):
        rigid_mixing_pair({"cprime": {"name": "explicit", "values": [5, 5]}})


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: builtin_params("theorem6", bogus=1), "'bogus'"),
        (
            lambda: params_from_spec(
                {"stages": [{"r": 2, "spacers": [0, 0], "s": 1}]}
            ),
            "'s'",
        ),
        (
            lambda: params_from_spec(
                {"rule": {"name": "chacon", "arg": {}}}
            ),
            "'arg'",
        ),
    ],
    ids=["theorem6-args", "stage", "rule"],
)
def test_unknown_descriptor_keys_are_rejected(call, key):
    with pytest.raises(ValueError, match=key):
        call()
