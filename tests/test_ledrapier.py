import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ergolab.ledrapier import (
    MAX_ROW_BITS,
    SiteFunctional,
    base_event,
    event_measure,
    identity_holds,
    pair_measure,
    shift_functional,
    site_functional,
    symdiff_identity_check,
    triple_measure,
    xor_functionals,
)
from oracles import gf2_submask_measure, gf2_window_measure


def _reduces_to(a: int, b: int, columns) -> bool:
    """Whether x[a, b] is the XOR of x[c, 0] over the row-0 columns given.

    The row-0 bits are independent fair coins, so {x[a, b] + sum x[c, 0] = 1}
    is empty exactly when the sum vanishes identically, and the columns that
    make it vanish are unique.
    """
    sites = frozenset((c, 0) for c in columns) ^ {(a, b)}
    return event_measure([SiteFunctional(sites, 1)]) == 0


def test_single_site_reduction_spreads_by_binomial_parity():
    # height 2^k expands to exactly the two endpoints of the submask range
    for k in range(0, 7):
        assert _reduces_to(0, 2**k, {0, 2**k})
        assert not _reduces_to(0, 2**k, {0})
    # height 3 has all of 0..3 as submasks
    assert _reduces_to(5, 3, {5, 6, 7, 8})
    assert not _reduces_to(5, 3, {5, 8})


def test_dyadic_family_exact_values():
    for k in range(1, 11):
        z, w = (2**k, 0), (0, 2**k)
        assert pair_measure(z) == Q(1, 4)
        assert pair_measure(w) == Q(1, 4)
        assert triple_measure(z, w) == Q(0)
        assert symdiff_identity_check(k)


def test_base_event_measure_is_half():
    assert event_measure([base_event()]) == Q(1, 2)


def test_pairwise_independent_but_triple_degenerate():
    # the triple intersection vanishes although each pair has product measure
    z, w = (4, 0), (0, 4)
    mu_a = event_measure([base_event()])
    assert pair_measure(z) == mu_a * mu_a
    assert pair_measure(w) == mu_a * mu_a
    assert triple_measure(z, w) == Q(0)


def test_mismatched_translations_break_the_identity():
    assert not identity_holds((3, 0), (0, 1))
    assert triple_measure((3, 0), (0, 1)) == Q(1, 8)
    assert not identity_holds((2, 0), (0, 1))


def test_generic_translations_give_independent_pairs():
    rng = random.Random(7)
    seen = set()
    while len(seen) < 20:
        z = (rng.randint(-9, 9), rng.randint(0, 9))
        if z == (0, 0) or z in seen:
            continue
        seen.add(z)
        assert pair_measure(z) == Q(1, 4), z


def test_event_measure_matches_window_enumeration():
    rng = random.Random(20240814)
    checked = 0
    while checked < 25:
        system = []
        for _ in range(rng.randint(1, 3)):
            sites = frozenset(
                (rng.randint(-3, 3), rng.randint(0, 6))
                for _ in range(rng.randint(1, 3))
            )
            system.append(SiteFunctional(sites, rng.randint(0, 1)))
        span = max(a + b for f in system for a, b in f.sites) - min(
            a for f in system for a, _ in f.sites
        )
        if span + 1 > 18:
            continue
        assert event_measure(system) == gf2_window_measure(system)
        checked += 1


def test_measure_is_translation_invariant():
    rng = random.Random(99)
    base = base_event()
    for _ in range(10):
        z = (rng.randint(-5, 5), rng.randint(0, 5))
        w = (rng.randint(-5, 5), rng.randint(0, 5))
        system = [base, shift_functional(base, z), shift_functional(base, w)]
        shift = (rng.randint(-20, 20), rng.randint(0, 8))
        moved = [shift_functional(f, shift) for f in system]
        assert event_measure(moved) == event_measure(system)


def test_inconsistent_and_redundant_systems():
    f = site_functional(2, 1, 0)
    contradiction = SiteFunctional(f.sites, 1)
    assert event_measure([f, contradiction]) == Q(0)
    assert event_measure([f, f]) == Q(1, 2)
    assert event_measure([]) == Q(1)


def test_xor_cancels_shared_sites():
    f = xor_functionals(site_functional(0, 0, 1), site_functional(0, 0, 1))
    assert f.sites == frozenset()
    assert f.constant == 0


def test_sites_below_generating_row_rejected():
    with pytest.raises(ValueError):
        site_functional(0, -1)
    with pytest.raises(ValueError):
        shift_functional(base_event(), (0, -3))


def test_height_of_seventeen_ones_reduces_to_its_whole_span():
    # every k <= 2^17 - 1 is a submask, so all 2^17 row-0 sites survive.
    # Naming them costs a full-width row each; instead, with S the columns
    # of x[0, b], x[1, b] has columns S + 1, and the one finite S whose
    # symmetric difference with S + 1 is {0, 2^17} is 0..2^17 - 1
    b = 2**17 - 1
    sites = frozenset({(0, b), (1, b), (0, 0), (2**17, 0)})
    assert event_measure([SiteFunctional(sites, 1)]) == 0
    assert event_measure([SiteFunctional(sites - {(0, 0)}, 1)]) == Q(1, 2)


def test_heights_past_sixteen_one_bits_are_measured():
    b = 2**20 - 1
    system = [site_functional(0, b, 1), site_functional(1, b), site_functional(3, b, 1)]
    assert event_measure(system) == Q(1, 8)
    assert pair_measure((0, b)) == Q(1, 4)


def test_rows_past_the_width_bound_are_rejected():
    with pytest.raises(ValueError, match=f"spans {MAX_ROW_BITS + 1} row-0 columns"):
        event_measure([site_functional(1, MAX_ROW_BITS)])
    # a lone non-dyadic height keeps its full width after normalization
    with pytest.raises(ValueError, match=f"spans {2**40 + 2} row-0 columns"):
        event_measure([site_functional(0, 2**40 + 1)])
    # the bound is on the laid-out width, not on how far apart sites are
    assert pair_measure((2**40 + 1, 0)) == Q(1, 4)
    assert event_measure([site_functional(0, MAX_ROW_BITS - 1)]) == Q(1, 2)


def test_dyadic_scaling_keeps_rows_narrow():
    for k in (40, 60):
        assert _reduces_to(-(2**k), 3 * 2**k, {j * 2**k for j in (-1, 0, 1, 2)})
        assert symdiff_identity_check(k)


@st.composite
def gf2_systems(draw):
    """Random systems: negative columns, heights of up to 12 one-bits,
    both constants, empty and repeated equations, scaled by 2^j."""
    reach, top_bit = draw(st.sampled_from([(3, 2), (40, 20)]))  # narrow or wide
    heights = st.sets(st.integers(0, top_bit), max_size=12).map(
        lambda bits: sum(1 << i for i in bits)
    )
    sites = st.frozensets(st.tuples(st.integers(-reach, reach), heights), max_size=4)
    equations = draw(st.lists(st.tuples(sites, st.integers(0, 1)), max_size=6))
    if equations:
        equations += draw(st.lists(st.sampled_from(equations), max_size=2))
    j = draw(st.sampled_from([0, 0, 1, 7, 33, 60]))
    return [
        SiteFunctional(frozenset((a << j, b << j) for a, b in sites), constant)
        for sites, constant in equations
    ]


@settings(max_examples=200, deadline=None)
@given(gf2_systems())
def test_event_measure_matches_the_reference_oracles(system):
    measure = event_measure(system)
    assert measure == gf2_submask_measure(system)
    sites = [s for f in system for s in f.sites]
    if sites and max(a + b for a, b in sites) - min(a for a, _ in sites) < 12:
        assert measure == gf2_window_measure(system)


def test_dyadic_identity_is_fast_at_large_k():
    # powers of two keep the expansion at two sites however tall the shift
    assert symdiff_identity_check(40)
    assert triple_measure((2**40, 0), (0, 2**40)) == Q(0)
