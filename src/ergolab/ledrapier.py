"""Exact cylinder measures for the GF(2) three-dot shift system.

Configurations are 0/1 fields on the upper half-plane lattice subject to
x[a,b] + x[a+1,b] + x[a,b+1] = 0 at every site.  Row b = 0 is a free i.i.d.
fair-coin row and determines all rows above it, so any finite linear event
reduces to a system over row-0 bits; its measure is 0 when the system is
inconsistent and 2^-rank otherwise.  The reduction of a single site follows
the parity of binomial coefficients: x[a,b] is the XOR of x[a+k,0] over the
submasks k of b, so a height that is a power of two spreads a site into
exactly two row-0 bits.

Every equation becomes one Python int over the row-0 columns, and one
kernel serves `event_measure` and `identity_holds`.
By Lucas's theorem the submasks of b form row b of Pascal's triangle mod
2, a mask built by one shift per one-bit of b.  Coordinates are divided by
their common power of two and the site intervals [a, a + b] are laid end to
end, so the cost is the laid-out width, not 2^popcount(b) or the distance
between sites.  A system is accepted when its laid-out row fits in
MAX_ROW_BITS columns.  That covers every dyadic family (2^k, 0), (0, 2^k),
however large k, and heights of any popcount up to the bound, such as
2^20 - 1.  A wider system, such as the lone site (0, 2^40 + 1), raises
ValueError naming its width.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

__all__ = [
    "MAX_ROW_BITS",
    "SiteFunctional",
    "site_functional",
    "base_event",
    "shift_functional",
    "xor_functionals",
    "event_measure",
    "identity_holds",
    "symdiff_identity_check",
    "pair_measure",
    "triple_measure",
]

# widest laid-out row a system may reduce to; a row is one Python int
MAX_ROW_BITS = 1 << 22


@dataclass(frozen=True)
class SiteFunctional:
    """A GF(2) equation: XOR of the named sites equals `constant`."""

    sites: frozenset
    constant: int = 0

    def __post_init__(self) -> None:
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")
        for a, b in self.sites:
            if b < 0:
                raise ValueError(
                    "sites below the generating row are not reducible to it"
                )


def site_functional(a: int, b: int, constant: int = 0) -> SiteFunctional:
    return SiteFunctional(frozenset([(int(a), int(b))]), constant)


def base_event() -> SiteFunctional:
    """The event {x[0,0] = 1} every canonical family is built from."""
    return site_functional(0, 0, 1)


def shift_functional(f: SiteFunctional, z: Sequence[int]) -> SiteFunctional:
    """Pullback along the shift: site (a, b) moves to (a + z0, b + z1)."""
    da, db = int(z[0]), int(z[1])
    return SiteFunctional(
        frozenset((a + da, b + db) for a, b in f.sites), f.constant
    )


def xor_functionals(*fs: SiteFunctional) -> SiteFunctional:
    sites: set = set()
    constant = 0
    for f in fs:
        sites ^= f.sites
        constant ^= f.constant
    return SiteFunctional(frozenset(sites), constant)


def _lucas_row(b: int) -> int:
    """Row b of Pascal's triangle mod 2 as a mask: bit k is C(b, k) mod 2.

    By Lucas's theorem C(b, k) is odd exactly when k is a submask of b, so
    each one-bit 2^i of b doubles the mask by a shift of 2^i.
    """
    mask = 1
    while b:
        low = b & -b
        mask |= mask << low
        b ^= low
    return mask


def _bit_rows(system: Sequence[SiteFunctional]):
    """Reduce a system to integer bit-rows over its row-0 columns.

    Coordinates are first divided by 2^v, the largest power of two dividing
    every a and b: the submasks of 2^v b' are 2^v times those of b', so this
    is a bijection on the columns used.  The site intervals [a, a + b] are
    then merged and laid end to end, so far-apart sites cost no width.
    Returns one (row, constant) per equation.
    """
    sites: set = set()
    for f in system:
        sites |= f.sites
    common = 0
    for a, b in sites:
        common |= a | b
    v = (common & -common).bit_length() - 1 if common else 0
    spans: list = []  # [first column, last column] of each merged interval
    start = {}
    for a, b in sorted(sites):
        a, top = a >> v, (a + b) >> v
        if spans and a <= spans[-1][1] + 1:
            if top > spans[-1][1]:
                spans[-1][1] = top
        else:
            spans.append([a, top])
        start[a] = len(spans) - 1
    layout = []  # (bit offset, first column) of each interval
    width = 0
    for lo, hi in spans:
        layout.append((width, lo))
        width += hi - lo + 1
    if width > MAX_ROW_BITS:
        raise ValueError(
            f"system spans {width} row-0 columns, the bound is {MAX_ROW_BITS}"
        )
    mask = {}
    for a, b in sites:
        offset, lo = layout[start[a >> v]]
        mask[a, b] = _lucas_row(b >> v) << (offset + (a >> v) - lo)
    rows = []
    for f in system:
        row = 0
        for site in f.sites:
            row ^= mask[site]
        rows.append((row, f.constant))
    return rows


def event_measure(system: Iterable[SiteFunctional]) -> Fraction:
    """Exact measure of the intersection event of a finite equation system."""
    pivots: dict = {}  # lowest bit -> (row, constant)
    for row, constant in _bit_rows(list(system)):
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (row, constant)
                break
            row ^= pivot[0]
            constant ^= pivot[1]
        if not row and constant:
            return Q(0)
    return Q(1, 2 ** len(pivots))


def identity_holds(z: Sequence[int], w: Sequence[int]) -> bool:
    """Whether {x0 = 1} equals the symmetric difference of its z and w shifts.

    With all three right-hand sides equal to 1 the indicator identity is
    equivalent to the combined form x[0,0] + x[z] + x[w] vanishing on every
    configuration, i.e. reducing to the empty equation.
    """
    base = base_event()
    combined = xor_functionals(
        base, shift_functional(base, z), shift_functional(base, w)
    )
    [(row, _)] = _bit_rows([combined])
    return row == 0


def symdiff_identity_check(k: int) -> bool:
    """Identity check for the dyadic pair (2^k, 0), (0, 2^k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return identity_holds((2**k, 0), (0, 2**k))


def pair_measure(z: Sequence[int]) -> Fraction:
    base = base_event()
    return event_measure([base, shift_functional(base, z)])


def triple_measure(z: Sequence[int], w: Sequence[int]) -> Fraction:
    base = base_event()
    return event_measure(
        [base, shift_functional(base, z), shift_functional(base, w)]
    )
