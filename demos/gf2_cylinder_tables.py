#!/usr/bin/env python3
"""Exact cylinder measures for the GF(2) plane shift.

The configuration space is sections of the two-dimensional shift whose rows
obey x[a, b+1] = x[a, b] XOR x[a+1, b]; every site above the generating row
reduces to an XOR of row-0 sites.  Measures of finite intersections are then
2^-rank of a small GF(2) system, computed exactly.

The punchline table: translated copies of the base event are pairwise
independent (measure 1/4) for any pair of shifts, yet the dyadic triples
A ∩ T_z A ∩ T_w A with z = (2^k, 0), w = (0, 2^k) have measure exactly zero.
Pairwise independence without independence, to unlimited shift heights.
"""
from ergolab import base_event, event_measure, pair_measure, triple_measure
from ergolab.ledrapier import identity_holds

a = base_event()
print(f"mu(A) = {event_measure([a])}")
print()
print(" k   pair (2^k,0)  pair (0,2^k)  triple   A Δ T_z A = T_w A?")
for k in (1, 2, 3, 5, 8, 10, 20, 40):
    z, w = (2**k, 0), (0, 2**k)
    print(
        f"{k:2d}   {str(pair_measure(z)):>10}  {str(pair_measure(w)):>10}"
        f"   {str(triple_measure(z, w)):>5}   {identity_holds(z, w)}"
    )

print()
print("non-dyadic shifts break the coincidence:")
for z, w in [((3, 0), (0, 1)), ((2, 0), (0, 1))]:
    print(
        f"  z={z}, w={w}: triple = {triple_measure(z, w)},"
        f" identity holds: {identity_holds(z, w)}"
    )
