#!/usr/bin/env python3
"""Cesàro conjugation defect and its two certified majorants.

U is a 64-dimensional block-rotation with irrational turns, S = I + K a
rank-2 rotation of one coordinate plane.  The quantity of interest is

    defect(N) = || f - (1/N) Σ_{i=1..N} U^-i S U^i f ||

which the library bounds by majorant1 = (1/N) Σ ||K U^i f|| and the cruder
majorant2 = (2/N) Σ ||π U^i f|| (π projects onto the perturbed plane).

Two observables make the story:
- a generic unit vector keeps ~1/3 of its mass rotating through the plane,
  so the chain is wide and nothing decays;
- the calibrated observable carries exactly delta = 0.02 of plane mass, so
  majorant2 pins at 2*delta = 0.04 for every N while the true defect sits
  two orders below it.
"""
from ergolab import (
    FiniteRankPerturbation,
    conjugate_defect,
    make_rotation_operator,
)
from ergolab.operators import random_unit_vector, vector_with_plane_mass

dim = 64
op = make_rotation_operator(dim)
pert = FiniteRankPerturbation(dim, 6, 7, angle=0.5)

print("generic observable:")
f = random_unit_vector(dim, seed=30)
for n in (10, 100, 1000):
    d = conjugate_defect(op, pert, f, n)
    print(
        f"  N={n:5d}  defect {d.defect:.6f}  <= {d.majorant1:.6f}"
        f"  <= {d.majorant2:.6f}"
    )

print()
print("calibrated observable (plane mass exactly 0.02):")
f = vector_with_plane_mass(dim, pert, delta=0.02, seed=5)
plane_mass = pert.plane_component_norm(f)
print(f"  check: projected mass = {plane_mass:.6f}")
for n in (10, 100, 1000, 10000):
    d = conjugate_defect(op, pert, f, n)
    print(
        f"  N={n:5d}  defect {d.defect:.6f}  <= {d.majorant1:.6f}"
        f"  <= {d.majorant2:.6f}"
    )
print("  majorant2 never moves: it equals twice the plane mass.")
