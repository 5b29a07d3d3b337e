"""Potential landscapes and their well structure.

Walk through the built-in polynomial potentials: locate minima and maxima,
partition the line into domains of attraction, and read off the growth
conditions that the coupling pipeline relies on.
"""

import numpy as np

from eigencoupler import (
    domains_of_attraction,
    make_potential,
    preset_names,
    validate_assumptions,
)

print("available presets:", ", ".join(preset_names()))
print()

for name in ("double_well", "tilted_double_well", "triple_well"):
    pot = make_potential(name)
    part = domains_of_attraction(pot)
    growth = validate_assumptions(pot)
    print(f"== {name} (degree {pot.degree}) ==")
    print("  minima :", np.round(pot.minima, 6))
    print("  maxima :", np.round(pot.maxima, 6))
    print("  wells  :", [f"({lo:.3g}, {hi:.3g})" for lo, hi in part.intervals])
    print(f"  growth : a1 = a2 = {growth.a1:g}, gap condition "
          f"{'holds' if growth.passed else 'FAILS'}")
    print()

# a quadratic well fails the gap condition: it is reserved for
# spectral-validation runs and refused by the coupling pipeline
quad = make_potential("quadratic")
growth = validate_assumptions(quad)
print(f"quadratic: a1 = {growth.a1:g}, gap condition holds: {growth.exponent_gap_ok}")

# the flow map is never integrated in production code, but it is easy to
# check numerically that every starting point relaxes into the well that the
# partition predicts
pot = make_potential("triple_well")
part = domains_of_attraction(pot)
rng = np.random.default_rng(1)
x = rng.uniform(-2.5, 2.5, 8)
phi = x.copy()
for _ in range(200000):
    phi -= 1e-3 * pot.grad(phi)
print("\ngradient-flow spot check (start -> limit -> predicted well):")
for x0, xf, j in zip(x, phi, part.locate(x)):
    print(f"  {x0:+.3f} -> {xf:+.6f}   well {j} at {pot.minima[j]:+.1f}")
