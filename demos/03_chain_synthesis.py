"""Synthesizing a chain generator with a prescribed spectrum.

A two-state generator is a one-knob family: theta splits the decay rate
between the two directed rates. For any number of states the builder is the
one reflection-symmetric birth-death chain with the target spectrum, rebuilt
by Lanczos from the spectrum and its spectral measure at state 0; the
spectrum of the result is verified with a dense eigensolver, and the
eigenvectors are scaled so that every coupling tilt stays strictly positive.
"""

import numpy as np

from eigencoupler import (
    auto_grid,
    build_generator,
    decompose,
    make_potential,
    scaled_eigenvectors,
    synth_generator,
    validate_chain,
)
from eigencoupler.chain import ChainSpec, stationary_distribution

# two-state: one decay rate, split by theta
for theta in (0.5, 0.25):
    Q = synth_generator([2.0], theta=theta)
    print(f"theta = {theta}: Q = {Q.tolist()}, stationary = "
          f"{np.round(stationary_distribution(Q), 3)}")
print()

# three-state: eigenvalues taken from an actual triple-well decomposition
pot = make_potential("triple_well")
eps = 0.1
grid = auto_grid(pot, eps, n=400)
gen = build_generator(pot, eps, grid)
dec = decompose(gen, 2)
targets = dec.eigenvalues[1:]
print("triple-well decay rates:", targets)

Q = synth_generator(targets)
print("synthesized birth-death generator:")
print(np.array_str(Q, precision=6, suppress_small=True))
print("dense eigensolve check:", np.sort(np.linalg.eigvals(Q).real))

vectors, scales, min_alpha = scaled_eigenvectors(Q, targets, dec.modes[1:], kappa=0.9)
print("eigenvector scales:", scales, " guaranteed min tilt:", min_alpha)

spec = ChainSpec(Q=Q, rates=targets.copy(), vectors=vectors, scales=scales,
                 p=np.full(3, 1 / 3), min_alpha_bound=min_alpha)
report = validate_chain(spec)
print("structure checks pass:", report.passed)
print("chain stationary distribution:", np.round(report.stationary, 6))

# every distinct positive spectrum builds: the equal-depth triple well
# x^2 (x^2 - 4)^2 / 8 has rate ratio about 2, and its chain puts the
# Freidlin-Wentzell well masses (1/4, 1/2, 1/4) on its states
equal = make_potential([0, 0, 2, 0, -1, 0, 0.125])
grid = auto_grid(equal, eps, n=400)
rates = decompose(build_generator(equal, eps, grid), 2).eigenvalues[1:]
Q = synth_generator(rates)
print(f"\nequal-depth triple well: rate ratio {rates[1] / rates[0]:.4f}, "
      f"stationary = {np.round(stationary_distribution(Q), 4)}")
