"""Coupled Monte Carlo paths and the tracking diagnostic.

Paths of the diffusion are integrated by Euler-Maruyama; the chain rides
along via per-pair unit-rate exponential clocks depleted by the integrated
jump rates. Every path owns its own counter-based stream, so the ensemble is
reproducible bit for bit regardless of chunking.

The tracking probability P(X(t) in D_j | Y(t) = j) measures how well the
chain state observes the diffusion's current well; its exact value is an
integral of the conditional law, and it grows as the noise shrinks.

One EnsembleConfig serves all three noise levels: each level runs at its
coupling model's eps and draws its starts from the model's initial law, and
simulate_ensembles advances the levels in lockstep on one draw of each
path's noise. Each level equals what simulate_ensemble gives it alone.
"""

from eigencoupler import (
    EnsembleConfig,
    build_pipeline,
    domains_of_attraction,
    make_potential,
    simulate_ensembles,
    tracking_probability,
    tv_distance,
)

pot = make_potential("double_well")
part = domains_of_attraction(pot)

pipes = [build_pipeline(pot, eps, 1000) for eps in (0.15, 0.10, 0.07)]
cfg = EnsembleConfig(n_paths=3000, dt=2e-4, horizon=1.0, seed=71, store_stride=500)
levels = simulate_ensembles(cfg, [pipe.model for pipe in pipes], pot)

for (*_, spec, model), ens in zip(pipes, levels):
    eps = model.eps
    out = tracking_probability(ens, part, 1.0, model)
    print(f"eps = {eps:g}: {len(ens)} paths, {len(ens.jump_t)} chain jumps, "
          f"gap = {spec.rates[0]:.4f}")
    for j, (est, oracle_val) in out.items():
        print(f"  state {j}: oracle {oracle_val:.4f}, "
              f"MC {est.point:.4f} +- {est.se:.4f}")

    # every path's x and y at the horizon, one column each
    xT, yT = ens.x[-1], ens.y_at(cfg.horizon)
    tv = max(tv_distance(xT[yT == j], model.cond[j], model.grid_nodes, bins=50)
             for j in (0, 1))
    print(f"  end-time conditional histogram TV = {tv:.3f} "
          f"(pure sampling noise at this ensemble size)")
    print()

print("the oracle tracking value rises toward (1 + kappa)/2 as eps shrinks;")
print("pushing it to one is a property of how the coupling family is chosen")
print("across noise levels, which this package reports but does not assert.")
