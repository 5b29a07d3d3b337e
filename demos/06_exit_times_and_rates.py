"""Exit-time laws and the chain/diffusion rate comparison.

Holding times of the chain are exponential (exactly so in the constant-rate
control, where the time-change clocks are depleted linearly), and mean exit
times are available three ways: exact linear solves on the chain and on the
grid generator, and Monte Carlo first hits of a ball around the destination
well.
"""

import numpy as np

from eigencoupler import (
    EnsembleConfig,
    build_pipeline,
    domains_of_attraction,
    exact_exit_times,
    ks_exponential,
    make_potential,
    rate_match_report,
    simulate_ensemble,
)
from eigencoupler.potential import Potential

eps = 0.15
pot = make_potential("double_well")
part = domains_of_attraction(pot)
minima = pot.minima
rho = 0.5
_, gen, _, spec, model = build_pipeline(pot, eps, 1000)

chain_t, ref = exact_exit_times(spec.Q, gen, minima, rho)[0, 1]
print(f"chain E[tau 0->1] = {chain_t:.3f} (= 1/Q01 exactly)")
print(f"grid-generator E[tau] into the rho-ball = {ref:.3f}")

ensembles = {}
for i, x0 in enumerate(minima):
    other = minima[1 - i]
    cfg = EnsembleConfig(n_paths=400, dt=1e-3, horizon=round(15 * ref, 1),
                         eps=eps, seed=40 + i, initial_kind="fixed",
                         x0=float(x0), y0=i, store_stride=100,
                         absorb=(other - rho, other + rho))
    ensembles[i] = simulate_ensemble(cfg, model, pot, spec)

report = rate_match_report(ensembles, spec.Q, part, rho, gen, minima)
print()
print(report.to_text())
print()
print("note:", report.note)

# exponentiality of chain holding times in the constant-rate control
ctrl_pot = Potential(np.array([0.0, 0.0, 1.0]), name="x^2")
*_, ctrl_spec, ctrl_model = build_pipeline(ctrl_pot, 0.5, 400, kappa=0.0, p=(1.0, 0.0))
q01 = ctrl_spec.Q[0, 1]
cfg = EnsembleConfig(n_paths=4000, dt=4e-3, horizon=round(12 / q01, 2), eps=0.5,
                     seed=7, initial_kind="fixed", x0=0.0, y0=0, store_stride=500)
recs = simulate_ensemble(cfg, ctrl_model, ctrl_pot, ctrl_spec)
taus = np.array([r.jumps[0][0] for r in recs if r.jumps])
res = ks_exponential(taus, n_bootstrap=500, seed=3)
print(f"\nholding-time KS: D = {res.statistic:.4f} vs bootstrap 5% critical "
      f"{res.critical_bootstrap:.4f} -> "
      f"{'consistent with exponential' if not res.rejected else 'rejected'}")
