"""The exact conditional-law identity, verified to machine precision.

The coupled pair evolves under a joint generator: a diffusion block per chain
state plus state-dependent jump rates q_ij(x) = Q_ij * tilt_j(x) / tilt_i(x).
Because the discrete generator satisfies the eigenfunction relations exactly,
two strong statements hold at every time, not asymptotically:

  * conditioned on the chain sitting in state j, the diffusion's law is
    exactly tilt_j(x) * stationary weights, and
  * the chain marginal is exactly the bare chain law p exp(Qt).

check_oracle checks both from one uniformization of the joint generator,
and a deliberately corrupted coupling shows the check has teeth.
"""

import dataclasses

from eigencoupler import build_joint_generator, build_pipeline, check_oracle

_, gen, _, spec, model = build_pipeline("double_well", 0.1, 200)
B = build_joint_generator(model, gen)
times = (0.1, 1.0, 10.0)

rep, marg = check_oracle(B, model, spec.p, times)
print("conditional-law TV by (time, state):")
for t, j, tv in rep.entries:
    print(f"  t = {t:5g}  state {j}:  TV = {tv:.3e}")
print(f"max TV = {rep.max_tv:.3e}  (identity holds to machine precision)\n")

print(f"chain-marginal max l1 = {marg.max_l1:.3e}\n")

# negative control: a 1% error in one eigenvector entry breaks the identity
# by four orders of magnitude more than the verification threshold
vec = spec.vectors.copy()
vec[0, 0] *= 1.01
broken = dataclasses.replace(model, vectors=vec)   # tilts and rates follow
B_bad = build_joint_generator(broken, gen)
bad, _ = check_oracle(B_bad, broken, spec.p, times)
print(f"with a 1%-perturbed eigenvector: max TV = {bad.max_tv:.3e} "
      f"({bad.max_tv / max(rep.max_tv, 1e-300):.1e} times the clean run)")
