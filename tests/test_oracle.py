import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from eigencoupler.coupling import build_joint_generator, build_pipeline
from eigencoupler.errors import UnreachableTargetError
from eigencoupler.oracle import (
    _EPS,
    _MASS_TOL,
    _MAX_RATE_STEP,
    _depth_cap,
    _poisson_weights,
    _uniformize,
    DistributionVector,
    check_oracle,
    evolve_distribution,
    mean_exit_times,
)

TIMES = (0.1, 1.0, 10.0)


def test_evolve_time_zero_identity():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    nu = evolve_distribution(Q, np.array([1.0, 0.0]), 0.0)
    np.testing.assert_array_equal(nu.weights, [1.0, 0.0])
    assert nu.time == 0.0


def test_evolve_two_state_closed_form():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    nu = evolve_distribution(Q, np.array([1.0, 0.0]), 1.0)
    expected = np.array([0.5 + 0.5 * np.exp(-2.0), 0.5 - 0.5 * np.exp(-2.0)])
    np.testing.assert_allclose(nu.weights, expected, atol=1e-10)


def test_evolve_zero_generator():
    Z = sp.csr_matrix(np.zeros((3, 3)))
    nu0 = np.array([0.2, 0.3, 0.5])
    nu = evolve_distribution(Z, nu0, 5.0)
    np.testing.assert_array_equal(nu.weights, nu0)


def test_evolve_rejects_mismatched_length():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        evolve_distribution(Q, np.array([0.5, 0.25, 0.25]), 1.0)


def test_poisson_depth_below_cap_where_tolerance_is_floored():
    # a rate-1e5 chain over t = 10 splits into 3907 sub-intervals at
    # rate-time 256, so tol / n_sub = 2.6e-17 lies below ulp(1): the series
    # must stop on the floored tolerance, not on rounding luck, well before
    # the cap, with a tail at the ulp level
    tol = 1e-13
    n_sub = int(np.ceil(1e5 * 10.0 / _MAX_RATE_STEP))
    assert tol / n_sub < _EPS
    a = 1e5 * (10.0 / n_sub)
    weights = _poisson_weights(a, max(tol / n_sub, _EPS))
    assert len(weights) - 1 < _depth_cap(a)
    assert abs(1.0 - sum(weights)) <= 16 * _EPS


def test_evolve_stiff_chain_with_floored_tolerance():
    # the same floored regime end to end (tol / n_sub = 2.5e-17) over 40
    # sub-intervals: the evolution returns with mass inside _MASS_TOL
    tol = 1e-15
    assert tol / np.ceil(1e3 * 10.0 / _MAX_RATE_STEP) < _EPS
    Q = sp.csr_matrix(np.array([[-1e3, 1e3], [1e3, -1e3]]))
    nu = evolve_distribution(Q, np.array([1.0, 0.0]), 10.0, tol=tol)
    assert abs(nu.weights.sum() - 1.0) <= _MASS_TOL
    np.testing.assert_allclose(nu.weights, [0.5, 0.5], atol=_MASS_TOL)


@pytest.mark.parametrize("a", [1.0, 8.0, 64.0, 256.0])
def test_poisson_tail_past_depth_cap_is_negligible(a):
    # the cap's claim covers every sub-interval's rate-time: the Poisson(a)
    # mass past _depth_cap(a) is below 1e-23 up to _MAX_RATE_STEP, whose
    # first weight e^-a is a normal double
    from scipy.stats import poisson
    assert _MAX_RATE_STEP <= 256.0
    assert np.exp(-_MAX_RATE_STEP) >= np.finfo(float).tiny
    assert poisson.sf(_depth_cap(a), a) < 1e-23


def test_evolve_long_horizon_mass_conserved(dw_small, dw_small_joint):
    model = dw_small.model
    nu0 = model.initial_law_for().reshape(-1)
    nu = evolve_distribution(dw_small_joint, nu0, 10.0)
    assert abs(nu.weights.sum() - 1.0) <= 1e-12
    assert np.all(nu.weights >= 0)


def test_stationary_joint_law_is_fixed(dw_small, dw_small_joint):
    from eigencoupler.chain import stationary_distribution
    model = dw_small.model
    p_stat = stationary_distribution(model.Q)
    nu0 = (p_stat[:, None] * model.cond).reshape(-1)
    nu = evolve_distribution(dw_small_joint, nu0, 1.0)
    assert np.max(np.abs(nu.weights - nu0)) <= 1e-10


def test_distribution_vector_validation():
    with pytest.raises(ValueError):
        DistributionVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DistributionVector(np.array([1.5, -0.5]))


def test_conditional_law_decoupled_exact():
    pipe = build_pipeline("double_well", 0.1, 120, kappa=0.0)
    B = build_joint_generator(pipe.model, pipe.gen)
    rep, _ = check_oracle(B, pipe.model, TIMES)
    assert rep.max_tv <= 1e-12


def test_conditional_law_default_double_well(dw_small, dw_small_joint):
    rep, _ = check_oracle(dw_small_joint, dw_small.model, TIMES)
    assert rep.max_tv <= 1e-8
    assert not rep.skipped


def test_y_marginal_default(dw_small, dw_small_joint):
    _, rep = check_oracle(dw_small_joint, dw_small.model, TIMES)
    assert rep.max_l1 <= 1e-8
    assert rep.entries[0][0] == 0.1


def test_y_marginal_time_zero():
    pipe = build_pipeline("double_well", 0.1, 100)
    B = build_joint_generator(pipe.model, pipe.gen)
    _, rep = check_oracle(B, pipe.model, [0.0])
    assert rep.max_l1 <= 1e-14


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_y_marginal_independent_of_scale(kappa):
    # the chain marginal identity holds whatever the eigenvector scale is
    pipe = build_pipeline("double_well", 0.1, 150, kappa=kappa)
    B = build_joint_generator(pipe.model, pipe.gen)
    _, rep = check_oracle(B, pipe.model, TIMES)
    assert rep.max_l1 <= 1e-8


# the equal-depth triple well x^2 (x^2 - 4)^2 / 8: lambda_2 / lambda_1 is
# about 2, and its Freidlin-Wentzell chain has well masses (1/4, 1/2, 1/4)
EQUAL_TRIPLE_WELL = [0, 0, 2, 0, -1, 0, 0.125]
_LAW_INPUTS = {"double_well": ("double_well", 200),
               "tilted_double_well": ("tilted_double_well", 200),
               "triple_well": ("triple_well", 300),
               "equal_triple_well": (EQUAL_TRIPLE_WELL, 200)}
_TWO_WELLS = ("double_well", "tilted_double_well")


@pytest.mark.parametrize("kappa,theta,eps,name,n", [
    pytest.param(kappa, theta, eps, name, n, id=f"{kappa}-{theta}-{eps}-{name}-{n}")
    for name, (_, n) in _LAW_INPUTS.items()
    for eps in (0.05, 0.1, 0.2)
    for kappa, theta in ((0.3, 0.25), (0.9, 0.25), (0.3, 0.5), (0.9, 0.5))
    # theta splits the one rate of a two-state chain
    if theta == 0.5 or name in _TWO_WELLS])
def test_conditional_law_matrix(kappa, theta, eps, name, n):
    # the strongest structural guarantee: exact conditional laws across the
    # whole preset/noise/scale/split matrix
    pipe = build_pipeline(_LAW_INPUTS[name][0], eps, n, kappa=kappa, theta=theta)
    B = build_joint_generator(pipe.model, pipe.gen)
    rep, marg = check_oracle(B, pipe.model, TIMES)
    assert rep.max_tv <= 1e-8
    assert marg.max_l1 <= 1e-8


def test_perturbed_eigenvector_breaks_law(dw_small):
    vec = dw_small.spec.vectors.copy()
    vec[0, 0] *= 1.01
    broken = dataclasses.replace(dw_small.model, vectors=vec)
    B = build_joint_generator(broken, dw_small.gen)
    rep, _ = check_oracle(B, broken, TIMES)
    assert rep.max_tv > 1e-4


def _uniformize_by_matmul(B, nu, t, tol):
    """The series as sparse @ computes it, which _uniformize must reproduce
    bit for bit."""
    rate = float(np.max(-B.diagonal()))
    if rate <= 0.0 or t == 0.0:
        return nu.copy()
    n_sub = max(1, int(np.ceil(rate * t / _MAX_RATE_STEP)))
    weights = _poisson_weights(rate * (t / n_sub), max(tol / n_sub, _EPS))
    PT = (sp.eye(B.shape[0], format="csr") + B.multiply(1.0 / rate)).tocsr().T
    out = nu
    for _ in range(n_sub):
        term = out
        acc = weights[0] * term
        for weight in weights[1:]:
            term = PT @ term
            acc = acc + weight * term
        out = acc
    return out


@pytest.mark.parametrize("preset,eps", [("double_well", 0.1), ("triple_well", 0.07)])
def test_uniformize_is_bitwise_the_sparse_matmul_series(preset, eps):
    # the direct csc_matvec steps round exactly as PT @ term and acc +
    # weight * term do, on a single sub-interval and on several
    pipe = build_pipeline(preset, eps, 200)
    B = build_joint_generator(pipe.model, pipe.gen)
    nu = pipe.model.initial_law_for().reshape(-1)
    rate = float(np.max(-B.diagonal()))
    n_subs = []
    for t in (0.5 * _MAX_RATE_STEP / rate, 0.1, 1.0):
        out = _uniformize(B, nu, t, 1e-12)
        np.testing.assert_array_equal(out, _uniformize_by_matmul(B, nu, t, 1e-12))
        n_subs.append(int(np.ceil(rate * t / _MAX_RATE_STEP)))
    assert n_subs[0] == 1 and n_subs[-1] > 1


@pytest.mark.parametrize("preset,eps", [("double_well", 0.1), ("triple_well", 0.07)])
def test_evolve_matches_dense_expm(preset, eps):
    # the truncated series over sub-intervals of rate-time up to
    # _MAX_RATE_STEP against scipy's dense exponential of the n 200 joint
    # generator, on one sub-interval (t 0.1) and on several (t 1, 10)
    from scipy.linalg import expm
    pipe = build_pipeline(preset, eps, 200)
    B = build_joint_generator(pipe.model, pipe.gen)
    nu = pipe.model.initial_law_for().reshape(-1)
    for t in TIMES:
        dense = expm(B.toarray().T * t) @ nu
        assert np.abs(evolve_distribution(B, nu, t).weights - dense).sum() <= 1e-11


def test_check_oracle_bypasses_sparse_matmul(dw_small, dw_small_joint, monkeypatch):
    # the series calls csr_matvec on P^T's CSR arrays itself: sparse @'s
    # per-step dispatch must not creep back into the oracle
    from scipy.sparse import _compressed

    def fail(*args, **kwargs):
        raise AssertionError("sparse matrix-vector product dispatched")

    monkeypatch.setattr(_compressed._cs_matrix, "_matmul_vector", fail)
    rep, marg = check_oracle(dw_small_joint, dw_small.model, TIMES)
    assert rep.max_tv <= 1e-8 and marg.max_l1 <= 1e-8


def test_mean_exit_two_state_exact():
    Q = np.array([[-0.5, 0.5], [1.5, -1.5]])
    out = mean_exit_times(Q, [0], [1])
    assert out[0] == 1.0 / 0.5


def test_mean_exit_three_state_hand_solved():
    # restricted system: -u0 + u1 = -1, u0 - 2 u1 = -1 -> u = (3, 2)
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    out = mean_exit_times(Q, [0, 1], [2])
    np.testing.assert_allclose(out, [3.0, 2.0], atol=1e-12)


def test_mean_exit_full_chain_matches_dense_solve():
    # every entry nonzero: the banded solve runs at the full bandwidth
    rng = np.random.default_rng(7)
    Q = rng.uniform(0.1, 2.0, (4, 4))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    for targets in ([3], [0], [1, 2]):
        keep = [i for i in range(4) if i not in targets]
        ref = np.linalg.solve(Q[np.ix_(keep, keep)], -np.ones(len(keep)))
        out = mean_exit_times(Q, keep, targets)
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0)


def test_mean_exit_unreachable_target():
    # state 0 is absorbing, so {1} cannot be reached from it
    Q = np.array([[0.0, 0.0], [1.0, -1.0]])
    with pytest.raises(UnreachableTargetError):
        mean_exit_times(Q, [0], [1])


def test_mean_exit_diffusion_generator(dw_small):
    gen = dw_small.gen
    nodes = gen.grid.nodes
    target = np.nonzero(nodes >= 0.5)[0]
    src = int(np.argmin(np.abs(nodes - (-1.0))))
    t_exit = mean_exit_times(gen, [src], target)
    assert np.isfinite(t_exit[0]) and t_exit[0] > 0
