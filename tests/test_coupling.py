import dataclasses

import numpy as np
import pytest

from eigencoupler.coupling import (
    CouplingModel,
    build_coupling,
    build_joint_generator,
    build_pipeline,
    conditional_density,
    coupling_summary,
    coupling_to_csv,
    sample_initial,
)
from eigencoupler.errors import CouplingError
from eigencoupler.spectral import DiscreteGenerator, Grid


def test_decoupled_limit_constant_rates():
    pipe = build_pipeline("double_well", 0.1, 150, kappa=0.0)
    model = pipe.model
    np.testing.assert_array_equal(model.tilts, 1.0)
    for i in range(2):
        for j in range(2):
            if i != j:
                np.testing.assert_array_equal(model.jump_rates[i, j],
                                              model.Q[i, j])
    np.testing.assert_allclose(conditional_density(model, 0), model.weights)


def test_conditional_normalization(dw_small):
    model = dw_small.model
    sums = model.cond.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_symmetric_well_tilt_mirror(dw_small):
    # alpha_0(x) = alpha_1(-x) on the symmetric grid
    model = dw_small.model
    np.testing.assert_allclose(model.tilts[0], model.tilts[1][::-1], rtol=1e-9)


def test_rate_identity_pointwise(dw_small):
    model = dw_small.model
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            lhs = model.tilts[i] * model.jump_rates[i, j]
            rhs = model.Q[i, j] * model.tilts[j]
            np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_positivity_floor(dw_small):
    assert dw_small.model.min_alpha >= 1.0 - 0.9 - 1e-12
    assert dw_small.model.tilts.min() > 0


def test_stationary_mixture_recovers_weights(dw_small):
    from eigencoupler.chain import stationary_distribution
    model = dw_small.model
    p_stat = stationary_distribution(model.Q)
    mix = p_stat @ model.cond
    np.testing.assert_allclose(mix, model.weights, atol=1e-12)


def test_joint_generator_row_sums(dw_small, dw_small_joint):
    rs = np.asarray(dw_small_joint.sum(axis=1)).ravel()
    scale = np.max(np.abs(dw_small_joint.diagonal()))
    assert np.max(np.abs(rs)) <= 1e-12 * scale


def test_joint_generator_decoupled_is_direct_sum():
    pipe = build_pipeline("double_well", 0.1, 80, kappa=0.0)
    model, gen = pipe.model, pipe.gen
    B = build_joint_generator(model, gen).toarray()
    n = gen.n
    diag, lower, upper = gen.tridiagonal()
    a_h = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    Q = model.Q
    expected = np.kron(np.eye(2), a_h) + np.kron(Q, np.eye(n))
    np.testing.assert_allclose(B, expected, atol=1e-12)


def test_joint_generator_hand_computed_smallest_case():
    # two nodes, two states, tilts built from the exact discrete mode (1, -1)
    grid = Grid(L=0.5, n=2)
    gen = DiscreteGenerator(grid=grid, eps=1.0,
                            birth=np.array([1.0, 0.0]),
                            death=np.array([0.0, 1.0]),
                            weights=np.array([0.5, 0.5]))
    c = 0.25
    q01, q10 = 0.4, 0.6
    Q = np.array([[-q01, q01], [q10, -q10]])
    tilts = np.array([[1 + c, 1 - c], [1 - c, 1 + c]])
    model = CouplingModel(
        grid_nodes=grid.nodes, weights=gen.weights,
        modes=np.array([[1.0, -1.0]]), Q=Q, vectors=np.array([[c, -c]]),
        p=np.array([0.5, 0.5]), eps=1.0)
    # hand evaluation of the joint action: diffusion block per state plus
    # node-diagonal jumps
    B = build_joint_generator(model, gen).toarray()
    q01_vec = q01 * tilts[1] / tilts[0]
    q10_vec = q10 * tilts[0] / tilts[1]
    expected = np.array([
        [-1.0 - q01_vec[0], 1.0, q01_vec[0], 0.0],
        [1.0, -1.0 - q01_vec[1], 0.0, q01_vec[1]],
        [q10_vec[0], 0.0, -1.0 - q10_vec[0], 1.0],
        [0.0, q10_vec[1], 1.0, -1.0 - q10_vec[1]],
    ])
    np.testing.assert_allclose(B, expected, atol=1e-14)


def test_joint_dimension_guard(dw_small):
    model = dw_small.model
    big = dataclasses.replace(model, grid_nodes=np.linspace(-1, 1, 600001),
                              weights=np.ones(600001) / 600001)
    with pytest.raises(CouplingError):
        build_joint_generator(big, dw_small.gen)


def test_eigen_mismatch_rejected(dw_small):
    dec, spec = dw_small.dec, dw_small.spec
    bad = dataclasses.replace(spec, rates=spec.rates * 1.01)
    with pytest.raises(CouplingError):
        build_coupling(dec, bad)


def test_broken_mode_normalization_rejected(dw_small):
    # a constant offset breaks the zero-sum property of the signed weights,
    # which must surface as a normalization failure, never a silent repair
    dec = dataclasses.replace(dw_small.dec,
                              modes=dw_small.dec.modes + 0.001)
    with pytest.raises(CouplingError):
        build_coupling(dec, dw_small.spec)


def test_negative_tilt_rejected(dw_small):
    spec = dw_small.spec
    bad = dataclasses.replace(spec, vectors=spec.vectors * 10.0)
    with pytest.raises(CouplingError):
        build_coupling(dw_small.dec, bad)


def test_sample_initial_distributions(dw_small):
    model = dataclasses.replace(dw_small.model, p=np.array([1.0, 0.0]))
    rng = np.random.default_rng(0)
    ys = np.array([sample_initial(model, rng)[1] for _ in range(200)])
    np.testing.assert_array_equal(ys, 0)


def test_sample_initial_decoupled_matches_weights():
    pipe = build_pipeline("double_well", 0.1, 300, kappa=0.0)    # p uniform
    model = pipe.model
    rng = np.random.default_rng(42)
    xs = np.array([sample_initial(model, rng)[0] for _ in range(100000)])
    from eigencoupler.stats import tv_distance
    tv = tv_distance(xs, model.weights, model.grid_nodes, bins=50)
    assert tv <= 0.02


def test_conditional_density_validation(dw_small):
    with pytest.raises(ValueError):
        conditional_density(dw_small.model, 5)


def test_exports(tmp_path, dw_small):
    coupling_to_csv(dw_small.model, tmp_path / "c.csv")
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header.startswith("x,weight,mode_1,tilt_0,tilt_1,rate_01,rate_10")
    payload = coupling_summary(dw_small.model, tmp_path / "s.json")
    assert payload["min_alpha"] > 0
    assert "0->1" in payload["rate_sup_norms"]
