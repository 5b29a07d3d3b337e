import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupler.chain import (
    ChainSpec,
    scaled_eigenvectors,
    stationary_distribution,
    synth_generator,
    validate_chain,
)
from eigencoupler.errors import ChainSynthesisError


def test_two_state_symmetric():
    Q = synth_generator([2.0], theta=0.5)
    np.testing.assert_allclose(Q, [[-1.0, 1.0], [1.0, -1.0]])


def test_two_state_asymmetric_split():
    Q = synth_generator([2.0], theta=0.25)
    np.testing.assert_allclose(Q, [[-0.5, 0.5], [1.5, -1.5]])
    np.testing.assert_allclose(sorted(np.linalg.eigvals(Q).real), [-2.0, 0.0],
                               atol=1e-14)


def test_two_state_validation():
    with pytest.raises(ValueError):
        synth_generator([2.0], theta=1.0)
    with pytest.raises(ValueError):
        synth_generator([1.0, 3.0], theta=0.0)
    with pytest.raises(ValueError):
        synth_generator([-1.0])
    with pytest.raises(ValueError):
        synth_generator([])


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(1e-12, 1e6), theta=st.floats(0.0, 1.0, exclude_min=True,
                                                    exclude_max=True))
def test_two_state_is_the_theta_split_bit_for_bit(lam, theta):
    # every double_well artifact reads these bits: the split theta * lambda
    # up and (1 - theta) * lambda down, each one product
    q01, q10 = theta * lam, (1.0 - theta) * lam
    np.testing.assert_array_equal(synth_generator([lam], theta=theta),
                                  np.array([[-q01, q01], [q10, -q10]]))


def test_birth_death_three_state():
    # independent check: dense eigensolve of the returned generator
    Q = synth_generator([1.0, 3.0])
    spectrum = np.sort(np.linalg.eigvals(Q).real)
    np.testing.assert_allclose(spectrum, [-3.0, -1.0, 0.0], atol=1e-10)
    off = Q[~np.eye(3, dtype=bool)]
    assert np.all(off >= 0)
    np.testing.assert_allclose(Q.sum(axis=1), 0.0, atol=1e-12)


def test_birth_death_metastable_targets():
    targets = [4.3e-5, 7.2e-3]
    Q = synth_generator(targets)
    spectrum = np.sort(np.linalg.eigvals(Q).real)
    np.testing.assert_allclose(spectrum[:2], [-7.2e-3, -4.3e-5], rtol=1e-10)


@pytest.mark.parametrize("targets", [pytest.param([1.0, 2.0], id="ratio_2"),
                                     pytest.param([4.3e-5, 7.2e-3], id="metastable")])
def test_birth_death_three_state_closed_form(targets):
    # the reflection-symmetric chain 0 <-> 1 <-> 2 with Q01 = Q21 = a and
    # Q10 = Q12 = b has decay rates a (odd mode) and a + 2b (even mode), so
    # a = lambda_1 and b = (lambda_2 - lambda_1) / 2, whatever the ratio
    lam1, lam2 = targets
    a, b = lam1, 0.5 * (lam2 - lam1)
    np.testing.assert_allclose(synth_generator(targets),
                               [[-a, a, 0.0], [b, -2 * b, b], [0.0, a, -a]],
                               rtol=1e-12, atol=0.0)


def _check_reflection_symmetric(targets):
    Q = synth_generator(targets)
    m1 = len(targets) + 1
    assert Q.shape == (m1, m1)
    spectrum = np.sort(np.linalg.eigvals(Q).real)[::-1]
    np.testing.assert_allclose(-spectrum[1:], targets, rtol=1e-10)
    assert np.all(Q[~np.eye(m1, dtype=bool)] >= 0)
    assert np.all(np.triu(Q, 2) == 0) and np.all(np.tril(Q, -2) == 0)
    np.testing.assert_allclose(Q, Q[::-1, ::-1], rtol=1e-12, atol=0.0)
    pi = stationary_distribution(Q)
    np.testing.assert_allclose(pi, pi[::-1], rtol=1e-10)


def test_birth_death_four_state():
    # the spectrum of the rate triple (0.001, 0.08, 0.5), computed with the
    # independent dense symmetric eigensolver
    _check_reflection_symmetric(
        [0.0013255823349672953, 0.11548255919864855, 1.0451918584663842])


def test_birth_death_five_state():
    _check_reflection_symmetric([3.1e-4, 2.2e-2, 0.4, 1.7])


def test_birth_death_repeated_targets_rejected():
    with pytest.raises(ChainSynthesisError):
        synth_generator([1.0, 1.0])


def test_unnormalized_eigenvector_identity():
    # (q01, -q10) is a right eigenvector for the decay rate q01 + q10
    q01, q10 = 0.3, 1.1
    Q = np.array([[-q01, q01], [q10, -q10]])
    xi = np.array([q01, -q10])
    np.testing.assert_allclose(Q @ xi, -(q01 + q10) * xi, atol=1e-14)


def test_scale_formula_example():
    # unit eigenvector (1, -1), sup|mode| = 1.2, kappa = 0.9 -> scale 0.75
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mode = np.array([[1.2, -0.6, 0.3, -1.2]])
    vectors, scales, min_alpha = scaled_eigenvectors(Q, [2.0], mode, kappa=0.9)
    np.testing.assert_allclose(scales, [0.75])
    np.testing.assert_allclose(vectors[0], [0.75, -0.75])
    assert min_alpha >= 0.1 - 1e-12


def test_zero_kappa_gives_identity_tilts():
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mode = np.array([[0.5, -0.5]])
    vectors, scales, min_alpha = scaled_eigenvectors(Q, [2.0], mode, kappa=0.0)
    np.testing.assert_array_equal(vectors, 0.0)
    assert min_alpha == 1.0


def test_maximize_mode_reaches_budget_boundary():
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mode = np.array([[0.8, -0.4, 0.2, -0.8]])
    _, _, min_alpha = scaled_eigenvectors(Q, [2.0], mode, kappa=0.9, maximize=True)
    np.testing.assert_allclose(min_alpha, 0.1, atol=1e-12)
    with pytest.raises(ValueError):
        scaled_eigenvectors(synth_generator([1.0, 3.0]),
                            [1.0, 3.0], np.ones((2, 4)), 0.5, maximize=True)


def test_eigen_mismatch_rejected():
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ChainSynthesisError):
        scaled_eigenvectors(Q, [2.5], np.ones((1, 4)), 0.5)


def test_repeated_eigenvalue_rejected():
    # the complete graph on three states has -3 twice: Q + 3 I is the rank-one
    # all-ones matrix, so its two least singular values are both zero
    Q = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    with pytest.raises(ChainSynthesisError, match="repeated eigenvalue"):
        scaled_eigenvectors(Q, [3.0, 3.0], np.ones((2, 4)), 0.5)


@pytest.mark.parametrize("rates", [[1e-12, 1e-3, 1.0, 1.5], [1e-14, 1e-2, 1.0],
                                   [1e-9, 1.0]])
def test_spread_spectra_meet_the_backward_error_bound(rates):
    # rates spread past 1e10 apart: a dense nonsymmetric eigensolve misses
    # lambda_1 by more than relative 1e-6 there, while each SVD null vector
    # has a residual within a few ulp of ||Q||, and so has the stationary law
    Q = synth_generator(rates)
    bound = 4 * len(Q) * np.finfo(float).eps * np.linalg.norm(Q, 2)
    vectors, _, _ = scaled_eigenvectors(Q, rates, np.ones((len(rates), 8)), 0.5)
    for lam, v in zip(rates, vectors):
        assert np.max(np.abs(Q @ v + lam * v)) <= bound * np.max(np.abs(v))
    pi = stationary_distribution(Q)
    assert np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-15
    assert np.max(np.abs(pi @ Q)) <= bound
    # 1e-10 lambda_1 lies below that floor here, and validate_chain's gate
    # follows the floor
    report = validate_chain(_spec_for(Q, rates))
    assert report.passed, report.checks


def test_below_floor_eigenvalue_named():
    # lambda_1 = 1e-20 lies below (m+1) ulp ||Q|| next to lambda_2 = 1: Q + lambda_1 I
    # has two singular values at the floor, but the spectrum is not repeated
    Q = synth_generator([1e-20, 1.0])
    with pytest.raises(ChainSynthesisError,
                       match=r"-1e-20 cannot be told from eigenvalue 0 at the float64 "
                             r"floor \(m\+1\) ulp \|\|Q\|\| = \d"):
        scaled_eigenvectors(Q, [1e-20, 1.0], np.ones((2, 4)), 0.5)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(1e-3, 1e3),
    theta=st.floats(0.05, 0.95),
    kappa=st.floats(0.0, 0.95),
    seed=st.integers(0, 2 ** 31),
)
def test_positivity_budget_property(lam, theta, kappa, seed):
    # the scaling always leaves min tilt >= 1 - kappa
    rng = np.random.default_rng(seed)
    Q = synth_generator([lam], theta=theta)
    mode = rng.uniform(-3, 3, size=(1, 50))
    mode[0, rng.integers(50)] = 3.0   # nonzero sup guaranteed
    _, _, min_alpha = scaled_eigenvectors(Q, [lam], mode, kappa=kappa)
    assert min_alpha >= 1.0 - kappa - 1e-9


def _spec_for(Q, rates, theta=None):
    vectors, scales, ma = scaled_eigenvectors(Q, rates, np.ones((len(rates), 8)) * 0.5,
                                              kappa=0.5)
    m1 = Q.shape[0]
    return ChainSpec(Q=Q, rates=np.asarray(rates, dtype=float), vectors=vectors,
                     scales=scales, p=np.full(m1, 1.0 / m1),
                     min_alpha_bound=ma, theta=theta)


def test_validate_chain_passes_symmetric():
    spec = _spec_for(np.array([[-1.0, 1.0], [1.0, -1.0]]), [2.0], theta=0.5)
    report = validate_chain(spec)
    assert report.passed
    np.testing.assert_allclose(report.stationary, [0.5, 0.5], atol=1e-12)


def test_validate_chain_stationary_identity():
    # stationary law of a two-state chain is (Q10, Q01) / lambda_1
    Q = np.array([[-0.5, 0.5], [1.5, -1.5]])
    spec = _spec_for(Q, [2.0], theta=0.25)
    report = validate_chain(spec)
    assert report.passed
    np.testing.assert_allclose(report.stationary, [1.5 / 2.0, 0.5 / 2.0],
                               atol=1e-12)


def test_validate_chain_flags_negative_rate():
    Q = np.array([[0.5, -0.5], [1.5, -1.5]])
    vectors = np.array([[1.0, -1.0]])
    spec = ChainSpec(Q=Q, rates=np.array([2.0]), vectors=vectors,
                     scales=np.array([1.0]), p=np.array([0.5, 0.5]))
    report = validate_chain(spec)
    assert not report.passed
    assert "offdiagonal_nonnegative" in report.failures


def test_chain_json_roundtrip():
    spec = _spec_for(np.array([[-1.0, 1.0], [1.0, -1.0]]), [2.0], theta=0.5)
    payload = spec.to_json()
    assert payload["rates"] == [2.0]
    assert json.loads(json.dumps(payload)) == payload


def test_validate_chain_floor_still_fails_a_wrong_generator():
    # negative control for the floor gate of the spread-spectra test: the
    # eigenvectors of Q checked against Q * 1.01
    rates = [1e-9, 1.0]
    spec = _spec_for(synth_generator(rates), rates)
    report = validate_chain(ChainSpec(Q=spec.Q * 1.01, rates=spec.rates, vectors=spec.vectors,
                                      scales=spec.scales, p=spec.p))
    assert {"eigen_residual_1", "eigen_residual_2"} <= set(report.failures)
