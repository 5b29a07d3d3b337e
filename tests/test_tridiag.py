import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh_tridiagonal

from eigencoupler.tridiag import eigensolve_edge_factor, eigensolve_tridiagonal


def tridiagonal(diag, offdiag):
    return sp.diags([offdiag, diag, offdiag], [-1, 0, 1])


def test_two_by_two_closed_form():
    values, vectors = eigensolve_tridiagonal([2.0, 2.0], [-1.0], 2)
    np.testing.assert_allclose(values, [1.0, 3.0], atol=1e-12)
    for k in range(2):
        res = tridiagonal([2.0, 2.0], [-1.0]) @ vectors[:, k] - values[k] * vectors[:, k]
        assert np.max(np.abs(res)) < 1e-12


def test_three_by_three_closed_form():
    values, _ = eigensolve_tridiagonal([2.0, 2.0, 2.0], [-1.0, -1.0], 3)
    np.testing.assert_allclose(values, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)],
                               atol=1e-12)


def test_partial_spectrum_sorted_and_orthonormal():
    rng = np.random.default_rng(3)
    d = rng.standard_normal(60)
    e = rng.standard_normal(59)
    values, vectors = eigensolve_tridiagonal(d, e, 5)
    assert np.all(np.diff(values) >= -1e-12)
    gram = vectors.T @ vectors
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
    ref = eigh_tridiagonal(d, e, eigvals_only=True)[:5]
    norm = np.max(np.abs(d)) + 2 * np.max(np.abs(e))
    np.testing.assert_allclose(values, ref, atol=1e-10 * norm)


def test_clustered_pair_reorthogonalized():
    # eigenvalues split far below the cluster threshold: the
    # reorthogonalization branch must return an orthogonal pair
    d = np.array([1.0, 1.0, 5.0])
    e = np.array([1e-12, 1e-9])
    values, vectors = eigensolve_tridiagonal(d, e, 2)
    assert abs(values[0] - values[1]) < 1e-8
    assert abs(vectors[:, 0] @ vectors[:, 1]) < 1e-10


def test_zero_matrix():
    values, vectors = eigensolve_tridiagonal(np.zeros(4), np.zeros(3), 2)
    np.testing.assert_allclose(values, [0.0, 0.0])
    assert vectors.shape == (4, 2)


def test_input_validation():
    with pytest.raises(ValueError):
        eigensolve_tridiagonal([1.0, 2.0], [1.0, 1.0], 1)   # offdiag too long
    with pytest.raises(ValueError):
        eigensolve_tridiagonal([1.0, 2.0], [1.0], 3)        # k_max > n


@settings(max_examples=40, deadline=None)
@given(
    d=arrays(np.float64, st.integers(2, 30),
             elements=st.floats(-100, 100, allow_nan=False)),
    seed=st.integers(0, 2 ** 31),
)
def test_residuals_and_values_match_reference(d, seed):
    # residual check is its own oracle; eigenvalues cross-checked against the
    # independent LAPACK tridiagonal solver
    rng = np.random.default_rng(seed)
    e = rng.uniform(-10, 10, size=len(d) - 1)
    k = min(4, len(d))
    values, vectors = eigensolve_tridiagonal(d, e, k)
    norm = np.max(np.abs(d)) + 2 * np.max(np.abs(e), initial=0.0)
    norm = max(norm, 1e-30)
    for i in range(k):
        res = tridiagonal(d, e) @ vectors[:, i] - values[i] * vectors[:, i]
        assert np.max(np.abs(res)) <= 1e-9 * norm
    ref = eigh_tridiagonal(np.asarray(d), e, eigvals_only=True)[:k]
    np.testing.assert_allclose(values, ref, atol=1e-9 * norm)


def test_edge_factor_matches_dense_gram_spectrum():
    # S = G^T G for a random bidiagonal edge factor: the zero mode below
    # ulp^2 * lambda_1, eigenpairs of S to working accuracy
    rng = np.random.default_rng(7)
    a = -rng.uniform(0.5, 2.0, size=39)
    b = rng.uniform(0.5, 2.0, size=39)
    G = np.zeros((39, 40))
    G[np.arange(39), np.arange(39)] = a
    G[np.arange(39), np.arange(1, 40)] = b
    S = G.T @ G
    values, vectors = eigensolve_edge_factor(a, b, 4)
    assert values[0] <= np.finfo(float).eps ** 2 * values[1]
    np.testing.assert_allclose(values, np.linalg.eigvalsh(S)[:4], atol=1e-13 * np.abs(S).max())
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)
    assert np.max(np.abs(S @ vectors - vectors * values)) <= 1e-13 * np.abs(S).max()
    with pytest.raises(ValueError):
        eigensolve_edge_factor(a, b[:-1], 2)
