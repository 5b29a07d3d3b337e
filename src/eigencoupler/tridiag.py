"""Symmetric tridiagonal eigensolvers on LAPACK bisection and inverse
iteration.

`eigensolve_tridiagonal` serves any symmetric tridiagonal matrix (the
Schrodinger cross-check route). `eigensolve_edge_factor` serves the generator
route, whose symmetrized matrix is S = G^T G for a bidiagonal edge factor G:
its eigenvalues are the squared singular values of G, found by bisection on
the zero-diagonal Golub-Kahan tridiagonal of G. That bisection is accurate
relative to each singular value (Demmel & Kahan 1990; the idea behind LAPACK
`dbdsvdx`), so eigenvalues many orders of magnitude below ||S|| keep their
leading digits, and the zero eigenvalue comes out below ulp^2 * lambda_1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein

from .errors import EigenSolveError

__all__ = ["eigensolve_tridiagonal", "eigensolve_edge_factor"]

# stebz absolute tolerance: twice the underflow threshold leaves only its
# relative test, which LAPACK recommends for the most accurate values
_ABSTOL = 2 * np.finfo(float).tiny
_ULP = np.finfo(float).eps


def eigensolve_tridiagonal(diag, offdiag, k_max):
    """The k_max smallest eigenpairs of the symmetric tridiagonal matrix with
    the given diagonal and off-diagonal (LAPACK `stebz` bisection to ulp *
    ||T||, `stein` inverse iteration with reorthogonalization inside
    clusters).

    Returns:
        (values, vectors): values ascending, shape (k_max,); vectors with unit
        2-norm in the columns of an (n, k_max) array.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if not 1 <= k_max <= n:
        raise ValueError("k_max must be in [1, n]")
    try:
        return eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, k_max - 1),
                                lapack_driver="stebz")
    except LinAlgError as exc:
        raise EigenSolveError(f"tridiagonal eigensolver failed: {exc}") from exc


def eigensolve_edge_factor(diag, superdiag, k):
    """The k smallest eigenpairs of S = G^T G, where G is the (n-1) x n upper
    bidiagonal matrix with G[j, j] = diag[j] and G[j, j+1] = superdiag[j].

    The eigenvalues are sigma_j(G)^2: sigma_1, sigma_2, ... to high relative
    accuracy, and sigma_0, zero in exact arithmetic (G has a null direction),
    to within ulp * sigma_1. The vectors come from inverse iteration on S at
    those eigenvalues.

    Returns:
        (values, vectors) as for `eigensolve_tridiagonal`.
    """
    a = np.asarray(diag, dtype=float)
    b = np.asarray(superdiag, dtype=float)
    n = len(a) + 1
    if len(b) != n - 1:
        raise ValueError("diag and superdiag must have the same length")
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    # Golub-Kahan: perfect-shuffle of [[0, G^T], [G, 0]], eigenvalues
    # -sigma_{n-1} .. -sigma_1, 0, sigma_1 .. sigma_{n-1} (1-based index n
    # is the zero)
    tgk = np.empty(2 * n - 2)
    tgk[0::2] = a
    tgk[1::2] = b
    zero_diag = np.zeros(2 * n - 1)

    def bisect(lo, hi, abstol):
        # range 3: the eigenvalues with 1-based indices lo..hi
        m, w, _, _, info = dstebz(zero_diag, tgk, 3, 0.0, 0.0, lo, hi, abstol, "B")
        if info != 0 or m != hi - lo + 1:
            raise EigenSolveError(f"bisection on the Golub-Kahan matrix failed (info {info})")
        return np.sort(w[:m])

    sigma = bisect(n + 1, n - 1 + k, _ABSTOL) if k > 1 else np.zeros(0)
    # sigma_0 is resolved to the absolute precision sigma_1 carries: bisecting
    # it down to the underflow threshold would take five times as long
    sigma_0 = bisect(n, n, max(_ULP * sigma[0], _ABSTOL) if k > 1 else _ABSTOL)
    values = np.concatenate((sigma_0, sigma)) ** 2

    s_diag = np.zeros(n)
    s_diag[:-1] += a ** 2
    s_diag[1:] += b ** 2
    # S is one unreduced block; stein reorthogonalizes clustered vectors
    block = np.ones(n, dtype=np.int32)
    split = np.zeros(n, dtype=np.int32)
    split[0] = n
    vectors, info = dstein(s_diag, a * b, values, block, split)
    if info != 0:
        raise EigenSolveError(f"inverse iteration failed for {info} eigenvectors")
    return values, vectors
