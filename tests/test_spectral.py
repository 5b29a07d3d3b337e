import mpmath
import numpy as np
import pytest

from eigencoupler.errors import GridError, TruncationError
from eigencoupler.potential import Potential, make_potential
from eigencoupler.spectral import (
    Grid,
    auto_grid,
    build_generator,
    build_schrodinger,
    decompose,
    decomposition_table,
    eigenvalues_to_json,
    generator_eigenvalues,
    schrodinger_eigenvalues,
)
from eigencoupler.tridiag import eigensolve_tridiagonal

FLAT = Potential(np.array([0.0]), name="flat")
DW = make_potential("double_well")


def test_two_node_flat_generator():
    gen = build_generator(FLAT, 1.0, Grid(L=0.5, n=2))
    diag, lower, upper = gen.tridiagonal()
    np.testing.assert_allclose(diag, [-1.0, -1.0])
    np.testing.assert_allclose(lower, [1.0])
    np.testing.assert_allclose(upper, [1.0])
    np.testing.assert_allclose(gen.weights, [0.5, 0.5])


def test_symmetric_potential_symmetric_rates():
    grid = auto_grid(DW, 0.1, n=301)
    gen = build_generator(DW, 0.1, grid)
    np.testing.assert_allclose(gen.weights, gen.weights[::-1], rtol=1e-12)
    np.testing.assert_allclose(gen.birth[:-1], gen.death[1:][::-1], rtol=1e-13)


def test_row_sums_zero_random_potential():
    rng = np.random.default_rng(1)
    pot = Potential(np.concatenate((rng.standard_normal(4), [0.7])))
    gen = build_generator(pot, 0.3, Grid(L=3.0, n=101))
    diag, lower, upper = gen.tridiagonal()
    rs = diag.copy()
    rs[:-1] += upper
    rs[1:] += lower
    assert np.max(np.abs(rs)) <= 1e-11 * gen.max_exit_rate()


def test_detailed_balance_exact():
    for eps in (0.05, 0.1, 0.2):
        gen = build_generator(DW, eps, auto_grid(DW, eps, n=400))
        lhs = gen.weights[:-1] * gen.birth[:-1]
        rhs = gen.weights[1:] * gen.death[1:]
        rel = np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1e-300)
        assert np.max(rel) <= 1e-15


def test_eps_validation():
    with pytest.raises(ValueError):
        build_generator(DW, 0.0, Grid(L=2.0, n=10))
    with pytest.raises(ValueError):
        build_schrodinger(DW, -1.0, Grid(L=2.0, n=10))


def test_grid_invariants():
    grid = auto_grid(DW, 0.1, n=500)
    fmin = float(np.min(DW.value(grid.nodes)))
    tail = np.exp(-(DW.value(np.array([-grid.L, grid.L])) - fmin) / 0.1)
    assert np.max(tail) <= 1e-12
    assert grid.L > 1.0  # minima strictly inside
    with pytest.raises(GridError):
        Grid(L=1.2, n=500).validate(DW, 0.1)   # fat tail
    with pytest.raises(GridError):
        Grid(L=3.0, n=2).validate(DW, 0.1)     # too few nodes


def test_harmonic_ground_state_form_potential():
    # F = x^2/2 gives V(x) = x^2/(4 eps^2) - 1/(2 eps) on the diagonal
    quad = make_potential("quadratic")
    eps = 0.3
    grid = Grid(L=4.0, n=11)
    diag, offdiag = build_schrodinger(quad, eps, grid)
    x = grid.nodes[1:-1]
    expected = 2.0 / grid.h ** 2 + x ** 2 / (4 * eps ** 2) - 1.0 / (2 * eps)
    np.testing.assert_allclose(diag, expected, rtol=1e-14)
    np.testing.assert_allclose(offdiag, -1.0 / grid.h ** 2)


def test_schrodinger_ground_eigenvalue_small():
    # the continuum ground eigenvalue is exactly zero; the three-point scheme
    # reproduces it to its O(h^2) bias, which at this resolution sits near
    # 6e-5 and shrinks fourfold per refinement
    hat_2000 = schrodinger_eigenvalues(DW, 0.1, Grid(L=3.0, n=2000), 1)[0]
    assert abs(hat_2000) <= 2e-4
    hat_4000 = schrodinger_eigenvalues(DW, 0.1, Grid(L=3.0, n=4000), 1)[0]
    assert abs(hat_4000) <= 0.35 * abs(hat_2000)


def test_two_route_consistency_coarse():
    grid = auto_grid(DW, 0.1, n=1000)
    lam = decompose(build_generator(DW, 0.1, grid), 3).eigenvalues[1:]
    hat = 0.1 * schrodinger_eigenvalues(DW, 0.1, grid, 4)[1:]
    assert np.max(np.abs(lam - hat) / hat) <= 1e-3


def test_decompose_zero_mode(dw_small):
    dec = dw_small.dec
    assert dec.eigenvalues[0] == 0.0
    np.testing.assert_array_equal(dec.modes[0], np.ones(dec.grid.n))
    assert dec.eigenvalues[1] > 0


def test_signed_weights_sum_to_zero(dw_small):
    dec = dw_small.dec
    sums = dec.signed_weights.sum(axis=1)
    assert abs(sums[0] - 1.0) <= 1e-12
    assert np.max(np.abs(sums[1:])) <= 1e-12


def test_modes_orthonormal(dw_small):
    dec = dw_small.dec
    gram = np.einsum("kn,jn,n->kj", dec.modes, dec.modes, dec.weights)
    np.testing.assert_allclose(gram, np.eye(dec.m + 1), atol=1e-10)


def test_sign_convention_left_minimum_positive(dw_small):
    dec = dw_small.dec
    node = int(np.argmin(np.abs(dec.grid.nodes - (-1.0))))
    assert dec.modes[1, node] > 0


def test_default_sign_node_resolves_symmetric_ties():
    # between two equally deep wells the default must pick the leftmost
    # minimum deterministically, not whichever side floating-point rounding
    # makes a hair heavier
    for n in (200, 317, 1000):
        gen = build_generator(DW, 0.1, auto_grid(DW, 0.1, n=n))
        dec = decompose(gen, 1)
        node = int(np.argmin(np.abs(dec.grid.nodes - (-1.0))))
        assert dec.modes[1, node] > 0


def test_ou_spectrum_equally_spaced():
    # Hermite ladder: lambda_k = k * curvature, independent of eps
    quad = make_potential("quadratic")
    gen = build_generator(quad, 0.5, Grid(L=8.0, n=1000))
    dec = decompose(gen, 3)
    np.testing.assert_allclose(dec.eigenvalues, [0, 1, 2, 3], rtol=2e-3, atol=1e-3)


def test_verify_eigen_identity(dw_small):
    # every mode is a right eigenvector of the generator, A phi_k =
    # -lambda_k phi_k, and its signed weights a left one, sw_k A = -lambda_k
    # sw_k, to a few ulp of the largest exit rate (each read 1e-15 or less)
    dec, gen = dw_small.dec, dw_small.gen
    diag, lower, upper = gen.tridiagonal()
    A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    lam = dec.eigenvalues[:, None]
    for vecs, residual in ((dec.modes, dec.modes @ A.T + lam * dec.modes),
                           (dec.signed_weights, dec.signed_weights @ A + lam * dec.signed_weights)):
        scale = gen.max_exit_rate() * np.max(np.abs(vecs), axis=1)
        assert np.all(np.max(np.abs(residual), axis=1) <= 1e-12 * scale)


def test_grid_refinement_second_order():
    L = auto_grid(DW, 0.1, n=500).L
    lams = {}
    for n in (500, 1000, 2000):
        gen = build_generator(DW, 0.1, Grid(L, n))
        lams[n] = decompose(gen, 1).eigenvalues[1]
    ratio = (lams[500] - lams[1000]) / (lams[1000] - lams[2000])
    assert 3.5 <= ratio <= 4.5


def test_mode_sup_norm_stable_under_refinement():
    L = auto_grid(DW, 0.1, n=500).L
    sups = {}
    for n in (1000, 2000):
        gen = build_generator(DW, 0.1, Grid(L, n))
        sups[n] = float(np.max(np.abs(decompose(gen, 1).modes[1])))
    assert abs(sups[1000] - sups[2000]) / sups[2000] <= 0.01


def test_exports(dw_small):
    dec = dw_small.dec
    # the table is yielded a row at a time, never held whole
    table = decomposition_table(dec)
    assert iter(table) is table
    assert next(table) == ["x", "weight", "mode_0", "mode_1"]
    assert next(table) == [f"{dec.grid.nodes[0]:.12g}", f"{dec.weights[0]:.12g}",
                           f"{dec.modes[0, 0]:.12g}", f"{dec.modes[1, 0]:.12g}"]
    assert sum(1 for _ in table) == dec.grid.n - 1
    assert "schrodinger_eigenvalues" not in eigenvalues_to_json(dec)
    hat = schrodinger_eigenvalues(DW, 0.1, dec.grid, 2)
    payload = eigenvalues_to_json(dec, schrodinger_eigenvalues=hat)
    assert payload["eigenvalues"][0] == 0.0
    assert payload["scaled_schrodinger_eigenvalues"] == (0.1 * hat).tolist()


def _mp_lambda_1(gen, dps=80):
    """lambda_1 of the same S = G^T G in dps-digit arithmetic, by Sturm-count
    bisection to 1e-30 relative. In exact arithmetic S has a simple zero
    eigenvalue, so lambda_1 is the point where the count reaches 2."""
    with mpmath.workdps(dps):
        birth = [mpmath.mpf(float(b)) for b in gen.birth]
        death = [mpmath.mpf(float(d)) for d in gen.death]
        diag = [b + d for b, d in zip(birth, death)]
        off2 = [birth[j] * death[j + 1] for j in range(gen.n - 1)]
        tiny = mpmath.mpf(10) ** (-2 * dps)

        def count_below(x):
            q = diag[0] - x
            count = int(q < 0)
            for i in range(1, gen.n):
                q = diag[i] - x - off2[i - 1] / (q if q != 0 else tiny)
                count += q < 0
            return count

        lo, hi = mpmath.mpf(0), 2 * max(diag)
        while hi - lo > mpmath.mpf(10) ** -30 * hi:
            mid = (lo + hi) / 2
            if count_below(mid) >= 2:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.03, 0.02, 0.015, 0.01])
def test_lambda_1_relative_accuracy_small_noise(eps):
    # lambda_1 falls to 6e-12 at eps = 0.01 while ||S|| stays near 1e3: an
    # absolute-accuracy solver loses nearly every digit there, the
    # bidiagonal route keeps them
    gen = build_generator(DW, eps, auto_grid(DW, eps, n=300))
    dec = decompose(gen, 1)
    ref = _mp_lambda_1(gen)
    assert abs(dec.eigenvalues[1] - ref) <= 1e-12 * ref


def test_triple_well_small_noise_passes_zero_mode_gate():
    # at eps = 0.05, n = 4000 an absolute-accuracy solver put lambda_0 at
    # -6.4e-13 against lambda_1 = 4.3e-5 and tripped the gate
    tw = make_potential("triple_well")
    gen = build_generator(tw, 0.05, auto_grid(tw, 0.05, n=4000))
    dec = decompose(gen, 3)
    assert dec.eigenvalues[0] == 0.0
    assert 0 < dec.eigenvalues[1] < dec.eigenvalues[2] < dec.eigenvalues[3]


@pytest.mark.parametrize("preset,eps", [("double_well", 0.1), ("triple_well", 0.07)])
def test_cross_route_eigenvalues_are_the_decomposition_s(preset, eps):
    # verify's two-route check reads eigenvalues alone: the generator route's
    # equal decompose's bit for bit at the reference n 4000, and the
    # Schrodinger route's (n 4000 and the Richardson half-step 7999) equal
    # the values eigensolve_tridiagonal returns with its vectors
    pot = make_potential(preset)
    grid = auto_grid(pot, eps, n=4000)
    gen = build_generator(pot, eps, grid)
    assert generator_eigenvalues(gen, 3).tobytes() == decompose(gen, 3).eigenvalues.tobytes()
    for g in (grid, Grid(grid.L, 2 * grid.n - 1)):
        values, _ = eigensolve_tridiagonal(*build_schrodinger(pot, eps, g), 4)
        assert schrodinger_eigenvalues(pot, eps, g, 4).tobytes() == values.tobytes()


def test_cross_route_raises_where_decompose_does(monkeypatch):
    # one lambda_0 test serves both: a smallest eigenvalue lifted off zero
    # raises the same TruncationError from decompose and from the
    # eigenvalue-only route
    import eigencoupler.spectral as spectral
    import eigencoupler.tridiag as tridiag
    values_of = tridiag.edge_factor_eigenvalues

    def lifted(*args):
        values = values_of(*args)
        values[0] = 1e-6 * values[1]
        return values
    monkeypatch.setattr(tridiag, "edge_factor_eigenvalues", lifted)
    monkeypatch.setattr(spectral, "edge_factor_eigenvalues", lifted)
    gen = build_generator(DW, 0.1, auto_grid(DW, 0.1, n=400))
    with pytest.raises(TruncationError) as full:
        decompose(gen, 3)
    with pytest.raises(TruncationError) as alone:
        generator_eigenvalues(gen, 3)
    assert str(full.value) == str(alone.value)
