import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigencoupler.errors import DegenerateCriticalPointError, GrowthAssumptionError
from eigencoupler.potential import (
    Potential,
    domains_of_attraction,
    find_critical_points,
    make_potential,
    preset_names,
    require_coupling_ready,
    validate_assumptions,
)


def bisect_oracle(f, lo, hi, tol=1e-14):
    # independent root finder used to freeze expected values
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if (f(lo) < 0) == (f(mid) < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_double_well_critical_points():
    # F' = x^3 - x: roots -1, 0, 1 by calculus
    p = make_potential("double_well")
    minima, maxima = find_critical_points(p)
    assert minima.tolist() == [-1.0, 1.0]
    assert maxima.tolist() == [0.0]


def test_single_well_critical_points():
    p = make_potential("quadratic")
    minima, maxima = find_critical_points(p)
    # +0.0: polyroots gives F' = x the root -0.0
    assert minima.tolist() == [0.0] and np.signbit(minima).tolist() == [False]
    assert maxima.size == 0


def test_tilted_double_well_matches_bisection_oracle():
    # expected values computed with bisect_oracle on F' = x^3 - x + 0.1,
    # cross checked against numpy.roots
    f = lambda x: x**3 - x + 0.1
    expected_min = [bisect_oracle(f, -2.0, -0.5), bisect_oracle(f, 0.5, 2.0)]
    expected_max = [bisect_oracle(f, -0.5, 0.5)]
    np.testing.assert_allclose(expected_min, [-1.046680531804602, 0.945649273923592],
                               atol=1e-12)
    np.testing.assert_allclose(expected_max, [0.101031257881011], atol=1e-12)

    p = make_potential("tilted_double_well")
    minima, maxima = find_critical_points(p)
    np.testing.assert_allclose(minima, expected_min, atol=1e-12)
    np.testing.assert_allclose(maxima, expected_max, atol=1e-12)


def test_triple_well_critical_points():
    # F' = s*x*(x^2-1)*(x^2-4)
    p = make_potential("triple_well")
    minima, maxima = find_critical_points(p)
    assert minima.tolist() == [-2.0, 0.0, 2.0]
    assert maxima.tolist() == [-1.0, 1.0]


_FOLD = 2.0 / (3.0 * np.sqrt(3.0))  # F' = x^3 - x + c has a double root at c = _FOLD


def test_pair_just_below_the_fold_is_found():
    # F' = x^3 - x + c with c 1e-8 below the fold: a min-max pair 1.5e-4
    # apart near 1/sqrt(3), |F''| = 2.6e-4 there; an 8192-point scan of F'
    # sees no sign change across it and reads one well
    p = Potential(np.array([0.0, _FOLD - 1e-8, -0.5, 0.0, 0.25]))
    minima, maxima = find_critical_points(p)
    f = lambda x: x**3 - x + (_FOLD - 1e-8)
    s = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(minima, [bisect_oracle(f, -2.0, -1.0), bisect_oracle(f, s, 1.0)],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(maxima, [bisect_oracle(f, 0.0, s)], rtol=0, atol=1e-12)
    assert abs(p.hess(maxima[0])) > 2e-4


def test_complex_pair_just_above_the_fold_is_not_a_root():
    # 1e-8 above the fold the pair is complex, 0.57735 +- 7.6e-5 i: one well
    p = Potential(np.array([0.0, _FOLD + 1e-8, -0.5, 0.0, 0.25]))
    minima, maxima = find_critical_points(p)
    f = lambda x: x**3 - x + (_FOLD + 1e-8)
    np.testing.assert_allclose(minima, [bisect_oracle(f, -2.0, -1.0)], rtol=0, atol=1e-12)
    assert maxima.size == 0


@pytest.mark.parametrize("coeffs, minima, maxima", [
    # F' = x^5 - x: simple roots -1, 0, 1 and the pair +-i, whose candidates
    # Re z + Im z land within an ulp of -1 and 1
    ((0.0, 0.0, -0.5, 0.0, 0.0, 0.0, 1.0 / 6.0), [-1.0, 1.0], [0.0]),
    # F' = 6e-6 x^5 - 2x: roots 0 and +-(1e6 / 3)^(1/4) = +-24.03, and a
    # complex pair of the same modulus
    ((0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1e-6), [-(1e6 / 3) ** 0.25, (1e6 / 3) ** 0.25], [0.0]),
])
def test_complex_pair_next_to_a_real_root_hides_none(coeffs, minima, maxima):
    found = find_critical_points(Potential(np.array(coeffs)))
    np.testing.assert_allclose(found[0], minima, rtol=1e-15, atol=0)
    np.testing.assert_allclose(found[1], maxima, rtol=0, atol=1e-300)


def test_degenerate_critical_point_rejected():
    # F = x^4 has F''(0) = 0
    with pytest.raises(DegenerateCriticalPointError):
        find_critical_points(Potential(np.array([0.0, 0.0, 0.0, 0.0, 1.0])))


def test_unresolved_close_pair_rejected():
    # F' = (x + 0.5)(x - 1)(x - 1 - 2e-8): |F''| = 3e-8 at both close roots,
    # above CURVATURE_TOL, and both companion eigenvalues are real, but F'
    # between them lies within its rounding and shows no sign change; the
    # pair is named, not read as one well
    P = np.polynomial.polynomial
    p = Potential(P.polyint(P.polyfromroots([-0.5, 1.0, 1.0 + 2e-8])))
    assert np.all(np.abs(p.hess(np.array([1.0, 1.0 + 2e-8]))) > 1e-8)
    with pytest.raises(DegenerateCriticalPointError, match=r"x=0\.99999"):
        find_critical_points(p)


@pytest.mark.parametrize("name", preset_names())
def test_narrowed_bisection_keeps_preset_critical_points(name, monkeypatch):
    # bisection from 2**16 floats around each eigenvalue lands on the floats
    # that bisection from the whole bracket finds (a window of no floats
    # shows no sign change, so every root falls back to its bracket)
    import eigencoupler.potential as potential
    narrowed = find_critical_points(make_potential(name))
    monkeypatch.setattr(potential, "_NARROW", 0)
    whole = find_critical_points(make_potential(name))
    for a, b in zip(narrowed, whole):
        assert a.tobytes() == b.tobytes()


def test_domains_double_well():
    part = domains_of_attraction(make_potential("double_well"))
    assert part.intervals == ((-np.inf, 0.0), (0.0, np.inf))
    assert part.locate([-0.5, 0.5]).tolist() == [0, 1]


def test_domains_triple_well_interval_between_maxima():
    part = domains_of_attraction(make_potential("triple_well"))
    np.testing.assert_allclose(part.intervals[1], (-1.0, 1.0), atol=1e-11)
    assert part.intervals[0][0] == -np.inf
    assert part.intervals[2][1] == np.inf


def test_domains_single_well_whole_line():
    part = domains_of_attraction(make_potential("quadratic"))
    assert part.intervals == ((-np.inf, np.inf),)


def test_assumptions_degree4():
    rep = validate_assumptions(make_potential("double_well"))
    assert rep.a1 == rep.a2 == 6.0
    assert rep.exponent_gap_ok and rep.passed


def test_assumptions_quadratic_rejected():
    rep = validate_assumptions(make_potential("quadratic"))
    assert rep.a1 == 2.0
    assert not rep.exponent_gap_ok and not rep.passed
    with pytest.raises(GrowthAssumptionError):
        require_coupling_ready(make_potential("quadratic"))
    # spectral-validation override is honoured
    require_coupling_ready(make_potential("quadratic"), spectral_only=True, override=True)


def test_assumptions_degree6():
    rep = validate_assumptions(make_potential("triple_well"))
    assert rep.a1 == rep.a2 == 10.0
    assert rep.passed


def test_wells_past_ten_are_coupling_ready():
    # F = 1e-4 (x^2 - 144)^2: degree 4, positive leading coefficient, wells
    # at +-12
    p = Potential(1e-4 * np.array([144.0 ** 2, 0.0, -288.0, 0.0, 1.0]))
    report = require_coupling_ready(p)
    assert report.passed and report.a1 == report.a2 == 6.0
    np.testing.assert_allclose(p.minima, [-12.0, 12.0], rtol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=0, max_size=3),
       st.floats(0.2, 2.0), st.floats(1.0, 30.0))
@example([1.0, 0.0, -2.0], 1.0, 12.0)       # (x^2 / 144 - 1)^2: wells at +-12
def test_random_even_polynomials_interleave(lower_coeffs, lead, stretch):
    # every even-degree (>= 4) polynomial with positive leading coefficient
    # meets the growth conditions wherever its critical points lie: F(x /
    # stretch) puts them up to 30 times further out, past |x| = 10, with
    # wells up to 900 times flatter; detected minima/maxima strictly
    # interleave
    coeffs = np.array(lower_coeffs + [0.0] * (5 - len(lower_coeffs)))
    coeffs[4] = lead
    p = Potential(coeffs / stretch ** np.arange(5))
    rep = validate_assumptions(p)
    assert rep.exponent_gap_ok and rep.passed
    try:
        minima, maxima = find_critical_points(p)
    except DegenerateCriticalPointError:
        return
    assert len(minima) == len(maxima) + 1
    crits = np.sort(np.concatenate((minima, maxima)))
    # minima occupy the even slots of the sorted critical list
    np.testing.assert_allclose(np.sort(minima), crits[::2], atol=1e-9)


@pytest.mark.parametrize("preset", ["double_well", "tilted_double_well", "triple_well"])
def test_gradient_flow_lands_in_correct_well(preset):
    # explicit Euler on phi' = -F'(phi) from 1000 random starts must converge
    # to the minimum of the containing interval
    p = make_potential(preset)
    part = domains_of_attraction(p)
    minima = p.minima
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.6, 2.6, size=1000)
    # starts too close to a separatrix take unboundedly long to leave it
    for b in part.boundaries:
        x = x[np.abs(x - b) > 1e-3]
    expected = part.locate(x)
    phi = x.copy()
    target = minima[expected]
    active = np.abs(phi - target) >= 1e-3
    for _ in range(2_000_000):
        if not active.any():
            break
        phi[active] -= 1e-3 * p.grad(phi[active])
        active = np.abs(phi - target) >= 1e-3
    assert not active.any()
    landed = np.abs(phi - minima[part.locate(phi)]) < 1e-3
    assert landed.all()
    assert (part.locate(phi) == expected).all()


_ZERO_TERMS = {
    # F' = -x + 1.5 x^4, with interior and leading zero coefficients
    "custom": (0.1, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0, 0.0),
    # F' = -0 + 0 x + x^2: an add of -0.0 last keeps every earlier zero's sign
    "signed_zero": (0.3, -0.0, 0.0, 1.0 / 3.0),
}


@pytest.mark.parametrize("name", preset_names() + tuple(_ZERO_TERMS))
def test_grad_into_bitwise_polyval(name):
    # the Euler loop's in-place gradient rounds exactly as polyval, sign of
    # zero and NaN included, at the roots of F' and past its zero terms
    pot = (Potential(np.array(_ZERO_TERMS[name])) if name in _ZERO_TERMS
           else make_potential(name))
    roots = np.polynomial.polynomial.polyroots(np.trim_zeros(pot._dcoeffs, "b"))
    roots = roots[np.isreal(roots)].real
    rng = np.random.default_rng(5)
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate((rng.normal(0.0, 3.0, 1000), -rng.uniform(0, 1e-3, 50),
                        roots, -roots, np.nextafter(roots, np.inf),
                        np.arange(-5.0, 6.0), [1.0, -1.0, tiny, -tiny, 3 * tiny, 1e-310],
                        [0.0, -0.0, np.nan, -np.nan, 1e300, -1e300]))
    out = np.full_like(x, 7.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = pot.grad_into(x, out)
        ref = np.polynomial.polynomial.polyval(x, pot._dcoeffs)
    assert got is out
    np.testing.assert_array_equal(got.view(np.uint64)[~np.isnan(ref)],
                                  ref.view(np.uint64)[~np.isnan(ref)])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
