"""Polynomial confining potentials: critical structure, domains of attraction,
and growth-condition audits.

Potentials are restricted to polynomials so that the growth exponents used by
the coupling pipeline are exact symbolic facts instead of numerical estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateCriticalPointError, GrowthAssumptionError

__all__ = [
    "Potential",
    "DomainPartition",
    "AuditCheck",
    "AssumptionReport",
    "make_potential",
    "preset_names",
    "find_critical_points",
    "domains_of_attraction",
    "validate_assumptions",
]

CURVATURE_TOL = 1e-9
# float ranks either side of a companion eigenvalue that bisection first tries
_NARROW = 2 ** 16
_EPS_PROBE = 0.1
_N_RADII = 400

# Preset coefficient lists, lowest degree first.
_PRESETS = {
    # (x^2 - 1)^2 / 4: wells at +-1, barrier 1/4 at 0
    "double_well": (0.25, 0.0, -0.5, 0.0, 0.25),
    # same wells, tilted so the left well is deeper
    "tilted_double_well": (0.25, 0.1, -0.5, 0.0, 0.25),
    # s*(x^6/6 - 5x^4/4 + 2x^2), s = 1/5: wells at 0, +-2, maxima at +-1.
    # The outer wells are deeper, so the two slow relaxation rates stay
    # well separated over the epsilon range used in the experiments.
    "triple_well": (0.0, 0.0, 2.0 / 5.0, 0.0, -1.0 / 4.0, 0.0, 1.0 / 30.0),
    # x^2/2: single well, spectral-validation runs only
    "quadratic": (0.0, 0.0, 0.5),
}


@dataclass(frozen=True)
class Potential:
    """A polynomial potential, coefficients in increasing degree order."""

    coeffs: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def value(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def grad(self, x):
        return np.polynomial.polynomial.polyval(x, self._dcoeffs)

    def grad_into(self, x, out):
        """grad(x) written into the preallocated array out: polyval's Horner
        steps (c[-1] + x*0, then c[-i] + acc*x) done in place, without its
        per-call allocations or its additions of zero. Bit for bit polyval
        for finite x and NaN; for ±inf it gives ±inf where polyval gives NaN
        (from x*0) unless F' is constant, and the simulator's blow-up guard
        rejects both.

        For finite x polyval's acc is exactly c[j] at the highest nonzero
        coefficient c[j], so Horner starts from x * c[j]. A skipped + 0.0
        only turns an exact -0 into +0, which the next nonzero add or the
        kept final + c[0] absorbs; a skipped + -0.0 changes nothing.

        Where c[j] is 1.0 and c[j - 1] is skipped (double_well,
        tilted_double_well), the first two steps x * 1.0 and * x are one
        x * x: x * 1.0 is x exactly, NaN and signed zeros included, so the
        bits are the same at one ufunc call fewer."""
        lead, inner, c0 = self._grad_horner
        np.multiply(x, x if lead is None else lead, out=out)
        for ci in inner:
            if ci is not None:
                out += ci
            out *= x
        out += c0
        return out

    def hess(self, x):
        return np.polynomial.polynomial.polyval(x, self._ddcoeffs)

    @cached_property
    def _dcoeffs(self) -> np.ndarray:
        return np.polynomial.polynomial.polyder(self.coeffs)

    @cached_property
    def _grad_horner(self) -> tuple:
        """(lead, inner, c0) of grad_into: out = x * lead (x * x where lead
        is None), then for each inner coefficient + ci (None: skipped) and
        * x, then + c0. Where no coefficient past c[0] is nonzero, or c[0] is
        -0.0 (an identity add that keeps a zero's sign, so every earlier sign
        counts), these are polyval's own steps."""
        c = [float(v) for v in self._dcoeffs]
        nz = np.flatnonzero(self._dcoeffs)
        j = int(nz[-1]) if nz.size else 0
        if j == 0 or (c[0] == 0.0 and math.copysign(1.0, c[0]) < 0.0):
            return 0.0, tuple(c[:0:-1]), c[0]
        inner = tuple(ci if ci else None for ci in c[j - 1:0:-1])
        if c[j] == 1.0 and inner[:1] == (None,):
            return None, inner[1:], c[0]
        return c[j], inner, c[0]

    @cached_property
    def _ddcoeffs(self) -> np.ndarray:
        return np.polynomial.polynomial.polyder(self.coeffs, 2)

    @cached_property
    def _critical_points(self):
        return find_critical_points(self)

    @property
    def minima(self) -> np.ndarray:
        return self._critical_points[0]

    @property
    def maxima(self) -> np.ndarray:
        return self._critical_points[1]

    @property
    def n_wells(self) -> int:
        return len(self.minima)

    @cached_property
    def growth(self) -> "AssumptionReport":
        return validate_assumptions(self)

    def is_confining(self) -> bool:
        d = self.degree
        return d >= 2 and d % 2 == 0 and self.coeffs[d] > 0


@dataclass(frozen=True)
class DomainPartition:
    """Open intervals of attraction, one per local minimum, separated by the
    local maxima."""

    boundaries: np.ndarray  # the local maxima, sorted
    intervals: tuple        # (lo, hi) per minimum, +-inf at the extremes

    def locate(self, x) -> np.ndarray:
        """Index of the interval containing each point (boundaries fall in the
        interval to their right)."""
        return np.searchsorted(self.boundaries, np.asarray(x, dtype=float), side="right")


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    constants: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AssumptionReport:
    degree: int
    a1: float
    a2: float
    exponent_gap_ok: bool   # a2 < 2*a1 - 2, i.e. degree > 2
    checks: tuple = ()
    note: str = "certificate constants fitted on |x| in [10, 1e4]"

    @property
    def passed(self) -> bool:
        return self.exponent_gap_ok and all(c.passed for c in self.checks)


def preset_names():
    return tuple(_PRESETS)


def make_potential(source) -> Potential:
    """Build a potential from a preset name or a coefficient list."""
    if isinstance(source, str):
        if source not in _PRESETS:
            raise ValueError(f"unknown potential preset {source!r}; "
                             f"known: {', '.join(_PRESETS)}")
        return Potential(np.array(_PRESETS[source]), name=source)
    return Potential(np.asarray(source, dtype=float))


def _float_order(v: np.ndarray) -> np.ndarray:
    """Swap float64 bit patterns (viewed as int64) and their ranks in the
    order of the floats, +0.0 and -0.0 both at rank 0; the map is its own
    inverse."""
    return np.where(v < 0, np.iinfo(np.int64).min - v, v)


def find_critical_points(potential: Potential):
    """Locate and classify the real roots of F'.

    Returns (minima, maxima) as sorted arrays. The roots of F' are the
    eigenvalues of its companion matrix (`polyroots`, backward stable through
    LAPACK). Each eigenvalue z gives the candidate Re z + Im z, so a real root
    gives itself and a close real pair that rounding made x0 +- iy gives
    x0 +- y. Midpoints between neighbouring candidates bracket each one; a
    bracket across which F' changes sign holds a root, and a complex pair's
    brackets hold none. Each root is bisected on the order of the floats
    down to two adjacent floats, from 2**16 floats either side of its
    eigenvalue where F' changes sign across them (about 17 halvings), else
    from its whole bracket (at most 64); the one with the smaller |F'| is
    kept, and the sign of F'' classifies it.

    Raises:
        DegenerateCriticalPointError: some root has |F''| < 1e-9, or F'
            shows no sign change across the bracket of a real eigenvalue
            (two roots closer than F' resolves, which would otherwise be
            lost as a pair).
        ValueError: the potential is constant or not confining, or no
            minimum is found.
    """
    dcoeffs = np.trim_zeros(potential._dcoeffs, "b")
    if dcoeffs.size == 0:
        raise ValueError("constant potential has no critical structure")
    if not potential.is_confining():
        raise ValueError("potential must have even degree >= 2 with positive "
                         "leading coefficient")

    z = np.polynomial.polynomial.polyroots(dcoeffs)
    cand, which = np.unique(z.real + z.imag, return_inverse=True)
    real = np.zeros(cand.size, dtype=bool)
    real[which[z.imag == 0]] = True
    edges = np.concatenate(([cand[0] - 1.0 - abs(cand[0])], (cand[:-1] + cand[1:]) / 2,
                            [cand[-1] + 1.0 + abs(cand[-1])]))
    # F' < 0 left of every root and > 0 right of them (odd degree, positive
    # leading coefficient)
    positive = np.concatenate(([False], potential.grad(edges[1:-1]) > 0, [True]))
    held = positive[:-1] != positive[1:]
    if np.any(real & ~held):
        x = cand[real & ~held][0]
        raise DegenerateCriticalPointError(
            f"critical point x={x:.12g}: F' shows no sign change around it, so its "
            "root lies closer to another than F' can resolve")
    lo = _float_order(edges[:-1][held].view(np.int64))
    hi = _float_order(edges[1:][held].view(np.int64))
    positive_lo = positive[:-1][held]
    # a well-conditioned root lies within a few ulp of its eigenvalue: where
    # F' changes sign across _NARROW ranks either side of it, bisection
    # starts there
    at = _float_order(cand[held].view(np.int64))
    near = np.stack((np.maximum(lo, at - _NARROW), np.minimum(hi, at + _NARROW)))
    ends = potential.grad(_float_order(near).view(float)) > 0
    narrowed = (ends[0] == positive_lo) & (ends[1] != positive_lo)
    lo, hi = np.where(narrowed, near[0], lo), np.where(narrowed, near[1], hi)
    # the halvings that bring the widest bracket to adjacent floats (at most
    # 64); a bracket of adjacent floats stays as it is
    width = max((int(h) - int(l) for l, h in zip(lo.tolist(), hi.tolist())), default=1)
    for _ in range((width - 1).bit_length()):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)    # floor((lo + hi) / 2), no overflow
        left = (potential.grad(_float_order(mid).view(float)) > 0) == positive_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    ends = _float_order(np.stack((lo, hi))).view(float)
    roots = np.where(np.abs(potential.grad(ends[0])) <= np.abs(potential.grad(ends[1])),
                     ends[0], ends[1])

    minima, maxima = [], []
    for r in roots.tolist():
        curv = potential.hess(r)
        if abs(curv) < CURVATURE_TOL:
            raise DegenerateCriticalPointError(
                f"critical point x={r:.12g} has |F''|={abs(curv):.3g} < {CURVATURE_TOL}")
        (minima if curv > 0 else maxima).append(r)
    if not minima:
        raise ValueError("no local minima found")
    return np.array(minima), np.array(maxima)


def domains_of_attraction(potential: Potential) -> DomainPartition:
    """Intervals of attraction of the gradient flow, one open interval per
    minimum; in 1-D these are exactly the intervals between adjacent maxima."""
    minima, maxima = potential.minima, potential.maxima
    edges = np.concatenate(([-np.inf], maxima, [np.inf]))
    intervals = tuple((float(edges[j]), float(edges[j + 1])) for j in range(len(minima)))
    for j, (lo, hi) in enumerate(intervals):
        if not (lo < minima[j] < hi):
            raise ValueError("minima and maxima do not interleave")
    return DomainPartition(boundaries=np.asarray(maxima, dtype=float), intervals=intervals)


def _fit_sandwich(values: np.ndarray, radii: np.ndarray, a_lo: float, a_hi: float):
    """Fit certificate constants for c1*r^a_lo - c2 <= values <= c3*r^a_hi + c4
    on the sampled radii (c2 = c4 = 0 suffices when the leading term dominates)."""
    lower = values / radii ** a_lo
    upper = values / radii ** a_hi
    c1 = float(np.min(lower))
    c3 = float(np.max(upper))
    return {"c1": c1, "c2": 0.0, "c3": c3, "c4": 0.0}, c1 > 0 and np.isfinite(c3)


def validate_assumptions(potential: Potential) -> AssumptionReport:
    """Audit the growth conditions needed by the coupling pipeline.

    The exponents a1 = a2 = 2*(degree-1) are exact for polynomials; the gap
    condition a2 < 2*a1 - 2 is therefore equivalent to degree > 2. The
    sandwich bounds for |F'|^2, (|F'| - 2F'')^2, |F| (exponent a/2 + 1), and
    the ground-state-form potential at eps = 0.1 are audited numerically on
    400 log-spaced radii |x| in [10, 1e4] by fitting certificate constants.
    """
    d = potential.degree
    if not potential.is_confining():
        return AssumptionReport(degree=d, a1=0.0, a2=0.0, exponent_gap_ok=False,
                                note="not confining: even degree >= 2 with positive "
                                     "leading coefficient required")
    a = 2.0 * (d - 1)
    gap_ok = d > 2

    r = np.logspace(1, 4, _N_RADII)
    x = np.concatenate((-r[::-1], r))
    rad = np.abs(x)
    g = potential.grad(x)
    h = potential.hess(x)
    f = potential.value(x)

    checks = []
    for name, vals, lo_e, hi_e in [
        ("grad_squared_sandwich", g ** 2, a, a),
        ("grad_minus_2hess_squared_sandwich", (np.abs(g) - 2 * h) ** 2, a, a),
        ("potential_sandwich", np.abs(f), a / 2 + 1, a / 2 + 1),
    ]:
        consts, ok = _fit_sandwich(vals, rad, lo_e, hi_e)
        checks.append(AuditCheck(name, ok, consts))

    v_eps = g ** 2 / (4 * _EPS_PROBE ** 2) - h / (2 * _EPS_PROBE)
    consts, ok = _fit_sandwich(v_eps, rad, a, a)
    consts["eps"] = _EPS_PROBE
    checks.append(AuditCheck("ground_state_potential_sandwich", ok, consts))

    return AssumptionReport(degree=d, a1=a, a2=a, exponent_gap_ok=gap_ok,
                            checks=tuple(checks))


def require_coupling_ready(potential: Potential, spectral_only: bool = False,
                           override: bool = False):
    """Gate used by the pipeline before building anything on a potential.

    Coupling runs require the growth conditions and at least two wells, with
    no override. Spectral-validation runs (spectral_only=True) may bypass a
    failing growth audit with an explicit override.
    """
    report = potential.growth
    if not report.passed:
        if spectral_only and override:
            return report
        hint = ("; pass the assumption override to run spectral validation anyway"
                if spectral_only else "")
        raise GrowthAssumptionError(
            f"potential degree {report.degree} violates the growth conditions "
            f"(even degree > 2 with positive leading coefficient required){hint}")
    if not spectral_only and potential.n_wells < 2:
        raise GrowthAssumptionError(
            "at least two local minima are required for coupling runs "
            "(single-well potentials are allowed for spectral validation only)")
    return report
