"""Zero counting for elements p(h) I2(h) + q(h) I0(h), deg p, q <= 2.

Real intervals are scanned on a log-graded grid with Brent refinement;
near-tangencies are probed with the element's derivative (J = dI/dh for the
I basis, J' from the Picard-Fuchs system for the J basis, on every case)
and reported as multiplicity-2 candidates.  Real periods are
:func:`periods_real`'s closed form (Carlson's R_D), at the grid once per
case and cached, and at each Brent iterate.  An element's grid values and
the classification of its nodes (reliable or sub-noise, sign flips, dips)
are array passes, so only the few flagged node pairs cost Python work.
Each element converts its coefficients to floats once, for the scan, the
pointwise value :func:`eval_V` and the winding alike.  On the eight-loop
exterior the derivative combination J = ptilde J2 + qtilde J0 is also
counted in the cut plane by the argument principle: the winding of
F = ptilde J2/J0 + qtilde along the boundary of a truncated cut plane
(|h| <= R minus a slit neighborhood of half-width delta) equals the number
of zeros of F inside, since J0 has no zeros there.

The contour values of (J0, J2) come from the closed form on the cut plane,
:func:`cut_plane_J`, evaluated once per ContourSpec at the fixed contour
samples and shared by all elements; J0 winding zero times over those
samples is the table's built-in check.  The table caches h and J2/J0 there,
so an element's F is one array evaluation per piece; only phase steps of
pi/4 or more are refined, by bisection with the closed form at the
midpoints.

Sign flips are refined by :func:`_brent`, the package's port of scipy's
``brentq``, so the real scan needs no scipy.optimize.  scipy is loaded on
first use, not on import: scipy.special by the first period (see
:mod:`raylien.elliptic`); the scan and the winding load nothing else.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .elliptic import cut_plane_J, periods_real, pf_J_prime
from .exactalg import Poly, PolyU
from .forms import AnnulusCase

__all__ = [
    "VElement",
    "ZeroReport",
    "ContourSpec",
    "eval_V",
    "count_zeros_real",
    "derivative_element",
    "winding_number_F",
]


@dataclass(frozen=True)
class VElement:
    """p(h) I2 + q(h) I0 (basis='I') or p(h) J2 + q(h) J0 (basis='J').

    ``pc`` and ``qc`` are the coefficients of p and q as floats, in
    np.polyval's order (c2, c1, c0), converted once for every numeric
    evaluation of the element.
    """

    p: Poly
    q: Poly
    case: AnnulusCase
    basis: str = "I"
    pc: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    qc: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p.degree() > 2 or self.q.degree() > 2:
            raise ValueError("degrees must be <= 2")
        if self.basis not in ("I", "J"):
            raise ValueError("basis must be 'I' or 'J'")
        for name, poly in (("pc", self.p), ("qc", self.q)):
            # int / int rounds correctly: the double of float(poly[k]), without a Fraction
            object.__setattr__(self, name, tuple(poly.num.get((k,), 0) / poly.den for k in (2, 1, 0)))

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    @classmethod
    def from_coeffs(cls, p_coeffs, q_coeffs, case: AnnulusCase, basis: str = "I") -> VElement:
        return cls(
            PolyU.from_coeff_list(list(p_coeffs), "h"),
            PolyU.from_coeff_list(list(q_coeffs), "h"),
            case,
            basis,
        )


@dataclass(frozen=True)
class ZeroReport:
    count: int
    locations: tuple[tuple[float, int], ...]  # (h, multiplicity estimate)
    method: str  # real-scan | argument-principle
    bound: int
    certified: bool
    window: tuple[float, float]
    notes: str = ""


def _horner(c: tuple[float, float, float], h):
    """c2 h^2 + c1 h + c0 at a real h or array of h, bit for bit np.polyval(c, h).

    eval_V and the scan share it, so a value at a scan node is the scan's
    value there.
    """
    c2, c1, c0 = c
    return (c2 * h + c1) * h + c0


def eval_V(e: VElement, h: float, tol: float = 1e-12) -> float:
    """Value of the element at h, from the closed-form periods at h."""
    pv = periods_real(e.case, h, tol)
    p, q = _horner(e.pc, h), _horner(e.qc, h)
    if e.basis == "I":
        return p * pv.I2 + q * pv.I0
    return p * pv.J2 + q * pv.J0


def derivative_element(e: VElement) -> VElement:
    """(ptilde, qtilde) with I' = ptilde J2 + qtilde J0, on every case.

    From the Picard-Fuchs system: I0 = (4h J0 - a J2)/3 and
    I2 = (-4a h J0 + (12bh + 4a^2) J2)/(15 b), so substituting into
    I' = p' I2 + p J2 + q' I0 + q J0 gives exact degree-<=2 polynomials.
    """
    if e.basis != "I":
        raise ValueError("derivative_element expects an I-basis element")
    a, b = e.case.a, e.case.b
    dp, dq = e.p.diff("h"), e.q.diff("h")
    j2_coeff = PolyU.from_coeff_list([4 * a * a, 12 * b], "h")
    h = PolyU.from_coeff_list([0, 1], "h")
    ptilde = e.p + (j2_coeff * dp).scale(1 / (15 * b)) - dq.scale(a / 3)
    qtilde = e.q + (h * dp).scale(-4 * a / (15 * b)) + (h * dq).scale(Fraction(4, 3))
    return VElement(ptilde, qtilde, e.case, basis="J")


# ---------------------------------------------------------------------------
# Real-interval scan
# ---------------------------------------------------------------------------

def scan_grid(case: AnnulusCase, n: int) -> np.ndarray:
    """Log-graded scan nodes strictly inside the case interval."""
    if math.isinf(case.h_hi):
        return np.geomspace(1e-8, 1e8, n)
    lo, hi = case.h_lo, case.h_hi
    width = hi - lo
    m = n // 2
    d1 = np.geomspace(1e-9, 0.5, m) * width
    d2 = np.geomspace(1e-9, 0.5, n - m) * width
    return np.unique(np.concatenate([lo + d1, hi - d2]))


@functools.lru_cache(maxsize=16)
def _grid_periods(case: AnnulusCase, n: int, tol: float):
    hs = scan_grid(case, n)
    vals = np.empty((4, hs.size))
    for i, h in enumerate(hs):
        pv = periods_real(case, float(h), tol)
        vals[:, i] = (pv.I0, pv.I2, pv.J0, pv.J2)
    return hs, vals[0], vals[1], vals[2], vals[3]


def _element_values(e: VElement, hs: np.ndarray, b0: np.ndarray, b2: np.ndarray):
    p, q = _horner(e.pc, hs), _horner(e.qc, hs)
    return p * b2 + q * b0, np.abs(p) * np.abs(b2) + np.abs(q) * np.abs(b0)


# relative width in h to which Brent's method refines a sign change
_XTOL_REL = 1e-10

# the relative part of Brent's stopping width, as scipy's brentq has it
_BRENT_RTOL = 4 * sys.float_info.epsilon


def _brent_checked(x: float, fx) -> float:
    """fx as a float; NaN raises ValueError naming x, as in scipy's brentq."""
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float, maxiter: int = 100) -> float:
    """A zero of f between a and b by Brent's method, from fa = f(a) and fb = f(b).

    A line-for-line port of scipy's ``brentq`` (its ``brentq.c``, after R. P.
    Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4):
    the same iterates and result, with rtol = 4 eps, so the bracket is
    refined to a width of about xtol + 4 eps |x|.  The ends are not
    evaluated again.  Raises ValueError when fa and fb are nonzero with the
    same sign or a value is NaN, and RuntimeError when maxiter iterations
    do not converge; an exception raised by f propagates.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _brent_checked(a, fa), _brent_checked(b, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where C divides by zero (an underflow or equal values), its
                # infinite or NaN step fails the test below, as math.inf does
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def count_zeros_real(e: VElement, grid: int = 200, tol: float = 1e-12) -> ZeroReport:
    """Sign-change scan with Brent refinement and tangency probing.

    The count covers the report's window, the first to the last scan node
    ([1e-8, 1e8] on unbounded annuli); zeros outside it are not seen.
    A node is reliable when its value is above the rounding noise floor.
    Between consecutive reliable nodes, a sign flip is a zero, refined by
    Brent's method (:func:`_brent`, scipy's ``brentq`` iterates without
    scipy.optimize) on the element's value at the scan tolerance ``tol`` to
    a relative width of 1e-10 (the bracket ends reuse the scanned values);
    equal signs across a sub-noise run go to the tangency probe.  A
    reliable node whose value dips under the ``tol`` noise level
    between reliable neighbours of the same sign is probed too.  The nodes
    are classified in array passes; only those pairs and dips are visited
    one by one, each kind in node order: flips, then runs, then dips.
    """
    if e.is_zero():
        raise ValueError("identically-zero element")
    if grid < 200:
        raise ValueError("grid must be >= 200")
    case = e.case
    hs, I0, I2, J0, J2 = _grid_periods(case, grid, tol)
    window = (float(hs[0]), float(hs[-1]))
    base0, base2 = (I0, I2) if e.basis == "I" else (J0, J2)
    vals, mags = _element_values(e, hs, base0, base2)
    # below this the computed value is rounding and cancellation noise
    # and its sign carries no information; tangency candidacy sits higher
    floor = 1e-13 * mags + 1e-306
    noise = tol * mags + 1e-306

    locations: list[tuple[float, int]] = []
    certified = True
    notes = []

    sign = np.sign(vals)
    mag = np.abs(vals)
    ok = mag > floor
    reliable = np.flatnonzero(ok)
    if not reliable.size:
        return ZeroReport(
            count=0,
            locations=(),
            method="real-scan",
            bound=case.zero_bound,
            certified=False,
            window=window,
            notes="all scan values below the noise floor",
        )
    if reliable[0] > 0:
        notes.append(f"sub-noise values below h={hs[reliable[0]]:.3g} (unresolvable)")
    if reliable[-1] < len(hs) - 1:
        notes.append(f"sub-noise values above h={hs[reliable[-1]]:.3g} (unresolvable)")

    # consecutive reliable nodes (i, j): a sign flip goes to Brent; equal
    # signs across a sub-noise run (j > i + 1) are either an even tangency
    # or an unresolvable dip
    left, right = reliable[:-1], reliable[1:]
    flips = sign[left] != sign[right]
    probes = []  # (left node, right node, node reported)
    for k in np.flatnonzero(flips | (right > left + 1)):
        i, j = int(left[k]), int(right[k])
        if flips[k]:
            a, b = float(hs[i]), float(hs[j])
            xtol = _XTOL_REL * max(1.0, abs(a), abs(b))
            # eval_V is looked up per call, so a wrapped eval_V sees each iterate
            z = _brent(lambda h: eval_V(e, h, tol), a, b, float(vals[i]), float(vals[j]), xtol)
            locations.append((z, 1))
        else:
            probes.append((i, j, (i + j) // 2))

    # near-tangency candidates among reliable nodes: |value| dips under the
    # tol noise level with no sign change around it
    mid = mag[1:-1]
    dip = (
        ok[:-2] & ok[1:-1] & ok[2:]
        & (mid < 10.0 * noise[1:-1])
        & (mid <= mag[:-2]) & (mid <= mag[2:])
        & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])
    )
    probes += [(i - 1, i + 1, i) for i in np.flatnonzero(dip) + 1]
    for i, j, m in probes:
        h = float(hs[m])
        if _probe_tangency(e, float(hs[i]), float(hs[j]), tol) == 2:
            locations.append((h, 2))
            notes.append(f"multiplicity-2 candidate at h={h:.6g}")
        else:
            certified = False
            notes.append(f"unresolved near-tangency at h={h:.6g}")

    locations.sort()
    count = sum(m for _, m in locations)
    bound = case.zero_bound
    certified = certified and count <= bound
    return ZeroReport(
        count=count,
        locations=tuple(locations),
        method="real-scan",
        bound=bound,
        certified=certified,
        window=window,
        notes="; ".join(notes),
    )


def _derivative_value(e: VElement, h: float, tol: float) -> float:
    """V'(h) = p' B2 + p B2' + q' B0 + q B0' from one periods_real call at h:
    (B0, B2, B0', B2') are the four of (I0, I2, J0, J2, J0', J2') from the basis on."""
    pv = periods_real(e.case, h, tol)
    run = (pv.I0, pv.I2, pv.J0, pv.J2, *pf_J_prime(e.case.ab_float, h, pv.J0, pv.J2))
    k = 0 if e.basis == "I" else 2
    B0, B2, dB0, dB2 = run[k : k + 4]
    (p2, p1, _), (q2, q1, _) = e.pc, e.qc
    p, q = _horner(e.pc, h), _horner(e.qc, h)
    return (2.0 * p2 * h + p1) * B2 + p * dB2 + (2.0 * q2 * h + q1) * B0 + q * dB0


def _probe_tangency(e: VElement, a: float, b: float, tol: float) -> int:
    """2 for a clean derivative sign change (even tangency), -1 if murky."""
    da, db = _derivative_value(e, a, tol), _derivative_value(e, b, tol)
    return 2 if da > 0.0 > db or da < 0.0 < db else -1


# ---------------------------------------------------------------------------
# Argument principle on the truncated cut plane (eight-loop exterior)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Boundary of { |h| <= R } minus a slit neighborhood of half-width delta."""

    R: float = 1e3
    delta: float = 1e-3
    samples_circle: int = 700
    samples_edge: int = 500
    samples_near: int = 80
    max_refine_depth: ClassVar[int] = 24

    def __post_init__(self):
        if not 0.0 < self.delta < self.R < math.inf:
            raise ValueError(f"contour needs 0 < delta < R < inf, got delta={self.delta}, R={self.R}")


class _ContourTable:
    """(J0, J2) along the contour from the closed form, shared across elements."""

    def __init__(self, spec: ContourSpec):
        self.spec = spec
        R, d = spec.R, spec.delta
        Rt = math.sqrt(R * R - d * d)
        phi_d = math.asin(d / R)
        lo = math.log(d)
        hi = math.log(Rt)

        def circle(t):
            return R * np.exp(1j * t)

        # the edges are log-parametrised away from the slit end: h = -e^t +- i d
        self.pieces = [
            (circle, 0.0, math.pi - phi_d, spec.samples_circle),
            (lambda t: -np.exp(t) + 1j * d, hi, lo, spec.samples_edge),
            (lambda t: t + 1j * d, -d, 0.0, spec.samples_near),
            (lambda t: d * np.exp(1j * t), 0.5 * math.pi, -0.5 * math.pi, spec.samples_near),
            (lambda t: t - 1j * d, 0.0, -d, spec.samples_near),
            (lambda t: -np.exp(t) - 1j * d, lo, hi, spec.samples_edge),
            (circle, -(math.pi - phi_d), 0.0, spec.samples_circle),
        ]

        # (ts, hs, J2/J0) at the fixed samples of each piece: element-free, so
        # each element costs one array pass per piece
        self.samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        turn = 0.0
        for path, t0, t1, n in self.pieces:
            ts = np.linspace(t0, t1, n)
            hs = path(ts)
            J0, J2, _ = cut_plane_J(hs)
            turn += float(np.sum(np.angle(J0[1:] / J0[:-1])))
            self.samples.append((ts, hs, J2 / J0))
        # the argument principle counts zeros of F = ptilde J2/J0 + qtilde
        # only if J0 has no zeros inside; an odd number of sign slips of the
        # closed form's branch would show here as a half turn
        self.J0_winding = turn / (2.0 * math.pi)
        if abs(self.J0_winding) >= 0.05:
            raise RuntimeError(f"J0 winds {self.J0_winding:.3f} times along the contour")

    def jj_at(self, piece: int, t: float) -> tuple[complex, complex, complex]:
        """(h, J0, J2) at parameter t of a piece."""
        h = complex(self.pieces[piece][0](t))
        J0, J2, _ = cut_plane_J(h)
        return h, complex(J0), complex(J2)


@functools.lru_cache(maxsize=4)
def _contour_table(spec: ContourSpec) -> _ContourTable:
    return _ContourTable(spec)


_ZERO_CLEARANCE = 1e-9


def winding_number_F(e_tilde: VElement, contour: ContourSpec | None = None) -> tuple[float, int]:
    """Winding of F = ptilde J2/J0 + qtilde along the truncated-domain boundary.

    Returns (winding, round(winding)); by the argument principle the latter
    counts zeros of F inside the truncated cut plane (zeros within delta of
    the slit or beyond radius R are outside the count).  Raises when F
    comes within 1e-9 (relative to |ptilde J2/J0| + |qtilde|) of 0 on the
    contour, or when the adaptive refinement budget is exhausted.
    """
    if e_tilde.case.name != "eight-exterior":
        raise ValueError("the argument-principle contour lives in the exterior domain")
    if e_tilde.is_zero():
        raise ValueError("identically-zero element")
    spec = contour or ContourSpec()
    table = _contour_table(spec)

    pc, qc = e_tilde.pc, e_tilde.qc

    def F_of(hs, ratio):
        """F at one h or an array of h; raises at the first near-zero."""
        p, q = np.polyval(pc, hs), np.polyval(qc, hs)
        val = p * ratio + q
        scale = np.abs(p) * np.abs(ratio) + np.abs(q)
        near = np.abs(val) < _ZERO_CLEARANCE * np.maximum(scale, 1e-300)
        if near.any():
            h = complex(np.atleast_1d(hs)[np.argmax(near)])
            raise RuntimeError(f"contour hits a zero of F near h={h:.6g}")
        return val

    def F_at(piece: int, t: float) -> complex:
        h, J0, J2 = table.jj_at(piece, t)
        return complex(F_of(h, J2 / J0))

    total = 0.0
    for piece, (ts, hs, ratio) in enumerate(table.samples):
        fvals = F_of(hs, ratio)
        steps = np.angle(fvals[1:] / fvals[:-1])
        wide = np.abs(steps) >= 0.25 * math.pi
        total += float(np.sum(steps[~wide]))
        for k in np.flatnonzero(wide):
            total += _phase_step(
                piece, float(ts[k]), float(ts[k + 1]), complex(fvals[k]), complex(fvals[k + 1]),
                F_at, spec.max_refine_depth,
            )
    winding = total / (2.0 * math.pi)
    return winding, int(round(winding))


def _phase_step(piece, t0, t1, f0, f1, F_at, depth) -> float:
    step = cmath.phase(f1 / f0)
    if abs(step) < 0.25 * math.pi:
        return step
    if depth <= 0:
        raise RuntimeError("argument refinement budget exceeded")
    tm = 0.5 * (t0 + t1)
    fm = F_at(piece, tm)
    return _phase_step(piece, t0, tm, f0, fm, F_at, depth - 1) + _phase_step(
        piece, tm, t1, fm, f1, F_at, depth - 1
    )
