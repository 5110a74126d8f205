"""Numerical periods of the quartic level ovals and their continuations.

Real-oval values I0 = loop integral of y dx, I2 of x^2 y dx and the
derivative periods J0, J2 (integrands dx/y, x^2 dx/y) are complete elliptic
integrals, computed in closed form: with s = x^2 each is a sum of positive
terms built from Carlson's symmetric integral R_D, plus a Gauss
hypergeometric series where two roots of s y^2 nearly meet (B. C. Carlson,
Math. Comp. 49 (1987) 595-606 and 53 (1989) 327-333; DLMF 19.29).  The
result carries a derived rounding bound.  Orientation is fixed so that
I0 > 0.

The Picard-Fuchs system  3 I0 = 4h J0 - a J2,  15 b I2 = -4a h J0 +
(12bh + 4a^2) J2  holds for every (a, b) and cycle family (it follows from
exact one-form relations on the level curve); its residuals and its
derivative in h solved for J' (:func:`pf_J_prime`) are written once.

For the eight loop the module also provides

* the exterior periods on the cut plane C minus (-inf, 0]: the real closed
  form for J0, J2 continued with principal branches (:func:`cut_plane_J`,
  B. C. Carlson, Numer. Algorithms 10 (1995) 13-26), with I0, I2 from the
  identities above; the tests cross-check it against the Picard-Fuchs
  system integrated as a linear ODE (``tests/pf_reference.py``);
* the boundary values h +- i0 of that closed form on the cut and their
  Wronskians;
* the vanishing-cycle periods, by the complex scaling y = iY that maps the
  eight's level curve at h to the truncated pendulum's real oval at -h.

scipy.special is loaded on first use, not on import: the first
:func:`periods_real` binds the compiled scalar ``elliprd`` and ``hyp2f1``,
and :func:`cut_plane_J` imports the array ``elliprd`` at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forms import EIGHT_EXTERIOR, EIGHT_INTERIOR, TRUNCATED_PENDULUM, AnnulusCase

__all__ = [
    "PeriodValue",
    "OvalGeometry",
    "QuadratureError",
    "oval_geometry",
    "periods_real",
    "pf_residual",
    "pf_J_prime",
    "cut_plane_J",
    "periods_complex",
    "wronskians",
    "vanishing_cycle_periods",
    "case_grid",
]


class QuadratureError(RuntimeError):
    """A closed form's rounding bound is above the requested tolerance."""


class PeriodValue(NamedTuple):
    I0: complex
    I2: complex
    J0: complex
    J2: complex
    h: complex
    case: str
    branch_tag: str  # real-oval | plus-side | minus-side | vanishing-cycle
    est_error: float


@dataclass(frozen=True)
class OvalGeometry:
    """x-extent of one real oval: y^2 > 0 strictly inside [x_lo, x_hi]."""

    x_lo: float
    x_hi: float


def _level_roots(case: AnnulusCase, h: float) -> tuple[float, float, float]:
    """sqrt(a^2 + 4bh) and the two roots of y^2 = 2h - a s - (b/2) s^2 in
    s = x^2: beta, the oval's outer end, and the other root, its inner end
    on the eight interior; both without cancellation."""
    if not case.contains_h(h):
        raise ValueError(f"h={h} outside the {case.name} interval")
    a, b = case.ab_float
    sq = math.sqrt(a * a + 4.0 * b * h)
    beta = 4.0 * h / (a + sq) if a > 0.0 else (sq - a) / b
    return sq, beta, -4.0 * h / (b * beta)


def oval_geometry(case: AnnulusCase, h: float) -> OvalGeometry:
    """Integration segment of the case's oval at level h."""
    _, beta, other = _level_roots(case, h)
    x_hi = math.sqrt(beta)
    return OvalGeometry(-x_hi if case.fold == 2.0 else math.sqrt(other), x_hi)


# ---------------------------------------------------------------------------
# Closed-form real periods (Carlson's symmetric integrals)
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff
# first-order relative rounding bounds, derived in periods_real
_D_IN = 5.0 * _U  # alpha, k, A, B
_D_C = 16.0 * _U + 2.5 * _D_IN + 2.0 * _U  # c and s^; elliprd within 16u
_D_J = _D_C + _D_IN + 5.0 * _U
_D_SERIES = 32.0 * _U + 1.7 * _D_IN + 5.0 * _U  # T, Z; hyp2f1 within 32u


# periods_real calls scipy's compiled scalar elliprd and hyp2f1 through these
# module globals.  Until the first call they are stubs that load
# scipy.special, bind its compiled functions in their place and call them,
# so the hot path has no import statement and no test, and a process that
# never takes a period never loads scipy.
def _bind_cython_special():
    global elliprd, hyp2f1
    from scipy.special import cython_special

    elliprd, hyp2f1 = cython_special.elliprd, cython_special.hyp2f1


def elliprd(x, y, z):
    _bind_cython_special()
    return elliprd(x, y, z)


def hyp2f1(a, b, c, z):
    _bind_cython_special()
    return hyp2f1(a, b, c, z)


def periods_real(case: AnnulusCase, h: float, tol: float = 1e-12) -> PeriodValue:
    """All four period values on the real oval at level h, in closed form.

    In s = x^2 the oval is s in [alpha, beta], between two roots of
    s y^2 = s P(s), P(s) = 2h - a s - (b/2) s^2; gamma is the third root
    (alpha = 0 on the symmetric ovals, gamma = 0 on the eight interior).
    Put s = alpha + k sin^2 t, k = beta - alpha, D = A cos^2 t + B sin^2 t,
    A = |alpha - gamma|, B = |beta - gamma|, C = |b|/2, f = case.fold, and
    c, s^ = int_0^(pi/2) (cos^2, sin^2) D^(-1/2) dt = (B/3) R_D(0, A, B),
    (A/3) R_D(0, B, A) with Carlson's R_D.  Then J0 = 2f (c + s^)/sqrt(C),
    J2 = 2f (alpha (c + s^) + k s^)/sqrt(C), I2 = 2f sqrt(C) k^2 Z and
    I0 = 2f sqrt(C) k (2A c + B s^)/3 on the symmetric ovals, 2f sqrt(C) k^2 T
    on the interior, with T, Z = int_0^(pi/2) sin^2 cos^2 D^(-+1/2) dt.  For
    z = 1 - min(A, B)/max(A, B) >= 1/2, T = (B s^ - A c)/(3 (B - A)) and
    Z = (A (B - 2A) c + B (2B - A) s^)/(15 (B - A)); below, where B - A
    cancels, T, Z = (pi/16) max(A, B)^(-+1/2) 2F1(+-1/2, 3/2; 3; z).  (B. C.
    Carlson, Math. Comp. 49 (1987) 595-606, 53 (1989) 327-333; DLMF 19.29.)
    gamma (alpha on the interior) is -4h/(b beta), and the gap
    2 sqrt(a^2 + 4bh)/|b| between P's roots (k on the interior, B elsewhere)
    is never formed by subtraction.

    est_error bounds, to first order in u = 2^-53, the relative rounding
    error of all four values against the exact periods at the float h.  For
    a, b = +-1, a^2 + 4bh is exact or once rounded (Sterbenz's lemma where
    it cancels), so alpha, k, A, B are within d_in = 5u.  R_D is homogeneous
    of degree -3/2 and decreasing in each argument, so it passes input
    errors on at most 1.5-fold; with scipy's elliprd within 16u (4.5 ulp
    measured against mpmath), c and s^ are within d_c = 16u + 2.5 d_in + 2u.
    Positive sums keep the largest relative error: J0, J2 are within
    d_c + d_in + 5u, the symmetric I0 within d_c + 2 d_in + 6u.  The
    R_D branch of T, Z multiplies its terms' error, at most d_c + 2 d_in + 3u,
    by kappa = sum |terms| / |sum|, computed per call, and B - A adds 3 d_in
    ((A + B)/|B - A| <= 3 there).  The series branch takes hyp2f1 within 32u
    (11 ulp measured), z within 3 d_in + 2u and |2F1'/2F1| <= 0.4 on
    [0, 1/2].  Multiplying T, Z by k^2 and the constants adds 2 d_in + 5u.  A bound above ``tol`` raises
    QuadratureError.
    """
    if not 1e-14 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be finite and >= 1e-14, got {tol}")
    sq, beta, other = _level_roots(case, h)
    b, f = case.ab_float[1], case.fold
    gap = 2.0 * sq / abs(b)
    if f == 2.0:
        alpha, k, A, B = 0.0, beta, abs(other), gap
    else:
        alpha, k, A, B = other, gap, other, beta
    rC = math.sqrt(0.5 * abs(b))
    c = B / 3.0 * elliprd(0.0, A, B)
    s = A / 3.0 * elliprd(0.0, B, A)
    J0 = 2.0 * f * (c + s) / rC
    J2 = 2.0 * f * (alpha * (c + s) + k * s) / rC
    M = max(A, B)
    z = abs(B - A) / M
    if z >= 0.5:
        Bs, Ac = B * s, A * c
        t1, t2 = A * (B - 2.0 * A) * c, B * (2.0 * B - A) * s
        T = (Bs - Ac) / (3.0 * (B - A))
        Z = (t1 + t2) / (15.0 * (B - A))
        err_T = (Bs + Ac) / abs(Bs - Ac) * (_D_C + _D_IN + _U) + 3.0 * _D_IN + 4.0 * _U
        kappa_Z = (A * (B + 2.0 * A) * c + B * (2.0 * B + A) * s) / abs(t1 + t2)
        err_Z = kappa_Z * (_D_C + 2.0 * _D_IN + 3.0 * _U) + 3.0 * _D_IN + 4.0 * _U
    else:
        r = math.sqrt(M)
        T = math.pi / 16.0 / r * hyp2f1(0.5, 1.5, 3.0, z)
        Z = math.pi / 16.0 * r * hyp2f1(-0.5, 1.5, 3.0, z)
        err_T = err_Z = _D_SERIES
    scale = 2.0 * f * rC * k
    if f == 2.0:
        I0 = scale * (2.0 * A * c + B * s) / 3.0
        err_I0 = _D_C + 2.0 * _D_IN + 6.0 * _U
    else:
        I0 = scale * k * T
        err_I0 = err_T + 2.0 * _D_IN + 5.0 * _U
    I2 = scale * k * Z
    est = max(_D_J, err_I0, err_Z + 2.0 * _D_IN + 5.0 * _U)
    if est > tol:
        raise QuadratureError(
            f"closed-form rounding bound {est:.2e} above tol={tol} for {case.name} at h={h}"
        )
    return PeriodValue(
        I0=I0, I2=I2, J0=J0, J2=J2, h=h, case=case.name, branch_tag="real-oval", est_error=est,
    )


def _pf_terms(ab, h, J0, J2):
    """Terms of 3 I0 = 4h J0 - a J2 and 15 b I2 = -4a h J0 + (12bh + 4a^2) J2."""
    a, b = ab
    return 4.0 * h * J0, -a * J2, -4.0 * a * h * J0, (12.0 * b * h + 4.0 * a * a) * J2


def pf_J_prime(ab, h, J0, J2):
    """(J0', J2') from (J0, J2): the system's derivative in h solved for J',
    4h J0' - a J2' = -J0 and -4a h J0' + (12bh + 4a^2) J2' = 3b J2 + 4a J0."""
    a, b = ab
    dJ2 = (b * J2 + a * J0) / (4.0 * b * h + a * a)
    dJ0 = (a * dJ2 - J0) / (4.0 * h)
    return dJ0, dJ2


def pf_residual(case: AnnulusCase, h: float, tol: float = 1e-12) -> tuple[float, float]:
    """Scaled residuals of the two Picard-Fuchs identities at the real level h."""
    pv = periods_real(case, h, tol)
    scale = max(abs(pv.I0), abs(pv.I2), 1.0)
    u1, v1, u2, v2 = _pf_terms(case.ab_float, h, pv.J0, pv.J2)
    res1 = abs(u1 + v1 - 3.0 * pv.I0) / scale
    res2 = abs(u2 + v2 - 15.0 * case.ab_float[1] * pv.I2) / scale
    return res1, res2


def case_grid(case: AnnulusCase, n: int) -> np.ndarray:
    """A log-graded probe grid strictly inside the case interval."""
    if math.isinf(case.h_hi):
        return np.geomspace(1e-3, 1e3, n)
    lo, hi = case.h_lo, case.h_hi
    m = n // 2
    width = hi - lo
    from_lo = lo + np.geomspace(1e-5, 0.49, m) * width
    from_hi = hi - np.geomspace(1e-5, 0.49, n - m) * width
    return np.sort(np.concatenate([from_lo, from_hi]))


def _side_tag(h: complex) -> str:
    return "real-oval" if h.imag == 0 else ("plus-side" if h.imag > 0 else "minus-side")


# ---------------------------------------------------------------------------
# Closed form on the cut plane (eight exterior)
# ---------------------------------------------------------------------------

# c and s^ at complex h are within this relative error: at most 5.3u measured
# (input rounding included) against 40-digit mpmath 1.3.0 on every 10th
# sample of the default winding contour (264 levels), 400 random cut-plane
# levels with |h| in [1e-6, 1e6] and 20 levels h +- i0 on the cut
_D_CPX = 32.0 * _U
_RC_EXTERIOR = math.sqrt(0.5)  # sqrt(|b|/2) of the eight exterior
# an imaginary part this small puts h on an edge of the cut without moving it
_EDGE = 1e-300
_CUT_CLEARANCE = 1e-6


def cut_plane_J(h):
    """(J0, J2, est) of the eight exterior at h in C minus (-inf, 0]; h may be an array.

    This is periods_real's closed form for the symmetric ovals with
    a, b = -1, 1: sq = sqrt(1 + 4h), A = 4h/(1 + sq) (that is sq - 1),
    B = 2 sq, k = 1 + sq, c = (B/3) R_D(0, A, B), s^ = (A/3) R_D(0, B, A),
    J0 = 4 (c + s^)/sqrt(1/2) and J2 = 4 k s^/sqrt(1/2).  With principal
    branches of the square root and of Carlson's R_D (scipy.special.elliprd
    at complex arguments; B. C. Carlson, Numer. Algorithms 10 (1995) 13-26)
    every step is analytic on the cut plane, where 1 + 4h, A and B stay off
    (-inf, 0].  So the closed form is the analytic continuation of the
    real-oval values, and at h +- i0 on the cut it gives the two boundary
    values.

    est bounds to first order the relative rounding error of J0 and J2:
    kappa _D_CPX + 6u with kappa = (|c| + |s^|)/|c + s^|, computed per level,
    and c, s^ within _D_CPX (k and the products add at most 6u).
    """
    from scipy import special

    h = np.asarray(h, dtype=complex)
    sq = np.sqrt(1.0 + 4.0 * h)
    A = 4.0 * h / (1.0 + sq)
    B = 2.0 * sq
    c = B / 3.0 * special.elliprd(0.0, A, B)
    s = A / 3.0 * special.elliprd(0.0, B, A)
    J0 = 4.0 * (c + s) / _RC_EXTERIOR
    J2 = 4.0 * (1.0 + sq) * s / _RC_EXTERIOR
    est = (np.abs(c) + np.abs(s)) / np.abs(c + s) * _D_CPX + 6.0 * _U
    return J0, J2, est


def periods_complex(h: complex, tol: float = 1e-12) -> PeriodValue:
    """Exterior-oval periods continued to complex h (cut plane).

    :func:`cut_plane_J` at h, with I0, I2 from the Picard-Fuchs identities
    3 I0 = 4h J0 - a J2 and 15 b I2 = -4a h J0 + (12bh + 4a^2) J2.  With
    a, b = +-1 the terms are within err_J + 4u (the complex products and
    12bh + 4a^2 add 4u), so each sum is within kappa (err_J + 4u) + 2u,
    kappa = sum of the terms' magnitude bounds / |sum| computed per call.  A
    bound above ``tol`` raises QuadratureError.  Points closer than 1e-6 to
    the cut are rejected.  The tests compare these values against an
    independent ODE continuation of the same system.
    """
    h = complex(h)
    slit_dist = abs(h.imag) if h.real <= 0.0 else abs(h)
    if h.imag == 0.0 and h.real <= 0.0:
        raise ValueError("h on the cut (-inf, 0]")
    if slit_dist < _CUT_CLEARANCE:
        raise ValueError(f"h={h} within {_CUT_CLEARANCE} of the cut")
    if not 1e-14 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be finite and >= 1e-14, got {tol}")
    J0, J2, err_J = cut_plane_J(h)
    a, b = EIGHT_EXTERIOR.ab_float
    u1, v1, u2, v2 = _pf_terms(EIGHT_EXTERIOR.ab_float, h, J0, J2)
    I0 = (u1 + v1) / 3.0
    I2 = (u2 + v2) / (15.0 * b)
    kappa = max(
        (abs(u1) + abs(v1)) / abs(3.0 * I0),
        (abs(u2) + (12.0 * abs(b) * abs(h) + 4.0 * a * a) * abs(J2)) / abs(15.0 * b * I2),
    )
    est = float(max(err_J, kappa * (err_J + 4.0 * _U) + 2.0 * _U))
    if est > tol:
        raise QuadratureError(f"closed-form rounding bound {est:.2e} above tol={tol} at h={h}")
    return PeriodValue(
        I0=complex(I0), I2=complex(I2), J0=complex(J0), J2=complex(J2), h=h,
        case=EIGHT_EXTERIOR.name, branch_tag=_side_tag(h), est_error=est,
    )


def vanishing_cycle_periods(h: float, tol: float = 1e-12) -> PeriodValue:
    """Periods over the cycle around the inner branch-point pair, -1/4 < h < 0.

    This is the cycle that shrinks to the origin as h -> 0; crossing the cut
    adds twice it to the exterior cycle.  It lies on the real x segment
    between the inner branch points, where y^2 < 0.  With y = iY the eight's
    curve y^2 = 2h + x^2 - x^4/2 becomes the truncated pendulum's curve
    Y^2 = 2(-h) - x^2 + x^4/2, so the cycle is that case's real oval at -h:
    (I0, I2, J0, J2) = (-i I0, -i I2, i J0, i J2) of
    ``periods_real(TRUNCATED_PENDULUM, -h)``, with its rounding bound.
    """
    if not (-0.25 < h < 0.0):
        raise ValueError("vanishing cycle tabulated for -1/4 < h < 0")
    try:
        pv = periods_real(TRUNCATED_PENDULUM, -h, tol)
    except QuadratureError as exc:
        raise QuadratureError(f"vanishing cycle at h={h}: {exc}") from None
    return PeriodValue(
        I0=-1j * pv.I0, I2=-1j * pv.I2, J0=1j * pv.J0, J2=1j * pv.J2, h=complex(h),
        case=EIGHT_INTERIOR.name, branch_tag="vanishing-cycle", est_error=pv.est_error,
    )


# ---------------------------------------------------------------------------
# Wronskians along the cut
# ---------------------------------------------------------------------------


def wronskians(h: float) -> tuple[complex, str]:
    """W = J0(h+) J2(h-) - J0(h-) J2(h+) at a point h < 0 of the cut.

    The boundary values h +- i0 come from the closed form.  W is the constant
    -32 pi i on (-1/4, 0), tagged 'W1', and -16 pi i on (-inf, -1/4), tagged
    'W2'.
    """
    if h >= 0.0 or h == -0.25:
        raise ValueError("W is defined for h < 0, h != -1/4")
    u0, u2, _ = cut_plane_J(complex(h, _EDGE))
    d0, d2, _ = cut_plane_J(complex(h, -_EDGE))
    return complex(u0 * d2 - d0 * u2), ("W1" if -0.25 < h < 0.0 else "W2")
