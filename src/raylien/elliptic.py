"""Numerical periods of the quartic level ovals and their continuations.

Real-oval values I0 = loop integral of y dx, I2 of x^2 y dx and the
derivative periods J0, J2 (integrands dx/y, x^2 dx/y) are complete elliptic
integrals, computed in closed form: with s = x^2 each is a sum of positive
terms built from Carlson's symmetric integral R_D, plus a Gauss
hypergeometric series where two roots of s y^2 nearly meet (B. C. Carlson,
Math. Comp. 49 (1987) 595-606 and 53 (1989) 327-333; DLMF 19.29).  The
result carries a derived rounding bound.  Orientation is fixed so that
I0 > 0.

For the eight loop the module also provides

* the Picard-Fuchs residuals of  3 I0 = 4h J0 + J2  and
  15 I2 = 4h J0 + (12h+4) J2  (both identities follow from exact one-form
  relations on the level curve, so they hold for every cycle family);
* analytic continuation of (I0, I2, J0, J2) over the cut plane, by two
  independent routes: direct contour integration around the tracked pair
  of branch points (a Joukowski ellipse; raises when another branch point
  obstructs the contour), and integration of the Picard-Fuchs system as a
  linear ODE along slit-avoiding paths;
* Wronskians of the upper/lower boundary values along the cut, Richardson
  extrapolated in the offset, and the vanishing-cycle periods entering the
  jump formula across the cut.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special.cython_special import elliprd, hyp2f1

from .forms import EIGHT_EXTERIOR, AnnulusCase

__all__ = [
    "PeriodValue",
    "OvalGeometry",
    "QuadratureError",
    "ContourObstructionError",
    "oval_geometry",
    "periods_real",
    "pf_residual",
    "periods_complex",
    "pf_continue",
    "wronskians",
    "vanishing_cycle_periods",
    "case_grid",
]


class QuadratureError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


class ContourObstructionError(RuntimeError):
    """A branch point obstructs the integration contour (no deformation)."""


@dataclass(frozen=True)
class PeriodValue:
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
    if tol < 1e-14:
        raise ValueError("tol must be >= 1e-14")
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


def pf_residual(case: AnnulusCase, h: float, tol: float = 1e-12) -> tuple[float, float]:
    """Scaled residuals of the two Picard-Fuchs identities (eight loop)."""
    if not case.eight_loop:
        raise ValueError("the tabulated system applies to the eight-loop annuli")
    pv = periods_real(case, h, tol)
    scale = max(abs(pv.I0), abs(pv.I2), 1.0)
    res1 = abs(4.0 * h * pv.J0 + pv.J2 - 3.0 * pv.I0) / scale
    res2 = abs(4.0 * h * pv.J0 + (12.0 * h + 4.0) * pv.J2 - 15.0 * pv.I2) / scale
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


# ---------------------------------------------------------------------------
# Picard-Fuchs continuation (eight loop, domain C minus (-inf, 0])
# ---------------------------------------------------------------------------

H_REF = 1.0
# relative tolerance of every Picard-Fuchs ODE solve
_PF_RTOL = 1e-12
# off-axis paths travel at least this far above/below the real axis
_SLIT_MARGIN = 1.0


def _pf_J(h: complex, I0: complex, I2: complex) -> tuple[complex, complex]:
    """(J0, J2) from (I0, I2) via the Picard-Fuchs system."""
    J2 = (5.0 * I2 - I0) / (4.0 * h + 1.0)
    J0 = (3.0 * I0 - J2) / (4.0 * h)
    return J0, J2


def _pf_rhs_factory(path):
    """RHS of dI/dt along h(t) for a parametrized path piece."""

    def rhs(t, y):
        h, dh = path(t)
        I0 = y[0] + 1j * y[1]
        I2 = y[2] + 1j * y[3]
        J0, J2 = _pf_J(h, I0, I2)
        d0 = dh * J0
        d2 = dh * J2
        return [d0.real, d0.imag, d2.real, d2.imag]

    return rhs


def _solve_piece(path, t0, t1, I0, I2, dense=False):
    sol = solve_ivp(
        _pf_rhs_factory(path),
        (t0, t1),
        [I0.real, I0.imag, I2.real, I2.imag],
        method="DOP853",
        rtol=_PF_RTOL,
        atol=1e-14,
        dense_output=dense,
    )
    if not sol.success:
        raise RuntimeError(f"Picard-Fuchs continuation failed: {sol.message}")
    y = sol.y[:, -1]
    return (y[0] + 1j * y[1], y[2] + 1j * y[3]), sol


def _line_path(za: complex, zb: complex):
    dz = zb - za

    def path(t):
        return za + t * dz, dz

    return path


def slit_avoiding_waypoints(h: complex) -> list[complex]:
    """Piecewise-linear path from H_REF to h staying clear of 0 and -1/4.

    Real positive targets go straight; off-axis targets travel at height
    +-max(1, |Im h|) above/below the axis and descend vertically at Re(h).
    """
    h = complex(h)
    if h.imag == 0.0 and h.real > 0.0:
        return [complex(H_REF), h]
    if h.imag == 0.0:
        raise ValueError("target on the cut (-inf, 0]")
    sgn = 1.0 if h.imag > 0 else -1.0
    lift = sgn * max(_SLIT_MARGIN, abs(h.imag))
    return [complex(H_REF), complex(H_REF, lift), complex(h.real, lift), h]


def pf_continue(h: complex, tol: float = 1e-12) -> PeriodValue:
    """Continue the exterior-oval periods to h in the cut plane (ODE route)."""
    seed = periods_real(EIGHT_EXTERIOR, H_REF, tol)
    I0, I2 = complex(seed.I0), complex(seed.I2)
    pts = slit_avoiding_waypoints(h)
    for za, zb in zip(pts[:-1], pts[1:]):
        if za == zb:
            continue
        (I0, I2), _ = _solve_piece(_line_path(za, zb), 0.0, 1.0, I0, I2)
    J0, J2 = _pf_J(complex(h), I0, I2)
    tag = "real-oval" if complex(h).imag == 0 else ("plus-side" if complex(h).imag > 0 else "minus-side")
    return PeriodValue(
        I0=I0, I2=I2, J0=J0, J2=J2, h=complex(h), case="eight-exterior",
        branch_tag=tag, est_error=max(seed.est_error, _PF_RTOL),
    )


# ---------------------------------------------------------------------------
# Contour route: Joukowski ellipse around a tracked branch-point pair
# ---------------------------------------------------------------------------


def _branch_pair_candidates(h: complex) -> tuple[complex, complex]:
    """Representatives (r_outer, r_inner) of the two +- root pairs of y^2."""
    s = cmath.sqrt(1.0 + 4.0 * h)
    inner_sq = -4.0 * h / (1.0 + s)  # 1 - s without cancellation near h = 0
    return cmath.sqrt(1.0 + s), cmath.sqrt(inner_sq)


def _track_root(q_prev: complex, h: complex) -> tuple[complex, complex]:
    """The root continuing q_prev at the new h, plus an other-pair root."""
    r1, r2 = _branch_pair_candidates(h)
    cands = [r1, -r1, r2, -r2]
    dists = [abs(c - q_prev) for c in cands]
    order = sorted(range(4), key=dists.__getitem__)
    best = order[0]
    q = cands[best]
    other = r2 if best in (0, 1) else r1
    # ambiguous tracking: nearest root not clearly closer than the nearest
    # root of the other pair
    other_best = min(dists[2], dists[3]) if best in (0, 1) else min(dists[0], dists[1])
    if other_best < 2.0 * dists[best] and dists[best] > 0.05 * abs(q):
        raise ContourObstructionError(
            f"branch-point tracking ambiguous near h={h}: refine the path"
        )
    return q, other


# the ellipse must keep this elliptic-coordinate distance from the other pair
_SIGMA_MIN = 1e-2
_ELLIPSE_MAX_NODES = 32768


def _ellipse_periods(h: complex, q: complex, other: complex, tol: float):
    """Loop integrals around the pair {q, -q} on x = q cosh(sigma + i theta)."""
    ws = cmath.acosh(other / q)
    sep = abs(ws.real)
    if sep < _SIGMA_MIN:
        raise ContourObstructionError(
            f"contour deformation required at h={h}: branch-point pair "
            f"separation {sep:.2e} below {_SIGMA_MIN}"
        )
    sigma = min(0.5 * sep, 1.0)
    prev = None
    n = 256
    while n <= _ELLIPSE_MAX_NODES:
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        zc = q * np.cosh(sigma + 1j * theta)
        dz = 1j * q * np.sinh(sigma + 1j * theta)
        S = 2.0 * h + zc * zc - 0.5 * zc**4
        sq = np.sqrt(S)
        # continuous branch of y along the loop
        flips = np.real(sq[1:] * np.conj(sq[:-1])) < 0.0
        signs = np.ones(n)
        signs[1:] = np.where(np.cumsum(flips) % 2 == 1, -1.0, 1.0)
        closed_ok = (signs[-1] * (1.0 if np.real(sq[0] * np.conj(sq[-1])) >= 0 else -1.0)) > 0
        y = sq * signs
        step = 2.0 * np.pi / n
        vals = np.array(
            [
                (y * dz).sum() * step,
                (zc * zc * y * dz).sum() * step,
                (dz / y).sum() * step,
                (zc * zc * dz / y).sum() * step,
            ]
        )
        if prev is not None and closed_ok:
            scale = max(np.max(np.abs(vals)), 1e-300)
            err = float(np.max(np.abs(vals - prev)))
            if err < tol * scale:
                return vals, err / scale
        prev = vals
        n *= 2
    raise QuadratureError(f"contour quadrature did not converge at h={h}")


_MAX_HOMOTOPY_STEPS = 4096
_CUT_CLEARANCE = 1e-6


def periods_complex(h: complex, tol: float = 1e-12, route: str = "contour") -> PeriodValue:
    """Exterior-oval periods continued to complex h (cut plane).

    route='contour': straight-line homotopy from H_REF with branch-point
    tracking and ellipse contours; errors out on homotopy obstructions
    rather than deforming.  route='pf-ode': Picard-Fuchs continuation.
    Points closer than 1e-6 to the cut are rejected.
    """
    h = complex(h)
    slit_dist = abs(h.imag) if h.real <= 0.0 else abs(h)
    if h.imag == 0.0 and h.real <= 0.0:
        raise ValueError("h on the cut (-inf, 0]")
    if slit_dist < _CUT_CLEARANCE:
        raise ValueError(f"h={h} within {_CUT_CLEARANCE} of the cut")
    if route == "pf-ode":
        return pf_continue(h, tol=tol)
    if route != "contour":
        raise ValueError(f"unknown route {route!r}")

    seed = periods_real(EIGHT_EXTERIOR, H_REF, tol)
    ref = np.array([seed.I0, seed.I2, seed.J0, seed.J2], dtype=complex)
    geo = oval_geometry(EIGHT_EXTERIOR, H_REF)
    state_q = complex(geo.x_hi)
    state_vals = ref.copy()
    state_h = complex(H_REF)

    n_steps = 8
    while True:
        try:
            q = state_q
            vals = state_vals.copy()
            for k in range(1, n_steps + 1):
                hk = state_h + (h - state_h) * (k / n_steps)
                q, other = _track_root(q, hk)
                raw, err = _ellipse_periods(hk, q, other, tol)
                # raw order: (I0, I2, J0, J2) up to a common sign
                dp = np.max(np.abs(raw - vals))
                dm = np.max(np.abs(raw + vals))
                if min(dp, dm) > 0.5 * max(np.max(np.abs(vals)), 1e-300) and n_steps < _MAX_HOMOTOPY_STEPS:
                    raise _NeedRefine()
                vals = raw if dp <= dm else -raw
            break
        except _NeedRefine:
            n_steps *= 2
            continue

    tag = "real-oval" if h.imag == 0 else ("plus-side" if h.imag > 0 else "minus-side")
    return PeriodValue(
        I0=vals[0], I2=vals[1], J0=vals[2], J2=vals[3],
        h=h, case="eight-exterior", branch_tag=tag,
        est_error=max(err, seed.est_error),
    )


class _NeedRefine(Exception):
    pass


def vanishing_cycle_periods(h: float, tol: float = 1e-12) -> PeriodValue:
    """Periods over the cycle around the inner branch-point pair, -1/4 < h < 0.

    This is the cycle that shrinks to the origin as h -> 0; its orientation
    (overall sign) is chosen deterministically, not matched to a reference.
    """
    if not (-0.25 < h < 0.0):
        raise ValueError("vanishing cycle tabulated for -1/4 < h < 0")
    r_out, r_in = _branch_pair_candidates(complex(h))
    vals, err = _ellipse_periods(complex(h), r_in, r_out, tol)
    return PeriodValue(
        I0=vals[0], I2=vals[1], J0=vals[2], J2=vals[3],
        h=complex(h), case="eight-interior", branch_tag="vanishing-cycle",
        est_error=err,
    )


# ---------------------------------------------------------------------------
# Wronskians along the cut
# ---------------------------------------------------------------------------


def _extrapolate_to_zero(xs: list[float], ys: list[complex]) -> complex:
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    ys = list(ys)
    n = len(ys)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            ys[i] = (x0 * ys[i + 1] - x1 * ys[i]) / (x0 - x1)
    return ys[0]


_W_OFFSETS = (1e-3, 5e-4, 2.5e-4)


def wronskians(h: float, tol: float = 1e-12) -> tuple[complex, str]:
    """W = J0(h+) J2(h-) - J0(h-) J2(h+) at a point of the cut, h < 0.

    The one-sided values are continued with the Picard-Fuchs route at the
    offsets 1e-3, 5e-4 and 2.5e-4 and Richardson-extrapolated to the cut.
    Tagged 'W1' on (-1/4, 0) and 'W2' on (-inf, -1/4).
    """
    if h >= 0.0 or h == -0.25:
        raise ValueError("W is defined for h < 0, h != -1/4")
    ws = []
    for d in _W_OFFSETS:
        up = pf_continue(complex(h, d), tol=tol)
        dn = pf_continue(complex(h, -d), tol=tol)
        ws.append(up.J0 * dn.J2 - dn.J0 * up.J2)
    w = _extrapolate_to_zero(list(_W_OFFSETS), ws)
    return w, ("W1" if -0.25 < h < 0.0 else "W2")
