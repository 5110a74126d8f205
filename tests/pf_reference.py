"""Picard-Fuchs ODE continuation: the tests' independent reference for the
periods at complex and real levels.

The system 3 I0 = 4h J0 - a J2, 15 b I2 = -4a h J0 + (12bh + 4a^2) J2 with
J = dI/dh is solved for J and integrated as a linear ODE in h, seeded with
the closed-form real periods at a level h0 inside the case's annulus.  It
solves the general system, not the closed form, so it checks the closed
form's continuation independently.  Its singular points are h = 0 and
h = -a^2/(4b), both real; paths leave the real axis only at h0 and stay
clear of them.
"""

from __future__ import annotations

import math

from scipy.integrate import solve_ivp

from raylien.elliptic import PeriodValue, _side_tag, periods_real
from raylien.forms import AnnulusCase

# relative tolerance of every Picard-Fuchs ODE solve
_PF_RTOL = 1e-12
# off-axis paths travel at least this far above/below the real axis
_SLIT_MARGIN = 1.0


def _pf_J(ab, h, I0, I2):
    """(J0, J2) from (I0, I2): the system solved for J (determinant 12h (4bh + a^2))."""
    a, b = ab
    J2 = (5.0 * b * I2 + a * I0) / (4.0 * b * h + a * a)
    J0 = (3.0 * I0 + a * J2) / (4.0 * h)
    return J0, J2


def _solve_line(ab, za: complex, zb: complex, I0: complex, I2: complex) -> tuple[complex, complex]:
    """(I0, I2) at zb from their values at za, by the Picard-Fuchs system on the segment."""
    dz = zb - za

    def rhs(t, y):
        J0, J2 = _pf_J(ab, za + t * dz, y[0] + 1j * y[1], y[2] + 1j * y[3])
        d0 = dz * J0
        d2 = dz * J2
        return [d0.real, d0.imag, d2.real, d2.imag]

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        [I0.real, I0.imag, I2.real, I2.imag],
        method="DOP853",
        rtol=_PF_RTOL,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"Picard-Fuchs continuation failed: {sol.message}")
    y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3]


def pf_continue(case: AnnulusCase, h: complex) -> PeriodValue:
    """Continue the case's real-oval periods from h0 to h (ODE route).

    h0 is 1 on the unbounded annuli and the interval's midpoint on the
    bounded ones.  Real targets inside the annulus go straight; off-axis
    targets rise from h0 to height +-max(1, |Im h|), cross to Re(h) and
    descend vertically, clear of the real singular points.
    """
    h = complex(h)
    if h.imag == 0.0 and not case.contains_h(h.real):
        raise ValueError(f"real target h={h.real} outside the {case.name} interval")
    h0 = 1.0 if math.isinf(case.h_hi) else 0.5 * (case.h_lo + case.h_hi)
    if h.imag == 0.0:
        pts = [complex(h0), h]
    else:
        lift = math.copysign(max(_SLIT_MARGIN, abs(h.imag)), h.imag)
        pts = [complex(h0), complex(h0, lift), complex(h.real, lift), h]
    seed = periods_real(case, h0)
    I0, I2 = complex(seed.I0), complex(seed.I2)
    for za, zb in zip(pts[:-1], pts[1:]):
        if za == zb:
            continue
        I0, I2 = _solve_line(case.ab_float, za, zb, I0, I2)
    J0, J2 = _pf_J(case.ab_float, h, I0, I2)
    return PeriodValue(
        I0=I0, I2=I2, J0=J0, J2=J2, h=h, case=case.name,
        branch_tag=_side_tag(h), est_error=max(seed.est_error, _PF_RTOL),
    )
