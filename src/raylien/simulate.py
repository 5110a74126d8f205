"""Direct integration of the perturbed system and limit-cycle detection.

The flow  x' = y,  y' = -a x - b x^3 + eps (l1 + l2 x^2 + l3 y^2 + l4 x^4
+ l5 y^4 + l6 x^6) y  is integrated with a high-order adaptive scheme; the
Poincare return to the section {y = 0, x in the case's section range} is
located by dense-output event root finding (crossings matched by
orientation, so the half-way crossing on the far side of the oval is never
mistaken for the return).  The displacement d = H(return) - H(start),
sampled over the section, locates limit cycles as sign changes, each
refined by Brent's method (scipy.optimize.brentq); their positions and
count are cross-validated against the zeros of the predicted
leading-order coefficient p(h) I2(h) + q(h) I0(h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .elliptic import oval_geometry, periods_real
from .forms import AnnulusCase

__all__ = [
    "SimConfig",
    "DisplacementSample",
    "EscapeError",
    "section_x_for_h",
    "default_x_window",
    "poincare_return",
    "find_limit_cycles",
    "melnikov_validation",
]


class EscapeError(RuntimeError):
    """The trajectory left the annulus without returning to the section."""


@dataclass(frozen=True)
class SimConfig:
    case: AnnulusCase
    lam: tuple[float, ...]
    eps: float
    rtol: ClassVar[float] = 1e-11
    atol: ClassVar[float] = 1e-13
    max_time: float = 400.0

    def __post_init__(self):
        if len(self.lam) != 6:
            raise ValueError("lam must have 6 entries")

    def rhs(self):
        a = float(self.case.a)
        b = float(self.case.b)
        l1, l2, l3, l4, l5, l6 = self.lam
        eps = self.eps

        def f(t, s):
            x, y = s
            x2 = x * x
            y2 = y * y
            g = l1 + l2 * x2 + l3 * y2 + l4 * x2 * x2 + l5 * y2 * y2 + l6 * x2 * x2 * x2
            return (y, -a * x - b * x2 * x + eps * g * y)

        return f

    def hamiltonian(self, x: float, y: float) -> float:
        a = float(self.case.a)
        b = float(self.case.b)
        return 0.5 * y * y + 0.5 * a * x * x + 0.25 * b * x**4


@dataclass(frozen=True)
class DisplacementSample:
    h: float
    d: float
    return_time: float
    x0: float


def section_x_for_h(case: AnnulusCase, h: float) -> float:
    """Section point of the level-h oval (the rightmost y=0 crossing)."""
    return oval_geometry(case, h).x_hi


def default_x_window(case: AnnulusCase) -> tuple[float, float]:
    """The section range, capped at the level-10 oval, less 2% at each end."""
    lo, hi = case.section_range
    if math.isinf(hi):
        hi = section_x_for_h(case, 10.0)
    span = hi - lo
    return lo + 0.02 * span, hi - 0.02 * span


def poincare_return(cfg: SimConfig, x0: float) -> DisplacementSample:
    """One full return to the section starting from (x0, 0).

    Integrates to the opposite-orientation crossing first and on to the
    next same-orientation crossing, so the start point itself never
    triggers the event.  On an annulus bounded above, an orbit whose energy
    rises through the upper level ``case.h_hi`` raises EscapeError there.
    An integration that solve_ivp reports as failed raises RuntimeError,
    which is not an escape.
    """
    lo, hi = cfg.case.section_range
    if not (lo < x0 < hi):
        raise ValueError(f"x0={x0} outside the section range {(lo, hi)}")
    f = cfg.rhs()
    h0 = cfg.hamiltonian(x0, 0.0)

    def y_event(t, s):
        return s[1]

    # all four cases cross the section downward (y' < 0 at the start)
    y_event.terminal = True
    events = [y_event]
    h_hi = cfg.case.h_hi
    if math.isfinite(h_hi):
        # rising through the annulus' upper level means leaving it: stop
        # there instead of following the escaping orbit to max_time
        def escape_event(t, s):
            return cfg.hamiltonian(s[0], s[1]) - h_hi

        escape_event.terminal = True
        escape_event.direction = 1
        events.append(escape_event)

    legs = (+1, -1)
    state = (x0, 0.0)
    t_accum = 0.0
    for direction in legs:
        y_event.direction = direction
        sol = solve_ivp(
            f,
            (0.0, cfg.max_time - t_accum),
            state,
            method="DOP853",
            rtol=cfg.rtol,
            atol=cfg.atol,
            events=events,
            dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed from x0={x0}: {sol.message}")
        if len(events) > 1 and sol.t_events[1].size:
            raise EscapeError(f"escaped annulus: H rose above {h_hi} from x0={x0}")
        if sol.t_events[0].size == 0:
            raise EscapeError(
                f"escaped annulus: no return from x0={x0} within t={cfg.max_time}"
            )
        t_accum += float(sol.t_events[0][0])
        state = tuple(sol.y_events[0][0])

    x1, y1 = state
    if not (lo < x1 < hi):
        raise EscapeError(f"return crossing at x={x1} left the section range")
    h1 = cfg.hamiltonian(x1, y1)
    return DisplacementSample(h=h0, d=float(h1 - h0), return_time=t_accum, x0=x0)


def _displacement_or_none(cfg: SimConfig, x0: float):
    try:
        return poincare_return(cfg, x0)
    except EscapeError:
        return None


# relative width in x to which Brent's method refines a displacement sign change
_XTOL_REL = 1e-11


def find_limit_cycles(
    cfg: SimConfig,
    grid: int = 100,
    x_window: tuple[float, float] | None = None,
) -> list[tuple[float, str]]:
    """Limit cycles as (h*, stability) from sign changes of the displacement.

    The section window defaults to :func:`default_x_window`; pass x_window
    to focus the scan.  Each sign change is refined by Brent's method to a
    relative width of 1e-11 in x (or, if a probe inside it escapes, taken
    at its midpoint).  Stability follows the sign pattern of d: + to -
    with increasing h is attracting.  Sign changes whose endpoints both sit
    below the integrator noise floor are discarded (a cycle whose
    displacement never rises above the energy drift is not resolvable).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    xs = np.linspace(*(x_window or default_x_window(cfg.case)), grid)
    samples = [_displacement_or_none(cfg, float(x)) for x in xs]

    cycles: list[tuple[float, str]] = []
    for i in range(len(xs) - 1):
        s0, s1 = samples[i], samples[i + 1]
        if s0 is None or s1 is None:
            continue
        if s0.d == 0.0:
            continue
        floor0 = 100.0 * (cfg.atol + cfg.rtol * max(1.0, abs(s0.h)))
        floor1 = 100.0 * (cfg.atol + cfg.rtol * max(1.0, abs(s1.h)))
        if abs(s0.d) < floor0 and abs(s1.d) < floor1:
            continue
        if (s0.d > 0) != (s1.d > 0):
            a, b = float(xs[i]), float(xs[i + 1])
            xtol = _XTOL_REL * max(1.0, abs(b))
            try:
                x_star = brentq(lambda x: poincare_return(cfg, x).d, a, b, xtol=xtol)
            except EscapeError:
                # a probe inside the bracket escaped: fall back to its midpoint
                x_star = 0.5 * (a + b)
            h_star = cfg.hamiltonian(x_star, 0.0)
            stability = "stable" if s0.d > 0 else "unstable"
            cycles.append((h_star, stability))
    return cycles


def melnikov_validation(
    case: AnnulusCase,
    lam: tuple[float, ...],
    order: int,
    p,
    q,
    epsilons: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
    h_window: tuple[float, float] = (0.5, 2.5),
    n_grid: int = 9,
) -> dict:
    """Compare d(h, eps)/eps^order against p(h) I2 + q(h) I0 on a grid.

    Returns per-eps maximal relative deviations and the fitted convergence
    order (log-log slope); the leading-order law predicts slope >= 1.
    """
    hs = np.linspace(h_window[0], h_window[1], n_grid)
    target = np.empty(hs.size)
    for i, h in enumerate(hs):
        pv = periods_real(case, float(h), 1e-12)
        target[i] = float(p(float(h))) * pv.I2 + float(q(float(h))) * pv.I0
    scale = float(np.max(np.abs(target))) or 1.0
    deviations = []
    for eps in epsilons:
        cfg = SimConfig(case=case, lam=tuple(float(c) for c in lam), eps=eps)
        dev = 0.0
        for i, h in enumerate(hs):
            x0 = section_x_for_h(case, float(h))
            s = poincare_return(cfg, x0)
            dev = max(dev, abs(s.d / eps**order - target[i]) / scale)
        deviations.append(dev)
    logs = np.log(np.array(deviations))
    leps = np.log(np.array(epsilons))
    slope = float(np.polyfit(leps, logs, 1)[0]) if len(epsilons) > 1 else float("nan")
    return {
        "epsilons": tuple(epsilons),
        "max_relative_deviation": tuple(float(d) for d in deviations),
        "convergence_order": slope,
    }
