"""Direct integration of the perturbed system and limit-cycle detection.

The flow  x' = y,  y' = -a x - b x^3 + eps (l1 + l2 x^2 + l3 y^2 + l4 x^4
+ l5 y^4 + l6 x^6) y  is integrated with DOP853 (8th order); the Poincare
return to the section {y = 0, x in the case's section range} is the first
same-orientation crossing after the opposite one, so the half-way crossing
on the far side of the oval is never mistaken for the return.  A scan over
the section (:func:`poincare_scan`) steps all its start points as one
stacked state with scipy's Python DOP853 stepper, carrying the energy
balance E' = dH/dt = eps g(x, y) y^2 beside each orbit, so its displacement
is d = E at the return.  Each orbit of the scan runs on its own clock
t = T(h) tau, T(h) = J0(h) the period of its unperturbed oval
(:func:`periods_real`), so the orbits return together near tau = 1, and
the returns of one step are located together by Newton's method on the
step's dense output.  A single start point (:func:`poincare_return`) is
integrated on its own by scipy's compiled DOP853 (Hairer's dop853 through
``scipy.integrate.ode``), and the crossing is located by Henon's trick (M.
Henon, Physica D 5 (1982) 412-414): from the end of the step that crosses
y = 0, (x, t) are integrated with y as the independent variable to y = 0.
Its displacement is d = H(return) - H(start).  Sign changes of the scanned
displacement locate limit cycles, each refined by Brent's method
(scipy.optimize.brentq) on single returns; their positions and count are
cross-validated against the zeros of the predicted leading-order
coefficient p(h) I2(h) + q(h) I0(h).

scipy is loaded on first use, not on import: scipy.integrate by the first
single return, which builds the process's compiled integrators, or by the
first scan; scipy.optimize by the first sign change that
:func:`find_limit_cycles` refines.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .elliptic import oval_geometry, periods_real
from .forms import AnnulusCase

__all__ = [
    "SimConfig",
    "DisplacementSample",
    "EscapeError",
    "section_x_for_h",
    "default_x_window",
    "poincare_return",
    "poincare_scan",
    "find_limit_cycles",
    "melnikov_validation",
]


# tolerance on a return time inside one step, as solve_ivp's events use for
# their Brent refinement
_EVENT_TOL = 4 * np.finfo(float).eps


# energy above which an orbit on an unbounded annulus counts as a runaway:
# far above every section window, and low enough that DOP853 still steps
# there (a blow-up in finite time can pass H = 4e7 one step before the
# step size underflows)
_RUNAWAY_H = 1e6


def _escape_level(case: AnnulusCase) -> float:
    """The energy above which an orbit has left the annulus."""
    return case.h_hi if math.isfinite(case.h_hi) else _RUNAWAY_H


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
    # the case's exact a and b as floats, converted once
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lam) != 6:
            raise ValueError("lam must have 6 entries")
        # a nan in the state gives DOP853 a nan first step, and its step loop never ends
        if not all(math.isfinite(c) for c in self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if not 0.0 < self.max_time < math.inf:
            raise ValueError(f"max_time must be finite and positive, got {self.max_time}")
        object.__setattr__(self, "a", float(self.case.a))
        object.__setattr__(self, "b", float(self.case.b))

    def rhs(self):
        """The flow's right-hand side f(t, s).

        For one orbit s = (x, y) it returns the tuple (x', y'); for n
        stacked orbits s = (x_1..x_n, y_1..y_n, E_1..E_n) an array of
        (x', y', E') with E' = dH/dt.
        """
        a, b = self.a, self.b
        l1, l2, l3, l4, l5, l6 = self.lam
        eps = self.eps

        def f(t, s):
            if len(s) == 2:
                # one orbit (x, y): plain floats beat numpy on a 2-vector
                x, y = s
                x2 = x * x
                y2 = y * y
                g = l1 + l2 * x2 + l3 * y2 + l4 * x2 * x2 + l5 * y2 * y2 + l6 * x2 * x2 * x2
                return (y, -a * x - b * x2 * x + eps * g * y)
            n = len(s) // 3
            x, y = s[:n], s[n : 2 * n]
            out = np.empty(3 * n)
            out[:n] = y
            x2 = x * x
            y2 = y * y
            # g by Horner's rule in x^2 and y^2
            damping = eps * (((l6 * x2 + l4) * x2 + l2) * x2 + (l5 * y2 + l3) * y2 + l1) * y
            np.subtract(damping, (a + b * x2) * x, out=out[n : 2 * n])
            np.multiply(damping, y, out=out[2 * n :])
            return out

        return f

    def hamiltonian(self, x, y):
        """H = y^2/2 + a x^2/2 + b x^4/4 at floats or at arrays."""
        x2 = x * x
        return 0.5 * y * y + 0.5 * self.a * x2 + 0.25 * self.b * x2 * x2


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


# no step limit, as in solve_ivp: max_time and the escape level end a run
_MAX_STEPS = 2**31 - 1


class _CompiledReturn:
    """scipy's compiled DOP853 for single returns, one for the process.

    Two ``ode`` objects integrate the flow and Henon's section step.  scipy's
    wrapper keeps a reference to the callback of every run, so a fresh
    ``ode`` per return or per config would keep its whole integrator alive;
    reused, with that callback pinned, a return keeps nothing.  Both reach
    the flow through ``self.f``, set to ``cfg.rhs()`` for each return; a
    lock keeps returns from threads apart.  The compiled code steps on after
    a callback raises, so the callbacks never raise: an exception of the
    flow is kept, the flow is read as zero to the end of the run, and the
    exception is raised after it.
    """

    def __init__(self):
        from scipy.integrate import ode

        self.f = self.error = self.cfg = None
        self.lock = threading.Lock()
        self.flow = ode(self._flow).set_integrator(
            "dop853", rtol=SimConfig.rtol, atol=SimConfig.atol, nsteps=_MAX_STEPS)
        self.flow.set_solout(self._solout)
        self.section = ode(self._section_flow).set_integrator(
            "dop853", rtol=SimConfig.rtol, atol=SimConfig.atol, nsteps=_MAX_STEPS)
        # each run hands the compiled code ``integrator._solout``, which
        # would otherwise be a new bound method every time, and the wrapper
        # keeps it: pinned as an instance attribute it is the same object
        for solver in (self.flow, self.section):
            solver._integrator._solout = solver._integrator._solout

    def _flow(self, t, s):
        # plain floats: numpy scalars cost more than the arithmetic on them
        return self._guarded(self.f, t, s.tolist())

    def _section_flow(self, y, s):
        return self._guarded(self._in_y, y, s.tolist())

    def _in_y(self, y, s):
        # Henon's trick: dx/dy = x'/y', dt/dy = 1/y'
        x, t = s
        dx, dy = self.f(t, (x, y))
        return (dx / dy, 1.0 / dy)

    def _guarded(self, fun, t, s):
        if self.error is None:
            try:
                return fun(t, s)
            except BaseException as exc:
                self.error = exc
        return (0.0, 0.0)

    def _solout(self, t, s):
        # after each accepted step: stop at the return or above the escape
        # level.  y starts at 0 and falls, so it is above 0 only after the
        # far-side - to + crossing, and the first step that takes it from
        # above 0 to at most 0 ends in the return crossing
        if self.error is not None:
            return -1
        x, y = s.tolist()
        y_old, self.y_old = self.y_old, y
        if y_old > 0 >= y:
            self.end = "return"
            return -1
        if self.cfg.hamiltonian(x, y) > self.h_escape:
            self.end = "escape"
            return -1
        return 0

    def _run(self, solver, y0, t0, t1, x0):
        solver.set_initial_value(y0, t0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = solver.integrate(t1)
        if self.error is not None:
            raise self.error
        if not solver.successful():
            message = "; ".join(str(w.message) for w in caught)
            raise RuntimeError(f"integration failed from x0={x0}: {message}")
        return state

    def __call__(self, cfg: SimConfig, x0: float) -> tuple[float, float]:
        """The return crossing (x, t) from (x0, 0)."""
        with self.lock:
            self.cfg, self.f, self.error = cfg, cfg.rhs(), None
            self.h_escape = _escape_level(cfg.case)
            self.y_old, self.end = 0.0, None
            try:
                x, y = self._run(self.flow, (x0, 0.0), 0.0, cfg.max_time, x0)
                if self.end == "escape":
                    raise EscapeError(
                        f"escaped annulus: H rose above {self.h_escape} from x0={x0}")
                if self.end is None:
                    raise EscapeError(
                        f"escaped annulus: no return from x0={x0} within t={cfg.max_time}")
                t = self.flow.t
                if y != 0.0:
                    x, t = self._run(self.section, (x, t), y, 0.0, x0)
                return float(x), float(t)
            finally:
                self.cfg = self.f = self.error = None


_build_lock = threading.Lock()


def _compiled_return(cfg: SimConfig, x0: float) -> tuple[float, float]:
    """The first single return builds the process's _CompiledReturn and binds
    this name to it, under a lock, so returns that start together build one."""
    global _compiled_return
    with _build_lock:
        if not isinstance(_compiled_return, _CompiledReturn):
            _compiled_return = _CompiledReturn()
    return _compiled_return(cfg, x0)


def poincare_return(cfg: SimConfig, x0: float) -> DisplacementSample:
    """One full return to the section starting from (x0, 0).

    scipy's compiled DOP853 (``scipy.integrate.ode``, Hairer's dop853) with
    the config's rtol and atol integrates to the far-side - to + crossing of
    y and on to the step in which y goes + to - again, so the start point
    itself is never taken for the return.  From that step's end Henon's
    section step integrates (x, t) with y as the independent variable to
    y = 0, and d = H(return) - H(start).  An orbit whose energy is above
    the upper level ``case.h_hi`` at a step end before the return raises
    EscapeError; on an unbounded annulus the level is H = 1e6, above which
    an orbit is taken as a runaway.  So do a return outside the section
    range and no return by ``cfg.max_time``.  An integration that DOP853
    reports as failed raises RuntimeError with scipy's message, which is
    not an escape.  Returns from several threads run one at a time.
    """
    lo, hi = cfg.case.section_range
    if not (lo < x0 < hi):
        raise ValueError(f"x0={x0} outside the section range {(lo, hi)}")
    x1, t1 = _compiled_return(cfg, x0)
    if not (lo < x1 < hi):
        raise EscapeError(f"return crossing at x={x1} left the section range")
    h0 = cfg.hamiltonian(x0, 0.0)
    return DisplacementSample(h=h0, d=float(cfg.hamiltonian(x1, 0.0) - h0), return_time=t1, x0=x0)


def _clock(case: AnnulusCase, h: float) -> float:
    """The period of the unperturbed oval through h, the orbit's scan clock.

    A start point whose float h has rounded onto an end of the annulus (or
    lies at or above the escape level, where its orbit escapes at its first
    step) has no oval to take a period from; its clock is 1, the time itself.
    Any positive clock keeps an orbit's path and changes only the cost.
    """
    if case.h_lo < h < _escape_level(case):
        return periods_real(case, h).J0
    return 1.0


def _interpolate(sol, rows, tau):
    """Component rows[i] of a DOP853 step's dense output at tau[i].

    The evaluation of scipy's ``Dop853DenseOutput``, one component per point.
    """
    u = (tau - sol.t_old) / sol.h
    out = np.zeros(rows.size)
    for i, coeff in enumerate(sol.F[::-1, rows]):
        out += coeff
        out *= u if i % 2 == 0 else 1.0 - u
    return out + sol.y_old[rows]


# Newton steps per crossing before bisection takes over (Newton from the
# secant guess takes two or three), and the bisection steps after them,
# enough to bring a bracket of any step length within _EVENT_TOL
_NEWTON_STEPS = 8
_BISECTION_STEPS = 100


def _locate_returns(sol, f, k, period, y_end):
    """Clock time tau and state (x, y, E) of each orbit k at its y = 0 crossing.

    Every orbit k crosses y = 0 from + to - inside the step of the dense
    output ``sol``.  Newton's method on y_k(tau) of that dense output, with
    y' from the flow ``f`` times the orbit's clock, runs on all of them at
    once from the secant guess; a step that leaves an orbit's bracket, and
    every step after the first ``_NEWTON_STEPS``, bisects instead.  An orbit
    is done when its step or its bracket is within _EVENT_TOL absolute plus
    _EVENT_TOL relative, the stop of the Brent refinement of solve_ivp's
    events.  ``y_end`` holds the y of every orbit at the end of the step.
    """
    n, m = sol.y_old.size // 3, k.size
    rows = np.concatenate((k, n + k, 2 * n + k))
    y_lo, y_hi = sol.y_old[n + k], y_end[k]
    lo, hi = np.full(m, sol.t_old), np.full(m, sol.t)
    tau = lo + (hi - lo) * (y_lo / (y_lo - y_hi))
    active = np.ones(m, dtype=bool)
    for step in range(_NEWTON_STEPS + _BISECTION_STEPS):
        state = _interpolate(sol, rows, np.tile(tau, 3))
        y = state[m : 2 * m]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = tau - y / (f(sol.t, state)[m : 2 * m] * period)
        above = y > 0
        lo = np.where(above, tau, lo)
        hi = np.where(above, hi, tau)
        inside = (lo <= newton) & (newton <= hi) if step < _NEWTON_STEPS else False
        new = np.where(inside, newton, 0.5 * (lo + hi))
        tol = _EVENT_TOL * (1.0 + np.abs(tau))
        tau, active = (np.where(active, new, tau),
                       active & (np.abs(new - tau) > tol) & (hi - lo > tol))
        if not active.any():
            return tau, _interpolate(sol, rows, np.tile(tau, 3)).reshape(3, m)
    raise RuntimeError(f"no crossing located in [{sol.t_old}, {sol.t}]")


def poincare_scan(cfg: SimConfig, xs) -> list[DisplacementSample | None]:
    """One full return from each start point (x, 0) in xs, as one integration.

    All orbits are stacked into one DOP853 state (x_k, y_k, E_k) with
    E' = dH/dt = eps g(x, y) y^2, so the displacement d_k is E_k at the
    return and no difference of two energies is taken.  Orbit k runs on its
    own clock t = T_k tau, T_k = J0(h_k) the period of its unperturbed oval
    (:func:`periods_real`): the stacked right-hand side is the flow's times
    T_k and the solver steps in tau, so every orbit returns near tau = 1 and
    the orbits return within a step or two of each other.  The return is the
    first + to - crossing of y after the first - to + crossing, as in
    :func:`poincare_return`; it is found at the end of a step, and the
    crossings of all orbits returning in one step are located together by
    Newton's method on that step's dense output (``_locate_returns``).  The
    return time is T_k tau at the crossing.  An orbit whose energy is above
    ``case.h_hi`` (H = 1e6 on an unbounded annulus, as in
    :func:`poincare_return`) at a step end or at its return, whose return
    leaves the section range, or which has not returned by ``cfg.max_time``
    on its own clock has escaped: its entry is None.  Each orbit that has
    returned or escaped is dropped from the state and the solver restarted
    on the rest, so a runaway orbit never shrinks the others' steps, and the
    integration stops when every orbit has finished.  A step that DOP853
    reports as failed raises RuntimeError.
    """
    lo, hi = cfg.case.section_range
    x0 = np.array(xs, dtype=float)
    if not np.all((lo < x0) & (x0 < hi)):
        raise ValueError(f"start points outside the section range {(lo, hi)}")
    samples: list[DisplacementSample | None] = [None] * x0.size
    if not x0.size:
        return samples
    h_escape = _escape_level(cfg.case)
    h0 = cfg.hamiltonian(x0, 0.0)
    clocks = np.array([_clock(cfg.case, h) for h in h0.tolist()])
    f = cfg.rhs()
    live = np.arange(x0.size)  # indices into xs of the orbits in the state
    crossed = np.zeros(x0.size, dtype=bool)  # past the far-side crossing

    def start(tau, state, step=None):
        # DOP853 in tau on the live orbits: the flow times each orbit's
        # clock, up to where the fastest clock passes max_time
        from scipy.integrate import DOP853

        scale = np.tile(clocks[live], 3)
        bound = cfg.max_time / clocks[live].min()
        return DOP853(lambda t, s: f(t, s) * scale, tau, state, bound, rtol=cfg.rtol,
                      atol=cfg.atol, first_step=None if step is None else min(step, bound - tau))

    solver = start(0.0, np.concatenate((x0, np.zeros(2 * x0.size))))
    while live.size and solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(
                f"integration failed from x0 in [{x0[live].min()}, {x0[live].max()}]: {message}"
            )
        n = live.size
        period = clocks[live]
        x, y = solver.y[:n], solver.y[n : 2 * n]
        y_old = solver.y_old[n : 2 * n]
        crossed[live] |= (y_old < 0) & (y >= 0)
        returned = crossed[live] & (y_old > 0) & (y <= 0)
        escaped = (cfg.hamiltonian(x, y) > h_escape) | (period * solver.t >= cfg.max_time)
        if returned.any():
            k = np.flatnonzero(returned)
            tau, (x1, y1, e1) = _locate_returns(solver.dense_output(), f, k, period[k], y)
            t_ret = period[k] * tau
            kept = ((lo < x1) & (x1 < hi) & (cfg.hamiltonian(x1, y1) <= h_escape)
                    & (t_ret <= cfg.max_time))
            for j, d, t in zip(live[k[kept]].tolist(), e1[kept].tolist(), t_ret[kept].tolist()):
                samples[j] = DisplacementSample(h=float(h0[j]), d=d, return_time=t,
                                                x0=float(x0[j]))
        # a finished orbit leaves the state at once: an escaped one would
        # run off, and a returned one kept to ride along can run off too
        done = escaped | returned
        if done.any():
            live = live[~done]
            if live.size and solver.status == "running":
                # scipy's solver refers to itself through its `fun` closures:
                # unlinking them frees its arrays now, not at the next cyclic
                # garbage collection (about 1 MB of peak memory per scan)
                solver.fun = solver.fun_vectorized = None
                solver = start(solver.t, solver.y.reshape(3, n)[:, ~done].ravel(),
                               solver.step_size)
    return samples


# relative width in x to which Brent's method refines a displacement sign
# change: poincare_return's d = H(return) - H(start) carries about 1e-11 of
# cancellation noise, which moves h* by up to about 1e-7, so a finer width
# only costs returns
_XTOL_REL = 1e-9


def find_limit_cycles(
    cfg: SimConfig,
    grid: int = 100,
    x_window: tuple[float, float] | None = None,
) -> list[tuple[float, str]]:
    """Limit cycles as (h*, stability) from sign changes of the displacement.

    The section window defaults to :func:`default_x_window`; pass x_window
    to focus the scan.  The grid of start points is sampled by one
    :func:`poincare_scan`.  Each sign change is refined by Brent's method
    on :func:`poincare_return` to a relative width of 1e-9 in x (or, if a
    probe inside it escapes, taken at its midpoint); the bracket ends reuse
    the scanned displacements.  Stability follows the sign pattern of d:
    + to - with increasing h is attracting.  Sign changes whose endpoints
    both sit below the integrator noise floor are discarded (a cycle whose
    displacement never rises above the energy drift is not resolvable).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    xs = np.linspace(*(x_window or default_x_window(cfg.case)), grid)
    samples = poincare_scan(cfg, xs)

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
            from scipy.optimize import brentq

            a, b = float(xs[i]), float(xs[i + 1])
            xtol = _XTOL_REL * max(1.0, abs(b))

            def displacement(x, a=a, b=b, da=s0.d, db=s1.d):
                # brentq evaluates both ends first: they are already scanned
                if x == a:
                    return da
                if x == b:
                    return db
                return poincare_return(cfg, x).d

            try:
                x_star = brentq(displacement, a, b, xtol=xtol)
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
    xs = [section_x_for_h(case, float(h)) for h in hs]
    for eps in epsilons:
        cfg = SimConfig(case=case, lam=tuple(float(c) for c in lam), eps=eps)
        samples = poincare_scan(cfg, xs)
        escaped = [x for x, s in zip(xs, samples) if s is None]
        if escaped:
            raise EscapeError(f"escaped annulus: no return from x0={escaped} (eps={eps})")
        d = np.array([s.d for s in samples])
        deviations.append(float(np.max(np.abs(d / eps**order - target))) / scale)
    slope = float("nan")
    if len(epsilons) > 1:
        slope = float(np.polyfit(np.log(epsilons), np.log(deviations), 1)[0])
    return {
        "epsilons": tuple(epsilons),
        "max_relative_deviation": tuple(float(d) for d in deviations),
        "convergence_order": slope,
    }
