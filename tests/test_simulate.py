"""Poincare returns, limit-cycle detection, leading-order validation."""

import gc
import math
import sys
import threading
import time
from fractions import Fraction as F

import numpy as np
import pytest

from raylien import simulate
from raylien.elliptic import periods_real
from raylien.forms import EIGHT_EXTERIOR, EIGHT_INTERIOR, GLOBAL_CENTER, TRUNCATED_PENDULUM
from raylien.melnikov import ParamArc, lambdas_for_first_order, melnikov
from raylien.simulate import (
    EscapeError,
    SimConfig,
    default_x_window,
    find_limit_cycles,
    melnikov_validation,
    poincare_return,
    poincare_scan,
    section_x_for_h,
)
from raylien.zeros import VElement, count_zeros_real
from raylien.exactalg import PolyU


def test_energy_conserved_at_zero_eps():
    cfg = SimConfig(GLOBAL_CENTER, (0,) * 6, 0.0)
    for x0 in (0.4, 1.0, 2.2):
        s = poincare_return(cfg, x0)
        assert abs(s.d) < 1e-10
        assert s.return_time > 0


def test_return_time_near_harmonic_period():
    cfg = SimConfig(GLOBAL_CENTER, (0,) * 6, 0.0)
    s = poincare_return(cfg, 1e-3)
    assert s.return_time == pytest.approx(2 * math.pi, rel=1e-4)


def test_lambda1_pumps_energy():
    cfg = SimConfig(GLOBAL_CENTER, (1, 0, 0, 0, 0, 0), 1e-3)
    for x0 in (0.5, 1.0, 1.5):
        assert poincare_return(cfg, x0).d > 0


def test_section_validation():
    cfg = SimConfig(GLOBAL_CENTER, (0,) * 6, 0.0)
    with pytest.raises(ValueError):
        poincare_return(cfg, -1.0)
    cfg_tp = SimConfig(TRUNCATED_PENDULUM, (0,) * 6, 0.0)
    with pytest.raises(ValueError):
        poincare_return(cfg_tp, 1.5)


@pytest.mark.parametrize("field, kwargs", [
    ("eps", {"eps": math.nan}),
    ("eps", {"eps": -math.inf}),
    ("lam", {"lam": (1, math.nan, 0, 0, 0, 0)}),
    ("lam", {"lam": (math.inf, 0, 0, 0, 0, 0)}),
    ("max_time", {"max_time": math.nan}),
    ("max_time", {"max_time": math.inf}),
    ("max_time", {"max_time": 0.0}),
    ("max_time", {"max_time": -1.0}),
])
def test_sim_config_rejects_non_finite_values(field, kwargs):
    # a nan in the state gives DOP853 a nan first step, and its step loop
    # never ends: the config refuses it before any scan starts
    args = {"case": GLOBAL_CENTER, "lam": (1, -1, 0, 0, 0, 0), "eps": 1e-2, **kwargs}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SimConfig(**args)


def test_escape_near_separatrix():
    # outside the pendulum's oval region the orbit never returns
    cfg = SimConfig(TRUNCATED_PENDULUM, (0,) * 6, 0.0, max_time=30.0)
    with pytest.raises(EscapeError):
        poincare_return(cfg, 0.999999)


@pytest.mark.parametrize("x0", [0.9, 0.98])
def test_orbit_pumped_across_the_separatrix_escapes_promptly(x0):
    # lambda1 pumps energy until the orbit crosses h = 1/4 and runs off;
    # without the energy guard this integrates an unbounded orbit for
    # longer than 25 s
    cfg = SimConfig(TRUNCATED_PENDULUM, (1, -1, 0, 0, 0, 0), 0.01)
    t0 = time.perf_counter()
    with pytest.raises(EscapeError, match="rose above"):
        poincare_return(cfg, x0)
    assert time.perf_counter() - t0 < 5.0


def test_stacked_scan_drops_escaped_orbits(monkeypatch):
    """Orbits pumped across the separatrix leave the stacked state.

    An escaped truncated-pendulum orbit runs off to infinity; kept in the
    state it would shrink every step.  The scan needs about 900 RHS calls
    here, so the guard turns a missing drop into a failure, not a hang.
    """
    cfg = SimConfig(TRUNCATED_PENDULUM, (1, -1, 0, 0, 0, 0), 0.01)
    xs = np.linspace(*default_x_window(TRUNCATED_PENDULUM), 100)
    make_rhs = SimConfig.rhs

    def guarded_rhs(config):
        f = make_rhs(config)
        calls = []

        def rhs(t, s):
            calls.append(t)
            if len(calls) > 20_000:
                raise AssertionError("stacked scan still integrating after 20000 RHS calls")
            return f(t, s)

        return rhs

    monkeypatch.setattr(SimConfig, "rhs", guarded_rhs)
    stacked = poincare_scan(cfg, xs)
    monkeypatch.undo()
    escaped = []
    for i, x in enumerate(xs):
        try:
            poincare_return(cfg, float(x))
        except EscapeError:
            escaped.append(i)
    assert escaped
    assert [i for i, s in enumerate(stacked) if s is None] == escaped


def test_runaway_orbits_on_an_unbounded_annulus_escape(monkeypatch):
    """An orbit that blows up in finite time escapes; it fails no scan.

    With g = y^4 every orbit gains energy, E' grows like H^3 at large H and
    the outer orbits of the global centre run off in finite time.  Above
    H = 1e6 they count as escaped, in the stacked scan and in single returns
    alike, before the step size underflows.
    """
    cfg = SimConfig(GLOBAL_CENTER, (0, 0, 0, 0, 1, 0), 0.01)
    scans = []

    def recorded(config, xs):
        scans.append((xs, poincare_scan(config, xs)))
        return scans[-1][1]

    monkeypatch.setattr(simulate, "poincare_scan", recorded)
    assert find_limit_cycles(cfg, grid=30) == []
    ((xs, stacked),) = scans
    escaped = []
    for i, x in enumerate(xs):
        try:
            poincare_return(cfg, float(x))
        except EscapeError:
            escaped.append(i)
    assert len(escaped) == 12
    assert [i for i, s in enumerate(stacked) if s is None] == escaped


def _single_returns(cfg, xs):
    """poincare_return at each x, None where it raises EscapeError."""
    out = []
    for x in xs:
        try:
            out.append(poincare_return(cfg, float(x)))
        except EscapeError:
            out.append(None)
    return out


@pytest.mark.parametrize("case, lam", [
    (EIGHT_INTERIOR, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2)),
    (EIGHT_EXTERIOR, (1, -0.5, 0.1, 0, 0, 0.01)),
], ids=["eight-interior", "eight-exterior"])
def test_stacked_scan_matches_single_returns_on_the_eight_loop_annuli(case, lam):
    """The per-orbit clocks where they differ most: T(h) grows like log|h|
    toward the separatrix h = 0 of both eight-loop annuli."""
    cfg = SimConfig(case, lam, 1e-2)
    xs = np.linspace(*default_x_window(case), 100)
    for x, s, ref in zip(xs, poincare_scan(cfg, xs), _single_returns(cfg, xs)):
        assert (s is None) == (ref is None), x
        if ref is not None:
            assert abs(s.d - ref.d) <= 1e-9, (x, s.d, ref.d)
            assert s.return_time == pytest.approx(ref.return_time, rel=1e-9), x


@pytest.mark.parametrize("case, rel", [
    (GLOBAL_CENTER, 1e-9),
    (TRUNCATED_PENDULUM, 2e-9),
    (EIGHT_INTERIOR, 1e-9),
    (EIGHT_EXTERIOR, 1e-9),
], ids=["global-center", "truncated-pendulum", "eight-interior", "eight-exterior"])
def test_scan_return_time_is_the_period_at_zero_eps(case, rel):
    """At eps = 0 each orbit returns at tau = 1 of its clock, its period J0(h).

    DOP853 bounds the RMS error over all stacked orbits, and on clocks the
    orbits take the same steps per period; the pendulum orbit at the
    window's top, h = 0.2496, next to the separatrix, returns within
    1.3e-9 of its period (its single return within 1.5e-10).
    """
    cfg = SimConfig(case, (0,) * 6, 0.0)
    samples = poincare_scan(cfg, np.linspace(*default_x_window(case), 40))
    for s in samples:
        assert abs(s.d) < 1e-10, s
        assert s.return_time == pytest.approx(periods_real(case, s.h).J0, rel=rel), s


def test_scan_max_time_holds_per_orbit():
    """With max_time between the window's shortest and longest return times,
    exactly the orbits whose single return finds no return within max_time
    are None."""
    cfg = SimConfig(EIGHT_EXTERIOR, (1, -0.5, 0.1, 0, 0, 0.01), 1e-2)
    xs = np.linspace(*default_x_window(EIGHT_EXTERIOR), 40)
    times = sorted(s.return_time for s in _single_returns(cfg, xs))
    short = SimConfig(cfg.case, cfg.lam, cfg.eps, max_time=0.5 * (times[19] + times[20]))
    timed_out = []
    for i, x in enumerate(xs):
        try:
            poincare_return(short, float(x))
        except EscapeError as exc:
            assert f"within t={short.max_time}" in str(exc)
            timed_out.append(i)
    assert len(timed_out) == 20
    assert [i for i, s in enumerate(poincare_scan(short, xs)) if s is None] == timed_out


@pytest.mark.parametrize("case, x_end, lam, resolved", [
    # pumped across the separatrix: both escape
    (TRUNCATED_PENDULUM, 1 - 1e-12, (1, -1, 0, 0, 0, 0), True),
    # damped into the annulus: both return
    (TRUNCATED_PENDULUM, 1 - 1e-12, (-1, 0, 0, 0, 0, 0), True),
    # an orbit 1e-300 from the centre: neither finds a return within max_time
    (GLOBAL_CENTER, 1e-300, (1, -1, 0, 0, 0, 0), True),
    # an orbit 1e-15 from the centre, below the absolute tolerance: whether
    # its return lands inside the section range is rounding noise
    (EIGHT_INTERIOR, 1 + 1e-15, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2), False),
], ids=["pendulum-pumped", "pendulum-damped", "global-center", "eight-interior"])
def test_scan_accepts_start_points_at_the_annulus_ends(case, x_end, lam, resolved):
    """A start point whose float h rounds onto an end of the annulus has no
    period; it runs on a fallback clock, and the scan matches single returns.

    Started 1e-12 from the pendulum's saddle, the return time is sensitive
    to the integration error near the saddle, so it is compared to 1e-4.
    """
    cfg = SimConfig(case, lam, 1e-2)
    assert not case.contains_h(cfg.hamiltonian(x_end, 0.0))
    xs = [x_end, *np.linspace(*default_x_window(case), 4)]
    pairs = list(zip(xs, poincare_scan(cfg, xs), _single_returns(cfg, xs)))
    for x, s, ref in pairs if resolved else pairs[1:]:
        assert (s is None) == (ref is None), x
        if ref is not None:
            assert (s.h, s.x0) == (ref.h, ref.x0)
            assert abs(s.d - ref.d) <= 1e-9, (x, s.d, ref.d)
            rel = 1e-4 if x == x_end else 1e-9
            assert s.return_time == pytest.approx(ref.return_time, rel=rel), x


def test_central_symmetry_of_eight_interior():
    """Displacement at (x0, 0) equals the reflected trajectory's at (-x0, 0).

    The mirrored start point lies off the section range, so its orbit is
    integrated here on poincare_return's path with the crossing orientations
    mirrored: scipy's compiled DOP853 to the step in which y goes - to +
    after the far-side + to - crossing, then Henon's step in y to y = 0.
    """
    from scipy.integrate import ode

    cfg = SimConfig(EIGHT_INTERIOR, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2), 1e-3)
    right = poincare_return(cfg, 1.25)

    f = cfg.rhs()
    ys, crossed = [0.0], []

    def solout(t, s):
        y_old, y = ys[-1], s[1]
        ys.append(y)
        if crossed and y_old < 0 <= y:
            return -1
        if y_old > 0 >= y:
            crossed.append(t)
        return 0

    flow = ode(f).set_integrator("dop853", rtol=cfg.rtol, atol=cfg.atol, nsteps=10**6)
    flow.set_solout(solout)
    flow.set_initial_value((-1.25, 0.0), 0.0)
    x, y = flow.integrate(cfg.max_time)
    assert flow.get_return_code() == 2  # stopped at the return step

    def in_y(y, s):
        dx, dy = f(s[1], (s[0], y))
        return (dx / dy, 1.0 / dy)

    step = ode(in_y).set_integrator("dop853", rtol=cfg.rtol, atol=cfg.atol)
    step.set_initial_value((x, flow.t), y)
    x1, t1 = step.integrate(0.0)
    d_left = cfg.hamiltonian(x1, 0.0) - cfg.hamiltonian(-1.25, 0.0)
    assert d_left == pytest.approx(right.d, rel=1e-9, abs=1e-14)
    assert t1 == pytest.approx(right.return_time, rel=1e-9)


def _two_leg_return(cfg, x0):
    """The earlier poincare_return: two solve_ivp DOP853 runs with events.

    The first leg ends at the - to + crossing of y, the second at the next
    + to - crossing; a terminal event stops either where H rises through
    the escape level.  Returns (d, return time), or None for an escape.
    """
    from scipy.integrate import solve_ivp

    lo, hi = cfg.case.section_range
    h_escape = simulate._escape_level(cfg.case)

    def y_event(t, s):
        return s[1]

    def escape_event(t, s):
        return cfg.hamiltonian(s[0], s[1]) - h_escape

    y_event.terminal = escape_event.terminal = True
    escape_event.direction = 1
    state, t_accum = (x0, 0.0), 0.0
    for direction in (+1, -1):
        y_event.direction = direction
        sol = solve_ivp(cfg.rhs(), (0.0, cfg.max_time - t_accum), state, method="DOP853",
                        rtol=cfg.rtol, atol=cfg.atol, events=[y_event, escape_event])
        assert sol.success, sol.message
        if sol.t_events[1].size or sol.t_events[0].size == 0:
            return None
        t_accum += float(sol.t_events[0][0])
        state = tuple(sol.y_events[0][0])
    if not lo < state[0] < hi:
        return None
    return cfg.hamiltonian(*state) - cfg.hamiltonian(x0, 0.0), t_accum


@pytest.mark.parametrize("case, lam, eps", [
    (GLOBAL_CENTER, (0, 0, 0, 0, 1, 0), 1e-2),
    (EIGHT_INTERIOR, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2), 1e-2),
    (EIGHT_EXTERIOR, (1, -0.5, 0.1, 0, 0, 0.01), 1e-2),
    (TRUNCATED_PENDULUM, (1, -1, 0, 0, 0, 0), 1e-2),
], ids=["global-center", "eight-interior", "eight-exterior", "truncated-pendulum"])
def test_compiled_return_matches_two_leg_event_integration(case, lam, eps):
    """The compiled return with Henon's step against solve_ivp's events.

    Both are DOP853 at the same tolerances; their step-size controllers
    differ, so d and the return time agree to the tolerances' order.  The
    start points reach runaway orbits on the global centre and orbits
    pumped across the separatrix of the truncated pendulum.
    """
    cfg = SimConfig(case, lam, eps)
    escapes = 0
    for x in np.linspace(*default_x_window(case), 9):
        ref = _two_leg_return(cfg, float(x))
        try:
            s = poincare_return(cfg, float(x))
        except EscapeError:
            assert ref is None, (x, ref)
            escapes += 1
            continue
        assert ref is not None, (x, s)
        assert abs(s.d - ref[0]) <= 1e-9, (x, s.d, ref[0])
        assert abs(s.return_time - ref[1]) <= 1e-9 * ref[1], (x, s.return_time, ref[1])
    if case in (GLOBAL_CENTER, TRUNCATED_PENDULUM):
        assert escapes


def test_single_returns_retain_few_objects():
    """1000 returns on one config leave at most 50 more gc-tracked objects.

    scipy's dop853 wrapper keeps a reference to the callback of every run;
    poincare_return reuses its integrators and pins their bound callbacks,
    so the runs keep the same two objects rather than two new ones each.
    """
    cfg = SimConfig(GLOBAL_CENTER, (1, -1, 0, 0, 0, 0), 1e-2)
    poincare_return(cfg, 1.0)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(1000):
        poincare_return(cfg, 1.0)
    gc.collect()
    assert len(gc.get_objects()) - before <= 50


def _outcome(cfg, x0):
    try:
        return poincare_return(cfg, x0)
    except EscapeError as exc:
        return str(exc)


def test_returns_from_threads_match_serial_returns():
    """Single returns share one pair of compiled integrators; threads take turns.

    With a short switch interval the interpreter switches threads inside the
    integrators' Python callbacks; every result must equal the serial one.
    """
    jobs = [(cfg, float(x))
            for cfg in (SimConfig(GLOBAL_CENTER, (1, -1, 0, 0, 0, 0), 1e-2),
                        SimConfig(EIGHT_INTERIOR, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2), 1e-2),
                        SimConfig(TRUNCATED_PENDULUM, (1, -1, 0, 0, 0, 0), 1e-2))
            for x in np.linspace(*default_x_window(cfg.case), 8)]
    serial = [_outcome(cfg, x) for cfg, x in jobs]
    results = [None] * len(jobs)

    def work(k):
        for i in range(k, len(jobs), 4):
            results[i] = _outcome(*jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_exception_in_the_flow_ends_a_compiled_return(monkeypatch):
    """An exception raised by the right-hand side is raised by the return.

    scipy's compiled DOP853 steps on after its callback raises; the return
    must stop at once and raise the exception itself, then work as before.
    """
    cfg = SimConfig(GLOBAL_CENTER, (1, -1, 0, 0, 0, 0), 1e-2)
    expected = poincare_return(cfg, 1.0)
    make_rhs = SimConfig.rhs
    calls = []

    def failing_rhs(config):
        f = make_rhs(config)

        def rhs(t, s):
            calls.append(t)
            if len(calls) > 100:
                raise KeyError("flow failed")
            return f(t, s)

        return rhs

    monkeypatch.setattr(SimConfig, "rhs", failing_rhs)
    with pytest.raises(KeyError, match="flow failed"):
        poincare_return(cfg, 1.0)
    assert len(calls) < 200
    monkeypatch.undo()
    assert poincare_return(cfg, 1.0) == expected


def test_no_cycles_at_zero_eps():
    cfg = SimConfig(GLOBAL_CENTER, (0,) * 6, 0.0)
    assert find_limit_cycles(cfg, grid=100, x_window=(0.3, 2.0)) == []


def test_e6_arc_has_no_cycles_matching_oracle():
    """lambda_6 alone: the leading coefficient is positive on the whole
    annulus (it vanishes to fourth order at h = 0 but stays one-signed),
    so the simulator must find no cycles."""
    res = melnikov(ParamArc.linear([0, 0, 0, 0, 0, 1]), GLOBAL_CENTER)
    oracle = count_zeros_real(VElement(res.p, res.q, GLOBAL_CENTER))
    assert oracle.count == 0
    cfg = SimConfig(GLOBAL_CENTER, (0, 0, 0, 0, 0, 1.0), 1e-3)
    cycles = find_limit_cycles(
        cfg, grid=100, x_window=(section_x_for_h(GLOBAL_CENTER, 0.05),
                                section_x_for_h(GLOBAL_CENTER, 8.0))
    )
    assert cycles == []


def test_single_cycle_constructed_configuration(monkeypatch):
    p = PolyU.zero("h")
    q = PolyU.from_coeff_list([F(-1), F(1)], "h")  # q = h - 1: one zero at 1
    lam = lambdas_for_first_order(p, q, GLOBAL_CENTER)
    oracle = count_zeros_real(VElement(p, q, GLOBAL_CENTER))
    assert oracle.count == 1
    returns = []

    def counted(cfg, x0):
        returns.append(x0)
        return poincare_return(cfg, x0)

    monkeypatch.setattr(simulate, "poincare_return", counted)
    cfg = SimConfig(GLOBAL_CENTER, tuple(float(c) for c in lam), 2e-3)
    x_window = (section_x_for_h(GLOBAL_CENTER, 0.1), section_x_for_h(GLOBAL_CENTER, 5.0))
    cycles = find_limit_cycles(cfg, grid=100, x_window=x_window)
    assert len(cycles) == 1
    assert cycles[0][0] == pytest.approx(1.0, abs=5e-3)
    # the grid is one stacked scan; single returns are a few Brent steps per
    # cycle, none of them at a bracket end the scan already sampled
    assert len(returns) <= 10 * len(cycles)
    assert not set(returns) & set(np.linspace(*x_window, 100).tolist())


def test_solver_failure_is_not_an_escape(monkeypatch):
    """A step-size failure raises RuntimeError with scipy's message.

    Without an escape level the runaway orbits of g = y^4 on the global
    centre blow up in finite time, and both DOP853s fail on them.
    """
    monkeypatch.setattr(simulate, "_escape_level", lambda case: math.inf)
    cfg = SimConfig(GLOBAL_CENTER, (0, 0, 0, 0, 1, 0), 1e-2)
    x_runaway = default_x_window(GLOBAL_CENTER)[1]
    for run, message in (
        (lambda: poincare_return(cfg, x_runaway), "dop853: step size becomes too small"),
        (lambda: poincare_scan(cfg, [1.0, x_runaway]), "Required step size is less than spacing"),
        (lambda: find_limit_cycles(cfg, grid=4, x_window=(1.0, x_runaway)),
         "Required step size is less than spacing"),
    ):
        with pytest.raises(RuntimeError, match=f"integration failed.*{message}") as info:
            run()
        assert not isinstance(info.value, EscapeError)


def test_constructed_two_cycle_configuration():
    p = PolyU.zero("h")
    q = PolyU.from_coeff_list([F(-3, 4), F(1), F(-1, 4)], "h")  # -(h-1)(h-3)/4
    lam = lambdas_for_first_order(p, q, GLOBAL_CENTER)
    oracle = count_zeros_real(VElement(p, q, GLOBAL_CENTER))
    assert oracle.count == 2
    cfg = SimConfig(GLOBAL_CENTER, tuple(float(c) for c in lam), 5e-3)
    cycles = find_limit_cycles(
        cfg, grid=100, x_window=(section_x_for_h(GLOBAL_CENTER, 0.2),
                                section_x_for_h(GLOBAL_CENTER, 6.0))
    )
    assert len(cycles) == 2
    for (h_star, stab), (h_pred, _) in zip(cycles, oracle.locations):
        assert h_star == pytest.approx(h_pred, abs=0.02)
    assert {s for _, s in cycles} == {"stable", "unstable"}


def test_melnikov_validation_first_order_arc():
    res = melnikov(ParamArc.linear([0, 0, 0, 0, 0, 1]), GLOBAL_CENTER)
    rep = melnikov_validation(
        GLOBAL_CENTER, (0, 0, 0, 0, 0, 1.0), res.order, res.p, res.q,
        epsilons=(1e-2, 5e-3, 2.5e-3), n_grid=5,
    )
    devs = rep["max_relative_deviation"]
    assert devs[0] < 0.2
    assert devs[-1] < devs[0]
    assert rep["convergence_order"] > 0.8


def test_melnikov_validation_zero_arc():
    zero_p = PolyU.zero("h")
    rep = melnikov_validation(
        GLOBAL_CENTER, (0,) * 6, 1, zero_p, zero_p,
        epsilons=(1e-2,), n_grid=3,
    )
    assert rep["max_relative_deviation"][0] < 1e-6
