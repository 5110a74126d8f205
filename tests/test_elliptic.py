"""Real periods, Picard-Fuchs structure, complex continuation."""

import cmath
import math

import numpy as np
import pytest

from raylien.elliptic import (
    QuadratureError,
    case_grid,
    cut_plane_J,
    oval_geometry,
    periods_complex,
    periods_real,
    pf_residual,
    vanishing_cycle_periods,
    wronskians,
)
from raylien.forms import CASES, EIGHT_EXTERIOR, EIGHT_INTERIOR, GLOBAL_CENTER, TRUNCATED_PENDULUM
from raylien.zeros import ContourSpec, _contour_table, scan_grid

from pf_reference import pf_continue


# -- oval geometry -----------------------------------------------------------


def test_oval_geometry_eight_exterior():
    g = oval_geometry(EIGHT_EXTERIOR, 0.375)
    assert g.x_hi == pytest.approx(math.sqrt(1 + math.sqrt(2.5)), rel=1e-14)
    assert g.x_lo == -g.x_hi
    # oracle: direct root finding on y^2(x) = 2h + x^2 - x^4/2
    roots = np.roots([-0.5, 0.0, 1.0, 0.0, 2 * 0.375])
    real_roots = sorted(r.real for r in roots if abs(r.imag) < 1e-12)
    assert real_roots[-1] == pytest.approx(g.x_hi, rel=1e-12)


def test_oval_geometry_pendulum_saddle_limit():
    g = oval_geometry(TRUNCATED_PENDULUM, 0.25 - 1e-12)
    assert g.x_hi == pytest.approx(1.0, abs=2e-6)


def test_oval_geometry_center_limit():
    g = oval_geometry(GLOBAL_CENTER, 1e-12)
    assert g.x_hi == pytest.approx(0.0, abs=2e-6)


def test_oval_geometry_eight_interior_right_oval():
    g = oval_geometry(EIGHT_INTERIOR, -0.1)
    s = math.sqrt(1 - 0.4)
    assert g.x_lo == pytest.approx(math.sqrt(1 - s), rel=1e-14)
    assert g.x_hi == pytest.approx(math.sqrt(1 + s), rel=1e-14)


def test_oval_geometry_rejects_outside():
    with pytest.raises(ValueError):
        oval_geometry(GLOBAL_CENTER, -1.0)
    with pytest.raises(ValueError):
        oval_geometry(EIGHT_INTERIOR, 0.1)


# -- real periods ------------------------------------------------------------


def test_harmonic_oscillator_limit():
    for h in (1e-4, 1e-5, 1e-6):
        pv = periods_real(GLOBAL_CENTER, h)
        assert pv.I0 / (2 * math.pi * h) == pytest.approx(1.0, abs=5e-4 * math.sqrt(h) / 1e-3 + 4e-4)
        assert pv.I2 / (math.pi * h * h) == pytest.approx(1.0, abs=2e-3)


def test_vanishing_oval_at_the_interior_center():
    pv = periods_real(EIGHT_INTERIOR, -0.25 + 1e-9)
    assert abs(pv.I0) < 1e-7
    assert abs(pv.I2) < 1e-7


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_J0_positive_throughout(case_name):
    case = CASES[case_name]
    for h in case_grid(case, 25):
        pv = periods_real(case, float(h))
        assert pv.J0 > 0


@pytest.mark.parametrize(
    "case_name", ["global-center", "truncated-pendulum", "eight-exterior"], ids=str
)
def test_I0_monotone_where_area_grows(case_name):
    case = CASES[case_name]
    hs = case_grid(case, 30)
    vals = [periods_real(case, float(h)).I0 for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quadrature_error_estimates_are_tiny():
    pv = periods_real(EIGHT_EXTERIOR, 1.0, 1e-12)
    assert pv.est_error < 1e-12


# -- independent reference: tanh-sinh over the oval's x-segment ---------------
#
# Adaptive tanh-sinh quadrature of y, x^2 y, 1/y and x^2/y, with y^2 factored
# through the root offsets (x_hi - x, x - x_lo) so that it stays accurate at
# the segment ends.  Symmetric ovals are folded onto [0, x_hi], which puts
# the near-saddle peak of 1/y at x = 0 on a segment end.

_TS_T_MAX = 4.3


def _ts_nodes(k):
    """Nodes/weights at step 2^-k: (x, w, 1-x, 1+x), endpoint-stable."""
    step = 2.0 ** (-k)
    t = step * np.arange(1, int(math.ceil(_TS_T_MAX / step)) + 1)
    g = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(g)
    e = np.exp(-2.0 * g)
    om = 2.0 * e / (1.0 + e)  # 1 - x without cancellation
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(g) ** 2 * step
    one_minus = np.concatenate([2.0 - om[::-1], [1.0], om])
    return (np.concatenate([-x[::-1], [0.0], x]),
            np.concatenate([w[::-1], [0.5 * np.pi * step], w]),
            one_minus, one_minus[::-1].copy())


def _y2_center(h, xx, bmx, xma, lo, hi):
    return 0.5 * bmx * (hi + xx) * (xx * xx + (1.0 + math.sqrt(1.0 + 4.0 * h)))


def _y2_pendulum(h, xx, bmx, xma, lo, hi):
    return 0.5 * bmx * (hi + xx) * (1.0 + math.sqrt(1.0 - 4.0 * h) - xx * xx)


def _y2_interior(h, xx, bmx, xma, lo, hi):
    return 0.5 * xma * (xx + lo) * bmx * (hi + xx)


def _y2_exterior(h, xx, bmx, xma, lo, hi):
    c = 4.0 * h / (math.sqrt(1.0 + 4.0 * h) + 1.0)  # sqrt(1+4h) - 1
    return 0.5 * bmx * (hi + xx) * (xx * xx + c)


_Y2 = {"global-center": _y2_center, "truncated-pendulum": _y2_pendulum,
       "eight-interior": _y2_interior, "eight-exterior": _y2_exterior}


def _tanh_sinh_periods(case, h, tol=1e-12):
    """(I0, I2, J0, J2); the step halves until no value moves by tol."""
    geo = oval_geometry(case, h)
    lo, hi = geo.x_lo, geo.x_hi
    A, fold = (0.0 if case.fold == 2.0 else lo), case.fold
    half, mid = 0.5 * (hi - A), 0.5 * (hi + A)
    prev = None
    for k in range(5, 13):
        x, w, om, op = _ts_nodes(k)
        xx = mid + half * x
        y = np.sqrt(np.maximum(_Y2[case.name](h, xx, half * om, half * op, lo, hi), 0.0))
        wy, wovery = w * y, w / y
        vals = 2.0 * half * fold * np.array(
            [wy.sum(), (xx * xx * wy).sum(), wovery.sum(), (xx * xx * wovery).sum()])
        if prev is not None and np.max(np.abs(vals - prev) / np.abs(vals)) < tol:
            return vals
        prev = vals
    raise AssertionError(f"tanh-sinh reference did not converge at h={h}")


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_closed_form_matches_tanh_sinh_reference(case_name):
    """Both scan and probe grids, ends included; next to the interior's
    centre the reference's own error reaches 4.8e-12 (mpmath), so nodes
    with h + 1/4 < 1e-6 get 1e-11."""
    case = CASES[case_name]
    for h in np.concatenate([scan_grid(case, 200), case_grid(case, 60)]):
        h = float(h)
        pv = periods_real(case, h)
        ref = _tanh_sinh_periods(case, h)
        rel = 1e-11 if h + 0.25 < 1e-6 else 1e-12
        for got, want in zip((pv.I0, pv.I2, pv.J0, pv.J2), ref):
            assert abs(got - want) <= rel * abs(want), (h, got, want)


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_general_picard_fuchs_relations(case_name):
    """3 I0 = 4h J0 - a J2 and 15 b I2 = -4a h J0 + (12bh + 4a^2) J2."""
    case = CASES[case_name]
    a, b = case.ab_float
    for h in case_grid(case, 20):
        h = float(h)
        pv = periods_real(case, h)
        terms1 = (4.0 * h * pv.J0, a * pv.J2)
        terms2 = (4.0 * a * h * pv.J0, (12.0 * b * h + 4.0 * a * a) * pv.J2)
        r1 = 3.0 * pv.I0 - terms1[0] + terms1[1]
        r2 = 15.0 * b * pv.I2 + terms2[0] - terms2[1]
        assert abs(r1) <= 1e-14 * sum(map(abs, terms1)), h
        assert abs(r2) <= 1e-14 * sum(map(abs, terms2)), h


def _mp_periods(case, h, mp):
    """(I0, I2, J0, J2) by mpmath quadrature at the working precision.

    With s = x^2 = alpha + k sin^2 t on the oval's s-interval [alpha, beta]
    and gamma the third root of s y^2 = C (s - alpha)(beta - s)|s - gamma|,
    C = |b|/2, the four periods are smooth integrals over t in [0, pi/2],
    split geometrically towards both ends where the integrands peak next to
    a separatrix.
    """
    a, b = (mp.mpf(c.numerator) / c.denominator for c in (case.a, case.b))
    h = mp.mpf(h)
    sq = mp.sqrt(a * a + 4 * b * h)
    roots = sorted(((-a + sq) / b, (-a - sq) / b))
    if case.fold == 2:
        alpha, beta = mp.mpf(0), min(r for r in roots if r > 0)
        gamma = roots[0] + roots[1] - beta
    else:
        (alpha, beta), gamma = roots, mp.mpf(0)
    k, f, rC = beta - alpha, mp.mpf(case.fold), mp.sqrt(abs(b) / 2)

    def s(t):
        return alpha + k * mp.sin(t) ** 2

    def D(t):
        return abs(s(t) - gamma)

    ends = [mp.pi / 2 * mp.mpf(10) ** -e for e in range(12, 0, -2)]
    nodes = [0, *ends, *(mp.pi / 2 - x for x in reversed(ends)), mp.pi / 2]
    quad = lambda fn: mp.quad(fn, nodes)  # noqa: E731
    sc2 = lambda t: (mp.sin(t) * mp.cos(t)) ** 2  # noqa: E731
    # dx/y = ds / (2 sqrt(s y^2)),  ds = 2k sin t cos t dt
    return (
        2 * f * rC * k * k * quad(lambda t: sc2(t) * mp.sqrt(D(t)) / s(t)),
        2 * f * rC * k * k * quad(lambda t: sc2(t) * mp.sqrt(D(t))),
        2 * f / rC * quad(lambda t: 1 / mp.sqrt(D(t))),
        2 * f / rC * quad(lambda t: s(t) / mp.sqrt(D(t))),
    )


@pytest.mark.parametrize(
    "case_name, h",
    [("eight-interior", -0.25 + 2.5e-10), ("truncated-pendulum", 0.25 - 2.5e-10),
     ("global-center", 1e-8), ("eight-exterior", 1.2e-8)],
    ids=str,
)
def test_closed_form_against_40_digit_mpmath(case_name, h):
    """Next to each annulus end, where tanh-sinh loses digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = _mp_periods(CASES[case_name], h, mpmath)
    pv = periods_real(CASES[case_name], h)
    for got, want in zip((pv.I0, pv.I2, pv.J0, pv.J2), ref):
        err = float(abs((got - want) / want))
        assert err <= 1e-14
        assert err <= pv.est_error


def test_rounding_bound_above_tol_raises():
    hs = [float(h) for h in scan_grid(EIGHT_INTERIOR, 200)]
    pv = max((periods_real(EIGHT_INTERIOR, h) for h in hs), key=lambda p: p.est_error)
    assert 1e-14 < pv.est_error < 1e-13
    with pytest.raises(QuadratureError):
        periods_real(EIGHT_INTERIOR, pv.h, 1e-14)
    with pytest.raises(ValueError):
        periods_real(EIGHT_INTERIOR, pv.h, 1e-15)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_a_non_finite_tol_is_rejected(tol):
    # a nan or inf tol would pass every `est > tol` rounding check unseen
    with pytest.raises(ValueError, match="tol must be finite"):
        periods_real(GLOBAL_CENTER, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        periods_complex(1 + 0.5j, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        vanishing_cycle_periods(-0.2, tol=tol)


def test_finite_difference_oracle_for_J():
    """J = dI/dh by central differences, all four cases (non-PF oracle)."""
    for case_name, h in (
        ("global-center", 0.7),
        ("truncated-pendulum", 0.11),
        ("eight-interior", -0.13),
        ("eight-exterior", 0.9),
    ):
        case = CASES[case_name]
        step = 1e-6
        up = periods_real(case, h + step, 1e-13)
        dn = periods_real(case, h - step, 1e-13)
        pv = periods_real(case, h, 1e-13)
        assert (up.I0 - dn.I0) / (2 * step) == pytest.approx(pv.J0, rel=1e-7)
        assert (up.I2 - dn.I2) / (2 * step) == pytest.approx(pv.J2, rel=1e-7)


# -- Picard-Fuchs ------------------------------------------------------------


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_pf_residuals_on_grid(case_name):
    case = CASES[case_name]
    for h in case_grid(case, 20):
        r1, r2 = pf_residual(case, float(h), 1e-12)
        assert r1 <= 1e-11
        assert r2 <= 1e-11


def test_pf_residual_detects_broken_identity():
    pv = periods_real(EIGHT_EXTERIOR, 1.0)
    scale = max(abs(pv.I0), abs(pv.I2), 1.0)
    broken = abs(4 * 1.0 * pv.J0 + pv.J2 - 4.0 * pv.I0) / scale
    assert broken > 1e-2


# -- complex continuation ----------------------------------------------------


def test_contour_route_matches_real_axis():
    pr = periods_real(EIGHT_EXTERIOR, 2.0, 1e-12)
    pc = periods_complex(2.0)
    for attr in ("I0", "I2", "J0", "J2"):
        assert complex(getattr(pc, attr)) == pytest.approx(
            complex(getattr(pr, attr)), rel=1e-10
        )


@pytest.mark.parametrize("h", [0.5 + 0.3j, 2.0 + 1.0j, 1.0 - 2.0j, 10.0 + 5.0j])
def test_contour_and_pf_routes_agree(h):
    a = periods_complex(h)
    b = pf_continue(EIGHT_EXTERIOR, h)
    for attr in ("I0", "I2", "J0", "J2"):
        va, vb = complex(getattr(a, attr)), complex(getattr(b, attr))
        assert va == pytest.approx(vb, rel=1e-9)


@pytest.mark.parametrize("piece", range(7))
def test_closed_form_follows_pf_continuation_along_the_contour(piece):
    """Branch continuity: every 20th table sample and both ends of a piece."""
    _, hs, ratio = _contour_table(ContourSpec()).samples[piece]
    for i in sorted({*range(0, len(hs), 20), len(hs) - 1}):
        J0, J2, _ = cut_plane_J(hs[i])
        ref = pf_continue(EIGHT_EXTERIOR, complex(hs[i]))
        assert abs(J0 - ref.J0) <= 1e-9 * abs(ref.J0), hs[i]
        assert abs(J2 - ref.J2) <= 1e-9 * abs(ref.J2), hs[i]
        assert abs(ratio[i] - ref.J2 / ref.J0) <= 1e-9 * abs(ratio[i]), hs[i]


def _mp_cut_plane_J(h, mp):
    """cut_plane_J's closed form at the working precision."""
    sq = mp.sqrt(1 + 4 * h)
    A, B = 4 * h / (1 + sq), 2 * sq
    c, s = B / 3 * mp.elliprd(0, A, B), A / 3 * mp.elliprd(0, B, A)
    return 4 * (c + s) / mp.sqrt(0.5), 4 * (1 + sq) * s / mp.sqrt(0.5)


def _mp_half_jump(h, mp):
    """(J0, J2) of the vanishing cycle: half the jump of the closed form across the cut."""
    up = _mp_cut_plane_J(mp.mpc(h, 1e-30), mp)
    dn = _mp_cut_plane_J(mp.mpc(h, -1e-30), mp)
    return (dn[0] - up[0]) / 2, (dn[1] - up[1]) / 2


def _mp_picard_fuchs(h, J0, J2, mp):
    """(I0, I2, J0, J2) from the Picard-Fuchs sums, with h as an mpf or mpc:
    12 h + 4 formed in doubles would cost I2 its digits where the sum cancels."""
    h = mp.mpmathify(h)
    return (4 * h * J0 + J2) / 3, (4 * h * J0 + (12 * h + 4) * J2) / 15, J0, J2


@pytest.mark.parametrize("h", [0.5 + 0.3j, -0.2 + 1e-3j, -1e3 - 1e-3j, 1e-3j, -0.1, -0.02], ids=str)
def test_cut_plane_rounding_bound_against_40_digit_mpmath(h):
    """est_error covers the rounding error of all four values; real h is the
    vanishing cycle, whose I2 (about h^2) cancels in the Picard-Fuchs sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if isinstance(h, complex):
            pv = periods_complex(h)
            J0, J2 = _mp_cut_plane_J(mpmath.mpc(h), mpmath)
        else:
            pv = vanishing_cycle_periods(h)
            J0, J2 = _mp_half_jump(h, mpmath)
        want = _mp_picard_fuchs(h, J0, J2, mpmath)
        for got, ref in zip((pv.I0, pv.I2, pv.J0, pv.J2), want):
            assert abs(got - ref) <= pv.est_error * abs(ref), (got, ref)


@pytest.mark.parametrize("h", [float(h) for h in -np.geomspace(1e-6, 0.2499, 10)], ids=str)
def test_vanishing_cycle_against_40_digit_half_jump(h):
    """The truncated pendulum's oval at -h, scaled by powers of i, against the
    jump of the cut-plane closed form across (-1/4, 0): all the way to h = 0,
    where the Picard-Fuchs sums for I0, I2 from J0, J2 cancel."""
    mpmath = pytest.importorskip("mpmath")
    pv = vanishing_cycle_periods(h)
    with mpmath.workdps(40):
        want = _mp_picard_fuchs(h, *_mp_half_jump(h, mpmath), mpmath)
        for got, ref in zip((pv.I0, pv.I2, pv.J0, pv.J2), want):
            assert abs(got - ref) <= pv.est_error * abs(ref), (got, ref)


def test_vanishing_cycle_error_names_the_callers_level():
    # the bound at h = -0.23 is 1.4e-14, above the tightest tol
    with pytest.raises(QuadratureError, match=r"^vanishing cycle at h=-0\.23: .*above tol=1e-14"):
        vanishing_cycle_periods(-0.23, tol=1e-14)


def test_conjugate_symmetry():
    a = pf_continue(EIGHT_EXTERIOR, 0.5 + 0.25j)
    b = pf_continue(EIGHT_EXTERIOR, 0.5 - 0.25j)
    assert a.J0.conjugate() == pytest.approx(b.J0, rel=1e-11)
    assert a.J2.conjugate() == pytest.approx(b.J2, rel=1e-11)


def _interior_levels(case):
    if math.isinf(case.h_hi):
        return [0.05, 0.5, 4.0, 50.0]
    return [case.h_lo + f * (case.h_hi - case.h_lo) for f in (0.05, 0.3, 0.7, 0.95)]


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_pf_reference_follows_the_real_axis(case_name):
    case = CASES[case_name]
    for h in _interior_levels(case):
        ref, pv = pf_continue(case, h), periods_real(case, h)
        assert ref.branch_tag == "real-oval"
        for attr in ("I0", "I2", "J0", "J2"):
            got, want = getattr(ref, attr), getattr(pv, attr)
            assert abs(got - want) <= 1e-10 * abs(want), (h, attr)


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_pf_reference_conjugate_symmetry(case_name):
    case = CASES[case_name]
    for h in (complex(_interior_levels(case)[1], 0.25), complex(-2.0, 3.0)):
        a, b = pf_continue(case, h), pf_continue(case, h.conjugate())
        for attr in ("I0", "I2", "J0", "J2"):
            va, vb = getattr(a, attr), getattr(b, attr)
            assert va.conjugate() == pytest.approx(vb, rel=1e-11), (h, attr)


def test_pf_reference_rejects_real_levels_outside_the_annulus():
    with pytest.raises(ValueError, match="outside the truncated-pendulum interval"):
        pf_continue(TRUNCATED_PENDULUM, 0.5)


def test_rejects_points_on_the_cut():
    with pytest.raises(ValueError):
        periods_complex(-1.0)
    with pytest.raises(ValueError):
        periods_complex(0.0)


def test_large_radius_decay_exponent():
    a = pf_continue(EIGHT_EXTERIOR, 100 + 100j)
    b = pf_continue(EIGHT_EXTERIOR, 1000 + 1000j)
    alpha = math.log(abs(b.J0) / abs(a.J0)) / math.log(10.0)
    assert alpha == pytest.approx(-0.25, abs=0.05)
    # J2/J0 grows like |h|^(1/2), so deg-2 polynomial envelopes keep the
    # growth exponent of ptilde J2/J0 + qtilde within [0, 2.5]
    beta = math.log(abs(b.J2 / b.J0) / abs(a.J2 / a.J0)) / math.log(10.0)
    assert beta == pytest.approx(0.5, abs=0.05)


def test_branch_tags():
    assert pf_continue(EIGHT_EXTERIOR, 1.0 + 1.0j).branch_tag == "plus-side"
    assert pf_continue(EIGHT_EXTERIOR, 1.0 - 1.0j).branch_tag == "minus-side"
    assert vanishing_cycle_periods(-0.1).branch_tag == "vanishing-cycle"


# -- Picard-Lefschetz jump and Wronskians -------------------------------------


def test_picard_lefschetz_jump():
    """J0(h + i d) - J0(h - i d) tends to +-2 * (vanishing-cycle J0)."""
    h = -0.1
    vc = vanishing_cycle_periods(h)
    rel = []
    for d in (1e-3, 2.5e-4):
        up = pf_continue(EIGHT_EXTERIOR, complex(h, d))
        dn = pf_continue(EIGHT_EXTERIOR, complex(h, -d))
        jump = up.J0 - dn.J0
        rel.append(min(abs(jump - 2 * vc.J0), abs(jump + 2 * vc.J0)) / abs(jump))
    assert rel[0] < 5e-3
    assert rel[1] < rel[0] / 2  # shrinks roughly linearly in the offset


def test_wronskian_imaginary_and_constant():
    w1 = [wronskians(h)[0] for h in (-0.20, -0.15, -0.10)]
    for w in w1:
        assert abs(w.real) <= 1e-6 * abs(w)
    spread = max(abs(a - b) for a in w1 for b in w1)
    assert spread <= 1e-6 * abs(w1[0])
    assert all(wronskians(h)[1] == "W1" for h in (-0.2, -0.1))


@pytest.mark.parametrize(
    "h, w", [(-0.20, -32j), (-0.15, -32j), (-0.10, -32j), (-0.5, -16j), (-1.0, -16j), (-2.0, -16j)]
)
def test_wronskian_values(h, w):
    assert wronskians(h)[0] == pytest.approx(w * math.pi, rel=1e-10)


def test_wronskian_tags_and_ratio():
    w1, tag1 = wronskians(-0.15)
    w2, tag2 = wronskians(-1.0)
    assert (tag1, tag2) == ("W1", "W2")
    ratio = w1 / w2
    assert abs(ratio.imag) <= 1e-6 * abs(ratio)
    assert ratio.real > 0
    assert min(abs(ratio.real - 2.0), abs(ratio.real - 2.0 / 3.0)) < 1e-5


def test_wronskian_rejects_bad_h():
    with pytest.raises(ValueError):
        wronskians(0.5)
    with pytest.raises(ValueError):
        wronskians(-0.25)
