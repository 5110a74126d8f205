"""Zero counting: real scans, derivative elements, argument principle."""

import dataclasses
import math
import random
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from raylien import zeros

from raylien.elliptic import periods_real, pf_J_prime
from raylien.exactalg import PolyU
from raylien.forms import CASES, EIGHT_EXTERIOR, EIGHT_INTERIOR, GLOBAL_CENTER, TRUNCATED_PENDULUM
from raylien.zeros import (
    ContourSpec,
    VElement,
    ZeroReport,
    _ContourTable,
    _contour_table,
    _grid_periods,
    _phase_step,
    count_zeros_real,
    derivative_element,
    eval_V,
    scan_grid,
    winding_number_F,
)


def ve(p_coeffs, q_coeffs, case, basis="I"):
    return VElement.from_coeffs(p_coeffs, q_coeffs, case, basis)


def test_eval_positive_period():
    e = ve([], [1], GLOBAL_CENTER)
    for h in (0.1, 1.0, 10.0):
        assert eval_V(e, h) > 0


def test_eval_I2_positive_on_global_center():
    e = ve([1], [], GLOBAL_CENTER)
    for h in np.geomspace(1e-3, 1e3, 12):
        assert eval_V(e, float(h)) > 0


def test_zero_element_rejected():
    with pytest.raises(ValueError):
        count_zeros_real(ve([], [], GLOBAL_CENTER))
    with pytest.raises(ValueError):
        ve([1, 1, 1, 1], [], GLOBAL_CENTER)  # degree > 2


def test_positive_period_has_no_zeros():
    rep = count_zeros_real(ve([], [1], GLOBAL_CENTER))
    assert rep.count == 0 and rep.certified


def test_constructed_two_zero_element():
    # q = -(h-1)(h-2), p = 0: I = q I0 vanishes exactly at 1 and 2
    rep = count_zeros_real(ve([], [-2, 3, -1], GLOBAL_CENTER))
    assert rep.count == 2
    zs = [h for h, _ in rep.locations]
    assert zs[0] == pytest.approx(1.0, abs=1e-8)
    assert zs[1] == pytest.approx(2.0, abs=1e-8)


def test_brent_refinement_work_per_zero(monkeypatch):
    import raylien.zeros as zeros

    calls = []

    def counted(e, h, tol=1e-12):
        calls.append(h)
        return eval_V(e, h, tol)

    monkeypatch.setattr(zeros, "eval_V", counted)
    rep = count_zeros_real(ve([], [-2, 3, -1], GLOBAL_CENTER))
    assert [m for _, m in rep.locations] == [1, 1]
    for (z, _), target in zip(rep.locations, (1.0, 2.0)):
        assert z == pytest.approx(target, abs=1e-9)
    assert len(calls) <= 10 * rep.count
    # the bracket ends are scan nodes whose values the scan already holds
    assert not set(calls) & set(scan_grid(GLOBAL_CENTER, 200).tolist())
    with pytest.raises(TypeError):
        count_zeros_real(ve([], [-2, 3, -1], GLOBAL_CENTER), refine_tol=1e-4)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_a_non_finite_tol_does_not_certify(tol):
    # with tol = nan or inf no rounding check or tangency probe would fire
    e = VElement.from_coeffs([], [-2, 3, -1], GLOBAL_CENTER)
    with pytest.raises(ValueError, match="tol must be finite"):
        count_zeros_real(e, tol=tol)


def test_locations_inside_window():
    rep = count_zeros_real(ve([], [-2, 3, -1], EIGHT_INTERIOR))
    for h, _ in rep.locations:
        assert rep.window[0] < h < rep.window[1]


@pytest.mark.parametrize(
    "case, h0",
    [(EIGHT_INTERIOR, F(-1, 4) + F(1, 10**10)), (TRUNCATED_PENDULUM, F(1, 4) - F(1, 10**10))],
    ids=["eight-interior", "truncated-pendulum"],
)
def test_window_excludes_zeros_beyond_the_end_nodes(case, h0):
    """A zero between an end of the interval and the nearest scan node is not
    counted, and the report's window says so."""
    rep = count_zeros_real(ve([], [-h0, 1], case))
    assert rep.count == 0 and rep.certified
    hs = scan_grid(case, 200)
    assert rep.window == (hs[0], hs[-1])
    assert not rep.window[0] <= h0 <= rep.window[1]


def test_scan_grid_cache_is_keyed_by_the_whole_case():
    count_zeros_real(ve([], [1], GLOBAL_CENTER))
    # same name as the global centre, different interval
    capped = dataclasses.replace(GLOBAL_CENTER, h_hi=4.0)
    assert np.array_equal(_grid_periods(capped, 200, 1e-12)[0], scan_grid(capped, 200))


def test_module_caches_are_bounded():
    for cached in (_grid_periods, _contour_table):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


# -- derivative elements -----------------------------------------------------


def test_derivative_element_fixtures():
    d = derivative_element(ve([], [1], EIGHT_EXTERIOR))
    assert d.p.is_zero() and d.q == PolyU.from_coeff_list([1], "h")
    d = derivative_element(ve([1], [], EIGHT_EXTERIOR))
    assert d.p == PolyU.from_coeff_list([1], "h") and d.q.is_zero()
    d = derivative_element(ve([0, 1], [], EIGHT_EXTERIOR))
    assert d.p == PolyU.from_coeff_list([F(4, 15), F(9, 5)], "h")
    assert d.q == PolyU.from_coeff_list([0, F(4, 15)], "h")


# two interior levels per case, clear of both ends
_PROBE_LEVELS = {
    "global-center": (0.5, 3.0),
    "truncated-pendulum": (0.05, 0.2),
    "eight-interior": (-0.2, -0.08),
    "eight-exterior": (0.4, 2.5),
}


def _central_difference(e, h):
    step = 1e-6 * max(1.0, abs(h))
    return (eval_V(e, h + step, 1e-13) - eval_V(e, h - step, 1e-13)) / (2 * step)


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_derivative_element_matches_finite_differences(case_name):
    e = ve([F(1, 3), F(-1, 2), F(1, 5)], [F(2), F(-1), F(1, 7)], CASES[case_name])
    de = derivative_element(e)
    for h in _PROBE_LEVELS[case_name]:
        assert eval_V(de, h, 1e-13) == pytest.approx(_central_difference(e, h), rel=1e-6)


@pytest.mark.parametrize("basis", ["I", "J"])
@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_probe_derivative_matches_finite_differences(case_name, basis):
    """V' as the tangency probe takes it: J for the I basis, the
    Picard-Fuchs J' for the J basis."""
    e = ve([F(1, 3), F(-1, 2), F(1, 5)], [F(2), F(-1), F(1, 7)], CASES[case_name], basis)
    for h in _PROBE_LEVELS[case_name]:
        dv = zeros._derivative_value(e, h, 1e-13)
        assert dv == pytest.approx(_central_difference(e, h), rel=1e-6)


# -- statistical Chebyshev sample (acceptance runs the full batch) ------------


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_random_elements_respect_the_bound(case_name):
    case = CASES[case_name]
    rng = np.random.default_rng(99)
    for _ in range(40):
        pc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        qc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        rep = count_zeros_real(ve(pc, qc, case))
        assert rep.count <= case.zero_bound


def _node_tangency_element():
    """I2 + q I0 on the eight exterior with a double zero on the node nearest 1.3."""
    case = EIGHT_EXTERIOR
    hs = scan_grid(case, 200)
    h0 = float(hs[np.searchsorted(hs, 1.3)])
    pv = periods_real(case, h0, 1e-13)
    z = pv.I2 / pv.I0
    dz = (pv.J2 * pv.I0 - pv.I2 * pv.J0) / pv.I0**2
    # G = Z + q with q(h0) = -Z(h0), q'(h0) = -Z'(h0): double zero at h0
    q1 = F(-dz)
    q0 = F(-z) - q1 * F(h0)
    return ve([F(1)], [q0, q1], case), h0


def test_j_basis_double_zero_on_a_node_has_multiplicity_two():
    """J2 + q J0 on the global centre with a double zero on the node nearest
    1.3; q' comes from the Picard-Fuchs J', which the probe also uses."""
    case = GLOBAL_CENTER
    hs = scan_grid(case, 200)
    h0 = float(hs[np.searchsorted(hs, 1.3)])
    pv = periods_real(case, h0, 1e-13)
    dJ0, dJ2 = pf_J_prime(case.ab_float, h0, pv.J0, pv.J2)
    z = pv.J2 / pv.J0
    dz = (dJ2 * pv.J0 - pv.J2 * dJ0) / pv.J0**2
    q1 = F(-dz)
    q0 = F(-z) - q1 * F(h0)
    rep = count_zeros_real(ve([F(1)], [q0, q1], case, basis="J"))
    assert rep.certified
    assert rep.locations == ((h0, 2),)


def test_near_tangency_at_a_node_is_flagged():
    """A double zero sitting on a scan node is reported with multiplicity 2.

    (A generic exact tangency has a sub-noise well far narrower than any
    grid spacing; the detector promises candidates only when the dip is
    sampled, so the fixture places the tangency on a node.)
    """
    e, h0 = _node_tangency_element()
    rep = count_zeros_real(e)
    near = [(h, m) for h, m in rep.locations if abs(h - h0) < 1e-3 * h0]
    if rep.certified:
        assert sum(m for _, m in near) == 2
    else:
        assert "near-tangency" in rep.notes


# -- the node classification against per-node loops ----------------------------


def _scalar_scan(e, grid=200, tol=1e-12):
    """Reference: count_zeros_real with the node classification as per-node loops."""
    case = e.case
    hs, I0, I2, J0, J2 = zeros._grid_periods(case, grid, tol)
    base0, base2 = (I0, I2) if e.basis == "I" else (J0, J2)
    vals, mags = zeros._element_values(e, hs, base0, base2)
    floor = 1e-13 * mags + 1e-306
    noise = tol * mags + 1e-306
    locations, certified, notes = [], True, []
    sign = np.sign(vals)
    reliable = [i for i in range(len(hs)) if abs(vals[i]) > floor[i]]
    if not reliable:
        return ZeroReport(0, (), "real-scan", case.zero_bound, False, (hs[0], hs[-1]),
                          "all scan values below the noise floor")
    if reliable[0] > 0:
        notes.append(f"sub-noise values below h={hs[reliable[0]]:.3g} (unresolvable)")
    if reliable[-1] < len(hs) - 1:
        notes.append(f"sub-noise values above h={hs[reliable[-1]]:.3g} (unresolvable)")
    for i, j in zip(reliable, reliable[1:]):
        if sign[i] != sign[j]:
            a, b = float(hs[i]), float(hs[j])

            def value(h, a=a, b=b, va=float(vals[i]), vb=float(vals[j])):
                return va if h == a else vb if h == b else zeros.eval_V(e, h, tol)

            xtol = zeros._XTOL_REL * max(1.0, abs(a), abs(b))
            locations.append((brentq(value, a, b, xtol=xtol), 1))
        elif j > i + 1:
            h_mid = float(hs[(i + j) // 2])
            if zeros._probe_tangency(e, float(hs[i]), float(hs[j]), tol) == 2:
                locations.append((h_mid, 2))
                notes.append(f"multiplicity-2 candidate at h={h_mid:.6g}")
            else:
                certified = False
                notes.append(f"unresolved near-tangency at h={h_mid:.6g}")
    rel_set = set(reliable)
    dips = [
        i
        for i in range(1, len(hs) - 1)
        if i in rel_set
        and (i - 1) in rel_set
        and (i + 1) in rel_set
        and abs(vals[i]) < 10.0 * noise[i]
        and abs(vals[i]) <= abs(vals[i - 1])
        and abs(vals[i]) <= abs(vals[i + 1])
        and sign[i - 1] == sign[i] == sign[i + 1]
    ]
    for i in dips:
        mult = zeros._probe_tangency(e, float(hs[i - 1]), float(hs[i + 1]), tol)
        if mult == 2:
            locations.append((float(hs[i]), 2))
            notes.append(f"multiplicity-2 candidate at h={hs[i]:.6g}")
        elif mult < 0:
            certified = False
            notes.append(f"unresolved near-tangency at h={hs[i]:.6g}")
    locations.sort()
    count = sum(m for _, m in locations)
    return ZeroReport(count, tuple(locations), "real-scan", case.zero_bound,
                      certified and count <= case.zero_bound, (hs[0], hs[-1]),
                      "; ".join(notes))


def _edit_values(vals, mags, hs, kind):
    """Scan values edited so that one branch of the classification is taken.

    Values are set relative to the node magnitude M: a node is reliable
    above 1e-13 M and a dip candidate below 1e-11 M.
    """
    k = int(np.searchsorted(hs, 10.0))  # vals < 0 around h = 10
    s = math.copysign(1.0, vals[k])
    M = mags[k]
    if kind == "all sub-noise":
        vals[:] = 0.0
    elif kind == "one sub-noise node at each end":
        vals[0] = vals[-1] = 0.0
    elif kind == "sub-noise run between equal signs":
        vals[k : k + 3] = 0.0
    elif kind == "sub-noise run across a sign change":
        j = int(np.searchsorted(hs, 1.0))
        vals[j - 1 : j + 2] = 0.0
    elif kind == "reliable dip":
        vals[k] = s * 5e-13 * M
    elif kind == "uneven well":
        # only the middle node is below both neighbours
        mags[k - 1 : k + 2] = M
        vals[k - 1 : k + 2] = s * np.array([4e-12, 2e-12, 3e-12]) * M
    elif kind == "well above the noise":
        mags[k - 1 : k + 2] = M
        vals[k - 1 : k + 2] = s * np.array([4e-11, 2e-11, 3e-11]) * M
    elif kind == "small nodes beside sign changes":
        # a flip to the left of node k and to the right of node k + 10
        vals[k] = s * 5e-13 * M
        vals[k - 1] = -vals[k - 1]
        vals[k + 10] = s * 5e-13 * mags[k + 10]
        vals[k + 11] = -vals[k + 11]
    elif kind == "small node beside a sub-noise node":
        # node k is low enough for a dip, but its left neighbour is sub-noise
        mags[k - 1] = 10.0 * M
        vals[k - 1] = s * 5e-13 * M
        vals[k] = s * 2e-13 * M


_EXPECTED_NOTE = {
    "all sub-noise": "all scan values below the noise floor",
    "one sub-noise node at each end": "sub-noise values below",
    "sub-noise run between equal signs": "near-tangency",
    "sub-noise run across a sign change": "",
    "reliable dip": "near-tangency",
    "uneven well": "near-tangency",
    "small node beside a sub-noise node": "near-tangency",
    "well above the noise": "",
    "small nodes beside sign changes": "",
}


def test_vectorised_scan_matches_scalar_reference(monkeypatch):
    elements = []
    for name in sorted(CASES):
        rng = np.random.default_rng(20260810)
        for k in range(30):
            pc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
            qc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
            elements.append(ve(pc, qc, CASES[name], "IJ"[k % 2]))
    elements.append(ve([], [-2, 3, -1], GLOBAL_CENTER))
    tangent, h0 = _node_tangency_element()
    elements.append(tangent)
    for e in elements:
        assert count_zeros_real(e) == _scalar_scan(e)
    # the fixture's double zero is a reliable dip
    assert f"at h={h0:.6g}" in count_zeros_real(tangent).notes

    # edited scan values reach the branches random elements do not: both
    # sides read the same edited values through the patched module name
    e = ve([], [-2, 3, -1], GLOBAL_CENTER)
    element_values = zeros._element_values
    for kind, note in _EXPECTED_NOTE.items():

        def edited(el, hs, b0, b2, kind=kind):
            vals, mags = element_values(el, hs, b0, b2)
            _edit_values(vals, mags, hs, kind)
            return vals, mags

        monkeypatch.setattr(zeros, "_element_values", edited)
        rep = count_zeros_real(e)
        assert rep == _scalar_scan(e), kind
        assert note in rep.notes if note else not rep.notes, kind


_coeffs = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8), max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CASES)),
    st.sampled_from("IJ"),
    _coeffs,
    _coeffs,
    st.one_of(st.floats(0.01, 0.99), st.sampled_from((0.125, 0.25, 0.5, 0.75))),
)
def test_float_coefficient_eval_is_the_exact_polynomials_rounded(name, basis, pc, qc, u):
    """eval_V is float(p(h)) B2 + float(q(h)) B0 bit for bit, negative h included.

    The zero element is left out: the scan refuses it, and Poly evaluates a
    zero polynomial to 0*h, which is -0.0 at negative h.
    """
    case = CASES[name]
    e = ve(pc, qc, case, basis)
    assume(not e.is_zero())
    h = case.h_lo + u * (min(case.h_hi, 20.0) - case.h_lo)
    pv = periods_real(case, h, 1e-12)
    b2, b0 = (pv.I2, pv.I0) if basis == "I" else (pv.J2, pv.J0)
    exact = float(e.p(h)) * b2 + float(e.q(h)) * b0
    assert struct.pack("<d", eval_V(e, h)) == struct.pack("<d", exact)
    assert (e.pc, e.qc) == tuple(tuple(float(f[k]) for k in (2, 1, 0)) for f in (e.p, e.q))
    # the scan's array form is np.polyval's, bit for bit
    hs = np.array([h, -h, 2.0 * h])
    for c in (e.pc, e.qc):
        assert zeros._horner(c, hs).tobytes() == np.polyval(c, hs).tobytes()


# -- argument principle -------------------------------------------------------


def test_constant_F_has_zero_winding():
    w, n = winding_number_F(ve([], [1], EIGHT_EXTERIOR, basis="J"))
    assert n == 0
    assert abs(w) < 1e-6


def test_winding_rejects_wrong_case_or_zero():
    with pytest.raises(ValueError):
        winding_number_F(ve([], [1], GLOBAL_CENTER, basis="J"))
    with pytest.raises(ValueError):
        winding_number_F(ve([], [], EIGHT_EXTERIOR, basis="J"))


def test_windings_are_near_integers_and_dominate_real_counts():
    rng = np.random.default_rng(20260810)
    for _ in range(8):
        pc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        qc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        e = ve(pc, qc, EIGHT_EXTERIOR, basis="J")
        w, n = winding_number_F(e)
        assert n <= 5
        assert abs(w - n) < 0.05
        # the winding counts the truncated domain: compare on (delta, R)
        rep = count_zeros_real(e)
        assert sum(m for h, m in rep.locations if 1e-3 < h < 1e3) <= n


def test_derivative_of_pure_I2_matches_its_real_zeros():
    """J of I2 is J2; its winding bounds the real zeros of J2 (none)."""
    e_t = derivative_element(ve([1], [], EIGHT_EXTERIOR))
    w, n = winding_number_F(VElement(e_t.p, e_t.q, EIGHT_EXTERIOR, basis="J"))
    assert count_zeros_real(e_t).count <= n <= 5


def _seeded_J_elements(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        pc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        qc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        out.append(ve(pc, qc, EIGHT_EXTERIOR, basis="J"))
    return out


def _scalar_winding(e, spec):
    """Reference: F from one scalar closed-form evaluation per contour sample."""
    table = _contour_table(spec)
    pc = [float(e.p[k]) for k in (2, 1, 0)]
    qc = [float(e.q[k]) for k in (2, 1, 0)]

    def F_at(piece, t):
        h, J0, J2 = table.jj_at(piece, t)
        return np.polyval(pc, h) * (J2 / J0) + np.polyval(qc, h)

    total = 0.0
    for piece, (ts, _, _) in enumerate(table.samples):
        f = [F_at(piece, float(t)) for t in ts]
        for k in range(len(ts) - 1):
            total += _phase_step(piece, float(ts[k]), float(ts[k + 1]), f[k], f[k + 1],
                                 F_at, spec.max_refine_depth)
    return total / (2.0 * math.pi)


def test_array_winding_matches_scalar_reference():
    spec = ContourSpec()
    for e in _seeded_J_elements(31, 3):
        w, n = winding_number_F(e, spec)
        assert w == pytest.approx(_scalar_winding(e, spec), rel=0, abs=1e-12)


def test_coarse_contour_refines_wide_steps_to_the_same_count(monkeypatch):
    coarse = ContourSpec(samples_circle=20, samples_edge=15, samples_near=5)
    elements = _seeded_J_elements(20260810, 4)
    defaults = [winding_number_F(e)[1] for e in elements]
    jj_at = _ContourTable.jj_at
    calls = []

    def counted(self, piece, t):
        calls.append(piece)
        return jj_at(self, piece, t)

    monkeypatch.setattr(_ContourTable, "jj_at", counted)
    for e, n_default in zip(elements, defaults):
        w, n = winding_number_F(e, coarse)
        assert n == n_default
        assert abs(w - n) < 1e-6
    assert calls  # the wide steps went through the midpoint refinement
    w, _ = winding_number_F(elements[0], coarse)
    assert w == pytest.approx(_scalar_winding(elements[0], coarse), rel=0, abs=1e-12)


def test_contour_table_refuses_a_J0_that_winds(monkeypatch):
    closed_form = zeros.cut_plane_J

    def with_a_zero_inside(h):
        J0, J2, est = closed_form(h)
        return J0 * (h - 1.0), J2, est

    monkeypatch.setattr(zeros, "cut_plane_J", with_a_zero_inside)
    with pytest.raises(RuntimeError, match="J0 winds 1.000 times"):
        _ContourTable(ContourSpec())


@pytest.mark.parametrize("R, delta", [(-5.0, 1e-3), (1e3, 0.0), (1e3, 2e3), (math.inf, 1e-3),
                                      (math.nan, 1e-3)])
def test_contour_spec_needs_0_lt_delta_lt_R(R, delta):
    with pytest.raises(ValueError, match=f"got delta={delta}, R={R}"):
        ContourSpec(R=R, delta=delta)


def test_winding_refuses_a_zero_on_the_contour():
    # F = h - R vanishes at the first contour sample h = R
    e = ve([], [-1000, 1], EIGHT_EXTERIOR, basis="J")
    with pytest.raises(RuntimeError, match="contour hits a zero of F near h=1000"):
        winding_number_F(e)
