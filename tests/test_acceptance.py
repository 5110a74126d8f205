"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime when it succeeds
(run with -s to see them).  These are the exit criteria of the build;
sizes and tolerances are pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from raylien.bautin import leading_generator_values, nakayama_certify, predict_order
from raylien.catalog import all_entries
from raylien.elliptic import pf_residual, wronskians
from raylien.exactalg import MultiPoly, PolyU
from raylien.forms import CASES, SIGN_CASES, reduce as reduce_form, verify_decomposition
from raylien.melnikov import (
    AllVanishedReport,
    MelnikovResult,
    ParamArc,
    lambdas_for_first_order,
    lemma1_product,
    melnikov,
)
from raylien.simulate import (
    EscapeError,
    SimConfig,
    find_limit_cycles,
    melnikov_validation,
    poincare_return,
    poincare_scan,
    section_x_for_h,
)
from raylien.zeros import VElement, count_zeros_real, scan_grid, winding_number_F


def _report(name: str, t0: float, detail: str = ""):
    dt = time.time() - t0
    print(f"PASS {name} ({dt:.1f}s){': ' + detail if detail else ''}")


# -- 1. catalog fidelity (exact) ----------------------------------------------


def test_criterion_1_catalog_fidelity():
    t0 = time.time()
    entries = all_entries()
    assert len(entries) == 23
    for e in entries:
        assert verify_decomposition(e.form, e.decomposition, e.case), e.ident
        d = reduce_form(e.form, e.case)
        assert d.u == e.decomposition.u and d.v == e.decomposition.v, e.ident
    assert time.time() - t0 < 10.0
    _report("criterion-1 catalog fidelity (23/23 exact)", t0)


# -- 2. first-order tables (exact) ---------------------------------------------

FIRST_ORDER = {
    # case name -> list over j=1..6 of ({deg: coeff} for p, same for q)
    "global-center": [
        ({}, {0: F(1)}),
        ({0: F(1)}, {}),
        ({0: F(-3, 7)}, {1: F(12, 7)}),
        ({0: F(-8, 7)}, {1: F(4, 7)}),
        ({0: F(-40, 231), 1: F(-320, 231)}, {1: F(20, 231), 2: F(240, 77)}),
        ({0: F(32, 21), 1: F(4, 3)}, {1: F(-16, 21)}),
    ],
    "truncated-pendulum": [
        ({}, {0: F(1)}),
        ({0: F(1)}, {}),
        ({0: F(-3, 7)}, {1: F(12, 7)}),
        ({0: F(8, 7)}, {1: F(-4, 7)}),
        ({0: F(40, 231), 1: F(-320, 231)}, {1: F(-20, 231), 2: F(240, 77)}),
        ({0: F(32, 21), 1: F(-4, 3)}, {1: F(-16, 21)}),
    ],
    "eight-interior": [
        ({}, {0: F(1)}),
        ({0: F(1)}, {}),
        ({0: F(3, 7)}, {1: F(12, 7)}),
        ({0: F(8, 7)}, {1: F(4, 7)}),
        ({0: F(40, 231), 1: F(320, 231)}, {1: F(20, 231), 2: F(240, 77)}),
        ({0: F(32, 21), 1: F(4, 3)}, {1: F(16, 21)}),
    ],
}


def test_criterion_2_first_order_tables():
    t0 = time.time()
    checked = 0
    for case in SIGN_CASES:
        for j in range(1, 7):
            coeffs = [0] * 6
            coeffs[j - 1] = 1
            res = melnikov(ParamArc.linear(coeffs), case)
            assert isinstance(res, MelnikovResult) and res.order == 1
            p_exp, q_exp = FIRST_ORDER[case.name][j - 1]
            assert res.p == PolyU(p_exp, "h"), (case.name, j)
            assert res.q == PolyU(q_exp, "h"), (case.name, j)
            checked += 1
    assert checked == 18
    assert time.time() - t0 < 5.0
    _report("criterion-2 first-order tables (18/18 exact)", t0)


# -- 3. cubic-order formula (exact) --------------------------------------------

CUBIC = {
    "global-center": (
        {0: F(-192, 1001), 1: F(-1448, 1001), 2: F(-2464, 1001)},
        {1: F(96, 1001), 2: F(640, 1001)},
    ),
    "truncated-pendulum": (
        {0: F(-192, 1001), 1: F(1448, 1001), 2: F(-2464, 1001)},
        {1: F(96, 1001), 2: F(-640, 1001)},
    ),
    "eight-interior": (
        {0: F(-192, 1001), 1: F(-1448, 1001), 2: F(-2464, 1001)},
        {1: F(-96, 1001), 2: F(-640, 1001)},
    ),
}


def test_criterion_3_cubic_order_formula():
    t0 = time.time()
    for case in SIGN_CASES:
        p1, q1 = (PolyU(c, "h") for c in CUBIC[case.name])
        for c in (1, 2, -3):
            arc = ParamArc.linear([0, -3 * case.a * c, c, -3 * case.b * c, 0, 0])
            res = melnikov(arc, case)
            assert isinstance(res, MelnikovResult) and res.order == 3
            assert res.p == p1.scale(F(c) ** 3), (case.name, c)
            assert res.q == q1.scale(F(c) ** 3), (case.name, c)
    assert time.time() - t0 < 30.0
    _report("criterion-3 cubic-order formula (9/9 exact)", t0)


# -- 4. product reductions are relatively exact ---------------------------------


def test_criterion_4_product_reductions():
    t0 = time.time()
    for case in SIGN_CASES:
        for cj, ck in ((1, 1), (F(3, 2), F(-2, 5)), (F(-7, 3), F(1, 9))):
            d = lemma1_product(cj, case, xy_coeff=ck)
            assert d.u.is_zero() and d.v.is_zero(), case.name
    assert time.time() - t0 < 5.0
    _report("criterion-4 product reductions relatively exact (all sign cases)", t0)


# -- 5. Picard-Fuchs residuals ---------------------------------------------------


def test_criterion_5_picard_fuchs_residuals():
    t0 = time.time()
    worst = 0.0
    for name in ("eight-interior", "eight-exterior"):
        case = CASES[name]
        if name == "eight-interior":
            hs = np.concatenate(
                [-0.25 + np.geomspace(1e-4, 0.124, 25), -np.geomspace(1e-4, 0.125, 25)]
            )
        else:
            hs = np.geomspace(1e-3, 1e3, 50)
        assert hs.size == 50
        for h in hs:
            r1, r2 = pf_residual(case, float(h), tol=1e-12)
            worst = max(worst, r1, r2)
            assert r1 <= 1e-9 and r2 <= 1e-9, (name, h, r1, r2)
    assert time.time() - t0 < 30.0
    _report("criterion-5 Picard-Fuchs residuals", t0, f"max {worst:.2e} <= 1e-9")


# -- 6. statistical zero-count bound ---------------------------------------------


def _random_element(rng, case, basis="I"):
    pc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
    qc = [F(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
    return VElement.from_coeffs(pc, qc, case, basis)


def test_criterion_6_statistical_zero_bound():
    t0 = time.time()
    worst = {}
    for name in sorted(CASES):
        case = CASES[name]
        rng = np.random.default_rng(20260810)
        top = 0
        for _ in range(1000):
            e = _random_element(rng, case)
            rep = count_zeros_real(e, grid=200, tol=1e-12)
            top = max(top, rep.count)
            assert rep.count <= case.zero_bound, (name, e.p, e.q, rep)
        worst[name] = top
    assert time.time() - t0 < 600.0
    _report("criterion-6 zero-count bound (4000 elements, 0 violations)", t0,
            f"max counts {worst}")


# -- 7. argument-principle consistency -------------------------------------------


def test_criterion_7_argument_principle():
    t0 = time.time()
    case = CASES["eight-exterior"]
    rng = np.random.default_rng(77)
    top = 0
    R, delta = 1e3, 1e-3  # the winding counts zeros in the truncated domain only
    for _ in range(100):
        e = _random_element(rng, case, basis="J")
        winding, estimate = winding_number_F(e)
        assert estimate <= 5
        assert abs(winding - estimate) < 0.05
        rep = count_zeros_real(e)
        real_count = sum(m for h, m in rep.locations if delta < h < R)
        assert real_count <= estimate, (e.p, e.q, rep.locations, winding)
        top = max(top, estimate)
    assert time.time() - t0 < 1200.0
    _report("criterion-7 argument principle (100 elements)", t0, f"max estimate {top}")


# -- 8. Wronskian structure -------------------------------------------------------


def test_criterion_8_wronskian_structure():
    t0 = time.time()
    w1 = [wronskians(h)[0] for h in (-0.20, -0.15, -0.10)]
    w2 = [wronskians(h)[0] for h in (-0.5, -1.0, -2.0)]
    for w in w1 + w2:
        assert abs(w.real) <= 1e-6 * abs(w)
    for ws in (w1, w2):
        spread = max(abs(a - b) for a in ws for b in ws)
        assert spread <= 1e-6 * abs(ws[0])
    ratio = w1[0] / w2[0]
    assert abs(ratio.imag) <= 1e-6 * abs(ratio)
    assert ratio.real > 0
    assert time.time() - t0 < 300.0
    _report("criterion-8 Wronskian structure", t0,
            f"W1 = {w1[0]:.6g}, W1/W2 = {ratio.real:.8f}")


# -- 9. Nakayama worked example (exact) -------------------------------------------


def test_criterion_9_nakayama_example():
    t0 = time.time()
    l1, l2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    b = [
        l1**2 + l1**2 * l2**2 + l1 * l2**3 + l2**4,
        l2**3 + l1**4 + l1**3 * l2,
    ]
    b0 = [l1**2, l2**3]
    cert = nakayama_certify(b, b0, 12)
    rebuilt = cert.reconstruct(b)
    for r, g in zip(rebuilt, b0):
        assert (r - g.truncate(12)).is_zero()
    assert time.time() - t0 < 5.0
    _report("criterion-9 Nakayama worked example (cap 12, zero residual)", t0)


# -- 10. predicted vs computed first order ----------------------------------------


def _random_arc(rng, case, depth):
    rows = [[] for _ in range(6)]
    for _ in range(depth):
        c = F(rng.randint(-4, 4))
        tuned = [0, -3 * case.a * c, c, -3 * case.b * c, 0, 0]
        for j in range(6):
            rows[j].append(tuned[j])
    tail = [F(rng.randint(-4, 4)) for _ in range(6)]
    if all(t == 0 for t in tail):
        tail[rng.randrange(6)] = F(1)
    for j in range(6):
        rows[j].append(tail[j])
    return ParamArc.from_rows(rows)


def test_criterion_10_order_agreement():
    t0 = time.time()
    checked = equal = 0
    for name in sorted(CASES):
        case = CASES[name]
        rng = random.Random(523 + len(name))
        for _ in range(200):
            arc = _random_arc(rng, case, rng.randint(0, 2))
            if arc.is_zero():
                continue
            pred = predict_order(arc, case)
            res = melnikov(arc, case, max_order=9)
            assert isinstance(res, MelnikovResult), (name, arc)
            assert res.order >= pred
            if any(v != 0 for v in leading_generator_values(arc, case)):
                assert res.order == pred
                equal += 1
            checked += 1
    assert time.time() - t0 < 600.0
    _report("criterion-10 order agreement", t0, f"{equal}/{checked} non-degenerate, all equal")


# -- 11. simulation cross-validation ----------------------------------------------


def _interpolated_element(case, targets):
    """Rational (p, q), deg p <= 1, whose element vanishes near the targets."""
    from raylien.elliptic import periods_real

    rows = []
    for h in targets:
        pv = periods_real(case, h, 1e-13)
        z = pv.I2 / pv.I0
        rows.append([z, h * z, 1.0, h, h * h])
    if len(targets) < 4:
        # pin surplus freedom: drop high-order coefficients
        for k in range(4 - len(targets)):
            pin = [0.0] * 5
            pin[4 - k] = 1.0
            rows.append(pin)
    _, _, vt = np.linalg.svd(np.array(rows))
    v = vt[-1]
    v = v / np.max(np.abs(v))
    p = PolyU({0: F(str(round(float(v[0]), 9))), 1: F(str(round(float(v[1]), 9)))}, "h")
    q = PolyU(
        {
            0: F(str(round(float(v[2]), 9))),
            1: F(str(round(float(v[3]), 9))),
            2: F(str(round(float(v[4]), 9))),
        },
        "h",
    )
    return p, q


def _normalized_lambda(p, q, case):
    lam = lambdas_for_first_order(p, q, case)
    scale = max(abs(c) for c in lam)
    return [c / scale for c in lam], scale


CONFIGS = [
    # (case name, list of target zeros, simulation h-window)
    ("global-center", [1.0], (0.15, 4.0)),
    ("global-center", [0.8, 2.2], (0.15, 5.0)),
    ("global-center", [0.7, 1.5, 2.6], (0.15, 5.0)),
    ("global-center", [0.5, 1.0, 2.0, 3.5], (0.1, 6.0)),
    ("truncated-pendulum", [0.06, 0.17], (0.01, 0.245)),
]


def test_criterion_11_simulation_cross_validation():
    t0 = time.time()
    for name, targets, window in CONFIGS:
        case = CASES[name]
        p, q = _interpolated_element(case, targets)
        lam, lam_scale = _normalized_lambda(p, q, case)
        oracle = count_zeros_real(VElement(p, q, case))
        assert oracle.count == len(targets), (name, targets, oracle)
        zeros = [h for h, _ in oracle.locations]

        x_window = (section_x_for_h(case, window[0]), section_x_for_h(case, window[1]))
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            cfg = SimConfig(case, tuple(float(c) for c in lam), eps)
            cycles = find_limit_cycles(cfg, grid=100, x_window=x_window)
            assert len(cycles) <= case.zero_bound
            assert len(cycles) == len(targets), (name, eps, targets, cycles)
            err = max(
                min(abs(h_star - z) for z in zeros) for h_star, _ in cycles
            )
            errors.append(err)
        # position error shrinks at least ~linearly in eps
        assert errors[-1] < errors[0] or errors[0] < 1e-8, (name, errors)
        if errors[0] > 1e-8:
            slope = np.polyfit(
                np.log([1e-2, 5e-3, 2.5e-3]), np.log(np.maximum(errors, 1e-16)), 1
            )[0]
            assert slope > 0.6, (name, errors, slope)
        print(f"  config {name} {targets}: errors {['%.2e' % e for e in errors]}")
    assert time.time() - t0 < 1800.0
    _report("criterion-11 simulation cross-validation (5 configurations)", t0)


def test_stacked_scan_matches_single_returns_on_criterion_11_configurations():
    """The stacked scan's displacements are the single returns' to 1e-9.

    DOP853 controls the RMS error over all stacked components, so the
    per-orbit accuracy is checked here rather than assumed.
    """
    t0 = time.time()
    worst = 0.0
    for name, targets, window in CONFIGS:
        case = CASES[name]
        p, q = _interpolated_element(case, targets)
        lam, _ = _normalized_lambda(p, q, case)
        cfg = SimConfig(case, tuple(float(c) for c in lam), 1e-2)
        xs = np.linspace(section_x_for_h(case, window[0]), section_x_for_h(case, window[1]), 100)
        for x, s in zip(xs, poincare_scan(cfg, xs)):
            try:
                ref = poincare_return(cfg, float(x))
            except EscapeError:
                ref = None
            assert (s is None) == (ref is None), (name, targets, x)
            if ref is not None:
                assert (s.d > 0) == (ref.d > 0), (name, targets, x, s.d, ref.d)
                assert abs(s.d - ref.d) <= 1e-9, (name, targets, x, s.d, ref.d)
                worst = max(worst, abs(s.d - ref.d))
    _report("stacked scan vs single returns (5 configurations)", t0, f"max |dd| {worst:.1e}")


def test_order_3_simulation_cross_validation():
    """The centre-direction arc eps (0, -3a, 1, -3b, 0, 0) on the global
    centre has M_1 = M_2 = 0; the simulated d/eps^3 converges to M_3."""
    t0 = time.time()
    case = CASES["global-center"]
    lam = (0, -3 * case.a, 1, -3 * case.b, 0, 0)
    res = melnikov(ParamArc.linear(list(lam)), case)
    assert res.order == 3
    rep = melnikov_validation(case, tuple(float(c) for c in lam), 3, res.p, res.q,
                              epsilons=(4e-2, 2e-2, 1e-2))
    devs = rep["max_relative_deviation"]
    assert devs[-1] < 2e-3, devs
    assert rep["convergence_order"] > 0.8, rep
    _report("order-3 simulation cross-validation", t0,
            f"deviations {['%.1e' % d for d in devs]}, slope {rep['convergence_order']:.2f}")
