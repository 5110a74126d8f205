"""Melnikov recursion: order-1 tables, cubic orders, structure properties."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from raylien.exactalg import PolyU
from raylien.forms import (
    EIGHT_EXTERIOR,
    EIGHT_INTERIOR,
    GLOBAL_CENTER,
    SIGN_CASES,
    TRUNCATED_PENDULUM,
)
from raylien.melnikov import (
    AllVanishedReport,
    MelnikovResult,
    ParamArc,
    _order1_rows,
    center_conditions_order1,
    lambdas_for_first_order,
    lemma1_product,
    lemma_cross_form,
    melnikov,
)
from raylien.forms import perturbation_form
from raylien.forms import reduce as reduce_form


def ph(coeffs):
    return PolyU.from_coeff_list(coeffs, "h")


# Expected (p, q) of the order-1 basis arcs: rows lambda_1..lambda_6.
FIRST_ORDER_TABLE = {
    "global-center": [
        (ph([]), ph([1])),
        (ph([1]), ph([])),
        (ph([F(-3, 7)]), ph([0, F(12, 7)])),
        (ph([F(-8, 7)]), ph([0, F(4, 7)])),
        (ph([F(-40, 231), F(-320, 231)]), ph([0, F(20, 231), F(240, 77)])),
        (ph([F(32, 21), F(4, 3)]), ph([0, F(-16, 21)])),
    ],
    "truncated-pendulum": [
        (ph([]), ph([1])),
        (ph([1]), ph([])),
        (ph([F(-3, 7)]), ph([0, F(12, 7)])),
        (ph([F(8, 7)]), ph([0, F(-4, 7)])),
        (ph([F(40, 231), F(-320, 231)]), ph([0, F(-20, 231), F(240, 77)])),
        (ph([F(32, 21), F(-4, 3)]), ph([0, F(-16, 21)])),
    ],
    "eight-interior": [
        (ph([]), ph([1])),
        (ph([1]), ph([])),
        (ph([F(3, 7)]), ph([0, F(12, 7)])),
        (ph([F(8, 7)]), ph([0, F(4, 7)])),
        (ph([F(40, 231), F(320, 231)]), ph([0, F(20, 231), F(240, 77)])),
        (ph([F(32, 21), F(4, 3)]), ph([0, F(16, 21)])),
    ],
}

# Cubic-order envelope (p, q) for the unit center-direction arc, per case.
CUBIC_TABLE = {
    "global-center": (
        ph([F(-8 * 24, 1001), F(-8 * 181, 1001), F(-8 * 308, 1001)]),
        ph([0, F(8 * 12, 1001), F(8 * 80, 1001)]),
    ),
    "truncated-pendulum": (
        ph([F(-8 * 24, 1001), F(8 * 181, 1001), F(-8 * 308, 1001)]),
        ph([0, F(8 * 12, 1001), F(-8 * 80, 1001)]),
    ),
    "eight-interior": (
        ph([F(-8 * 24, 1001), F(-8 * 181, 1001), F(-8 * 308, 1001)]),
        ph([0, F(-8 * 12, 1001), F(-8 * 80, 1001)]),
    ),
}


def center_direction_arc(case, c=1):
    return ParamArc.linear([0, -3 * case.a * c, c, -3 * case.b * c, 0, 0])


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("j", range(1, 7))
def test_first_order_table(case, j):
    coeffs = [0] * 6
    coeffs[j - 1] = 1
    res = melnikov(ParamArc.linear(coeffs), case)
    assert isinstance(res, MelnikovResult)
    assert res.order == 1
    p_exp, q_exp = FIRST_ORDER_TABLE[case.name][j - 1]
    assert res.p == p_exp
    assert res.q == q_exp


def test_eight_exterior_shares_the_table():
    res = melnikov(ParamArc.linear([0, 0, 0, 0, 1, 0]), EIGHT_EXTERIOR)
    assert res.p == ph([F(40, 231), F(320, 231)])
    assert res.q == ph([0, F(20, 231), F(240, 77)])


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("c", [1, 2, -3])
def test_cubic_order_formula(case, c):
    res = melnikov(center_direction_arc(case, c), case)
    assert isinstance(res, MelnikovResult)
    assert res.order == 3
    p1, q1 = CUBIC_TABLE[case.name]
    assert res.p == p1.scale(F(c) ** 3)
    assert res.q == q1.scale(F(c) ** 3)


def test_zero_arc_reports_all_vanished():
    res = melnikov(ParamArc.linear([0] * 6), GLOBAL_CENTER, max_order=4)
    assert isinstance(res, AllVanishedReport)
    assert res.arc_is_zero
    assert res.max_order == 4


def test_deep_arc_overflow_is_reported_not_truncated():
    # pure center-direction arc first appears at order 3; cap below that
    res = melnikov(center_direction_arc(GLOBAL_CENTER), GLOBAL_CENTER, max_order=2)
    assert isinstance(res, AllVanishedReport)
    assert not res.arc_is_zero
    assert len(res.trail) == 2


def test_trail_records_vanishing_orders():
    res = melnikov(center_direction_arc(GLOBAL_CENTER), GLOBAL_CENTER)
    assert res.order == 3
    assert len(res.trail) == 2
    for u, v, r in res.trail:
        assert u.is_zero() and v.is_zero()
        assert not r.is_zero()


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_order_forms_are_built_on_demand(case, monkeypatch):
    built = []
    order_form = ParamArc.order_form

    def counted(arc, k):
        built.append(k)
        return order_form(arc, k)

    monkeypatch.setattr(ParamArc, "order_form", counted)
    assert melnikov(ParamArc.linear([0, 0, 0, 0, 1, 0]), case).order == 1
    assert built == [1]
    built.clear()
    assert melnikov(center_direction_arc(case), case).order == 3
    assert built == [1, 2, 3]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [-3, 1], [1, 0], [-3, 1], [0, 1], [0, 1]],
        [[F(1, 2), 0, F(-2, 3)], [0], [F(3, 4), F(5, 6)], [], [F(-7, 9), 0, 2], [0, F(1, 10)]],
        [[F(2, 4), F(4, 6)], [F(6, 8)], [0, 0], [F(-9, 3)], [], [F(1, 5), F(3, 15)]],
    ],
)
def test_order_form_equals_the_perturbation_form_of_its_row(rows):
    arc = ParamArc.from_rows(rows)
    for k in range(1, arc.truncation_order + 2):
        assert arc.order_form(k) == perturbation_form(arc.coefficient_row(k))


def test_second_order_arc():
    # lambda_6 = eps^2: first nonzero order is 2 with the lambda_6 row
    arc = ParamArc.from_rows([[0], [0], [0], [0], [0], [0, 1]])
    res = melnikov(arc, GLOBAL_CENTER)
    assert res.order == 2
    assert res.p == ph([F(32, 21), F(4, 3)])


def test_representative_independence_of_reduction_engine():
    arc = center_direction_arc(GLOBAL_CENTER)
    a = melnikov(arc, GLOBAL_CENTER, reducer="rewrite")
    b = melnikov(arc, GLOBAL_CENTER, reducer="ansatz")
    c = melnikov(arc, GLOBAL_CENTER, reducer="ansatz", pivot_order="reversed")
    assert (a.order, a.p, a.q) == (b.order, b.p, b.q) == (c.order, c.p, c.q)


# -- center conditions -------------------------------------------------------

EXPECTED_CONDITIONS = {
    "global-center": [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 3, 0, 0, 0),
        (0, 0, 3, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ],
    "truncated-pendulum": [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 3, 0, 0, 0),
        (0, 0, -3, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ],
    "eight-interior": [
        (1, 0, 0, 0, 0, 0),
        (0, 1, -3, 0, 0, 0),
        (0, 0, 3, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ],
}


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_center_conditions(case):
    forms = center_conditions_order1(case)
    got = [tuple(f.coeffs) for f in forms]
    assert got == [tuple(map(F, row)) for row in EXPECTED_CONDITIONS[case.name]]


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_center_conditions_annihilate_center_arcs(case):
    forms = center_conditions_order1(case)
    lam = [0, -3 * case.a, 1, -3 * case.b, 0, 0]
    assert all(f(lam) == 0 for f in forms)


# -- lemma products ----------------------------------------------------------


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_pure_xy_products_are_relatively_exact(case):
    for cj, ck in ((1, 1), (F(2, 3), F(-5, 7))):
        d = lemma1_product(cj, case, xy_coeff=ck)
        assert d.uv_is_zero()


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_full_product_matches_cross_form(case):
    d_full = lemma1_product(F(2), case, xy_coeff=F(1, 3), quad_coeff=F(5))
    d_cross = reduce_form(lemma_cross_form(F(2), F(5), case), case)
    assert d_full.u == d_cross.u
    assert d_full.v == d_cross.v


# -- structural properties ---------------------------------------------------


def random_arc(rng, case, depth):
    """Arc whose first nonzero order is forced past `depth` center stages."""
    rows = [[] for _ in range(6)]
    for k in range(depth):
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


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_first_nonzero_order_shape(case):
    """deg p <= 1 off the cubic orders, deg p <= 2 on them; deg q <= 2."""
    rng = random.Random(sum(map(ord, case.name)))
    for trial in range(500):
        arc = random_arc(rng, case, rng.randint(0, 2))
        res = melnikov(arc, case)
        if isinstance(res, AllVanishedReport):
            assert not res.arc_is_zero or arc.is_zero()
            continue
        assert res.q.degree() <= 2
        if res.order % 3 == 0:
            assert res.p.degree() <= 2
        else:
            assert res.p.degree() <= 1


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_order1_table_is_cached_and_read_only(case):
    """The order-1 rows are reduced once per case and handed out as tuples."""
    rows = _order1_rows(case)
    hits = _order1_rows.cache_info().hits
    again = _order1_rows(case)
    assert _order1_rows.cache_info().hits == hits + 1
    assert again == rows == _order1_rows.__wrapped__(case)
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)


def test_lambdas_for_first_order_roundtrip():
    p = ph([F(1, 3), F(-2, 7)])
    q = ph([F(5), 0, F(-1, 2)])
    for case in SIGN_CASES:
        lam = lambdas_for_first_order(p, q, case)
        assert lam[2] == 0  # the center direction is the zeroed free column
        res = melnikov(ParamArc.linear(lam), case)
        assert res.order == 1 and res.p == p and res.q == q


def _pinned_arc(rng, case, depth):
    """A criterion-10 style arc: `depth` orders along the centre direction,
    then a tail with small rational coefficients (some non-integer)."""
    rows = [[] for _ in range(6)]
    for _ in range(depth):
        c = F(rng.randint(-4, 4), rng.randint(1, 2))
        tuned = [0, -3 * case.a * c, c, -3 * case.b * c, 0, 0]
        for j in range(6):
            rows[j].append(tuned[j])
    tail = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    if not any(tail):
        tail[rng.randrange(6)] = F(1)
    for j in range(6):
        rows[j].append(tail[j])
    return ParamArc.from_rows(rows)


def _melnikov_text(case, res):
    trail = " ; ".join(f"{u} | {v} | {r}" for u, v, r in res.trail)
    return f"{case.name} {res.order} {res.p} | {res.q} [{trail}]"


# sha256 of the text of 240 results (order, p, q and every trail triple
# (u_k, v_k, r_k)); computed with the Fraction-coefficient polynomials, before
# Poly stored integer numerators over a common denominator.
PINNED_MELNIKOV_SHA256 = "371de7bde5ccc98dda858d65a50917fec74314270790c57b975e4ffaebcb9f20"


def test_melnikov_results_match_the_pinned_digest():
    rng = random.Random(2024)
    lines = []
    for i in range(240):
        case = (GLOBAL_CENTER, TRUNCATED_PENDULUM, EIGHT_INTERIOR, EIGHT_EXTERIOR)[i % 4]
        arc = _pinned_arc(rng, case, (i // 4) % 3)
        lines.append(_melnikov_text(case, melnikov(arc, case, max_order=9)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_MELNIKOV_SHA256
