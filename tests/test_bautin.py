"""Bautin generators, order prediction, Nakayama certification, rescaling."""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from raylien.bautin import (
    MembershipError,
    SaddleOnlyError,
    bautin_generators,
    leading_generator_values,
    nakayama_certify,
    predict_order,
    rescale_lambdas,
)
from raylien import bautin
from raylien.exactalg import MultiPoly, Poly, PolyU
from raylien.forms import CASES, SIGN_CASES, GLOBAL_CENTER
from raylien.melnikov import AllVanishedReport, MelnikovResult, ParamArc, melnikov


def lam(i):
    return MultiPoly.variable(6, i - 1)


def test_generator_fixtures():
    for a, b in ((1, 1), (-1, 1), (1, -1)):
        gens = bautin_generators(a, b).generators
        assert gens == (
            lam(1),
            lam(2) + lam(3).scale(3 * a),
            lam(3) ** 3,
            lam(4) + lam(3).scale(3 * b),
            lam(5),
            lam(6),
        )


def test_generator_shape():
    gens = bautin_generators(F(2), F(3)).generators
    assert len(gens) == 6
    assert sum(1 for g in gens if g.degree() == 1) == 5
    assert [g.degree() for g in gens].count(3) == 1


def test_saddle_only_rejected():
    with pytest.raises(SaddleOnlyError):
        bautin_generators(-1, -1)
    with pytest.raises(ValueError):
        bautin_generators(0, 1)


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_zero_locus_is_origin(case):
    """All six generators vanish only at lambda = 0."""
    gens = bautin_generators(case.a, case.b).generators
    rng = random.Random(11)
    for _ in range(200):
        lam = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        if all(g(lam) == 0 for g in gens):
            assert all(v == 0 for v in lam)
    # and conversely the constraints force everything to zero symbolically:
    # l1 = l5 = l6 = 0, l2 = -+3 l3, l4 = -+3 l3, l3^3 = 0 -> l3 = 0
    lam = [0, -3 * case.a, 1, -3 * case.b, 0, 0]  # kills the linear ones
    vals = [g(lam) for g in gens]
    assert vals[2] != 0  # but the cubic generator survives


def test_predict_order_examples():
    assert predict_order(ParamArc.linear([0, 0, 0, 0, 0, 1]), GLOBAL_CENTER) == 1
    arc = ParamArc.linear([0, -3, 1, -3, 0, 0])
    assert predict_order(arc, GLOBAL_CENTER) == 3
    arc2 = ParamArc.from_rows([[0, 1], [0], [0], [0], [0], [0]])
    assert predict_order(arc2, GLOBAL_CENTER) == 2
    with pytest.raises(ValueError):
        predict_order(ParamArc.linear([0] * 6), GLOBAL_CENTER)


def random_arc(rng, case, depth):
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


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_predicted_order_matches_recursion(case_name):
    """predict_order equals the recursion's first nonzero order (50/case here;
    the acceptance suite runs the full 200)."""
    case = CASES[case_name]
    rng = random.Random(1000 + len(case_name))
    for _ in range(50):
        arc = random_arc(rng, case, rng.randint(0, 2))
        if arc.is_zero():
            continue
        pred = predict_order(arc, case)
        res = melnikov(arc, case, max_order=9)
        assert isinstance(res, MelnikovResult)
        assert res.order >= pred
        if any(v != 0 for v in leading_generator_values(arc, case)):
            assert res.order == pred


def composed_reference(arc, case):
    """(order, eps^order coefficients) by composing each generator with the arc."""
    composed = [g.compose_series(list(arc.series)) for g in bautin_generators(case.a, case.b)]
    n = min(c.valuation() for c in composed if not c.is_zero())
    return n, [c[n] for c in composed]


def gapped_arc(rng, case, orders):
    """Tuned, random or zero coefficient rows at orders 1..orders, last one nonzero."""
    cols = []
    for k in range(orders):
        kind = rng.choice(["zero", "tuned", "random"]) if k < orders - 1 else "random"
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        if kind == "zero":
            cols.append([0] * 6)
        elif kind == "tuned":
            cols.append([0, -3 * case.a * c, c, -3 * case.b * c, 0, 0])
        else:
            cols.append([F(rng.randint(-3, 3), rng.randint(1, 2)) * rng.randint(0, 1)
                         for _ in range(6)])
    if not any(cols[-1]):
        cols[-1][rng.randrange(6)] = F(1)
    return ParamArc.from_rows([[col[j] for col in cols] for j in range(6)])


def equivalence_arcs(case, seed):
    rng = random.Random(seed)
    arcs = [random_arc(rng, case, depth) for depth in range(5) for _ in range(8)]
    arcs += [gapped_arc(rng, case, rng.randint(2, 6)) for _ in range(40)]
    # the order set by mu3^3: a tuned arc, alone or with a tail above order 3
    for c in (1, -2, F(1, 3)):
        tuned = [0, -3 * case.a * c, c, -3 * case.b * c, 0, 0]
        arcs.append(ParamArc.linear(tuned))
        arcs.append(ParamArc.from_rows([[t, 0, 0, 0, int(j == 4)] for j, t in enumerate(tuned)]))
    # built directly: degrees below the truncation order, a gap in one series
    arcs.append(ParamArc((
        PolyU({2: F(1, 2)}, "eps"), PolyU({1: -3 * case.a, 3: 5}, "eps"), PolyU({1: 1}, "eps"),
        PolyU({1: -3 * case.b}, "eps"), PolyU({}, "eps"), PolyU({4: F(-7, 3)}, "eps"),
    ), 7))
    return [arc for arc in arcs if not arc.is_zero()]


@pytest.mark.parametrize("case_name", sorted(CASES), ids=str)
def test_valuations_equal_the_composed_generators(case_name):
    case = CASES[case_name]
    arcs = equivalence_arcs(case, 2000 + len(case_name))
    orders = set()
    for arc in arcs:
        n, values = composed_reference(arc, case)
        assert predict_order(arc, case) == n
        assert leading_generator_values(arc, case) == values
        orders.add(n)
    assert orders >= {1, 2, 3, 4}
    # some orders are set by mu3^3 alone
    assert any(values == [0, 0, values[2], 0, 0, 0] != [0] * 6
               for values in (leading_generator_values(arc, case) for arc in arcs))


def test_orders_do_not_compose_series(monkeypatch):
    for case in CASES.values():
        predict_order(ParamArc.linear([1, 0, 0, 0, 0, 0]), case)  # mu per case, once

    def refuse(*args):
        raise AssertionError("compose_series called on the arc path")

    monkeypatch.setattr(Poly, "compose_series", refuse)
    rng = random.Random(7)
    for case in CASES.values():
        arc = random_arc(rng, case, 2)
        predict_order(arc, case)
        leading_generator_values(arc, case)


def test_orders_need_monomials_in_mu(monkeypatch):
    l1, l2 = lam(1), lam(2)
    gens = [l1, l1 * l2 + l2**2, lam(3), lam(4), lam(5), lam(6)]
    monkeypatch.setattr(bautin, "bautin_generators", lambda a, b: gens)
    case = dataclasses.replace(GLOBAL_CENTER, a=F(7), b=F(5))  # not yet cached
    with pytest.raises(ValueError, match="not a monomial"):
        predict_order(ParamArc.linear([0, 1, 0, 0, 0, 0]), case)


# -- Nakayama ----------------------------------------------------------------


def worked_example():
    l1 = MultiPoly.variable(2, 0)
    l2 = MultiPoly.variable(2, 1)
    b1 = l1**2 + l1**2 * l2**2 + l1 * l2**3 + l2**4
    b2 = l2**3 + l1**4 + l1**3 * l2
    return [b1, b2], [l1**2, l2**3]


def test_nakayama_worked_example_cap12():
    b, b0 = worked_example()
    cert = nakayama_certify(b, b0, 12)
    assert cert.truncation_degree == 12
    rebuilt = cert.reconstruct(b)
    for r, g in zip(rebuilt, b0):
        assert (r - g.truncate(12)).is_zero()


def test_nakayama_identity_has_zero_matrix():
    _, b0 = worked_example()
    cert = nakayama_certify(b0, b0, 6)
    assert all(e.is_zero() for row in cert.entries for e in row)


def test_nakayama_membership_failure_reports_monomial():
    b, b0 = worked_example()
    l2 = MultiPoly.variable(2, 1)
    with pytest.raises(MembershipError) as exc:
        nakayama_certify([b0[0] + l2, b[1]], b0, 8)
    assert exc.value.monomial == (0, 1)


def test_nakayama_unit_quotient_failure():
    # tail equal to a generator itself sits in (b0) but not in m*(b0)
    _, b0 = worked_example()
    with pytest.raises(MembershipError):
        nakayama_certify([b0[0].scale(2), b0[1]], b0, 8)


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
def test_nakayama_certifies_tails_of_the_bautin_generators(case):
    # l4^3 = -27 b^3 l3^3 modulo l4 + 3b l3: a valid tail of l1, which a
    # grlex division by the generators themselves reports as outside (b0)
    b0 = list(bautin_generators(case.a, case.b))
    b = list(b0)
    b[0] = b[0] + lam(4) ** 3
    b[3] = b[3] + lam(1) * lam(4) + lam(2) * lam(3) ** 2
    cert = nakayama_certify(b, b0, 6)
    for r, g in zip(cert.reconstruct(b), b0):
        assert (r - g.truncate(6)).is_zero()
    assert cert.entries[0][2][(0,) * 6] == 27 * case.b**3


def test_nakayama_needs_monomials_in_the_linear_coordinates():
    l1, l2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    with pytest.raises(ValueError, match="not a monomial"):
        nakayama_certify([l1, l2**2], [l1, l1 * l2 + l2**2], 4)
    with pytest.raises(ValueError, match="depends on"):
        nakayama_certify([l1, l1], [l1, l1.scale(2)], 4)


def test_nakayama_rejects_a_negative_cap():
    b, b0 = worked_example()
    with pytest.raises(ValueError, match="degree_cap must be >= 0, got -2"):
        nakayama_certify(b, b0, -2)
    assert nakayama_certify(b0, b0, 0).truncation_degree == 0


# -- rescaling ---------------------------------------------------------------


def test_rescale_identity_case():
    scaled, f2 = rescale_lambdas(1, 1, [1, 2, 3, 4, 5, 6])
    assert scaled == [F(1), F(2), F(3), F(4), F(5), F(6)]
    assert f2 == 1


def test_rescale_a4_b1():
    scaled, f2 = rescale_lambdas(4, 1, [0, 0, 0, 0, 0, 1])
    assert scaled[5] == 64
    assert f2 == F(1, 4)


def test_rescale_even_power_of_negative_b():
    scaled, _ = rescale_lambdas(1, -1, [0, 1, 0, 0, 0, 0])
    assert scaled[1] == 1


def test_rescale_rejects_degenerate():
    with pytest.raises(ValueError):
        rescale_lambdas(0, 1, [0] * 6)


def test_rescale_matches_generator_transport():
    """Rescaled parameters satisfy the normalized-case center conditions
    exactly when the original parameters satisfy the (a, b) ones."""
    a, b = F(4), F(-9)
    gens_ab = bautin_generators(a, b).generators
    rng = random.Random(5)
    for _ in range(50):
        lam = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(6)]
        scaled, _ = rescale_lambdas(a, b, lam)
        gens_norm = bautin_generators(1, -1).generators  # sign case of (4, -9)
        zero_ab = all(g(lam) == 0 for g in gens_ab)
        zero_norm = all(g(scaled) == 0 for g in gens_norm)
        assert zero_ab == zero_norm
