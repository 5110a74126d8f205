"""Exact algebra layer: polynomials, solver, determinism."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raylien.exactalg import (
    MultiPoly,
    PolyU,
    PolyXY,
    VariableMismatchError,
    hamiltonian_xy,
    rat,
    rat_str,
    solve_linear_exact,
    substitute_h,
)


def test_rat_parsing_and_serialization():
    assert rat("12/7") == F(12, 7)
    assert rat(-3) == F(-3)
    assert rat_str(F(12, 7)) == "12/7"
    assert rat_str(F(-4, 2)) == "-2"


def test_polyu_basic_arithmetic():
    p = PolyU.from_coeff_list([1, 2], "h")  # 1 + 2h
    q = PolyU.from_coeff_list([0, 0, 3], "h")  # 3h^2
    assert (p + q).coeff_list() == [F(1), F(2), F(3)]
    assert (p * q).degree() == 3
    assert (p - p).is_zero()
    assert p.diff("h") == PolyU.const(2, "h")
    assert p(F(1, 2)) == F(2)


def test_polyu_variable_mismatch():
    p = PolyU.variable("h")
    q = PolyU.variable("eps")
    with pytest.raises(VariableMismatchError):
        _ = p + q


def test_polyu_no_stored_zeros():
    p = PolyU({0: F(3, 7), 2: F(0)}, "h")
    assert (2,) not in p.coeffs
    q = PolyU({0: F(-3, 7)}, "h")
    assert (p + q).coeffs == {}
    assert (p + q).degree() == -1


def test_str_output_is_pinned():
    assert str(PolyU({2: 3, 0: F(-1, 2), 1: -1}, "H")) == "3*H^2 - H - 1/2"
    assert str(PolyU({2: 3}, "h")) == "3*h^2"
    assert str(PolyU.zero("eps")) == "0"
    p = PolyXY({(2, 1): 1, (0, 3): F(-3, 7), (1, 0): -1, (0, 0): F(5, 2), (3, 0): F(4, 9)})
    assert str(p) == "4/9*x^3 + x^2y - 3/7*y^3 - x + 5/2"
    m = MultiPoly(
        6,
        {
            (1, 0, 0, 0, 0, 0): F(-1, 2),
            (0, 0, 3, 0, 0, 0): 1,
            (0, 1, 0, 0, 2, 0): F(3, 4),
            (0, 0, 0, 0, 0, 1): -1,
            (0, 0, 0, 0, 0, 0): 7,
        },
    )
    assert str(m) == "3/4*l2*l5^2 + l3^3 - 1/2*l1 - l6 + 7"


def test_polyxy_monomial_product_and_diff():
    xy = PolyXY.monomial(1, 3)  # x y^3
    assert xy.diff("x") == PolyXY.monomial(0, 3)
    assert xy.diff("y") == PolyXY.monomial(1, 2, 3)
    sq = xy * xy
    assert sq == PolyXY.monomial(2, 6)


def test_compose_h_squares_hamiltonian():
    H = hamiltonian_xy(-1, 1)  # eight loop
    h2 = substitute_h({(2, 0, 0): F(1)}, H)
    assert h2 == H * H
    mixed = substitute_h({(2, 0, 0): F(1), (0, 1, 1): F(3, 7), (1, 2, 0): F(-2)}, H)
    assert mixed == H * H + PolyXY.monomial(1, 1, F(3, 7)) - H * PolyXY.monomial(2, 0, 2)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


def _polyxy(draw_terms):
    return PolyXY({k: c for k, c in draw_terms})


poly_terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), small_rationals),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(poly_terms, poly_terms, poly_terms)
def test_polyxy_ring_axioms(t1, t2, t3):
    a, b, c = _polyxy(t1), _polyxy(t2), _polyxy(t3)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_rationals, min_size=3, max_size=3), min_size=2, max_size=4),
    st.lists(small_rationals, min_size=3, max_size=3),
)
def test_solver_residual_is_exactly_zero(rows, x_true):
    rhs = [sum(r * x for r, x in zip(row, x_true)) for row in rows]
    sol = solve_linear_exact(rows, rhs)
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(r * s for r, s in zip(row, sol)) == b


def test_solver_identity():
    sol = solve_linear_exact([[1, 0], [0, 1]], [F(12, 7), F(-3, 7)])
    assert sol == [F(12, 7), F(-3, 7)]


def test_solver_underdetermined_leftmost_pivot():
    assert solve_linear_exact([[1, 1]], [1]) == [F(1), F(0)]


def test_solver_overdetermined_contradiction():
    assert solve_linear_exact([[1], [2]], [1, 3]) is None


def test_solver_column_order_changes_free_variable():
    # reversed order pivots on the second column instead
    assert solve_linear_exact([[1, 1]], [1], column_order=[1, 0]) == [F(0), F(1)]


def test_multipoly_compose_series():
    l3 = MultiPoly.variable(6, 2)
    cube = l3 ** 3
    series = [PolyU.zero("eps")] * 2 + [PolyU({1: F(2)}, "eps")] + [PolyU.zero("eps")] * 3
    composed = cube.compose_series(series)
    assert composed == PolyU({3: F(8)}, "eps")


def test_multipoly_truncate_and_min_degree():
    l1 = MultiPoly.variable(2, 0)
    p = l1 + (l1 ** 4)
    assert p.truncate(2) == l1
    assert p.valuation() == 1
