"""Exact algebra layer: polynomials, solver, determinism."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raylien import forms
from raylien.exactalg import (
    MultiPoly,
    PolyU,
    PolyXY,
    VariableMismatchError,
    hamiltonian_xy,
    rat,
    rat_str,
    row_reduce,
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


def _dense_row_reduce(rows, rhs, column_order=None):
    """The dense Gauss-Jordan loop that the sparse elimination replaced."""
    m = len(rows)
    a = [[rat(c) for c in row] for row in rows]
    b = [rat(c) for c in rhs]
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    order = list(column_order) if column_order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("column_order must be a permutation")

    pivots = []
    row_at = 0
    for col in order:
        if row_at == m:
            break
        piv = None
        for r in range(row_at, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[row_at], a[piv] = a[piv], a[row_at]
        b[row_at], b[piv] = b[piv], b[row_at]
        inv = 1 / a[row_at][col]
        a[row_at] = [c * inv for c in a[row_at]]
        b[row_at] *= inv
        for r in range(m):
            if r != row_at and a[r][col] != 0:
                f = a[r][col]
                a[r] = [c - f * p for c, p in zip(a[r], a[row_at])]
                b[r] -= f * b[row_at]
        pivots.append((row_at, col))
        row_at += 1
    return a, b, pivots


def _solution(reduced):
    """solve_linear_exact's answer read off a reduced system."""
    a, b, pivots = reduced
    if any(b[r] != 0 for r in range(len(pivots), len(b))):
        return None
    x = [F(0)] * (len(a[0]) if a else 0)
    for r, col in pivots:
        x[col] = b[r]
    return x


def _sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


@st.composite
def linear_systems(draw):
    """Mostly-zero systems with zero rows, multiples of earlier rows (rank
    deficient, often inconsistent), wide and tall shapes, and a random
    column order."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), small_rationals)
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(("random", "zero", "multiple") if i else ("random", "zero")))
        if kind == "random":
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == "zero":
            rows.append([F(0)] * n)
        else:
            c, j = draw(small_rationals), draw(st.integers(0, i - 1))
            rows.append([c * x for x in rows[j]])
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_sparse_elimination_matches_the_dense_reference(system):
    rows, rhs, order = system
    expected = _dense_row_reduce(rows, rhs, order)
    assert row_reduce(rows, rhs, order) == expected
    assert row_reduce(_sparse(rows), rhs, order) == expected
    assert solve_linear_exact(rows, rhs, order) == _solution(expected)
    assert solve_linear_exact(_sparse(rows), rhs, order) == _solution(expected)


def test_sparse_rows_take_their_width_from_the_column_order():
    assert solve_linear_exact([{1: 2}], [4]) == [F(0), F(2)]
    assert solve_linear_exact([{1: 2}], [4], column_order=[2, 1, 0]) == [F(0), F(2), F(0)]
    with pytest.raises(ValueError):
        solve_linear_exact([{3: 1}], [1], column_order=[0, 1])
    with pytest.raises(ValueError):
        solve_linear_exact([{0: 1}, [1, 0]], [1, 1])


def _dense_form(rng, degree):
    """Every odd-total-degree monomial up to `degree` in dx and dy."""
    P, Q = {}, {}
    for t in range(1, degree + 1, 2):
        for a in range(t + 1):
            P[(a, t - a)] = F(rng.randint(-9, 9), rng.randint(1, 9))
            Q[(a, t - a)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return forms.OneForm(PolyXY(P), PolyXY(Q))


def test_ansatz_systems_match_the_dense_reference(monkeypatch):
    """Each ansatz system's RREF is the dense one, and so is every (u, v, r, R)."""
    rng = random.Random(20261019)
    cases = [forms.GLOBAL_CENTER, forms.TRUNCATED_PENDULUM, forms.EIGHT_INTERIOR]
    jobs = [(_dense_form(rng, degree), case) for degree, case in zip((3, 5, 7), cases)]
    sparse = [forms.reduce(om, case, "ansatz") for om, case in jobs]

    systems = []

    def dense_path(rows, rhs, column_order):
        dense = [[row.get(c, F(0)) for c in range(len(column_order))] for row in rows]
        expected = _dense_row_reduce(dense, rhs, column_order)
        assert row_reduce(rows, rhs, column_order) == expected
        systems.append(len(rows))
        return _solution(expected)

    monkeypatch.setattr(forms, "solve_linear_exact", dense_path)
    for (om, case), d in zip(jobs, sparse):
        assert forms.reduce(om, case, "ansatz") == d
    assert len(systems) == 3


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


# -- integer numerators against a {exponent: Fraction} reference -------------


def _ref_clean(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, F(0)) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for e1, a in p.items():
        for e2, b in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, F(0)) + a * b
    return _ref_clean(out)


def _ref_pow(p, n, nvars=2):
    out = {(0,) * nvars: F(1)}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_diff(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


def _ref_integrate(p, i):
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c / (e[i] + 1) for e, c in p.items()}


def _assert_normal(p):
    """den > 0, gcd(den, numerators) = 1, no stored zero, and coeffs agree."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c != 0 for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.coeffs == {e: F(c, p.den) for e, c in p.num.items()}


ref_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_rationals, max_size=5
)


@settings(max_examples=80, deadline=None)
@given(ref_terms, ref_terms, small_rationals, st.integers(0, 3), st.integers(0, 6))
def test_integer_arithmetic_matches_the_fraction_reference(t1, t2, c, n, cap):
    a, b = PolyXY(t1), PolyXY(t2)
    ra, rb = _ref_clean(t1), _ref_clean(t2)
    results = {
        "a": (a, ra),
        "+": (a + b, _ref_add(ra, rb)),
        "-": (a - b, _ref_add(ra, {e: -v for e, v in rb.items()})),
        "neg": (-a, {e: -v for e, v in ra.items()}),
        "*": (a * b, _ref_mul(ra, rb)),
        "scale": (a.scale(c), _ref_clean({e: v * c for e, v in ra.items()})),
        "scale int": (a.scale(n - 1), _ref_clean({e: v * (n - 1) for e, v in ra.items()})),
        "**": (a**n, _ref_pow(ra, n)),
        "diff x": (a.diff("x"), _ref_diff(ra, 0)),
        "diff y": (a.diff("y"), _ref_diff(ra, 1)),
        "integrate x": (a.integrate("x"), _ref_integrate(ra, 0)),
        "integrate y": (a.integrate("y"), _ref_integrate(ra, 1)),
        "truncate": (a.truncate(cap), {e: v for e, v in ra.items() if sum(e) <= cap}),
    }
    for name, (p, ref) in results.items():
        _assert_normal(p)
        assert p.coeffs == ref, name
        assert all(p[e] == ref.get(e, 0) for e in [(0, 0), (1, 2), (3, 3)] + list(ref)), name
    # structural equality and hashing: one value reached by two routes
    for p, q in [((a + b) - b, a), (a * b, b * a), (a.scale(c).scale(2), a.scale(2 * c))]:
        assert p == q and hash(p) == hash(q)
        assert (p.num, p.den) == (q.num, q.den)


@settings(max_examples=40, deadline=None)
@given(ref_terms, ref_terms, ref_terms)
def test_compose_series_matches_the_fraction_reference(t, s1, s2):
    p = PolyXY({e: v for e, v in t.items() if sum(e) <= 3})
    series = [PolyXY(s1).truncate(2), PolyXY(s2).truncate(2)]
    ref = {}
    for (i, j), c in p.coeffs.items():
        term = _ref_mul(_ref_pow(series[0].coeffs, i), _ref_pow(series[1].coeffs, j))
        ref = _ref_add(ref, {e: v * c for e, v in term.items()})
    got = p.compose_series(series)
    _assert_normal(got)
    assert got.coeffs == ref


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        small_rationals,
        max_size=5,
    ),
    small_rationals,
    small_rationals.filter(bool),
    st.integers(1, 12),
)
def test_substitute_h_matches_the_fraction_reference(terms, a, b, den):
    H = hamiltonian_xy(a, b)
    ref = {}
    for (e, i, j), c in terms.items():
        term = _ref_mul(_ref_pow(H.coeffs, e), {(i, j): c / den})
        ref = _ref_add(ref, term)
    got = substitute_h(terms, H, den)
    _assert_normal(got)
    assert got.coeffs == ref
    ints = {k: c.numerator for k, c in terms.items()}
    assert substitute_h(ints, H, den) == substitute_h({k: F(c) for k, c in ints.items()}, H, den)


def test_zero_and_constructed_polynomials_are_normal():
    for p in [PolyXY.zero(), PolyXY({(1, 0): F(2, 4), (0, 1): F(3, 6)}), PolyU({0: 0}, "h"),
              PolyXY.monomial(1, 1, F(-6, 4)) - PolyXY.monomial(1, 1, F(-3, 2))]:
        _assert_normal(p)
    assert PolyXY.zero().den == 1
    assert PolyXY({(1, 0): F(1, 2), (0, 1): F(1, 3)}).den == 6
    assert PolyXY({(1, 0): F(1, 2), (0, 1): F(1, 3)}).num == {(1, 0): 3, (0, 1): 2}
