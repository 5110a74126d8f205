"""One-forms, exterior derivative, and the canonical reduction engines."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from raylien import catalog, forms
from raylien.exactalg import PolyU, PolyXY, hamiltonian_xy
from raylien.forms import (
    CASES,
    EIGHT_EXTERIOR,
    EIGHT_INTERIOR,
    GLOBAL_CENTER,
    SIGN_CASES,
    TRUNCATED_PENDULUM,
    AnnulusCase,
    CanonicalDecomposition,
    DecompositionError,
    OneForm,
    exterior_derivative,
    perturbation_form,
    reduce,
    verify_decomposition,
)


def mono_form(i, j, c=1):
    return OneForm(PolyXY.monomial(i, j, c))


def test_exterior_derivative_xy3():
    d = exterior_derivative(PolyXY.monomial(1, 3))
    assert d.P == PolyXY.monomial(0, 3)
    assert d.Q == PolyXY.monomial(1, 2, 3)


def test_exterior_derivative_eight_loop_hamiltonian():
    d = exterior_derivative(EIGHT_INTERIOR.hamiltonian())
    assert d.P == PolyXY({(1, 0): F(-1), (3, 0): F(1)})
    assert d.Q == PolyXY.monomial(0, 1)


def test_exterior_derivative_constant_is_zero():
    assert exterior_derivative(PolyXY.const(5)).is_zero()


def test_perturbation_form_basis_vectors():
    e3 = perturbation_form([0, 0, 1, 0, 0, 0])
    assert e3.P == PolyXY.monomial(0, 3) and e3.Q.is_zero()
    e6 = perturbation_form([0, 0, 0, 0, 0, 1])
    assert e6.P == PolyXY.monomial(6, 1)
    full = perturbation_form([1] * 6)
    assert len(full.P.coeffs) == 6


def test_annulus_case_registry():
    assert CASES["eight-exterior"].zero_bound == 6
    for name in ("global-center", "truncated-pendulum", "eight-interior"):
        assert CASES[name].zero_bound == 5
    assert (GLOBAL_CENTER.a, GLOBAL_CENTER.b) == (1, 1)
    assert (TRUNCATED_PENDULUM.a, TRUNCATED_PENDULUM.b) == (1, -1)
    assert (EIGHT_INTERIOR.a, EIGHT_INTERIOR.b) == (-1, 1)
    assert EIGHT_INTERIOR.h_lo == -0.25 and EIGHT_INTERIOR.h_hi == 0.0
    assert TRUNCATED_PENDULUM.h_hi == 0.25


@pytest.mark.parametrize("case", CASES.values(), ids=lambda c: c.name)
def test_hamiltonian_is_built_once_per_case(case):
    assert case.hamiltonian() is case.hamiltonian()
    assert case.hamiltonian() == hamiltonian_xy(case.a, case.b)


# -- reduction ---------------------------------------------------------------


def test_reduce_y3_global_center():
    d = reduce(mono_form(0, 3), GLOBAL_CENTER)
    assert d.u == PolyU({0: F(-3, 7)}, "H")
    assert d.v == PolyU({1: F(12, 7)}, "H")


def test_reduce_x4y_global_center():
    d = reduce(mono_form(4, 1), GLOBAL_CENTER)
    assert d.u == PolyU({0: F(-8, 7)}, "H")
    assert d.v == PolyU({1: F(4, 7)}, "H")


def test_reduce_x2y5_eight_loop():
    d = reduce(mono_form(2, 5), EIGHT_INTERIOR)
    assert d.u == PolyU({2: F(80, 39), 1: F(3620, 3003), 0: F(160, 1001)}, "H")
    assert d.v == PolyU({2: F(1600, 3003), 1: F(80, 1001)}, "H")


def test_reduce_x2y2_is_relatively_exact():
    d = reduce(mono_form(2, 2), GLOBAL_CENTER)
    assert d.uv_is_zero()
    assert not d.r.is_zero() or not d.R.is_zero()


def test_reduce_zero_form():
    d = reduce(OneForm.zero(), GLOBAL_CENTER)
    assert d.uv_is_zero() and d.r.is_zero() and d.R.is_zero()


def test_reduce_handles_dy_component():
    # d(x y^3) = y^3 dx + 3 x y^2 dy is exact: (u, v) must vanish
    om = exterior_derivative(PolyXY.monomial(1, 3))
    d = reduce(om, EIGHT_INTERIOR)
    assert d.uv_is_zero()


def test_odd_odd_monomials_are_irreducible():
    for (i, j) in ((1, 1), (3, 1), (1, 3), (3, 3), (5, 1)):
        with pytest.raises(DecompositionError):
            reduce(mono_form(i, j), GLOBAL_CENTER)
    with pytest.raises(DecompositionError):
        reduce(mono_form(1, 1), GLOBAL_CENTER, method="ansatz")


def test_verify_decomposition_rejects_perturbed_u():
    d = reduce(mono_form(0, 3), GLOBAL_CENTER)
    assert verify_decomposition(mono_form(0, 3), d, GLOBAL_CENTER)
    bad = CanonicalDecomposition(d.u + PolyU.const(1, "H"), d.v, d.r, d.R)
    assert not verify_decomposition(mono_form(0, 3), bad, GLOBAL_CENTER)


def _decomposable_monomials(max_x=8, max_y=6):
    out = []
    for a in range(max_x + 1):
        for b in range(max_y + 1):
            if a % 2 == 1 and b % 2 == 1:
                continue  # no canonical decomposition exists for odd/odd
            out.append((a, b))
    return out


def test_reduction_soundness_random_corpus():
    rng = random.Random(20260810)
    pool = _decomposable_monomials()
    for case in SIGN_CASES:
        for a, b in rng.sample(pool, 24):
            om = mono_form(a, b, F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
            d = reduce(om, case)
            assert verify_decomposition(om, d, case), (case.name, a, b)


def test_uv_unique_across_engines_and_pivot_orders(monkeypatch):
    corpus = [mono_form(0, 3), mono_form(4, 1), mono_form(2, 3), mono_form(1, 4)]
    jobs = [(om, case) for case in SIGN_CASES for om in corpus]
    grlex = [reduce(om, case, method="ansatz") for om, case in jobs]
    solve = forms.solve_linear_exact
    monkeypatch.setattr(
        forms, "solve_linear_exact",
        lambda rows, rhs, column_order: solve(rows, rhs, column_order[::-1]),
    )
    reversed_ = [reduce(om, case, method="ansatz") for om, case in jobs]
    assert grlex != reversed_
    for (om, case), d1, d2 in zip(jobs, grlex, reversed_):
        d0 = reduce(om, case, method="rewrite")
        assert d0.u == d1.u == d2.u
        assert d0.v == d1.v == d2.v
        for d in (d1, d2):
            assert verify_decomposition(om, d, case)


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "om", [mono_form(1, 6), OneForm(None, PolyXY.monomial(2, 5))], ids=["xy6dx", "x2y5dy"]
)
def test_ansatz_reaches_the_weighted_degree_cap(om, case):
    # both weigh 14 and need R of total degree 14, the most that weight allows
    d = reduce(om, case, method="ansatz")
    d0 = reduce(om, case)
    assert (d.u, d.v) == (d0.u, d0.v)
    assert d.R.degree() == 14


def test_ansatz_raises_on_odd_odd_at_the_cap():
    # the message names the weight of x y^7 dx, the bound of the one solve
    with pytest.raises(DecompositionError, match=r"at weight 16\b"):
        reduce(mono_form(1, 7), GLOBAL_CENTER, method="ansatz")


def _dense_form(rng, degree):
    """Every odd-total-degree monomial up to `degree` in dx and dy."""
    P, Q = {}, {}
    for t in range(1, degree + 1, 2):
        for a in range(t + 1):
            P[(a, t - a)] = F(rng.randint(-9, 9), rng.randint(1, 9))
            Q[(a, t - a)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return OneForm(PolyXY(P), PolyXY(Q))


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("degree", [3, 7])
def test_ansatz_solves_once_within_the_weight_bounds(case, degree, monkeypatch):
    om = _dense_form(random.Random(degree), degree)
    w = max([a + 2 * b + 1 for a, b in om.P.num] + [a + 2 * b + 2 for a, b in om.Q.num])
    n_uv = (w - 3) // 4 + 1
    n_r = sum(1 for i in range(w) for j in range(w) if i + 2 * j <= w - 4)
    n_R = sum(1 for i in range(w + 1) for j in range(w + 1) if i + 2 * j <= w) - 1
    widths = []
    solve = forms.solve_linear_exact

    def counted(rows, rhs, column_order):
        widths.append(len(column_order))
        return solve(rows, rhs, column_order)

    monkeypatch.setattr(forms, "solve_linear_exact", counted)
    d = reduce(om, case, method="ansatz")
    assert widths == [2 * n_uv + n_r + n_R]
    assert max(d.u.degree(), d.v.degree()) < n_uv
    assert all(i + 2 * j <= w - 4 for i, j in d.r.num)
    assert all(i + 2 * j <= w for i, j in d.R.num)


def _ansatz_corpus():
    """The 23 catalog forms; x^a y^b dx and x^a y^b dy for a <= 9, b <= 7,
    each on one sign case in turn; dense forms of degree 3, 5, 7 per case."""
    jobs = [(e.form, e.case) for e in catalog.all_entries()]
    monos = [(a, b, dy) for a in range(10) for b in range(8) for dy in (False, True)]
    for n, (a, b, dy) in enumerate(monos):
        mono = PolyXY.monomial(a, b)
        jobs.append((OneForm(None, mono) if dy else OneForm(mono), SIGN_CASES[n % 3]))
    rng = random.Random(20261020)
    jobs += [(_dense_form(rng, degree), case) for case in CASES.values() for degree in (3, 5, 7)]
    return jobs


def _ansatz_text(om, case):
    try:
        d = reduce(om, case, method="ansatz")
    except DecompositionError:
        return f"{case.name} {om}: none"
    return f"{case.name} {om}: {d.u} | {d.v} | {d.r} | {d.R}"


# sha256 of the text of the ansatz's (u, v, r, R) over _ansatz_corpus(), or
# "none" where no decomposition exists; computed with the ansatz that tried
# total-degree bounds before its weighted-degree cap.
PINNED_ANSATZ_SHA256 = "5ce2e39cded5ce459f7cd4fc639439616b2ca4af2d45e901c226c6c327cda4cf"


def test_ansatz_results_match_the_pinned_digest():
    text = "\n".join(_ansatz_text(om, case) for om, case in _ansatz_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ANSATZ_SHA256


def test_reduce_is_linear_in_omega():
    a, b = F(3, 5), F(-7, 2)
    om1, om2 = mono_form(0, 3), mono_form(6, 1)
    for case in SIGN_CASES:
        d1, d2 = reduce(om1, case), reduce(om2, case)
        d = reduce(om1.scale(a) + om2.scale(b), case)
        assert d.u == d1.u.scale(a) + d2.u.scale(b)
        assert d.v == d1.v.scale(a) + d2.v.scale(b)


def test_eight_interior_and_exterior_share_reduction():
    om = mono_form(2, 5)
    di = reduce(om, EIGHT_INTERIOR)
    de = reduce(om, EIGHT_EXTERIOR)
    assert di.u == de.u and di.v == de.v


# -- exactness and verification on integer numerators ------------------------


def test_dH_is_built_once_per_case(monkeypatch):
    om = mono_form(3, 2) + OneForm(PolyXY.monomial(0, 5, F(2, 3)), PolyXY.monomial(2, 1, F(-1, 5)))
    warm = {case: (reduce(om, case), reduce(om, case, method="ansatz")) for case in SIGN_CASES}

    def refuse(f):
        raise AssertionError("exterior_derivative called during a reduction")

    monkeypatch.setattr(forms, "exterior_derivative", refuse)
    for case in SIGN_CASES:
        assert case.dH == exterior_derivative(case.H)
        assert (reduce(om, case), reduce(om, case, method="ansatz")) == warm[case]


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("part, mono", [("u", 1), ("v", 1), ("r", (1, 1)), ("R", (1, 1)), ("R", (0, 2))])
def test_verify_decomposition_rejects_one_perturbed_monomial(case, part, mono, monkeypatch):
    """One extra term c H^e in u or v, or c x^i y^j in r or R (y^2 changes only dy)."""
    om = OneForm(PolyXY({(0, 3): F(2, 3), (4, 1): F(-5, 2), (2, 3): 1}), PolyXY.monomial(1, 2, 3))
    d = reduce(om, case)
    assert verify_decomposition(om, d, case)
    bump = PolyU({mono: F(1, 7)}, "H") if part in "uv" else PolyXY.monomial(*mono, F(1, 7))
    fields = {name: getattr(d, name) for name in ("u", "v", "r", "R")}
    fields[part] = fields[part] + bump
    bad = CanonicalDecomposition(**fields)
    assert not verify_decomposition(om, bad, case)
    monkeypatch.setattr(forms, "_reduce_rewrite", lambda omega, c: bad)
    with pytest.raises(AssertionError, match="exact verification"):
        reduce(om, case)


# a sign case with non-integer (a, b): every rule's divisor then carries
# the denominators of a and b, so the rewrite engine rescales its numerators
RATIONAL_CASE = AnnulusCase("t", F(3, 2), F(-2, 5), 0.0, 0.1, 5, 2.0, (0.0, 1.0))


@pytest.mark.parametrize("degree", [3, 5, 7])
def test_non_integer_case_reduces_with_both_engines(degree):
    om = _dense_form(random.Random(7000 + degree), degree)
    d_rw = reduce(om, RATIONAL_CASE)
    d_an = reduce(om, RATIONAL_CASE, method="ansatz")
    assert (d_rw.u, d_rw.v) == (d_an.u, d_an.v)
    assert not d_rw.uv_is_zero()
