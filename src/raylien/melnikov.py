"""Higher-order Melnikov functions along truncated analytic arcs.

An arc assigns to each perturbation coefficient a polynomial in the small
parameter eps with zero constant term.  Writing the perturbing one-form as
omega(eps) = eps omega_1 + eps^2 omega_2 + ..., the displacement function
along a cross-section expands as d(h, eps) = sum_n M_n(h) eps^n, and the
first nonvanishing M_n is computed by the iterative scheme

    Omega_1 = omega_1,
    Omega_{k+1} = omega_{k+1} + sum_{i+j=k+1} r_j omega_i,

valid while every previous Omega_j is relatively exact (r_j is its dH
coefficient).  Each Omega_k is reduced canonically; the first order with
(u_k, v_k) != (0, 0) yields M_n(h) = u_n(h) I2(h) + v_n(h) I0(h).  The
vanishing test is exact (zero polynomials) -- no numerics anywhere here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactalg import XY, Poly, PolyU, PolyXY, RationalLike, rat, row_reduce, solve_linear_exact
from .forms import (
    PERTURBATION_MONOMIALS,
    AnnulusCase,
    CanonicalDecomposition,
    OneForm,
    exterior_derivative,
    reduce as reduce_form,
)


@dataclass(frozen=True)
class ParamArc:
    """Six truncated power series lambda_j(eps), each with lambda_j(0) = 0."""

    series: tuple[Poly, ...]
    truncation_order: int

    def __post_init__(self):
        if len(self.series) != 6:
            raise ValueError("an arc needs exactly 6 series")
        for s in self.series:
            if s.vars != ("eps",):
                raise ValueError("arc series must be polynomials in 'eps'")
            if s[0] != 0:
                raise ValueError("arcs must pass through the unperturbed system")
        if self.truncation_order < 1:
            raise ValueError("truncation order must be >= 1")

    @classmethod
    def from_rows(cls, rows: list[list[RationalLike]]) -> ParamArc:
        """rows[j] = [c_{j1}, c_{j2}, ...] meaning lambda_j = sum_k c_{jk} eps^k."""
        if len(rows) != 6:
            raise ValueError("expected 6 coefficient rows")
        order = max((len(r) for r in rows), default=1)
        series = tuple(
            PolyU({k + 1: rat(c) for k, c in enumerate(row)}, "eps") for row in rows
        )
        return cls(series, max(order, 1))

    @classmethod
    def linear(cls, coeffs: list[RationalLike]) -> ParamArc:
        """The arc lambda_j = coeffs[j] * eps."""
        return cls.from_rows([[c] for c in coeffs])

    def coefficient_row(self, k: int) -> list[Fraction]:
        """[lambda_{1k}, ..., lambda_{6k}]: the order-k coefficients."""
        return [s[k] for s in self.series]

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.series)

    def order_form(self, k: int) -> OneForm:
        """omega_k = perturbation_form(coefficient_row(k)), built from the
        series' numerators over the lcm of their denominators."""
        row = [(s.num.get((k,)), s.den) for s in self.series]
        den = lcm(*(d for n, d in row if n))
        num = {m: n * (den // d) for m, (n, d) in zip(PERTURBATION_MONOMIALS, row) if n}
        return OneForm(Poly.from_numerators(num, den, XY))


@dataclass(frozen=True)
class MelnikovResult:
    """First nonvanishing order n with M_n = p(h) I2(h) + q(h) I0(h)."""

    order: int
    p: Poly
    q: Poly
    trail: tuple[tuple[Poly, Poly, Poly], ...]  # (u_k, v_k, r_k) for k < order

    def __post_init__(self):
        if self.p.is_zero() and self.q.is_zero():
            raise ValueError("MelnikovResult requires (p, q) != (0, 0)")
        # structural bound on every first nonvanishing order (deg p <= 1
        # off the cubic orders); a violation would mean a reduction bug
        if self.p.degree() > (2 if self.order % 3 == 0 else 1) or self.q.degree() > 2:
            raise ValueError(
                f"degree bound violated at order {self.order}: p={self.p}, q={self.q}"
            )


@dataclass(frozen=True)
class AllVanishedReport:
    """Every order up to max_order reduced to a relatively exact form."""

    max_order: int
    arc_is_zero: bool
    trail: tuple[tuple[Poly, Poly, Poly], ...]


def melnikov(
    arc: ParamArc,
    case: AnnulusCase,
    max_order: int = 9,
) -> MelnikovResult | AllVanishedReport:
    """First nonvanishing Melnikov function of the arc, up to ``max_order``.

    Each Omega_k is reduced by the rewrite engine of
    :func:`~raylien.forms.reduce`.  The first nonvanishing M_n does not
    depend on the representatives r_j that engine picks.

    Returns an :class:`AllVanishedReport` (never silently truncates) when
    all orders <= max_order vanish; its ``arc_is_zero`` flag distinguishes
    the unperturbed arc from a genuine depth overflow.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    omegas: dict[int, OneForm] = {}
    rs: dict[int, Poly] = {}
    trail: list[tuple[Poly, Poly, Poly]] = []

    for k in range(1, max_order + 1):
        Omega = omegas[k] = arc.order_form(k)
        for j in range(1, k):
            i = k - j
            if not omegas[i].is_zero() and not rs[j].is_zero():
                Omega = Omega + omegas[i].mul_poly(rs[j])
        dec = reduce_form(Omega, case)
        if not dec.uv_is_zero():
            return MelnikovResult(
                order=k,
                p=dec.u.rename("h"),
                q=dec.v.rename("h"),
                trail=tuple(trail),
            )
        rs[k] = dec.r
        trail.append((dec.u, dec.v, dec.r))

    return AllVanishedReport(
        max_order=max_order, arc_is_zero=arc.is_zero(), trail=tuple(trail)
    )


def first_order_pair(case: AnnulusCase, j: int) -> tuple[Poly, Poly]:
    """(p, q) of the order-1 Melnikov function of the basis arc lambda_j = eps."""
    coeffs = [0] * 6
    coeffs[j - 1] = 1
    res = melnikov(ParamArc.linear(coeffs), case, max_order=1)
    assert isinstance(res, MelnikovResult)
    return res.p, res.q


@dataclass(frozen=True)
class LinearForm:
    """A linear form sum_j c_j lambda_j with integer-primitive coefficients."""

    coeffs: tuple[Fraction, ...]

    def __call__(self, lambdas: list[RationalLike]) -> Fraction:
        return sum((rat(v) * c for v, c in zip(lambdas, self.coeffs)), Fraction(0))

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            name = f"l{i+1}"
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{name}")
        s = " ".join(parts) if parts else "0"
        return s[2:] if s.startswith("+ ") else s


# column order (l1, l2, l4, l5, l6, l3): the center direction l3 stays free
_ORDER1_COLUMNS = [0, 1, 3, 4, 5, 2]


@functools.lru_cache(maxsize=4)
def _order1_rows(case: AnnulusCase) -> tuple[tuple[Fraction, ...], ...]:
    """M_1 coefficients of h^0, h^1 in p and h^0, h^1, h^2 in q, over l1..l6.

    Cached per case, as tuples so that no caller can change the table.
    """
    pairs = [first_order_pair(case, j) for j in range(1, 7)]
    return tuple(tuple(p[k] for p, _ in pairs) for k in range(2)) + tuple(
        tuple(q[k] for _, q in pairs) for k in range(3))


def center_conditions_order1(case: AnnulusCase) -> list[LinearForm]:
    """The five linear conditions equivalent to M_1 == 0.

    Derived, not hard-coded: the symbolic M_1 coefficients (one per power of
    h in p and q) are collected as linear forms in lambda_1..lambda_6 and
    row-reduced with lambda_3 kept as the free direction, which yields the
    conventional presentation (l1, l2 +- 3 l3, l4 +- 3 l3, l5, l6).
    """
    rows, _, pivots = row_reduce(_order1_rows(case), [0] * 5, column_order=_ORDER1_COLUMNS)
    forms = []
    for _, ri in sorted((col, ri) for ri, col in pivots):
        row = rows[ri]
        denom = lcm(*(c.denominator for c in row if c != 0))
        forms.append(LinearForm(tuple(c * denom for c in row)))
    return forms


# sign patterns of the quadratic r-block, keyed by Hamiltonian signs:
# 8 x^2 y^2 - 4 H x^2 - b x^2 - a b y^2
def _lemma_r_quadratic(case: AnnulusCase) -> Poly:
    H = case.hamiltonian()
    out = PolyXY.monomial(2, 2, 8) - (H * PolyXY.monomial(2, 0)).scale(4)
    out = out - PolyXY.monomial(2, 0, case.b)
    out = out - PolyXY.monomial(0, 2, case.a * case.b)
    return out


def center_direction_form(coeff: RationalLike, case: AnnulusCase) -> OneForm:
    """The residual order form lam3 * [-3 x y dH + d(x y^3)] of a tuned arc."""
    c = rat(coeff)
    H = case.hamiltonian()
    omega = exterior_derivative(H).mul_poly(PolyXY.monomial(1, 1, -3)) + exterior_derivative(
        PolyXY.monomial(1, 3)
    )
    return omega.scale(c)


def lemma1_product(
    j_coeff: RationalLike,
    case: AnnulusCase,
    xy_coeff: RationalLike = 0,
    quad_coeff: RationalLike = 0,
) -> CanonicalDecomposition:
    """Reduce the product r_k * omega_j of the recursion's recurring shapes.

    omega_j = j_coeff * [-3 x y dH + d(x y^3)];
    r_k = quad_coeff * (8 x^2 y^2 - 4 H x^2 - b x^2 - a b y^2) - 3 xy_coeff x y.

    With quad_coeff = 0 (the pure-xy shape) the product is relatively exact:
    the returned (u, v) is (0, 0) exactly.
    """
    omega_j = center_direction_form(j_coeff, case)
    r_k = _lemma_r_quadratic(case).scale(rat(quad_coeff)) + PolyXY.monomial(
        1, 1, -3 * rat(xy_coeff)
    )
    return reduce_form(omega_j.mul_poly(r_k), case)


def lemma_cross_form(j_coeff: RationalLike, quad_coeff: RationalLike, case: AnnulusCase) -> OneForm:
    """The order-3 driver (-32/5 x^2y^5 + 8H x^2y^3 + 2b x^2y^3 - (2ab/5) y^5) dx.

    This is the dx-part that the quadratic block of r_k contributes to
    r_k omega_j modulo relatively exact forms; its reduction gives the cubic
    correction of the order-3m Melnikov functions.
    """
    a, b = case.a, case.b
    H = case.hamiltonian()
    c = rat(j_coeff) * rat(quad_coeff)
    P = (
        PolyXY.monomial(2, 5, Fraction(-32, 5))
        + (H * PolyXY.monomial(2, 3)).scale(8)
        + PolyXY.monomial(2, 3, 2 * b)
        + PolyXY.monomial(0, 5, Fraction(-2, 5) * a * b)
    )
    return OneForm(P.scale(c))


def lambdas_for_first_order(p: Poly, q: Poly, case: AnnulusCase) -> list[Fraction]:
    """Invert the order-1 table: a lambda vector whose M_1 is p I2 + q I0.

    p must have degree <= 1 and q degree <= 2 (the order-1 range).  The
    underdetermined direction (the center direction lambda_3) is set to
    zero by the deterministic solver.  Raises ValueError when (p, q) is
    outside the order-1 range.
    """
    if p.degree() > 1 or q.degree() > 2:
        raise ValueError("(p, q) outside the order-1 range (deg p <= 1, deg q <= 2)")
    rhs = [p[0], p[1], q[0], q[1], q[2]]
    sol = solve_linear_exact(_order1_rows(case), rhs, column_order=_ORDER1_COLUMNS)
    if sol is None:
        raise ValueError("(p, q) is not realizable at order 1")
    return sol
