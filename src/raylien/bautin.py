"""Bautin ideal generators, order prediction, and Nakayama certification.

The ideal of displacement coefficients, localized at lambda = 0, is
polynomially generated: five linear generators plus the cube of the center
direction; in the coordinates mu = (l1, l2 + 3a l3, l3, l4 + 3b l3, l5, l6)
they are the monomials mu1, mu2, mu3^3, mu4, mu5, mu6.  ``predict_order``
reads off the expected first nonvanishing order of an arc as the minimal
eps-valuation of the generators along it, a sum of valuations of the mu_p.
``nakayama_certify`` certifies that a generating set with higher-order
tails generates the same local ideal as its leading part, by exhibiting the
inverse transition matrix as a truncated power series with exact zero
residual through the requested degree.  It divides in such coordinates mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import MultiPoly, Poly, RationalLike, rat, solve_linear_exact
from .forms import AnnulusCase


@dataclass(frozen=True)
class IdealGenerators:
    """Six generators in lambda_1..lambda_6 (five linear, one cubic)."""

    a: Fraction
    b: Fraction
    generators: tuple[Poly, ...]

    def __iter__(self):
        return iter(self.generators)


class SaddleOnlyError(ValueError):
    """a < 0 and b < 0: single saddle equilibrium, no limit cycles."""


def bautin_generators(a: RationalLike, b: RationalLike) -> IdealGenerators:
    """(l1, l2 + 3a l3, l3^3, l4 + 3b l3, l5, l6) for the sign case (a, b)."""
    a, b = rat(a), rat(b)
    if a * b == 0:
        raise ValueError("degenerate Hamiltonian: a*b must be nonzero")
    if a < 0 and b < 0:
        raise SaddleOnlyError("saddle-only system, no limit cycles")
    lam = [MultiPoly.variable(6, i) for i in range(6)]
    gens = (
        lam[0],
        lam[1] + lam[2].scale(3 * a),
        lam[2] ** 3,
        lam[3] + lam[2].scale(3 * b),
        lam[4],
        lam[5],
    )
    return IdealGenerators(a=a, b=b, generators=gens)


@lru_cache(maxsize=8)
def _bautin_in_mu(a: Fraction, b: Fraction):
    """The generators as (coefficient, exponents in mu); mu as sparse rows."""
    monomials, (mu, _) = _monomials_in_mu(list(bautin_generators(a, b)))
    return tuple(monomials), tuple(tuple((e.index(1), c) for e, c in m.coeffs.items()) for m in mu)


def _generator_valuations(arc, case: AnnulusCase):
    """Valuations of the generators on the arc, the generators, and (v_p, c_p):
    mu_p is first nonzero, equal to c_p, on the coefficient row of order v_p."""
    if arc.is_zero():
        raise ValueError("arc is identically zero")
    monomials, mu = _bautin_in_mu(case.a, case.b)
    rows = [arc.coefficient_row(k) for k in range(1, max(s.degree() for s in arc.series) + 1)]
    leads = []
    for m in mu:
        values = (sum(c * row[i] for i, c in m if row[i]) for row in rows)
        leads.append(next(((k, v) for k, v in enumerate(values, 1) if v), (math.inf, 0)))
    vals = [sum(leads[p][0] * x for p, x in enumerate(e) if x) for _, e in monomials]
    return vals, monomials, leads


def predict_order(arc, case: AnnulusCase) -> int:
    """Minimal eps-valuation of the Bautin generators along the arc: each is a
    monomial in mu, of valuation sum e_p v_p.  ValueError on the zero arc."""
    return min(_generator_valuations(arc, case)[0])


def leading_generator_values(arc, case: AnnulusCase) -> list[Fraction]:
    """Coefficients of eps^n in each generator along the arc, n = predict_order:
    c prod c_p^e_p for a generator c prod mu_p^e_p of valuation n, else 0."""
    vals, monomials, leads = _generator_valuations(arc, case)
    n = min(vals)
    return [c * math.prod(leads[p][1] ** x for p, x in enumerate(e) if x) if v == n
            else Fraction(0) for (c, e), v in zip(monomials, vals)]


# ---------------------------------------------------------------------------
# Nakayama certification
# ---------------------------------------------------------------------------


class MembershipError(ValueError):
    """A tail term is not in the module m * (b0); carries the witness monomial."""

    def __init__(self, message: str, generator_index: int, monomial: tuple[int, ...]):
        super().__init__(message)
        self.generator_index = generator_index
        self.monomial = monomial


@dataclass(frozen=True)
class NakayamaCertificate:
    """b0_i = sum_j (delta_ij + a_tilde_ij) b_j, exact through the cap."""

    entries: tuple[tuple[Poly, ...], ...]  # a_tilde; its constant part is nilpotent
    truncation_degree: int

    def reconstruct(self, b: list[Poly]) -> list[Poly]:
        """Evaluate sum_j (delta_ij + a_tilde_ij) b_j, truncated at the cap."""
        k = len(b)
        out = []
        for i in range(k):
            acc = b[i]
            for j in range(k):
                acc = acc + self.entries[i][j] * b[j]
            out.append(acc.truncate(self.truncation_degree))
        return out


def _grlex_key(e: tuple[int, ...]):
    return (sum(e), e)


def _linear_coordinates(b0: list[Poly]) -> tuple[list[Poly], list[Poly]] | None:
    """Coordinates mu in which the linear generators of b0 are variables.

    Each homogeneous linear generator, reduced against the ones before it,
    becomes mu_p for its first nonzero variable p, where the variables
    that the other generators use come last; every other variable is its
    own coordinate, so generators in those variables alone keep their
    form.  Returns (mu as linear polynomials in lambda, lambda as linear
    polynomials in mu), or None when mu = lambda.  Raises ValueError when
    the linear generators are linearly dependent.
    """
    nv = len(b0[0].vars)
    units = [tuple(int(i == k) for i in range(nv)) for k in range(nv)]
    identity = [[Fraction(int(i == k)) for i in range(nv)] for k in range(nv)]
    M = [row[:] for row in identity]
    linear = [g.degree() == 1 and g.valuation() == 1 for g in b0]
    used = {i for g, lin in zip(b0, linear) if not lin for e in g.coeffs for i, x in enumerate(e) if x}
    order = sorted(range(nv), key=lambda i: i in used)
    reduced: list[tuple[int, list[Fraction]]] = []
    for g, lin in zip(b0, linear):
        if not lin:
            continue
        row = [g[e] for e in units]
        w = row[:]
        for p, v in reduced:
            if w[p]:
                f = w[p] / v[p]
                w = [x - f * y for x, y in zip(w, v)]
        p = next((i for i in order if w[i]), None)
        if p is None:
            raise ValueError(f"linear generator {g} depends on the ones before it")
        reduced.append((p, w))
        M[p] = row
    if M == identity:
        return None
    columns = [solve_linear_exact(M, units[k]) for k in range(nv)]
    lam = [MultiPoly(nv, {units[i]: columns[i][k] for i in range(nv)}) for k in range(nv)]
    return [MultiPoly(nv, dict(zip(units, row))) for row in M], lam


def _monomials_in_mu(b0: list[Poly]):
    """b0 as monomials (coefficient, exponents in mu), and the coordinates mu
    of :func:`_linear_coordinates`; ValueError unless each is a monomial."""
    coords = _linear_coordinates(b0)
    monomials = []
    for j, g in enumerate(b0):
        g_mu = g if coords is None else g.compose_series(coords[1])
        if len(g_mu.coeffs) != 1:
            raise ValueError(f"b0_{j} = {g} is not a monomial"
                             " in the coordinates of the linear generators")
        (e, c), = g_mu.coeffs.items()
        monomials.append((c, e))
    return monomials, coords


def nakayama_certify(
    b: list[Poly], b0: list[Poly], degree_cap: int
) -> NakayamaCertificate:
    """Certify that (b) and (b0) generate the same local ideal.

    Works in coordinates mu in which the homogeneous linear generators of
    b0 are variables (for the Bautin generators mu = (l1, l2 + 3a l3, l3,
    l4 + 3b l3, l5, l6)); there every generator of b0 must be a monomial,
    else ValueError.  Monomials are a Groebner basis, so dividing each tail
    b_i - b0_i by them term by term is a membership test: it writes
    b_i = b0_i + sum_j a_ij b0_j or raises :class:`MembershipError` with
    the offending monomial (in mu).  The a_ij are mapped back to lambda.
    Their values at the origin must form a nilpotent matrix (zero when
    every tail is in m*(b0); a tail such as l4^3 = -27b^3 l3^3 mod (l4 + 3b
    l3) needs a unit multiple of l3^3), else :class:`MembershipError`.
    Then I + A is inverted as a Neumann series truncated at ``degree_cap``,
    and the certificate is verified to reconstruct b0 from b with exact
    zero residual through the cap.
    """
    if len(b) != len(b0) or not b:
        raise ValueError("b and b0 must be nonempty lists of equal length")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    k = len(b)
    nv = len(b[0].vars)
    zero = MultiPoly.zero(nv)
    gens, coords = _monomials_in_mu(b0)

    def in_lambda(p: Poly) -> Poly:
        return p if coords is None else p.compose_series(coords[0])

    A: list[list[Poly]] = []
    for i in range(k):
        tail = b[i] - b0[i]
        if coords is not None:
            tail = tail.compose_series(coords[1])
        quot: list[dict[tuple[int, ...], Fraction]] = [{} for _ in gens]
        rem = {}
        for e, c in tail.coeffs.items():
            for j, (lc, le) in enumerate(gens):
                if all(x >= y for x, y in zip(e, le)):
                    quot[j][tuple(x - y for x, y in zip(e, le))] = c / lc
                    break
            else:
                rem[e] = c
        if rem:
            mono = max(rem, key=_grlex_key)
            raise MembershipError(
                f"tail of generator {i} has remainder term {MultiPoly(nv, {mono: rem[mono]})}"
                " outside (b0)",
                i,
                mono,
            )
        A.append([in_lambda(MultiPoly(nv, q)) for q in quot])

    # the Neumann series converges m-adically iff the unit part C = A(0) is
    # nilpotent; then C^k = 0 and A^m has valuation >= m // k
    origin = (0,) * nv
    C = [[q[origin] for q in row] for row in A]
    power = C
    for _ in range(k - 1):
        power = [[sum(x * C[l][j] for l, x in enumerate(r)) for j in range(k)] for r in power]
    if any(map(any, power)):
        i, j = next((i, j) for i in range(k) for j in range(k) if C[i][j])
        raise MembershipError(
            f"tail of generator {i} needs a unit multiple of b0_{j}, and the unit parts"
            " of the transition matrix are not nilpotent: not inside m*(b0)",
            i,
            origin,
        )

    # S = sum_{m>=0} (-A)^m, truncated
    S: list[list[Poly]] = [
        [MultiPoly.const(nv, 1) if i == j else zero for j in range(k)] for i in range(k)
    ]
    term: list[list[Poly]] = [row[:] for row in S]
    for _ in range(k * (degree_cap + 1)):
        new = [[zero for _ in range(k)] for _ in range(k)]
        any_nonzero = False
        for i in range(k):
            for j in range(k):
                acc = zero
                for l in range(k):
                    if not term[i][l].is_zero() and not A[l][j].is_zero():
                        acc = acc + term[i][l] * A[l][j]
                acc = (-acc).truncate(degree_cap)
                if not acc.is_zero():
                    any_nonzero = True
                new[i][j] = acc
        if not any_nonzero:
            break
        term = new
        for i in range(k):
            for j in range(k):
                S[i][j] = S[i][j] + term[i][j]

    entries = tuple(
        tuple(
            (S[i][j] - (MultiPoly.const(nv, 1) if i == j else zero)).truncate(degree_cap)
            for j in range(k)
        )
        for i in range(k)
    )
    cert = NakayamaCertificate(entries=entries, truncation_degree=degree_cap)

    rebuilt = cert.reconstruct(b)
    for i in range(k):
        if not (rebuilt[i] - b0[i].truncate(degree_cap)).is_zero():
            raise AssertionError("internal error: certificate residual nonzero below cap")
    return cert


def rescale_lambdas(
    a: RationalLike, b: RationalLike, lambdas: list[RationalLike]
) -> tuple[list[Fraction], Fraction]:
    """Map general (a, b) parameters to normalized-case parameters.

    Returns the rescaled 6-vector (|b^3| l1, |a| b^2 l2, a^2 b^2 l3,
    a^2 |b| l4, a^4 |b| l5, |a|^3 l6) and the SQUARE of the common positive
    scalar 1/sqrt(|a| b^6), which never affects zero counts and whose square
    is rational.
    """
    a, b = rat(a), rat(b)
    if a * b == 0:
        raise ValueError("a*b must be nonzero")
    if len(lambdas) != 6:
        raise ValueError("expected 6 coefficients")
    l1, l2, l3, l4, l5, l6 = (rat(c) for c in lambdas)
    scaled = [
        abs(b**3) * l1,
        abs(a) * b**2 * l2,
        a**2 * b**2 * l3,
        a**2 * abs(b) * l4,
        a**4 * abs(b) * l5,
        abs(a) ** 3 * l6,
    ]
    factor_squared = 1 / (abs(a) * b**6)
    return scaled, factor_squared
