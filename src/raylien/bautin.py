"""Bautin ideal generators, order prediction, and Nakayama certification.

The ideal of displacement coefficients, localized at lambda = 0, is
polynomially generated: five linear generators plus the cube of the center
direction.  ``predict_order`` reads off the expected first nonvanishing
order of an arc as the minimal eps-valuation of the generators along it;
``nakayama_certify`` certifies that a generating set with higher-order tails
generates the same local ideal as its leading part, by exhibiting the
inverse transition matrix as a truncated power series with exact zero
residual through the requested degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MultiPoly, Poly, RationalLike, rat
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


def predict_order(arc, case: AnnulusCase) -> int | float:
    """Minimal eps-valuation of the Bautin generators along the arc.

    Returns math.inf when every generator vanishes identically on the arc
    (for polynomial arcs this happens only for the zero arc).
    """
    if arc.is_zero():
        raise ValueError("arc is identically zero")
    gens = bautin_generators(case.a, case.b)
    best: int | float = math.inf
    for g in gens:
        composed: Poly = g.compose_series(list(arc.series))
        val = composed.valuation()
        if val is not None:
            best = min(best, val)
    return best


def leading_generator_values(arc, case: AnnulusCase) -> list[Fraction]:
    """Coefficients of eps^n in each generator along the arc, n = predict_order."""
    n = predict_order(arc, case)
    if n is math.inf:
        raise ValueError("all generators vanish on the arc")
    gens = bautin_generators(case.a, case.b)
    return [g.compose_series(list(arc.series))[n] for g in gens]


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

    entries: tuple[tuple[Poly, ...], ...]  # a_tilde, zero constant terms
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


def _leading_monomial(p: Poly) -> tuple[int, ...]:
    return max(p.coeffs, key=_grlex_key)


def _divides(e1: tuple[int, ...], e2: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _division(p: Poly, gens: list[Poly]) -> tuple[list[Poly], Poly]:
    """Multivariate division with remainder (grlex leading terms)."""
    nv = len(p.vars)
    quot = [MultiPoly.zero(nv) for _ in gens]
    rem = MultiPoly.zero(nv)
    work = p
    lead = [( _leading_monomial(g), g.coeffs[_leading_monomial(g)]) for g in gens]
    while not work.is_zero():
        e = _leading_monomial(work)
        c = work.coeffs[e]
        for gi, (le, lc) in enumerate(lead):
            if _divides(le, e):
                shift = tuple(a - b for a, b in zip(e, le))
                t = MultiPoly(nv, {shift: c / lc})
                quot[gi] = quot[gi] + t
                work = work - t * gens[gi]
                break
        else:
            rem = rem + MultiPoly(nv, {e: c})
            work = work - MultiPoly(nv, {e: c})
    return quot, rem


def nakayama_certify(
    b: list[Poly], b0: list[Poly], degree_cap: int
) -> NakayamaCertificate:
    """Certify that (b) and (b0) generate the same local ideal.

    Writes b_i = b0_i + sum_j a_ij b0_j with every a_ij vanishing at the
    origin (division with remainder; raises :class:`MembershipError` with
    the offending monomial otherwise), inverts I + A as a Neumann series
    truncated at ``degree_cap``, and verifies that the certificate
    reconstructs b0 from b with exact zero residual through the cap.
    """
    if len(b) != len(b0) or not b:
        raise ValueError("b and b0 must be nonempty lists of equal length")
    k = len(b)
    nv = len(b[0].vars)
    zero = MultiPoly.zero(nv)

    A: list[list[Poly]] = []
    for i in range(k):
        tail = b[i] - b0[i]
        quot, rem = _division(tail, list(b0))
        if not rem.is_zero():
            mono = _leading_monomial(rem)
            raise MembershipError(
                f"tail of generator {i} has remainder term {MultiPoly(nv, {mono: rem.coeffs[mono]})}"
                " outside (b0)",
                i,
                mono,
            )
        for j, q in enumerate(quot):
            if q.coeffs.get((0,) * nv, Fraction(0)) != 0:
                raise MembershipError(
                    f"tail of generator {i} needs a unit multiple of b0_{j}:"
                    " not inside m*(b0)",
                    i,
                    (0,) * nv,
                )
        A.append(quot)

    # S = sum_{m>=0} (-A)^m, truncated: entries of A^m have valuation >= m
    S: list[list[Poly]] = [
        [MultiPoly.const(nv, 1) if i == j else zero for j in range(k)] for i in range(k)
    ]
    term: list[list[Poly]] = [row[:] for row in S]
    for _ in range(degree_cap):
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
