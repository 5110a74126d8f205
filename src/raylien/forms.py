"""Polynomial one-forms and their canonical relative decomposition.

For the quartic Hamiltonian H = y^2/2 + (a/2) x^2 + (b/4) x^4 every one-form
arising in the perturbation calculus splits, exactly, as

    omega = (u(H) x^2 + v(H)) y dx  +  r dH  +  dR

with u, v univariate polynomials in H and r, R bivariate polynomials.  The
pair (u, v) is unique; r and R are representatives only (r can be shifted by
any polynomial in H at the expense of R).  Two independent reduction engines
are provided:

* ``method='rewrite'`` (default): an exact rewriting scheme built from
  integration by parts and the energy relation y^2 = 2H - a x^2 - (b/2) x^4.
  Linear in the number of terms, fast enough for deep recursions.
* ``method='ansatz'``: undetermined coefficients for (u, v, r, R) up to
  degree bounds, solved by the deterministic sparse exact elimination of
  :func:`~raylien.exactalg.solve_linear_exact` on the system's own
  {column: coefficient} rows.  Up to two attempts grow with the total
  degree (deg//4 + 1, deg + 2, deg + 2) and (deg//4 + 3, deg + 6, deg + 6)
  for (deg_uv, deg_r, deg_R); a last one at a weighted-degree cap is sound,
  so the engine fails only where no decomposition exists.  Some 30 times
  slower than the rewrite engine on dense forms of degree 3 to 7; kept as
  a structurally independent cross-check and for pivot-order experiments.

Both engines verify their output identity exactly before returning.

Monomials x^a y^b dx with a and b both odd admit no such decomposition (on
the asymmetric oval of the eight-loop interior they integrate to a nonzero
algebraic function of h, which no pair (u, v) can reproduce).  Such inputs
raise :class:`DecompositionError`; they never occur in the perturbation
recursion, whose forms always have a+b odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .exactalg import (
    Poly,
    PolyU,
    PolyXY,
    RationalLike,
    hamiltonian_xy,
    solve_linear_exact,
    substitute_h,
)


class DecompositionError(ValueError):
    """No canonical decomposition under the given degree bounds."""


class OneForm:
    """P(x,y) dx + Q(x,y) dy with exact polynomial coefficients."""

    __slots__ = ("P", "Q")

    def __init__(self, P: Poly | None = None, Q: Poly | None = None):
        object.__setattr__(self, "P", P if P is not None else PolyXY.zero())
        object.__setattr__(self, "Q", Q if Q is not None else PolyXY.zero())

    def __setattr__(self, *args):
        raise AttributeError("OneForm is immutable")

    @classmethod
    def zero(cls) -> OneForm:
        return cls()

    def is_zero(self) -> bool:
        return self.P.is_zero() and self.Q.is_zero()

    def degree(self) -> int:
        return max(self.P.degree(), self.Q.degree())

    def __add__(self, other: OneForm) -> OneForm:
        return OneForm(self.P + other.P, self.Q + other.Q)

    def __sub__(self, other: OneForm) -> OneForm:
        return OneForm(self.P - other.P, self.Q - other.Q)

    def scale(self, c: RationalLike) -> OneForm:
        return OneForm(self.P.scale(c), self.Q.scale(c))

    def mul_poly(self, g: Poly) -> OneForm:
        """g * omega for a polynomial factor g."""
        return OneForm(g * self.P, g * self.Q)

    def __eq__(self, other) -> bool:
        return isinstance(other, OneForm) and self.P == other.P and self.Q == other.Q

    def __repr__(self) -> str:
        return f"({self.P}) dx + ({self.Q}) dy"


def exterior_derivative(f: Poly) -> OneForm:
    """df = f_x dx + f_y dy."""
    return OneForm(f.diff("x"), f.diff("y"))


@dataclass(frozen=True)
class AnnulusCase:
    """One period annulus of the unperturbed system.

    (a, b) fixes the Hamiltonian sign case, the only input of the symbolic
    reduction.  The rest serves the numerical modules: the open h-interval
    (h_lo, h_hi) and the zero-count ceiling; ``fold``, 2.0 for an
    x-symmetric oval (its s = x^2 interval starts at 0 and each s is crossed
    twice), else 1.0; ``section_range``, the open x-interval of the section
    {y = 0} transversal to the annulus; ``ab_float``, (a, b) as floats;
    ``H``, the Hamiltonian that ``hamiltonian()`` returns, and ``dH``, its
    exterior derivative.
    """

    name: str
    a: Fraction
    b: Fraction
    h_lo: float
    h_hi: float
    zero_bound: int
    fold: float
    section_range: tuple[float, float]
    ab_float: tuple[float, float] = field(init=False, repr=False, compare=False)
    H: Poly = field(init=False, repr=False, compare=False)
    dH: OneForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ab_float", (float(self.a), float(self.b)))
        object.__setattr__(self, "H", hamiltonian_xy(self.a, self.b))
        object.__setattr__(self, "dH", exterior_derivative(self.H))

    def hamiltonian(self) -> Poly:
        return self.H

    def contains_h(self, h: float) -> bool:
        return self.h_lo < h < self.h_hi

    def __repr__(self) -> str:
        return f"AnnulusCase({self.name})"


GLOBAL_CENTER = AnnulusCase(
    "global-center", Fraction(1), Fraction(1), 0.0, math.inf, 5, 2.0, (0.0, math.inf))
TRUNCATED_PENDULUM = AnnulusCase(
    "truncated-pendulum", Fraction(1), Fraction(-1), 0.0, 0.25, 5, 2.0, (0.0, 1.0))
EIGHT_INTERIOR = AnnulusCase(
    "eight-interior", Fraction(-1), Fraction(1), -0.25, 0.0, 5, 1.0, (1.0, math.sqrt(2.0)))
EIGHT_EXTERIOR = AnnulusCase(
    "eight-exterior", Fraction(-1), Fraction(1), 0.0, math.inf, 6, 2.0, (math.sqrt(2.0), math.inf))

CASES: dict[str, AnnulusCase] = {
    c.name: c
    for c in (GLOBAL_CENTER, TRUNCATED_PENDULUM, EIGHT_INTERIOR, EIGHT_EXTERIOR)
}

# The three distinct (a, b) sign cases (both eight-loop annuli share one).
SIGN_CASES = (GLOBAL_CENTER, TRUNCATED_PENDULUM, EIGHT_INTERIOR)


def get_case(name: str) -> AnnulusCase:
    try:
        return CASES[name]
    except KeyError:
        raise KeyError(f"unknown case {name!r}; choose from {sorted(CASES)}") from None


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The quadruple (u, v, r, R) of a reduced one-form."""

    u: Poly  # coefficient of x^2 y dx, polynomial in H
    v: Poly  # coefficient of y dx, polynomial in H
    r: Poly
    R: Poly

    def uv_is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()


# the monomials x^a y^b of (l1 + l2 x^2 + l3 y^2 + l4 x^4 + l5 y^4 + l6 x^6) y dx
PERTURBATION_MONOMIALS = ((0, 1), (2, 1), (0, 3), (4, 1), (0, 5), (6, 1))


def perturbation_form(lambdas: list[RationalLike]) -> OneForm:
    """(l1 + l2 x^2 + l3 y^2 + l4 x^4 + l5 y^4 + l6 x^6) y dx (the same in every case)."""
    if len(lambdas) != 6:
        raise ValueError("expected 6 coefficients")
    return OneForm(PolyXY(dict(zip(PERTURBATION_MONOMIALS, lambdas))))


def verify_decomposition(omega: OneForm, d: CanonicalDecomposition, case: AnnulusCase) -> bool:
    """Exact check of omega == (u(H) x^2 + v(H)) y dx + r dH + dR.

    Both sides are rebuilt as polynomials in normal form (integer
    numerators over one denominator), so they agree exactly when their
    denominators and numerators are equal.
    """
    u, v = d.u, d.v
    den = math.lcm(u.den, v.den)
    terms = {(e, 2, 1): c * (den // u.den) for (e,), c in u.num.items()}
    terms.update({(e, 0, 1): c * (den // v.den) for (e,), c in v.num.items()})
    dH = case.dH
    P = substitute_h(terms, case.H, den) + dH.P * d.r + d.R.diff("x")
    return omega.P == P and omega.Q == dH.Q * d.r + d.R.diff("y")


# ---------------------------------------------------------------------------
# Rewrite engine
#
# Intermediate terms are tracked as c * H^e x^a y^b (H a formal symbol that
# is substituted at the end), split across three accumulators: pending dx
# terms, dH coefficients, and exact parts.  Rules, all exact identities:
#
#   even y-power   H^e x^a y^b dx  (b even >= 2): integrate x^a y^b dx by
#                  parts and replace y^(b-1) dy by y^(b-2) (dH - H_x dx);
#   odd  y-power   y^b -> y^(b-2) (2H - a x^2 - (b/2) x^4)   (b odd >= 3);
#   x-power drop   for x^a y dx (a >= 3), eliminate via d(H^e x^(a-3) y^3)
#                  and the odd rule, which leaves x^(a-2), x^(a-4) terms.
#
# Terminal dx terms are H^e y dx -> v and H^e x^2 y dx -> u; any surviving
# H^e x y dx term certifies that no decomposition exists.
#
# Every accumulator holds int numerators over one running denominator D.  A
# rule divides its term by one int m (a+1, 2 or |b| (a+3) when a and b are
# integers, times their denominators otherwise); when m does not divide
# the numerator, D and every stored numerator are first multiplied by
# m / gcd, so the engine stays exact for any rational (a, b).  Each rule
# adds pending terms only at keys below its own in the order (b, a, e), so
# the pending terms are taken from a max-heap of keys, largest first.
# ---------------------------------------------------------------------------

Key = tuple[int, int, int]  # (e, a, b) for H^e x^a y^b


def _bump(d: dict, key, c: int):
    d[key] = d.get(key, 0) + c


def _push(pending: dict[Key, int], heap: list[tuple[int, int, int]], key: Key, c: int):
    """Add c to a pending term; a new key enters the heap as (-b, -a, -e)."""
    cur = pending.get(key)
    if cur is None:
        pending[key] = c
        heappush(heap, (-key[2], -key[1], -key[0]))
    else:
        pending[key] = cur + c


def _reduce_rewrite(omega: OneForm, case: AnnulusCase) -> CanonicalDecomposition:
    an, ad = case.a.numerator, case.a.denominator
    bn, bd = case.b.numerator, case.b.denominator
    # odd rule: 2c, -c a and -c b / 2 are multiples of c / m_odd
    m_odd = math.lcm(ad, 2 * bd)
    fa, fb = m_odd // ad * an, m_odd // (2 * bd) * bn

    # Q dy = d(int_y Q) - (d/dx int_y Q) dx
    Ry = omega.Q.integrate("y")
    P = omega.P - Ry.diff("x")
    D = math.lcm(Ry.den, P.den)
    R_acc: dict[Key, int] = {(0, i, j): c * (D // Ry.den) for (i, j), c in Ry.num.items()}
    pending: dict[Key, int] = {(0, i, j): c * (D // P.den) for (i, j), c in P.num.items()}
    heap = [(-j, -i, 0) for i, j in P.num]
    heapify(heap)
    r_acc: dict[Key, int] = {}
    u: dict[int, int] = {}
    v: dict[int, int] = {}
    residue: dict[int, int] = {}
    stored = (pending, r_acc, R_acc, u, v, residue)

    def divide(t: int, m: int) -> int:
        """t / m for m > 0, after rescaling D when m does not divide t."""
        nonlocal D
        if t % m:
            s = m // math.gcd(t, m)
            D *= s
            for acc in stored:
                for k in acc:
                    acc[k] *= s
            t *= s
        return t // m

    while heap:
        nb, na, ne = heappop(heap)
        e, a, b = key = (-ne, -na, -nb)
        c = pending.pop(key)
        if not c:
            continue  # cancelled to zero
        if b == 0:
            # H^e x^a dx = d(H^e x^(a+1)/(a+1)) - (e/(a+1)) H^(e-1) x^(a+1) dH
            q = divide(c, a + 1)
            _bump(R_acc, (e, a + 1, 0), q)
            if e:
                _bump(r_acc, (e - 1, a + 1, 0), -q * e)
        elif b % 2 == 0:
            # integrate by parts, then y^(b-1) dy = y^(b-2)(dH - H_x dx)
            q = divide(c, (a + 1) * ad * bd)
            k = q * ad * bd  # c / (a+1)
            _bump(R_acc, (e, a + 1, b), k)
            if e:
                _bump(r_acc, (e - 1, a + 1, b), -k * e)
            _bump(r_acc, (e, a + 1, b - 2), -k * b)
            _push(pending, heap, (e, a + 2, b - 2), q * b * an * bd)
            _push(pending, heap, (e, a + 4, b - 2), q * b * bn * ad)
        elif b >= 3:
            # y^b = y^(b-2) (2H - alpha x^2 - (beta/2) x^4)
            q = divide(c, m_odd)
            _push(pending, heap, (e + 1, a, b - 2), 2 * q * m_odd)
            _push(pending, heap, (e, a + 2, b - 2), -q * fa)
            _push(pending, heap, (e, a + 4, b - 2), -q * fb)
        elif a >= 3:
            # x^a y dx via d(H^e x^(a-3) y^3); see module comment.
            # f = 2c / (beta (a+3)) = sign(b) q ad bd with q = 2c / (|bn| (a+3) ad)
            q = divide(2 * c, abs(bn) * (a + 3) * ad)
            if bn < 0:
                q = -q
            f = q * ad * bd
            _bump(R_acc, (e, a - 3, 3), -f)
            if e:
                _bump(r_acc, (e - 1, a - 3, 3), f * e)
            _bump(r_acc, (e, a - 3, 1), 3 * f)
            if a > 3:
                _push(pending, heap, (e + 1, a - 4, 1), 2 * f * (a - 3))
            _push(pending, heap, (e, a - 2, 1), -q * bd * an * a)  # -f alpha a
        elif a == 2:
            _bump(u, e, c)
        elif a == 0:
            _bump(v, e, c)
        else:  # a == 1, b == 1: no decomposition exists
            _bump(residue, e, c)

    if any(residue.values()):
        terms = ", ".join(f"{Fraction(c, D)} * H^{e} x y dx" for e, c in sorted(residue.items()) if c)
        raise DecompositionError(
            f"no canonical decomposition: irreducible odd/odd residue [{terms}]"
        )

    return CanonicalDecomposition(
        u=Poly.from_numerators({(e,): c for e, c in u.items() if c}, D, ("H",)),
        v=Poly.from_numerators({(e,): c for e, c in v.items() if c}, D, ("H",)),
        r=substitute_h(r_acc, case.H, D),
        R=substitute_h(R_acc, case.H, D),
    )


# ---------------------------------------------------------------------------
# Ansatz engine (undetermined coefficients + exact linear solve)
# ---------------------------------------------------------------------------


def _grlex_pairs(max_total: int):
    for t in range(max_total + 1):
        for i in range(t, -1, -1):
            yield (i, t - i)


def _reduce_ansatz(
    omega: OneForm,
    case: AnnulusCase,
    deg_uv: int,
    deg_r: int,
    deg_R: int,
    pivot_order: str,
) -> CanonicalDecomposition | None:
    H, dH = case.H, case.dH

    # unknown layout: u_0..u_du, v_0..v_dv, r_(i,j), R_(i,j) (grlex, no R const)
    unknowns: list[tuple[str, tuple]] = []
    unknowns += [("u", (k,)) for k in range(deg_uv + 1)]
    unknowns += [("v", (k,)) for k in range(deg_uv + 1)]
    r_keys = list(_grlex_pairs(deg_r))
    R_keys = [k for k in _grlex_pairs(deg_R) if k != (0, 0)]
    unknowns += [("r", k) for k in r_keys]
    unknowns += [("R", k) for k in R_keys]
    index = {uk: i for i, uk in enumerate(unknowns)}
    n = len(unknowns)

    # rows keyed by (which-coefficient, monomial)
    rows: dict[tuple[str, tuple[int, int]], dict[int, Fraction]] = {}

    def add(comp: str, mono: tuple[int, int], col: int, coeff: Fraction):
        if coeff == 0:
            return
        row = rows.setdefault((comp, mono), {})
        row[col] = row.get(col, Fraction(0)) + coeff

    for k in range(deg_uv + 1):  # u_k: H^k x^2 y dx, v_k: H^k y dx
        for name, a, b in (("u", 2, 1), ("v", 0, 1)):
            for mono, c in substitute_h({(k, a, b): 1}, H).coeffs.items():
                add("P", mono, index[(name, (k,))], c)
    for (ri, rj) in r_keys:
        col = index[("r", (ri, rj))]
        for (i, j), c in dH.P.coeffs.items():
            add("P", (ri + i, rj + j), col, c)
        for (i, j), c in dH.Q.coeffs.items():
            add("Q", (ri + i, rj + j), col, c)
    for (Ri, Rj) in R_keys:
        col = index[("R", (Ri, Rj))]
        if Ri:
            add("P", (Ri - 1, Rj), col, Fraction(Ri))
        if Rj:
            add("Q", (Ri, Rj - 1), col, Fraction(Rj))

    targets: dict[tuple[str, tuple[int, int]], Fraction] = {}
    for (i, j), c in omega.P.coeffs.items():
        targets[("P", (i, j))] = c
    for (i, j), c in omega.Q.coeffs.items():
        targets[("Q", (i, j))] = c

    keys = sorted(set(rows) | set(targets))
    col_order = list(range(n))
    if pivot_order == "reversed":
        col_order = col_order[::-1]
    sol = solve_linear_exact(
        [rows.get(key, {}) for key in keys],
        [targets.get(key, Fraction(0)) for key in keys],
        column_order=col_order,
    )
    if sol is None:
        return None

    u = PolyU({k: sol[index[("u", (k,))]] for k in range(deg_uv + 1)}, "H")
    v = PolyU({k: sol[index[("v", (k,))]] for k in range(deg_uv + 1)}, "H")
    r = PolyXY({k: sol[index[("r", k)]] for k in r_keys})
    R = PolyXY({k: sol[index[("R", k)]] for k in R_keys})
    return CanonicalDecomposition(u, v, r, R)


def _ansatz_bounds(omega: OneForm) -> list[tuple[int, int, int]]:
    """The (deg_uv, deg_r, deg_R) of the ansatz attempts, smallest first.

    The first two attempts grow with the total degree.  The last one is a
    sound cap from the rewrite engine.  Give x and dx weight 1, y and dy
    weight 2, so that H weighs at most 4 and d keeps weight, and let W be
    the largest weight of a term of omega.  Every rewrite rule replaces a
    term by terms of at most its weight, so the rewrite engine's
    decomposition has R of weight <= W, r of weight <= W - 4 (r dH weighs
    <= W) and u, v of H-degree <= (W - 3) // 4 (H^k y dx weighs 4k + 3).
    Total degree never exceeds weight, so whenever a decomposition exists
    the ansatz is consistent at ((W - 3) // 4, W - 4, W).  The cap is an
    attempt of its own only when the second attempt does not contain it.
    """
    deg = max(omega.degree(), 1)
    attempts = [(deg // 4 + 1, deg + 2, deg + 2), (deg // 4 + 3, deg + 6, deg + 6)]
    weights = [a + 2 * b + 1 for a, b in omega.P.num]
    weights += [a + 2 * b + 2 for a, b in omega.Q.num]
    w = max(weights, default=0)
    cap = ((w - 3) // 4, w - 4, w)
    if any(c > a for c, a in zip(cap, attempts[-1])):
        attempts.append(cap)
    return attempts


def reduce(
    omega: OneForm,
    case: AnnulusCase,
    method: str = "rewrite",
    pivot_order: str = "grlex",
) -> CanonicalDecomposition:
    """Canonical decomposition of a polynomial one-form.

    The (u, v) part of the result is unique; (r, R) depend on the engine
    (and, for the ansatz engine, on the pivot order).  The output identity
    is verified exactly before returning.

    Raises :class:`DecompositionError` when no decomposition exists (only
    possible for inputs with an odd/odd monomial sector).  The ansatz
    engine's last degree bound is sound (see :func:`_ansatz_bounds`), so it
    raises for no other reason.
    """
    if method == "rewrite":
        dec = _reduce_rewrite(omega, case)
    elif method == "ansatz":
        dec = None
        for bounds in _ansatz_bounds(omega):
            dec = _reduce_ansatz(omega, case, *bounds, pivot_order)
            if dec is not None:
                break
        if dec is None:
            raise DecompositionError(
                "no canonical decomposition: the ansatz has no solution at degree"
                f" bounds {bounds}, which contain the weighted-degree cap"
            )
    else:
        raise ValueError(f"unknown method {method!r}")

    if not verify_decomposition(omega, dec, case):
        raise AssertionError("internal error: decomposition failed exact verification")
    return dec
