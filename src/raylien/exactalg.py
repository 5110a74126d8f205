"""Exact rational arithmetic: sparse polynomials and linear solving.

Every symbolic computation in the package is exact.  A polynomial stores
integer numerators over one positive common denominator, so its arithmetic
(sums, products, derivatives, H-substitution) runs on Python ints;
``fractions.Fraction`` appears only where coefficients are read one by one
(``coeffs``, indexing, evaluation, printing) and in the linear elimination.

One sparse polynomial type, :class:`Poly`, maps exponent tuples to
coefficients and carries the names of its variables.  Thin constructors
build its three uses: :class:`PolyU` (univariate in 'h', 'H' or 'eps'),
:class:`PolyXY` (the phase-plane variables x, y) and :class:`MultiPoly`
(the perturbation parameters l1..ln, for ideals).  :func:`substitute_h`
turns formal terms c H^e x^a y^b into polynomials in (x, y).

One exact elimination serves every linear system: Gauss-Jordan on sparse
rows {column: Fraction} with an index from each column to the rows that
hold it, under a deterministic pivot rule.  :func:`solve_linear_exact`
takes dense or sparse rows; :func:`row_reduce` returns the same reduction
as dense rows.

Polynomials are immutable after construction and safe to share across
threads.  They are kept in a normal form (positive denominator, no common
factor of the denominator and all numerators, no stored zero), so equal
polynomials have equal representations.  The zero polynomial has no terms,
denominator 1 and degree -1 (a finite stand-in for "minus infinity" that
keeps comparisons simple).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Mapping, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
XY = ("x", "y")


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, 'num/den' strings, or Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as 'num/den' (or 'num' when integral)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class VariableMismatchError(TypeError):
    """Raised when an operation mixes polynomials over different variables."""


def _poly(num: dict, den: int, vars: tuple[str, ...]) -> Poly:
    """The polynomial {e: num[e] / den}, without checks.

    ``num`` maps exponent tuples to nonzero ints, ``den`` is a positive
    int and ``vars`` a tuple of names; the common factor of ``den`` and the
    numerators is divided out.
    """
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    p = object.__new__(Poly)
    _set_num(p, num)
    _set_den(p, den)
    _set_vars(p, vars)
    return p


def _mul_num(n1: dict, n2: dict) -> dict:
    """The product of two numerator maps, zero sums included."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    if n1 and len(next(iter(n1))) == 2:  # (x, y): add exponents without map
        for (i, j), a in n1.items():
            for (k, l), b in n2.items():
                e = (i + k, j + l)
                out[e] = get(e, 0) + a * b
        return out
    for e1, a in n1.items():
        for e2, b in n2.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + a * b
    return out


class Poly:
    """Sparse polynomial with rational coefficients num[e] / den.

    ``vars`` names the variables; exponent tuples have one entry per name.
    ``num`` maps exponent tuples to nonzero int numerators over the
    positive int ``den``, and den shares no factor with all of them, so
    ``==`` and ``hash`` compare representations.  Coefficients are
    validated here, once; arithmetic runs on the numerators.
    """

    __slots__ = ("num", "den", "vars")

    from_numerators = staticmethod(_poly)

    def __init__(self, coeffs: Mapping[tuple[int, ...], RationalLike] | None, vars: Sequence[str]):
        vars = tuple(vars)
        data = {}
        for e, c in (coeffs or {}).items():
            e = tuple(int(k) for k in e)
            if len(e) != len(vars) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e} for variables {vars}")
            c = rat(c)
            if c:
                data[e] = c.as_integer_ratio()
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(d for _, d in data.values()))
        _set_num(self, {e: n * (den // d) for e, (n, d) in data.items()})
        _set_den(self, den)
        _set_vars(self, vars)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as a new {exponent tuple: Fraction} map."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.num)) if self.num else -1

    def valuation(self) -> int | None:
        """Smallest total degree with a nonzero coefficient, None if zero."""
        return min(map(sum, self.num)) if self.num else None

    def __getitem__(self, key: int | tuple[int, ...]) -> Fraction:
        c = self.num.get(key if isinstance(key, tuple) else (key,))
        return Fraction(c, self.den) if c else _ZERO

    def coeff_list(self) -> list[Fraction]:
        """Univariate coefficients [c0 .. c_deg]; empty list for zero."""
        return [self[k] for k in range(self.degree() + 1)]

    def _check(self, other: Poly):
        if self.vars != other.vars:
            raise VariableMismatchError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        out = dict(self.num) if s1 == 1 else {e: c * s1 for e, c in self.num.items()}
        for e, c in other.num.items():
            c *= s2
            s = out.get(e)
            if s is None:
                out[e] = c
            elif s := s + c:
                out[e] = s
            else:
                del out[e]
        return _poly(out, den, self.vars)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return _poly({e: -c for e, c in self.num.items()}, self.den, self.vars)

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        out = _mul_num(self.num, other.num)
        return _poly({e: c for e, c in out.items() if c}, self.den * other.den, self.vars)

    def scale(self, c: RationalLike) -> Poly:
        if not isinstance(c, int):
            c = rat(c)
        if not c:
            return _poly({}, 1, self.vars)
        n = c.numerator
        return _poly({e: a * n for e, a in self.num.items()}, self.den * c.denominator, self.vars)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        out = _poly({(0,) * len(self.vars): 1}, 1, self.vars)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, var: str) -> Poly:
        """Partial derivative in the named variable."""
        i = self.vars.index(var)
        return _poly(
            {e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c for e, c in self.num.items() if e[i]},
            self.den,
            self.vars,
        )

    def integrate(self, var: str) -> Poly:
        """Antiderivative in the named variable with zero constant term."""
        i = self.vars.index(var)
        m = lcm(*(e[i] + 1 for e in self.num))
        return _poly(
            {e[:i] + (e[i] + 1,) + e[i + 1:]: c * (m // (e[i] + 1)) for e, c in self.num.items()},
            self.den * m,
            self.vars,
        )

    def truncate(self, max_degree: int) -> Poly:
        """Drop all terms of total degree > max_degree."""
        return _poly({e: c for e, c in self.num.items() if sum(e) <= max_degree}, self.den, self.vars)

    def rename(self, *vars: str) -> Poly:
        """Same coefficients under new variable names (e.g. H -> h)."""
        if len(vars) != len(self.vars):
            raise ValueError("wrong number of variable names")
        return _poly(self.num, self.den, vars)

    def compose_series(self, series: Sequence[Poly]) -> Poly:
        """Substitute series[i] for variable i (the series share variables)."""
        if len(series) != len(self.vars):
            raise ValueError("wrong number of substitution series")
        vars = series[0].vars
        one = (0,) * len(vars)
        out = _poly({}, 1, vars)
        for e, c in self.num.items():
            term = _poly({one: c}, 1, vars)
            for s, k in zip(series, e):
                if k:
                    term = term * (s**k)
            out = out + term
        return _poly(out.num, out.den * self.den, vars)

    def __call__(self, point):
        """Value at a point: a number in one variable, else a sequence.

        Several variables take rational coordinates and are evaluated
        exactly.  One variable is evaluated by Horner's rule: exactly at a
        Fraction, else with the coefficients as floats (complex for a
        complex argument).
        """
        if len(self.vars) != 1:
            vals = [rat(v) for v in point]
            if len(vals) != len(self.vars):
                raise ValueError("wrong number of coordinates")
            total = _ZERO
            for e, c in self.coeffs.items():
                for v, k in zip(vals, e):
                    c *= v**k
                total += c
            return total
        x = point
        if isinstance(x, Fraction):
            conv = Fraction
        else:
            conv = complex if isinstance(x, complex) else float
        if not self.num:
            return _ZERO if conv is Fraction else 0 * x
        acc = conv(self[self.degree()])
        for k in range(self.degree() - 1, -1, -1):
            acc = acc * x + conv(self[k])
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        coeffs = self.coeffs
        # single-letter names juxtapose (x^2y); longer ones multiply (l2*l5^2)
        sep = "" if all(len(v) == 1 for v in self.vars) else "*"
        parts = []
        for e in sorted(coeffs, key=lambda e: (sum(e), e), reverse=True):
            c = coeffs[e]
            mono = sep.join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k)
            if not mono:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# the slots' own setters, which bypass the immutability guard of __setattr__
_set_num, _set_den, _set_vars = Poly.num.__set__, Poly.den.__set__, Poly.vars.__set__


class PolyU:
    """Constructors of univariate polynomials; each returns a :class:`Poly`."""

    def __new__(cls, coeffs: Mapping[int, RationalLike] | None = None, var: str = "h") -> Poly:
        return Poly({(k,): c for k, c in (coeffs or {}).items()}, (var,))

    @staticmethod
    def zero(var: str = "h") -> Poly:
        return _poly({}, 1, (var,))

    @staticmethod
    def const(c: RationalLike, var: str = "h") -> Poly:
        return Poly({(0,): c}, (var,))

    @staticmethod
    def variable(var: str = "h") -> Poly:
        return _poly({(1,): 1}, 1, (var,))

    @staticmethod
    def from_coeff_list(coeffs: Sequence[RationalLike], var: str = "h") -> Poly:
        """Build from [c0, c1, c2, ...] (ascending powers)."""
        return Poly({(k,): c for k, c in enumerate(coeffs)}, (var,))


class PolyXY:
    """Constructors of polynomials in (x, y); each returns a :class:`Poly`."""

    def __new__(cls, coeffs: Mapping[tuple[int, int], RationalLike] | None = None) -> Poly:
        return Poly(coeffs, XY)

    @staticmethod
    def zero() -> Poly:
        return _poly({}, 1, XY)

    @staticmethod
    def const(c: RationalLike) -> Poly:
        return Poly({(0, 0): c}, XY)

    @staticmethod
    def monomial(i: int, j: int, c: RationalLike = 1) -> Poly:
        return Poly({(i, j): c}, XY)


@lru_cache(maxsize=None)
def _lambda_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"l{i+1}" for i in range(nvars))


class MultiPoly:
    """Constructors of polynomials in l1..ln; each returns a :class:`Poly`."""

    def __new__(cls, nvars: int, coeffs: Mapping[tuple[int, ...], RationalLike] | None = None) -> Poly:
        return Poly(coeffs, _lambda_names(nvars))

    @staticmethod
    def zero(nvars: int) -> Poly:
        return _poly({}, 1, _lambda_names(nvars))

    @staticmethod
    def const(nvars: int, c: RationalLike) -> Poly:
        return Poly({(0,) * nvars: c}, _lambda_names(nvars))

    @staticmethod
    def variable(nvars: int, idx: int) -> Poly:
        return _poly({tuple(int(i == idx) for i in range(nvars)): 1}, 1, _lambda_names(nvars))


def hamiltonian_xy(a: RationalLike, b: RationalLike) -> Poly:
    """H(x, y) = y^2/2 + (a/2) x^2 + (b/4) x^4 as an exact polynomial."""
    return PolyXY({(0, 2): Fraction(1, 2), (2, 0): rat(a) / 2, (4, 0): rat(b) / 4})


def substitute_h(
    terms: Mapping[tuple[int, int, int], int | Fraction], H: Poly, den: int = 1
) -> Poly:
    """The polynomial sum of (c / den) H^e x^a y^b over terms {(e, a, b): c}.

    ``H`` is a polynomial in (x, y), the coefficients c are ints or
    Fractions and ``den`` is a positive int.  With H = N / d (N integral)
    and the c written as numerators n over one denominator, the terms are
    grouped by their power of H and summed by Horner's rule in N,
    sum n_e N^e d^(top-e), on ints; the sum is divided once at the end.
    """
    by_power: dict[int, dict[tuple[int, int], int | Fraction]] = {}
    for (e, a, b), c in terms.items():
        if c:
            by_power.setdefault(e, {})[(a, b)] = c
    if not by_power:
        return _poly({}, 1, H.vars)
    m = lcm(*(c.denominator for group in by_power.values() for c in group.values()))
    N, d = H.num, H.den
    top = max(by_power)
    acc: dict[tuple[int, int], int] = {}
    for e in range(top, -1, -1):
        if acc:
            acc = _mul_num(acc, N)
        if e in by_power:
            f = m * d ** (top - e)
            for k, c in by_power[e].items():
                acc[k] = acc.get(k, 0) + c.numerator * (f // c.denominator)
    return _poly({k: c for k, c in acc.items() if c}, den * m * d**top, H.vars)


SparseRow = Mapping[int, RationalLike]


def _sparse_system(
    rows: Sequence[Sequence[RationalLike]] | Sequence[SparseRow],
    rhs: Sequence[RationalLike],
    column_order: Sequence[int] | None,
) -> tuple[list[dict[int, Fraction]], list[Fraction], list[int], int]:
    """Validate [A | b] and copy A to rows {column: nonzero Fraction}.

    Dense rows are sequences of one length; sparse rows are mappings
    {column: coefficient}, with as many columns as ``column_order`` has
    entries, or else one more than the largest column index.  Returns the
    rows, the right-hand side, the column order and the column count.
    """
    b = [rat(c) for c in rhs]
    if len(b) != len(rows):
        raise ValueError("rhs length mismatch")
    sparse = bool(rows) and isinstance(rows[0], Mapping)
    if any(isinstance(row, Mapping) != sparse for row in rows):
        raise ValueError("mixed dense and sparse rows")
    if sparse:
        a = [{c: q for c, v in row.items() if (q := rat(v))} for row in rows]
        if column_order is not None:
            n = len(column_order)
        else:
            n = 1 + max((c for row in a for c in row), default=-1)
        if any(not 0 <= c < n for row in a for c in row):
            raise ValueError("column index out of range")
    else:
        n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise ValueError("ragged matrix")
        a = [{c: q for c, v in enumerate(row) if (q := rat(v))} for row in rows]
    order = list(column_order) if column_order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("column_order must be a permutation")
    return a, b, order, n


def _rref(rows: list[dict[int, Fraction]], rhs: list[Fraction], order: list[int]) -> list[tuple[int, int]]:
    """Reduce the rows {column: nonzero Fraction} and rhs in place; return the pivots.

    Columns are visited in ``order``; the pivot row is the first remaining
    row with a nonzero entry in the column, swapped into place.
    ``holding[c]`` is the set of rows with a nonzero entry in column c, so a
    pivot search and an elimination step touch only the rows that hold the
    column.
    """
    m = len(rows)
    holding: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            holding.setdefault(c, set()).add(r)
    pivots: list[tuple[int, int]] = []
    row_at = 0
    for col in order:
        if row_at == m:
            break
        piv = min((r for r in holding.get(col, ()) if r >= row_at), default=None)
        if piv is None:
            continue
        if piv != row_at:
            for r in (row_at, piv):
                for c in rows[r]:
                    holding[c].discard(r)
            rows[row_at], rows[piv] = rows[piv], rows[row_at]
            rhs[row_at], rhs[piv] = rhs[piv], rhs[row_at]
            for r in (row_at, piv):
                for c in rows[r]:
                    holding[c].add(r)
        inv = 1 / rows[row_at][col]
        prow = rows[row_at] = {c: v * inv for c, v in rows[row_at].items()}
        pb = rhs[row_at] = rhs[row_at] * inv
        for r in [r for r in holding[col] if r != row_at]:
            row = rows[r]
            f = row[col]
            for c, p in prow.items():
                v = row.get(c)
                if v is None:
                    row[c] = -f * p
                    holding[c].add(r)
                elif v := v - f * p:
                    row[c] = v
                else:
                    del row[c]
                    holding[c].discard(r)
            rhs[r] -= f * pb
        pivots.append((row_at, col))
        row_at += 1
    return pivots


def row_reduce(
    rows: Sequence[Sequence[RationalLike]] | Sequence[SparseRow],
    rhs: Sequence[RationalLike],
    column_order: Sequence[int] | None = None,
) -> tuple[list[list[Fraction]], list[Fraction], list[tuple[int, int]]]:
    """Reduced row echelon form of the augmented system [A | b], as dense rows.

    Deterministic pivot rule: columns are visited in ``column_order``
    (identity by default), the pivot row is the first remaining row with a
    nonzero entry, and it is swapped into place.  The rows may be dense or
    sparse (see :func:`solve_linear_exact`); the elimination is the sparse
    one of :func:`solve_linear_exact`, and the result is the unique RREF
    for the column order.  Returns the reduced rows, the reduced
    right-hand side, and the pivots as (row, column) pairs; rows after the
    last pivot are zero in A.
    """
    a, b, order, n = _sparse_system(rows, rhs, column_order)
    pivots = _rref(a, b, order)
    return [[row.get(c, _ZERO) for c in range(n)] for row in a], b, pivots


def solve_linear_exact(
    rows: Sequence[Sequence[RationalLike]] | Sequence[SparseRow],
    rhs: Sequence[RationalLike],
    column_order: Sequence[int] | None = None,
) -> list[Fraction] | None:
    """Solve A x = b exactly over the rationals.

    The rows of A are dense sequences of one length, or sparse mappings
    {column: coefficient}; sparse rows have as many columns as
    ``column_order`` has entries, or else one more than the largest column
    index.  Gauss-Jordan elimination on sparse rows, with an index from
    each column to the rows that hold it, under the deterministic pivot
    rule of :func:`row_reduce` (callers pass a graded-lex order over their
    unknowns as ``column_order``); free variables are set to zero.  Returns
    one exact solution or None when the system is inconsistent.  The
    result always satisfies A x - b = 0 exactly.
    """
    a, b, order, n = _sparse_system(rows, rhs, column_order)
    pivots = _rref(a, b, order)
    if any(b[len(pivots):]):
        return None
    x = [_ZERO] * n
    for r, col in pivots:
        x[col] = b[r]
    return x
