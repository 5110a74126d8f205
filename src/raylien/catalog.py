"""Reference catalog of hand-derived canonical decompositions.

Each entry records a monomial one-form together with a full (u, v, r, R)
quadruple valid for one Hamiltonian sign case.  The catalog serves two
purposes: the quadruples are verified exactly as identities, and the
reduction engine must independently reproduce each (u, v) pair.

Only the nine global-center entries are tabulated; the truncated-pendulum
and figure-eight entries are their images under a complex scaling of x and
y (:func:`_image`).  Entries ``gc-xky2`` and ``gc-xky4`` are one-parameter
families in the x-power k; the catalog holds them at k = 2, and
:func:`instantiate` produces any other k.

(r, R) representatives here generally differ from what the reduction
engines emit; both satisfy the same identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exactalg import Poly, PolyU, PolyXY, substitute_h
from .forms import (
    AnnulusCase,
    CanonicalDecomposition,
    EIGHT_INTERIOR,
    GLOBAL_CENTER,
    OneForm,
    TRUNCATED_PENDULUM,
)

F = Fraction


@dataclass(frozen=True)
class CatalogEntry:
    ident: str
    case: AnnulusCase
    form: OneForm
    decomposition: CanonicalDecomposition
    family_k: int | None = None  # set when the entry is an instance of a k-family


def _mono(i: int, j: int) -> OneForm:
    return OneForm(PolyXY.monomial(i, j))


def _entry(ident, case, form, u, v, r_terms, R_terms, family_k=None) -> CatalogEntry:
    """u, v are {e: c} for polynomials in H; r_terms and R_terms are
    {(e, a, b): c} for sums of c * H^e x^a y^b."""
    H = case.hamiltonian()
    dec = CanonicalDecomposition(
        PolyU(u, "H"), PolyU(v, "H"), substitute_h(r_terms, H), substitute_h(R_terms, H)
    )
    return CatalogEntry(ident, case, form, dec, family_k)


# -- k-families (global center only) -----------------------------------------
#
# x^k y^2 dx = -2/(k+1) x^(k+1) dH
#              + d[ 2H/(k+1) x^(k+1) - 1/(k+3) x^(k+3) - 1/(2(k+5)) x^(k+5) ]
# x^k y^4 dx = -( 8H/(k+1) x^(k+1) - 4/(k+3) x^(k+3) - 2/(k+5) x^(k+5) ) dH
#              + d[ (4H^2/(k+1) - 4H/(k+3) x^2 + (1 - 2H)/(k+5) x^4
#                    + 1/(k+7) x^6 + 1/(4(k+9)) x^8) x^(k+1) ]


def family_xky2(case: AnnulusCase, k: int) -> CatalogEntry:
    if case.name != "global-center":
        raise ValueError("the x^k y^2 family is tabulated for the global center only")
    return _entry(
        f"gc-xky2[k={k}]",
        case,
        _mono(k, 2),
        {},
        {},
        {(0, k + 1, 0): F(-2, k + 1)},
        {
            (1, k + 1, 0): F(2, k + 1),
            (0, k + 3, 0): F(-1, k + 3),
            (0, k + 5, 0): F(-1, 2 * (k + 5)),
        },
        family_k=k,
    )


def family_xky4(case: AnnulusCase, k: int) -> CatalogEntry:
    if case.name != "global-center":
        raise ValueError("the x^k y^4 family is tabulated for the global center only")
    return _entry(
        f"gc-xky4[k={k}]",
        case,
        _mono(k, 4),
        {},
        {},
        {
            (1, k + 1, 0): F(-8, k + 1),
            (0, k + 3, 0): F(4, k + 3),
            (0, k + 5, 0): F(2, k + 5),
        },
        {
            (2, k + 1, 0): F(4, k + 1),
            (1, k + 3, 0): F(-4, k + 3),
            (0, k + 5, 0): F(1, k + 5),
            (1, k + 5, 0): F(-2, k + 5),
            (0, k + 7, 0): F(1, k + 7),
            (0, k + 9, 0): F(1, 4 * (k + 9)),
        },
        family_k=k,
    )


def _global_center() -> list[CatalogEntry]:
    c = GLOBAL_CENTER
    return [
        # gc-1: y^3 dx
        _entry(
            "gc-1",
            c,
            _mono(0, 3),
            {0: F(-3, 7)},
            {1: F(12, 7)},
            {(0, 1, 1): F(-3, 7)},
            {(0, 1, 3): F(1, 7)},
        ),
        # gc-2: x^4 y dx
        _entry(
            "gc-2",
            c,
            _mono(4, 1),
            {0: F(-8, 7)},
            {1: F(4, 7)},
            {(0, 1, 1): F(6, 7)},
            {(0, 1, 3): F(-2, 7)},
        ),
        # gc-3: y^5 dx
        _entry(
            "gc-3",
            c,
            _mono(0, 5),
            {1: F(-320, 231), 0: F(-40, 231)},
            {2: F(240, 77), 1: F(20, 231)},
            {
                (0, 1, 1): F(10, 77),
                (0, 3, 1): F(5, 33),
                (1, 1, 1): F(-60, 77),
                (0, 1, 3): F(-5, 7),
            },
            {
                (1, 1, 3): F(20, 77),
                (0, 1, 5): F(1, 11),
                (0, 1, 3): F(-10, 231),
                (0, 3, 3): F(-5, 99),
            },
        ),
        # gc-4: x^6 y dx
        _entry(
            "gc-4",
            c,
            _mono(6, 1),
            {1: F(4, 3), 0: F(32, 21)},
            {1: F(-16, 21)},
            {(0, 3, 1): F(2, 3), (0, 1, 1): F(-8, 7)},
            {(0, 3, 3): F(-2, 9), (0, 1, 3): F(8, 21)},
        ),
        # gc-5: x^2 y^3 dx
        _entry(
            "gc-5",
            c,
            _mono(2, 3),
            {1: F(4, 3), 0: F(8, 21)},
            {1: F(-4, 21)},
            {(0, 1, 1): F(-2, 7), (0, 3, 1): F(-1, 3)},
            {(0, 3, 3): F(1, 9), (0, 1, 3): F(2, 21)},
        ),
        # gc-6: x^2 y^5 dx
        _entry(
            "gc-6",
            c,
            _mono(2, 5),
            {2: F(80, 39), 1: F(3620, 3003), 0: F(160, 1001)},
            {2: F(-1600, 3003), 1: F(-80, 1001)},
            {
                (1, 1, 1): F(-380, 1001),
                (1, 3, 1): F(-20, 39),
                (0, 1, 3): F(-130, 273),
                (0, 3, 3): F(-5, 9),
                (0, 3, 1): F(-20, 143),
                (0, 1, 1): F(-120, 1001),
            },
            {
                (0, 3, 5): F(1, 13),
                (0, 1, 5): F(10, 143),
                (1, 3, 3): F(20, 117),
                (0, 3, 3): F(20, 429),
                (0, 1, 3): F(40, 1001),
                (1, 1, 3): F(380, 3003),
            },
        ),
        # gc-7: x y^4 dx
        _entry(
            "gc-7",
            c,
            _mono(1, 4),
            {},
            {},
            {
                (1, 2, 0): F(-8, 3),
                (0, 2, 0): F(-2, 3),
                (0, 0, 2): F(-2, 3),
                (0, 2, 2): F(-2, 3),
            },
            {
                (2, 2, 0): F(2),
                (2, 0, 0): F(2, 3),
                (1, 4, 0): F(-1),
                (0, 6, 0): F(1, 6),
                (1, 6, 0): F(-1, 3),
                (0, 8, 0): F(1, 8),
                (0, 10, 0): F(1, 40),
            },
        ),
        # gc-8 / gc-9: the k-families at their default instance
        family_xky2(c, 2),
        family_xky4(c, 2),
    ]


def _image(entry: CatalogEntry, ident: str, case: AnnulusCase, ps: int, pt: int) -> CatalogEntry:
    """A global-center entry carried to ``case`` by x = s X, y = t Y, s = i^ps, t = i^pt.

    H_gc(sX, tY) = t^2 H(X, Y) of ``case``, so the identity for x^alpha y^beta
    dx, divided by s^(alpha+1) t^beta, is the identity for X^alpha Y^beta dX:
    a term x^a y^b of R gains s^a t^b, one of r gains s^a t^b t^2 (from dH),
    the H^e coefficient of u gains t^(2e) s^3 t and that of v gains
    t^(2e) s t.  Every such power of i must be even for a real image.
    """
    ((alpha, beta),) = entry.form.P.coeffs
    base = (alpha + 1) * ps + beta * pt

    def scaled(p: Poly, power: Callable[..., int]) -> Poly:
        out = {}
        for e, c in p.coeffs.items():
            n = power(*e) - base
            if n % 2:
                raise ValueError(f"{entry.ident}: term {e} of {p} has no real image in {case.name}")
            out[e] = -c if n % 4 else c
        return Poly(out, p.vars)

    d = entry.decomposition
    return CatalogEntry(ident, case, entry.form, CanonicalDecomposition(
        scaled(d.u, lambda e: 2 * e * pt + 3 * ps + pt),
        scaled(d.v, lambda e: 2 * e * pt + ps + pt),
        scaled(d.r, lambda a, b: a * ps + b * pt + 2 * pt),
        scaled(d.R, lambda a, b: a * ps + b * pt),
    ))


def all_entries() -> list[CatalogEntry]:
    """All 23 catalog entries (families at their default k = 2).

    The nine global-center entries, then the images of gc-1..gc-7 on the
    truncated pendulum (x = iX, y = iY, H_gc = -H_tp) and on the figure
    eight (x = iX, H_gc = H_el).  The figure-eight reduction depends on
    (a, b) only, so its entries carry the interior annulus and hold for
    the exterior too.
    """
    gc = _global_center()
    return (
        gc
        + [_image(e, f"tp-{k}", TRUNCATED_PENDULUM, 1, 1) for k, e in enumerate(gc[:7], 1)]
        + [_image(e, f"el-{k}", EIGHT_INTERIOR, 1, 0) for k, e in enumerate(gc[:7], 1)]
    )


FAMILIES: dict[str, Callable[[AnnulusCase, int], CatalogEntry]] = {
    "xky2": family_xky2,
    "xky4": family_xky4,
}


def instantiate(family: str, case: AnnulusCase, k: int) -> CatalogEntry:
    """Instantiate a k-family entry for an arbitrary x-power k >= 0."""
    return FAMILIES[family](case, k)
