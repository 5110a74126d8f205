"""Command-line interface.

Symbolic subcommands print exact rationals as "num/den" strings and are
byte-reproducible; numeric subcommands record their seed and tolerance.
CSV emitters are the designated plot output; there is no plotting here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import catalog
from .bautin import MembershipError, bautin_generators, nakayama_certify
from .elliptic import case_grid, periods_complex, periods_real, pf_residual
from .exactalg import MultiPoly, Poly, PolyXY, rat, rat_str
from .forms import CASES, SIGN_CASES, OneForm, get_case, reduce as reduce_form, verify_decomposition
from .melnikov import AllVanishedReport, MelnikovResult, ParamArc, melnikov
from .simulate import SimConfig, default_x_window, find_limit_cycles, poincare_scan
from .zeros import ContourSpec, VElement, count_zeros_real, winding_number_F


def _poly_u_json(p: Poly) -> list[str]:
    return [rat_str(c) for c in p.coeff_list()]


def _poly_xy_json(p: Poly) -> dict[str, str]:
    return {f"{i},{j}": rat_str(c) for (i, j), c in sorted(p.coeffs.items())}


_FORM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?:(?P<x>x)(?:\^(?P<xp>\d+))?)?\s*(?:(?P<y>y)(?:\^(?P<yp>\d+))?)?\s*(?:dx)?\s*$"
)


def parse_monomial_form(text: str) -> OneForm:
    """Parse a monomial specification like 'y^3 dx' or '3/7 x^2 y^5 dx'."""
    m = _FORM_RE.match(text)
    if not m or not text.strip():
        raise ValueError(f"cannot parse form spec {text!r}")
    coef = rat(m["coef"]) if m["coef"] else Fraction(1)
    xp = int(m["xp"] or 1) if m["x"] else 0
    yp = int(m["yp"] or 1) if m["y"] else 0
    return OneForm(PolyXY.monomial(xp, yp, coef))


def _complex_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _file_rational(value, path: str) -> Fraction:
    """A coefficient read from the JSON file ``path``: an int or a 'num/den' string."""
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{path}: not an exact rational: {value!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    case = get_case(args.case)
    dec = reduce_form(args.form.value, case, method=args.method)
    _emit({"case": case.name, "form": args.form.text, "u": _poly_u_json(dec.u),
           "v": _poly_u_json(dec.v), "r": _poly_xy_json(dec.r), "R": _poly_xy_json(dec.R)})
    return 0


def _cmd_melnikov(args) -> int:
    case = get_case(args.case)
    with open(args.arc) as fh:
        data = json.load(fh)
    rows = []
    for row in data["lambda"]:
        if not isinstance(row, list):
            raise ValueError(f"{args.arc}: each lambda row must be a list, got {row!r}")
        rows.append([_file_rational(c, args.arc) for c in row])
    res = melnikov(ParamArc.from_rows(rows), case, max_order=args.max_order)
    if isinstance(res, AllVanishedReport):
        _emit({"case": case.name, "all_vanished": True, "max_order": res.max_order,
               "arc_is_zero": res.arc_is_zero})
    else:
        _emit({"case": case.name, "order": res.order, "p": _poly_u_json(res.p),
               "q": _poly_u_json(res.q)})
    return 0


def _cmd_bautin(args) -> int:
    gens = bautin_generators(args.a, args.b)
    _emit({"a": rat_str(gens.a), "b": rat_str(gens.b), "generators": [str(g) for g in gens]})
    return 0


def _cmd_nakayama(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    # each polynomial is a list of [exponents, coefficient] terms
    nv = int(data["nvars"])
    b, b0 = ([MultiPoly(nv, {tuple(e): _file_rational(c, args.input) for e, c in terms})
              for terms in data[key]]
             for key in ("b", "b0"))
    try:
        cert = nakayama_certify(b, b0, args.cap)
    except MembershipError as exc:
        _emit({"certified": False, "offending_monomial": list(exc.monomial)})
        return 1
    entries = [[str(e) for e in row] for row in cert.entries]
    _emit({"certified": True, "cap": cert.truncation_degree, "matrix": entries})
    return 0


def _cmd_periods(args) -> int:
    case = get_case(args.case)
    if args.grid:
        hs = case_grid(case, args.grid)
        print("h,I0,I2,J0,J2")
        for h in hs:
            pv = periods_real(case, float(h), args.tol)
            print(f"{float(h)!r},{pv.I0!r},{pv.I2!r},{pv.J0!r},{pv.J2!r}")
        return 0
    h = args.h.value
    if h.imag == 0.0 and case.contains_h(h.real):
        pv = periods_real(case, h.real, args.tol)
    else:
        if case.name != "eight-exterior":
            raise ValueError(
                f"h={args.h.text} is outside the {case.name} interval; complex "
                "continuation is provided on the eight-exterior domain only"
            )
        pv = periods_complex(h, tol=args.tol)
    _emit({"case": case.name, "branch": pv.branch_tag, "est_error": pv.est_error,
           **{key: _complex_json(getattr(pv, key)) for key in ("h", "I0", "I2", "J0", "J2")}})
    return 0


# pfcheck passes below this multiple of --tol: the identities multiply period
# values (each within its closed form's rounding bound) by coefficients up to
# |12bh + 4a^2|, about 1.2e4 at h = 1e3, the unbounded annuli's top probe level
PFCHECK_RESIDUAL_FACTOR = 1e4


def _cmd_pfcheck(args) -> int:
    case = get_case(args.case)
    worst = max(max(pf_residual(case, float(h), args.tol)) for h in case_grid(case, args.grid))
    print(f"{case.name}: {args.grid} levels, max residual {worst:.3e}")
    return 0 if worst <= PFCHECK_RESIDUAL_FACTOR * args.tol else 1


def _cmd_zeros(args) -> int:
    case = get_case(args.case)
    if args.random:
        rng = np.random.default_rng(args.seed)
        print(f"# seed={args.seed} case={case.name} n={args.random}")
        print("count,frequency")
        hist: dict[int, int] = {}
        uncertified = 0
        for _ in range(args.random):
            pc = [Fraction(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
            qc = [Fraction(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
            e = VElement.from_coeffs(pc, qc, case)
            rep = count_zeros_real(e, grid=args.grid, tol=args.tol)
            hist[rep.count] = hist.get(rep.count, 0) + 1
            uncertified += not rep.certified
        for c in sorted(hist):
            print(f"{c},{hist[c]}")
        print(f"# uncertified={uncertified} of {args.random}")
        return 0
    rep = count_zeros_real(VElement.from_coeffs(args.p, args.q, case), grid=args.grid, tol=args.tol)
    _emit({"case": case.name, **dataclasses.asdict(rep)})
    return 0


def _cmd_argwind(args) -> int:
    e = VElement.from_coeffs(args.p, args.q, CASES["eight-exterior"], basis="J")
    spec = ContourSpec(R=args.R, delta=args.delta)
    winding, estimate = winding_number_F(e, spec)
    _emit({"method": "argument-principle", "winding": winding, "zero_bound_estimate": estimate,
           "R": spec.R, "delta": spec.delta,
           "note": "zeros within delta of the cut or beyond R are not counted"})
    return 0


def _cmd_simulate(args) -> int:
    case = get_case(args.case)
    cfg = SimConfig(case=case, lam=args.lam, eps=args.eps)
    if args.csv:
        samples = poincare_scan(cfg, np.linspace(*default_x_window(case), args.grid))
        print("x0,h,d,return_time")
        for s in samples:
            if s is not None:
                print(f"{s.x0!r},{s.h!r},{s.d!r},{s.return_time!r}")
        escaped = samples.count(None)
        print(f"skipped {escaped} of {len(samples)} start points (escaped)", file=sys.stderr)
        return 0
    cycles = find_limit_cycles(cfg, grid=args.grid)
    _emit({"case": case.name, "eps": args.eps, "cycles": cycles, "count": len(cycles)})
    return 0


def _cmd_validate_appendix(args) -> int:
    entries = catalog.all_entries()
    ok = 0
    for entry in entries:
        ident_ok = verify_decomposition(entry.form, entry.decomposition, entry.case)
        dec = reduce_form(entry.form, entry.case)
        uv_ok = dec.u == entry.decomposition.u and dec.v == entry.decomposition.v
        ok += ident_ok and uv_ok
        print(f"{entry.ident:16s} identity={'ok' if ident_ok else 'FAIL'} "
              f"reduce-uv={'ok' if uv_ok else 'FAIL'}")
    print(f"{ok}/{len(entries)} decompositions verified")
    return 0 if ok == len(entries) else 1


def _cmd_validate_theorems(args) -> int:
    failures = 0
    for case in SIGN_CASES:
        for j in range(1, 7):
            res = melnikov(ParamArc.linear([int(i == j) for i in range(1, 7)]), case, max_order=1)
            ok = isinstance(res, MelnikovResult) and res.order == 1
            print(f"first-order {case.name} lambda_{j}: order "
                  f"{res.order if ok else '??'} {'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
        sgn_2 = -3 * case.a
        sgn_4 = -3 * case.b
        for c in (1, 2, -3):
            arc = ParamArc.linear([0, sgn_2 * c, c, sgn_4 * c, 0, 0])
            res = melnikov(arc, case)
            ok = isinstance(res, MelnikovResult) and res.order == 3
            if ok:
                base = melnikov(ParamArc.linear([0, sgn_2, 1, sgn_4, 0, 0]), case)
                ok = (res.p, res.q) == (base.p.scale(c**3), base.q.scale(c**3))
            print(f"cubic {case.name} c={c}: {'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    print("all theorem fixtures verified" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# argparse types: each flag's text is parsed and checked here, once, so that
# argparse names the flag when a value is rejected and no handler parses text
# --------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of a grid size: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _finite_float(text: str) -> float:
    """argparse type of a real parameter: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _finite_floats(text: str) -> tuple[float, ...]:
    """argparse type of --lambda: comma-separated finite floats."""
    return tuple(_finite_float(tok) for tok in text.split(","))


def _rational(text: str) -> Fraction:
    """argparse type of an exact coefficient ('1/3', '-2', '0.25') within float range."""
    try:
        c = rat(text)
        if math.isfinite(float(c)):
            return c
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"expected a rational such as 1/3, -2 or 0.25, got {text!r}")


def _rationals(text: str) -> list[Fraction]:
    """argparse type of a coefficient list: comma-separated rationals, maybe none."""
    return [_rational(tok) for tok in text.split(",")] if text.strip() else []


class _Parsed(NamedTuple):
    """A flag's value beside the stripped text it was parsed from."""

    text: str
    value: object


def _form(text: str) -> _Parsed:
    """argparse type of --form: a monomial one-form, kept with its text."""
    try:
        return _Parsed(text.strip(), parse_monomial_form(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _level(text: str) -> _Parsed:
    """argparse type of --h: a finite real or complex level ('0.5', '1+0.5j' or '1+0.5i')."""
    try:
        h = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        h = complex(math.nan)
    if not (math.isfinite(h.real) and math.isfinite(h.imag)):
        raise argparse.ArgumentTypeError(f"expected a finite real or complex level, got {text!r}")
    return _Parsed(text.strip(), h)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="raylien",
        description="Limit-cycle toolkit for the perturbed Rayleigh-Lienard oscillator",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    on_case = argparse.ArgumentParser(add_help=False)
    on_case.add_argument("--case", required=True, choices=sorted(CASES))

    p = sub.add_parser("reduce", parents=[on_case],
                       help="canonical decomposition of a monomial one-form")
    p.add_argument("--form", required=True, type=_form, help="monomial, e.g. 'y^3 dx'")
    p.add_argument("--method", default="rewrite", choices=("rewrite", "ansatz"))
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("melnikov", parents=[on_case], help="first nonvanishing order along an arc")
    p.add_argument("--arc", required=True, help="JSON file {'lambda': [6 rows of coefficients]}")
    p.add_argument("--max-order", type=int, default=9, dest="max_order")
    p.set_defaults(func=_cmd_melnikov)

    p = sub.add_parser("bautin", help="ideal generators for the sign case (a, b)")
    p.add_argument("--a", required=True, type=_rational)
    p.add_argument("--b", required=True, type=_rational)
    p.set_defaults(func=_cmd_bautin)

    p = sub.add_parser("nakayama", help="certify equality of local ideals")
    p.add_argument("--input", required=True, help="JSON {'nvars', 'b', 'b0'}")
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=_cmd_nakayama)

    p = sub.add_parser("periods", parents=[on_case], help="period values at one level or on a grid")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--h", type=_level, help="real or complex level, e.g. 0.5 or '1+0.5j'")
    level.add_argument("--grid", type=_positive_int, help="emit CSV on a probe grid of this size")
    p.add_argument("--tol", type=_finite_float, default=1e-12, help="relative accuracy, >= 1e-14: "
                   "the most a closed form's rounding bound may be, else an error")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("pfcheck", parents=[on_case], help="Picard-Fuchs residuals on a grid")
    p.add_argument("--grid", type=_positive_int, default=50)
    p.add_argument("--tol", type=_finite_float, default=1e-12, help="relative accuracy of the "
                   "periods, >= 1e-14; passes if no residual is above "
                   f"{PFCHECK_RESIDUAL_FACTOR:g} * tol")
    p.set_defaults(func=_cmd_pfcheck)

    p = sub.add_parser("zeros", parents=[on_case], help="zero count of p(h) I2 + q(h) I0")
    p.add_argument("--p", type=_rationals, default="", help="comma-separated coefficients c0,c1,c2")
    p.add_argument("--q", type=_rationals, default="", help="comma-separated coefficients c0,c1,c2")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--tol", type=_finite_float, default=1e-12, help="relative accuracy of the "
                   "periods, >= 1e-14; also the level, relative to the terms, under which a "
                   "dip is probed")
    p.add_argument("--random", type=_positive_int, default=0, help="batch: count N random elements")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("argwind", help="argument-principle winding on the cut plane")
    p.add_argument("--p", type=_rationals, default="", help="ptilde coefficients c0,c1,c2")
    p.add_argument("--q", type=_rationals, default="", help="qtilde coefficients c0,c1,c2")
    p.add_argument("--R", type=_finite_float, default=1e3)
    p.add_argument("--delta", type=_finite_float, default=1e-3)
    p.set_defaults(func=_cmd_argwind)

    p = sub.add_parser("simulate", parents=[on_case],
                       help="Poincare displacement scan / limit cycles")
    p.add_argument("--lambda", required=True, type=_finite_floats, dest="lam",
                   help="6 comma-separated floats")
    p.add_argument("--eps", type=_finite_float, default=1e-3)
    p.add_argument("--grid", type=_positive_int, default=200)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate-appendix", help="verify the built-in reduction catalog")
    p.set_defaults(func=_cmd_validate_appendix)

    p = sub.add_parser("validate-theorems", help="verify first- and third-order tables")
    p.set_defaults(func=_cmd_validate_theorems)

    return ap


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
