"""Command-line interface.

Symbolic subcommands print exact rationals as "num/den" strings and are
byte-reproducible; numeric subcommands record their seed and tolerance.
CSV emitters are the designated plot output; there is no plotting here.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import catalog
from .bautin import MembershipError, bautin_generators, nakayama_certify
from .elliptic import case_grid, periods_complex, periods_real, pf_residual
from .exactalg import MultiPoly, Poly, PolyXY, rat, rat_str
from .forms import CASES, OneForm, get_case, reduce as reduce_form
from .melnikov import AllVanishedReport, ParamArc, melnikov
from .simulate import SimConfig, default_x_window, find_limit_cycles, poincare_scan
from .zeros import ContourSpec, VElement, count_zeros_real, winding_number_F


def _poly_u_json(p: Poly) -> list[str]:
    return [rat_str(c) for c in p.coeff_list()]


def _poly_xy_json(p: Poly) -> dict[str, str]:
    return {f"{i},{j}": rat_str(c) for (i, j), c in sorted(p.coeffs.items())}


_FORM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?:x(?:\^(?P<xp>\d+))?)?\s*(?:y(?:\^(?P<yp>\d+))?)?\s*(?:dx)?\s*$"
)


def parse_monomial_form(text: str) -> OneForm:
    """Parse a monomial specification like 'y^3 dx' or '3/7 x^2 y^5 dx'."""
    m = _FORM_RE.match(text)
    if not m or not text.strip():
        raise ValueError(f"cannot parse form spec {text!r}")
    coef = rat(m.group("coef")) if m.group("coef") else Fraction(1)
    xp = int(m.group("xp")) if m.group("xp") else (1 if _mentions(text, "x") else 0)
    yp = int(m.group("yp")) if m.group("yp") else (1 if _mentions(text, "y") else 0)
    return OneForm(PolyXY.monomial(xp, yp, coef))


def _mentions(text: str, var: str) -> bool:
    body = text.replace("dx", " ")
    return var in body


def _parse_coeff_list(text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    return [rat(tok) if "/" in tok else Fraction(tok) for tok in text.split(",")]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    case = get_case(args.case)
    omega = parse_monomial_form(args.form)
    dec = reduce_form(omega, case, method=args.method)
    _emit(
        {
            "case": case.name,
            "form": args.form.strip(),
            "u": _poly_u_json(dec.u),
            "v": _poly_u_json(dec.v),
            "r": _poly_xy_json(dec.r),
            "R": _poly_xy_json(dec.R),
        }
    )
    return 0


def _cmd_melnikov(args) -> int:
    case = get_case(args.case)
    with open(args.arc) as fh:
        data = json.load(fh)
    arc = ParamArc.from_rows([[rat(c) for c in row] for row in data["lambda"]])
    res = melnikov(arc, case, max_order=args.max_order)
    if isinstance(res, AllVanishedReport):
        _emit(
            {
                "case": case.name,
                "all_vanished": True,
                "max_order": res.max_order,
                "arc_is_zero": res.arc_is_zero,
            }
        )
        return 0
    _emit(
        {
            "case": case.name,
            "order": res.order,
            "p": _poly_u_json(res.p),
            "q": _poly_u_json(res.q),
        }
    )
    return 0


def _cmd_bautin(args) -> int:
    gens = bautin_generators(rat(args.a), rat(args.b))
    _emit(
        {
            "a": rat_str(gens.a),
            "b": rat_str(gens.b),
            "generators": [str(g) for g in gens.generators],
        }
    )
    return 0


def _parse_multipoly(nvars: int, terms) -> Poly:
    return MultiPoly(nvars, {tuple(e): rat(c) for e, c in terms})


def _cmd_nakayama(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    nv = int(data["nvars"])
    b = [_parse_multipoly(nv, t) for t in data["b"]]
    b0 = [_parse_multipoly(nv, t) for t in data["b0"]]
    try:
        cert = nakayama_certify(b, b0, args.cap)
    except MembershipError as exc:
        _emit({"certified": False, "offending_monomial": list(exc.monomial)})
        return 1
    entries = [[str(e) for e in row] for row in cert.entries]
    _emit({"certified": True, "cap": cert.truncation_degree, "matrix": entries})
    return 0


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


def _cmd_periods(args) -> int:
    case = get_case(args.case)
    if args.grid:
        hs = case_grid(case, args.grid)
        print("h,I0,I2,J0,J2")
        for h in hs:
            pv = periods_real(case, float(h), args.tol)
            print(f"{float(h)!r},{pv.I0!r},{pv.I2!r},{pv.J0!r},{pv.J2!r}")
        return 0
    h = _parse_complex(args.h)
    if h.imag == 0.0 and case.contains_h(h.real):
        pv = periods_real(case, h.real, args.tol)
    else:
        if case.name != "eight-exterior":
            raise ValueError(
                f"h={args.h} is outside the {case.name} interval; complex "
                "continuation is provided on the eight-exterior domain only"
            )
        pv = periods_complex(h, tol=args.tol)
    _emit(
        {
            "case": case.name,
            "h": [pv.h.real if isinstance(pv.h, complex) else float(pv.h),
                  pv.h.imag if isinstance(pv.h, complex) else 0.0],
            "I0": [complex(pv.I0).real, complex(pv.I0).imag],
            "I2": [complex(pv.I2).real, complex(pv.I2).imag],
            "J0": [complex(pv.J0).real, complex(pv.J0).imag],
            "J2": [complex(pv.J2).real, complex(pv.J2).imag],
            "branch": pv.branch_tag,
            "est_error": pv.est_error,
        }
    )
    return 0


# pfcheck passes below this multiple of --tol: the identities multiply period
# values (each within its closed form's rounding bound) by coefficients up to
# |12bh + 4a^2|, about 1.2e4 at h = 1e3, the unbounded annuli's top probe level
PFCHECK_RESIDUAL_FACTOR = 1e4


def _cmd_pfcheck(args) -> int:
    case = get_case(args.case)
    hs = case_grid(case, args.grid)
    worst = 0.0
    for h in hs:
        r1, r2 = pf_residual(case, float(h), args.tol)
        worst = max(worst, r1, r2)
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
    e = VElement.from_coeffs(_parse_coeff_list(args.p), _parse_coeff_list(args.q), case)
    rep = count_zeros_real(e, grid=args.grid, tol=args.tol)
    _emit(
        {
            "case": case.name,
            "method": rep.method,
            "count": rep.count,
            "locations": [[h, m] for h, m in rep.locations],
            "bound": rep.bound,
            "certified": rep.certified,
            "window": list(rep.window),
            "notes": rep.notes,
        }
    )
    return 0


def _cmd_argwind(args) -> int:
    e = VElement.from_coeffs(
        _parse_coeff_list(args.p), _parse_coeff_list(args.q), CASES["eight-exterior"], basis="J"
    )
    spec = ContourSpec(R=args.R, delta=args.delta)
    winding, estimate = winding_number_F(e, spec)
    _emit(
        {
            "method": "argument-principle",
            "winding": winding,
            "zero_bound_estimate": estimate,
            "R": spec.R,
            "delta": spec.delta,
            "note": "zeros within delta of the cut or beyond R are not counted",
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    case = get_case(args.case)
    lam = tuple(float(c) for c in args.lam.split(","))
    cfg = SimConfig(case=case, lam=lam, eps=args.eps)
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
    _emit(
        {
            "case": case.name,
            "eps": args.eps,
            "cycles": [[h, s] for h, s in cycles],
            "count": len(cycles),
        }
    )
    return 0


def _cmd_validate_appendix(args) -> int:
    from .forms import verify_decomposition

    entries = catalog.all_entries()
    ok = 0
    for entry in entries:
        ident_ok = verify_decomposition(entry.form, entry.decomposition, entry.case)
        dec = reduce_form(entry.form, entry.case)
        uv_ok = dec.u == entry.decomposition.u and dec.v == entry.decomposition.v
        status = "ok" if (ident_ok and uv_ok) else "FAIL"
        if status == "ok":
            ok += 1
        print(f"{entry.ident:16s} identity={'ok' if ident_ok else 'FAIL'} "
              f"reduce-uv={'ok' if uv_ok else 'FAIL'}")
    print(f"{ok}/{len(entries)} decompositions verified")
    return 0 if ok == len(entries) else 1


def _cmd_validate_theorems(args) -> int:
    from .melnikov import MelnikovResult

    failures = 0
    for case_name in ("global-center", "truncated-pendulum", "eight-interior"):
        case = get_case(case_name)
        for j in range(1, 7):
            coeffs = [0] * 6
            coeffs[j - 1] = 1
            res = melnikov(ParamArc.linear(coeffs), case, max_order=1)
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
                base = melnikov(
                    ParamArc.linear([0, sgn_2, 1, sgn_4, 0, 0]), case
                )
                ok = res.p == base.p.scale(Fraction(c) ** 3) and res.q == base.q.scale(
                    Fraction(c) ** 3
                )
            print(f"cubic {case.name} c={c}: {'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    print("all theorem fixtures verified" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of a grid size: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="raylien",
        description="Limit-cycle toolkit for the perturbed Rayleigh-Lienard oscillator",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    case_names = sorted(CASES)

    p = sub.add_parser("reduce", help="canonical decomposition of a monomial one-form")
    p.add_argument("--case", required=True, choices=case_names)
    p.add_argument("--form", required=True, help="monomial, e.g. 'y^3 dx'")
    p.add_argument("--method", default="rewrite", choices=("rewrite", "ansatz"))
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("melnikov", help="first nonvanishing order along an arc")
    p.add_argument("--case", required=True, choices=case_names)
    p.add_argument("--arc", required=True, help="JSON file {'lambda': [6 rows of coefficients]}")
    p.add_argument("--max-order", type=int, default=9, dest="max_order")
    p.set_defaults(func=_cmd_melnikov)

    p = sub.add_parser("bautin", help="ideal generators for the sign case (a, b)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_bautin)

    p = sub.add_parser("nakayama", help="certify equality of local ideals")
    p.add_argument("--input", required=True, help="JSON {'nvars', 'b', 'b0'}")
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=_cmd_nakayama)

    p = sub.add_parser("periods", help="period values at one level or on a grid")
    p.add_argument("--case", required=True, choices=case_names)
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--h", help="real or complex level, e.g. 0.5 or '1+0.5j'")
    level.add_argument("--grid", type=_positive_int, help="emit CSV on a probe grid of this size")
    p.add_argument("--tol", type=float, default=1e-12, help="relative accuracy, >= 1e-14: "
                   "the most a closed form's rounding bound may be, else an error")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("pfcheck", help="Picard-Fuchs residuals on a grid")
    p.add_argument("--case", required=True, choices=case_names)
    p.add_argument("--grid", type=_positive_int, default=50)
    p.add_argument("--tol", type=float, default=1e-12, help="relative accuracy of the periods, "
                   f">= 1e-14; passes if no residual is above {PFCHECK_RESIDUAL_FACTOR:g} * tol")
    p.set_defaults(func=_cmd_pfcheck)

    p = sub.add_parser("zeros", help="zero count of p(h) I2 + q(h) I0")
    p.add_argument("--case", required=True, choices=case_names)
    p.add_argument("--p", default="", help="comma-separated coefficients c0,c1,c2")
    p.add_argument("--q", default="", help="comma-separated coefficients c0,c1,c2")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12, help="relative accuracy of the periods, "
                   ">= 1e-14; also the level, relative to the terms, under which a dip is probed")
    p.add_argument("--random", type=_positive_int, default=0, help="batch: count N random elements")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("argwind", help="argument-principle winding on the cut plane")
    p.add_argument("--p", default="", help="ptilde coefficients c0,c1,c2")
    p.add_argument("--q", default="", help="qtilde coefficients c0,c1,c2")
    p.add_argument("--R", type=float, default=1e3)
    p.add_argument("--delta", type=float, default=1e-3)
    p.set_defaults(func=_cmd_argwind)

    p = sub.add_parser("simulate", help="Poincare displacement scan / limit cycles")
    p.add_argument("--case", required=True, choices=case_names)
    p.add_argument("--lambda", required=True, dest="lam", help="6 comma-separated floats")
    p.add_argument("--eps", type=float, default=1e-3)
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
