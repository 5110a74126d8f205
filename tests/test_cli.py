"""CLI dispatch, schemas, and reproducibility."""

import ast
import dataclasses
import inspect
import json
from fractions import Fraction

import numpy as np
import pytest

from raylien import cli
from raylien.cli import dispatch, parse_monomial_form
from raylien.exactalg import PolyXY
from raylien.forms import CASES, EIGHT_EXTERIOR, OneForm
from raylien.zeros import VElement, count_zeros_real

from pf_reference import pf_continue


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_monomial_forms():
    assert parse_monomial_form("y^3 dx") == OneForm(PolyXY.monomial(0, 3))
    assert parse_monomial_form("x^4 y dx") == OneForm(PolyXY.monomial(4, 1))
    assert parse_monomial_form("3/7 x^2 y^5 dx") == OneForm(
        PolyXY.monomial(2, 5, "3/7")
    )
    assert parse_monomial_form("x dx") == OneForm(PolyXY.monomial(1, 0))
    assert parse_monomial_form("x y dx") == OneForm(PolyXY.monomial(1, 1))
    assert parse_monomial_form("2 ydx") == OneForm(PolyXY.monomial(0, 1, 2))
    assert parse_monomial_form("dx") == OneForm(PolyXY.monomial(0, 0))
    with pytest.raises(ValueError):
        parse_monomial_form("z^2 dx")


def test_reduce_subcommand(capsys):
    code, out, _ = run(capsys, "reduce", "--case", "global-center",
                       "--form", "y^3 dx")
    assert code == 0
    data = json.loads(out)
    assert data["u"] == ["-3/7"]
    assert data["v"] == ["0", "12/7"]


def test_reduce_is_byte_reproducible(capsys):
    _, out1, _ = run(capsys, "reduce", "--case", "eight-interior",
                     "--form", "x^2 y^5 dx")
    _, out2, _ = run(capsys, "reduce", "--case", "eight-interior",
                     "--form", "x^2 y^5 dx")
    assert out1 == out2


REDUCE_GC_X2Y5 = """{
  "R": {
    "1,3": "40/1001",
    "1,5": "400/3003",
    "3,3": "10/91",
    "3,5": "19/117",
    "5,3": "1055/9009",
    "7,3": "5/117"
  },
  "case": "global-center",
  "form": "x^2 y^5 dx",
  "r": {
    "1,1": "-120/1001",
    "1,3": "-2000/3003",
    "3,1": "-30/91",
    "3,3": "-95/117",
    "5,1": "-1055/3003",
    "7,1": "-5/39"
  },
  "u": [
    "160/1001",
    "3620/3003",
    "80/39"
  ],
  "v": [
    "0",
    "-80/1001",
    "-1600/3003"
  ]
}
"""

BAUTIN_1_M1 = """{
  "a": "1",
  "b": "-1",
  "generators": [
    "l1",
    "l2 + 3*l3",
    "l3^3",
    "-3*l3 + l4",
    "l5",
    "l6"
  ]
}
"""


def test_reduce_json_is_pinned(capsys):
    code, out, _ = run(capsys, "reduce", "--case", "global-center", "--form", "x^2 y^5 dx")
    assert code == 0
    assert out == REDUCE_GC_X2Y5


def test_bautin_json_is_pinned(capsys):
    code, out, _ = run(capsys, "bautin", "--a", "1", "--b", "-1")
    assert code == 0
    assert out == BAUTIN_1_M1


def test_melnikov_subcommand(tmp_path, capsys):
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps({"lambda": [["0"], ["0"], ["0"], ["0"], ["0"], ["1"]]}))
    code, out, _ = run(capsys, "melnikov", "--case", "eight-exterior",
                       "--arc", str(arc))
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1
    assert data["p"] == ["32/21", "4/3"]
    assert data["q"] == ["0", "16/21"]


def test_melnikov_zero_arc_report(tmp_path, capsys):
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps({"lambda": [["0"]] * 6}))
    code, out, _ = run(capsys, "melnikov", "--case", "global-center",
                       "--arc", str(arc), "--max-order", "3")
    assert code == 0
    data = json.loads(out)
    assert data["all_vanished"] is True and data["arc_is_zero"] is True


def test_bautin_subcommand(capsys):
    code, out, _ = run(capsys, "bautin", "--a", "1", "--b", "-1")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 6
    assert data["generators"][2] == "l3^3"


def test_nakayama_subcommand(tmp_path, capsys):
    payload = {
        "nvars": 2,
        "b": [
            [[[2, 0], "1"], [[2, 2], "1"], [[1, 3], "1"], [[0, 4], "1"]],
            [[[0, 3], "1"], [[4, 0], "1"], [[3, 1], "1"]],
        ],
        "b0": [[[[2, 0], "1"]], [[[0, 3], "1"]]],
    }
    f = tmp_path / "naka.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "nakayama", "--input", str(f), "--cap", "12")
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_nakayama_failure_exit_code(tmp_path, capsys):
    payload = {
        "nvars": 2,
        "b": [[[[2, 0], "1"], [[0, 1], "1"]], [[[0, 3], "1"]]],
        "b0": [[[[2, 0], "1"]], [[[0, 3], "1"]]],
    }
    f = tmp_path / "naka.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "nakayama", "--input", str(f), "--cap", "8")
    assert code == 1
    data = json.loads(out)
    assert data["certified"] is False
    assert data["offending_monomial"] == [0, 1]


def test_nakayama_rejects_a_negative_cap(tmp_path, capsys):
    payload = {"nvars": 1, "b": [[[[1], "1"]]], "b0": [[[[1], "1"]]]}
    f = tmp_path / "naka.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "nakayama", "--input", str(f), "--cap", "-2")
    assert code == 2
    assert out == ""
    assert "degree_cap must be >= 0, got -2" in err


@pytest.mark.parametrize("rows, message", [
    ([[0.5], ["0"], ["0"], ["0"], ["0"], ["1"]], "not an exact rational: 0.5"),
    ([["0"], 1, ["0"], ["0"], ["0"], ["1"]], "each lambda row must be a list, got 1"),
])
def test_melnikov_rejects_an_inexact_arc_file(tmp_path, capsys, rows, message):
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps({"lambda": rows}))
    code, out, err = run(capsys, "melnikov", "--case", "global-center", "--arc", str(arc))
    assert (code, out) == (2, "")
    assert err == f"error: {arc}: {message}\n"


def test_nakayama_rejects_a_float_coefficient(tmp_path, capsys):
    payload = {"nvars": 1, "b": [[[[1], 0.5]]], "b0": [[[[1], "1"]]]}
    f = tmp_path / "naka.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "nakayama", "--input", str(f), "--cap", "4")
    assert (code, out) == (2, "")
    assert err == f"error: {f}: not an exact rational: 0.5\n"


@pytest.mark.parametrize("payload, message", [
    ([1], "expected an object {'lambda': [6 rows of coefficients]}"),
    ({"arc": []}, "expected an object {'lambda': [6 rows of coefficients]}"),
    ({"lambda": "0"}, "expected an object {'lambda': [6 rows of coefficients]}"),
    ({"lambda": [["1"]]}, "expected an object {'lambda': [6 rows of coefficients]}"),
], ids=["list", "no-lambda", "lambda-string", "one-row"])
def test_melnikov_rejects_a_misshapen_arc_file(tmp_path, capsys, payload, message):
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "melnikov", "--case", "global-center", "--arc", str(arc))
    assert (code, out) == (2, "")
    assert err == f"error: {arc}: {message}\n"


@pytest.mark.parametrize("payload, message", [
    ([1], "expected an object {'nvars', 'b', 'b0'}"),
    ({"nvars": "2", "b": [], "b0": []}, "'nvars' must be a positive integer, got '2'"),
    ({"nvars": 2.5, "b": [], "b0": []}, "'nvars' must be a positive integer, got 2.5"),
    ({"nvars": 0, "b": [], "b0": []}, "'nvars' must be a positive integer, got 0"),
    ({"nvars": 1, "b0": []}, "'b' must be a list of polynomials, got None"),
    ({"nvars": 1, "b": [], "b0": 3}, "'b0' must be a list of polynomials, got 3"),
    ({"nvars": 1, "b": [1], "b0": []},
     "each polynomial in 'b' must be a list of [exponents, coefficient] terms, got 1"),
    ({"nvars": 1, "b": [[[1, "1"]]], "b0": []},
     "each polynomial in 'b' must be a list of [exponents, coefficient] terms, got [[1, '1']]"),
    ({"nvars": 1, "b": [[[[1]]]], "b0": []},
     "each polynomial in 'b' must be a list of [exponents, coefficient] terms, got [[[1]]]"),
    ({"nvars": 2, "b": [[[[0.5, 0], "1"]]], "b0": [[[[1, 0], "1"]]]},
     "exponents must be integers, got (0.5, 0) for variables ('l1', 'l2')"),
    ({"nvars": 2, "b": [[[[1], "1"]]], "b0": []},
     "bad exponent tuple (1,) for variables ('l1', 'l2')"),
], ids=["list", "nvars-string", "nvars-float", "nvars-zero", "no-b", "b0-int", "b-int-poly",
        "term-not-pair", "term-without-coefficient", "fractional-exponent", "short-exponents"])
def test_nakayama_rejects_a_misshapen_input_file(tmp_path, capsys, payload, message):
    f = tmp_path / "naka.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "nakayama", "--input", str(f), "--cap", "4")
    assert (code, out) == (2, "")
    assert err == f"error: {f}: {message}\n"


def test_periods_subcommand_real(capsys):
    code, out, _ = run(capsys, "periods", "--case", "global-center",
                       "--h", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["I0"][0] > 0 and abs(data["I0"][1]) == 0.0


def test_periods_grid_csv(capsys):
    code, out, _ = run(capsys, "periods", "--case", "eight-exterior",
                       "--grid", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,I0,I2,J0,J2"
    assert len(lines) == 5


def test_periods_complex_level_routes_agree(capsys):
    code, out, _ = run(capsys, "periods", "--case", "eight-exterior", "--h", "1+0.5j")
    assert code == 0
    closed = json.loads(out)
    ode = pf_continue(EIGHT_EXTERIOR, 1 + 0.5j)
    for key in ("I0", "I2", "J0", "J2"):
        a, b = complex(*closed[key]), complex(getattr(ode, key))
        assert abs(a - b) <= 1e-9 * abs(b), key
    assert closed["branch"] == ode.branch_tag == "plus-side"


def test_periods_contour_route_is_gone(capsys):
    for route in ("contour", "pf-ode"):
        with pytest.raises(SystemExit) as exc:
            dispatch(["periods", "--case", "eight-exterior", "--h", "1+0.5j", "--route", route])
        assert exc.value.code == 2
        assert "unrecognized arguments: --route" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [[], ["--h", "1", "--grid", "4"]])
def test_periods_takes_exactly_one_of_h_and_grid(levels, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["periods", "--case", "global-center", *levels])
    assert exc.value.code == 2
    assert "--h" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pfcheck", "--case", "global-center", "--grid", "0"],
    ["periods", "--case", "global-center", "--grid", "-3"],
    ["simulate", "--case", "global-center", "--lambda", "1,0,0,0,0,0", "--csv", "--grid=0"],
    ["simulate", "--case", "global-center", "--lambda", "1,0,0,0,0,0", "--grid=-3"],
])
def test_grid_must_be_a_positive_integer(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert "argument --grid: expected a positive integer" in capsys.readouterr().err


def test_pfcheck_subcommand(capsys):
    for case_name in sorted(CASES):
        code, out, _ = run(capsys, "pfcheck", "--case", case_name, "--grid", "10")
        assert code == 0, case_name
        assert out.startswith(f"{case_name}: 10 levels, max residual")


def test_zeros_subcommand(capsys):
    code, out, _ = run(capsys, "zeros", "--case", "global-center",
                       "--q=-2,3,-1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["certified"] is True


def test_zeros_random_batch_records_seed(capsys):
    code, out, _ = run(capsys, "zeros", "--case", "eight-interior",
                       "--random", "5", "--seed", "42")
    assert code == 0
    assert out.startswith("# seed=42")
    assert "count,frequency" in out


def test_zeros_random_must_be_a_positive_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["zeros", "--case", "global-center", "--random", "-3"])
    assert exc.value.code == 2
    assert "argument --random: expected a positive integer, got '-3'" in capsys.readouterr().err


def _random_reports(case_name, n, seed):
    """The reports behind `zeros --random n --seed seed`, recounted directly."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n):
        pc = [Fraction(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        qc = [Fraction(str(round(float(c), 6))) for c in rng.uniform(-1, 1, 3)]
        reports.append(count_zeros_real(VElement.from_coeffs(pc, qc, CASES[case_name])))
    return reports


def test_zeros_random_reports_uncertified(capsys, monkeypatch):
    reports = _random_reports("global-center", 12, 1)
    argv = ("zeros", "--case", "global-center", "--random", "12", "--seed", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    uncertified = sum(not rep.certified for rep in reports)
    assert out.splitlines()[-1] == f"# uncertified={uncertified} of 12"
    # random elements are nearly always certified: flag every report that
    # locates a zero, so that the line has something to count
    scan = cli.count_zeros_real

    def flag_zeros(e, **kwargs):
        rep = scan(e, **kwargs)
        return dataclasses.replace(rep, certified=rep.count == 0)

    monkeypatch.setattr(cli, "count_zeros_real", flag_zeros)
    _, out, _ = run(capsys, *argv)
    flagged = sum(rep.count > 0 for rep in reports)
    assert flagged > 0
    assert out.splitlines()[-1] == f"# uncertified={flagged} of 12"


def test_argwind_subcommand(capsys):
    code, out, _ = run(capsys, "argwind", "--p=0,0,0", "--q=1")
    assert code == 0
    data = json.loads(out)
    assert data["zero_bound_estimate"] == 0
    assert abs(data["winding"]) < 1e-6


@pytest.mark.parametrize("flag, value", [("--R", "-5"), ("--delta", "0"), ("--delta", "2000")])
def test_argwind_rejects_a_contour_without_0_lt_delta_lt_R(flag, value, capsys):
    code, out, err = run(capsys, "argwind", "--q", "1,1", flag, value)
    assert code == 2
    assert out == ""
    assert "contour needs 0 < delta < R < inf" in err
    assert f"{flag.lstrip('-')}={float(value)}" in err


def test_simulate_subcommand_json(capsys):
    code, out, _ = run(capsys, "simulate", "--case", "global-center",
                       "--lambda", "1,0,0,0,0,0", "--eps", "0.001",
                       "--grid", "8")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0


def test_simulate_subcommand_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--case", "global-center",
                       "--lambda", "0,0,0,0,0,0", "--eps", "0", "--grid", "5",
                       "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x0,h,d,return_time"
    assert len(lines) == 6
    for line in lines[1:]:
        assert len([float(field) for field in line.split(",")]) == 4


def test_simulate_csv_counts_escapes(monkeypatch, capsys):
    from raylien import cli

    real_scan = cli.poincare_scan

    def escape_every_other(cfg, xs):
        return [None if i % 2 else s for i, s in enumerate(real_scan(cfg, xs))]

    monkeypatch.setattr(cli, "poincare_scan", escape_every_other)
    code, out, err = run(capsys, "simulate", "--case", "global-center",
                         "--lambda", "0,0,0,0,0,0", "--eps", "0", "--grid", "5",
                         "--csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3
    assert "skipped 2 of 5 start points" in err
    monkeypatch.undo()
    # a real escape: the outermost start point is pumped across the separatrix
    code, out, err = run(capsys, "simulate", "--case", "truncated-pendulum",
                         "--lambda", "1,-1,0,0,0,0", "--eps", "0.01", "--grid", "6",
                         "--csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 5
    assert "skipped 1 of 6 start points" in err


def test_simulate_csv_does_not_swallow_other_errors(monkeypatch, capsys):
    from raylien import cli

    def broken(cfg, xs):
        raise RuntimeError("integrator blew up")

    monkeypatch.setattr(cli, "poincare_scan", broken)
    code, out, err = run(capsys, "simulate", "--case", "global-center",
                         "--lambda", "0,0,0,0,0,0", "--eps", "0", "--grid", "5",
                         "--csv")
    assert code == 1
    assert "integrator blew up" in err
    assert "skipped" not in err


def test_argwind_has_no_tol_flag(capsys):
    with pytest.raises(SystemExit):
        dispatch(["argwind", "--q=1", "--tol", "1e-9"])


@pytest.mark.parametrize("argv", [
    ["reduce", "--case", "global-center", "--form", "y^3 dx", "--json"],
    ["bautin", "--a", "1", "--b", "-1", "--json"],
    ["periods", "--case", "global-center", "--grid", "4", "--csv"],
    ["zeros", "--case", "global-center", "--q=1", "--csv"],
    ["argwind", "--q=1", "--json"],
    ["simulate", "--case", "global-center", "--lambda", "0,0,0,0,0,0", "--json"],
    ["zeros", "--case", "global-center", "--p=1", "--q=-1", "--method", "argwind"],
    ["zeros", "--case", "global-center", "--q=1", "--R", "10"],
    ["zeros", "--case", "global-center", "--q=1", "--delta", "0.01"],
])
def test_no_op_format_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit):
        dispatch(argv)


def test_validate_appendix(capsys):
    code, out, _ = run(capsys, "validate-appendix")
    assert code == 0
    assert "23/23 decompositions verified" in out


def test_validate_theorems(capsys):
    code, out, _ = run(capsys, "validate-theorems")
    assert code == 0
    assert "all theorem fixtures verified" in out


# (subcommand and other flags, flag, value template): every flag that takes a
# number or a list of numbers
VALUE_FLAGS = [
    (["simulate", "--case", "global-center", "--lambda", "1,-1,0,0,0,0", "--grid", "5", "--csv"],
     "--eps", "{}"),
    (["periods", "--case", "global-center", "--h", "1"], "--tol", "{}"),
    (["pfcheck", "--case", "global-center"], "--tol", "{}"),
    (["zeros", "--case", "global-center", "--q=-2,3,-1"], "--tol", "{}"),
    (["argwind", "--q=1"], "--R", "{}"),
    (["argwind", "--q=1"], "--delta", "{}"),
    (["periods", "--case", "eight-exterior"], "--h", "{}"),
    (["simulate", "--case", "global-center", "--grid", "5"], "--lambda", "1,{},0,0,0,0"),
    (["zeros", "--case", "global-center", "--q=1"], "--p", "1,{}"),
    (["zeros", "--case", "global-center", "--p=1"], "--q", "{}"),
    (["argwind", "--q=1"], "--p", "{},1"),
    (["argwind", "--p=1"], "--q", "{}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "junk"])
@pytest.mark.parametrize("argv, flag, template", VALUE_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in VALUE_FLAGS])
def test_non_finite_and_junk_values_are_rejected_when_parsed(argv, flag, template, value,
                                                             capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected value")

    # a nan that reached the stacked scan would hang it
    for name in ("poincare_scan", "find_limit_cycles", "count_zeros_real", "winding_number_F"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        dispatch([*argv, f"{flag}={template.format(value)}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a" in capsys.readouterr().err


def test_periods_levels_take_i_or_j(capsys):
    _, with_j, _ = run(capsys, "periods", "--case", "eight-exterior", "--h", "1+0.5j")
    _, with_i, _ = run(capsys, "periods", "--case", "eight-exterior", "--h", "1 + 0.5i")
    assert with_i == with_j
    assert json.loads(with_j)["h"] == [1.0, 0.5]


def test_handlers_parse_no_text():
    # every flag's text is parsed by its argparse type; handlers only use values
    tree = ast.parse(inspect.getsource(cli))
    handlers = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) == 11
    for f in handlers:
        for node in ast.walk(f):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                assert name not in ("split", "complex", "rat", "parse_monomial_form"), f.name
                assert not name.startswith("_parse"), (f.name, name)


def test_unknown_case_is_usage_error(capsys):
    code, _, err = run(capsys, "periods", "--case", "global-center", "--h", "-5")
    assert code == 2
    assert "error" in err
    # the level is named as written
    assert err.startswith("error: h=-5 is outside the global-center interval")
