"""Seeded workloads of the raylien benchmark.

Each workload has three parts:

* ``setup()`` warms the package's caches with fixed inputs (no items);
* ``items(seed)`` yields the seeded inputs forever, in rounds with a fixed
  order of kinds, so that the mix of a run is the same for every seed and
  only the values change;
* ``run(item)`` calls the package's public functions on one input and
  returns what the correctness gate needs.

``check`` turns one output into a list of gate violations (empty when the
output is correct) and ``uncertified`` says whether the library flagged it
as not certified.  The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "raylien" / "__init__.py").is_file():
    raise SystemExit(f"raylien sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import raylien  # noqa: E402

if Path(raylien.__file__).resolve().parent != (SRC / "raylien").resolve():
    raise SystemExit(f"imported raylien from {raylien.__file__}, not from {SRC}")

# ``raylien.melnikov`` is the function re-exported by the package, so the
# modules are looked up by their full names.
bautin = importlib.import_module("raylien.bautin")
elliptic = importlib.import_module("raylien.elliptic")
exactalg = importlib.import_module("raylien.exactalg")
forms = importlib.import_module("raylien.forms")
melnikov = importlib.import_module("raylien.melnikov")
simulate = importlib.import_module("raylien.simulate")
zeros = importlib.import_module("raylien.zeros")

CASES = forms.CASES
CASE_ORDER = sorted(CASES)

# Library exceptions an item may raise; each is tallied by type and counts
# toward failed_frac.  Anything else is a bug and stops the run.
LIBRARY_ERRORS = (
    elliptic.QuadratureError,
    simulate.EscapeError,
    forms.DecompositionError,
)
WINDING_ERRORS = ("argument refinement budget exceeded", "contour hits a zero of F")


def is_library_error(exc: BaseException) -> bool:
    if isinstance(exc, LIBRARY_ERRORS):
        return True
    return type(exc) is RuntimeError and str(exc).startswith(WINDING_ERRORS)


@dataclass(frozen=True)
class Item:
    kind: str
    args: tuple


def _frac(rng: random.Random, top: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(1, top) * rng.choice((-1, 1)), rng.randint(1, den))


def _rounded(rng: np.random.Generator, n: int) -> list[Fraction]:
    """Criterion-6 coefficients: uniform in [-1, 1], rounded to 6 places."""
    return [Fraction(str(round(float(c), 6))) for c in rng.uniform(-1, 1, n)]


# ---------------------------------------------------------------------------
# exact: reduction engines, Melnikov recursion, Bautin order, Nakayama
# ---------------------------------------------------------------------------

# With a+b odd every x^a y^b dx and x^a y^b dy term is decomposable.  The
# ansatz engine exhausts both of its degree bounds on these two degree-7
# terms (DecompositionError) although the rewrite engine reduces them, so
# the dense forms leave them out: the workload must not fail.
ANSATZ_BOUND_EXHAUSTED = {("P", 1, 6), ("Q", 2, 5)}
FORM_DEGREES = (3, 5, 7)
# About 500 arcs balance one form's ansatz reduction, so that each engine
# takes between a third and two thirds of the traced run.
ARCS_PER_FORM = 500
EXACT_ROUND = len(FORM_DEGREES) * (1 + ARCS_PER_FORM) + 1


def tuned_arc(rng: random.Random, case, depth: int):
    """Criterion-10 arc: `depth` orders along the centre direction plus a tail."""
    rows: list[list[Fraction]] = [[] for _ in range(6)]
    for _ in range(depth):
        c = Fraction(rng.randint(-4, 4))
        tuned = [0, -3 * case.a * c, c, -3 * case.b * c, 0, 0]
        for j in range(6):
            rows[j].append(Fraction(tuned[j]))
    tail = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
    if all(t == 0 for t in tail):
        tail[rng.randrange(6)] = Fraction(1)
    for j in range(6):
        rows[j].append(tail[j])
    return melnikov.ParamArc.from_rows(rows)


def dense_form(rng: random.Random, degree: int):
    """Every odd-total-degree x^a y^b in both dx and dy, seeded coefficients."""
    P: dict[tuple[int, int], Fraction] = {}
    Q: dict[tuple[int, int], Fraction] = {}
    for t in range(1, degree + 1, 2):
        for a in range(t + 1):
            for part, coeffs in (("P", P), ("Q", Q)):
                if (part, a, t - a) not in ANSATZ_BOUND_EXHAUSTED:
                    coeffs[(a, t - a)] = _frac(rng)
    return forms.OneForm(exactalg.PolyXY(P), exactalg.PolyXY(Q))


def generator_tails(rng: random.Random):
    """b0 = leading monomials of the Bautin generators, b = b0 + tails in m*(b0).

    A monomial generating set is its own Groebner basis, so the division
    inside ``nakayama_certify`` leaves no remainder for any such tail.
    """
    lead = ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    b0 = [exactalg.MultiPoly(6, {e: 1}) for e in lead]
    b = []
    for g in b0:
        tail = exactalg.MultiPoly.zero(6)
        for _ in range(2):
            e = [0] * 6
            for _ in range(rng.randint(1, 2)):
                e[rng.randrange(6)] += 1
            mono = exactalg.MultiPoly(6, {tuple(e): _frac(rng, 3, 2)})
            tail = tail + mono * b0[rng.randrange(6)]
        b.append(g + tail)
    return b, b0


def exact_items(seed: int):
    rng = random.Random(seed)
    n = 0
    while True:
        for d, degree in enumerate(FORM_DEGREES):
            yield Item("form", (dense_form(rng, degree), CASES[CASE_ORDER[(n + d) % 4]]))
            for i in range(ARCS_PER_FORM):
                case = CASES[CASE_ORDER[i % 4]]
                yield Item("arc", (tuned_arc(rng, case, (i // 4) % 3), case))
        yield Item("nakayama", generator_tails(rng))
        n += 1


def exact_run(item: Item):
    if item.kind == "arc":
        arc, case = item.args
        pred = bautin.predict_order(arc, case)
        return pred, melnikov.melnikov(arc, case, max_order=9)
    if item.kind == "form":
        omega, case = item.args
        d_rw = forms.reduce(omega, case, method="rewrite")
        d_an = forms.reduce(omega, case, method="ansatz")
        return d_rw, d_an
    b, b0 = item.args
    return bautin.nakayama_certify(b, b0, 12)


def exact_digest_text(item: Item, out) -> str:
    """The exact outputs of one item as text: order, p, q, (u, v)."""
    if item.kind == "arc":
        pred, res = out
        if isinstance(res, melnikov.AllVanishedReport):
            return f"arc {pred} vanished {res.max_order}"
        return f"arc {pred} {res.order} {res.p} {res.q}"
    if item.kind == "form":
        d_rw, d_an = out
        return f"form {d_rw.u} {d_rw.v} {d_an.u} {d_an.v}"
    return f"nakayama {out.entries}"


def exact_check(item: Item, out) -> list[str]:
    if item.kind == "arc":
        arc, case = item.args
        pred, res = out
        if not isinstance(res, melnikov.MelnikovResult):
            return [f"melnikov found no order <= 9 on {case.name} (predicted {pred})"]
        if res.order < pred:
            return [f"melnikov order {res.order} below predicted {pred} on {case.name}"]
        nondegenerate = any(v != 0 for v in bautin.leading_generator_values(arc, case))
        if nondegenerate and res.order != pred:
            return [f"non-degenerate arc: order {res.order} != predicted {pred}"]
        return []
    if item.kind == "form":
        d_rw, d_an = out
        if (d_rw.u, d_rw.v) != (d_an.u, d_an.v):
            return [f"engines disagree on (u, v): {d_rw.u}, {d_rw.v} vs {d_an.u}, {d_an.v}"]
        return []
    b, b0 = item.args
    cap = out.truncation_degree
    rebuilt = out.reconstruct(b)
    if any(not (r - g.truncate(cap)).is_zero() for r, g in zip(rebuilt, b0)):
        return ["Nakayama certificate does not rebuild b0 through the cap"]
    return []


def exact_setup() -> dict[str, float]:
    case = CASES["global-center"]
    arc = melnikov.ParamArc.from_rows([[0, 1], [-3, 1], [1, 0], [-3, 1], [0, 1], [0, 1]])
    t = time.perf_counter()
    melnikov.melnikov(arc, case, max_order=9)
    return {"melnikov": time.perf_counter() - t}


# ---------------------------------------------------------------------------
# zeros-real: criterion-6 elements through the real scan
# ---------------------------------------------------------------------------

SCAN_GRID = 200


def _warm_scan(case_names) -> dict[str, float]:
    """Level cache (periods_real) and the 200-node scan grid of each case."""
    t0 = time.perf_counter()
    for name in case_names:
        case = CASES[name]
        h = 0.5 * (case.h_lo + min(case.h_hi, case.h_lo + 2.0))
        elliptic.periods_real(case, h)
    t1 = time.perf_counter()
    for name in case_names:
        e = zeros.VElement.from_coeffs([1, 0, 0], [-1, 0, 0], CASES[name])
        zeros.count_zeros_real(e, grid=SCAN_GRID)
    t2 = time.perf_counter()
    return {"periods_real": t1 - t0, "count_zeros_real": t2 - t1}


def zeros_items(seed: int):
    """One item is one criterion-6 sample: a seeded element for each case.

    A single scan costs about 0.17 ms without a zero and about 1.7 ms more
    per zero located, and about a tenth of the elements have two zeros, so
    the 90th percentile of single scans falls between two clusters and
    flips from run to run.  Latencies of four-case items have no such gap
    near their median or 90th percentile.
    """
    rng = np.random.default_rng(seed)
    while True:
        elements = []
        for name in CASE_ORDER:
            p, q = _rounded(rng, 3), _rounded(rng, 3)
            elements.append(zeros.VElement.from_coeffs(p, q, CASES[name]))
        yield Item("scan", tuple(elements))


def zeros_run(item: Item):
    return [zeros.count_zeros_real(e, grid=SCAN_GRID) for e in item.args]


def zeros_check(item: Item, reps) -> list[str]:
    return [f"{rep.count} zeros on {e.case.name} exceed the bound {e.case.zero_bound}"
            for e, rep in zip(item.args, reps) if rep.count > e.case.zero_bound]


def zeros_uncertified(item: Item, reps) -> bool:
    return not all(rep.certified for rep in reps)


def zeros_setup() -> dict[str, float]:
    return _warm_scan(CASE_ORDER)


# ---------------------------------------------------------------------------
# winding: criterion-7 J-basis elements, argument principle + real scan
# ---------------------------------------------------------------------------

EXTERIOR = "eight-exterior"


def winding_items(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        p, q = _rounded(rng, 3), _rounded(rng, 3)
        yield Item("winding", (zeros.VElement.from_coeffs(p, q, CASES[EXTERIOR], "J"),))


def winding_run(item: Item):
    (e,) = item.args
    winding, estimate = zeros.winding_number_F(e)
    rep = zeros.count_zeros_real(e, grid=SCAN_GRID)
    return winding, estimate, rep


def winding_check(item: Item, out) -> list[str]:
    winding, estimate, rep = out
    spec = zeros.ContourSpec()
    bound = CASES[EXTERIOR].zero_bound
    real = sum(m for h, m in rep.locations if spec.delta < h < spec.R)
    problems = []
    if estimate > bound or rep.count > bound:
        problems.append(f"zero counts {estimate}, {rep.count} exceed the bound {bound}")
    if real > estimate:
        problems.append(f"real count {real} exceeds the winding estimate {estimate}")
    return problems


def winding_uncertified(item: Item, out) -> bool:
    winding, estimate, rep = out
    return abs(winding - estimate) >= 0.05 or not rep.certified


def winding_setup() -> dict[str, float]:
    warm = _warm_scan([EXTERIOR])
    e = zeros.VElement.from_coeffs([1, 0, 0], [-1, 0, 0], CASES[EXTERIOR], "J")
    t = time.perf_counter()
    zeros.winding_number_F(e)
    warm["winding_number_F"] = time.perf_counter() - t
    return warm


# ---------------------------------------------------------------------------
# simulate: criterion-11 target zeros, oracle count, Poincare scan
# ---------------------------------------------------------------------------

EPSILONS = (1e-2, 5e-3, 2.5e-3)
# (case, zeros per set, target range, minimum spacing, simulated h-window)
SIM_SHAPES = (
    ("global-center", 1, (0.5, 3.5), 0.4, (0.1, 6.0)),
    ("global-center", 2, (0.5, 3.5), 0.4, (0.1, 6.0)),
    ("global-center", 3, (0.5, 3.5), 0.4, (0.1, 6.0)),
    ("global-center", 4, (0.5, 3.5), 0.4, (0.1, 6.0)),
    ("truncated-pendulum", 1, (0.04, 0.2), 0.05, (0.01, 0.245)),
    ("truncated-pendulum", 2, (0.04, 0.2), 0.05, (0.01, 0.245)),
)
# Position errors are second order in eps and grow with h: criterion 11
# sees 59 eps^2 at its four-zero set, and seeded four-zero sets at eps=1e-2
# reach 0.9 eps*h.  A cycle further than TREND_PER_EPS * eps * max(1, h)
# from every oracle zero breaks the (at least linear) error trend.
TREND_PER_EPS = 3.0


def target_zeros(rng: np.random.Generator, k: int, lo: float, hi: float, gap: float):
    """k sorted targets in [lo, hi], pairwise at least `gap` apart."""
    slack = (hi - lo) - gap * (k - 1)
    u = np.sort(rng.uniform(0.0, slack, k))
    return [round(float(lo + x + gap * i), 4) for i, x in enumerate(u)]


def interpolated_element(case, targets):
    """Rational (p, q), deg p <= 1, whose element vanishes near the targets."""
    rows = []
    for h in targets:
        pv = elliptic.periods_real(case, h, 1e-13)
        z = pv.I2 / pv.I0
        rows.append([z, h * z, 1.0, h, h * h])
    for k in range(4 - len(targets)):  # pin surplus freedom
        pin = [0.0] * 5
        pin[4 - k] = 1.0
        rows.append(pin)
    _, _, vt = np.linalg.svd(np.array(rows))
    v = vt[-1] / np.max(np.abs(vt[-1]))
    c = [Fraction(str(round(float(x), 9))) for x in v]
    return exactalg.PolyU({0: c[0], 1: c[1]}, "h"), exactalg.PolyU({0: c[2], 1: c[3], 2: c[4]}, "h")


def simulate_items(seed: int):
    rng = np.random.default_rng(seed)
    n = 0
    while True:
        for i, (name, k, (lo, hi), gap, window) in enumerate(SIM_SHAPES):
            eps = EPSILONS[(n + i) % len(EPSILONS)]
            yield Item("cycles", (CASES[name], target_zeros(rng, k, lo, hi, gap), window, eps))
        n += 1


def simulate_run(item: Item):
    case, targets, window, eps = item.args
    p, q = interpolated_element(case, targets)
    lam = melnikov.lambdas_for_first_order(p, q, case)
    scale = max(abs(c) for c in lam)
    oracle = zeros.count_zeros_real(zeros.VElement(p, q, case))
    cfg = simulate.SimConfig(case, tuple(float(c / scale) for c in lam), eps)
    x_window = tuple(simulate.section_x_for_h(case, h) for h in window)
    cycles = simulate.find_limit_cycles(cfg, grid=100, x_window=x_window)
    return oracle, cycles


def _oracle_in_window(item: Item, oracle):
    _, _, (lo, hi), _ = item.args
    return [h for h, _ in oracle.locations if lo < h < hi]


def simulate_check(item: Item, out) -> list[str]:
    case, targets, window, eps = item.args
    oracle, cycles = out
    problems = []
    if oracle.count > case.zero_bound or len(cycles) > case.zero_bound:
        problems.append(f"counts {oracle.count}, {len(cycles)} exceed the bound {case.zero_bound}")
    # The element vanishes at the targets by construction; the oracle may add
    # zeros the interpolation did not ask for, and may miss a close pair of
    # targets that share one scan-grid cell (then the item is uncertified).
    ref = sorted(targets + _oracle_in_window(item, oracle))
    for h_star, _ in cycles:
        err = min(abs(h_star - z) for z in ref)
        if err > TREND_PER_EPS * eps * max(1.0, h_star):
            problems.append(
                f"cycle at h={h_star:.6g} is {err:.2e} from the expected zeros {ref} (eps={eps})"
            )
    return problems


def simulate_uncertified(item: Item, out) -> bool:
    oracle, cycles = out
    return len(cycles) != len(_oracle_in_window(item, oracle))


def simulate_setup() -> dict[str, float]:
    warm = _warm_scan(["global-center", "truncated-pendulum"])
    cfg = simulate.SimConfig(CASES["global-center"], (1.0, -1.0, 0.0, 0.0, 0.0, 0.0), 1e-2)
    t = time.perf_counter()
    simulate.poincare_return(cfg, 1.0)
    warm["poincare_return"] = time.perf_counter() - t
    return warm


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    items: object
    run: object
    check: object
    uncertified: object
    round_size: int  # items() repeats this many kinds; runs stop only between rounds
    trace_items: int  # fixed item count of a traced run, so its counts repeat
    digest_text: object = None


def _never(item, out) -> bool:
    return False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact", exact_setup, exact_items, exact_run, exact_check, _never,
                 EXACT_ROUND, EXACT_ROUND, exact_digest_text),
        Workload("zeros-real", zeros_setup, zeros_items, zeros_run, zeros_check,
                 zeros_uncertified, 1, 750),
        Workload("winding", winding_setup, winding_items, winding_run, winding_check,
                 winding_uncertified, 1, 24),
        Workload("simulate", simulate_setup, simulate_items, simulate_run, simulate_check,
                 simulate_uncertified, len(SIM_SHAPES), len(SIM_SHAPES)),
    )
}
