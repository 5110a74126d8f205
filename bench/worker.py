"""One benchmark process: import the package, warm it up, run one workload.

Started by ``run.py`` in a fresh interpreter with every BLAS pool at one
thread.  It prints ``READY`` on stdout once set-up is done (the parent
times set-up up to that line), then one JSON line with the raw results.
With ``--probe`` it stops after set-up.

Untraced mode runs a closed loop, one item at a time, in whole rounds of
the workload's kinds until ``--seconds`` have passed.  Traced mode runs a
fixed number of items, each once untraced and once traced, so that its
counts repeat exactly for a seed and the difference between the two runs
of each item is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DIGEST_RECHECK = 64  # leading items re-run after timing to confirm the digest


def run_one(W, wl, item):
    """(output or None, seconds, library exception name or None)."""
    t0 = perf_counter()
    try:
        out = wl.run(item)
    except Exception as exc:
        if not W.is_library_error(exc):
            raise
        return None, perf_counter() - t0, type(exc).__name__
    return out, perf_counter() - t0, None


class Tally:
    """Failures, uncertified outputs, gate violations and exact digest of a pass.

    Outputs are checked as they arrive and then dropped, so memory does not
    grow with the number of items.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.uncertified = 0
        self._digest = hashlib.sha256() if wl.digest_text else None

    def add(self, item, record) -> None:
        out, seconds, err = record
        self.attempted += 1
        self.busy_s += seconds
        if err is not None:
            self.failures[err] = self.failures.get(err, 0) + 1
            return
        self.latencies.append(seconds)
        self.problems += self.wl.check(item, out)
        self.uncertified += self.wl.uncertified(item, out)
        if self._digest is not None:
            self._digest.update(self.wl.digest_text(item, out).encode() + b"\n")

    @property
    def digest(self) -> str | None:
        return None if self._digest is None else self._digest.hexdigest()

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "completed": len(self.latencies),
            "failed": self.attempted - len(self.latencies),
            "failures": self.failures,
            "uncertified": self.uncertified,
            "problems": self.problems,
            "busy_s": self.busy_s,
            "digest": self.digest,
        }


def timed(W, wl, seed: int, seconds: float) -> dict:
    tally, head = Tally(wl), Tally(wl)
    stream = wl.items(seed)
    t_begin = perf_counter()
    deadline = t_begin + seconds
    gate_s = 0.0  # time spent checking outputs, left out of the loop's wall time
    while perf_counter() < deadline:
        for item in itertools.islice(stream, wl.round_size):
            record = run_one(W, wl, item)
            t_gate = perf_counter()
            tally.add(item, record)
            if head.attempted < DIGEST_RECHECK:
                head.add(item, record)
            gate_s += perf_counter() - t_gate
    res = tally.result()
    res["wall_s"] = perf_counter() - t_begin - gate_s
    res["gate_s"] = gate_s
    res["latencies_s"] = tally.latencies
    if head.digest is not None:
        again = Tally(wl)
        for item in itertools.islice(wl.items(seed), head.attempted):
            again.add(item, run_one(W, wl, item))
        if again.digest != head.digest:
            res["problems"].append(
                f"exact digest of the first {head.attempted} items does not repeat")
    return res


def traced(W, wl, seed: int, spans_path, n_items: int | None = None) -> dict:
    """Run the first `n_items` items (default: the workload's trace_items)
    untraced and traced, pairing the two runs of each item in time and
    alternating which goes first, so machine drift and warm caches fall on
    both sides alike."""
    from spans import Tracer

    items = itertools.islice(wl.items(seed), n_items or wl.trace_items)
    plain, tally = Tally(wl), Tally(wl)
    tracer = Tracer(W)
    for i, item in enumerate(items):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.item(i):
                    record = run_one(W, wl, item)
                tally.add(item, record)
            else:
                plain.add(item, run_one(W, wl, item))
    res = tally.result()
    if plain.digest != tally.digest:
        res["problems"].append("tracing changed the exact outputs")
    res["untraced_busy_s"] = plain.busy_s
    res["layers"] = layer_metrics(tracer, res)
    tracer.write(spans_path)
    return res


def layer_metrics(tracer, res) -> dict[str, float]:
    st = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    names = (
        "forms.reduce_rewrite", "forms.reduce_ansatz", "forms.verify_decomposition",
        "exactalg.solve_linear_exact", "melnikov.melnikov", "bautin.predict_order",
        "bautin.nakayama_certify", "elliptic.periods_real", "zeros.eval_V",
        "zeros.count_zeros_real", "zeros.winding_number_F", "simulate.poincare_return",
        "simulate.find_limit_cycles",
    )
    m: dict[str, float] = {}
    for name in names:
        n, _, self_s = st.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = self_s
    busy = res["busy_s"]
    m["forms.reduce_rewrite.share"] = ratio(total("forms.reduce_rewrite"), busy)
    m["forms.reduce_ansatz.share"] = ratio(total("forms.reduce_ansatz"), busy)
    m["elliptic.periods_real.us_per_call"] = 1e6 * ratio(
        total("elliptic.periods_real"), calls("elliptic.periods_real"))
    located = counts["zeros.zeros_located"]
    m["zeros.zeros_located"] = located
    m["zeros.quads_per_zero"] = ratio(
        tracer.calls_under("elliptic.periods_real", "zeros.count_zeros_real"), located)
    m["zeros.uncertified_reports"] = counts["zeros.uncertified_reports"]
    m["zeros.winding.F_evals"] = counts["zeros.winding.F_evals"]
    m["zeros.winding.F_evals_per_item"] = ratio(
        counts["zeros.winding.F_evals"], calls("zeros.winding_number_F"))
    m["simulate.returns_per_scan"] = ratio(
        tracer.calls_under("simulate.poincare_return", "simulate.find_limit_cycles"),
        calls("simulate.find_limit_cycles"))
    m["simulate.rhs_evals"] = counts["simulate.rhs_evals"]
    m["simulate.rhs_evals_per_return"] = ratio(
        counts["simulate.rhs_evals"], calls("simulate.poincare_return"))
    m["simulate.escapes"] = counts["simulate.poincare_return.raised.EscapeError"]
    m["trace.overhead_frac"] = 1.0 - ratio(res["untraced_busy_s"], busy)
    m["failed_frac"] = ratio(res["failed"], res["attempted"])
    m["uncertified_frac"] = ratio(res["uncertified"], res["completed"])
    m["raised"] = {k: v for k, v in counts.items() if ".raised." in k}
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import workloads as W

    import_s = perf_counter() - t0
    wl = W.WORKLOADS[args.workload]
    t1 = perf_counter()
    warm = wl.setup()
    setup = {"import_s": import_s, "warmup_s": perf_counter() - t1, "warmup": warm}
    print("READY", flush=True)
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0
    if args.trace:
        RESULTS_DIR.mkdir(exist_ok=True)
        spans_path = RESULTS_DIR / f"spans-{wl.name}.csv.gz"
        res = traced(W, wl, args.seed, spans_path)
    else:
        res = timed(W, wl, args.seed, args.seconds)
    import scipy

    res["setup"] = setup
    res["versions"] = {"numpy": W.np.__version__, "scipy": scipy.__version__}
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
