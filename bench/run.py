"""raylien benchmark: one seeded workload, end to end or traced.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Every process this starts is a fresh interpreter running ``worker.py``
with one thread per BLAS pool, one after the other:

* with ``--trace 0``, ``SETUP_PROBES`` probes that only import and warm
  up, then the main worker; ``setup_s`` is the median of their times to
  ``READY``;
* with ``--trace 0`` the main worker runs the workload in a closed loop for
  ``--seconds`` and the end-to-end metrics come from that run;
* with ``--trace 1`` it runs a fixed list of items, each untraced and traced,
  and reports the per-layer metrics named in ``BENCHMARK.json``.

Each metric is printed by name with its unit, the full result (metrics,
failures by type, environment) is written under ``bench/results/``, and
the last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.  When the correctness
gate finds a violation the command prints the violations to stderr, reports
no timings and exits with status 1; when the worker cannot run (for example
without ``src/raylien``) it exits with status 2 and prints no summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in SINGLE_THREAD:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra: list[str]) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its seconds to READY."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker failed with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup_s


def git_commit() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(args, res: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": res["versions"]["numpy"],
        "scipy": res["versions"]["scipy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: worker_env()[var] for var in SINGLE_THREAD},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(res: dict, setup_s: float) -> dict[str, float]:
    lat = res["latencies_s"]
    return {
        "setup_s": setup_s,
        "items_per_s": res["completed"] / res["wall_s"],
        "item_ms_p50": 1e3 * percentile(lat, 50),
        "item_ms_p90": 1e3 * percentile(lat, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    m = dict(res["layers"])
    setup = res["setup"]
    m["setup.import_s"] = setup["import_s"]
    m["setup.warmup_s"] = setup["warmup_s"]
    for fn in ("melnikov", "periods_real", "count_zeros_real", "winding_number_F",
               "poincare_return"):
        m[f"setup.warmup.{fn}_s"] = setup["warmup"].get(fn, 0.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [start_worker(args, ["--probe"])[1] for _ in range(probes)]
        res, setup_s = start_worker(args, [])
    except WorkerError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    setups.append(setup_s)

    correct = not res["problems"]
    # a run that fails the gate keeps no timings, in its result file either
    values, metrics = {}, {}
    if correct:
        values = per_layer(res) if args.trace else end_to_end(res, statistics.median(setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    full = {
        "workload": args.workload,
        "correct": correct,
        "environment": environment(args, res),
        "metrics": metrics,
        "setup_samples_s": setups,
        **{k: res.get(k) for k in ("attempted", "completed", "failed", "failures",
                                   "uncertified", "problems", "digest", "busy_s", "wall_s")},
        "failed_frac": res["failed"] / res["attempted"],
        "uncertified_frac": res["uncertified"] / max(res["completed"], 1),
    }
    if args.trace and correct:
        full["layers"] = values
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")

    if not correct:
        for p in res["problems"][:20]:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": {}}))
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {res['attempted']}  failed {res['failed']} {res['failures']}  "
          f"uncertified {res['uncertified']}  -> {out.relative_to(ROOT)}")
    print(f"failed_frac {full['failed_frac']!r}  uncertified_frac {full['uncertified_frac']!r}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
