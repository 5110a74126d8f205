"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py bench/baseline/set-a.json bench/results

Each argument is a result file written by ``run.py``, a JSON list of such
results (as in ``bench/baseline/``) or a directory of them.  Runs that
failed the correctness gate carry no timings and are left out.  For every
workload and metric the table gives each side's median and quartiles over
its runs and the change of the median as a share of the base median.  An
end-to-end metric whose median got worse by more than its bound in
``BENCHMARK.json`` is marked REGRESSION; where the base's own spread
(quartile distance over median) is wider than the bound, the row is marked
unresolved unless every new run is better than every base run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    if path.is_dir():
        return [r for p in sorted(path.glob("*.json")) for r in load(p)]
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def by_metric(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    """Metric values by (workload, metric) over the runs that passed the gate."""
    out: dict[tuple[str, str], list[float]] = {}
    for r in results:
        if not r["correct"]:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = (by_metric(load(Path(a))) for a in argv)
    regressions = 0
    print(f"{'workload':11} {'metric':36} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b1, b, b3 = quartiles(base[key])
        n1, n, n3 = quartiles(new[key])
        change = (n - b) / b if b else 0.0
        worse = change if better[name] == "lower" else -change
        verdict = ""
        if name in bounds:
            spread = (b3 - b1) / b if b else 0.0
            if better[name] == "lower":
                clear = max(new[key]) < min(base[key])
            else:
                clear = min(new[key]) > max(base[key])
            if worse > bounds[name]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bounds[name] and not clear:
                verdict = "unresolved"
            else:
                verdict = f"ok (bound {bounds[name]})"
        print(f"{workload:11} {name:36} {b:12.6g} [{b1:.4g}, {b3:.4g}] "
              f"{n:12.6g} [{n1:.4g}, {n3:.4g}] {change:+8.3f}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
