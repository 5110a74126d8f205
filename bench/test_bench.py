"""The benchmark's own test: seeded inputs and traced counts repeat exactly.

    python3 -m pytest -q bench/test_bench.py

Each traced run here uses the workload's first few items only; the
benchmark's traced runs use ``trace_items`` items with the same code.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
import workloads as W  # noqa: E402

# enough items to reach every layer each workload exercises, kept short
TEST_ITEMS = {"exact": 60, "zeros-real": 50, "winding": 3, "simulate": 2}
REPEATING = ("zeros.zeros_located", "simulate.rhs_evals", "zeros.winding.F_evals")


def _inputs(name, seed, n):
    return repr(list(zip(range(n), W.WORKLOADS[name].items(seed))))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    n = TEST_ITEMS[name]
    assert _inputs(name, 1, n) == _inputs(name, 1, n)
    assert _inputs(name, 1, n) != _inputs(name, 2, n)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_counts_and_digest_repeat(name, tmp_path):
    wl = W.WORKLOADS[name]
    wl.setup()
    runs = [worker.traced(W, wl, 7, tmp_path / f"spans{i}.csv.gz", TEST_ITEMS[name])
            for i in range(2)]
    for res in runs:
        assert res["problems"] == []
        assert res["failed"] == 0
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(".calls") or k in REPEATING}
              for r in runs]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    assert runs[0]["digest"] == runs[1]["digest"]
    if wl.digest_text is not None:
        assert runs[0]["digest"] is not None
