"""The exact layers run without scipy; numeric layers load it on first use.

Each check runs in a fresh interpreter, because this test process has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import raylien

SRC = str(Path(raylien.__file__).resolve().parents[1])

EXACT_WORK = """
import contextlib, importlib, io, json, pkgutil, sys

import raylien
from raylien import cli

for m in pkgutil.iter_modules(raylien.__path__):
    importlib.import_module("raylien." + m.name)
case = raylien.GLOBAL_CENTER
raylien.reduce(raylien.OneForm(raylien.PolyXY.monomial(1, 6)), case)
arc = raylien.ParamArc.linear([0, 1, 0, 0, 0, 1])
raylien.melnikov(arc, case)
raylien.predict_order(arc, case)
raylien.bautin_generators(1, -1)
x2, y3 = raylien.MultiPoly(2, {(2, 0): 1}), raylien.MultiPoly(2, {(0, 3): 1})
raylien.nakayama_certify([x2 + raylien.MultiPoly(2, {(2, 2): 1, (0, 4): 1}), y3], [x2, y3], 12)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(["reduce", "--case", "global-center", "--form", "x y^6 dx"])
exact = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
raylien.periods_real(case, 1.0)
print(json.dumps({"code": code, "exact": exact,
                  "after_period": [m in sys.modules for m in
                                   ("scipy.special", "scipy.optimize", "scipy.integrate")]}))
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter on this package; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_work_loads_no_scipy():
    out = run_fresh(EXACT_WORK)
    assert out["code"] == 0
    assert out["exact"] == []
    # a real period loads scipy.special alone
    assert out["after_period"] == [True, False, False]


FIRST_RETURNS_FROM_THREADS = """
import json, sys, threading

import numpy as np

from raylien import simulate
from raylien.forms import EIGHT_INTERIOR, GLOBAL_CENTER, TRUNCATED_PENDULUM

built = []
init = simulate._CompiledReturn.__init__


def counted_init(self):
    built.append(self)
    init(self)


simulate._CompiledReturn.__init__ = counted_init
jobs = [(cfg, float(x))
        for cfg in (simulate.SimConfig(GLOBAL_CENTER, (1, -1, 0, 0, 0, 0), 1e-2),
                    simulate.SimConfig(EIGHT_INTERIOR, (0.3, -0.2, 0.5, 0.1, -0.4, 0.2), 1e-2),
                    simulate.SimConfig(TRUNCATED_PENDULUM, (1, -1, 0, 0, 0, 0), 1e-2))
        for x in np.linspace(*simulate.default_x_window(cfg.case), 4)]


def outcome(cfg, x0):
    try:
        return simulate.poincare_return(cfg, x0)
    except simulate.EscapeError as exc:
        return str(exc)


results = [None] * len(jobs)
ready = threading.Barrier(4)


def work(k):
    ready.wait(timeout=60)
    for i in range(k, len(jobs), 4):
        results[i] = outcome(*jobs[i])


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
alive = any(t.is_alive() for t in threads)
serial = [outcome(cfg, x) for cfg, x in jobs]
print(json.dumps({"alive": alive, "built": len(built), "bound": simulate._compiled_return is built[0],
                  "equal": results == serial}))
"""


def test_first_returns_from_threads_build_one_compiled_return():
    """Four threads make the process's first single returns at once.

    The compiled integrators are built by the first return; returns that
    start together must build them once and match the serial returns.
    """
    out = run_fresh(FIRST_RETURNS_FROM_THREADS)
    assert out == {"alive": False, "built": 1, "bound": True, "equal": True}
