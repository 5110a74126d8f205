"""In-memory spans around the package's public functions.

A :class:`Tracer` replaces chosen functions at the attribute through which
their callers look them up (``raylien.zeros.periods_real`` is the name
``count_zeros_real`` calls, ``raylien.melnikov.reduce_form`` the name the
Melnikov recursion calls) with wrappers that record one span per call:
(item, span id, parent span id, name, start, end).  Spans of one item share
the item number; the parent is the innermost open span.  Two hot methods
are counted rather than spanned: ``_ContourTable.jj_at`` (one F evaluation
of the winding) and the right-hand side returned by ``SimConfig.rhs``.

The wrappers are in place only inside :meth:`Tracer.item`, so warm-up,
untraced items and the correctness checks run the original functions.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _reduce_label(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "rewrite")
    return f"forms.reduce_{method}"


def _tally_report(counts, report) -> None:
    counts["zeros.zeros_located"] += len(report.locations)
    counts["zeros.uncertified_reports"] += not report.certified


class Tracer:
    def __init__(self, mods):
        """Prepare wrappers for the layers' entry points; `mods` is the workloads module."""
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._item = -1
        self._patches: list[tuple[object, str, object, object]] = []
        spans = [
            (mods.melnikov, "reduce_form", None, _reduce_label),
            (mods.melnikov, "melnikov", "melnikov.melnikov", None),
            (mods.melnikov, "solve_linear_exact", "exactalg.solve_linear_exact", None),
            (mods.forms, "reduce", None, _reduce_label),
            (mods.forms, "verify_decomposition", "forms.verify_decomposition", None),
            (mods.forms, "solve_linear_exact", "exactalg.solve_linear_exact", None),
            (mods.bautin, "predict_order", "bautin.predict_order", None),
            (mods.bautin, "nakayama_certify", "bautin.nakayama_certify", None),
            (mods.elliptic, "periods_real", "elliptic.periods_real", None),
            (mods.zeros, "periods_real", "elliptic.periods_real", None),
            (mods.zeros, "eval_V", "zeros.eval_V", None),
            (mods.zeros, "count_zeros_real", "zeros.count_zeros_real", None, _tally_report),
            (mods.zeros, "winding_number_F", "zeros.winding_number_F", None),
            (mods.simulate, "poincare_return", "simulate.poincare_return", None),
            (mods.simulate, "find_limit_cycles", "simulate.find_limit_cycles", None),
        ]
        for owner, attr, name, label, *after in spans:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name, label, *after))

        table = mods.zeros._ContourTable
        self._patch(table, "jj_at", self._counted(table.jj_at, "zeros.winding.F_evals"))

        make_rhs = mods.simulate.SimConfig.rhs

        @functools.wraps(make_rhs)
        def rhs(cfg):
            return self._counted(make_rhs(cfg), "simulate.rhs_evals")

        self._patch(mods.simulate.SimConfig, "rhs", rhs)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    @contextmanager
    def item(self, index: int):
        """Trace one item: the wrappers are in place only inside this block."""
        self._item = index
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._item = -1

    def _spanned(self, fn, name: str | None = None, label=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{span_name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (tracer._item, sid, parent, span_name, t0, t1)
            if after is not None:
                after(tracer.counts, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for _, sid, _, name, t0, t1 in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
        return {k: tuple(v) for k, v in out.items()}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        inside = [False] * len(self.spans)
        n = 0
        for _, sid, parent, span_name, _, _ in self.spans:
            up = parent >= 0 and (inside[parent] or self.spans[parent][3] == ancestor)
            inside[sid] = up
            n += up and span_name == name
        return n

    def write(self, path) -> None:
        """All spans as gzip'd CSV: item,span,parent,name,start_s,end_s."""
        with gzip.open(path, "wt") as fh:
            fh.write("item,span,parent,name,start_s,end_s\n")
            for item, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{item},{sid},{parent},{name},{t0!r},{t1!r}\n")
