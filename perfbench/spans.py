"""In-memory spans and counters around the calls between weylg layers.

A traced pass replaces the module-level names through which one layer
calls the next (for example ``weylg.groupoid.cartan_matrix``) by
wrappers that open a span, call the original and close the span.  Each
span records its name, start, end, parent span and job id in compact
arrays; a layer's self time is its span's duration minus the time its
child spans cover.  Counters are updated at the same boundaries.
Untraced passes install nothing.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
import weakref
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, child time] of the open spans
        self.job = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = defaultdict(int)

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        self.span_job.append(self.job)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_name.append(nid)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def close(self, nid):
        end = time.perf_counter()
        sid, child = self._stack.pop()
        self.span_end[sid] = end
        duration = end - self.span_start[sid]
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn, on_result=None):
        """Wrapper of fn recording one span per call.

        on_result(args, result) runs after the span is closed, so its
        cost is tracing overhead, not layer time.
        """
        nid = self.name_id(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(nid)
                raise
            self.close(nid)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def bump(self, name, by=1):
        self.counts[name] += by

    def high(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def write(self, path):
        """Write every span as one gzipped CSV row."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "job", "parent", "name", "start_s", "end_s"])
            names = self.names
            for sid in range(len(self.span_start)):
                out.writerow((
                    sid,
                    self.span_job[sid],
                    self.span_parent[sid],
                    names[self.span_name[sid]],
                    f"{self.span_start[sid]:.9f}",
                    f"{self.span_end[sid]:.9f}",
                ))


def _max_abs(columns):
    return max((max(map(abs, col)) for col in columns if col), default=0)


def install(tracer, bench):
    """Wrap the layer boundaries, and the names through which the
    benchmark module calls into the layers; returns a function that
    restores them all."""
    rosso = importlib.import_module("weylg.rosso")
    groupoid = importlib.import_module("weylg.groupoid")
    homology = importlib.import_module("weylg.homology")
    snf = importlib.import_module("weylg.snf")
    errors = importlib.import_module("weylg.errors")
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def original(owner, attr):
        return owner.__dict__[attr]

    # groupoid side

    entry_span = tracer.wrap("rosso.cartan_entry",
                             original(rosso, "cartan_entry"))

    def traced_entry(*args, **kwargs):
        before = tracer.counts["rosso.m_steps"]
        try:
            return entry_span(*args, **kwargs)
        except errors.UndefinedCartanEntry:
            tracer.bump("rosso.undefined_entries")
            tracer.bump("rosso.m_steps_undefined",
                        tracer.counts["rosso.m_steps"] - before)
            raise

    def on_matrix(args, result):
        tracer.bump("groupoid.objects")

    def on_reflect(args, result):
        tensor = args[0]
        tracer.bump("groupoid.reflect.entries", tensor.rank ** tensor.degree)

    def on_condition(args, result):
        tracer.bump("rosso.m_steps")

    patch(groupoid, "cartan_matrix", tracer.wrap(
        "rosso.cartan_matrix", original(groupoid, "cartan_matrix"),
        on_result=on_matrix))
    patch(groupoid, "reflect", tracer.wrap(
        "groupoid.reflect", original(groupoid, "reflect"),
        on_result=on_reflect))
    patch(groupoid, "validate_axioms", tracer.wrap(
        "groupoid.validate_axioms", original(groupoid, "validate_axioms")))
    patch(rosso, "cartan_entry", traced_entry)
    patch(rosso, "rosso_condition", tracer.wrap(
        "rosso.rosso_condition", original(rosso, "rosso_condition"),
        on_result=on_condition))
    patch(rosso, "chi_eval", tracer.wrap(
        "lattice.chi_eval", original(rosso, "chi_eval")))

    real_roots_span = tracer.wrap("roots.real_roots", original(bench, "real_roots"))

    def traced_real_roots(*args, **kwargs):
        try:
            return real_roots_span(*args, **kwargs)
        except errors.DepthExceeded:
            tracer.bump("roots.depth_exceeded")
            raise

    patch(bench, "generate_cartan_graph", tracer.wrap(
        "groupoid.generate_cartan_graph",
        original(bench, "generate_cartan_graph")))
    patch(bench, "quiddity_cycle", tracer.wrap(
        "rank2.quiddity", original(bench, "quiddity_cycle")))
    patch(bench, "triangulate", tracer.wrap(
        "rank2.triangulate", original(bench, "triangulate")))
    patch(bench, "real_roots", traced_real_roots)
    patch(bench, "validate_root_axioms", tracer.wrap(
        "roots.validate", original(bench, "validate_root_axioms")))

    # complex side

    complex_cls = homology.CellComplex
    seen_cells = weakref.WeakKeyDictionary()
    cells = original(complex_cls, "cells")

    def traced_cells(self, n, level=None):
        key = (self.level if level is None else level, n)
        known = seen_cells.setdefault(self, set())
        result = cells_span(self, n, level)
        if key not in known:
            known.add(key)
            tracer.bump("homology.cells.count", len(result))
        return result

    cells_span = tracer.wrap("homology.cells", cells)

    def on_boundary(args, result):
        tracer.bump("cells.boundary.terms", len(result.terms))

    def on_boundary_matrix(args, rows):
        ncols = len(rows[0]) if rows else 0
        tracer.bump("homology.boundary_matrix.count")
        tracer.bump("homology.boundary_matrix.nnz",
                    sum(1 for row in rows for v in row if v))
        tracer.high("homology.boundary_matrix.max_rows", len(rows))
        tracer.high("homology.boundary_matrix.max_cols", ncols)

    def on_smith(args, result):
        rows = args[0]
        tracer.bump("snf.smith_diagonal.dense_entries",
                    len(rows) * (len(rows[0]) if rows else 0))

    def on_solver(args, solver):
        tracer.high("snf.column_solver.max_abs_H", _max_abs(solver.H))
        tracer.high("snf.column_solver.max_abs_V", _max_abs(solver.V))

    def on_membership(args, result):
        ok, witness = result
        if ok:
            tracer.bump("homology.witness.terms", len(witness.terms))
            tracer.high("homology.witness.max_coeff",
                        max(map(abs, witness.terms.values()), default=0))

    def on_solve(args, y):
        if y is not None:
            tracer.bump("snf.solve.hits")

    patch(complex_cls, "cells", traced_cells)
    patch(complex_cls, "boundary_matrix", tracer.wrap(
        "homology.boundary_matrix", original(complex_cls, "boundary_matrix"),
        on_result=on_boundary_matrix))
    patch(complex_cls, "boundary_membership", tracer.wrap(
        "homology.boundary_membership",
        original(complex_cls, "boundary_membership"),
        on_result=on_membership))
    patch(complex_cls, "homology", tracer.wrap(
        "homology.homology", original(complex_cls, "homology")))
    patch(homology, "boundary", tracer.wrap(
        "cells.boundary", original(homology, "boundary"),
        on_result=on_boundary))
    patch(homology, "smith_diagonal", tracer.wrap(
        "snf.smith_diagonal", original(homology, "smith_diagonal"),
        on_result=on_smith))
    patch(homology, "ColumnSolver", tracer.wrap(
        "snf.column_solver", original(homology, "ColumnSolver"),
        on_result=on_solver))
    patch(snf.ColumnSolver, "solve", tracer.wrap(
        "snf.solve", original(snf.ColumnSolver, "solve"),
        on_result=on_solve))

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall
