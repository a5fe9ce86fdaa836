"""Span tracing of bestpair's layers, done from outside the package.

`tracing(spans)` replaces bestpair's public callables by wrappers for the
duration of a `with` block and restores them afterwards. Each call of a
wrapped callable records a span (name, start, end, parent) in memory. After
an op, `Spans.summary()` turns its spans into self times and counts; a span's
self time is its duration minus the time its child spans cover, so the self
times of one op add up to the duration of its outermost span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from bestpair import cli, operators, oracles, solver
from bestpair.operators import Family
from bestpair.sets import Ball, Box, Ellipsoid, HalfSpace, Hyperplane

SET_CLASSES = (Ball, HalfSpace, Hyperplane, Box, Ellipsoid)
SET_KINDS = tuple(cls.kind for cls in SET_CLASSES)

# Span names and the bindings each wraps. A function imported by name into
# another module is wrapped there too, because callers look it up there.
MAIN = "cli.main"
LOAD = "cli.load_problem"
VALIDATE = "solver.validate_problem"
RUN = "solver.run_ashlwb"
EXTRACT = "solver.extract_best_pair"
INTERSECTION = "intersection.project_intersection"
WEIGHTED = "operators.weighted_projection"
PATH = "operators.q_hat_path"
DINI = "oracles.dini"
PROJECT = {kind: f"sets.project.{kind}" for kind in SET_KINDS}

TRACED = [
    (MAIN, [(cli, "main")]),
    (LOAD, [(cli, "load_problem")]),
    (VALIDATE, [(solver, "validate_problem"), (cli, "validate_problem")]),
    (RUN, [(solver, "run_ashlwb"), (cli, "run_ashlwb")]),
    (EXTRACT, [(solver, "extract_best_pair"), (cli, "extract_best_pair")]),
    (INTERSECTION, [(solver, "project_intersection"), (oracles, "project_intersection")]),
    (WEIGHTED, [(Family, "weighted_projection")]),
    (PATH, [(operators, "q_hat_path"), (oracles, "q_hat_path")]),
    (DINI, [(oracles, "dini_monotonicity_check"), (cli, "dini_monotonicity_check")]),
] + [(PROJECT[cls.kind], [(cls, "project")]) for cls in SET_CLASSES]


class Spans:
    """Spans of the calls made while tracing, kept in flat in-memory arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("q")  # spans that ended in an exception
        self.rows = Counter()  # span name id -> points projected
        self.runs = []  # (sweeps, terminal) of each run_ashlwb call
        self._open = [-1]  # the spans not yet ended, innermost last

    def clear(self):
        """Drop the recorded spans, keeping the arrays the wrappers hold."""
        for arr in (self.name, self.parent, self.start, self.end, self.raised):
            del arr[:]
        self.rows.clear()
        self.runs.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        perf = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, rows, raised, runs = self._open, self.rows, self.raised, self.runs
        counts_rows = name in PROJECT.values()
        keeps_runs = name == RUN

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(i)
            if counts_rows:
                x = np.asarray(args[1])
                rows[nid] += x.size // x.shape[-1] if x.ndim else 1
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.append(i)
                raise
            finally:
                ends[i] = perf()
                open_spans.pop()
            if keeps_runs:
                runs.append((result.sweeps, result.terminal))
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> "Totals":
        """Self time, calls, rows and parent-child call counts of the spans."""
        t = Totals()
        if not self.start:
            return t
        nid = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(nid, weights=dur - covered, minlength=len(self.names))
        total_s = np.bincount(nid, weights=dur, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        pairs = Counter(zip(nid[parent[nested]].tolist(), nid[nested].tolist()))
        for i, name in enumerate(self.names):
            t.self_s[name] = float(self_s[i])
            t.total_s[name] = float(total_s[i])
            t.calls[name] = int(calls[i])
            t.rows[name] = self.rows[i]
        for (p, c), n in pairs.items():
            t.children[self.names[p], self.names[c]] = n
        for i in self.raised:
            t.raised[self.names[nid[i]]] += 1
        t.sweeps = sum(s for s, _ in self.runs)
        t.converged = sum(term == "Converged" for _, term in self.runs)
        t.max_sweeps = sum(term == "MaxSweeps" for _, term in self.runs)
        return t


class Totals:
    """Sums over spans, addable across ops."""

    def __init__(self):
        self.self_s = Counter()
        self.total_s = Counter()  # self time plus the time of child spans
        self.calls = Counter()
        self.rows = Counter()
        self.raised = Counter()
        self.children = Counter()  # (parent name, child name) -> calls
        self.sweeps = 0
        self.converged = 0
        self.max_sweeps = 0

    def __iadd__(self, other: "Totals"):
        for name in ("self_s", "total_s", "calls", "rows", "raised", "children"):
            getattr(self, name).update(getattr(other, name))
        self.sweeps += other.sweeps
        self.converged += other.converged
        self.max_sweeps += other.max_sweeps
        return self


@contextmanager
def tracing(spans: Spans):
    """Wrap every callable in TRACED for the duration of the block."""
    saved = []
    try:
        for name, bindings in TRACED:
            for owner, attr in bindings:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, spans.wrap(name, fn))
        yield spans
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(t: Totals, ops: int) -> dict:
    """Per-layer metrics, each a mean per op: name -> (value, unit)."""
    m = {}
    for kind, name in PROJECT.items():
        m[f"sets.project_s.{kind}"] = (t.self_s[name] / ops, "s/op")
        m[f"sets.project_calls.{kind}"] = (t.calls[name] / ops, "count/op")
        m[f"sets.project_rows.{kind}"] = (t.rows[name] / ops, "count/op")
    m["operators.weighted_projection_s"] = (t.self_s[WEIGHTED] / ops, "s/op")
    m["operators.weighted_projection_calls"] = (t.calls[WEIGHTED] / ops, "count/op")
    m["operators.q_hat_path_s"] = (t.self_s[PATH] / ops, "s/op")
    m["intersection.project_intersection_s"] = (t.self_s[INTERSECTION] / ops, "s/op")
    m["intersection.project_intersection_calls"] = (t.calls[INTERSECTION] / ops, "count/op")
    set_projections = sum(t.children[INTERSECTION, p] for p in PROJECT.values())
    m["intersection.set_projections"] = (set_projections / ops, "count/op")
    m["intersection.budget_exhausted"] = (t.raised[INTERSECTION] / ops, "count/op")
    # each stop test projects onto both intersections, inside run_ashlwb
    stop_tests = t.children[RUN, INTERSECTION] / 2
    m["solver.sweeps"] = (t.sweeps / ops, "count/op")
    m["solver.inner_steps"] = (t.children[RUN, WEIGHTED] / ops, "count/op")
    m["solver.stop_tests"] = (stop_tests / ops, "count/op")
    m["solver.stop_test_hit_frac"] = (t.converged / stop_tests if stop_tests else 0.0, "frac")
    m["solver.validate_problem_s"] = (t.self_s[VALIDATE] / ops, "s/op")
    m["solver.run_ashlwb_s"] = (t.self_s[RUN] / ops, "s/op")
    m["solver.extract_best_pair_s"] = (t.self_s[EXTRACT] / ops, "s/op")
    m["solver.max_sweeps_exits"] = (t.max_sweeps / ops, "count/op")
    m["cli.load_problem_s"] = (t.self_s[LOAD] / ops, "s/op")
    m["cli.main_s"] = (t.self_s[MAIN] / ops, "s/op")
    m["oracles.dini_s"] = (t.self_s[DINI] / ops, "s/op")
    return m
