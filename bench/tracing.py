"""Spans around the public functions of each ionread layer.

A traced run installs a timing wrapper at every name a caller resolves for
a traced function: a function imported by name into another module
(``harness.simulate_ensemble``, ``cli.read_counts_csv``) is replaced there
as well as in its defining module, while a function reached through its
module (``cl.general_loglik``) only needs the module attribute.  Wrappers
record a span only while an op is open, keep spans in memory, and are
removed when the traced run ends.

A span's parent is the innermost open span of the same thread.  Spans
opened by a worker thread with nothing open on it (the chunk workers of a
threaded simulation) take the innermost open span of the op's own thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    op: int
    start: float
    end: float
    span_id: int
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _trial_bins(args, kwargs, result):
    counts = np.asarray(args[0])
    return {"trial_bins": counts.size}


def _ensemble_work(args, kwargs, result):
    return {"trial_bins": result.counts.size,
            "state_changes": int(np.count_nonzero(~np.isnan(result.change_times)))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fit_evals(args, kwargs, result):
    return {"evals": result.n_evaluations}


def _one(args, kwargs, result):
    return {"calls": 1}


#: (defining module, function, span name, counter, records a span).
#: Span names are the layer metric prefixes; two functions may share one.
TARGETS = (
    ("ionread.trajectory", "simulate_ensemble", "trajectory.simulate", _ensemble_work, True),
    ("ionread.trajectory", "simulate_ensemble_from_states", "trajectory.simulate", _ensemble_work, True),
    ("ionread.trajectory", "bright_dwell_per_bin", "trajectory.dwell", None, True),
    ("ionread.trajectory", "write_ensemble_csv", "trajectory.csv_write", _file_bytes, True),
    ("ionread.trajectory", "read_counts_csv", "trajectory.csv_read", None, True),
    ("ionread.classifiers", "general_loglik", "classifiers.general", _trial_bins, True),
    ("ionread.classifiers", "simple_loglik", "classifiers.simple", _trial_bins, True),
    ("ionread.classifiers", "estimate_transfer_matrices", "classifiers.transfer", None, True),
    ("ionread.harness", "evaluate_prefixes", "harness.evaluate_prefixes", None, True),
    ("ionread.harness", "decisions_for", "harness.decisions_for", None, True),
    ("ionread.harness", "decisions_to_csv", "harness.csv_write", None, True),
    ("ionread.harness", "report_rows_to_csv", "harness.csv_write", None, True),
    # Counted, not spanned: row assembly is part of its caller's self time.
    ("ionread.harness", "report_from_decisions", "harness.report_rows", _one, False),
    ("ionread.estimation", "fit_decay_curves", "estimation.fit", _fit_evals, True),
)


class Tracer:
    """Collects spans and counters for numbered ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = {}
        self.present: set[str] = set()
        self._op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list | None = None
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        self._root_stack = self._stack()
        self._op = op

    def end_op(self) -> None:
        self._op = None

    def _add(self, op: int, name: str, key: str, value) -> None:
        with self._lock:
            self.counts[op, name, key] = self.counts.get((op, name, key), 0) + value

    def wrap(self, name: str, fn, counter, spanned: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            if not spanned:
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack()
                if stack:
                    parent = stack[-1]
                else:
                    root = tracer._root_stack
                    parent = root[-1] if root and root is not stack else None
                span_id = next(tracer._ids)
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    with tracer._lock:
                        tracer.spans.append(Span(name, op, start, end, span_id, parent))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer._add(op, name, key, value)
            return result

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Patch every ionread binding of each target for the ``with`` body.

    Targets whose function no longer exists are skipped; their span names
    stay out of ``tracer.present`` so the metrics built on them are
    reported as absent.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ionread" or name.startswith("ionread."))]
    restore = []
    try:
        for module_name, attr, name, counter, spanned in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                continue
            tracer.present.add(name)
            wrapper = tracer.wrap(name, original, counter, spanned)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        restore.append((module, key, value))
        yield tracer
    finally:
        for module, key, value in reversed(restore):
            setattr(module, key, value)


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class OpTrace:
    """Spans and counters of one traced op."""

    def __init__(self, tracer: Tracer, op: int, wall_s: float):
        self.spans = [s for s in tracer.spans if s.op == op]
        self.counts = {(name, key): v for (o, name, key), v in tracer.counts.items()
                       if o == op}
        self.wall_s = wall_s
        self._children = {}
        for span in self.spans:
            self._children.setdefault(span.parent, []).append(span)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        return self.counts.get((name, key), 0)

    def self_time(self, name: str) -> float:
        """Span time minus the part of it covered by child spans."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            kids = [(max(c.start, span.start), min(c.end, span.end))
                    for c in self._children.get(span.span_id, ())]
            total += span.duration - union_length(k for k in kids if k[1] > k[0])
        return total

    def top_level_share(self) -> float:
        """Fraction of the op's wall time covered by spans with no parent."""
        return union_length((s.start, s.end) for s in self._children.get(None, ())) / self.wall_s
