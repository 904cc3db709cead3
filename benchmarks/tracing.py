"""Span tracing around pddopt's public module boundaries.

The benchmark never edits the package. For a traced run it replaces module
attributes (``harness.run_optimizer``, ``toynet.mlp_loss_grad``, ...) with
wrappers that open a span, call the original and close the span, and it
wraps every objective that ``harness.build_problem`` returns in a
``TimedObjective``. Spans live in flat in-memory arrays (name, parent,
start, end), are written out once at the end, and self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

from pddopt import analysis, cli, dynamics, harness, optimizers, toynet
from pddopt.objective import Objective

_now = time.perf_counter


class Tracer:
    """Records nested spans; a span's parent is the innermost open span."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.tags: Dict[int, str] = {}  # span index -> optimizer method

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) as one .npz file."""
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


class TimedObjective(Objective):
    """An Objective that opens a span around every value, gradient and
    Hessian evaluation of the objective it wraps."""

    def __init__(self, inner: Objective, tracer: Tracer):
        super().__init__(inner.dim, inner.value, inner.gradient,
                         inner.hessian if inner.has_hessian else None,
                         minimizer=None, name=inner.name)
        self.minimizer = inner.minimizer  # skip the stationarity re-check
        self._tr = tracer
        self._ids = tuple(tracer.name_id(n) for n in (
            "objective.value", "objective.gradient", "objective.hessian_at"))

    def value(self, x):
        i = self._tr.enter(self._ids[0])
        try:
            return super().value(x)
        finally:
            self._tr.exit(i)

    def gradient(self, x):
        i = self._tr.enter(self._ids[1])
        try:
            return super().gradient(x)
        finally:
            self._tr.exit(i)

    def hessian_at(self, x, h=None):
        i = self._tr.enter(self._ids[2])
        try:
            return super().hessian_at(x, h)
        finally:
            self._tr.exit(i)


AfterHook = Callable[[Tracer, int, tuple, dict, object], object]


def _wrap(tracer: Tracer, fn, span: str, after: Optional[AfterHook] = None):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(i)
        return out if after is None else after(tracer, i, args, kwargs, out)
    return wrapper


# -- hooks that turn a call's arguments and result into counts ---------------

def _after_build_problem(tr, i, args, kwargs, out):
    obj, ctx = out
    return TimedObjective(obj, tr), ctx


def _after_run_optimizer(tr, i, args, kwargs, traj):
    method = args[1] if len(args) > 1 else kwargs["method"]
    tr.tags[i] = method
    iters = traj.records[-1].iter
    tr.counts["optimizers.steps"] += iters
    tr.counts[f"iters_by_method.{method}"] += iters
    return traj


def _after_run_experiment(tr, i, args, kwargs, art):
    for label, traj in art.trajectories.items():
        tr.counts[f"optimizers.iters.{art.config.problem.name}.{label}"] = \
            traj.records[-1].iter
    return art


def _after_emit_csv(tr, i, args, kwargs, out):
    traj, path = args[0], args[1]
    tr.counts["harness.records"] += len(traj.records)
    tr.counts["harness.bytes_written"] += os.path.getsize(path)
    return out


def _after_emit_svg(tr, i, args, kwargs, out):
    tr.counts["harness.bytes_written"] += os.path.getsize(args[1])
    return out


def _after_integrate_rk4(tr, i, args, kwargs, traj):
    tr.counts["dynamics.rk4_steps"] += traj.times.shape[0] - 1
    return traj


# (module, attribute, span name, hook). A function imported by name into
# several modules is wrapped in each, under one span name.
BOUNDARIES = (
    (harness, "preset", "harness.preset", None),
    (harness, "build_problem", "harness.build_problem", _after_build_problem),
    (harness, "load_config", "harness.load_config", None),
    (harness, "save_config", "harness.save_config", None),
    (harness, "run_experiment", "harness.run_experiment", _after_run_experiment),
    (harness, "emit_csv", "harness.emit_csv", _after_emit_csv),
    (harness, "emit_svg", "harness.emit_svg", _after_emit_svg),
    (harness, "run_optimizer", "optimizers.run_optimizer", _after_run_optimizer),
    (optimizers, "run_optimizer", "optimizers.run_optimizer", _after_run_optimizer),
    (dynamics, "pdd_step", "optimizers.pdd_step", None),
    (cli, "pdd_step", "optimizers.pdd_step", None),
    (toynet, "train", "toynet.train", None),
    (toynet, "make_blobs", "toynet.make_blobs", None),
    (toynet, "stochastic_step", "toynet.stochastic_step", None),
    (toynet, "mlp_loss_grad", "toynet.mlp_loss_grad", None),
    (toynet, "accuracy", "toynet.accuracy", None),
    (dynamics, "pdd_vector_field", "dynamics.pdd_vector_field", None),
    (dynamics, "integrate_rk4", "dynamics.integrate_rk4", _after_integrate_rk4),
    (cli, "integrate_rk4", "dynamics.integrate_rk4", _after_integrate_rk4),
    (dynamics, "discrete_continuous_consistency",
     "dynamics.discrete_continuous_consistency", None),
    (analysis, "estimate_constants", "analysis.estimate_constants", None),
    (analysis, "theorem6_params", "analysis.theorem6_params", None),
    (analysis, "discrete_decay_check", "analysis.discrete_decay_check", None),
    (analysis, "lyapunov_I", "analysis.lyapunov_I", None),
    (analysis, "sample_D0_lower_bound", "analysis.sample_D0_lower_bound", None),
    (analysis, "quadratic_spectral_rate", "analysis.quadratic_spectral_rate", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_analyze", "cli.cmd_analyze", None),
    (cli, "cmd_dynamics", "cli.cmd_dynamics", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore."""
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _, _ in BOUNDARIES]
    for (module, attr, fn), (_, _, span, hook) in zip(saved, BOUNDARIES):
        setattr(module, attr, _wrap(tracer, fn, span, hook))
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# -- deriving per-layer metrics from the spans -------------------------------

class SpanTable:
    """Numpy view of a tracer's spans with per-span self time."""

    def __init__(self, tr: Tracer, first: int = 0):
        self.names = tr.names
        self.name = np.frombuffer(tr.name, np.int32).copy()
        self.parent = np.frombuffer(tr.parent, np.int32).copy()
        self.dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self.in_range = np.arange(len(self.dur)) >= first

    def mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return (self.name == self.names.index(span)) & self.in_range

    def calls(self, span: str) -> int:
        return int(self.mask(span).sum())

    def total(self, span: str) -> float:
        return float(self.dur[self.mask(span)].sum())

    def self_of(self, span: str) -> float:
        return float(self.self_time[self.mask(span)].sum())

    def under(self, span: str) -> np.ndarray:
        """Spans that are ``span`` or nested anywhere below one."""
        flag = self.mask(span)
        has_parent = self.parent >= 0
        while True:
            nxt = flag.copy()
            nxt[has_parent] |= flag[self.parent[has_parent]]
            if np.array_equal(nxt, flag):
                return flag
            flag = nxt
