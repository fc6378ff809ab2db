"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of the dpptrack modules on the
Monte Carlo path.  Every module attribute that *is* the original function
object is replaced, so a function imported by name into another module
(``project_kernel`` into ``smc`` and ``dpp_filter``) is traced wherever it is
called.  ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped too, so time
inside them is a child of the enclosing span.

A span is ``(id, parent id, name, start, end, attrs)``.  Times come from
``time.perf_counter``, the system-wide monotonic clock on Linux, so spans
from pool workers line up with the parent's.  A worker appends its spans, one
JSON line per ``run_single`` call, to a file of its own in the trace
directory; the parent merges and deletes those files when ``run_experiment``
returns.  The ``run_single`` wrapper pickles as a call to
``_worker_run_single``, which installs a tracer in a spawned worker and
resets the copy a forked worker inherited, so spans are collected whichever
start method the pool uses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Modules on the Monte Carlo path.  oracle, oracle_io, checks and cli are off
# it and deliberately not traced.
MODULES = (
    "kernels",
    "smc",
    "dpp_filter",
    "ppp_filter",
    "scenario",
    "likelihood",
    "metrics",
    "harness",
)

EIGH_SPAN = "kernels.eigh"
RUN_SINGLE_SPAN = "harness.run_single"
RUN_EXPERIMENT_SPAN = "harness.run_experiment"

_active = None  # the Tracer installed in this process, if any


class TraceError(RuntimeError):
    """Spans that should have been recorded are missing."""


def _module(name):
    return importlib.import_module(f"dpptrack.{name}")


# -- per-call attributes: (args, kwargs, result) -> dict ---------------------


def _project_attrs(args, kwargs, result):
    bound = inspect.signature(_module("kernels").project_kernel).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"n": len(bound.arguments["grid"]), "max_iter": bound.arguments["max_iter"]}


def _eigh_attrs(kind):
    return lambda args, kwargs, result: {"n": int(np.shape(args[0])[-1]), "kind": kind}


def _dpp_step_attrs(args, kwargs, result):
    return {
        "particles": len(result.state.particles),
        "clamp_events": int(result.diagnostics.clamp_events),
        "offdiag_entries": int(result.diagnostics.offdiag_entries),
    }


def _pool_workers(args, kwargs) -> int:
    bound = inspect.signature(_module("harness").run_experiment).bind(*args, **kwargs)
    bound.apply_defaults()
    threads, cfg = bound.arguments["threads"], bound.arguments["cfg"]
    return threads if threads > 1 and cfg.mc_runs > 1 else 1


# (module, attribute, span name, attrs).  "Class.method" patches the class.
TARGETS = (
    ("kernels", "project_kernel", "kernels.project_kernel", _project_attrs),
    ("kernels", "interaction_kernel", "kernels.interaction_kernel", None),
    ("smc", "rebuild_kernel", "smc.rebuild_kernel", None),
    ("smc", "init_particles", "smc.init_particles", None),
    ("smc", "select_ids", "smc.select_ids", None),
    ("dpp_filter", "DppPhdFilter.step", "dpp_filter.step", _dpp_step_attrs),
    ("dpp_filter", "predict", "dpp_filter.predict", None),
    ("dpp_filter", "posterior_diagonal", "dpp_filter.posterior_diagonal", None),
    ("dpp_filter", "dpp_update", "dpp_filter.dpp_update", None),
    ("dpp_filter", "posterior_moments", "dpp_filter.posterior_moments", None),
    ("dpp_filter", "correlation_estimate", "dpp_filter.correlation_estimate", None),
    (
        "ppp_filter",
        "PppPhdFilter.step",
        "ppp_filter.step",
        lambda a, k, r: {"particles": len(r.particles)},
    ),
    ("ppp_filter", "ppp_predict", "ppp_filter.ppp_predict", None),
    (
        "ppp_filter",
        "poisson_weight_update",
        "ppp_filter.poisson_weight_update",
        lambda a, k, r: {"nonfinite": int(not np.all(np.isfinite(r)))},
    ),
    ("scenario", "TruthSimulator.step", "scenario.TruthSimulator.step", None),
    (
        "scenario",
        "step_dynamics",
        "scenario.step_dynamics",
        lambda a, k, r: {"rows": int(r.shape[0])},
    ),
    (
        "likelihood",
        "SensorModel.tilde_matrix",
        "likelihood.tilde_matrix",
        lambda a, k, r: {"cells": int(r.size)},
    ),
    ("metrics", "extract_estimates", "metrics.extract_estimates", None),
    ("metrics", "omat", "metrics.omat", None),
    ("metrics", "ospa", "metrics.ospa", None),
    ("metrics", "good_estimate_stats", "metrics.good_estimate_stats", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.worker = False  # in a pool worker, spans go to a file
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        extra = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, extra))

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch the Monte Carlo path of the dpptrack package."""
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed in this process")
        for mod_name, path, name, attrs in TARGETS:
            owner = _module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(name, vars(cls)[attr], attrs))
            else:
                fn = getattr(owner, path)
                self._set_everywhere(fn, self._wrap(name, fn, attrs))
        for kind in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, kind)
            self._set(np.linalg, kind, self._wrap(EIGH_SPAN, fn, _eigh_attrs(kind)))
        harness = _module("harness")
        self._set(harness, "run_single", TracedRunSingle(harness.run_single))
        self._set(harness, "run_experiment", self._traced_experiment(harness.run_experiment))
        _active = self

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_everywhere(self, fn, wrapped) -> None:
        for mod_name in MODULES:
            owner = _module(mod_name)
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        if _active is self:
            _active = None

    # -- pool workers ------------------------------------------------------

    def _traced_experiment(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            workers = _pool_workers(args, kwargs)
            try:
                result = self.call(RUN_EXPERIMENT_SPAN, fn, args, kwargs)
            finally:
                # recorded even when a run raised, so pool_eff counts the call
                sid, parent, name, t0, t1, _extra = self.spans[-1]
                self.spans[-1] = (sid, parent, name, t0, t1, {"workers": workers})
                found = self.collect_workers(sid)
            runs = result.config.mc_runs
            if workers > 1 and found != runs:
                raise TraceError(f"{found} worker run_single spans for {runs} pooled runs")
            return result

        return traced

    def reset_if_forked(self) -> None:
        """A forked worker starts with no spans of its parent's."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.worker = True
            self.spans = []
            self._stack = []
            self._next_id = 0

    def flush_worker(self) -> None:
        """Append this worker's spans to its file and forget them."""
        with open(self.trace_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_workers(self, parent_id) -> int:
        """Merge worker span files under span ``parent_id``; return how many
        ``run_single`` spans they held."""
        found = 0
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            lines = path.read_text().splitlines()
            path.unlink()
            for line in lines:
                spans = json.loads(line)
                # spans are stored as they close, children before parents
                remap = {span[0]: self._next_id + k for k, span in enumerate(spans)}
                self._next_id += len(spans)
                for sid, parent, name, t0, t1, extra in spans:
                    new_parent = parent_id if parent is None else remap[parent]
                    self.spans.append((remap[sid], new_parent, name, t0, t1, extra))
                    found += name == RUN_SINGLE_SPAN
        return found


class TracedRunSingle:
    """``harness.run_single`` replacement that can be pickled to a pool
    worker and records the worker's spans there."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args, **kwargs):
        tracer = _active
        tracer.reset_if_forked()
        try:
            return tracer.call(RUN_SINGLE_SPAN, self.fn, args, kwargs)
        finally:
            if tracer.worker:
                tracer.flush_worker()

    def __reduce__(self):
        return _worker_run_single, (str(_active.trace_dir),)


def _worker_run_single(trace_dir):
    """Unpickling hook in a pool worker: return its traced ``run_single``."""
    if _active is None:  # spawned worker: a fresh interpreter
        tracer = Tracer(trace_dir)
        tracer.install()
        tracer.worker = True
    return _module("harness").run_single


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reached = lo
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, hi)
        if b > a:
            total += b - a
            reached = b
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for _sid, parent, _name, t0, t1, _extra in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered(children[sid], t0, t1)
        for sid, _parent, _name, t0, t1, _extra in spans
    }


def aggregate(spans) -> dict:
    """Per span name: total seconds ``s``, ``self_s`` and ``calls``."""
    own = self_times(spans)
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, _parent, name, t0, t1, _extra in spans:
        agg = out[name]
        agg["s"] += t1 - t0
        agg["self_s"] += own[sid]
        agg["calls"] += 1
    return out


TIMED = tuple(t[2] for t in TARGETS) + (RUN_SINGLE_SPAN, RUN_EXPERIMENT_SPAN)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer totals, self times, counts and ratios of one traced run."""
    agg = aggregate(spans)
    out = {}
    for name in TIMED:
        for key in ("s", "self_s", "calls"):
            out[f"{name}.{key}"] = agg[name][key]
    out["kernels.eigh.s"] = agg[EIGH_SPAN]["s"]
    out["kernels.eigh.calls"] = agg[EIGH_SPAN]["calls"]

    names = {}
    decomps = defaultdict(list)  # parent span id -> attrs of its eigh calls
    by_name = defaultdict(list)  # span name -> (parent name, span id, attrs)
    for sid, parent, name, _t0, _t1, extra in spans:
        names[sid] = name
        if name == EIGH_SPAN:
            decomps[parent].append(extra)
    for sid, parent, name, _t0, _t1, extra in spans:
        if extra is not None:
            by_name[name].append((names.get(parent), sid, extra))

    proj = by_name["kernels.project_kernel"]
    inner = [e for _p, sid, _e in proj for e in decomps[sid]]
    out["kernels.project_kernel.eigh_calls"] = len(inner)
    out["kernels.project_kernel.n3_sum"] = sum(e["n"] ** 3 for e in inner)
    capped = sum(
        sum(e["kind"] == "eigh" for e in decomps[sid]) >= extra["max_iter"]
        for _p, sid, extra in proj
    )
    out["kernels.project_kernel.cap_hit_frac"] = capped / len(proj) if proj else 0.0
    out["kernels.project_kernel.n_mean"] = _mean(e["n"] for _p, _s, e in proj)

    steps = by_name["dpp_filter.step"] + by_name["ppp_filter.step"]
    out["smc.particles_mean"] = _mean(e["particles"] for _p, _s, e in steps)
    dpp = [e for _p, _s, e in by_name["dpp_filter.step"]]
    offdiag = sum(e["offdiag_entries"] for e in dpp)
    clamps = sum(e["clamp_events"] for e in dpp)
    out["dpp_filter.clamp_frac"] = clamps / offdiag if offdiag else 0.0
    out["ppp_filter.nonfinite_updates"] = sum(
        e["nonfinite"] for _p, _s, e in by_name["ppp_filter.poisson_weight_update"]
    )
    moves = by_name["scenario.step_dynamics"]
    truth = "scenario.TruthSimulator.step"
    out["scenario.step_dynamics.rows_truth"] = sum(e["rows"] for p, _s, e in moves if p == truth)
    out["scenario.step_dynamics.rows_filter"] = sum(e["rows"] for p, _s, e in moves if p != truth)
    out["likelihood.tilde_matrix.cells"] = sum(
        e["cells"] for _p, _s, e in by_name["likelihood.tilde_matrix"]
    )
    busy = sum(
        extra["workers"] * (t1 - t0)
        for _sid, _parent, name, t0, t1, extra in spans
        if name == RUN_EXPERIMENT_SPAN and extra is not None
    )
    out["harness.pool_eff"] = agg[RUN_SINGLE_SPAN]["s"] / busy if busy else 0.0
    return out
