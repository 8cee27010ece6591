"""Span tracer for the benchmark's traced run.

The tracer wraps soblab's layer entry points where their callers bind
them (for example `soblab.training.loop.backward`, which is the name the
training loop calls), so nothing in `src/` changes.  Each wrapper records
a span (id, name, start, end, parent) in memory, plus per-call counts
where a metric needs them.  `installed()` patches every target and
restores every original name on exit.

A span's self time is its duration minus the part of it that its child
spans cover.  Sweep jobs run on pool threads; their spans take the pool
span as parent, so the overlap of concurrent children is reported
separately and the self times still add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np
from scipy.spatial import cKDTree

ROOT_SPAN = "cli.main"
POOL_SPAN = "cli.sweep.pool"
JOB_SPAN = "cli.sweep.job"
# Relative slack at which the K-th and (K+1)-th neighbour distances tie,
# the same slack soblab.geometry uses to find ambiguous KNN rows.
TIE_SLACK = 1.0 + 1e-12


class Tracer:
    """In-memory spans and counts from wrapped soblab callables."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.counts = []  # (span id, {counter: value})
        self.roots = {}  # root span id -> command label
        self.knn_inputs = []  # (points, k) of every knn_all call
        self.job_cpu_s = []  # thread CPU seconds of every pool job
        self.missing = []  # targets absent from this version of soblab
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def root(self, label):
        """Span around one CLI command, the root of its span tree."""
        stack = self._stack()
        sid = next(self._ids)
        self.roots[sid] = label
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, ROOT_SPAN, start, end, None))

    def wrap(self, fn, name, count=None, parent=None):
        """fn wrapped in a span.

        name is a string or a callable of (args, kwargs); count, if given,
        maps (tracer, args, kwargs, result) to a dict of counters; parent
        is used when the calling thread has no open span.
        """
        spans, counts, ids, stack_of = self.spans, self.counts, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = stack_of()
            sid = next(ids)
            up = stack[-1] if stack else parent
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, label, start, end, up))
            if count is not None:
                counts.append((sid, count(self, args, kwargs, result)))
            return result

        return traced

    def install(self, targets=None):
        """Patch every target; names absent from soblab are listed in missing."""
        for owner_path, attr, name, count in targets or TARGETS:
            owner = _resolve(owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if attr == "ThreadPoolExecutor":
                replacement = _traced_pool(self, original)
            else:
                replacement = self.wrap(original, name, count)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets=None):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()


def _resolve(path):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


def _traced_pool(tracer, base):
    """A ThreadPoolExecutor subclass with a span from enter to exit and one
    span per submitted job, parented to the pool span across threads."""

    class TracedPool(base):
        def __enter__(self):
            stack = tracer._stack()
            self._bench_span = (next(tracer._ids), perf_counter(), tracer.current())
            stack.append(self._bench_span[0])
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                sid, start, parent = self._bench_span
                tracer._stack().pop()
                tracer.spans.append((sid, POOL_SPAN, start, perf_counter(), parent))
                tracer.counts.append((sid, {"threads": self._max_workers}))

        def submit(self, fn, /, *args, **kwargs):
            traced = tracer.wrap(fn, JOB_SPAN, parent=tracer.current())

            def job(*a, **k):
                cpu = thread_time()
                try:
                    return traced(*a, **k)
                finally:
                    tracer.job_cpu_s.append(thread_time() - cpu)

            return super().submit(job, *args, **kwargs)

    return TracedPool


# ---------------------------------------------------------------------------
# counters recorded by the wrappers: (tracer, args, kwargs, result) -> dict
# ---------------------------------------------------------------------------

def _csv_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _knn_rows(tracer, args, kwargs, result):
    index, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    tracer.knn_inputs.append((index.cloud.points, int(k)))
    return {"rows": index.cloud.size}


def _stencils(tracer, args, kwargs, result):
    return {"stencils": result.size, "flagged": int(np.count_nonzero(result.flagged))}


def _epochs(tracer, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"epochs": cfg.epochs}


def _conflicts(tracer, args, kwargs, result):
    g1, g2 = args[0], args[1]
    return {"projections": int(float(np.dot(g1, g2)) < 0.0)}


def _flow_steps(tracer, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    dt = cfg.dt if cfg.dt is not None else cfg.resolved_dt()
    return {"steps": max(0, int(round(cfg.t_final / dt)))}


def _batch_start_steps(tracer, args, kwargs, result):
    import soblab.convlab

    # the signature of the wrapper is that of the function it wraps
    bound = inspect.signature(soblab.convlab.integrate_flow_batch).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    starts = np.atleast_2d(np.asarray(a["w0_batch"])).shape[0]
    return {"start_steps": starts * max(0, int(round(a["t_final"] / a["dt"])))}


def _failed_verdicts(tracer, args, kwargs, result):
    return {"failed_verdicts": sum(not v["pass"] for v in result)}


def _backward_name(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["loss_kind"]
    return "training.backward_" + str(kind).strip().lower()


_MLP = "soblab.training.mlp.ReluMLP"

# (owner, attribute, span name, counter): each callable is wrapped where its
# caller looks it up, so the CLI, the MLS solver and the training loop all
# reach the wrapper.
TARGETS = (
    ("soblab.cli.main", "load_cloud_csv", "cli.load_cloud_csv", None),
    ("soblab.cli.main", "write_csv", "cli.write_csv", _csv_bytes),
    ("soblab.cli.main", "write_manifest", "cli.manifest", None),
    ("soblab.cli.svg", "line_plot", "cli.svg", None),
    ("soblab.cli.svg", "heatmap", "cli.svg", None),
    ("soblab.cli.main", "ThreadPoolExecutor", POOL_SPAN, None),
    ("soblab.mls", "build_index", "geometry.build_index", None),
    ("soblab.mls", "knn_all", "geometry.knn_all", _knn_rows),
    ("soblab.mls", "estimate_derivatives", "mls.estimate_derivatives", _stencils),
    ("soblab.training.datasets", "estimate_derivatives", "mls.estimate_derivatives", _stencils),
    ("soblab.cli.main", "synth_dataset", "training.synth_dataset", None),
    ("soblab.training.datasets", "mls_derivative_targets", "training.mls_derivative_targets", None),
    ("soblab.cli.main", "train", "training.train", _epochs),
    ("soblab.training.loop", "backward", _backward_name, None),
    ("soblab.training.loop", "evaluate_losses", "training.evaluate_losses", None),
    ("soblab.training.loop", "predict_values", "training.predict_values", None),
    ("soblab.training.loop", "pcgrad_merge", "training.pcgrad_merge", _conflicts),
    (_MLP, "forward", "training.mlp.forward", None),
    (_MLP, "jvp", "training.mlp.jvp", None),
    (_MLP, "backward", "training.mlp.backward", None),
    (_MLP, "jvp_param_grads", "training.mlp.backward", None),
    (_MLP, "input_gradient", "training.mlp.backward", None),
    ("soblab.convlab", "flow_integrate", "convlab.flow_integrate", _flow_steps),
    ("soblab.convlab", "validation_suite", "convlab.validation_suite", _failed_verdicts),
    ("soblab.convlab", "integrate_flow_batch", "convlab.integrate_flow_batch", _batch_start_steps),
    ("soblab.convlab", "mc_gated_correlation", "convlab.mc", None),
    ("soblab.convlab", "mc_quadrant_prob", "convlab.mc", None),
    ("soblab.convlab", "finite_sample_value_gradient", "convlab.mc", None),
    ("soblab.convlab", "finite_sample_derivative_gradient", "convlab.mc", None),
)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals, start, end) -> float:
    """Length of the union of intervals clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_times(spans):
    """({span id: self seconds}, overlap of concurrent children)."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s = {}
    overlap = 0.0
    for sid, _, start, end, _ in spans:
        kids = children.get(sid, ())
        covered = _covered(kids, start, end)
        overlap += sum(hi - lo for lo, hi in kids) - covered
        self_s[sid] = end - start - covered
    return self_s, overlap


def summarize(tracer: Tracer):
    """Per span name: calls, total and self seconds, summed counters.

    Returns (per-name dict, overlap) where overlap is the time concurrent
    children add beyond the interval they cover, so that the self times
    of all spans sum to the root time plus overlap.
    """
    self_s, overlap = _self_times(tracer.spans)
    names = {}
    per_name = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _ in tracer.spans:
        names[sid] = name
        rec = per_name[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += self_s[sid]
    for sid, counts in tracer.counts:
        rec = per_name[names[sid]]
        for key, value in counts.items():
            rec[key] += value
    return per_name, overlap


def self_by_command(tracer: Tracer) -> dict:
    """{command label: {span name: self seconds}} over the traced spans."""
    self_s, _ = _self_times(tracer.spans)
    parent_of = {sid: parent for sid, _, _, _, parent in tracer.spans}
    out = defaultdict(lambda: defaultdict(float))
    for sid, name, _, _, _ in tracer.spans:
        top = sid
        while parent_of.get(top) is not None:
            top = parent_of[top]
        out[tracer.roots.get(top, "?")][name] += self_s[sid]
    return out


def span_cost(calls=20_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, perf_counter() - start - bare) / calls


def tie_row_share(knn_inputs) -> float:
    """Share of KNN rows whose K-th neighbour distance ties the (K+1)-th."""
    rows = tied = 0
    seen = {}
    for points, k in knn_inputs:
        key = (points.shape, k, hash(points.tobytes()))
        if key not in seen:
            if k >= points.shape[0]:
                seen[key] = 0
            else:
                d, _ = cKDTree(points).query(points, k=k + 1)
                seen[key] = int(np.count_nonzero(d[:, k] <= d[:, k - 1] * TIE_SLACK))
        rows += points.shape[0]
        tied += seen[key]
    return tied / rows if rows else 0.0
