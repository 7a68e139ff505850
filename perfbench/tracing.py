"""Span recording around the package's layer boundaries.

The benchmark installs these wrappers from its own code by replacing module
attributes, so no source file of the package changes. A function is wrapped
at every name its callers look it up under (``risk._spectral_bound`` and
``estimators._spectral_bound`` share one wrapper), which keeps a call from
being counted twice. Targets that a later version of the package no longer
has are skipped and listed in ``Tracer.missing``.

Spans are kept in memory as tuples and written out by the caller when the
run ends. A layer's self time is its span durations minus the time covered
by its child spans on the same thread.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict


def _shape_bytes(args, kwargs, out):
    x = args[0]
    return 8 * int(x.shape[0]) * int(x.shape[1])


def _returned_int(args, kwargs, out):
    return int(out)


def _fit_stats(args, kwargs, out):
    return (int(out.iterations), bool(out.converged))


def _holds(args, kwargs, out):
    return bool(out.holds)


def _rows_failed(args, kwargs, out):
    return sum(not row.passed for row in out.rows)


def _write_bytes(args, kwargs, out):
    return len(args[1])


def _risk_threads(args, kwargs, out):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else None)
    return (threads, int(args[0].reps))


def _lemma_name(args, kwargs):
    lemma_id = args[0] if args else kwargs["lemma_id"]
    return f"tails.{lemma_id}"


# (span name, lookup sites, per-call extra).  The span name is the layer;
# the lookup sites are every "module:attribute" the package calls it by.
LAYERS = (
    ("cli.run", ("cli:run",), None),
    ("cli.write", ("cli:_atomic_write",), _write_bytes),
    ("cli.write", ("cli:_sha256",), None),
    ("risk.empirical_risk", ("risk:empirical_risk", "cli:empirical_risk"), _risk_threads),
    ("risk.replicate", ("risk:_replicate_errors",), None),
    ("design.gen_design", ("design:gen_design", "risk:gen_design", "cli:gen_design"), None),
    ("design.synthesize", ("design:synthesize", "risk:synthesize", "cli:synthesize"), None),
    ("kernels.col_sumsq", ("_kernels:col_sumsq",), None),
    ("kernels.xt_dot", ("_kernels:xt_dot",), _shape_bytes),
    ("kernels.x_dot_dense", ("_kernels:x_dot_dense",), None),
    ("kernels.x_dot_sparse", ("_kernels:x_dot_sparse",), None),
    ("kernels.cd_sweeps", ("_kernels:cd_sweeps",), _returned_int),
    ("kernels.pava", ("_kernels:pava_decreasing",), None),
    ("estimators.lasso_fit", ("estimators:lasso_fit", "risk:lasso_fit", "cli:lasso_fit"), _fit_stats),
    ("estimators.slope_fit", ("estimators:slope_fit", "risk:slope_fit"), _fit_stats),
    ("estimators.spectral_bound", ("estimators:_spectral_bound", "risk:_spectral_bound"), None),
    ("estimators.prox_sorted_l1", ("estimators:prox_sorted_l1",), None),
    (
        "estimators.oracle_estimator",
        ("estimators:oracle_estimator", "risk:oracle_estimator", "cli:oracle_estimator"),
        None,
    ),
    (
        "diagnostics.event_a_check",
        ("diagnostics:event_a_check", "cli:event_a_check", "tails:event_a_check"),
        _holds,
    ),
    ("diagnostics.cone_descent", ("diagnostics:_cone_descent",), None),
    ("events.resolvent_set", ("events:resolvent_set", "tails:resolvent_set"), None),
    ("events.b_delta_check", ("events:b_delta_check", "cli:b_delta_check"), None),
    ("tails", ("tails:check_tail_bound", "cli:check_tail_bound"), _rows_failed),
)

# Called tens of thousands of times per diagnose call at a few microseconds
# each, so it is counted without a span.
COUNTED = (("diagnostics.project_cone", ("diagnostics:_project_cone",)),)


def _resolve(site: str):
    module_name, attr = site.split(":")
    try:
        module = importlib.import_module(f"sparse_minimax.{module_name}")
    except ImportError:
        return None, attr
    return (module if hasattr(module, attr) else None), attr


class Tracer:
    """Records (id, parent, name, start, end, thread, phase, extra) spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = ""
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra):
        tracer = self
        spans = self.spans
        name_of = _lemma_name if name == "tails" else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            phase = tracer.phase
            stack.append(sid)
            out = ok = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = name_of(args, kwargs) if name_of else name
                info = extra(args, kwargs, out) if ok and extra else None
                spans.append((sid, parent, label, t0, t1, threading.get_ident(), phase, info))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        lock = self._lock

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self, sites, make):
        wrappers = {}
        for site in sites:
            module, attr = _resolve(site)
            if module is None:
                self.missing.append(site)
                continue
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def install(self) -> None:
        self.missing = []
        for name, sites, extra in LAYERS:
            self._install(sites, lambda fn, name=name, extra=extra: self._wrap(name, fn, extra))
        for name, sites in COUNTED:
            self._install(sites, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.phase = ""


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for sid, parent, _name, t0, t1, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _p, _n, t0, t1, *_ in spans}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p90/p99/p99.9 that has at least ten samples beyond it,
    as (percentile, value); None when there are fewer than 100 samples."""
    n = len(samples)
    for q, share in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if n >= 10 * share:
            beyond = n // share
            return q, sorted(samples)[n - beyond - 1]
    return None
