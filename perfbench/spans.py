"""Per-layer spans recorded from outside the package.

A layer is one regcca module; its spans wrap calls into the module's public
functions.  Wrapping works on function objects, not names: every regcca
namespace that binds the object (``from .linalg import thin_svd`` copies the
binding into the importing module) is patched, so a call is seen whichever
module it goes through.  A listed function that no longer exists is reported
as missing rather than failing the run.

Spans are kept in memory as (name, parent, start, end, raised) and aggregated when
the run ends.  A span's self time is its duration minus the time covered by
its direct children, so the self times of all spans under a root add up to
the root's duration exactly.
"""

import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced run, grouped by layer.
LAYERS = {
    "datamodel": ("split_fold", "load_two_view_csv", "make_folds", "center_and_covariance"),
    "synth": ("bootstrap_covariance", "mvn_sample"),
    "linalg": ("gram_schmidt_reduce", "sym_matrix_power", "thin_svd"),
    "cca_core": ("cca_from_covariance", "empirical_canonical_correlations"),
    "glasso": ("glasso_fit",),
    "estimators": ("rcca_fit", "spls_fit", "scca_fit", "gcca_fit", "fit_estimator",
                   "sweep_trajectory", "save_estimate"),
    "metrics": ("cv_cc_agg", "cv_instability", "estimation_error", "succ_cc_agg"),
    "compare": ("trajectory_comparison", "register", "overlap_matrix"),
    "biplot": ("structure_correlations", "export_biplot"),
    "cli": ("main",),
}

# Spans that get latency percentiles on top of self time and call count.
FIT_SPANS = ("estimators.rcca_fit", "estimators.spls_fit", "estimators.scca_fit",
             "estimators.gcca_fit", "glasso.glasso_fit")

ROOT_SPAN = "bench.pass"


def span_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _namespaces(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


class Interposer:
    """Replaces function objects in every namespace of a package that binds
    them, and puts the original bindings back on ``restore``."""

    def __init__(self, package="regcca"):
        self.package = package
        self._undo = []

    def wrap(self, module_name, attr, make_wrapper):
        """Wrap ``module_name.attr`` everywhere it is bound; returns False if
        the module or function does not exist."""
        module = sys.modules.get(f"{self.package}.{module_name}")
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            return False
        wrapper = make_wrapper(original)
        for ns in _namespaces(self.package):
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, original))
        return True

    def restore(self):
        while self._undo:
            ns, key, original = self._undo.pop()
            setattr(ns, key, original)


class Tracer:
    """Span recorder.  ``install`` wraps the layer functions, ``root`` opens
    the span every pass hangs under."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, raised]
        self._stack = []
        self._interposer = Interposer()
        self.missing = []
        self.last_root_s = None

    def _enter(self, name):
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None, False])
        self._stack.append(len(self.spans) - 1)

    def _exit(self, raised=False):
        span = self.spans[self._stack.pop()]
        span[3] = time.perf_counter()
        span[4] = raised
        return span[3] - span[2]

    def _make(self, name):
        def make_wrapper(fn):
            def traced(*args, **kwargs):
                self._enter(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    self._exit(raised=True)
                    raise
                self._exit()
                return out
            traced.__wrapped__ = fn
            return traced
        return make_wrapper

    @contextmanager
    def installed(self):
        self.missing = []
        for mod, fns in LAYERS.items():
            for fn in fns:
                if not self._interposer.wrap(mod, fn, self._make(f"{mod}.{fn}")):
                    self.missing.append(f"{mod}.{fn}")
        try:
            yield self
        finally:
            self._interposer.restore()

    @contextmanager
    def root(self):
        self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self.last_root_s = self._exit()

    def aggregate(self):
        """Per span name: calls, calls that raised, self seconds and
        per-call durations."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, _, start, end, raised) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "errors": 0, "self_s": 0.0,
                                        "durations": []})
            rec["calls"] += 1
            rec["errors"] += raised
            rec["self_s"] += (end - start) - child_time[i]
            rec["durations"].append(end - start)
        return out


def tail_percentile(durations):
    """Median and the highest of p99.9/p99/p90/p50 with at least ten samples
    beyond it, as (p50, tail percentile, tail value)."""
    xs = sorted(durations)
    n = len(xs)
    if n == 0:
        return 0.0, 50.0, 0.0

    def pct(p):
        return xs[min(n - 1, int(p / 100.0 * n))]

    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return pct(50.0), p, pct(p)
    return pct(50.0), 50.0, pct(50.0)
