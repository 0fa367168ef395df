"""Layer tracing from outside the program.

The traced run wraps the public functions of each starconfig module and
patches every name under which the program looks them up.  Coarse calls
(one per CLI stage, subset scan, fit, ...) are recorded as spans; calls
that happen thousands of times per job (rank eliminations, canonical keys,
cache reads) are only aggregated into per-name counts and times.  Both
kinds sit on one frame stack, so every layer's self time excludes the
time of whatever it called that is itself traced.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

# Layers that open a frame: (frame name, module, owner within the module
# or None for a module-level function, attribute, recorded as a span).
LAYERS = [
    ("star.full_profile", "star", None, "full_profile", True),
    ("codes.weight_hierarchy", "codes", None, "weight_hierarchy", True),
    ("codes.ghw_bruteforce", "codes", None, "ghw_bruteforce", True),
    ("codes.ghw_dual_rank", "codes", None, "ghw_from_dual_rank", True),
    ("codes.wei_duality", "codes", None, "wei_duality_check", True),
    ("tutte.subset_sum", "tutte", None, "tutte_subset_sum", True),
    ("tutte.dc", "tutte", None, "tutte_deletion_contraction", True),
    ("tutte.canonical_key", "tutte", None, "canonical_matrix_key", False),
    ("tutte.cache_get", "cli", "TutteCache", "get", False),
    ("tutte.cache_put", "cli", "TutteCache", "put", False),
    ("fields.rref", "fields", None, "rref", False),
    ("matroid.rank", "matroid", "VectorMatroid", "_rank_by_elimination",
     False),
    ("matroid.flats", "matroid", "VectorMatroid", "flats_of_rank", True),
    ("matroid.minor", "matroid", "VectorMatroid", "delete", False),
    ("matroid.minor", "matroid", "VectorMatroid", "contract", False),
    ("hilbert.expand", "hilbert", None, "_afold_from_columns", True),
    ("hilbert.basis", "hilbert", "GradedIdealEngine", "basis", False),
    ("hilbert.fit", "hilbert", None, "fit_graded_quotient", True),
    ("hilbert.mu_oracle", "hilbert", None, "mu_oracle", True),
    ("hilbert.colon", "hilbert", None, "colon_dim_from_engine", False),
    ("hilbert.conjecture", "hilbert", None, "conjecture_report", True),
]

# Frames the benchmark opens around its own calls into the program.
JOB_FRAMES = ["job", "cli", "dc_cache.cold", "dc_cache.warm"]

FRAMES = JOB_FRAMES + sorted({layer[0] for layer in LAYERS})

# Per-job counts that are not just a frame's call count.
COUNTERS = [
    "matroid.rank_calls", "matroid.flats_found", "tutte.dc_nodes", "hilbert.products_expanded", "hilbert.engines_built",
    "hilbert.echelon_rows_in", "hilbert.echelon_cells", "hilbert.fit_samples",
    "hilbert.window_widenings",
]
CACHE_PHASES = ("cold", "warm")


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for frame in FRAMES:
        if frame != "job":
            out.append((f"{frame}_s", "s", "lower"))
        out.append((f"{frame}.self_s", "s", "lower"))
        out.append((f"{frame}.share", "ratio", "lower"))
    out += [(name, "count", "lower") for name in COUNTERS]
    out += [
        ("tutte.subset_sum_calls", "count", "lower"),
        ("tutte.subsets_per_s", "1/s", "higher"),
        ("tutte.canonical_key_calls", "count", "lower"),
        ("fields.rref_calls", "count", "lower"),
        ("matroid.minors_built", "count", "lower"),
        ("hilbert.colon_cells", "count", "lower"),
        ("hilbert.echelon_rows_per_s", "1/s", "higher"),
    ]
    for suffix in ("",) + tuple("." + p for p in CACHE_PHASES):
        out += [
            (f"tutte.cache_hits{suffix}", "count", "higher"),
            (f"tutte.cache_misses{suffix}", "count", "lower"),
            (f"tutte.cache_hit_ratio{suffix}", "ratio", "higher"),
            (f"tutte.cache_bytes_written{suffix}", "B", "lower"),
        ]
        if suffix:
            out += [(f"tutte.cache_get_s{suffix}", "s", "lower"),
                    (f"tutte.cache_put_s{suffix}", "s", "lower")]
    out += [
        ("trace.jobs", "count", "higher"),
        ("trace.job_s_p50", "s", "lower"),
        ("trace.untraced_job_s_p50", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.probe_s_p50", "s", "lower"),
    ]
    return out


class Tracer:
    """Frame stack, spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.frames = {}  # name -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self.phase = None
        self._stack = []  # open frames: [name, start, child s, span id]
        self._open = {}  # name -> open frames of that name

    def enter(self, name: str, span: bool):
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            self.spans.append({"id": span_id, "job": self.job, "name": name,
                               "parent": parent})
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> float:
        """Close the innermost frame; returns its duration."""
        name, start, child, span_id = self._stack.pop()
        end = self.clock()
        dur = end - start
        totals = self.frames.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[2] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            totals[1] += dur  # outermost call of a recursive layer
        if self._stack:
            self._stack[-1][2] += dur
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end)
        return dur

    @contextmanager
    def frame(self, name: str, span: bool = True):
        self.enter(name, span)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, k=1, phased: bool = False):
        """Add k to a counter; phased counters also count per job phase."""
        self.counts[name] = self.counts.get(name, 0) + k
        if phased and self.phase is not None:
            key = f"{name}.{self.phase}"
            self.counts[key] = self.counts.get(key, 0) + k

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool, after=None):
        """fn inside a frame; after(args, kwargs, result, seconds) runs on
        return."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.exit()
            if after is not None:
                after(args, kwargs, result, dur)
            return result
        return traced

    def metrics(self, job_times: list, untraced_times: list,
                probe_times=()) -> dict:
        """Per-job layer metrics over the traced jobs, with the median of
        the host-speed probes of the same run (see probe.py)."""
        jobs = len(job_times)
        per = 1 / jobs if jobs else 0.0
        total = self.frames.get("job", (0, 0.0))[1]
        out = {}
        for frame in FRAMES:
            _, incl, self_s = self.frames.get(frame, (0, 0.0, 0.0))
            if frame != "job":
                out[f"{frame}_s"] = incl * per
            out[f"{frame}.self_s"] = self_s * per
            out[f"{frame}.share"] = self_s / total if total else 0.0
        for name in COUNTERS:
            out[name] = self.counts[name] * per

        def calls(frame):
            return self.frames.get(frame, (0,))[0] * per

        def rate(work, seconds):
            return work / seconds if seconds else 0.0

        out["tutte.subset_sum_calls"] = calls("tutte.subset_sum")
        out["tutte.subsets_per_s"] = rate(
            self.counts.get("tutte.subsets", 0),
            self.frames.get("tutte.subset_sum", (0, 0.0))[1])
        out["tutte.canonical_key_calls"] = calls("tutte.canonical_key")
        out["fields.rref_calls"] = calls("fields.rref")
        out["matroid.minors_built"] = calls("matroid.minor")
        out["hilbert.colon_cells"] = calls("hilbert.colon")
        out["hilbert.echelon_rows_per_s"] = rate(
            self.counts["hilbert.echelon_rows_in"],
            self.frames.get("hilbert.basis", (0, 0.0, 0.0))[2])
        for suffix in ("",) + tuple("." + p for p in CACHE_PHASES):
            hits = self.counts.get(f"tutte.cache_hits{suffix}", 0)
            misses = self.counts.get(f"tutte.cache_misses{suffix}", 0)
            out[f"tutte.cache_hits{suffix}"] = hits * per
            out[f"tutte.cache_misses{suffix}"] = misses * per
            out[f"tutte.cache_hit_ratio{suffix}"] = rate(hits, hits + misses)
            out[f"tutte.cache_bytes_written{suffix}"] = self.counts.get(
                f"tutte.cache_bytes_written{suffix}", 0) * per
            if suffix:
                for op in ("get", "put"):
                    key = f"tutte.cache_{op}_s{suffix}"
                    out[key] = self.counts.get(key, 0.0) * per
        traced = statistics.median(job_times) if job_times else 0.0
        untraced = statistics.median(untraced_times) if untraced_times else 0.0
        out["trace.jobs"] = jobs
        out["trace.job_s_p50"] = traced
        out["trace.untraced_job_s_p50"] = untraced
        out["trace.overhead_s"] = traced - untraced
        out["host.probe_s_p50"] = (statistics.median(probe_times)
                                   if probe_times else 0.0)
        return out


# -- installing the wrappers --------------------------------------------------

def _counter_hooks(tracer: Tracer) -> dict:
    """Counts derived, from outside, from a layer's arguments and result."""
    def subsets(args, kwargs, result, dur):
        tracer.count("tutte.subsets", 1 << args[0].n)

    def flats(args, kwargs, result, dur):
        tracer.count("matroid.flats_found", len(result))

    def products(args, kwargs, result, dur):
        tracer.count("hilbert.products_expanded", len(result))

    def cache_get(args, kwargs, result, dur):
        tracer.count("tutte.cache_hits" if result is not None
                     else "tutte.cache_misses", phased=True)
        if tracer.phase is not None:
            tracer.count(f"tutte.cache_get_s.{tracer.phase}", dur)

    def cache_put(args, kwargs, result, dur):
        cache, key = args[0], args[1]
        tracer.count("tutte.cache_bytes_written",
                     os.path.getsize(cache._path(key)), phased=True)
        if tracer.phase is not None:
            tracer.count(f"tutte.cache_put_s.{tracer.phase}", dur)

    return {
        "tutte.subset_sum": subsets, "matroid.flats": flats,
        "hilbert.expand": products, "tutte.cache_get": cache_get,
        "tutte.cache_put": cache_put,
    }


def _wrap_basis(tracer: Tracer, basis):
    """Echelon work of GradedIdealEngine.basis, counted from outside: the
    rows fed to elimination in degree t are k shifts of the degree-(t-1)
    basis plus the generators of degree t, each ring_dim(k, t) wide."""
    from starconfig.hilbert import ring_dim

    @functools.wraps(basis)
    def traced(engine, t):
        if t in engine._basis:
            return engine._basis[t]
        tracer.enter("hilbert.basis", False)
        try:
            result = basis(engine, t)
        finally:
            tracer.exit()
        if engine.min_degree is not None and t >= engine.min_degree:
            prev = len(engine._basis[t - 1])
            rows = (engine.k * prev if prev else 0) + len(
                engine.by_degree.get(t, []))
            tracer.count("hilbert.echelon_rows_in", rows)
            tracer.count("hilbert.echelon_cells", rows * ring_dim(engine.k, t))
        return result
    return traced


def _wrap_fit(tracer: Tracer, fit):
    """fit_graded_quotient with its Hilbert-function calls and the windows
    it widened to counted."""
    from starconfig.hilbert import WindowError

    @functools.wraps(fit)
    def traced(k, hf, gen_degree, lo, hi_steps):
        def counted(t):
            tracer.count("hilbert.fit_samples")
            return hf(t)
        tracer.enter("hilbert.fit", True)
        try:
            result = fit(k, counted, gen_degree, lo, hi_steps)
        except WindowError:
            tracer.count("hilbert.window_widenings", len(hi_steps) - 1)
            raise
        finally:
            tracer.exit()
        # the window that succeeded is the one reaching the last sample
        tracer.count("hilbert.window_widenings",
                     hi_steps.index(max(result.samples)))
        return result
    return traced


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return traced


def _wrap_dc(tracer: Tracer, dc):
    """tutte_deletion_contraction with its memo passed in, so that the
    number of distinct minors it solved can be read afterwards."""
    @functools.wraps(dc)
    def traced(m, memo=None, cache=None):
        memo = {} if memo is None else memo
        tracer.enter("tutte.dc", True)
        try:
            return dc(m, memo, cache)
        finally:
            tracer.exit()
            tracer.count("tutte.dc_nodes", len(memo))
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrapped layer for the duration of the block."""
    import importlib

    modules = [importlib.import_module(f"starconfig.{name}")
               for name in ("fields", "matroid", "tutte", "codes", "star",
                            "hilbert", "cli")]
    modules.append(importlib.import_module("starconfig"))
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    hooks = _counter_hooks(tracer)
    saved = []

    def replace_everywhere(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def replace_method(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    special = {"tutte.dc": _wrap_dc, "hilbert.fit": _wrap_fit,
               "hilbert.basis": _wrap_basis}
    try:
        for frame, mod, owner, attr, span in LAYERS:
            module = by_name[mod]
            target = module if owner is None else getattr(module, owner)
            original = vars(target)[attr]
            if frame in special:
                replacement = special[frame](tracer, original)
            else:
                replacement = tracer.wrap(frame, original, span,
                                          hooks.get(frame))
            if owner is None:
                replace_everywhere(original, replacement)
            else:
                replace_method(target, attr, replacement)
        matroid_cls = by_name["matroid"].VectorMatroid
        engine_cls = by_name["hilbert"].GradedIdealEngine
        replace_method(matroid_cls, "rank", _counted(
            tracer, "matroid.rank_calls", matroid_cls.__dict__["rank"]))
        replace_method(engine_cls, "__init__", _counted(
            tracer, "hilbert.engines_built", engine_cls.__dict__["__init__"]))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
