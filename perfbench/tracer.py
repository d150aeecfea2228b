"""Spans and counters around qmme's public functions, installed from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span ``(name, start, end, parent)`` in memory; ``uninstall()``
puts the originals back. A function is rebound in every loaded ``qmme``
module that holds it under its own name, so calls made through
``from .model import validate_model`` style imports are seen too.

Span names are ``<layer>.<operation>``; the layer is one of the qmme modules
(cli, io, fourier, model, bohr, generator, dynamics, analysis, linalg) or
``stage`` for the benchmark's own stage spans. A span's self time is its
duration minus the durations of its direct children.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "io", "fourier", "model", "bohr", "generator", "dynamics", "analysis", "linalg")

# metric -> span name whose durations it sums, per pass
TIME_METRICS = {
    "cli.import_s": "cli.import",
    "io.load_model_s": "io.load_model",
    "io.dumps_canonical_s": "io.dumps_canonical",
    "io.write_csv_s": "io.write_trajectory_csv",
    "fourier.product_s": "fourier.product",
    "fourier.eval_s": "fourier.eval",
    "fourier.independence_s": "fourier.check_rational_independence",
    "model.validate_s": "model.validate_model",
    "model.p_series_s": "model.p_series_from_generator",
    "model.synthesize_s": "model.synthesize_hamiltonian",
    "bohr.decompose_s": "bohr.decompose",
    "bohr.congruence_s": "bohr.check_congruence_freedom",
    "bohr.coupling_series_s": "bohr.interaction_picture_coupling_series",
    "bohr.jump_ops_s": "bohr.build_jump_operator_set",
    "generator.lamb_shift_s": "generator.build_lamb_shift",
    "generator.dissipator_s": "generator.build_dissipator",
    "generator.assemble_s": "generator.assemble_x",
    "generator.selection_check_s": "generator.cross_check_selection_rule",
    "generator.covariance_s": "generator.check_covariance",
    "dynamics.map_init_s": "dynamics.DynamicalMap.__init__",
    "dynamics.product_evolve_s": "dynamics.DynamicalMap.evolve",
    "dynamics.rk4_s": "dynamics.rk4_path",
    "analysis.spectrum_s": "analysis.spectrum_classification",
    "analysis.limit_cycle_s": "analysis.limit_cycle",
    "analysis.decay_fit_s": "analysis.decay_rate_fit",
    "analysis.certify_s": "analysis.cptp_certificate",
    "linalg.choi_s": "linalg.choi_of",
}

# metric -> counter name (counters are kept per pass)
COUNT_METRICS = {
    "io.dumps_canonical_bytes": ("io.dumps_canonical_bytes", "bytes"),
    "fourier.product_calls": ("fourier.product_calls", "count"),
    "fourier.product_pairs": ("fourier.product_pairs", "count"),
    "fourier.eval_calls": ("fourier.eval_calls", "count"),
    "fourier.eval_points": ("fourier.eval_points", "count"),
    "model.p_series_grid_points": ("model.p_series_grid_points", "count"),
    "model.bath_evals": ("model.bath_evals", "count"),
    "bohr.jump_ops": ("bohr.jump_ops", "count"),
    "generator.blocks": ("generator.blocks", "count"),
    "generator.selection_pairs": ("generator.selection_pairs", "count"),
    "dynamics.eig_cond": ("dynamics.eig_cond", "ratio"),
    "dynamics.rk4_rhs_calls": ("dynamics.rk4_rhs_calls", "count"),
    "analysis.choi_evals": ("analysis.choi_evals", "count"),
    "linalg.trace_norm_calls": ("linalg.trace_norm_calls", "count"),
}


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {}
        self.maxima = {}
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def open(self, name):
        """Start a span by hand; returns a token for :meth:`close`."""
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def current(self):
        return self._stack[-1] if self._stack else -1

    def merge(self, spans, parent):
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append((name, start, end, parent if p < 0 else base + p))

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        ``after(args, kwargs, result)`` runs outside the span and may return
        a replacement result.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_function(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmme" or mod_name.startswith("qmme.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def install(self):
        """Wrap the traced public functions and methods of the loaded package."""
        from qmme import analysis, bohr, dynamics, fourier, generator, io, linalg, model

        add, peak = self.add, self.peak
        fn_spans = [  # (module, function, after-call hook)
            (io, "load_model", None),
            (io, "dumps_canonical",
             lambda a, k, r: add("io.dumps_canonical_bytes", len(r))),
            (io, "write_trajectory_csv", None),
            (fourier, "check_rational_independence", None),
            (model, "validate_model", None),
            (model, "synthesize_hamiltonian", None),
            (bohr, "decompose", None),
            (bohr, "check_congruence_freedom", None),
            (bohr, "interaction_picture_coupling_series", None),
            (bohr, "build_jump_operator_set",
             lambda a, k, r: add("bohr.jump_ops", len(r.ops))),
            (generator, "build_lamb_shift", None),
            (generator, "build_dissipator",
             lambda a, k, r: add("generator.blocks", len(r[1]))),
            (generator, "assemble_x", None),
            (generator, "build_generator", None),
            (generator, "cross_check_selection_rule", self._count_selection_pairs),
            (generator, "check_covariance", None),
            (dynamics, "integrate_schrodinger_direct", None),
            (analysis, "spectrum_classification", None),
            (analysis, "limit_cycle", None),
            (analysis, "decay_rate_fit", None),
            (analysis, "cptp_certificate", None),
            (linalg, "choi_of", None),
        ]
        for mod, attr, after in fn_spans:
            fn = getattr(mod, attr)
            self._patch_function(fn, self.wrap(f"{mod.__name__[5:]}.{attr}", fn, after=after))

        p_from_gen = model.p_series_from_generator

        def grid_points(args, kwargs):
            a = _arguments(p_from_gen, args, kwargs)
            add("model.p_series_grid_points", (2 * (2 * int(a["trunc"]) + 1)) ** int(a["r"]))
            return args, kwargs

        self._patch_function(p_from_gen, self.wrap("model.p_series_from_generator", p_from_gen, grid_points))

        rk4 = dynamics.rk4_path
        rhs_calls = [0]

        def count_rhs(args, kwargs):
            a = _arguments(rk4, args, kwargs)
            f = a.pop("f")

            def counted(t, y):
                rhs_calls[0] += 1
                return f(t, y)

            return (counted,), dict(a)

        def flush_rhs(args, kwargs, result):
            add("dynamics.rk4_rhs_calls", rhs_calls[0])
            rhs_calls[0] = 0

        self._patch_function(rk4, self.wrap("dynamics.rk4_path", rk4, count_rhs, flush_rhs))

        # counted, not timed: trace_norm runs once per RK4 refinement and per state
        self._patch_function(linalg.trace_norm, self.counted("linalg.trace_norm_calls", linalg.trace_norm))
        self._patch_function(
            linalg.choi_min_eigenvalue,
            self.counted("analysis.choi_evals", linalg.choi_min_eigenvalue),
        )

        series = fourier.FourierOperatorSeries

        def count_product(args, kwargs):
            add("fourier.product_calls")
            add("fourier.product_pairs", len(args[0]) * len(args[1]))
            return args, kwargs

        def count_points(n_of):
            def before(args, kwargs):
                add("fourier.eval_calls")
                add("fourier.eval_points", n_of(args, kwargs))
                return args, kwargs
            return before

        sampler = series.sampler
        self._patch_method(series, "product", self.wrap("fourier.product", series.product, count_product))
        self._patch_method(series, "evaluate", self.wrap(
            "fourier.eval", series.evaluate, count_points(lambda a, k: 1)))
        self._patch_method(series, "evaluate_many", self.wrap(
            "fourier.eval", series.evaluate_many,
            count_points(lambda a, k: int(np.size(_arguments(series.evaluate_many, a, k)["ts"])))))
        self._patch_method(series, "sampler", functools.wraps(sampler)(
            lambda s, *a, **k: self._traced_sampler(sampler(s, *a, **k))))

        bath = model.BathSpectrum
        for attr in ("h", "zeta"):
            self._patch_method(bath, attr, self.counted("model.bath_evals", bath.__dict__[attr]))

        dmap = dynamics.DynamicalMap
        self._patch_method(dmap, "__init__", self.wrap(
            "dynamics.DynamicalMap.__init__", dmap.__init__,
            after=lambda a, k, r: peak("dynamics.eig_cond", float(a[0].eig_cond))))
        self._patch_method(dmap, "evolve", self.wrap("dynamics.DynamicalMap.evolve", dmap.evolve))

    def counted(self, counter, fn):
        """Wrapper that only counts calls of ``fn``."""
        add = self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _traced_sampler(self, closure):
        """Count and time each call of a series sampler closure."""
        spans, stack, clock, add = self.spans, self._stack, time.perf_counter, self.add

        def sample(t):
            add("fourier.eval_calls")
            add("fourier.eval_points")
            idx = len(spans)
            spans.append(None)
            start = clock()
            value = closure(t)
            spans[idx] = ("fourier.eval", start, clock(), stack[-1] if stack else -1)
            return value

        return sample

    def _count_selection_pairs(self, args, kwargs, result):
        """Ordered jump-operator pairs the cross-check sums (recomputed outside the span)."""
        from qmme.generator import cross_check_selection_rule

        a = _arguments(cross_check_selection_rule, args, kwargs)
        jumps, tol = a["bundle"].jumps, a["tol_delta"]
        shifts = np.sort([jumps.shifted_frequency(n, w, a["omega"]) for (_, n, w) in jumps.ops])
        lo = np.searchsorted(shifts, shifts - tol, side="left")
        hi = np.searchsorted(shifts, shifts + tol, side="right")
        self.add("generator.selection_pairs", int(np.sum(hi - lo)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans, counts, maxima):
    """Per-layer metrics of one pass: summed span times, counts, layer self times."""
    durations = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        durations[name] = durations.get(name, 0.0) + dur
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += dur - child_time[i]
    out = {}
    for metric, span_name in TIME_METRICS.items():
        out[metric] = (durations.get(span_name, 0.0), "s")
    for metric, (counter, unit) in COUNT_METRICS.items():
        value = maxima.get(counter, counts.get(counter, 0))
        out[metric] = (value, unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer], "s")
    return out
