"""Instrumentation the benchmark wraps around the program from outside it.

Two tools, both installed after ``cronlab`` is imported and both kept in
memory until the run ends:

* ``FftCounter`` counts calls into every transform entry point of
  ``numpy.fft`` and the samples they take in.  It reads no clock, so its
  numbers repeat exactly on any machine.
* ``Tracer`` records one span (name, parent, start, end, value) per call into
  the public functions of each cronlab layer listed in ``LAYER_TARGETS``.

A wrapper only counts calls that look the name up where it is installed, so
``install_wrapper`` replaces the function in its defining module or class and
in every loaded ``cronlab`` module that imported it by name.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

FFT_SPAN = "fft"

# span name -> (module, attribute path) of the public function it times
LAYER_TARGETS = {
    "grid.apply_multiplier": ("cronlab.grid", "apply_multiplier"),
    "lp.band_symbol": ("cronlab.lp", "band_symbol"),
    "lp.bump": ("cronlab.lp", "BumpProfile.__call__"),
    "lp.besov_norm": ("cronlab.lp", "besov_norm"),
    "gauge.greater_symbol": ("cronlab.gauge", "greater_symbol"),
    "gauge.transverse_inverse_symbol": ("cronlab.gauge", "transverse_inverse_symbol"),
    "gauge.leray_project": ("cronlab.gauge", "leray_project"),
    "parametrix.family_build": ("cronlab.parametrix", "PhaseFamily.__init__"),
    "parametrix.slice_at": ("cronlab.parametrix", "PhaseFamily.slice_at"),
    "parametrix.apply": ("cronlab.parametrix", "WaveOperator.apply"),
    "parametrix.apply_dt": ("cronlab.parametrix", "WaveOperator.apply_dt"),
    "parametrix.apply_adjoint": ("cronlab.parametrix", "WaveOperator.apply_adjoint"),
    "parametrix.operator_norm": ("cronlab.parametrix", "WaveOperator.operator_norm_at"),
    "mkg.step": ("cronlab.mkg", "step"),
    "mkg.elliptic_a0": ("cronlab.mkg", "elliptic_a0"),
    "mkg.constraint_residuals": ("cronlab.mkg", "constraint_residuals"),
    "harness.run": ("cronlab.harness", "run"),
}

APPLY_SPANS = ("parametrix.apply", "parametrix.apply_dt", "parametrix.apply_adjoint")

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    "grid.fft_calls": "count",
    "grid.fft_mpoints": "Msamples",
    "grid.fft_s": "s",
    "grid.apply_multiplier_calls": "count",
    "grid.apply_multiplier_s": "s",
    "lp.band_symbol_calls": "count",
    "lp.band_symbol_s": "s",
    "lp.bump_s": "s",
    "lp.besov_norm_calls": "count",
    "lp.besov_norm_s": "s",
    "gauge.greater_symbol_calls": "count",
    "gauge.greater_symbol_s": "s",
    "gauge.transverse_inverse_symbol_s": "s",
    "gauge.leray_project_calls": "count",
    "gauge.leray_project_s": "s",
    "parametrix.family_builds": "count",
    "parametrix.family_build_s": "s",
    "parametrix.slice_calls": "count",
    "parametrix.slice_misses": "count",
    "parametrix.slice_hit_ratio": "ratio",
    "parametrix.slice_s": "s",
    "parametrix.apply_calls": "count",
    "parametrix.apply_s": "s",
    "parametrix.power_iterations": "count",
    "mkg.steps": "count",
    "mkg.step_s": "s",
    "mkg.elliptic_solves": "count",
    "mkg.elliptic_iterations": "count",
    "mkg.elliptic_a0_s": "s",
    "mkg.constraint_residuals_calls": "count",
    "mkg.constraint_residuals_s": "s",
    "harness.suite_self_s": "s",
    "harness.artifact_write_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a loaded module."""
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install_wrapper(owner, attr: str, make_wrapper, prefix: str = "cronlab"):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` wherever callers look it up.

    That is the owner itself and, for a module-level function, every loaded
    module under ``prefix`` that holds the same object by name."""
    original = owner.__dict__[attr]
    wrapped = make_wrapper(original)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != prefix and not name.startswith(prefix + "."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


class FftCounter:
    """Counts transform calls and their input samples; does no timing."""

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.fft_pair = None   # (original, counted) numpy.fft.fft, for timing the wrapper

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self.calls += 1
            self.points += np.size(a)
            return fn(a, *args, **kwargs)
        return counted

    def install(self):
        original = np.fft.fft
        for name in FFT_ENTRY_POINTS:
            install_wrapper(np.fft, name, self.wrap)
        self.fft_pair = (original, np.fft.fft)


class Tracer:
    """In-memory spans around calls into the program's layers.

    Spans are parallel lists indexed by span id.  ``outer`` is False for a
    span opened while another span of the same name was open, so inclusive
    times can be summed without counting recursion twice.  ``value`` holds a
    per-call quantity: input samples for a transform, iterations for an
    elliptic solve."""

    def __init__(self):
        self.names, self.parent, self.start, self.end = [], [], [], []
        self.value, self.outer = [], []
        self._stack = [-1]
        self._active = {}

    def wrap(self, name, arg_value=None, result_value=None):
        clock = time.perf_counter
        names, parent, start, end = self.names, self.parent, self.start, self.end
        value, outer, stack, active = self.value, self.outer, self._stack, self._active

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(names)
                names.append(name)
                parent.append(stack[-1])
                depth = active.get(name, 0)
                outer.append(depth == 0)
                active[name] = depth + 1
                value.append(arg_value(args) if arg_value is not None else 0)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    if result_value is not None:
                        value[idx] = result_value(result)
                    return result
                finally:
                    end[idx] = clock()
                    stack.pop()
                    active[name] = depth
            return traced
        return make

    def install(self):
        for fname in FFT_ENTRY_POINTS:
            install_wrapper(np.fft, fname,
                            self.wrap(FFT_SPAN, arg_value=lambda args: np.size(args[0])))
        for span, (module, path) in LAYER_TARGETS.items():
            result_value = (lambda r: r[2]) if span == "mkg.elliptic_a0" else None
            owner, attr = _resolve(module, path)
            install_wrapper(owner, attr, self.wrap(span, result_value=result_value))

    def install_suite(self, experiments: dict, experiment: str):
        """The harness looks suites up in a dict, so the suite span goes there."""
        experiments[experiment] = self.wrap("harness.suite")(experiments[experiment])

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,parent,start,end,value\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parent[i]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.value[i]}\n")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the spans of one traced run (see LAYER_METRICS).

    ``*_s`` is inclusive time summed over outermost spans of that name;
    ``harness.suite_self_s`` is the suite span less its child spans, and
    ``harness.artifact_write_s`` is ``harness.run`` less the suite span."""
    calls, secs, values = {}, {}, {}
    child_time = {}
    slice_misses = set()
    power_iterations = 0
    names, parent, start, end = tr.names, tr.parent, tr.start, tr.end
    for i, name in enumerate(names):
        dur = end[i] - start[i]
        calls[name] = calls.get(name, 0) + 1
        values[name] = values.get(name, 0) + tr.value[i]
        if tr.outer[i]:
            secs[name] = secs.get(name, 0.0) + dur
        p = parent[i]
        if p >= 0:
            child_time[p] = child_time.get(p, 0.0) + dur
            if name == "parametrix.apply_adjoint" and names[p] == "parametrix.operator_norm":
                power_iterations += 1
        if name == FFT_SPAN:
            while p >= 0:
                if names[p] == "parametrix.slice_at":
                    slice_misses.add(p)
                    break
                p = parent[p]
    suite_children = sum(child_time.get(i, 0.0) for i, name in enumerate(names)
                         if name == "harness.suite")

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    slice_calls = c("parametrix.slice_at")
    return {
        "grid.fft_calls": c(FFT_SPAN),
        "grid.fft_mpoints": values.get(FFT_SPAN, 0) / 1e6,
        "grid.fft_s": s(FFT_SPAN),
        "grid.apply_multiplier_calls": c("grid.apply_multiplier"),
        "grid.apply_multiplier_s": s("grid.apply_multiplier"),
        "lp.band_symbol_calls": c("lp.band_symbol"),
        "lp.band_symbol_s": s("lp.band_symbol"),
        "lp.bump_s": s("lp.bump"),
        "lp.besov_norm_calls": c("lp.besov_norm"),
        "lp.besov_norm_s": s("lp.besov_norm"),
        "gauge.greater_symbol_calls": c("gauge.greater_symbol"),
        "gauge.greater_symbol_s": s("gauge.greater_symbol"),
        "gauge.transverse_inverse_symbol_s": s("gauge.transverse_inverse_symbol"),
        "gauge.leray_project_calls": c("gauge.leray_project"),
        "gauge.leray_project_s": s("gauge.leray_project"),
        "parametrix.family_builds": c("parametrix.family_build"),
        "parametrix.family_build_s": s("parametrix.family_build"),
        "parametrix.slice_calls": slice_calls,
        "parametrix.slice_misses": len(slice_misses),
        "parametrix.slice_hit_ratio": (1.0 - len(slice_misses) / slice_calls
                                       if slice_calls else 0.0),
        "parametrix.slice_s": s("parametrix.slice_at"),
        "parametrix.apply_calls": sum(c(n) for n in APPLY_SPANS),
        "parametrix.apply_s": sum(s(n) for n in APPLY_SPANS),
        "parametrix.power_iterations": power_iterations,
        "mkg.steps": c("mkg.step"),
        "mkg.step_s": s("mkg.step"),
        "mkg.elliptic_solves": c("mkg.elliptic_a0"),
        "mkg.elliptic_iterations": values.get("mkg.elliptic_a0", 0),
        "mkg.elliptic_a0_s": s("mkg.elliptic_a0"),
        "mkg.constraint_residuals_calls": c("mkg.constraint_residuals"),
        "mkg.constraint_residuals_s": s("mkg.constraint_residuals"),
        "harness.suite_self_s": s("harness.suite") - suite_children,
        "harness.artifact_write_s": s("harness.run") - s("harness.suite"),
    }
