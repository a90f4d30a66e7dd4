"""Span tracing for the benchmark's traced run.

The tracer wraps the package's public functions and methods from outside:
every call records a span (name, start, end, parent) in memory, and
``numpy.fft.fft``/``ifft`` calls made inside a ``spectral`` span are counted
with their transform lengths.  Nothing in ``src/`` knows about it.  Spans are
written once, when the unit ends.

Module-level functions are replaced under every name that a loaded
``dnls_hierarchy`` module binds to them, so calls that go through a
re-export or a ``from .x import f`` in another module are traced as well.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (metric stem, module, attribute) for module-level functions, and
# (metric stem, module, class, attribute) for methods.
FUNCTIONS = [
    ("hierarchy.compute_Y", "hierarchy", "compute_Y"),
    ("hierarchy.check_Y", "hierarchy", "check_Y_properties"),
    ("hierarchy.verify_bad_cubics", "hierarchy", "verify_bad_cubics"),
    ("hierarchy.build_equation", "hierarchy", "build_hierarchy_equation"),
    ("reference.compare", "reference", "compare_hierarchy_equation"),
    ("reference.compare", "reference", "compare_gauged_equation"),
    ("gauge.antiderivative", "gauge", "antiderivative"),
    ("gauge.twist_substitute", "gauge", "twist_substitute"),
    ("gauge.derive_gauged", "gauge", "derive_gauged"),
    ("spectral.simulate", "spectral", "simulate"),
    ("spectral.snapshot", "spectral", "write_snapshot"),
    ("spectral.snapshot", "spectral", "read_snapshot"),
    ("analysis.gauge_apply", "analysis", "gauge_apply_numeric"),
    ("analysis.norm", "analysis", "hat_norm"),
    ("analysis.norm", "analysis", "modulation_norm"),
    ("analysis.picard3", "analysis", "picard3"),
    ("analysis.max_resonance_phase", "analysis", "max_resonance_phase"),
    ("analysis.packet", "analysis", "packet_grid"),
    ("analysis.packet", "analysis", "packet_datum"),
    ("analysis.fit", "analysis", "growth_exponent_fit"),
    ("analysis.probe", "analysis", "gauge_lipschitz_probe"),
    ("analysis.resonance", "analysis", "resonance_ratio_stats"),
]
METHODS = [
    ("algebra.mul", "algebra", "DiffPoly", "__mul__"),
    ("algebra.mul", "algebra", "DiffPoly", "__rmul__"),
    ("algebra.add", "algebra", "DiffPoly", "__add__"),
    ("algebra.dx", "algebra", "DiffPoly", "dx"),
    ("spectral.compile", "spectral", "NonlinearEvaluator", "__init__"),
    ("spectral.rhs", "spectral", "NonlinearEvaluator", "rhs_coefficients"),
    ("spectral.monitor", "spectral", "ConservedFunctional", "__call__"),
]
# Evaluators the workload labels get their own per-call RHS metric.
RHS_LABELS = ("j2_pad", "j3_pad", "j3_gauged_pad", "planewave_truncate")

# Per-layer metrics reported by the traced run: self-time sums in seconds
# (compute_Y is inclusive), call counts, and the per-call RHS medians.
SELF_TIMES = [
    "algebra.mul", "algebra.add", "algebra.dx",
    "hierarchy.check_Y", "hierarchy.verify_bad_cubics", "hierarchy.build_equation",
    "reference.compare",
    "gauge.antiderivative", "gauge.twist_substitute", "gauge.derive_gauged",
    "spectral.compile", "spectral.monitor", "spectral.simulate", "spectral.snapshot",
    "analysis.gauge_apply", "analysis.norm", "analysis.picard3",
    "analysis.max_resonance_phase", "analysis.packet", "analysis.fit",
    "analysis.probe", "analysis.resonance",
]
CALL_COUNTS = ["algebra.mul", "algebra.add", "algebra.dx", "spectral.monitor"]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{s}_s", "s") for s in SELF_TIMES]
    out.append(("hierarchy.compute_Y_s", "s"))
    out += [(f"spectral.rhs_{label}_s", "s") for label in RHS_LABELS]
    out += [(f"{s}_calls", "count") for s in CALL_COUNTS]
    out += [("spectral.rhs_calls", "count"), ("spectral.fft_calls", "count"),
            ("spectral.fft_points", "count")]
    # The traced unit's own wall time (against the untraced unit_s, the
    # tracing overhead) and the number of spans it recorded.
    out += [("trace.unit_s", "s"), ("trace.spans", "count")]
    return out


class Tracer:
    """In-memory span recorder; ``install`` patches the package in place."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.labels: dict[int, str] = {}  # id(evaluator) -> RHS label
        self.fft_calls = 0
        self.fft_points = 0
        self.active = False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, labelled=False):
        spans, stack, labels = self.spans, self.stack, self.labels
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = f"{name}:{labels.get(id(args[0]), 'other')}" if labelled else name
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.active and self.stack and self.spans[self.stack[-1]][0].startswith("spectral."):
                self.fft_calls += 1
                n = kwargs.get("n", args[0] if args else None)
                self.fft_points += int(n) if n is not None else len(a)
            return fn(a, *args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced callable; the package must already be imported."""
        import numpy

        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "dnls_hierarchy" or name.startswith("dnls_hierarchy.")}
        for stem, module, attr in FUNCTIONS:
            original = getattr(pkg[f"dnls_hierarchy.{module}"], attr)
            wrapper = self._wrap(stem, original)
            for mod in pkg.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
        for stem, module, cls_name, attr in METHODS:
            cls = getattr(pkg[f"dnls_hierarchy.{module}"], cls_name)
            setattr(cls, attr, self._wrap(stem, cls.__dict__[attr], labelled=stem == "spectral.rhs"))
        numpy.fft.fft = self._wrap_fft(numpy.fft.fft)
        numpy.fft.ifft = self._wrap_fft(numpy.fft.ifft)
        self.active = True

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        durations = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        rhs_calls: dict[str, list[float]] = {}
        inclusive_Y = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            own = durations[i] - child[i]
            if name.startswith("spectral.rhs:"):
                rhs_calls.setdefault(name.split(":", 1)[1], []).append(own)
                name = "spectral.rhs"
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "hierarchy.compute_Y" and not self._inside(parent, name):
                inclusive_Y += durations[i]
        out: dict[str, float] = {f"{s}_s": self_time.get(s, 0.0) for s in SELF_TIMES}
        out["hierarchy.compute_Y_s"] = inclusive_Y
        for label in RHS_LABELS:
            samples = rhs_calls.get(label)
            out[f"spectral.rhs_{label}_s"] = statistics.median(samples) if samples else 0.0
        for s in CALL_COUNTS:
            out[f"{s}_calls"] = calls.get(s, 0)
        out["spectral.rhs_calls"] = calls.get("spectral.rhs", 0)
        out["spectral.fft_calls"] = self.fft_calls
        out["spectral.fft_points"] = self.fft_points
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path):
        """Write the spans as JSON (one [name, start, end, parent] per span)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
