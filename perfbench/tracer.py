"""Per-layer timings, taken from outside the program.

The tracer replaces chosen public functions of slepbeam with timing wrappers
in every slepbeam module that holds a reference to them, so calls between
modules are caught too.  It keeps, per (workload, function), the number of
calls, the time inside them and the self time (time not spent in a traced
callee), in memory; nothing is written until the run ends.  It is installed
only for traced runs; untraced runs import nothing from here.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs timed at each layer boundary
TARGETS = (
    ("array_model", "directivity_gain"),
    ("array_model", "band_power"),
    ("array_model", "pattern_nulls"),
    ("capacity", "compare_synthesizers"),
    ("capacity", "estimate_capacity"),
    ("capacity", "write_comparison_csv"),
    ("capacity", "capacity_approximation"),
    ("capacity", "capacity_upper_bound"),
    ("capacity", "capacity_lower_bound"),
    ("quadrature", "adaptive_simpson"),
    ("concentration", "concentration_matrix"),
    ("concentration", "interval_concentration_matrix"),
    ("concentration", "angular_concentration_matrix"),
    ("concentration", "extreme_concentration_taper"),
    ("linalg", "eigh_symmetric"),
    ("linalg", "generalized_eigh"),
    ("synthesizers", "slepian_weights"),
    ("synthesizers", "slepian_weights_general"),
    ("codebook", "build_codebook"),
    ("codebook", "save_codebook"),
    ("codebook", "load_codebook"),
)


class LayerTracer:
    def __init__(self):
        self.label = None
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.samples = defaultdict(int)  # phases passed to directivity_gain
        self.evals = defaultdict(int)  # integrand evaluations in adaptive_simpson
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.label, name)
            if name == "directivity_gain":
                s = args[2] if len(args) > 2 else kwargs["s"]
                tracer.samples[key] += int(np.size(s))
            elif name == "adaptive_simpson":
                args = (tracer._counting(key, args[0]),) + args[1:]
            tracer._child_time.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = tracer._child_time.pop()
                tracer.calls[key] += 1
                tracer.total[key] += elapsed
                tracer.own[key] += elapsed - child
                if tracer._child_time:
                    tracer._child_time[-1] += elapsed

        return wrapper

    def _counting(self, key, integrand):
        evals = self.evals

        def counted(x):
            evals[key] += 1
            return integrand(x)

        return counted

    def install(self, callers=()) -> None:
        """Patch the targets in every slepbeam module and in ``callers``,
        the benchmark modules that imported them by name."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "slepbeam"]
        modules += list(callers)
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"slepbeam.{module_name}"], attr)
            wrapper = self._wrap(attr, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, value))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    # -------------------------------------------------------------- readout

    def _sum(self, table, names, label=None):
        return sum(v for (lab, n), v in table.items() if n in names and label in (None, lab))

    def per_call_ms(self, *names, table=None) -> float:
        calls = self._sum(self.calls, names)
        table = self.total if table is None else table
        return 1e3 * self._sum(table, names) / calls if calls else 0.0

    def metrics(self, ops_per_label: dict, extra: dict) -> dict:
        """Per-layer figures.  Counts and quadrature time are per operation
        of the workload they belong to; times are per call over the pass."""
        table_ops = ops_per_label["capacity_table"]
        width_ops = ops_per_label["width_search"]
        gain = ("directivity_gain",)
        quad = ("adaptive_simpson",)
        samples = self._sum(self.samples, gain, "capacity_table")
        out = {
            "array_model.gain_calls": (self._sum(self.calls, gain, "capacity_table") / table_ops, "count/op"),
            "array_model.gain_ns_per_sample": (
                1e9 * self._sum(self.total, gain, "capacity_table") / samples if samples else 0.0,
                "ns",
            ),
            "array_model.band_power_ms": (self.per_call_ms("band_power"), "ms"),
            "array_model.pattern_nulls_ms": (self.per_call_ms("pattern_nulls"), "ms"),
            "capacity.table_s": (self.per_call_ms("compare_synthesizers") / 1e3, "s"),
            "capacity.estimate_ms": (self.per_call_ms("estimate_capacity"), "ms"),
            "capacity.estimate_self_ms": (self.per_call_ms("estimate_capacity", table=self.own), "ms"),
            "capacity.csv_write_ms": (self.per_call_ms("write_comparison_csv"), "ms"),
            "capacity.approximation_ms": (self.per_call_ms("capacity_approximation"), "ms"),
            "capacity.upper_bound_ms": (self.per_call_ms("capacity_upper_bound"), "ms"),
            "capacity.lower_bound_ms": (self.per_call_ms("capacity_lower_bound"), "ms"),
            "quadrature.calls": (self._sum(self.calls, quad, "width_search") / width_ops, "count/op"),
            "quadrature.evals": (self._sum(self.evals, quad, "width_search") / width_ops, "count/op"),
            "quadrature.ms": (1e3 * self._sum(self.total, quad, "width_search") / width_ops, "ms/op"),
            "concentration.band_matrix_ms": (
                self.per_call_ms("concentration_matrix", "interval_concentration_matrix"),
                "ms",
            ),
            "concentration.angular_matrix_ms": (self.per_call_ms("angular_concentration_matrix"), "ms"),
            "concentration.taper_ms": (self.per_call_ms("extreme_concentration_taper"), "ms"),
            "linalg.generalized_eigh_ms": (self.per_call_ms("generalized_eigh"), "ms"),
            "synthesizers.slepian_ms": (self.per_call_ms("slepian_weights"), "ms"),
            "synthesizers.general_ms": (self.per_call_ms("slepian_weights_general"), "ms"),
            "codebook.build_ms": (self.per_call_ms("build_codebook"), "ms"),
            "codebook.save_ms": (self.per_call_ms("save_codebook"), "ms"),
            "codebook.load_ms": (self.per_call_ms("load_codebook"), "ms"),
        }
        out.update(extra)
        return out
