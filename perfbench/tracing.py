"""Spans around the public functions of each hardyhenon module, from outside.

``Tracer.install`` wraps every public function a layer module defines and
rebinds each name that refers to it in every loaded hardyhenon module: the
callers (``fraclap``, ``extension``, ``energy``, ``cli``, ...) bind names
such as ``angular_kernel`` at import, so wrapping the defining module alone
would miss their calls.  ``uninstall`` puts the originals back.

A span records its name, layer, start, end and parent.  Self time is a
span's duration minus its direct children's.  A layer's total time counts
only its outermost spans, so nested calls within a layer are not counted
twice.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specialfn", "params", "kelvin", "quadrature", "fraclap",
          "extension", "cylinder", "energy", "cli")

# span fields
NAME, LAYER, START, END, PARENT, CHILD_TIME, OUTER = range(7)


def _points(args, kwargs, result, counters, key):
    c0 = kwargs.get("c0", args[0] if args else None)
    q = kwargs.get("q", args[1] if len(args) > 1 else None)
    counters[key] += math.prod(np.broadcast_shapes(np.shape(c0), np.shape(q)))


def _solve(args, kwargs, result, counters):
    counters["cylinder.newton_iterations"] += result.iterations
    counters["cylinder.unknowns"] += result.field.values.size


def _trace_rows(args, kwargs, result, counters):
    field = kwargs.get("field", args[0] if args else None)
    counters["energy.rows"] += field.values.shape[0]


def _report_bytes(args, kwargs, result, counters):
    counters["cli.report_bytes"] += len(result)


#: Per-call counters, keyed by span name.
COUNTERS = {
    "quadrature.angular_kernel": functools.partial(
        _points, key="quadrature.angular_kernel_points"),
    "quadrature.angular_flux_kernel": functools.partial(
        _points, key="quadrature.angular_flux_kernel_points"),
    "cylinder.solve_cylinder_pde": _solve,
    "energy.energy_trace": _trace_rows,
    "cli.serialize_report": _report_bytes,
}


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)

    def _wrap(self, fn, layer: str, name: str):
        count = COUNTERS.get(name)
        stack, depth = self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            rec = [name, layer, 0.0, 0.0, parent, 0.0, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[layer] += 1
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                depth[layer] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_TIME] += rec[END] - rec[START]
            if count is not None:
                count(args, kwargs, result, tracer.counters)
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hardyhenon" or name.startswith("hardyhenon.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"hardyhenon.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        layer_total: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            dur = rec[END] - rec[START]
            calls[rec[NAME]] += 1
            total[rec[NAME]] += dur
            layer_calls[rec[LAYER]] += 1
            layer_self[rec[LAYER]] += dur - rec[CHILD_TIME]
            if rec[OUTER]:
                layer_total[rec[LAYER]] += dur
        c = self.counters
        return {
            "quadrature.angular_kernel_s": total["quadrature.angular_kernel"],
            "quadrature.angular_kernel_points": c["quadrature.angular_kernel_points"],
            "quadrature.angular_flux_kernel_s": total["quadrature.angular_flux_kernel"],
            "quadrature.angular_flux_kernel_points": c["quadrature.angular_flux_kernel_points"],
            "fraclap.calls": calls["fraclap.frac_laplacian_radial"],
            "fraclap.s": layer_total["fraclap"],
            "fraclap.self_s": layer_self["fraclap"],
            "extension.poisson_calls": calls["extension.poisson_extend_radial"],
            "extension.poisson_s": total["extension.poisson_extend_radial"],
            "extension.flux_calls": calls["extension.neumann_flux"],
            "extension.flux_s": total["extension.neumann_flux"],
            "extension.profile_s": total["extension.exact_sphere_profile"],
            "extension.self_s": layer_self["extension"],
            "cylinder.solves": calls["cylinder.solve_cylinder_pde"],
            "cylinder.solve_s": total["cylinder.solve_cylinder_pde"],
            "cylinder.newton_iterations": c["cylinder.newton_iterations"],
            "cylinder.unknowns": c["cylinder.unknowns"],
            "energy.traces": calls["energy.energy_trace"],
            "energy.trace_s": total["energy.energy_trace"],
            "energy.rows": c["energy.rows"],
            "specialfn.log_gamma_calls": calls["specialfn.log_gamma_signed"],
            "specialfn.s": layer_total["specialfn"],
            "params.calls": layer_calls["params"],
            "params.s": layer_total["params"],
            "kelvin.calls": layer_calls["kelvin"],
            "kelvin.s": layer_total["kelvin"],
            "cli.runs": calls["cli.run"],
            "cli.run_s": total["cli.run"],
            "cli.self_s": layer_self["cli"],
            "cli.serialize_s": total["cli.serialize_report"],
            "cli.report_bytes": c["cli.report_bytes"],
        }

    def span_dicts(self, origin: float) -> list[dict]:
        return [{"name": r[NAME], "start": r[START] - origin, "end": r[END] - origin,
                 "parent": r[PARENT]} for r in self.spans]
