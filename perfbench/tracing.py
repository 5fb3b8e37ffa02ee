"""Span recording around calls into fracbloch's layers, from outside src/.

A layer is a fracbloch module. The tracer wraps public functions as they are
bound in the modules that call them (``scenario.write_trajectory_csv``,
``heatmap.load_trajectory_csv``, ...), plus the two methods of
``SpectralPropagator`` and the LAPACK entry point ``numpy.linalg.eigh`` that
the propagator calls. Each call becomes a span: name, group, start, end,
parent span and operation id. Spans stay in memory until the worker writes
its result at the end of the run.

Installed wrappers are removed again between traced passes, so an untraced
pass runs the unmodified functions.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

MB = 1e6


def _first_arg_dim(args, result):
    return {"dim": int(args[0].shape[0])}


def _trajectory_shape(args, result):
    return {"samples": int(result.n_samples), "dim": int(result.dim)}


def _first_arg_file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, group, measure). A dotted attribute is a method patched
# on its class; a plain one is replaced wherever a fracbloch module binds it.
TARGETS = (
    ("fracbloch.cli", "main", "cli.main", None),
    ("fracbloch.scenario", "parse_config", "scenario.config", None),
    ("fracbloch.scenario", "preset_config", "scenario.config", None),
    ("fracbloch.scenario", "run_scenario", "scenario.run", None),
    ("fracbloch.scenario", "write_trajectory_csv", "scenario.trajectory_csv",
     _first_arg_file_bytes),
    ("fracbloch.scenario", "write_series_csv", "scenario.series_csv", None),
    ("fracbloch.scenario", "write_summary_json", "scenario.summary_json", None),
    ("fracbloch.scenario", "analyze_probabilities", "scenario.analyze", None),
    ("fracbloch.model", "build_fock_hamiltonian", "model.build", None),
    ("fracbloch.model", "build_single_particle_hamiltonian", "model.build", None),
    ("fracbloch.model", "build_effective_hamiltonian", "model.build", None),
    ("fracbloch.propagator", "SpectralPropagator.__init__", "propagator.plan", None),
    ("numpy.linalg", "eigh", "propagator.eigh", _first_arg_dim),
    ("fracbloch.propagator", "SpectralPropagator.trajectory", "propagator.synth",
     _trajectory_shape),
    ("fracbloch.propagator", "return_probability", "observables", None),
    ("fracbloch.observables", "diagonal_confinement", "observables", None),
    ("fracbloch.observables", "breathing_width", "observables", None),
    ("fracbloch.observables", "boundary_population", "observables", None),
    ("fracbloch.observables", "participation_ratio", "observables", None),
    ("fracbloch.observables", "find_refocus", "observables", None),
    ("fracbloch.observables", "strongest_interior_peak", "observables", None),
    ("fracbloch.observables", "period_from_width_maximum", "observables", None),
    ("fracbloch.heatmap", "render_heatmap", "heatmap.render", None),
    ("fracbloch.heatmap", "probability_image", "heatmap.render", None),
    ("fracbloch.heatmap", "normalize", "heatmap.render", None),
    ("fracbloch.heatmap", "write_pgm", "heatmap.render", None),
    ("fracbloch.heatmap", "load_trajectory_csv", "heatmap.reload",
     _first_arg_file_bytes),
)

# Span fields, stored as lists to keep the wrapper cheap.
NAME, GROUP, START, END, PARENT, OP, EXTRA = range(7)


class Tracer:
    """Records one span per call into a wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, group, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, group, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure is not None:
                span[EXTRA] = measure(args, result)
            return result

        return traced

    def install(self):
        package = [
            module for name, module in sys.modules.items()
            if name == "fracbloch" or name.startswith("fracbloch.")
        ]
        self.missing = []
        for module_name, attr, group, measure in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            span_name = f"{module_name.rpartition('.')[2]}.{attr}"
            wrapper = self._wrap(span_name, group, original, measure)
            if owner_name or module_name == "numpy.linalg":
                self._patch(owner, method, original, wrapper)
                continue
            for caller in package:
                for bound_name, value in list(vars(caller).items()):
                    if value is original:
                        self._patch(caller, bound_name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _outermost(spans: dict[int, list], group: str) -> list[list]:
    """Spans of a group that have no ancestor span of the same group."""
    found = []
    for span in spans.values():
        if span[GROUP] != group:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][GROUP] != group:
            parent = spans[parent][PARENT]
        if parent is None:
            found.append(span)
    return found


def _total(spans) -> float:
    return sum((s[END] - s[START] for s in spans), 0.0)


def _self_time(spans: dict[int, list], group: str) -> float:
    """Duration of the group's spans minus the time their children cover."""
    own = {i for i, s in spans.items() if s[GROUP] == group}
    children = [s for s in spans.values() if s[PARENT] in own]
    return _total(spans[i] for i in own) - _total(children)


def _extra_sum(spans, fn) -> float:
    return sum((fn(s[EXTRA]) for s in spans if s[EXTRA] is not None), 0.0)


def layer_metrics(spans: dict[int, list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans, keyed by span index."""
    eigh = _outermost(spans, "propagator.eigh")
    synth = _outermost(spans, "propagator.synth")
    observables = _outermost(spans, "observables")
    csv = _outermost(spans, "scenario.trajectory_csv")
    reload = _outermost(spans, "heatmap.reload")
    synth_s = _total(synth)
    synth_gflop = _extra_sum(synth, lambda e: 8.0 * e["samples"] * e["dim"] ** 2 / 1e9)
    reload_s = _total(reload)
    reload_mb = _extra_sum(reload, lambda e: e["bytes"] / MB)
    return {
        "model.build_s": _total(_outermost(spans, "model.build")),
        "propagator.eigh_s": _total(eigh),
        "propagator.eigh_calls": len(eigh),
        "propagator.eigh_dim_max": max((s[EXTRA]["dim"] for s in eigh), default=0),
        "propagator.synth_s": synth_s,
        "propagator.synth_gflop": synth_gflop,
        "propagator.synth_gflops": synth_gflop / synth_s if synth_s > 0 else 0.0,
        "propagator.states_mb": max(
            (16.0 * s[EXTRA]["samples"] * s[EXTRA]["dim"] / MB for s in synth),
            default=0.0,
        ),
        "observables.s": _total(observables),
        "observables.calls": len(observables),
        "scenario.trajectory_csv_s": _total(csv),
        "scenario.trajectory_csv_mb": _extra_sum(csv, lambda e: e["bytes"] / MB),
        "scenario.run_self_s": _self_time(spans, "scenario.run"),
        "scenario.series_csv_s": _total(_outermost(spans, "scenario.series_csv")),
        "scenario.summary_json_s": _total(_outermost(spans, "scenario.summary_json")),
        "scenario.analyze_s": _total(_outermost(spans, "scenario.analyze")),
        "heatmap.render_s": _total(_outermost(spans, "heatmap.render")),
        "heatmap.reload_s": reload_s,
        "heatmap.reload_mb_per_s": reload_mb / reload_s if reload_s > 0 else 0.0,
        "cli.self_s": _self_time(spans, "cli.main"),
    }
