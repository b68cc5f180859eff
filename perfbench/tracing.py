"""Span tracing of the ruelle package from outside it.

``Tracer.install`` replaces, on the package's modules, every function a
module imports from another ruelle module (for example
``spectra.assemble_dual`` or ``traces.circle_integral``), the in-module
entry points the benchmark and the package call by global name (for example
``spectra.eigenvalues``, ``traces.trace_power``, ``lifts.lift``), the
Julia functions the CLI reaches through its ``julia`` module reference, and
the map classes' ``eval``/``deriv``.  Each wrapper records a span (name,
start, end, parent, operation id) in memory and updates exact counters;
``uninstall`` puts every original back.  Nothing under ``src/`` changes,
and the untraced benchmark never installs a tracer.

A span is named ``<layer>.<function>``, where the layer is the module
that defines the function: the work is charged to the layer that does it.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("numerics", "maps", "operators", "spectra", "traces", "lifts", "julia", "cli")

# Names called through their own module's globals, by that module: calls
# from inside the module (spectra.eigenvalues from converged_spectrum) and
# the benchmark's own calls into the package.  Names that other modules
# import are found by ``install`` itself.
ENTRY_POINTS = {
    "maps": ("fixed_point_disk", "second_iterate_multiplier"),
    "operators": ("assemble_dual", "singular_values"),
    "spectra": ("converged_spectrum", "eigenvalues"),
    "traces": ("det_from_traces", "det_product_formula", "power_trace_table", "trace_contour",
               "trace_power"),
    "lifts": ("find_expansive_annulus", "lift"),
    "julia": ("render", "write_pgm"),
    "cli": ("main",),
}

# Self-time metrics, as shares of the traced operations' wall time: metric
# name -> span names whose self time it sums.  Shares rather than seconds:
# a layer that a workload never calls reads exactly 0, and a time that reads
# the same on every run is not a measurement.
SELF_SHARE = {
    "operators.assemble_self_share": ("operators.assemble_dual",),
    "operators.svd_self_share": ("operators.singular_values",),
    "numerics.fft_self_share": ("numerics.fourier_coeffs_from_samples",),
    "numerics.quad_self_share": ("numerics.circle_integral",),
    "spectra.eig_self_share": ("spectra.eigenvalues",),
    "spectra.converged_self_share": ("spectra.converged_spectrum",),
    "maps.eval_self_share": ("maps.eval", "maps.deriv"),
    "maps.check_self_share": ("maps.check_holo_expansive",),
    "traces.trace_power_self_share": ("traces.trace_power", "traces.trace_contour",
                                      "traces.power_trace_table"),
    "traces.det_self_share": ("traces.det_from_spectrum", "traces.det_from_traces",
                              "traces.det_product_formula", "traces.log_abs_det_product"),
    "lifts.annulus_search_self_share": ("lifts.find_expansive_annulus",),
    "lifts.lift_self_share": ("lifts.lift",),
    "lifts.homotopy_self_share": ("lifts.build_homotopy",),
    "julia.render_self_share": ("julia.render",),
    "julia.write_self_share": ("julia.write_pgm",),
}

COUNTERS = (
    "operators.assemblies", "operators.k_passes", "operators.max_K", "operators.columns",
    "numerics.fft_calls", "numerics.fft_points", "numerics.quad_calls", "numerics.quad_points",
    "spectra.eig_calls", "spectra.eig_dim_sum", "spectra.unconverged",
    "maps.eval_calls", "maps.eval_points", "maps.composed_eval_points", "maps.check_calls",
    "traces.trace_power_calls", "traces.annulus_retries", "traces.det_calls",
    "traces.tail_warnings", "lifts.annulus_search_calls", "lifts.lift_calls",
    "julia.pixel_iters", "cli.commands", "cli.artifact_bytes",
)


def _layer_of(func) -> str | None:
    module = getattr(func, "__module__", "") or ""
    if not module.startswith("ruelle."):
        return None
    layer = module.split(".")[1]
    return layer if layer in LAYERS else None


class Tracer:
    """In-memory spans and exact counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[tuple] = []  # (span index, span name, per-span state)
        self.counts: Counter = Counter()
        self.assembly_keys: set = set()
        self.converged = [0, 0]  # converged eigenvalues, wanted eigenvalues
        self.pixels = [0, 0]  # undecided pixels, rendered pixels
        self.op_id = -1
        self._patches: list[tuple] = []
        self._wrappers: dict = {}
        self._signatures: dict = {}

    # ------------------------------------------------------------ patching

    def install(self):
        """Wrap the package's cross-module names, entry points and map
        methods; ``uninstall`` restores them."""
        from ruelle import cli, julia, lifts, maps, operators, spectra, traces

        for func in (operators.assemble_dual, spectra.converged_spectrum):
            self._signatures[func.__name__] = inspect.signature(func)
        modules = {"maps": maps, "operators": operators, "spectra": spectra,
                   "traces": traces, "lifts": lifts, "julia": julia, "cli": cli}
        for name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and _layer_of(value) not in (None, name):
                    self._patch(module, attr, value, f"{_layer_of(value)}.{value.__name__}")
            for attr in ENTRY_POINTS.get(name, ()):
                value = getattr(module, attr)
                self._patch(module, attr, value, f"{name}.{value.__name__}")
        for attr in ("eval", "deriv"):
            self._patch(maps._MapBase, attr, maps._MapBase.__dict__[attr], f"maps.{attr}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, span_name):
        wrapper = self._wrappers.get(original)
        if wrapper is None:
            wrapper = self._wrappers[original] = self._make_wrapper(original, span_name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _make_wrapper(self, func, span_name):
        hook = getattr(self, "_after_" + span_name.split(".", 1)[1], None)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            idx = len(tracer.names)
            tracer.names.append(span_name)
            tracer.parents.append(parent[0] if parent else -1)
            tracer.ops.append(tracer.op_id)
            tracer.ends.append(0.0)
            state = {}
            stack.append((idx, span_name, state))
            result = None
            tracer.starts.append(perf())
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.ends[idx] = perf()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, result, state, parent)

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        return wrapper

    # ------------------------------------------------------ counter hooks
    # Each hook runs after its span closes; ``parent`` is the enclosing
    # span (index, name, state) or None.  Failed calls return None.

    def _after_fourier_coeffs_from_samples(self, args, kwargs, result, state, parent):
        self.counts["numerics.fft_calls"] += 1
        self.counts["numerics.fft_points"] += len(args[0])
        if parent is not None and parent[1] == "operators.assemble_dual":
            self.counts["operators.columns"] += 1

    def _after_circle_integral(self, args, kwargs, result, state, parent):
        self.counts["numerics.quad_calls"] += 1
        self.counts["numerics.quad_points"] += args[2] if len(args) > 2 else kwargs.get("K", 256)

    def _after_circle_nodes(self, args, kwargs, result, state, parent):
        if parent is not None and parent[1] == "operators.assemble_dual":
            K = args[1] if len(args) > 1 else kwargs["K"]
            parent[2]["nodes"] = parent[2].get("nodes", 0) + 1
            parent[2]["K"] = max(parent[2].get("K", 0), K)

    def _after_assemble_dual(self, args, kwargs, result, state, parent):
        self.counts["operators.assemblies"] += 1
        self.counts["operators.k_passes"] += state.get("nodes", 0) // 2
        K = state.get("K", 0)
        self.counts["operators.max_K"] = max(self.counts["operators.max_K"], K)
        a = self._arguments("assemble_dual", args, kwargs)
        nminus = a["nminus"] if a["nminus"] is not None else a["nplus"]
        self.assembly_keys.add((_map_key(a["m"]), a["annulus"], a["nplus"], nminus, K))

    def _after_eigenvalues(self, args, kwargs, result, state, parent):
        self.counts["spectra.eig_calls"] += 1
        self.counts["spectra.eig_dim_sum"] += args[0].size

    def _after_converged_spectrum(self, args, kwargs, result, state, parent):
        if result is None:
            return
        want = self._arguments("converged_spectrum", args, kwargs)["want"]
        count = result.converged_count or 0
        self.converged[0] += min(count, want)
        self.converged[1] += want
        self.counts["spectra.unconverged"] += int(count < want)

    def _after_eval(self, args, kwargs, result, state, parent):
        points = np.size(args[1])
        self.counts["maps.eval_calls"] += 1
        self.counts["maps.eval_points"] += points
        inner = getattr(args[0], "maps", None)
        if inner is not None:
            self.counts["maps.composed_eval_points"] += points * len(inner)

    _after_deriv = _after_eval

    def _after_check_holo_expansive(self, args, kwargs, result, state, parent):
        self.counts["maps.check_calls"] += 1
        if parent is not None and parent[1] == "traces.trace_power":
            parent[2]["checks"] = parent[2].get("checks", 0) + 1

    def _after_trace_power(self, args, kwargs, result, state, parent):
        self.counts["traces.trace_power_calls"] += 1
        self.counts["traces.annulus_retries"] += max(state.get("checks", 0) - 1, 0)

    def _after_det_from_traces(self, args, kwargs, result, state, parent):
        self.counts["traces.det_calls"] += 1

    _after_det_product_formula = _after_log_abs_det_product = _after_det_from_traces

    def _after_det_from_spectrum(self, args, kwargs, result, state, parent):
        self.counts["traces.det_calls"] += 1
        # the criterion on which det_from_spectrum emits its tail warning
        if result is not None and result.tail > 1e-6 * abs(result.value):
            self.counts["traces.tail_warnings"] += 1

    def _after_find_expansive_annulus(self, args, kwargs, result, state, parent):
        self.counts["lifts.annulus_search_calls"] += 1

    def _after_lift(self, args, kwargs, result, state, parent):
        self.counts["lifts.lift_calls"] += 1

    def _after_render(self, args, kwargs, result, state, parent):
        if result is not None:
            self.counts["julia.pixel_iters"] += int(result.steps.sum())
            self.pixels[0] += int(np.count_nonzero(result.basin == 2))
            self.pixels[1] += result.basin.size

    def _after_main(self, args, kwargs, result, state, parent):
        self.counts["cli.commands"] += 1

    def _arguments(self, name, args, kwargs) -> dict:
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    # ------------------------------------------------------------ results

    def span_arrays(self):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name_id": np.array([index[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "op": np.array(self.ops, dtype=np.int32),
        }

    def self_times(self) -> dict:
        """Self time per span name: duration minus the durations of the
        span's direct children."""
        if not self.names:
            return {}
        arr = self.span_arrays()
        dur = arr["end"] - arr["start"]
        child = np.zeros_like(dur)
        has_parent = arr["parent"] >= 0
        np.add.at(child, arr["parent"][has_parent], dur[has_parent])
        own = dur - child
        totals = np.zeros(len(arr["names"]))
        np.add.at(totals, arr["name_id"], own)
        return {str(n): float(t) for n, t in zip(arr["names"], totals)}

    def metrics(self, traced_s: float) -> dict:
        """Per-layer metrics: exact counters, ratios, and self times as
        shares of ``traced_s``, the wall time of the traced operations."""
        selfs = self.self_times()
        out = {name: float(self.counts[name]) for name in COUNTERS}
        assemblies = self.counts["operators.assemblies"]
        out["operators.distinct_ratio"] = len(self.assembly_keys) / assemblies if assemblies else 0.0
        out["spectra.converged_ratio"] = self.converged[0] / self.converged[1] if self.converged[1] else 0.0
        out["julia.undecided_frac"] = self.pixels[0] / self.pixels[1] if self.pixels[1] else 0.0
        for metric, spans in SELF_SHARE.items():
            out[metric] = sum(selfs.get(s, 0.0) for s in spans) / traced_s
        by_layer = defaultdict(float)
        for span, t in selfs.items():
            by_layer[span.split(".", 1)[0]] += t
        for layer in LAYERS:
            out[f"{layer}.self_share"] = by_layer[layer] / traced_s
        out["trace.spans"] = float(len(self.names))
        return out

    def write(self, path):
        arr = self.span_arrays()
        np.savez_compressed(path, **arr, counters=json.dumps(dict(self.counts)))


def _map_key(m):
    try:
        hash(m)
        return m
    except TypeError:  # maps holding arrays (homotopy members)
        return ("id", id(m))
