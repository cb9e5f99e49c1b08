"""Layer-boundary tracing from outside the program.

A span is recorded around every public function that one ``gwlab.*`` module
imports from another, at the import site (``gwlab.measures.partial_trace``,
``gwlab.cli.check_monogamy_sq``, ...), so each call that crosses between
modules is timed once.  The functions named by the per-layer metrics are
also wrapped in their defining module, which catches the calls a layer
makes to itself (``gw_pairwise_concurrence`` calling
``block_pair_reduction``).  A layer is the module that defines the called
function; its self time is the time of its spans minus the time of their
child spans.  Nothing in ``gwlab`` is edited: wrappers are module attributes
swapped in by :meth:`Tracer.install` and put back by :meth:`Tracer.remove`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "states", "tensor", "measures", "inequalities", "games", "roof")
MODULES = LAYERS + ("featured",)

#: The functions whose calls and time per call are reported, by layer.
METRIC_FUNCTIONS = {
    "tensor": ("partial_trace", "compress_local_support", "coarse_grain_state",
               "schmidt_spectrum", "bipartition_matrix"),
    "states": ("gw_spec_from_json", "superpose_with_vacuum", "mix_with_vacuum",
               "purify_mixture", "reduce_to_parties"),
    "measures": ("block_pair_reduction", "gw_pairwise_concurrence",
                 "gw_one_to_rest_concurrence_sq", "concurrence_two_qubit",
                 "f_alpha", "renyi_entropy"),
    "inequalities": ("check_monogamy_sq", "check_monogamy_power", "check_polygamy",
                     "check_polygamy_power", "check_reoa_triangle",
                     "check_merged_block_upper_bound", "check_upper_bound_bipartition",
                     "check_tighter_three", "check_tighter_multi",
                     "run_mixture_suite", "report_to_json_line", "report_to_csv_row"),
    "games": ("check_monogamy_cap", "check_trace_bound_renyi", "gap_bound"),
    "roof": ("verify_c_equals_ca", "verify_e_alpha_formula"),
}

#: Import sites at the seed commit, as "<importing module>.<name>".  A site
#: that a later refactor removes is reported as missing, not as an error.
SEED_IMPORT_SITES = (
    "cli.check_monogamy_cap", "cli.check_trace_bound_renyi", "cli.gap_bound",
    "cli.check_merged_block_upper_bound", "cli.check_monogamy_power",
    "cli.check_monogamy_sq", "cli.check_polygamy", "cli.check_polygamy_power",
    "cli.check_reoa_triangle", "cli.check_tighter_multi", "cli.check_tighter_three",
    "cli.check_upper_bound_bipartition", "cli.h_coefficient",
    "cli.report_to_csv_row", "cli.report_to_json_line", "cli.run_mixture_suite",
    "cli.f_alpha", "cli.gw_one_to_rest_concurrence_sq", "cli.gw_pairwise_concurrence",
    "cli.verify_c_equals_ca", "cli.verify_e_alpha_formula", "cli.gw_spec_from_json",
    "cli.reduce_to_parties", "cli.superpose_with_vacuum",
    "states.partial_trace",
    "measures.coarse_grain_state", "measures.compress_local_support",
    "measures.partial_trace", "measures.partial_transpose",
    "measures.schmidt_spectrum", "measures.trace_norm",
    "inequalities.f_alpha", "inequalities.gw_one_to_rest_concurrence_sq",
    "inequalities.gw_pairwise_concurrence", "inequalities.renyi_entropy",
    "inequalities.mix_with_vacuum", "inequalities.purify_mixture",
    "inequalities.partial_trace", "inequalities.schmidt_spectrum",
    "games.f_alpha", "games.gw_one_to_rest_concurrence_sq",
    "games.gw_pairwise_concurrence", "games.renyi_entropy",
    "games.bipartition_matrix", "games.schmidt_spectrum",
    "roof.block_pair_reduction", "roof.f_alpha", "roof.gw_pairwise_concurrence",
    "roof.schmidt_spectrum",
    "featured.build_w_qubit", "featured.reduce_to_parties",
)


def _module(name: str) -> types.ModuleType:
    return importlib.import_module(f"gwlab.{name}")


def _is_gwlab_function(value) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith("gwlab.")


def discover_sites() -> list[tuple[str, str]]:
    """(site module, attribute) for every wrapped attribute, in a fixed order.

    Import sites are public gwlab functions bound in a module other than
    the one defining them.  A module imported whole (``cli`` uses
    ``featured.figure1_state``) is its own import site.  Metric functions
    are added at their defining module.
    """
    sites = []
    for site in MODULES:
        module = _module(site)
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            if _is_gwlab_function(value) and value.__module__ != module.__name__:
                sites.append((site, attr))
            elif isinstance(value, types.ModuleType) and value.__name__.startswith("gwlab."):
                inner = value.__name__[6:]
                for fn_name, fn in vars(value).items():
                    if (not fn_name.startswith("_") and _is_gwlab_function(fn)
                            and fn.__module__ == value.__name__):
                        sites.append((inner, fn_name))
    for layer, names in METRIC_FUNCTIONS.items():
        module = _module(layer)
        for name in names:
            if _is_gwlab_function(getattr(module, name, None)):
                sites.append((layer, name))
    return list(dict.fromkeys(sites))


def missing_names() -> list[str]:
    """Seed import sites and metric functions that no longer exist."""
    missing = [s for s in SEED_IMPORT_SITES
               if not hasattr(_module(s.split(".")[0]), s.split(".")[1])]
    for layer, names in METRIC_FUNCTIONS.items():
        missing += [f"{layer}.{n}" for n in names
                    if not hasattr(_module(layer), n)]
    return missing


def _nbytes(value) -> int:
    """Bytes of the dense arrays a tensor-layer argument or result holds."""
    if isinstance(value, tuple):
        return max((_nbytes(v) for v in value), default=0)
    for attr in ("amplitudes", "matrix"):
        value = getattr(value, attr, value)
    return int(getattr(value, "nbytes", 0) or 0)


class Tracer:
    """Spans kept in memory: (callee, start, end, parent index, job id)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.dense_bytes_max = 0
        self._saved: list[tuple[types.ModuleType, str, Callable]] = []

    def wrap(self, fn: Callable, callee: str) -> Callable:
        spans, stack = self.spans, self.stack
        watch_bytes = callee.startswith("tensor.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watch_bytes:
                self.dense_bytes_max = max(self.dense_bytes_max, _nbytes(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (callee, start, end, parent, self.job)
            if watch_bytes:
                self.dense_bytes_max = max(self.dense_bytes_max, _nbytes(result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site, attr in discover_sites():
            module = _module(site)
            self._saved.append((module, attr, getattr(module, attr)))
        for module, attr, original in self._saved:
            callee = f"{original.__module__[6:]}.{original.__name__}"
            setattr(module, attr, self.wrap(original, callee))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def summary(self) -> dict:
        """Self time per layer and calls / inclusive seconds per function."""
        child_time = [0.0] * len(self.spans)
        for callee, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self: dict[str, float] = {}
        functions: dict[str, list] = {}
        for i, (callee, start, end, _, _) in enumerate(self.spans):
            layer = callee.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child_time[i]
            entry = functions.setdefault(callee, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return {
            "layer_self_s": layer_self,
            "functions": {k: {"calls": v[0], "seconds": v[1]} for k, v in functions.items()},
            "dense_bytes_max": self.dense_bytes_max,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tcallee\tstart\tend\tparent\tjob\n")
            for i, (callee, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{callee}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
