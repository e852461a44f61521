"""Spans around ranktopo's public entry points, recorded from outside.

The program itself is not instrumented.  ``Hooks`` swaps a function for a
wrapper in every ranktopo module that holds it, under the name that
module looks it up by (``cli.mle_ordinal``, ``bounds.spectrum``, ...),
and puts the originals back on ``restore``.  ``Tracer`` uses that to time
each call: a span records its name, start, end, its parent span and the
trace it belongs to.  Each ``cli.run_trial`` call starts a new trace, so
the spans of one campaign trial share one identifier; any other span
without a parent starts a trace of its own.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

# The traced entry points, by defining layer.  Helpers called once per
# solver iteration or per sample (softmax, the NLL closures) are left out:
# their spans would cost more than the work they time.
ENTRY_POINTS = {
    "graph": ("build_topology", "spectrum", "hypergraph_laplacian"),
    "models": ("make_link", "plackett_luce", "model_params"),
    "synth": ("gen_quality", "sample_comparisons", "sample_outcomes",
              "even_allocation"),
    "estimate": ("mle_ordinal", "mle_mwise", "project_feasible", "error_metrics",
                 "ls_paired_cardinal", "mean_cardinal"),
    "bounds": ("gv_packing", "fano_pipeline", "minimax_bounds", "mwise_prefactors"),
    "cli": ("main", "run_campaign", "run_trial"),
}


def _mle_info(result):
    return result.iterations, bool(result.converged)


# Result fields kept on a span; results themselves are dropped, since some
# (spectra at d=1024, GV packings) are megabytes each.
_RESULT_INFO = {
    "estimate.mle_ordinal": _mle_info,
    "estimate.mle_mwise": _mle_info,
    "bounds.gv_packing": lambda packing: packing.M,
    "synth.sample_outcomes": lambda batch: batch.n,
}


class Hooks:
    """Replace ranktopo functions by wrappers wherever a module holds them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, make_wrapper) -> None:
        original = inspect.unwrap(getattr(self.modules[layer], name))
        wrappers: dict[int, object] = {}  # one per distinct object held
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and inspect.unwrap(value) is original:
                    if id(value) not in wrappers:
                        wrappers[id(value)] = functools.wraps(original)(make_wrapper(value))
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def wrap_property(self, cls: type, name: str, make_wrapper) -> None:
        prop = cls.__dict__[name]
        new = functools.cached_property(make_wrapper(prop.func))
        new.__set_name__(cls, name)
        self._saved.append((cls, name, prop))
        setattr(cls, name, new)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


@dataclass
class Span:
    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    info: object = None  # the few result fields the metrics need

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Times calls into the entry points while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.hooks = Hooks(modules)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        # Open spans, innermost last.  One stack serves the campaigns' single
        # pool worker too: the main thread waits while it runs, so a trial's
        # span nests under the campaign that submitted it.
        self._stack: list[Span] = []

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            new_trace = parent is None or name == "cli.run_trial"
            span = Span(name, span_id if new_trace else parent.trace_id, span_id,
                        parent.span_id if parent else None, 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name in _RESULT_INFO:
                    span.info = _RESULT_INFO[name](result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
        return timed

    def install(self) -> None:
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                self.hooks.wrap(layer, name,
                                lambda fn, n=f"{layer}.{name}": self._timed(n, fn))
        self.hooks.wrap_property(self.modules["graph"].ComparisonDesign, "laplacian",
                                 lambda fn: self._timed("graph.laplacian", fn))

    def uninstall(self) -> None:
        self.hooks.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps([s.trace_id, s.span_id, s.parent_id, s.name,
                                     s.start, s.end]) + "\n")

    def layer_metrics(self, passes: int, packing_cap: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced pass of the workload.

        Every metric is returned on every workload, as zero where the
        workload never calls the layer.  Times are inclusive of nested calls, except ``graph.spectrum_s``,
        ``synth.quality_s``, ``bounds.fano_s`` and ``bounds.minimax_s``,
        which are self times: the spectrum less the Laplacian it builds on
        first use, the quality draw less its spectrum, and the Fano and
        bound formulas less the spectrum, packing and prefactors they call.
        """
        by_name: dict[str, list[Span]] = {}
        child_time: dict[int, float] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            if s.parent_id is not None:
                child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

        def spans(*names):
            return [s for n in names for s in by_name.get(n, [])]

        def total(*names):
            return sum(s.duration for s in spans(*names))

        def self_time(name):
            return sum(s.duration - child_time.get(s.span_id, 0.0) for s in spans(name))

        mle = spans("estimate.mle_ordinal", "estimate.mle_mwise")
        mle_ms = [s.duration * 1e3 for s in mle]
        iters = sum(s.info[0] for s in mle)
        built = sum(s.info for s in spans("bounds.gv_packing"))
        kept = sum(min(s.info, packing_cap) for s in spans("bounds.gv_packing"))
        m = {
            "estimate.mle_s": total("estimate.mle_ordinal", "estimate.mle_mwise"),
            "estimate.mle_calls": len(mle),
            "estimate.mle_iters": iters,
            "estimate.mle_converged": sum(s.info[1] for s in mle),
            "estimate.projection_s": total("estimate.project_feasible"),
            "estimate.projection_calls": len(spans("estimate.project_feasible")),
            "estimate.metrics_s": total("estimate.error_metrics"),
            "estimate.cardinal_s": total("estimate.ls_paired_cardinal",
                                         "estimate.mean_cardinal"),
            "models.plackett_luce_s": total("models.plackett_luce"),
            "models.plackett_luce_calls": len(spans("models.plackett_luce")),
            "models.link_s": total("models.make_link", "models.plackett_luce"),
            "models.model_params_s": total("models.model_params"),
            "graph.build_s": total("graph.build_topology"),
            "graph.laplacian_s": total("graph.laplacian", "graph.hypergraph_laplacian"),
            "graph.spectrum_s": self_time("graph.spectrum"),
            "graph.build_calls": len(spans("graph.build_topology")),
            "graph.spectrum_calls": len(spans("graph.spectrum")),
            "synth.quality_s": self_time("synth.gen_quality"),
            "synth.sample_s": total("synth.sample_comparisons", "synth.sample_outcomes",
                                    "synth.even_allocation"),
            "synth.samples": sum(s.info for s in spans("synth.sample_outcomes")),
            "bounds.gv_packing_s": total("bounds.gv_packing"),
            "bounds.gv_vectors": built,
            "bounds.fano_s": self_time("bounds.fano_pipeline"),
            "bounds.minimax_s": self_time("bounds.minimax_bounds"),
            "bounds.prefactors_s": total("bounds.mwise_prefactors"),
            "cli.campaign_s": total("cli.run_campaign"),
            "cli.trial_s": total("cli.run_trial"),
            "cli.trial_calls": len(spans("cli.run_trial")),
            "cli.command_s": total("cli.main"),
        }
        m = {k: v / passes for k, v in m.items()}
        m["cli.pool_overhead_s"] = m["cli.campaign_s"] - m["cli.trial_s"]
        m["estimate.mle_s_per_iter"] = m["estimate.mle_s"] / m["estimate.mle_iters"] \
            if iters else 0.0
        m["estimate.mle_p50_ms"] = float(np.percentile(mle_ms, 50)) if mle_ms else 0.0
        m["estimate.mle_p90_ms"] = float(np.percentile(mle_ms, 90)) if mle_ms else 0.0
        m["bounds.gv_kept_ratio"] = kept / built if built else 0.0
        return m
