"""In-process tracing of one starclust command, from outside the package.

`hooked` replaces the public functions each layer calls, at the module
attribute where the caller looks them up, with wrappers that record a span
(id, name, start, end, parent, run id). The command then runs unchanged
through `starclust.cli.main`, so the spans nest exactly as the calls do.
Each wrapper takes its counts from the call's result as soon as the call
returns, inside a `trace.count` span, so counting is charged to no layer and
no argument or result outlives the call.
"""
from __future__ import annotations

import contextlib
import inspect
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass, field

SCHEME_OF_METRIC = {"slope": "A", "diff": "B", "hamming": "C"}

# (module, attribute, span name). The module is the caller's namespace:
# pipeline imports agglomerate from clustering, so pipeline's binding is the
# one replaced. Several functions may share a span name; their times add up.
HOOKS = (
    ("cli", "load_panel", "panel.load"),
    ("cli", "attach_zones", "panel.load"),
    ("cli", "load_adjacency", "panel.load"),
    ("pipeline", "build_weights", "weights.build"),
    ("pipeline", "weight_builder", "pipeline.weight_builder"),
    ("pipeline", "compute_scheme", "pipeline.compute_scheme"),
    ("pipeline", "fit_panel_trends", "trends.fit"),
    ("pipeline", "slope_distance", "distances.slope"),
    ("pipeline", "diff_distance", "distances.diff"),
    ("pipeline", "sign_distance", "distances.sign"),
    ("pipeline", "agglomerate", "clustering.agglomerate"),
    ("pipeline", "cut", "clustering.cut"),
    ("evaluation", "in_sample_fn", "evaluation.in_sample"),
    ("evaluation", "oos_experiment", "evaluation.oos"),
    ("evaluation", "mcs", "evaluation.mcs"),
    ("evaluation", "build_report", "evaluation.report"),
    ("evaluation", "fit_star", "star.fit"),
    ("evaluation", "fitted_levels", "star.fitted"),
    ("evaluation", "forecast", "star.forecast"),
    ("evaluation", "loss_series", "evaluation.loss_series"),
    ("evaluation", "write_report_csv", "cli.write"),
    ("evaluation", "write_report_json", "cli.write"),
    ("cli", "_write_loss_plot_csv", "cli.write"),
    ("cli", "_write_summary_csv", "cli.write"),
    ("cli", "_write_feature_csv", "cli.write"),
    ("clustering", "dendrogram_to_json", "cli.write"),
    ("clustering", "assignment_to_json", "cli.write"),
    ("clustering", "write_contingency_csv", "cli.write"),
    ("pipeline", "scheme_features", "clustering.summary"),
    ("clustering", "cluster_summary", "clustering.summary"),
    ("clustering", "cross_tab", "clustering.summary"),
    ("clustering", "zone_cross_tab", "clustering.summary"),
)

COUNTS = ("panel.cells", "trends.null_countries", "distances.pairs",
          "clustering.merges", "clustering.tied_merges", "weights.zero_rows",
          "weights.nonzeros", "star.equations", "star.dropped_regressors",
          "star.nonstationary", "evaluation.mcs_draws", "evaluation.mcs_rounds",
          "evaluation.mcs_degenerate_pairs", "trace.spans")


def _count_merges(result) -> dict:
    heights = Counter(m.height for m in result.merges)
    # A merge is tied when another merge of the tree has the same height.
    return {"clustering.merges": len(result.merges),
            "clustering.tied_merges": sum(n for n in heights.values() if n > 1)}


def _count_weights(result) -> dict:
    return {"weights.zero_rows": sum(len(m.zero_rows()) for m in result.values()),
            "weights.nonzeros": sum(int((m.values != 0).sum()) for m in result.values())}


def _count_star(result) -> dict:
    return {"star.equations": len(result.equations),
            "star.dropped_regressors": sum(len(eq.dropped)
                                           for eq in result.equations.values()),
            "star.nonstationary": len(result.nonstationary_countries())}


def _count_pairs(result) -> dict:
    return {"distances.pairs": result.size * (result.size - 1) // 2}


# Counts taken from the result of one call, keyed by the hooked attribute.
COUNTERS = {
    "load_panel": lambda result: {"panel.cells": result.values.size},
    "fit_panel_trends": lambda result: {"trends.null_countries": sum(
        not fit.significant for fit in result.values())},
    "slope_distance": _count_pairs,
    "diff_distance": _count_pairs,
    "sign_distance": _count_pairs,
    "agglomerate": _count_merges,
    "build_weights": _count_weights,
    "fit_star": _count_star,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans and counts of one traced command run, held in memory."""

    run: int
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    # The last mcs call (function, args, kwargs), for mcs_alloc_peak_mb.
    mcs_call: tuple | None = None
    unhooked: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, parent=parent, run=self.run,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, attr: str, name: str, fn):
        if attr == "weight_builder":
            # The factory itself does no work; trace the builder it returns,
            # which re-estimates everything on the training window.
            return lambda *args, **kwargs: self.wrap(
                "builder", "pipeline.builder", fn(*args, **kwargs))
        if attr == "mcs":
            return self._wrap_mcs(fn)
        counter = COUNTERS.get(attr)

        def traced(*args, **kwargs):
            label = name
            if attr == "agglomerate":
                label = f"{name}_{SCHEME_OF_METRIC[args[0].metric]}"
            with self.span(label):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span("trace.count"):
                    self.counts.update(counter(result))
            return result

        return traced

    def _wrap_mcs(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            # Zero-variance pairs are only reported by a RuntimeWarning,
            # which lists at most five of them.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with self.span("evaluation.mcs"):
                    result = fn(*args, **kwargs)
            with self.span("trace.count"):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update({
                    "evaluation.mcs_draws":
                        bound.arguments["reps"] * len(bound.arguments["losses"][0].periods),
                    "evaluation.mcs_rounds": len(result.eliminations) - 1,
                    "evaluation.mcs_degenerate_pairs": sum(
                        str(w.message).count("), (") + 1 for w in caught
                        if "zero bootstrap variance" in str(w.message))})
                self.mcs_call = (fn, args, kwargs)
            return result

        return traced

    def self_time(self, span: Span) -> float:
        """Duration minus the time its children cover."""
        return (span.end - span.start) - self._children_cover(span)

    def coverage(self) -> float:
        """Share of the root span's time that its child spans cover."""
        root = next(s for s in self.spans if s.parent is None)
        return self._children_cover(root) / (root.end - root.start)

    def _children_cover(self, span: Span) -> float:
        # The command runs on one thread, so sibling spans never overlap.
        return sum(s.end - s.start for s in self.spans if s.parent == span.id)


def mcs_alloc_peak_mb(call: tuple | None) -> float:
    """Peak traced allocation, in MiB, of one more call to mcs on the same losses.

    numpy reports its buffers to tracemalloc, so the peak is the most memory
    the bootstrap holds at once. The call is made outside every span, since
    tracemalloc slows each allocation; mcs is seeded, so it repeats exactly.
    """
    if call is None:
        return 0.0
    fn, args, kwargs = call
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def hooked(tracer: Tracer):
    """Install the tracer's wrappers into starclust, restoring them on exit."""
    import starclust.cli as cli
    from starclust import clustering, evaluation, pipeline
    modules = {"cli": cli, "clustering": clustering, "evaluation": evaluation,
               "pipeline": pipeline}
    saved = []
    try:
        for module_name, attr, name in HOOKS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                tracer.unhooked.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(attr, name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s), counts and trace figures of one traced run.

    Counts add up over every call in the command: an evaluate run clusters
    and builds weights twice (full sample and training window) and fits 14
    STAR models.
    """
    self_s, inclusive_s = Counter(), Counter()
    for span in tracer.spans:
        self_s[span.name] += tracer.self_time(span)
        inclusive_s[span.name] += span.end - span.start

    metrics = {f"{name}_s": self_s[name] for name in (
        "panel.load", "trends.fit", "distances.slope", "distances.diff",
        "distances.sign", "clustering.agglomerate_A", "clustering.agglomerate_B",
        "clustering.agglomerate_C", "clustering.cut", "clustering.summary",
        "pipeline.compute_scheme",
        "weights.build", "star.fit", "star.fitted", "star.forecast",
        "evaluation.in_sample", "evaluation.oos", "evaluation.loss_series",
        "evaluation.mcs", "cli.write")}
    metrics["pipeline.weight_builder_s"] = inclusive_s["pipeline.builder"]
    metrics["trace.coverage"] = tracer.coverage()
    counts = tracer.counts + Counter({"trace.spans": len(tracer.spans)})
    metrics.update({name: counts[name] for name in COUNTS})
    return metrics
