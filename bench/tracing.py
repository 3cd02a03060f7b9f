"""Span tracing of the tvroad modules, installed from outside the library.

Every module holds its own reference to the functions it imports, so a
traced run replaces the name in each module that uses it (for example
``denoise_values`` in ``tvroad.noise``, ``tvroad.forecast`` and
``tvroad.cli``) and puts the originals back afterwards.  Spans stay in
memory; :func:`layer_metrics` turns the spans of one operation into the
per-layer figures after the operation has ended.

A span's self time is its duration minus the durations of its direct
child spans.  Spans run on one thread and nest strictly, so child
intervals never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# Span name -> (module, attribute) pairs that hold a reference to the
# function.  ``tvroad.cluster`` on the package is the ``cluster``
# function, so modules are always looked up by their full name.
WRAPPED = {
    "solver.denoise_values": (("tvroad.solver", "denoise_values"), ("tvroad.noise", "denoise_values"),
                              ("tvroad.forecast", "denoise_values"), ("tvroad.cli", "denoise_values")),
    "noise.estimate_sigma": (("tvroad.noise", "estimate_sigma"), ("tvroad.forecast", "estimate_sigma"),
                             ("tvroad.cli", "estimate_sigma")),
    "forecast.compare_pipelines": (("tvroad.forecast", "compare_pipelines"),
                                   ("tvroad.cli", "compare_pipelines")),
    "forecast.causal_denoise_window": (("tvroad.forecast", "causal_denoise_window"),),
    "cluster.pairwise_distances": (("tvroad.cluster", "pairwise_distances"),
                                   ("tvroad.forecast", "pairwise_distances")),
    "cluster.local_density": (("tvroad.cluster", "local_density"), ("tvroad.forecast", "local_density")),
    "cluster.delta_neighbors": (("tvroad.cluster", "delta_neighbors"),
                                ("tvroad.forecast", "delta_neighbors")),
    "cluster.select_centers": (("tvroad.cluster", "select_centers"),
                               ("tvroad.forecast", "select_centers")),
    "cluster.cluster": (("tvroad.cluster", "cluster"), ("tvroad.cli", "cluster")),
    "cluster.embed_2d": (("tvroad.cluster", "embed_2d"),),
    "cluster.halo_split": (("tvroad.cluster", "halo_split"),),
    "series.nearest_interpolate": (("tvroad.series", "nearest_interpolate"),
                                   ("tvroad.cli", "nearest_interpolate")),
    "cli.main": (("tvroad.cli", "main"),),
    "cli.ingest": (("tvroad.cli", "ingest"),),
    "synth.two_regime_corpus": (("tvroad.synth", "two_regime_corpus"),),
}


def _solve_facts(res):
    return {"iters": int(res.iterations), "capped": int(not res.converged and not res.stalled),
            "stalled": int(res.stalled)}


def _estimate_facts(est):
    return {"grid": len(est.tv_curve)}


def _comparison_facts(cmp):
    return {"fallbacks": sum(int(r.fallback_count) for r in (cmp.raw, cmp.denoised) if r is not None)}


def _ingest_facts(data):
    return {"rows": sum(int(s.observed_mask.sum()) for s in data.values())}


# Exact counts are read from the result objects the library returns.
FACTS = {
    "solver.denoise_values": _solve_facts,
    "noise.estimate_sigma": _estimate_facts,
    "forecast.compare_pipelines": _comparison_facts,
    "cli.ingest": _ingest_facts,
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "facts")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.child_s = 0.0
        self.facts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def ancestor(self, match):
        """Nearest enclosing span for which ``match(span)`` holds, or None."""
        s = self.parent
        while s is not None and not match(s):
            s = s.parent
        return s


class Tracer:
    """Collects spans for the operation named by ``op`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []

    def _wrap(self, name, fn):
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if facts is not None:
                span.facts = facts(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Route every wrapped name through a span for the duration."""
        self.op = op
        saved = []
        try:
            for name, refs in WRAPPED.items():
                for module_name, attr in refs:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.op = None

    def of_op(self, op) -> list[Span]:
        return [s for s in self.spans if s.op == op]


SOLVER_GROUPS = ("sweep", "causal", "oneshot")


def _solver_group(span: Span) -> str:
    owner = span.ancestor(lambda s: s.name in ("noise.estimate_sigma", "forecast.causal_denoise_window"))
    if owner is None:
        return "oneshot"
    return "sweep" if owner.name == "noise.estimate_sigma" else "causal"


def _busy(spans, prefix) -> float:
    """Wall time covered by the spans of one layer (outermost ones only)."""
    def in_layer(s):
        return s.name.startswith(prefix)

    return sum(s.duration for s in spans if in_layer(s) and s.ancestor(in_layer) is None)


def _fact(span, key) -> int:
    # A call that raised (and was caught further up) carries no facts.
    return span.facts[key] if span.facts else 0


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer figures of one operation: (times, exact counts).

    Times are in seconds except where the name says otherwise; counts
    are integers that repeat exactly when the inputs repeat.
    """
    times, counts = {}, {}
    solves = [s for s in spans if s.name == "solver.denoise_values"]
    for g in SOLVER_GROUPS:
        group = [s for s in solves if _solver_group(s) == g]
        counts[f"solver.{g}.calls"] = len(group)
        for key in ("iters", "capped", "stalled"):
            counts[f"solver.{g}.{key}"] = sum(_fact(s, key) for s in group)
        times[f"solver.{g}.busy_s"] = sum(s.duration for s in group)
    iters = sum(_fact(s, "iters") for s in solves)
    times["solver.us_per_iter"] = 1e6 * sum(s.duration for s in solves) / iters if iters else 0.0

    estimates = [s for s in spans if s.name == "noise.estimate_sigma"]
    counts["noise.calls"] = len(estimates)
    counts["noise.extra_solves"] = sum(
        sum(1 for s in solves if s.ancestor(lambda a: a.name == "noise.estimate_sigma") is e)
        - _fact(e, "grid")
        for e in estimates)
    times["noise.busy_s"] = _busy(spans, "noise.")
    times["noise.self_s"] = sum(s.self_s for s in spans if s.name.startswith("noise."))

    causal = [s.duration for s in spans if s.name == "forecast.causal_denoise_window"]
    counts["forecast.causal_calls"] = len(causal)
    p50, p90 = np.percentile(causal, [50, 90]) if causal else (0.0, 0.0)
    times["forecast.causal_ms_p50"] = 1e3 * float(p50)
    times["forecast.causal_ms_p90"] = 1e3 * float(p90)
    counts["forecast.fallbacks"] = sum(_fact(s, "fallbacks") for s in spans
                                       if s.name == "forecast.compare_pipelines")
    times["forecast.busy_s"] = _busy(spans, "forecast.")
    times["forecast.self_s"] = sum(s.self_s for s in spans if s.name.startswith("forecast."))

    counts["cluster.delta_calls"] = sum(1 for s in spans if s.name == "cluster.delta_neighbors")
    for metric, name in (("delta_s", "delta_neighbors"), ("density_s", "local_density"),
                         ("pairwise_s", "pairwise_distances"), ("cluster_s", "cluster"),
                         ("embed_s", "embed_2d"), ("halo_s", "halo_split")):
        times[f"cluster.{metric}"] = _total(spans, f"cluster.{name}")

    times["series.interp_s"] = _total(spans, "series.nearest_interpolate")

    times["cli.ingest_s"] = _total(spans, "cli.ingest")
    counts["cli.rows_in"] = sum(_fact(s, "rows") for s in spans if s.name == "cli.ingest")
    # The command's own code outside ingest and the library: formatting
    # and writing the output files.
    times["cli.self_s"] = sum(s.self_s for s in spans if s.name == "cli.main")

    times["synth.gen_s"] = _total(spans, "synth.two_regime_corpus")
    return times, counts
