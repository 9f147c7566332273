"""Spans around calls into `wcr`, recorded from outside the package.

`install` replaces public functions of `wcr`'s modules with timing
wrappers. Each name is replaced where its caller looks it up: `choose_k`
finds `wcr.reduction.kmeans_best_of` as a module global, `cli` calls
`ingest.parse_counter_csv` through the module, and `ingest` calls its own
imported `validate_profile`. Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# (module, function names, span name). A span name is a layer metric's stem:
# the busy time of `reduction.kmeans` is reported as `reduction.kmeans_s`.
FUNCTION_SPANS = (
    ("wcr.ingest", ("parse_counter_csv",), "ingest.parse_counter_csv"),
    ("wcr.ingest", ("parse_telemetry_csv",), "ingest.parse_telemetry_csv"),
    ("wcr.ingest", ("derive_microarch_metrics",), "ingest.derive"),
    ("wcr.ingest", ("trim_ramp_up", "aggregate_telemetry"), "ingest.aggregate_telemetry"),
    ("wcr.ingest", ("validate_profile",), "model.validate_profile"),
    ("wcr.model", ("validate_profile",), "model.validate_profile"),
    ("wcr.reduction", ("normalize_zscore", "fit_pca", "project"), "reduction.normalize_pca"),
    ("wcr.reduction", ("choose_k",), "reduction.choose_k"),
    ("wcr.reduction", ("kmeans_best_of", "kmeans"), "reduction.kmeans"),
    ("wcr.reduction", ("select_representatives",), "reduction.select_representatives"),
    ("wcr.reduction", ("reduce_vectors",), "reduction.reduce_vectors"),
    ("wcr.classification", ("label_csv",), "classification.label_csv"),
    ("wcr.cachesim", ("read_text_trace", "read_binary_trace"), "cachesim.read_trace"),
    ("wcr.cachesim", ("sweep_capacities",), "cachesim.sweep"),
    ("wcr.cachesim", ("simulate",), "cachesim.simulate"),
    ("wcr.cachesim", ("write_curve_csv", "read_curve_csv", "estimate_footprint"),
     "cachesim.curve_io"),
    ("wcr.report", ("emit",), "report.emit"),
    ("wcr.report", ("group_summary", "stack_impact_table"), "report.summarize"),
    ("wcr.cli", ("main",), "cli.self"),
)
# Every class of these modules that defines to_dict/from_dict is wrapped.
CODEC_MODULES = ("wcr.model", "wcr.reduction", "wcr.cachesim", "wcr.report", "wcr.ingest",
                 "wcr.cli")
CODEC_SPAN = "model.codec"
SPAN_NAMES = tuple(sorted({span for _, _, span in FUNCTION_SPANS} | {CODEC_SPAN}))


def _count_result(counts: Counter, qualname: str, result) -> None:
    if qualname == "kmeans_best_of":
        counts["reduction.kmeans_best_of_calls"] += 1
    elif qualname == "kmeans":
        counts["reduction.kmeans_calls"] += 1
        counts["reduction.lloyd_iterations"] += result.iterations
    elif qualname == "simulate":
        counts["cachesim.simulate_calls"] += 1
        counts["cachesim.simulated_accesses"] += result.accesses


class Tracer:
    """In-memory spans: [name, start, end, parent index] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, span: str):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        qualname = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span, clock(), 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            _count_result(counts, qualname, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def self_times(self) -> Counter:
        """Busy time per span name: each span's duration minus its children's."""
        busy: Counter = Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                busy[self.spans[parent][0]] -= end - start
        return busy

    def inclusive_time(self, name: str) -> float:
        """Wall time under outermost spans of `name` (nested ones not counted twice)."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every traced function of `wcr` with a wrapper that records a span."""
    import importlib

    for module_name, names, span in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name)
            if not getattr(fn, "__wrapped_by_perfbench__", False):
                setattr(module, name, tracer.wrap(fn, span))
    for module_name in CODEC_MODULES:
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            if "to_dict" in vars(cls):
                cls.to_dict = tracer.wrap(vars(cls)["to_dict"], CODEC_SPAN)
            if "from_dict" in vars(cls):
                method = vars(cls)["from_dict"]
                cls.from_dict = classmethod(tracer.wrap(method.__func__, CODEC_SPAN))
