"""In-memory spans around the calls into fofcast's modules.

The tracer replaces a module's public function where the calling module
looks it up (``fofcast.experiment.kmeans_fit`` rather than
``fofcast.clustering.kmeans_fit``, since ``experiment`` imported the name),
records one span per call (name, start, end, parent, phase) and restores
every original on ``uninstall``. Nothing in the program changes; the
spans are kept in memory and written out when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children. Spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute) pairs where the callers look the name up
SPAN_TARGETS = {
    "ingest.parse": [("ingest", "parse_rsmc"), ("cli", "parse_rsmc")],
    "ingest.window": [("ingest", "filter_min_length"), ("ingest", "extract_tail"),
                      ("ingest", "build_matrices"),
                      ("experiment", "filter_min_length"),
                      ("experiment", "extract_tail"),
                      ("experiment", "build_matrices"),
                      ("cli", "filter_min_length"), ("cli", "extract_tail"),
                      ("cli", "build_matrices")],
    "basis.basis_matrix": [("basis", "basis_matrix"), ("regression", "basis_matrix"),
                           ("experiment", "basis_matrix")],
    "basis.fit_bundle": [("experiment", "fit_bundle")],
    "basis.fit_coefficients": [("regression", "fit_coefficients")],
    "basis.gram": [("experiment", "gram_matrix"), ("regression", "gram_matrix")],
    "clustering.kmeans": [("experiment", "kmeans_fit")],
    "clustering.assign": [("experiment", "assign_batch")],
    "regression.fit_fof": [("experiment", "fit_fof")],
    "regression.predict": [("cli", "predict_trajectory")],
    "experiment.scoring": [("experiment.SplitRunner", "clustered_errors"),
                           ("experiment.SplitRunner", "global_errors")],
    "experiment.split_setup": [("experiment.SplitRunner", "__init__")],
    "experiment.geojson": [("cli", "forecasts_to_geojson")],
    "cli.ingest": [("cli", "cmd_ingest")],
    "cli.fit": [("cli", "cmd_fit")],
    "cli.export": [("cli", "cmd_export")],
    "cli.predict": [("cli", "cmd_predict")],
}
# counted without a span, so that their time stays with the caller
COUNT_TARGETS = {"experiment.model_requests": ("experiment.SplitRunner", "fit_coordinate")}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules        # short name ("basis") -> module object
        self.spans: list[list] = []   # [name, start, end, parent index, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        module, _, cls = path.partition(".")
        owner = self.modules[module]
        return getattr(owner, cls) if cls else owner

    def install(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for path, attr in targets:
                self._patch(path, attr, self._spanning(name))
        for name, (path, attr) in COUNT_TARGETS.items():
            self._patch(path, attr, self._counting(name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _patch(self, path: str, attr: str, make) -> None:
        owner = self._owner(path)
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanning(self, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(original):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, time.perf_counter(), None,
                              stack[-1] if stack else -1, self.phase])
                stack.append(idx)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = time.perf_counter()
                counts[(self.phase, name + "_calls")] += 1
                if name == "ingest.parse":
                    counts[(self.phase, "ingest.records")] += sum(len(s) for s in result)
                elif name == "clustering.kmeans":
                    counts[(self.phase, "clustering.lloyd_iterations_best")] += \
                        result.iterations_run
                return result
            return traced
        return make

    def _counting(self, name: str):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[(self.phase, name)] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, start, end, parent, phase), inner in zip(self.spans, child_time):
            out[(phase, name)] += (end - start) - inner
        return out

    def layer_values(self, op_phases: list[str]) -> dict[str, float]:
        """Per-layer values: the set-up phase plus the median traced operation."""
        per_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (phase, name), value in self.self_times().items():
            per_phase[phase][name + "_s"] += value
        for (phase, name), value in self.counts.items():
            per_phase[phase][name] += value
        names = {n for values in per_phase.values() for n in values}
        return {n: per_phase["setup"].get(n, 0.0)
                + statistics.median(per_phase[p].get(n, 0.0) for p in op_phases)
                for n in names}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                      for n, s, e, p, ph in self.spans],
            "counts": [{"phase": ph, "name": n, "value": v}
                       for (ph, n), v in sorted(self.counts.items())],
        }))
