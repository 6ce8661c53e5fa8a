"""Traced pass: spans and counts around the public functions of each layer.

`Tracer.install()` swaps wrappers in for the names that `lmbp.cli` and
`lmbp.update` call, and for the `SensorModel.likelihood_table`,
`BirthModel.sample_phd` and `ParticleSet.__post_init__` methods;
`Tracer.uninstall()` puts the originals back. Nothing inside `src/` changes.
Calls that are not wrapped, such as the private helpers of `lmbp.update` and
`exact_marginals` (no workload runs exact marginals), count as self time of
the span that made them.

Every span records its name, start, end, parent span, Monte-Carlo run and
step. A span's self time is its duration minus the durations of its direct
children. Counts are taken after the span closes, inside a `trace.count`
span, so counting is billed to no layer. The one exception is the
`ParticleSet` construction counter, a dict increment inside the constructor,
which is billed to the layer that builds the set.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

import lmbp.cli
import lmbp.update
from lmbp.models import BirthModel, SensorModel
from lmbp.rfs import ParticleSet

COUNT_SPAN = "trace.count"
LIKELIHOOD = "models.likelihood_table"

# (owner, attribute, span name); span names are "<layer>.<function>".
SPANS = (
    (lmbp.cli, "generate_truth", "simulate.generate_truth"),
    (lmbp.cli, "generate_frames", "simulate.generate_frames"),
    (lmbp.cli, "write_truth_csv", "simulate.write_truth_csv"),
    (lmbp.cli, "lmbp_step", "update.lmbp_step"),
    (lmbp.cli, "detect_and_estimate", "estimation.detect_and_estimate"),
    (lmbp.cli, "write_estimates_csv", "estimation.write_estimates_csv"),
    (lmbp.cli, "ospa", "metrics.ospa"),
    (lmbp.update, "predict_track", "prediction.predict_track"),
    (lmbp.update, "predict_phd", "prediction.predict_phd"),
    (lmbp.update, "miss_hypothesis", "association.miss_hypothesis"),
    (lmbp.update, "detection_hypotheses", "association.detection_hypotheses"),
    (lmbp.update, "new_components", "association.new_components"),
    (lmbp.update, "partition", "association.partition"),
    (lmbp.update, "bp_marginals", "association.bp_marginals"),
    (lmbp.update, "update_legacy_track", "update.update_legacy_track"),
    (lmbp.update, "update_transferred_track", "update.update_transferred_track"),
    (lmbp.update, "update_phd", "update.update_phd"),
    (lmbp.update, "resample", "rfs.resample"),
    (SensorModel, "likelihood_table", LIKELIHOOD),
    (BirthModel, "sample_phd", "models.sample_phd"),
)

# Wrapped only to count what they return; their time stays with the caller.
COUNTED = (
    (lmbp.update, "select_transfers"),
    (lmbp.update, "split_by_retention"),
    (ParticleSet, "__post_init__"),
)

# Span names whose self time counts as layer time. The likelihood table is
# split by the span that called it.
LAYER_SPANS = tuple(name for _, _, name in SPANS if name != LIKELIHOOD) + (
    LIKELIHOOD + ".track", LIKELIHOOD + ".phd")


class SpanRecorder:
    """In-memory span store; spans nest on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.steps: list[int] = []
        self.stack: list[int] = []
        self.run = -1
        self.step = 0

    def current(self) -> str:
        return self.names[self.stack[-1]] if self.stack else ""

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run)
        self.steps.append(self.step)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        out: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, dur - child):
            out[name] += float(value)
        return dict(out)

    def write_csv(self, path: Path) -> None:
        """One line per span, written once when the traced pass ends."""
        with Path(path).open("w") as fh:
            fh.write("span,name,start_s,end_s,parent,run,step\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]},{self.runs[i]},{self.steps[i]}\n")


class Tracer:
    """Installs the span and count wrappers for one traced pass."""

    def __init__(self, gamma_c: float):
        self.gamma_c = gamma_c
        self.spans = SpanRecorder()
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: list[tuple[object, str, Callable]] = []
        self._legacy_signature = inspect.signature(lmbp.update.update_legacy_track)
        self._after = {
            LIKELIHOOD: self._count_table,
            "association.detection_hypotheses": self._count_pairs,
            "association.partition": self._count_clusters,
            "update.update_legacy_track": self._count_pdf_use,
            "rfs.resample": self._count_resample,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._swap(owner, attr, self._span_wrapper(vars(owner)[attr], name))
        for owner, attr in COUNTED:
            self._swap(owner, attr, self._count_wrapper(vars(owner)[attr], attr))

    def uninstall(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, wrapper: Callable) -> None:
        self.originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        after = self._after.get(name)

        def traced(*args, **kwargs):
            span_name = name
            if name == LIKELIHOOD:
                caller = spans.current()
                span_name += ".track" if caller == "association.detection_hypotheses" else ".phd"
            elif name == "update.lmbp_step":
                spans.step = args[0].time + 1
            elif name == "simulate.generate_truth":  # each Monte-Carlo run starts here
                spans.run += 1
                spans.step = 0
            idx = spans.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(idx)
            if after is not None:
                count = spans.open(COUNT_SPAN)
                try:
                    after(args, kwargs, result, span_name)
                finally:
                    spans.close(count)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn: Callable, attr: str) -> Callable:
        counts = self.counts
        if attr == "__post_init__":
            def counted(self_):
                counts["rfs.particle_sets"] += 1
                fn(self_)
        elif attr == "select_transfers":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["update.transfers"] += len(result[0])
                return result
        else:  # split_by_retention
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["update.recycles"] += len(result[1])
                return result
        counted.__wrapped__ = fn
        return counted

    # -- counts, taken after the span closed ------------------------------

    def _count_table(self, args, kwargs, table, name) -> None:
        c = self.counts
        c[name + ".cells"] += table.size
        c[name + ".nonzero"] += int(np.count_nonzero(table))
        c[name + ".rows"] += table.shape[0]
        if table.size:
            c[name + ".zero_rows"] += table.shape[0] - int(np.count_nonzero(table.any(axis=1)))

    def _count_pairs(self, args, kwargs, hyps, name) -> None:
        c = self.counts
        c["association.pairs"] += len(hyps)
        c["association.plausible"] += sum(bool(h.beta >= self.gamma_c) for h in hyps)
        c["association.pdfs_built"] += sum(len(h.pdf) > 0 for h in hyps)

    def _count_clusters(self, args, kwargs, result, name) -> None:
        clusters = result[0]
        self.counts["association.clusters"] += len(clusters)
        largest = max((len(labels) for labels, _ in clusters), default=0)
        self.counts["association.cluster_labels_max"] = max(
            self.counts["association.cluster_labels_max"], largest)

    def _count_pdf_use(self, args, kwargs, result, name) -> None:
        bound = self._legacy_signature.bind(*args, **kwargs).arguments
        marginal, detections = bound["marginal"], bound["detections"]
        # the same test update_legacy_track applies before mixing a pdf in
        self.counts["association.pdfs_used"] += sum(
            marginal.get(m, 0.0) * hyp.existence > 0.0 and len(hyp.pdf) > 0
            for m, hyp in detections.items())

    def _count_resample(self, args, kwargs, result, name) -> None:
        self.counts["rfs.resample.calls"] += 1


def leftover_wrappers() -> list[str]:
    """Names that still hold a benchmark wrapper instead of the original."""
    targets = [(owner, attr) for owner, attr, _ in SPANS] + list(COUNTED)
    return [f"{owner.__name__}.{attr}" for owner, attr in targets
            if hasattr(vars(owner)[attr], "__wrapped__")]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  track_counts: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    selfs = tracer.spans.self_seconds()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        out[name + ".self_s"] = (selfs.get(name, 0.0), "s")
    for side in ("track", "phd"):
        name = f"{LIKELIHOOD}.{side}"
        out[name + ".cells"] = (c[name + ".cells"], "count")
        out[name + ".nonzero_ratio"] = (ratio(c[name + ".nonzero"], c[name + ".cells"]), "1")
    name = f"{LIKELIHOOD}.track"
    out[name + ".zero_row_ratio"] = (ratio(c[name + ".zero_rows"], c[name + ".rows"]), "1")
    out["association.pairs"] = (c["association.pairs"], "count")
    out["association.plausible_ratio"] = (
        ratio(c["association.plausible"], c["association.pairs"]), "1")
    out["association.pdfs_built"] = (c["association.pdfs_built"], "count")
    out["association.pdf_use_ratio"] = (
        ratio(c["association.pdfs_used"], c["association.pdfs_built"]), "1")
    out["association.clusters"] = (c["association.clusters"], "count")
    out["association.cluster_labels_max"] = (c["association.cluster_labels_max"], "count")
    out["rfs.resample.calls"] = (c["rfs.resample.calls"], "count")
    out["rfs.particle_sets"] = (c["rfs.particle_sets"], "count")
    out["update.tracks_mean"] = (float(np.mean(track_counts)) if track_counts else 0.0,
                                 "count")
    out["update.transfers"] = (c["update.transfers"], "count")
    out["update.recycles"] = (c["update.recycles"], "count")
    layer_self = sum(selfs.get(name, 0.0) for name in LAYER_SPANS)
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "1")
    out["trace.coverage"] = (ratio(layer_self, traced_wall), "1")
    return out
