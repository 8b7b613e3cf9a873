"""Span tracer for the traced benchmark run.

The program has no tracing of its own, so the tracer wraps the package's
public functions from outside and rebinds every module-level name that refers
to one of them (both `association.build_affinity` and the `build_affinity`
that `alignment` imported, for example). Each call records a span (name,
start, end, parent) and counts taken from its arguments and result.

A span's self time is its duration minus the time its child spans cover. A
wrapper's own work before and after its function runs is charged to neither
the child nor the parent, so tracing does not inflate a parent's self time;
it shows only in the traced run's wall time (the tracing overhead).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs that get a span.
TRACED = [
    ("simulation", "generate_scene"), ("simulation", "render_tracks"),
    ("triangulation", "build_map"), ("triangulation", "initial_guess"),
    ("triangulation", "refine"),
    ("submap", "mahalanobis_filter"), ("submap", "generate_submaps"),
    ("association", "build_affinity"), ("association", "densest_clique"),
    ("alignment", "align_maps"), ("alignment", "solve_submap_pair"),
    ("alignment", "arun"), ("alignment", "prune"),
    ("evaluation", "evaluate_map_pair"), ("evaluation", "submap_iou"),
    ("evaluation", "classify"), ("evaluation", "precision_recall"),
    ("evaluation", "timing"),
    ("formats", "load_map"), ("formats", "load_track_file"),
    ("formats", "load_config"), ("formats", "load_transform"),
    ("formats", "save_map"), ("formats", "save_track_file"),
    ("formats", "atomic_write"),
    ("cli", "cmd_simulate"), ("cli", "cmd_build_map"), ("cli", "cmd_match"),
    ("cli", "cmd_evaluate"),
]

# Every module whose globals may hold a traced function under some name.
MODULES = ["", ".core", ".simulation", ".triangulation", ".submap",
           ".association", ".alignment", ".evaluation", ".formats", ".cli"]

# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = [
    "triangulation.refine.calls", "triangulation.diverged",
    "association.build_affinity.calls", "association.candidates",
    "alignment.solve_submap_pair.calls", "alignment.pair_keys",
    "alignment.prune.attitude", "alignment.prune.cardinality",
    "evaluation.submap_iou.calls", "evaluation.timing.solves",
]

# Per-layer metrics with their units, in the order they are reported.
PER_LAYER = [
    ("simulation.render_tracks.s", "s"), ("simulation.detections", "count"),
    ("triangulation.build_map.s", "s"), ("triangulation.refine.s", "s"),
    ("triangulation.refine.calls", "count"), ("triangulation.kept_ratio", "ratio"),
    ("triangulation.diverged", "count"),
    ("submap.mahalanobis_filter.s", "s"), ("submap.generate_submaps.s", "s"),
    ("submap.submaps", "count"), ("submap.unique_ratio", "ratio"),
    ("association.build_affinity.s", "s"),
    ("association.build_affinity.calls", "count"),
    ("association.candidates", "count"), ("association.affinity_density", "ratio"),
    ("association.affinity_bytes", "B"), ("association.densest_clique.s", "s"),
    ("association.inliers", "count"),
    ("alignment.align_maps.s", "s"), ("alignment.solve_submap_pair.s", "s"),
    ("alignment.solve_submap_pair.calls", "count"), ("alignment.arun.s", "s"),
    ("alignment.pair_keys", "count"), ("alignment.solve_ratio", "ratio"),
    ("alignment.prune.attitude", "count"), ("alignment.prune.cardinality", "count"),
    ("alignment.kept_ratio", "ratio"),
    ("evaluation.evaluate_map_pair.s", "s"), ("evaluation.submap_iou.s", "s"),
    ("evaluation.submap_iou.calls", "count"), ("evaluation.timing.s", "s"),
    ("evaluation.timing.solves", "count"), ("evaluation.precision_recall.s", "s"),
    ("formats.load.s", "s"), ("formats.save.s", "s"),
    ("formats.bytes_written", "B"),
    ("cli.simulate.s", "s"), ("cli.build-map.s", "s"), ("cli.match.s", "s"),
    ("cli.evaluate.s", "s"),
]

_CLI_SPANS = {"cli.cmd_simulate": "cli.simulate.s",
              "cli.cmd_build_map": "cli.build-map.s",
              "cli.cmd_match": "cli.match.s",
              "cli.cmd_evaluate": "cli.evaluate.s"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    submap_counts: list = field(default_factory=list)


@dataclass
class Tracer:
    """Spans and counts of one traced pass. Single-threaded: the program runs
    at its default of one solver thread."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    affinity_bytes: int = 0
    _stack: list = field(default_factory=list)

    def call(self, name, fn, args, kwargs):
        entered = time.perf_counter()
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        result, exc = None, None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._count(span, args, result, exc)
            if span.parent is not None:
                self.spans[span.parent].child_time += \
                    time.perf_counter() - entered

    def _inside(self, name):
        return any(self.spans[i].name == name for i in self._stack)

    def _count(self, span, args, result, exc):
        c, name = self.counts, span.name
        c[name + ".calls"] += 1
        if name in ("triangulation.refine", "triangulation.initial_guess"):
            c["triangulation.diverged"] += exc is not None
        if exc is not None:
            return
        if name == "simulation.render_tracks":
            c["simulation.detections"] += sum(len(t) for t in result[0])
        elif name == "triangulation.build_map":
            c["triangulation.tracks_in"] += len(args[0])
            c["triangulation.landmarks"] += result[1].n_landmarks
        elif name == "submap.generate_submaps":
            c["submap.submaps"] += len(result)
            c["submap.unique"] += len({s.landmark_ids for s in result})
            if span.parent is not None:
                self.spans[span.parent].submap_counts.append(len(result))
        elif name == "association.build_affinity":
            n = result[1].size
            c["association.candidates"] += n
            c["association.nnz"] += int(np.count_nonzero(result[1].entries))
            c["association.entries"] += n * n
            self.affinity_bytes = max(self.affinity_bytes, n * n * 8)
        elif name == "association.densest_clique":
            c["association.inliers"] += len(result)
        elif name == "alignment.solve_submap_pair":
            c["alignment.align_solves"] += self._inside("alignment.align_maps")
            c["evaluation.timing.solves"] += self._inside("evaluation.timing")
        elif name == "alignment.align_maps":
            sizes = span.submap_counts
            c["alignment.pair_keys"] += sizes[0] * sizes[1]
        elif name == "alignment.prune":
            c["alignment.prune." + (result or "kept")] += 1
        elif name == "formats.atomic_write":
            c["formats.bytes_written"] += len(args[1].encode())

    def self_times(self):
        totals = Counter()
        for span in self.spans:
            totals[span.name] += (span.end - span.start) - span.child_time
        return totals

    def dump(self, trace_id):
        return [{"trace": trace_id, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent} for s in self.spans]

    def metrics(self):
        """Per-layer values of this pass: self seconds, counts and ratios."""
        st, c = self.self_times(), self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "simulation.render_tracks.s": st["simulation.render_tracks"],
            "simulation.detections": c["simulation.detections"],
            "triangulation.build_map.s": st["triangulation.build_map"],
            "triangulation.refine.s": st["triangulation.refine"],
            "triangulation.refine.calls": c["triangulation.refine.calls"],
            "triangulation.kept_ratio": ratio(c["triangulation.landmarks"],
                                              c["triangulation.tracks_in"]),
            "triangulation.diverged": c["triangulation.diverged"],
            "submap.mahalanobis_filter.s": st["submap.mahalanobis_filter"],
            "submap.generate_submaps.s": st["submap.generate_submaps"],
            "submap.submaps": c["submap.submaps"],
            "submap.unique_ratio": ratio(c["submap.unique"], c["submap.submaps"]),
            "association.build_affinity.s": st["association.build_affinity"],
            "association.build_affinity.calls": c["association.build_affinity.calls"],
            "association.candidates": c["association.candidates"],
            "association.affinity_density": ratio(c["association.nnz"],
                                                  c["association.entries"]),
            "association.affinity_bytes": self.affinity_bytes,
            "association.densest_clique.s": st["association.densest_clique"],
            "association.inliers": c["association.inliers"],
            "alignment.align_maps.s": st["alignment.align_maps"],
            "alignment.solve_submap_pair.s": st["alignment.solve_submap_pair"],
            "alignment.solve_submap_pair.calls":
                c["alignment.solve_submap_pair.calls"],
            "alignment.arun.s": st["alignment.arun"],
            "alignment.pair_keys": c["alignment.pair_keys"],
            "alignment.solve_ratio": ratio(c["alignment.align_solves"],
                                           c["alignment.pair_keys"]),
            "alignment.prune.attitude": c["alignment.prune.attitude"],
            "alignment.prune.cardinality": c["alignment.prune.cardinality"],
            "alignment.kept_ratio": ratio(c["alignment.prune.kept"],
                                          c["alignment.prune.calls"]),
            "evaluation.evaluate_map_pair.s": st["evaluation.evaluate_map_pair"],
            "evaluation.submap_iou.s": st["evaluation.submap_iou"],
            "evaluation.submap_iou.calls": c["evaluation.submap_iou.calls"],
            "evaluation.timing.s": st["evaluation.timing"],
            "evaluation.timing.solves": c["evaluation.timing.solves"],
            "evaluation.precision_recall.s": st["evaluation.precision_recall"],
            "formats.load.s": sum(v for k, v in st.items()
                                  if k.startswith("formats.load_")),
            "formats.save.s": sum(v for k, v in st.items()
                                  if k.startswith("formats.save_")
                                  or k == "formats.atomic_write"),
            "formats.bytes_written": c["formats.bytes_written"],
        }
        for span_name, metric in _CLI_SPANS.items():
            m[metric] = st[span_name]
        return m


class patched:
    """Context manager that installs a tracer's wrappers into the package and
    restores the original functions on exit."""

    def __init__(self, tracer, package="vista_align"):
        self.tracer = tracer
        self.modules = [importlib.import_module(package + m) for m in MODULES]
        self.saved = []

    def __enter__(self):
        wrappers = {}
        for mod_name, fn_name in TRACED:
            mod = importlib.import_module("vista_align." + mod_name)
            original = getattr(mod, fn_name)
            wrappers[id(original)] = _wrap(self.tracer, "%s.%s" % (mod_name, fn_name),
                                           original)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self.saved):
            setattr(mod, attr, value)
        self.saved.clear()
        return False


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper
