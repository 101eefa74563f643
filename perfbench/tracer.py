"""Spans recorded around the calls into each layer, from outside ``src/``.

:func:`install` replaces the module and class attributes through which
callers reach a layer (``repro.cli.read_csv``,
``repro.core.clusterer.merge_clusters``, ``Verifier.verify``, ...)
with wrappers that record a span per call.  Spans carry a name, start,
end, parent id and a few counts; they stay in memory and are written
once, when the traced process (or a forked serving worker) finishes.

:func:`layer_totals` turns a span list into per-layer busy time, self
time and counts.  Self time is a span's duration minus the part of it
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    """An in-memory span recorder with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked child starts from nothing)."""
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
        }))


def _resolve(target: str):
    """``"pkg.mod"`` or ``"pkg.mod.Class"`` -> the object."""
    module_name, _, rest = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in filter(None, rest.split(".")):
        owner = getattr(owner, part)
    return owner


def wrap_call(tracer: Tracer, target: str, attribute: str, layer: str,
              counts=None) -> None:
    """Record a ``layer`` span around every call of ``target.attribute``.

    ``counts(args, result)`` returns a dict of counts stored on the span.
    """
    owner = _resolve(target)
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts is not None:
            span["counts"] = counts(args, result)
        return result

    setattr(owner, attribute, wrapper)


def wrap_generator(tracer: Tracer, target: str, attribute: str,
                   layer: str, counts=None) -> None:
    """Record a ``layer`` span around each step of a generator method,
    so only the work of producing an item is charged to the layer."""
    owner = _resolve(target)
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        while True:
            span = tracer.open(layer)
            try:
                item = next(inner)
            except StopIteration:
                tracer.close(span)
                return
            tracer.close(span)
            if counts is not None:
                span["counts"] = counts(args, item)
            yield item

    setattr(owner, attribute, wrapper)


def count_calls(tracer: Tracer, target: str, attribute: str,
                key: str) -> None:
    """Count calls of ``target.attribute`` without recording spans (for
    functions called too often to trace one by one)."""
    owner = _resolve(target)
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)


#: (layer, target, attribute, kind, counts) — the entry point of each
#: layer, named by the attribute its callers look up at call time.
LAYER_ENTRY_POINTS = (
    ("io", "repro.cli", "read_csv", "call",
     lambda args, table: {"tuples": len(table)}),
    ("io", "repro.stream.source:CSVReplaySource", "chunks", "generator",
     lambda args, chunk: {"tuples": len(chunk)}),
    ("bin", "repro.core.arcs", "bin_table", "call", None),
    ("bin", "repro.binning.strategies:BinLayout", "assign", "call", None),
    ("window", "repro.stream.window:StreamWindow", "ingest", "call",
     lambda args, delta: {"tuples_expired": delta.expired}),
    ("mine", "repro.core.clusterer", "rule_pairs", "call",
     lambda args, pairs: {"cells_qualified": len(pairs)}),
    ("smooth", "repro.core.clusterer", "smooth_binary", "call", None),
    ("bitop", "repro.core.bitop:BitOpClusterer", "cluster", "call",
     lambda args, found: {"fragments": len(found)}),
    ("merge", "repro.core.clusterer", "merge_clusters", "call",
     lambda args, merged: {"fragments_in": len(args[0]),
                           "clusters_out": len(merged)}),
    ("prune", "repro.core.clusterer", "prune_clusters", "call", None),
    ("verify", "repro.core.verifier:Verifier", "verify", "call",
     lambda args, report: {
         "calls": 1,
         "rows_touched": len(args[0].table),
         "rows_sampled": args[0].sample_size * args[0].repeats,
     }),
    ("optimizer", "repro.core.optimizer:HeuristicOptimizer", "search",
     "call", lambda args, result: {"trials": len(result.history)}),
    ("refit", "repro.stream.refitter:StreamRefitter", "refit", "call",
     lambda args, record: {"refits": 1,
                           "published": int(record.published)}),
    ("persist", "repro.cli", "save_segmentation", "call", None),
    ("persist", "repro.stream.refitter", "save_segmentation", "call",
     None),
    ("serve.submit", "repro.serve.batching:BatchQueue", "submit", "call",
     None),
    ("serve.score", "repro.serve.scorer:CompiledScorer", "score_batch",
     "call", None),
)


def install(tracer: Tracer, span_dir: Path) -> None:
    """Wrap every layer entry point; forked serving workers write their
    own spans to ``span_dir`` when they drain."""
    for layer, target, attribute, kind, counts in LAYER_ENTRY_POINTS:
        wrap = wrap_generator if kind == "generator" else wrap_call
        wrap(tracer, target, attribute, layer, counts)
    count_calls(tracer, "repro.core.merging", "hull_cover_fraction",
                "merge.hull_evals")
    workers = _resolve("repro.serve.workers")
    worker_main = workers._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump(Path(span_dir) / f"spans-{os.getpid()}.json")

    workers._worker_main = traced_worker_main


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
def load_span_files(span_dir: Path) -> tuple[list[dict], Counter]:
    spans: list[dict] = []
    counts: Counter = Counter()
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        document = json.loads(path.read_text())
        spans.extend(document["spans"])
        counts.update(document["counts"])
    return spans, counts


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per layer: ``calls``, ``busy_s`` (outermost spans of the layer, so
    a layer re-entering itself is not counted twice), ``self_s`` and
    the summed span counts."""
    by_key = {(span["pid"], span["id"]): span for span in spans}
    children: dict[tuple, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]),
                                []).append(span)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": Counter(),
        })
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["counts"].update(span["counts"])
        kids = children.get((span["pid"], span["id"]), [])
        entry["self_s"] += duration - _covered(
            [(kid["start"], kid["end"]) for kid in kids]
        )
        ancestor = by_key.get((span["pid"], span["parent"]))
        while ancestor is not None and ancestor["name"] != span["name"]:
            ancestor = by_key.get((ancestor["pid"], ancestor["parent"]))
        if ancestor is None:
            entry["busy_s"] += duration
    return totals
