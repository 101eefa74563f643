"""Admission control for scoring: a bound on calls in flight.

Scoring one point through a compiled scorer is two ``searchsorted``
calls and a gather — a fraction of a millisecond, less than any
batching window would add — so handler threads score inline, in their
own thread, in both server modes.  Callers that have many points send
them in one ``/predict_batch`` request; that is the batch path.

:class:`BatchQueue` keeps the one mechanism that still pays: explicit
back-pressure.  Once ``max_depth`` scoring calls are in flight,
:meth:`BatchQueue.submit` raises :class:`QueueFullError` — the service
maps it to HTTP 429 (load shedding) and counts it in
``serve.shed_total{endpoint}``.  The number in flight is exported
continuously as the ``serve.queue_depth`` gauge.

Concurrency discipline (machine-checked by the ``concurrency`` pass of
``tools.analyze``): the depth counter is guarded by ``self._lock``; the
scoring call itself runs outside the lock.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs import metrics
from repro.serve.scorer import CompiledScorer, ScoringError

__all__ = [
    "BatchQueue",
    "BatchingError",
    "QueueFullError",
]

#: Default shedding bound, in scoring calls in flight.
DEFAULT_MAX_DEPTH = 256


class BatchingError(RuntimeError):
    """Base type for admission failures (library exception policy)."""


class QueueFullError(BatchingError):
    """``max_depth`` calls are in flight; shed the request (429)."""


def _checked_arrays(scorer: CompiledScorer, x_values,
                    y_values) -> tuple[np.ndarray, np.ndarray]:
    """Validate one submission before it is admitted.

    A NaN or a shape mismatch fails the request with a
    :class:`ScoringError` naming the offending column.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    if x_values.shape != y_values.shape:
        raise ScoringError(
            f"x and y batches differ in shape: "
            f"{x_values.shape} vs {y_values.shape}"
        )
    segmentation = scorer.segmentation
    for attribute, values in ((segmentation.x_attribute, x_values),
                              (segmentation.y_attribute, y_values)):
        if np.isnan(values).any():
            raise ScoringError(
                f"column {attribute!r} contains NaN; clean the data "
                "before scoring"
            )
    return x_values, y_values


class BatchQueue:
    """Admits at most ``max_depth`` concurrent scoring calls."""

    def __init__(self, *, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise BatchingError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        self._depth = 0
        metrics.set_gauge("serve.queue_depth", 0)

    @property
    def depth(self) -> int:
        """Scoring calls currently in flight (the shed gauge's source)."""
        with self._lock:
            return self._depth

    def submit(self, scorer: CompiledScorer, x_values,
               y_values) -> np.ndarray:
        """Score in the calling thread, unless the bound is reached.

        Raises :class:`QueueFullError` at ``max_depth`` (shed) and
        :class:`ScoringError` for invalid input.
        """
        x_values, y_values = _checked_arrays(scorer, x_values, y_values)
        with self._lock:
            if self._depth >= self.max_depth:
                raise QueueFullError(
                    f"batch queue is full ({self._depth} scoring calls "
                    f"in flight, bound {self.max_depth})"
                )
            self._depth += 1
            metrics.set_gauge("serve.queue_depth", self._depth)
        try:
            return scorer.score_batch(x_values, y_values)
        finally:
            with self._lock:
                self._depth -= 1
                metrics.set_gauge("serve.queue_depth", self._depth)
