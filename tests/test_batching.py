"""Tests for the scoring admission bound (repro.serve.batching)."""

import threading

import numpy as np
import pytest

from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.obs import metrics
from repro.perf.reference import score_batch_scalar
from repro.serve import (
    BatchingError,
    BatchQueue,
    ModelRegistry,
    PredictionService,
    QueueFullError,
    ServiceError,
    compile_scorer,
)
from repro.serve.scorer import ScoringError
from repro.persistence import save_segmentation


def make_rule(x_lo, x_hi, y_lo, y_hi, *, rhs="A"):
    return ClusteredRule(
        "age", "salary", Interval(x_lo, x_hi), Interval(y_lo, y_hi),
        "group", rhs, support=0.1, confidence=0.9,
    )


@pytest.fixture()
def segmentation():
    return Segmentation.from_rules([
        make_rule(20, 40, 50_000, 100_000),
        make_rule(60, 80, 25_000, 75_000),
    ])


@pytest.fixture()
def scorer(segmentation):
    return compile_scorer(segmentation)


@pytest.fixture()
def queue():
    return BatchQueue()


class TestBatchQueue:
    def test_single_submission_matches_direct(self, queue, scorer,
                                              segmentation):
        x = np.array([25.0, 70.0, 5.0])
        y = np.array([60_000.0, 50_000.0, 1.0])
        result = queue.submit(scorer, x, y)
        assert np.array_equal(result, scorer.score_batch(x, y))
        assert np.array_equal(
            result, score_batch_scalar(segmentation, x, y)
        )

    def test_batched_equals_unbatched_bitwise(self, queue, scorer,
                                              segmentation):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.uniform(0, 100, 17)
            y = rng.uniform(0, 120_000, 17)
            assert np.array_equal(
                queue.submit(scorer, x, y),
                score_batch_scalar(segmentation, x, y),
            )

    def test_nan_fails_only_the_bad_submission(self, queue, scorer):
        with pytest.raises(ScoringError, match="NaN"):
            queue.submit(scorer, [np.nan], [1.0])
        # The queue keeps working for clean input afterwards.
        assert len(queue.submit(scorer, [25.0], [60_000.0])) == 1

    def test_shape_mismatch_rejected(self, queue, scorer):
        with pytest.raises(ScoringError, match="differ in shape"):
            queue.submit(scorer, [1.0, 2.0], [1.0])

    def test_queue_full_sheds(self, scorer):
        queue = BatchQueue(max_depth=1)
        entered = threading.Event()
        release = threading.Event()

        class HeldScorer:
            segmentation = scorer.segmentation

            def score_batch(self, x_values, y_values):
                entered.set()
                assert release.wait(30.0), "test never released scorer"
                return scorer.score_batch(x_values, y_values)

        results = []
        holder = threading.Thread(target=lambda: results.append(
            queue.submit(HeldScorer(), [25.0], [60_000.0])
        ))
        holder.start()
        try:
            assert entered.wait(5.0)
            # One call is in flight, so the bound of 1 is reached.
            assert queue.depth == 1
            with pytest.raises(QueueFullError, match="full"):
                queue.submit(scorer, [27.0], [60_000.0])
        finally:
            release.set()
            holder.join(5.0)
        assert not holder.is_alive()
        assert len(results) == 1
        # The finished call gave its slot back.
        assert queue.depth == 0
        assert len(queue.submit(scorer, [27.0], [60_000.0])) == 1

    def test_scoring_crash_releases_its_slot(self, scorer):
        class BrokenScorer:
            segmentation = scorer.segmentation

            def score_batch(self, x_values, y_values):
                raise RuntimeError("table corrupted")

        queue = BatchQueue(max_depth=1)
        with pytest.raises(RuntimeError, match="table corrupted"):
            queue.submit(BrokenScorer(), [25.0], [60_000.0])
        assert queue.depth == 0
        assert len(queue.submit(scorer, [25.0], [60_000.0])) == 1

    def test_invalid_knobs_rejected(self):
        with pytest.raises(BatchingError):
            BatchQueue(max_depth=0)

    def test_queue_depth_gauge_is_exported(self, scorer):
        registry = metrics.enable(metrics.MetricsRegistry())
        try:
            queue = BatchQueue()
            snapshot = registry.snapshot()
            assert snapshot["gauges"]["serve.queue_depth"] == 0
            queue.submit(scorer, [25.0], [60_000.0])
            assert (
                registry.snapshot()["gauges"]["serve.queue_depth"] == 0
            )
        finally:
            metrics.disable()


class TestServiceWithBatcher:
    @pytest.fixture()
    def model_dir(self, tmp_path, segmentation):
        directory = tmp_path / "models"
        directory.mkdir()
        save_segmentation(segmentation, directory / "groupA.json")
        return directory

    def make_service(self, model_dir, batcher):
        return PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load(),
            batcher=batcher,
        )

    def test_batched_service_matches_direct(self, model_dir):
        bounded = self.make_service(model_dir, BatchQueue(max_depth=1))
        default = self.make_service(model_dir, None)
        payload = {"model": "groupA", "x": [25, 70, 5],
                   "y": [60_000, 50_000, 1]}
        assert (bounded.predict_batch(dict(payload))
                == default.predict_batch(dict(payload)))
        single = {"model": "groupA", "x": 25, "y": 60_000}
        assert (bounded.predict(dict(single))
                == default.predict(dict(single)))

    def test_shed_maps_to_429_and_counts(self, model_dir):
        class SheddingQueue:
            def submit(self, scorer, x_values, y_values):
                raise QueueFullError("batch queue is full")

        registry = metrics.enable(metrics.MetricsRegistry())
        try:
            service = self.make_service(model_dir, SheddingQueue())
            status, body = service.dispatch(
                "predict", {"model": "groupA", "x": 25, "y": 60_000}
            )
            assert status == 429
            assert "full" in body["error"]
            counters = registry.snapshot()["counters"]
            assert counters[
                'serve.shed_total{endpoint="predict"}'
            ] == 1
        finally:
            metrics.disable()

    def test_nan_still_maps_to_400(self, model_dir):
        service = self.make_service(model_dir, BatchQueue())
        with pytest.raises(ServiceError) as info:
            service.predict({"model": "groupA", "x": float("nan"), "y": 1})
        assert info.value.status == 400
