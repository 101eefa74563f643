"""Self-tests of the benchmark's own logic (no program run needed).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from repro.core.rules import ClusteredRule, Interval  # noqa: E402
from repro.core.segmentation import Segmentation  # noqa: E402
from repro.persistence import save_segmentation  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0),
    (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
    (39, None), (1, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summary_of_1000_samples_reports_p99():
    values = list(range(1, 1001))
    summary = stats.summarize(values)
    assert summary.count == 1000
    assert summary.tail_q == 99.0
    assert summary.p50 == pytest.approx(500.5)
    # Ten samples (991..1000) lie beyond the reported tail.
    assert sum(v > summary.tail for v in values) == 10


def test_summary_of_few_samples_falls_back_to_the_maximum():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary.tail_q is None
    assert summary.tail == 3.0
    assert "too few" in summary.describe()


def test_percentile_interpolates_and_rejects_empty():
    assert stats.percentile([0.0, 10.0], 25) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_histogram_delta_quantile_sees_only_new_observations():
    before = {"buckets": [[0.001, 5], [0.01, 5], ["+Inf", 5]]}
    after = {"buckets": [[0.001, 5], [0.01, 15], ["+Inf", 15]]}
    # All ten new observations fall in (0.001, 0.01].
    assert stats.histogram_delta_quantile(before, after, 0.5) == \
        pytest.approx(0.0055)
    assert stats.histogram_delta_quantile(after, after, 0.5) is None


# ----------------------------------------------------------------------
# Open-loop accounting under a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


def service(clock: FakeClock, durations: dict, default: float,
            failing=()):
    def send(index: int, slot: int) -> bool:
        clock.t += durations.get(index, default)
        return index not in failing

    return send


def test_latency_runs_from_due_time_not_send_time():
    clock = FakeClock()
    # Request 0 stalls 0.35s; requests 1-3 (due 0.1, 0.2, 0.3) queue
    # behind it on the single connection.
    result = stats.run_open_loop(
        service(clock, {0: 0.35}, 0.05), rate=10, count=6,
        connections=1, clock=clock)
    assert result.latencies == pytest.approx(
        [0.35, 0.30, 0.25, 0.20, 0.15, 0.10])
    # The generator itself was never late: each send happened as soon
    # as the request was due and the connection free.
    assert result.gen_late == pytest.approx([0.0] * 6)
    assert result.backlog_start == pytest.approx(
        [0.0, 0.25, 0.20, 0.15, 0.10, 0.05])
    assert result.failures == 0 and result.attempted == 6


def test_idle_server_latency_is_service_time():
    clock = FakeClock()
    result = stats.run_open_loop(service(clock, {}, 0.02), rate=10,
                                 count=5, connections=1, clock=clock)
    assert result.latencies == pytest.approx([0.02] * 5)
    assert not result.backlog_grew(0.010)


def test_failed_requests_are_counted_not_timed():
    clock = FakeClock()
    result = stats.run_open_loop(service(clock, {}, 0.01, failing={2}),
                                 rate=10, count=4, connections=1,
                                 clock=clock)
    assert result.failures == 1
    assert len(result.latencies) == 3
    assert not run.step_ok(result)


def test_overload_shows_as_a_growing_backlog():
    clock = FakeClock()
    # 20ms of service per request at 100 rps: the queue grows without
    # bound.
    result = stats.run_open_loop(service(clock, {}, 0.02), rate=100,
                                 count=200, connections=1, clock=clock)
    assert result.backlog_grew(0.010)
    assert not run.step_ok(result)


def test_a_late_generator_is_retried_then_flagged_invalid(monkeypatch):
    late = stats.OpenLoopResult(rate=100, gen_late=[0.02] * 100)
    on_time = stats.OpenLoopResult(rate=100, gen_late=[0.0001] * 100)
    assert run.generator_late(late) is None
    assert run.generator_late(on_time) == pytest.approx(0.0001)

    attempts = [late, on_time]
    monkeypatch.setattr(run, "step", lambda *args: attempts.pop(0))
    result, lateness = run.low_rate_step(None, None, run.Outcome())
    assert result is on_time and lateness == pytest.approx(0.0001)

    monkeypatch.setattr(run, "step", lambda *args: late)
    with pytest.raises(run.InvalidRun):
        run.low_rate_step(None, None, run.Outcome())


# ----------------------------------------------------------------------
# Correctness checkers reject wrong outputs
# ----------------------------------------------------------------------
def segmentation(width: float) -> Segmentation:
    return Segmentation.from_rules([ClusteredRule(
        "age", "salary", Interval(30.0, 30.0 + width),
        Interval(50_000.0, 90_000.0), "group", "A",
        support=0.1, confidence=0.9,
    )])


def test_prediction_checker():
    expected = {"aaaaaaaaaaaa": [0, -1], "bbbbbbbbbbbb": [-1, -1]}
    right = {"model": "aaaaaaaaaaaa", "rule": 0, "in_segment": True}
    outside = {"model": "aaaaaaaaaaaa", "rule": None, "in_segment": False}
    assert checks.prediction(200, right, 0, expected) is None
    assert checks.prediction(200, outside, 1, expected) is None
    assert checks.prediction(200, outside, 0, expected)  # wrong rule
    assert checks.prediction(
        200, {**right, "model": "bbbbbbbbbbbb"}, 0, expected)
    assert checks.prediction(
        200, {**right, "model": "cccccccccccc"}, 0, expected)
    assert checks.prediction(
        200, {**right, "in_segment": False}, 0, expected)
    assert checks.prediction(429, right, 0, expected)
    assert checks.prediction(0, {"error": "timed out"}, 0, expected)


def test_same_segmentation_checker(tmp_path):
    for name, width in (("a", 10.0), ("b", 10.0), ("c", 12.0)):
        save_segmentation(segmentation(width), tmp_path / f"{name}.json")
    assert checks.same_segmentation(
        [tmp_path / "a.json", tmp_path / "b.json"]) == []
    assert checks.same_segmentation(
        [tmp_path / "a.json", tmp_path / "c.json"])
    (tmp_path / "broken.json").write_text("{")
    assert checks.same_segmentation(
        [tmp_path / "a.json", tmp_path / "broken.json"])


def test_stream_artefact_checker(tmp_path):
    save_segmentation(segmentation(10.0), tmp_path / "artefact-0000.json")
    raw = (tmp_path / "artefact-0000.json").read_bytes()
    records = [{"window": 0, "published": True,
                "model_id": checks.model_id(raw), "rules": 1}]
    (tmp_path / "stream.json").write_text(json.dumps(
        {"refit_ingest_s": [0.01], "records": records}))
    assert checks.stream_artefacts(tmp_path) == []

    # A published artefact whose bytes are not the reported model.
    save_segmentation(segmentation(12.0), tmp_path / "artefact-0000.json")
    assert checks.stream_artefacts(tmp_path)

    # One that does not load at all.
    (tmp_path / "artefact-0000.json").write_text('{"format": "nope"}')
    assert checks.stream_artefacts(tmp_path)

    # A publish without its artefact.
    (tmp_path / "artefact-0000.json").unlink()
    assert checks.stream_artefacts(tmp_path)


def true_segmentation() -> Segmentation:
    from repro.data.functions import true_regions

    return Segmentation.from_rules([
        ClusteredRule("age", "salary", Interval(r.x_lo, r.x_hi),
                      Interval(r.y_lo, r.y_hi), "group", "A",
                      support=0.1, confidence=0.9)
        for r in true_regions(2)])


def test_region_error_is_zero_for_the_true_regions():
    assert checks.region_error(true_segmentation()) == \
        pytest.approx(0.0, abs=1e-12)
    assert checks.region_error(segmentation(10.0)) > 0.0


def test_region_quality_fails_a_segmentation_above_the_ceiling(tmp_path):
    ceiling = run.REGION_ERROR_CEILING
    save_segmentation(true_segmentation(), tmp_path / "true.json")
    save_segmentation(segmentation(10.0), tmp_path / "wrong.json")
    error, problems = checks.region_quality(tmp_path / "true.json", ceiling)
    assert problems == [] and error == pytest.approx(0.0, abs=1e-12)
    error, problems = checks.region_quality(tmp_path / "wrong.json",
                                            ceiling)
    assert problems and error > ceiling
    (tmp_path / "broken.json").write_text("{")
    assert checks.region_quality(tmp_path / "broken.json", ceiling)[1]


def test_no_segmentation_to_score_is_a_failed_operation():
    outcome = run.Outcome()
    run.region_check([], "fit-csv", outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)


# ----------------------------------------------------------------------
# Measuring the program's processes
# ----------------------------------------------------------------------
def test_child_peak_rss_excludes_the_launching_process():
    # A child's ru_maxrss would count this resident ballast too.
    ballast = bytearray(100 << 20)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1
    launch = run.Launch([sys.executable, "-c",
                         "import time; time.sleep(0.3)"])
    assert launch.finish(30.0) == 0
    assert 0.0 < launch.peak_rss_mb < 50.0
    del ballast


class FakeRecord:
    def __init__(self, path: Path, published: bool):
        self.path, self.published = path, published
        self.window_id, self.n_rules = 0, 1
        self.model_id = checks.model_id(path.read_bytes())


def test_stream_hook_links_artefacts_after_the_ingest_clock(
        tmp_path, monkeypatch):
    import child
    from repro.stream.refitter import StreamRefitter

    artefact = tmp_path / "arcs.json"
    artefact.write_text("first")
    monkeypatch.setattr(StreamRefitter, "refit",
                        lambda self: FakeRecord(artefact, True))
    monkeypatch.setattr(StreamRefitter, "ingest",
                        lambda self, chunk: self.refit() if chunk else None)
    write = child._hook_stream(tmp_path / "capture")
    refitter = object.__new__(StreamRefitter)
    assert refitter.ingest(False) is None
    refitter.ingest(True)
    # The refitter replaces its artefact; the capture keeps the old one.
    artefact.unlink()
    artefact.write_text("second")
    refitter.refit()  # the residual flush, outside any ingest
    write()
    captured = sorted((tmp_path / "capture").glob("artefact-*.json"))
    assert [path.read_text() for path in captured] == ["first", "second"]
    assert captured[1].stat().st_ino == artefact.stat().st_ino
    document = json.loads((tmp_path / "capture" / "stream.json").read_text())
    assert len(document["refit_ingest_s"]) == 1
    assert len(document["records"]) == 2


# ----------------------------------------------------------------------
# Metric names and the benchmark description
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "op_p50_ms", "io.busy_s",
                                  "gen.late_p99_ms", "a-b.c_1"])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "run/s", "p99%", "x" * 65,
                                  "naïve"])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


def test_every_reported_metric_has_a_valid_name():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert stats.valid_metric_name(name), name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_metric_name(name) for name in names)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def span(span_id, parent, name, start, end, **counts):
    return {"id": span_id, "parent": parent, "name": name, "pid": 1,
            "tid": 1, "start": start, "end": end, "counts": counts}


def test_self_time_subtracts_covered_child_time():
    spans = [
        span(1, None, "optimizer", 0.0, 10.0, trials=2),
        span(2, 1, "verify", 1.0, 4.0, calls=1),
        span(3, 1, "verify", 3.0, 6.0, calls=1),  # overlaps span 2
        span(4, 1, "merge", 8.0, 9.0),
        span(5, 4, "merge", 8.2, 8.6),  # re-entrant: not busy twice
    ]
    totals = tracer.layer_totals(spans)
    assert totals["optimizer"]["busy_s"] == pytest.approx(10.0)
    assert totals["optimizer"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["verify"]["busy_s"] == pytest.approx(6.0)
    assert totals["verify"]["counts"]["calls"] == 2
    assert totals["merge"]["busy_s"] == pytest.approx(1.0)
    assert totals["merge"]["self_s"] == pytest.approx(0.6 + 0.4)


def test_layer_metrics_report_every_per_layer_name():
    metrics = run.layer_metrics(
        [span(1, None, "merge", 0.0, 2.0, fragments_in=10,
              clusters_out=4)],
        {"merge.hull_evals": 60},
    )
    assert set(metrics) >= set(run.PER_LAYER) - {
        name for name in run.PER_LAYER
        if name.startswith(("serve.", "fleet.", "gen.", "cli.", "obs."))}
    assert metrics["merge.useful_ratio"] == pytest.approx(6 / 60)
    assert metrics["verify.busy_s"] == 0.0


def test_wrappers_record_nested_spans():
    import types

    module = types.ModuleType("fake_layers")
    module.inner = lambda: 1
    module.outer = lambda: module.inner() + 1
    sys.modules["fake_layers"] = module
    try:
        recorder = tracer.Tracer()
        tracer.wrap_call(recorder, "fake_layers", "inner", "in")
        tracer.wrap_call(recorder, "fake_layers", "outer", "out")
        assert module.outer() == 2
    finally:
        del sys.modules["fake_layers"]
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["in"]["parent"] == by_name["out"]["id"]
    assert by_name["out"]["parent"] is None
