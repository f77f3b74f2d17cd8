"""Metrics: percentile math, recorder summaries, thread-safety smoke."""

from __future__ import annotations

import threading

import pytest

from repro.serving.metrics import LatencyRecorder, ServiceMetrics, percentile


def test_percentile_interpolation():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 25) == 1.75
    assert percentile([5.0], 99) == 5.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_recorder_empty_summary():
    summary = LatencyRecorder().summary()
    hist = summary.pop("hist")
    assert summary == {"count": 0, "qps": 0.0, "mean_ms": None,
                       "p50_ms": None, "p95_ms": None, "p99_ms": None}
    assert hist["count"] == 0  # mergeable histogram rides along, empty


def test_recorder_summary_fields():
    recorder = LatencyRecorder(window=100)
    for ms in (1, 2, 3, 4, 5):
        recorder.record(ms / 1000.0)
    summary = recorder.summary()
    assert summary["count"] == 5
    assert summary["qps"] > 0
    assert summary["mean_ms"] == pytest.approx(3.0)
    assert summary["p50_ms"] == pytest.approx(3.0)
    assert summary["p99_ms"] <= 5.0 + 1e-9
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


def test_recorder_window_bounds_memory():
    recorder = LatencyRecorder(window=8)
    for i in range(100):
        recorder.record(float(i))
    summary = recorder.summary()
    assert summary["count"] == 100          # lifetime count
    assert summary["p50_ms"] >= 92 * 1000   # percentiles over the window


def test_recorder_time_wraps_calls():
    recorder = LatencyRecorder()
    assert recorder.time(lambda x: x + 1, 41) == 42
    with pytest.raises(RuntimeError):
        recorder.time(_raise)
    assert recorder.count == 2  # failures are recorded too


def test_recorder_rejects_bad_window():
    with pytest.raises(ValueError):
        LatencyRecorder(window=0)


def test_concurrent_records_are_not_lost():
    recorder = LatencyRecorder(window=16)

    def hammer():
        for _ in range(500):
            recorder.record(0.001)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert recorder.count == 2000


def test_service_metrics_stats_shape():
    metrics = ServiceMetrics()
    metrics.count_applied(3)
    metrics.count_rejected()
    metrics.count_batch()
    metrics.count_snapshot()
    metrics.queries.record(0.002)
    stats = metrics.stats()
    assert stats["events_applied"] == 3
    assert stats["events_rejected"] == 1
    assert stats["batches"] == 1
    assert stats["snapshots_published"] == 1
    assert stats["queries"]["count"] == 1
    assert stats["updates"]["count"] == 0
    assert stats["phases"] == {}  # nothing observed yet
    assert stats["aff"]["count"] == 0


def test_service_metrics_observe_batch_feeds_phase_hists():
    metrics = ServiceMetrics()
    metrics.observe_batch({"find": 0.010, "repair": 0.020}, affected=7)
    metrics.observe_batch({"find": 0.030}, affected=3)
    stats = metrics.stats()
    assert stats["phases"]["find"]["count"] == 2
    assert stats["phases"]["find"]["total"] == pytest.approx(40.0)
    assert stats["phases"]["repair"]["count"] == 1
    assert "coalesce" not in stats["phases"]  # empty hists are elided
    assert stats["aff"]["count"] == 2
    assert stats["aff"]["p99"] >= stats["aff"]["p50"]


def _raise():
    raise RuntimeError("boom")
