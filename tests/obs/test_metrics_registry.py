"""The unified metrics registry and its bit-compatible service facade."""

from __future__ import annotations

import pytest

from repro.concurrency.aborts import RunStatistics
from repro.fixtures.genealogy import genealogy_repository
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.metrics import WAIT_SAMPLE_WINDOW, ServiceMetrics
from repro.service.repository import RepositoryService

#: The historical ``ServiceMetrics`` snapshot keys, in the historical order.
SERVICE_BASE_KEYS = [
    "submitted",
    "admitted",
    "committed",
    "failed",
    "parks",
    "resumes",
    "restarts",
    "elapsed_seconds",
    "throughput_per_second",
    "abort_rate",
    "frontier_wait_p50_seconds",
    "frontier_wait_p95_seconds",
    "queue_wait_p50_seconds",
    "queue_wait_p95_seconds",
    "turnaround_p50_seconds",
    "turnaround_p95_seconds",
]

STORE_KEYS = [
    "store_log_entries",
    "store_versions",
    "store_tuples",
    "store_index_entries",
    "store_compactions",
    "durable_torn_records",
]


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_increments():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.collect() == {"hits": 5}


def test_gauge_set_and_function():
    registry = MetricsRegistry()
    registry.gauge("level").set(3.5)
    backing = [7]
    registry.gauge("live").set_function(lambda: backing[0])
    assert registry.collect() == {"level": 3.5, "live": 7}
    backing[0] = 9
    assert registry.collect()["live"] == 9


def test_histogram_percentile_keys_and_window():
    registry = MetricsRegistry()
    histogram = registry.histogram("wait", window=4, unit="seconds")
    for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
        histogram.observe(value)
    data = registry.collect()
    # Window 4 keeps only the most recent four samples: [3, 4, 5, 6].
    assert data["wait_p50_seconds"] == 4.0
    assert data["wait_p95_seconds"] == 6.0


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_producers_collect_after_instruments_and_prefix():
    registry = MetricsRegistry()
    registry.counter("first").inc()
    registry.register_producer(lambda: {"steps": 12}, prefix="scheduler_")
    data = registry.collect()
    assert list(data.keys()) == ["first", "scheduler_steps"]
    assert data["scheduler_steps"] == 12


def test_producer_keys_overwrite_instruments():
    registry = MetricsRegistry()
    registry.gauge("depth").set(1.0)
    registry.register_producer(lambda: {"depth": 2.0})
    assert registry.collect()["depth"] == 2.0


# ----------------------------------------------------------------------
# ServiceMetrics facade compatibility
# ----------------------------------------------------------------------
def test_service_metrics_snapshot_key_layout_is_unchanged():
    metrics = ServiceMetrics(started_at=0.0)
    snapshot = metrics.snapshot(RunStatistics(), now=1.0)
    base = [key for key in snapshot if not key.startswith("scheduler_")]
    assert base == SERVICE_BASE_KEYS
    assert "scheduler_algorithm" in snapshot
    assert "scheduler_steps" in snapshot


def test_service_metrics_counter_attributes_stay_ints():
    metrics = ServiceMetrics(started_at=0.0)
    metrics.record_submit()
    metrics.record_admit(0.1)
    metrics.record_commit(0.2)
    metrics.record_park()
    metrics.record_resume(0.3)
    metrics.record_restart()
    metrics.record_failure()
    for name in ("submitted", "admitted", "committed", "failed", "parks", "resumes", "restarts"):
        value = getattr(metrics, name)
        assert value == 1
        assert isinstance(value, int)


def test_service_metrics_window_is_bounded():
    metrics = ServiceMetrics(started_at=0.0)
    for index in range(WAIT_SAMPLE_WINDOW + 10):
        metrics.frontier_waits.observe(float(index))
    assert len(metrics.frontier_waits.samples) == WAIT_SAMPLE_WINDOW


def test_repository_snapshot_includes_store_and_scheduler_once():
    database, mappings = genealogy_repository()
    service = RepositoryService(database.snapshot(), mappings)
    snapshot = service.metrics_snapshot()
    keys = list(snapshot.keys())
    for key in SERVICE_BASE_KEYS + STORE_KEYS + ["scheduler_algorithm"]:
        assert keys.count(key) == 1, key
