import random

import pytest

from msra.errors import ConfigurationError, SchemaViolation
from msra.telemetry import MetricSample, MetricStore, MetricWindow


def sample(ts, value, service="web", metric="response_time"):
    return MetricSample(ts, service, metric, value)


class TestRecord:
    def test_round_trip(self):
        store = MetricStore()
        s = sample(1.0, 0.42)
        store.record(s)
        assert store.samples() == [s]

    def test_rejects_nan(self):
        with pytest.raises(SchemaViolation):
            MetricStore().record(sample(1.0, float("nan")))

    def test_rejects_negative_response_time(self):
        with pytest.raises(SchemaViolation):
            MetricStore().record(sample(1.0, -0.5))

    def test_rejects_unregistered_metric(self):
        with pytest.raises(SchemaViolation):
            MetricStore().record(sample(1.0, 3.0, metric="connection_time"))

    def test_out_of_order_accepted_and_sorted_on_read(self):
        store = MetricStore()
        store.record(sample(5.0, 1.0)).record(sample(3.0, 2.0))
        assert [s.timestamp for s in store.samples()] == [3.0, 5.0]


class TestClean:
    def test_dedupes_identical_samples(self):
        store = MetricStore()
        s1, s2 = sample(1.0, 0.5), sample(2.0, 0.7)
        for s in (s1, s1, s2):
            store.record(s)
        store.clean()
        assert store.samples() == [s1, s2]

    def test_sorts(self):
        store = MetricStore()
        store.record(sample(5.0, 1.0)).record(sample(3.0, 1.0))
        store.clean()
        assert [s.timestamp for s in store.samples()] == [3.0, 5.0]

    def test_idempotent(self):
        store = MetricStore()
        for ts in (4.0, 1.0, 4.0, 2.0):
            store.record(sample(ts, ts))
        once = store.clean().samples()
        again = store.clean().samples()
        assert once == again

    def test_permutation_insensitive(self):
        base = [sample(float(i % 7), float(i % 3)) for i in range(40)]
        rng = random.Random(13)
        reference = None
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            store = MetricStore()
            for s in shuffled:
                store.record(s)
            got = store.clean().samples()
            if reference is None:
                reference = got
            assert got == reference


class TestAggregate:
    def test_fraction_within_deadline_counts_by_hand(self):
        # [1.0, 2.0, 3.0] against deadline 2.5 -> 2 of 3
        store = MetricStore()
        for i, rt in enumerate([1.0, 2.0, 3.0]):
            store.record(sample(float(i), rt))
        window = MetricWindow("response_time", 60.0, "fraction_within_deadline", deadline=2.5)
        assert store.aggregate("web", window, 10.0) == pytest.approx(2 / 3)

    def test_failure_rate_counts_by_hand(self):
        store = MetricStore()
        for i, v in enumerate([0.0, 0.0, 0.0, 1.0]):
            store.record(sample(float(i), v, metric="failure"))
        window = MetricWindow("failure", 60.0, "fraction_true")
        assert store.aggregate("web", window, 10.0) == 0.25

    def test_empty_window_absent(self):
        store = MetricStore()
        window = MetricWindow("response_time", 10.0, "mean")
        assert store.aggregate("web", window, 100.0) is None

    def test_window_is_half_open(self):
        store = MetricStore()
        store.record(sample(10.0, 1.0))  # exactly at now - W: excluded
        store.record(sample(20.0, 3.0))  # exactly at now: included
        window = MetricWindow("response_time", 10.0, "mean")
        assert store.aggregate("web", window, 20.0) == 3.0

    def test_whole_window_equals_whole_series(self):
        store = MetricStore()
        rng = random.Random(3)
        values = [rng.uniform(0, 5) for _ in range(50)]
        for i, v in enumerate(values):
            store.record(sample(float(i), v))
        window = MetricWindow("response_time", 1000.0, "mean")
        assert store.aggregate("web", window, 49.0) == pytest.approx(sum(values) / len(values))

    def test_unknown_metric_is_config_error(self):
        store = MetricStore()
        with pytest.raises(ConfigurationError):
            store.aggregate("web", MetricWindow("bogus", 10.0, "mean"), 0.0)

    def test_services_are_isolated(self):
        store = MetricStore()
        store.record(sample(1.0, 1.0, service="a"))
        store.record(sample(1.0, 9.0, service="b"))
        window = MetricWindow("response_time", 10.0, "mean")
        assert store.aggregate("a", window, 5.0) == 1.0
        assert store.aggregate("b", window, 5.0) == 9.0


def test_window_validation():
    with pytest.raises(ConfigurationError):
        MetricWindow("response_time", 0.0, "mean")
    with pytest.raises(ConfigurationError):
        MetricWindow("response_time", 10.0, "median")
    with pytest.raises(ConfigurationError):
        MetricWindow("response_time", 10.0, "fraction_within_deadline")
