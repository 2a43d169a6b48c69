import random

import pytest

from msra.errors import ConfigurationError, InputError
from msra.slo import (
    FAILURE,
    LATENCY,
    SloSpec,
    StrategyLevel,
    build_status,
    compliance,
    error_budget,
    target_for,
)


def latency_slo(threshold=85.0):
    return SloSpec("SLO1", LATENCY, threshold, window_length=600.0, deadline=2.0)

def failure_slo(threshold=1.0):
    return SloSpec("SLO2", FAILURE, threshold, window_length=60.0)


class TestCompliance:
    def test_latency_direct_mapping(self):
        slo = latency_slo(85.0)
        assert compliance(slo, 0.90) == 90.0
        assert slo.compliance_threshold == 85.0

    def test_failure_rate_inverted(self):
        # Y = 1%: a 0.4% failure rate means 99.6% compliance against 99.
        slo = failure_slo(1.0)
        assert compliance(slo, 0.004) == pytest.approx(99.6)
        assert slo.compliance_threshold == 99.0

    def test_boundary_equals_threshold_is_met(self):
        slo = failure_slo(2.0)
        measured = compliance(slo, 0.02)
        assert measured == 98.0 == slo.compliance_threshold
        status = build_status(slo, 0.02, StrategyLevel.BEST_EFFORT)
        assert not status.violated

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InputError):
            compliance(latency_slo(), bad)

    def test_failure_normalization_round_trip(self):
        slo = failure_slo(1.0)
        rng = random.Random(7)
        for _ in range(500):
            v = rng.random()
            assert compliance(slo, v) == 100.0 - 100.0 * v


class TestTargets:
    def test_strategy_targets_over_85(self):
        assert target_for(StrategyLevel.CONSERVATIVE, 85.0) == 95.0
        assert target_for(StrategyLevel.NORMAL, 85.0) == 90.0
        assert target_for(StrategyLevel.BEST_EFFORT, 85.0) == 85.0

    def test_capped_at_100(self):
        assert target_for(StrategyLevel.CONSERVATIVE, 99.5) == 100.0

    def test_monotone_in_margin(self):
        for ct in (50.0, 85.0, 95.0, 99.9):
            t = [target_for(s, ct) for s in
                 (StrategyLevel.BEST_EFFORT, StrategyLevel.NORMAL, StrategyLevel.CONSERVATIVE)]
            assert t == sorted(t)
            assert all(x <= 100.0 for x in t)


class TestErrorBudget:
    @pytest.mark.parametrize("measured,threshold,expected", [
        (90.0, 85.0, 5.0),
        (85.0, 85.0, 0.0),
        (80.0, 85.0, -5.0),
    ])
    def test_budget_is_signed_difference(self, measured, threshold, expected):
        assert error_budget(measured, threshold) == expected

    def test_violated_iff_negative_budget(self):
        rng = random.Random(11)
        for _ in range(500):
            slo = latency_slo(rng.uniform(1, 99))
            value = rng.random()
            status = build_status(slo, value, StrategyLevel.NORMAL)
            assert status.violated == (status.error_budget < 0)


class TestSpecValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            SloSpec("x", LATENCY, 100.0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            SloSpec("x", FAILURE, 0.0)

    def test_latency_needs_deadline(self):
        with pytest.raises(ConfigurationError):
            SloSpec("x", LATENCY, 85.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            SloSpec("x", "throughput", 85.0)


def test_absent_status_is_neutral():
    status = build_status(latency_slo(), None, StrategyLevel.CONSERVATIVE)
    assert not status.violated
    assert not status.samples_present
    assert status.error_budget == 0.0
