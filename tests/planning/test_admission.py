"""Unit tests for the admission controller (deterministic fake clock)."""

import pytest

from repro.core.config import MQAConfig
from repro.core.planning import AdmissionController


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def controller(**overrides) -> AdmissionController:
    kwargs = dict(
        workers=1,
        degrade_wait_ms=50.0,
        shed_wait_ms=200.0,
        clock=FakeClock(),
    )
    kwargs.update(overrides)
    return AdmissionController(**kwargs)


class TestTokenBucket:
    def test_accept_drains_predicted_cost(self):
        ctl = controller()
        # 1 worker × 85% → 850 ms/s refill, burst 425 ms.
        assert ctl.decide(100.0) == "accept"
        assert ctl.snapshot()["tokens_ms"] == 325.0

    def test_exhausted_bucket_degrades(self):
        ctl = controller()
        for _ in range(4):
            assert ctl.decide(100.0) == "accept"
        # 25 ms left < 100 predicted: degrade, charged half.
        assert ctl.decide(100.0) == "degrade"
        assert ctl.snapshot()["tokens_ms"] == -25.0

    def test_deep_debt_sheds(self):
        ctl = controller()
        decisions = [ctl.decide(100.0) for _ in range(16)]
        assert "shed" in decisions
        # Once tokens fall past -burst every arrival sheds (no charge).
        assert decisions[-1] == "shed"
        assert ctl.snapshot()["tokens_ms"] >= -2 * ctl.burst_ms

    def test_refill_is_capped_at_burst(self):
        clock = FakeClock()
        ctl = controller(clock=clock)
        ctl.decide(100.0)
        clock.advance(100.0)  # far more than needed to refill
        ctl.decide(0.0)
        assert ctl.snapshot()["tokens_ms"] == ctl.burst_ms

    def test_refill_restores_acceptance(self):
        clock = FakeClock()
        ctl = controller(clock=clock)
        while ctl.decide(100.0) == "accept":
            pass
        clock.advance(1.0)  # one second refills 850 ms of capacity
        assert ctl.decide(100.0) == "accept"


class TestQueueWaitSignal:
    def test_first_wait_seeds_the_ewma(self):
        ctl = controller()
        ctl.observe_wait(40.0)
        assert ctl.snapshot()["queue_wait_ewma_ms"] == 40.0

    def test_ewma_smoothing(self):
        ctl = controller(alpha=0.5)
        ctl.observe_wait(100.0)
        ctl.observe_wait(0.0)
        assert ctl.snapshot()["queue_wait_ewma_ms"] == 50.0

    def test_degrade_threshold(self):
        ctl = controller()
        ctl.observe_wait(60.0)  # ≥ degrade_wait_ms=50
        assert ctl.decide(1.0) == "degrade"

    def test_shed_threshold(self):
        ctl = controller()
        ctl.observe_wait(250.0)  # ≥ shed_wait_ms=200
        assert ctl.decide(1.0) == "shed"

    def test_shed_counts_predicted_service_time(self):
        # Predicted completion = wait + predicted × safety: a request
        # that cannot make the budget even if accepted is shed although
        # the queue wait alone is below the threshold.
        ctl = controller(safety=1.25)
        ctl.observe_wait(150.0)
        assert ctl.decide(50.0) == "shed"      # 150 + 62.5 ≥ 200
        ctl2 = controller(safety=1.25)
        ctl2.observe_wait(150.0)
        assert ctl2.decide(10.0) != "shed"     # 150 + 12.5 < 200

    def test_queue_probe_overrides_stale_ewma(self):
        # After a shed storm the EWMA stays high (nothing executes to
        # update it) but the live queue is empty — the probe must win
        # so acceptance resumes immediately.
        ctl = controller(queue_probe=lambda: 0)
        ctl.observe_wait(500.0)
        assert ctl.decide(10.0) == "accept"

    def test_drained_queue_is_no_pressure_for_the_planner(self):
        # The planner reads the same live wait ``decide`` does: after a
        # storm of 400 ms waits the EWMA stays high, but an empty queue is
        # neither a degrade decision nor pressure below tier 0.
        depth = {"queued": 4}
        ctl = controller(queue_probe=lambda: depth["queued"])
        for _ in range(5):
            ctl.observe_wait(400.0)
        depth["queued"] = 0
        assert ctl.decide(30.0) == "accept"
        assert ctl.snapshot()["queue_wait_ewma_ms"] == pytest.approx(400.0)
        assert not ctl.under_pressure
        depth["queued"] = 2  # 2 queued / 1 worker x 30 ms = 60 >= 50
        assert ctl.under_pressure

    def test_queue_probe_sheds_on_deep_queue(self):
        ctl = controller(queue_probe=lambda: 10)
        # Little's law: 10 queued / 1 worker × 50 ms each = 500 ms ≥ 200.
        assert ctl.decide(50.0) == "shed"

    def test_queue_probe_degrades_in_the_middle(self):
        ctl = controller(queue_probe=lambda: 1)
        # wait 60 ≥ degrade 50, completion 60 + 75 < shed 200.
        assert ctl.decide(60.0) == "degrade"

    def test_queue_probe_failure_falls_back_to_ewma(self):
        def probe():
            raise RuntimeError("engine gone")

        ctl = controller(queue_probe=probe)
        ctl.observe_wait(250.0)
        assert ctl.decide(1.0) == "shed"

    def test_snapshot_reports_queue_depth(self):
        ctl = controller(queue_probe=lambda: 3)
        assert ctl.snapshot()["queue_depth"] == 3
        assert controller().snapshot()["queue_depth"] is None

    def test_under_pressure_tracks_degrade_territory(self):
        ctl = controller()
        assert not ctl.under_pressure
        ctl.observe_wait(60.0)
        assert ctl.under_pressure

    def test_token_debt_is_also_pressure(self):
        ctl = controller()
        while ctl.snapshot()["tokens_ms"] > 0:
            ctl.decide(100.0)
        assert ctl.under_pressure


class TestConstruction:
    def test_from_config_uses_deadline_budget(self):
        config = MQAConfig(workers=4, resilience=True, deadline_ms=400.0)
        ctl = AdmissionController.from_config(config)
        assert ctl.workers == 4
        assert ctl.degrade_wait_ms == 200.0
        assert ctl.shed_wait_ms == 400.0

    def test_from_config_falls_back_to_slo_target(self):
        config = MQAConfig(workers=2)
        ctl = AdmissionController.from_config(config)
        assert ctl.degrade_wait_ms == config.slo_latency_ms * 0.5
        assert ctl.shed_wait_ms == config.slo_latency_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(workers=0)
        with pytest.raises(ValueError):
            AdmissionController(degrade_wait_ms=100.0, shed_wait_ms=50.0)


class TestReporting:
    def test_counters_and_snapshot(self):
        ctl = controller(alpha=1.0)  # EWMA tracks the last wait exactly
        ctl.decide(10.0)
        ctl.observe_wait(60.0)
        ctl.decide(10.0)
        ctl.observe_wait(250.0)
        ctl.decide(10.0)
        snap = ctl.snapshot()
        assert snap["enabled"] is True
        assert snap["accepted"] == 1
        assert snap["degraded"] == 1
        assert snap["shed"] == 1
        assert snap["workers"] == 1
        assert snap["degrade_wait_ms"] == 50.0
        assert snap["shed_wait_ms"] == 200.0

    def test_metrics_labels(self):
        class StubMetrics:
            def __init__(self):
                self.counters = {}

            def inc(self, name, amount=1.0):
                self.counters[name] = self.counters.get(name, 0) + amount

        metrics = StubMetrics()
        ctl = controller(metrics=metrics)
        ctl.decide(10.0)
        ctl.observe_wait(60.0)
        ctl.decide(10.0)
        assert metrics.counters == {
            "admission.accept": 1,
            "admission.degrade": 1,
        }
