"""Error accounting for the planner's stats seeding and admission probes.

Both fallbacks used to swallow their exceptions silently — a broken
stats plane or queue probe degraded planning quality with zero
operator-visible evidence.  They must stay non-fatal, but every failure
is now counted, surfaced in snapshots and metrics, and the first one is
logged with its cause.
"""

import logging

from repro.core.planning import AdmissionController, QueryPlanner
from repro.observability import MetricsRegistry


class BrokenStats:
    def snapshot(self):
        raise RuntimeError("stats plane down")


class WorkingStats:
    def snapshot(self):
        return {"groups": [{"shard": "-", "latency_ms": {"p95": 12.0}}]}


def broken_probe():
    raise OSError("queue handle gone")


class TestPlannerSeedErrors:
    def test_seed_failure_counted_not_raised(self):
        metrics = MetricsRegistry()
        planner = QueryPlanner(
            base_budget=64, k=5, stats=BrokenStats(), metrics=metrics
        )
        plan = planner.plan()  # must survive the broken stats plane
        assert plan.budget == 64
        assert planner.snapshot()["errors"] >= 1
        assert metrics.snapshot()["counters"]["planner.errors"] >= 1

    def test_first_failure_logged_once(self, caplog):
        planner = QueryPlanner(base_budget=64, k=5, stats=BrokenStats())
        with caplog.at_level(logging.WARNING, logger="repro.core.planning"):
            for _ in range(3):
                planner.plan()
        warnings = [
            record
            for record in caplog.records
            if "planner stats seeding failed" in record.message
        ]
        assert len(warnings) == 1
        assert "RuntimeError" in warnings[0].message
        assert planner.snapshot()["errors"] >= 3

    def test_healthy_stats_plane_counts_nothing(self):
        planner = QueryPlanner(base_budget=64, k=5, stats=WorkingStats())
        plan = planner.plan()
        assert plan.predicted_ms > 0.0  # the seed actually landed
        assert planner.snapshot()["errors"] == 0


class TestAdmissionProbeErrors:
    def test_probe_failure_counted_and_decision_still_made(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            workers=1, queue_probe=broken_probe, metrics=metrics
        )
        decision = controller.decide(5.0)
        assert decision in ("accept", "degrade", "shed")
        assert (
            metrics.snapshot()["counters"]["admission.probe_errors"] >= 1
        )
        # The ledger reads that same counter (and probes once more itself).
        assert controller.snapshot()["probe_errors"] >= 2

    def test_snapshot_probe_failure_reports_none_depth(self):
        controller = AdmissionController(workers=1, queue_probe=broken_probe)
        snapshot = controller.snapshot()
        assert snapshot["queue_depth"] is None
        assert snapshot["probe_errors"] >= 1

    def test_first_probe_failure_logged_once(self, caplog):
        controller = AdmissionController(workers=1, queue_probe=broken_probe)
        with caplog.at_level(logging.WARNING, logger="repro.core.planning"):
            controller.decide(5.0)
            controller.decide(5.0)
            controller.snapshot()
        warnings = [
            record
            for record in caplog.records
            if "admission queue probe failed" in record.message
        ]
        assert len(warnings) == 1
        assert "OSError" in warnings[0].message

    def test_healthy_probe_counts_nothing(self):
        controller = AdmissionController(workers=1, queue_probe=lambda: 2)
        controller.decide(5.0)
        snapshot = controller.snapshot()
        assert snapshot["queue_depth"] == 2
        assert snapshot["probe_errors"] == 0
