"""Tests for the DAG execution engine (CGraph stand-in)."""

import weakref

import pytest

from repro.errors import CycleError, PipelineError
from repro.pipeline import DagPipeline, NodeStatus


class TestTopology:
    def test_runs_in_dependency_order(self):
        order = []
        pipeline = DagPipeline()
        pipeline.add_node("c", lambda ctx: order.append("c"), depends_on=["b"])
        pipeline.add_node("a", lambda ctx: order.append("a"))
        pipeline.add_node("b", lambda ctx: order.append("b"), depends_on=["a"])
        pipeline.run()
        assert order == ["a", "b", "c"]

    def test_diamond(self):
        order = []
        pipeline = DagPipeline()
        pipeline.add_node("root", lambda ctx: order.append("root"))
        pipeline.add_node("left", lambda ctx: order.append("left"), depends_on=["root"])
        pipeline.add_node("right", lambda ctx: order.append("right"), depends_on=["root"])
        pipeline.add_node(
            "join", lambda ctx: order.append("join"), depends_on=["left", "right"]
        )
        pipeline.run()
        assert order[0] == "root"
        assert order[-1] == "join"

    def test_cycle_detected(self):
        pipeline = DagPipeline()
        pipeline.add_node("a", lambda ctx: None, depends_on=["b"])
        pipeline.add_node("b", lambda ctx: None, depends_on=["a"])
        with pytest.raises(CycleError, match="cycle"):
            pipeline.run()

    def test_unknown_dependency(self):
        pipeline = DagPipeline()
        pipeline.add_node("a", lambda ctx: None, depends_on=["ghost"])
        with pytest.raises(PipelineError, match="ghost"):
            pipeline.run()

    def test_duplicate_node_rejected(self):
        pipeline = DagPipeline()
        pipeline.add_node("a", lambda ctx: None)
        with pytest.raises(PipelineError, match="duplicate"):
            pipeline.add_node("a", lambda ctx: None)

    def test_empty_name_rejected(self):
        with pytest.raises(PipelineError):
            DagPipeline().add_node("", lambda ctx: None)


class TestContext:
    def test_results_stored_under_node_name(self):
        pipeline = DagPipeline()
        pipeline.add_node("producer", lambda ctx: 42)
        pipeline.add_node(
            "consumer", lambda ctx: ctx["producer"] + 1, depends_on=["producer"]
        )
        context, _ = pipeline.run()
        assert context["consumer"] == 43

    def test_initial_context_preserved(self):
        pipeline = DagPipeline()
        pipeline.add_node("reader", lambda ctx: ctx["given"] * 2)
        context, _ = pipeline.run({"given": 10})
        assert context["reader"] == 20
        assert context["given"] == 10

    def test_none_results_not_stored(self):
        pipeline = DagPipeline()
        pipeline.add_node("quiet", lambda ctx: None)
        context, _ = pipeline.run()
        assert "quiet" not in context

    def test_a_popped_result_is_freed_during_the_next_node(self):
        """The context is the only holder of a finished node's result: a
        node that pops it frees it while it runs, not when ``run`` ends."""

        class Table:
            pass

        made = []

        def produce(ctx):
            table = Table()
            made.append(weakref.ref(table))
            return table

        def consume(ctx):
            ctx.pop("produce")
            return made[0]() is None

        pipeline = DagPipeline()
        pipeline.add_node("produce", produce)
        pipeline.add_node("consume", consume, depends_on=["produce"])
        context, _ = pipeline.run()
        assert context["consume"] is True


class TestFailure:
    def test_failure_skips_downstream(self):
        pipeline = DagPipeline()
        pipeline.add_node("boom", lambda ctx: 1 / 0)
        pipeline.add_node("after", lambda ctx: None, depends_on=["boom"])
        with pytest.raises(PipelineError, match="boom"):
            pipeline.run()

    def test_reports_capture_states(self):
        pipeline = DagPipeline()
        pipeline.add_node("ok", lambda ctx: 1)
        pipeline.add_node("boom", lambda ctx: 1 / 0, depends_on=["ok"])
        pipeline.add_node("after", lambda ctx: None, depends_on=["boom"])
        try:
            pipeline.run()
        except PipelineError:
            pass
        # Reports are not returned on failure, so re-run collecting manually.
        statuses = {}
        pipeline2 = DagPipeline()
        pipeline2.add_node("ok", lambda ctx: 1)
        pipeline2.add_node("after", lambda ctx: 2, depends_on=["ok"])
        _, reports = pipeline2.run()
        statuses = {report.name: report.status for report in reports}
        assert statuses == {"ok": NodeStatus.DONE, "after": NodeStatus.DONE}

    def test_error_message_includes_exception(self):
        pipeline = DagPipeline("p")
        pipeline.add_node("boom", lambda ctx: 1 / 0)
        with pytest.raises(PipelineError, match="ZeroDivisionError"):
            pipeline.run()


class TestReports:
    def test_elapsed_recorded(self):
        pipeline = DagPipeline()
        pipeline.add_node("work", lambda ctx: sum(range(1000)))
        _, reports = pipeline.run()
        assert reports[0].elapsed >= 0.0
        assert reports[0].status is NodeStatus.DONE

    def test_node_names_property(self):
        pipeline = DagPipeline()
        pipeline.add_node("x", lambda ctx: None)
        pipeline.add_node("y", lambda ctx: None)
        assert pipeline.node_names == ("x", "y")
