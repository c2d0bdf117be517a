"""Tests for the three frontend panels."""

import pytest

from repro.core import ConfigurationPanel, QAPanel, StatusPanel
from repro.core.coordinator import Coordinator
from repro.errors import ConfigurationError

from tests.core.conftest import fast_config


class TestConfigurationPanel:
    def test_options_cover_registries(self):
        options = ConfigurationPanel().options()
        assert "must" in options["framework"]
        assert "hnsw" in options["index"]
        assert "clip-joint" in options["encoder_set"]
        assert "none" in options["llm"]
        assert "scenes" in options["knowledge_base"]

    def test_set_option_feedback(self):
        panel = ConfigurationPanel(fast_config())
        panel.set_option("framework", "mr")
        assert panel.config.framework == "mr"
        assert "framework" in panel.feedback[-1]

    def test_set_knowledge_base(self):
        panel = ConfigurationPanel(fast_config())
        panel.set_option("knowledge_base", "food")
        assert panel.config.dataset.domain == "food"

    def test_set_llm_none(self):
        panel = ConfigurationPanel(fast_config())
        panel.set_option("llm", "none")
        assert panel.config.llm is None

    def test_invalid_value_rejected_with_feedback(self):
        panel = ConfigurationPanel(fast_config())
        with pytest.raises(ConfigurationError):
            panel.set_option("framework", "colbert")
        assert "rejected" in panel.feedback[-1]

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown configuration option"):
            ConfigurationPanel(fast_config()).set_option("gpu_count", 8)

    def test_apply_builds_ready_coordinator(self, scenes_kb):
        panel = ConfigurationPanel(fast_config())
        coordinator = panel.apply(knowledge_base=scenes_kb)
        assert coordinator.status.ready
        assert "ready" in panel.feedback[-1]


class TestStatusPanel:
    def test_render_shows_ticks(self, scenes_kb):
        coordinator = Coordinator(fast_config(), knowledge_base=scenes_kb).setup()
        text = StatusPanel(coordinator.status).render()
        assert text.count("✓") >= 3
        assert "index construction" in text
        assert "encoders=" in text

    def test_render_pending_blank_ticks(self, scenes_kb):
        coordinator = Coordinator(fast_config(), knowledge_base=scenes_kb)
        text = StatusPanel(coordinator.status).render()
        assert "[ ]" in text


    def test_status_report_is_the_status_endpoint_text(self, scenes_kb):
        """The library's report used to lack the health / quality / cost /
        cache lines ``GET /status`` renders: both read one ledger table."""
        from repro.core import MQASystem
        from repro.server import ApiServer

        config = fast_config(monitoring=True, cost_accounting=True)
        with ApiServer(config, knowledge_base=scenes_kb) as server:
            assert server.handle("POST", "/apply")["ok"]
            assert server.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
            rendered = server.handle("GET", "/status")["rendered"]
            report = MQASystem(server._coordinator).status_report()
        assert report == rendered
        for line in (" health: ", " quality: ", " cost: 1 observed", " cache: "):
            assert line in report
        assert "last query trace" in report


class TestQAPanel:
    def test_full_interaction_transcript(self, scenes_kb):
        coordinator = Coordinator(fast_config(), knowledge_base=scenes_kb).setup()
        panel = QAPanel(coordinator)
        panel.submit("foggy clouds")
        panel.click_result(0)
        panel.refine("more like this")
        transcript = panel.render_transcript()
        assert "user: foggy clouds" in transcript
        assert "user selected #" in transcript
        assert "[image]" in transcript  # refinement carried the image
        assert transcript.count("mqa:") == 2
