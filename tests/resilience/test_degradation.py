"""Graceful degradation policies, end-to-end through the API server."""

from __future__ import annotations

import pytest

from repro.core import MQASystem
from repro.core.resilience import BreakerState, ResilienceManager
from repro.data import Modality
from repro.errors import EncodingError

from tests.resilience.conftest import make_server, resilient_config


class TestLLMFallback:
    def test_llm_failure_degrades_to_retrieval_only(self):
        server = make_server(
            fault_seed=3,
            retry_attempts=2,
            faults={"llm.generate": {"error_rate": 1.0}},
        )
        try:
            response = server.handle("POST", "/query", {"text": "foggy peaks"})
            assert response["ok"], response
            answer = response["answer"]
            assert answer["degraded"] is True
            assert answer["degraded_reasons"] == ["llm fallback (InjectedFaultError)"]
            # the retrieval-only listing is still grounded in real results
            assert answer["items"]
            assert answer["text"].startswith("Top results")
            health = server.handle("GET", "/health")["resilience"]
            assert health["fallbacks"] == {"llm_fallback": 1}
            # both attempts hit the injected fault before falling back
            assert health["injected"]["errors"]["llm.generate"] == 2
            assert health["sites"]["llm.generate"]["retries"] == 1
        finally:
            server.close()

    def test_llm_recovery_after_max_faults(self):
        server = make_server(
            fault_seed=3,
            faults={"llm.generate": {"error_rate": 1.0, "max_faults": 1}},
        )
        try:
            first = server.handle("POST", "/query", {"text": "foggy peaks"})
            assert first["answer"]["degraded"] is True
            second = server.handle("POST", "/query", {"text": "calm lake"})
            assert second["answer"]["degraded"] is False
            assert not second["answer"]["text"].startswith("Top results")
        finally:
            server.close()


@pytest.fixture(scope="module")
def systems():
    """The same small system with the resilience layer on and off."""
    return {
        resilience: MQASystem.from_config(resilient_config(resilience=resilience))
        for resilience in (True, False)
    }


NAN_IMAGE = [float("nan")] * 256
BAD_IMAGES = {
    "string": ("abc", "image content must be numeric"),
    "mapping": ({"a": 1}, "image content must be numeric"),
    "nan": (NAN_IMAGE, "query image holds a NaN or an infinity"),
}


@pytest.mark.parametrize("image, refusal", BAD_IMAGES.values(), ids=BAD_IMAGES)
class TestNonNumericContent:
    """Image content that is not numbers, or holds a NaN, is an
    ``EncodingError`` naming the modality — non-numbers used to escape as a
    builtin ``ValueError`` / ``TypeError`` that the modality probe did not
    catch, and a NaN passed the probe to fail retrieval's own encode."""

    def test_is_an_encoding_error(self, systems, image, refusal):
        with pytest.raises(EncodingError, match=refusal):
            systems[False].ask("red car", image=image)

    def test_drops_the_modality_under_resilience(self, systems, image, refusal):
        answer = systems[True].ask("red car", image=image)
        assert answer.degraded is True
        assert answer.degraded_reasons == ["modality image dropped (EncodingError)"]
        assert answer.items  # text-only retrieval still answered


class TestMalformedContentChargesNoBreaker:
    """A client's malformed content is refused before any guard, so it
    opens no breaker that every other client shares.  (Five NaN images
    used to open ``index.search`` — the probe passed them and retrieval's
    own encode refused them inside the guarded search — after which a
    healthy text-only ask got no retrieval; six string images opened
    ``encoder.image`` and every valid image was dropped.)"""

    def test_repeated_bad_images_leave_the_breakers_closed(self):
        system = MQASystem.from_config(resilient_config())
        for image, _ in BAD_IMAGES.values():
            for _ in range(6):
                answer = system.ask("red car", image=image)
                assert answer.degraded_reasons == ["modality image dropped (EncodingError)"]
        image = system.coordinator.kb.get(0).get(Modality.IMAGE)
        for healthy in (system.ask("foggy peaks"), system.ask("red car", image=image)):
            assert healthy.degraded is False and healthy.items
        resilience = system.coordinator.resilience
        for site in ("encoder.image", "index.search"):
            assert resilience.breaker(site).state is BreakerState.CLOSED, site


class TestModalityDrop:
    def run_refine(self, **config_overrides):
        server = make_server(**config_overrides)
        try:
            assert server.handle("POST", "/query", {"text": "foggy peaks"})["ok"]
            assert server.handle("POST", "/select", {"rank": 0})["ok"]
            return server, server.handle("POST", "/refine", {"text": "more at dusk"})
        except BaseException:
            server.close()
            raise

    def test_failing_image_encoder_drops_the_modality(self):
        server, response = self.run_refine(
            fault_seed=3, faults={"encoder.image": {"error_rate": 1.0}}
        )
        try:
            answer = response["answer"]
            assert answer["degraded"] is True
            assert answer["degraded_reasons"] == [
                "modality image dropped (InjectedFaultError)"
            ]
            assert answer["items"]  # text-only retrieval still answered
            health = server.handle("GET", "/health")["resilience"]
            assert health["fallbacks"] == {"modality_dropped": 1}
        finally:
            server.close()

    def test_drop_renormalises_weights_over_survivors(self):
        """MUST gets an explicit weight map: survivors sum to 1, dropped = 0."""
        system = MQASystem.from_config(
            resilient_config(
                fault_seed=3, faults={"encoder.image": {"error_rate": 1.0}}
            )
        )
        coordinator = system.coordinator
        system.ask("foggy peaks")
        system.select(0)
        seen = {}
        original = coordinator.execution.execute

        def spy(query, k, **kwargs):
            seen["weights"] = kwargs.get("weights")
            return original(query, k, **kwargs)

        coordinator.execution.execute = spy
        try:
            answer = system.refine("more at dusk")
        finally:
            coordinator.execution.execute = original
        assert answer.degraded
        weights = {m.value: w for m, w in seen["weights"].items()}
        assert weights["image"] == 0.0
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_joint_embedding_framework_drops_without_weights(self):
        server, response = self.run_refine(
            framework="je",
            fault_seed=3,
            faults={"encoder.image": {"error_rate": 1.0}},
        )
        try:
            answer = response["answer"]
            assert answer["degraded"] is True
            assert answer["items"]
        finally:
            server.close()

    def test_all_modalities_dropped_still_answers(self):
        server = make_server(fault_seed=3, faults={"encoder": {"error_rate": 1.0}})
        try:
            response = server.handle("POST", "/query", {"text": "foggy peaks"})
            assert response["ok"], response
            answer = response["answer"]
            assert answer["degraded"] is True
            assert "retrieval skipped (no encodable modality)" in (
                answer["degraded_reasons"]
            )
            assert answer["items"] == []
        finally:
            server.close()


class TestRetrievalDegradation:
    def test_index_failure_yields_flagged_empty_answer(self):
        server = make_server(
            fault_seed=3, faults={"index.search": {"error_rate": 1.0}}
        )
        try:
            response = server.handle("POST", "/query", {"text": "foggy peaks"})
            assert response["ok"], response
            answer = response["answer"]
            assert answer["degraded"] is True
            assert answer["degraded_reasons"] == [
                "retrieval unavailable (InjectedFaultError)"
            ]
            assert answer["items"] == []
            health = server.handle("GET", "/health")["resilience"]
            assert health["fallbacks"] == {"retrieval_unavailable": 1}
        finally:
            server.close()

    def test_breaker_opens_after_repeated_index_failures(self, set_default):
        set_default(ResilienceManager, breaker_threshold=3, breaker_reset_ms=60_000.0)
        server = make_server(
            fault_seed=3,
            faults={"index.search": {"error_rate": 1.0}},
        )
        try:
            for i in range(5):
                response = server.handle("POST", "/query", {"text": f"query {i}"})
                assert response["ok"], response
                assert response["answer"]["degraded"] is True
            health = server.handle("GET", "/health")["resilience"]
            breaker = health["breakers"]["index.search"]
            assert breaker["state"] == "open"
            assert breaker["times_opened"] == 1
            # after opening, queries 4-5 short-circuited instead of probing
            assert health["sites"]["index.search"]["short_circuited"] == 2
            assert health["sites"]["index.search"]["failures"] == 3
        finally:
            server.close()


class TestDegradedMetrics:
    def test_coordinator_counts_degraded_rounds(self):
        system = MQASystem.from_config(
            resilient_config(fault_seed=3, faults={"llm": {"error_rate": 1.0}})
        )
        system.ask("foggy peaks")
        metrics = system.coordinator.metrics
        assert metrics.counter_value("coordinator.degraded") == 1
        assert metrics.counter_value("coordinator.queries") == 1

    def test_degradation_flags_survive_transcript_export(self):
        system = MQASystem.from_config(
            resilient_config(fault_seed=3, faults={"llm": {"error_rate": 1.0}})
        )
        system.ask("foggy peaks")
        exported = system.session.to_dict()["rounds"][0]["answer"]
        assert exported["degraded"] is True
        assert exported["degraded_reasons"] == ["llm fallback (InjectedFaultError)"]


class TestNonMQAErrorsStillPropagate:
    def test_unexpected_llm_error_type_is_not_swallowed(self):
        """Degradation covers MQAError; genuine bugs must surface."""
        system = MQASystem.from_config(resilient_config())
        coordinator = system.coordinator

        def boom(*args, **kwargs):
            raise RuntimeError("bug, not an operational failure")

        coordinator.generation.generate = boom
        with pytest.raises(RuntimeError):
            system.ask("foggy peaks")


class TestDisabledBitIdentity:
    def dialogue(self, system) -> dict:
        system.ask("foggy mountain peaks")
        system.select(0)
        system.refine("more at dusk")
        return system.session.to_dict()

    def test_resilience_knobs_are_inert_when_disabled(self):
        """resilience=False must be bit-identical to the pre-resilience path,
        whatever the other knobs say."""
        baseline = MQASystem.from_config(resilient_config(resilience=False))
        knobbed = MQASystem.from_config(
            resilient_config(resilience=False, retry_attempts=3, fault_seed=99)
        )
        assert self.dialogue(baseline) == self.dialogue(knobbed)
        assert baseline.coordinator.resilience.snapshot()["totals"]["calls"] == 0

    def test_enabled_without_faults_answers_identically(self):
        """Turning the layer on (no faults, no deadline) changes no answer."""
        baseline = MQASystem.from_config(resilient_config(resilience=False))
        enabled = MQASystem.from_config(resilient_config(retry_attempts=2))
        assert self.dialogue(baseline) == self.dialogue(enabled)
        snap = enabled.coordinator.resilience.snapshot()
        assert snap["totals"]["failures"] == 0
        assert snap["totals"]["calls"] > 0  # the guards did run
