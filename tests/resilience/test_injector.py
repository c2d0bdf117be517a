"""FaultInjector: determinism, matching, budgets, latency spikes."""

from __future__ import annotations

import pytest

from repro.core.resilience import FaultInjector, FaultSpec
from repro.errors import ConfigurationError, InjectedFaultError

from tests.resilience.conftest import FakeSleep


def fire_schedule(injector: FaultInjector, site: str, n: int) -> list:
    """The boolean error schedule over ``n`` fires."""
    schedule = []
    for _ in range(n):
        try:
            injector.fire(site)
            schedule.append(False)
        except InjectedFaultError:
            schedule.append(True)
    return schedule


class TestSpecValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(latency_rate=-0.1)

    def test_latency_and_budget_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(latency_ms=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(max_faults=-1)

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            FaultInjector().configure("llm.generate", error_probability=0.5)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"error_rate": True}, "error_rate must be in [0, 1], got True"),
            ({"max_faults": 2.5}, "max_faults must be an integer or None, got 2.5"),
            ({"latency_ms": float("nan")}, "latency_ms must be in [0, 3600000], got nan"),
            # An infinite latency used to reach ``time.sleep`` (OverflowError),
            # and so did a finite one too large for it.
            ({"latency_ms": float("inf"), "latency_rate": 1},
             "latency_ms must be in [0, 3600000], got inf"),
            ({"latency_ms": 1e300, "latency_rate": 1},
             "latency_ms must be in [0, 3600000], got 1e+300"),
            ({"error_rate": "0.5"}, "error_rate must be in [0, 1], got '0.5'"),
        ],
        ids=[
            "bool-rate", "fractional-budget", "nan-latency", "inf-latency",
            "huge-latency", "string-rate",
        ],
    )
    def test_a_mistyped_spec_is_refused_at_construction(self, spec, message):
        with pytest.raises(ConfigurationError) as caught:
            FaultInjector(specs={"encoder": spec})
        assert str(caught.value) == f"fault site 'encoder': {message}"

    @pytest.mark.parametrize("spec", [5, "error_rate=1", [("error_rate", 1.0)], None])
    def test_a_spec_that_is_not_a_mapping_is_refused(self, spec):
        with pytest.raises(ConfigurationError, match="fault site 'encoder': a spec maps"):
            FaultInjector(specs={"encoder": spec})

    def test_an_integral_budget_is_kept(self):
        injector = FaultInjector(specs={"llm": {"error_rate": 1, "max_faults": 2}})
        assert fire_schedule(injector, "llm.generate", 4) == [True, True, False, False]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=11, specs={"llm.generate": {"error_rate": 0.4}})
        b = FaultInjector(seed=11, specs={"llm.generate": {"error_rate": 0.4}})
        assert fire_schedule(a, "llm.generate", 50) == fire_schedule(
            b, "llm.generate", 50
        )

    def test_different_seed_different_schedule(self):
        a = FaultInjector(seed=11, specs={"llm.generate": {"error_rate": 0.4}})
        b = FaultInjector(seed=12, specs={"llm.generate": {"error_rate": 0.4}})
        assert fire_schedule(a, "llm.generate", 50) != fire_schedule(
            b, "llm.generate", 50
        )

    def test_sites_draw_independent_streams(self):
        """Adding a second site never reshuffles the first one's schedule."""
        solo = FaultInjector(seed=5, specs={"encoder": {"error_rate": 0.5}})
        both = FaultInjector(
            seed=5,
            specs={"encoder": {"error_rate": 0.5}, "llm.generate": {"error_rate": 0.5}},
        )
        for _ in range(10):
            fire_schedule(both, "llm.generate", 3)  # interleave other-site draws
        assert fire_schedule(solo, "encoder.text", 30) == fire_schedule(
            both, "encoder.text", 30
        )

    def test_latency_config_never_shifts_error_schedule(self):
        """fire() always consumes two draws, so rates are independent."""
        plain = FaultInjector(seed=9, specs={"llm": {"error_rate": 0.3}})
        spiky = FaultInjector(
            seed=9,
            specs={"llm": {"error_rate": 0.3, "latency_rate": 0.8, "latency_ms": 0.0}},
        )
        assert fire_schedule(plain, "llm.generate", 40) == fire_schedule(
            spiky, "llm.generate", 40
        )


class TestMatching:
    def test_prefix_matches_dotted_sites(self):
        injector = FaultInjector(seed=1, specs={"encoder": {"error_rate": 1.0}})
        with pytest.raises(InjectedFaultError):
            injector.fire("encoder.text")
        with pytest.raises(InjectedFaultError):
            injector.fire("encoder.image")

    def test_exact_match_beats_prefix(self):
        injector = FaultInjector(
            seed=1,
            specs={"encoder": {"error_rate": 1.0}, "encoder.text": {"error_rate": 0.0}},
        )
        injector.fire("encoder.text")  # exact spec: never fails
        with pytest.raises(InjectedFaultError):
            injector.fire("encoder.image")  # prefix spec: always fails

    def test_unconfigured_site_is_free(self):
        injector = FaultInjector(seed=1, specs={"llm": {"error_rate": 1.0}})
        for _ in range(5):
            injector.fire("index.search")
        assert injector.snapshot()["errors"] == {}


class TestBudgetAndCounters:
    def test_max_faults_caps_raised_errors(self):
        injector = FaultInjector(
            seed=2, specs={"llm": {"error_rate": 1.0, "max_faults": 3}}
        )
        schedule = fire_schedule(injector, "llm.generate", 10)
        assert schedule == [True] * 3 + [False] * 7
        assert injector.snapshot()["errors"] == {"llm.generate": 3}

    def test_counters_keyed_by_concrete_site(self):
        injector = FaultInjector(seed=2, specs={"encoder": {"error_rate": 1.0}})
        fire_schedule(injector, "encoder.text", 2)
        fire_schedule(injector, "encoder.image", 1)
        assert injector.snapshot()["errors"] == {
            "encoder.text": 2,
            "encoder.image": 1,
        }

    def test_injected_error_names_the_site(self):
        injector = FaultInjector(seed=2, specs={"llm": {"error_rate": 1.0}})
        with pytest.raises(InjectedFaultError) as info:
            injector.fire("llm.generate")
        assert info.value.site == "llm.generate"
        assert "llm.generate" in str(info.value)


class TestLatency:
    def test_latency_spikes_sleep_and_count(self):
        sleep = FakeSleep()
        injector = FaultInjector(
            seed=4,
            specs={"index": {"latency_rate": 1.0, "latency_ms": 50.0}},
            sleep=sleep,
        )
        for _ in range(3):
            injector.fire("index.search")
        assert sleep.calls == [0.05, 0.05, 0.05]
        assert injector.snapshot()["delays"] == {"index.search": 3}

    def test_zero_latency_spike_never_sleeps(self):
        sleep = FakeSleep()
        injector = FaultInjector(
            seed=4, specs={"index": {"latency_rate": 1.0}}, sleep=sleep
        )
        injector.fire("index.search")
        assert sleep.calls == []
