"""Tests for the adaptive (Jacobson/Karn) timeout policy."""

from types import SimpleNamespace

import pytest

from repro.extensions.adaptive import AdaptiveDcrdStrategy, AdaptiveTimeoutPolicy
from repro.routing.base import ProtocolParams
from repro.util.errors import ConfigurationError
from tests.conftest import build_ctx, make_topology


@pytest.fixture
def ctx():
    return build_ctx(make_topology([(0, 1, 0.010)]))


class TestPolicyMath:
    def test_bootstrap_is_conservative(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx, initial_rto=0.5)
        # floor (2*0.010 + 0.001 = 0.021) is below the bootstrap value.
        assert policy.timeout(0, 1) == pytest.approx(0.5)

    def test_first_sample_initialises_srtt_and_var(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx)
        policy.on_sample(0, 1, 0.100)
        # srtt = 0.1, rttvar = 0.05 -> rto = 0.1 + 4*0.05 (+slack)
        assert policy.timeout(0, 1) == pytest.approx(0.301, abs=1e-6)

    def test_stable_rtt_converges_toward_floor(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx)
        for _ in range(300):
            policy.on_sample(0, 1, 0.020)
        # rttvar decays to ~0; rto clamps at the static floor (0.021).
        assert policy.timeout(0, 1) == pytest.approx(0.021, abs=0.005)

    def test_growing_rtt_raises_timeout(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx)
        policy.on_sample(0, 1, 0.020)
        settled = policy.timeout(0, 1)
        for rtt in (0.1, 0.2, 0.4, 0.8):
            policy.on_sample(0, 1, rtt)
        assert policy.timeout(0, 1) > settled

    def test_ceiling_bounds_timeout(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx, ceiling=1.0)
        policy.on_sample(0, 1, 10.0)
        assert policy.timeout(0, 1) == 1.0

    def test_per_direction_state(self, ctx):
        policy = AdaptiveTimeoutPolicy(ctx)
        policy.on_sample(0, 1, 0.5)
        assert policy.timeout(1, 0) == pytest.approx(
            min(max(0.021, policy.initial_rto), policy.ceiling)
        )

    def test_floor_follows_a_monitor_refresh(self):
        # The floor is memoised per direction; a refresh that publishes a
        # new alpha (a version bump) must move it.
        monitor = SimpleNamespace(
            version=0, estimate=lambda src, dst: SimpleNamespace(alpha=0.010)
        )
        params = ProtocolParams()
        policy = AdaptiveTimeoutPolicy(SimpleNamespace(monitor=monitor, params=params))
        for _ in range(300):
            policy.on_sample(0, 1, 0.001)
        assert policy.timeout(0, 1) == params.ack_timeout(0.010)
        monitor.estimate = lambda src, dst: SimpleNamespace(alpha=0.040)
        monitor.version = 1
        assert policy.timeout(0, 1) == params.ack_timeout(0.040)

    def test_invalid_parameters_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            AdaptiveTimeoutPolicy(ctx, alpha=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveTimeoutPolicy(ctx, beta=1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveTimeoutPolicy(ctx, initial_rto=2.0, ceiling=1.0)


class TestStrategyIntegration:
    def test_registered_in_catalogue(self):
        from repro.experiments.runner import STRATEGIES

        assert "DCRD+adaptive" in STRATEGIES

    def test_uses_adaptive_policy(self, ctx):
        strategy = AdaptiveDcrdStrategy(ctx)
        assert strategy.arq.timeout_policy is strategy.rto_policy

    def test_samples_collected_during_run(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_environment

        config = ExperimentConfig(duration=5.0, num_topics=3, num_nodes=8)
        env = build_environment(config, "DCRD+adaptive", seed=1)
        env.execute()
        assert env.strategy.rto_policy.samples > 0

    def test_matches_plain_dcrd_without_hazards(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_single

        config = ExperimentConfig(duration=8.0, num_topics=3, loss_rate=0.0)
        plain = run_single(config, "DCRD", seed=4)
        adaptive = run_single(config, "DCRD+adaptive", seed=4)
        assert adaptive.delivery_ratio == plain.delivery_ratio == 1.0
        assert adaptive.data_transmissions == plain.data_transmissions
