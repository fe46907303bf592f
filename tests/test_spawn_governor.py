"""Scaling guardrails: the SpawnGovernor between scalers and actuator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import make_policy_config
from repro.core.scaling import SPAWN_RETRY_BACKOFF_MS, SpawnGovernor
from repro.obs.registry import MetricsRegistry


class FakePool:
    """Duck-typed pool: places up to ``capacity`` containers, ever."""

    def __init__(self, capacity=10**9):
        self.capacity = capacity
        self.spawned = 0
        self.dispatches = 0

    def spawn(self, n):
        got = min(n, self.capacity - self.spawned)
        self.spawned += got
        return got

    def dispatch(self):
        self.dispatches += 1


class TestSurgeClamp:
    def test_spawn_within_budget_passes_through(self):
        gov = SpawnGovernor(max_surge=8)
        pool = FakePool()
        assert gov.spawn(pool, 5, now_ms=0.0) == 5
        assert gov.surge_clamped == 0

    def test_spawn_beyond_budget_is_clamped(self):
        gov = SpawnGovernor(max_surge=8)
        pool = FakePool()
        assert gov.spawn(pool, 20, now_ms=0.0) == 8
        assert gov.surge_clamped == 12

    def test_budget_is_shared_across_pools_within_a_tick(self):
        gov = SpawnGovernor(max_surge=8)
        a, b = FakePool(), FakePool()
        assert gov.spawn(a, 6, now_ms=0.0) == 6
        assert gov.spawn(b, 6, now_ms=0.0) == 2
        assert gov.surge_clamped == 4

    def test_begin_tick_resets_the_budget(self):
        gov = SpawnGovernor(max_surge=8)
        pool = FakePool()
        gov.spawn(pool, 8, now_ms=0.0)
        assert gov.spawn(pool, 4, now_ms=0.0) == 0
        gov.begin_tick(10_000.0)
        assert gov.spawn(pool, 4, now_ms=10_000.0) == 4

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=20),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_tick_spawn_total_never_exceeds_max_surge(self, requests, surge):
        """The clamp invariant: whatever the scalers ask for within one
        tick, placed containers never exceed the surge ceiling."""
        gov = SpawnGovernor(max_surge=surge)
        pool = FakePool()
        spawned = sum(gov.spawn(pool, n, now_ms=0.0) for n in requests)
        assert spawned <= surge
        assert pool.spawned == spawned
        # Conservation: every requested container was placed or counted.
        assert spawned + gov.surge_clamped == sum(requests)


class TestSpawnRetries:
    def test_shortfall_becomes_debt_and_is_retried(self):
        gov = SpawnGovernor(spawn_retry_attempts=2, seed=1)
        pool = FakePool(capacity=3)
        assert gov.spawn(pool, 5, now_ms=0.0) == 3
        assert gov.pending_debt == 2
        pool.capacity = 10  # capacity freed before the retry fires
        # Jittered exponential backoff: due within [0.5, 1.5) * base.
        assert gov.begin_tick(1.5 * SPAWN_RETRY_BACKOFF_MS) == 2
        assert gov.pending_debt == 0
        assert gov.spawn_retries == 2
        assert pool.spawned == 5

    def test_debt_not_due_yet_stays_queued(self):
        gov = SpawnGovernor(spawn_retry_attempts=2, seed=1)
        pool = FakePool(capacity=0)
        gov.spawn(pool, 4, now_ms=0.0)
        assert gov.begin_tick(0.5 * SPAWN_RETRY_BACKOFF_MS - 1.0) == 0
        assert gov.pending_debt == 4

    def test_exhausted_retries_are_counted_not_silent(self):
        gov = SpawnGovernor(spawn_retry_attempts=1, seed=1)
        pool = FakePool(capacity=0)
        gov.spawn(pool, 3, now_ms=0.0)  # attempt 0 fails -> debt
        # Every retry is due by 1.5x the base: it fails -> exhausted.
        gov.begin_tick(1.5 * SPAWN_RETRY_BACKOFF_MS)
        assert gov.pending_debt == 0
        assert gov.spawn_retries_exhausted == 3

    def test_without_retries_shortfall_is_shed_immediately(self):
        gov = SpawnGovernor(max_surge=50)
        pool = FakePool(capacity=1)
        assert gov.spawn(pool, 4, now_ms=0.0) == 1
        assert gov.pending_debt == 0
        assert gov.spawn_retries_exhausted == 3


class TestScaleDownCooldown:
    def test_reap_blocked_after_recent_spawn(self):
        gov = SpawnGovernor(scale_down_cooldown_ms=30_000.0)
        pool = FakePool()
        gov.spawn(pool, 2, now_ms=100_000.0)
        assert not gov.allow_reap(110_000.0)
        assert gov.allow_reap(140_000.0)

    def test_no_cooldown_always_allows_reap(self):
        gov = SpawnGovernor(max_surge=4)
        pool = FakePool()
        gov.spawn(pool, 2, now_ms=0.0)
        assert gov.allow_reap(0.0)

    def test_deferred_reaps_are_counted(self):
        reg = MetricsRegistry()
        gov = SpawnGovernor(scale_down_cooldown_ms=30_000.0, registry=reg)
        gov.spawn(FakePool(), 1, now_ms=0.0)
        gov.allow_reap(1_000.0)
        assert reg.value("scaling_reaps_deferred_total") == 1


class TestFromConfig:
    def test_defaults_yield_no_governor(self):
        config = make_policy_config("fifer")
        assert SpawnGovernor.from_config(config) is None

    @pytest.mark.parametrize("overrides", [
        dict(max_surge=8),
        dict(scale_down_cooldown_ms=10_000.0),
        dict(spawn_retry_attempts=2),
    ])
    def test_any_enabled_knob_yields_a_governor(self, overrides):
        config = make_policy_config("fifer", **overrides)
        gov = SpawnGovernor.from_config(config, seed=3)
        assert gov is not None

    def test_governor_at_defaults_draws_no_randomness(self):
        gov = SpawnGovernor(max_surge=8)
        gov.spawn(FakePool(), 4, now_ms=0.0)
        assert gov._rng is None  # lazy: no retry scheduled, no RNG

    @pytest.mark.parametrize("kwargs", [
        dict(max_surge=-1),
        dict(scale_down_cooldown_ms=-1.0),
        dict(spawn_retry_attempts=-1),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpawnGovernor(**kwargs)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(max_surge=-1),
        dict(scale_down_cooldown_ms=-5.0),
        dict(spawn_retry_attempts=-2),
        dict(mape_threshold=0.0),
        dict(mape_threshold=-0.5),
        dict(fallback_hysteresis=0),
    ])
    def test_guard_knobs_validated_in_rmconfig(self, overrides):
        with pytest.raises(ValueError):
            make_policy_config("fifer", **overrides)

    def test_mape_threshold_none_means_unguarded(self):
        config = make_policy_config("fifer")
        assert config.mape_threshold is None
