"""Retry policy: deterministic backoff, budgets, error classification."""

import threading

import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    SweepExecutionError,
)
from repro.resilience import retry
from repro.resilience.retry import RetryPolicy, with_retry


class TestBackoff:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=2.5, jitter=0.0)
        assert policy.backoff(10) == pytest.approx(2.5)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        assert policy.backoff(2, "fig3") == policy.backoff(2, "fig3")

    def test_jitter_decorrelates_labels(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        assert policy.backoff(2, "fig3") != policy.backoff(2, "fig5")

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5)
        for attempt in range(1, 6):
            delay = policy.backoff(attempt, "x")
            pure = min(0.1 * 2 ** (attempt - 1), 10.0)
            assert pure * 0.5 <= delay <= pure

    def test_regression_backoff_overflows_at_large_attempt_counts(self):
        """Pins a real bug: ``2 ** (attempt - 1)`` at huge attempt
        counts built a multi-hundred-megabit integer before the
        ``min()`` discarded it, stalling (or overflowing ``float``) on
        retry loops driven by external counters.  The exponent is now
        capped before exponentiating; the capped result is exactly the
        uncapped one, because any positive base_delay times 2.0**1023
        clears max_delay.
        """
        policy = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter=0.0)
        assert policy.backoff(10**9) == policy.backoff(12) == 2.0
        # Even a subnormal-scale base delay saturates at the cap.
        tiny = RetryPolicy(base_delay=1e-300, max_delay=2.0, jitter=0.0)
        assert tiny.backoff(10**9) == 2.0
        # Jittered delays at huge attempts stay deterministic too.
        jittered = RetryPolicy(jitter=0.5, seed=7)
        assert jittered.backoff(10**9, "x") == jittered.backoff(10**9, "x")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(point_timeout=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_pool_restarts=-1)

    @pytest.mark.parametrize(
        "seconds",
        [-1.0, float("nan"), float("inf"), 1e300, threading.TIMEOUT_MAX * 2],
    )
    def test_point_timeout_must_be_a_lock_wait(self, seconds):
        """A pool waits on each point with a lock timeout: a NaN, infinite
        or over-long one would only fail there, once per point."""
        with pytest.raises(ConfigurationError, match="point_timeout"):
            RetryPolicy(point_timeout=seconds)

    def test_longest_lock_wait_is_accepted(self):
        policy = RetryPolicy(point_timeout=threading.TIMEOUT_MAX)
        assert policy.point_timeout == threading.TIMEOUT_MAX


class TestWithRetry:
    def test_transient_failures_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        result = with_retry(flaky, policy, label="p", sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_budget_exhaustion_wraps_cause(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

        def always():
            raise RuntimeError("boom")

        with pytest.raises(SweepExecutionError) as excinfo:
            with_retry(always, policy, label="p", sleep=lambda _s: None)
        assert "2 attempts" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_non_retryable_passthrough(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        calls = []

        def capacity():
            calls.append(1)
            raise CapacityError("too big")

        with pytest.raises(CapacityError):
            with_retry(capacity, policy, sleep=lambda _s: None)
        assert len(calls) == 1  # no pointless retries


class TestConfiguration:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(retry.RETRIES_ENV, "5")
        monkeypatch.setenv(retry.POINT_TIMEOUT_ENV, "12.5")
        monkeypatch.setenv(retry.POOL_RESTARTS_ENV, "4")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.point_timeout == 12.5
        assert policy.max_pool_restarts == 4

    def test_zero_timeout_disables(self, monkeypatch):
        monkeypatch.setenv(retry.POINT_TIMEOUT_ENV, "0")
        assert RetryPolicy.from_env().point_timeout is None

    @pytest.mark.parametrize("text", ["-3", "nan", "inf", "-inf", "1e300"])
    def test_bad_timeout_names_the_variable(self, monkeypatch, text):
        monkeypatch.setenv(retry.POINT_TIMEOUT_ENV, text)
        with pytest.raises(ConfigurationError, match=retry.POINT_TIMEOUT_ENV):
            RetryPolicy.from_env()

    @pytest.mark.parametrize(
        "name, text",
        [
            (retry.RETRIES_ENV, "x"),
            (retry.RETRIES_ENV, "2.5"),
            (retry.RETRIES_ENV, "0"),
            (retry.POINT_TIMEOUT_ENV, "abc"),
            (retry.POOL_RESTARTS_ENV, "1.5"),
            (retry.POOL_RESTARTS_ENV, "-1"),
            (retry.BASE_DELAY_ENV, "soon"),
            (retry.BASE_DELAY_ENV, "nan"),
            (retry.BASE_DELAY_ENV, "-0.5"),
        ],
    )
    def test_bad_value_names_the_variable(self, monkeypatch, name, text):
        monkeypatch.setenv(name, text)
        with pytest.raises(ConfigurationError, match=name):
            RetryPolicy.from_env()

    @pytest.mark.parametrize("field", ["base_delay", "max_delay"])
    def test_nan_delay_refused(self, field):
        with pytest.raises(ConfigurationError, match="backoff delays"):
            RetryPolicy(**{field: float("nan")})

    def test_configured_scope(self):
        policy = RetryPolicy(max_attempts=9)
        assert retry.active_policy().max_attempts != 9
        with retry.configured(policy):
            assert retry.active_policy() is policy
        assert retry.active_policy().max_attempts != 9
