"""Retry policies: exponential backoff with deterministic jitter.

The sweep runner retries failing points a bounded number of times,
sleeping ``base_delay * 2**attempt`` (capped at ``max_delay``) plus a
seeded jitter between attempts.  Jitter is derived from the policy seed
and the call label, not from global randomness, so two runs of the same
sweep back off identically -- determinism is a repo-wide invariant
(figures must be bit-identical across serial/parallel/resumed runs, and
the backoff schedule should be reproducible in logs too).
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

from .. import obs
from ..errors import (
    CapacityError,
    ConfigurationError,
    SweepExecutionError,
)

#: Environment knobs picked up by :meth:`RetryPolicy.from_env`.
RETRIES_ENV = "REPRO_RETRIES"
POINT_TIMEOUT_ENV = "REPRO_POINT_TIMEOUT"
POOL_RESTARTS_ENV = "REPRO_MAX_POOL_RESTARTS"
BASE_DELAY_ENV = "REPRO_RETRY_BASE_DELAY"

#: Exceptions that retrying can never fix: configuration mistakes and
#: the paper's capacity skips (already converted to notes upstream).
NO_RETRY: Tuple[Type[BaseException], ...] = (
    CapacityError,
    ConfigurationError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Budget and pacing for retrying sweep points.

    Attributes:
        max_attempts: total tries per point (1 = no retry).
        base_delay: first backoff sleep, seconds.
        max_delay: backoff cap, seconds.
        jitter: fraction of the delay randomized (0 disables jitter).
        seed: jitter RNG seed (combined with the call label).
        point_timeout: seconds a pooled point may run before it is
            declared lost (covers both hangs and worker crashes, whose
            results simply never arrive), at most
            ``threading.TIMEOUT_MAX``, the longest wait a lock accepts.
            ``None`` disables timeouts -- only safe when faults cannot
            occur.
        max_pool_restarts: pool rebuilds tolerated before the sweep
            degrades to serial execution for the remaining points.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    point_timeout: Optional[float] = 300.0
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not (self.base_delay >= 0 and self.max_delay >= 0):  # NaN fails
            raise ConfigurationError(
                "backoff delays must be non-negative numbers, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )
        if self.point_timeout is not None and not (
            0 < self.point_timeout <= threading.TIMEOUT_MAX
        ):
            raise ConfigurationError(
                "point_timeout must be positive and at most "
                f"{threading.TIMEOUT_MAX:.0f} s, got {self.point_timeout}"
            )
        if self.max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy with defaults overridden by ``REPRO_*`` variables.

        A value that does not parse, or that the policy refuses, raises
        :class:`ConfigurationError` naming its variable.
        """
        kwargs: Dict[str, Any] = {}
        fields: Tuple[Tuple[str, str, Callable[[str], Any]], ...] = (
            (RETRIES_ENV, "max_attempts", int),
            (POINT_TIMEOUT_ENV, "point_timeout", float),
            (POOL_RESTARTS_ENV, "max_pool_restarts", int),
            (BASE_DELAY_ENV, "base_delay", float),
        )
        for name, field, cast in fields:
            text = os.environ.get(name)
            if not text:
                continue
            try:
                value = cast(text)
            except ValueError:
                kind = "an integer" if cast is int else "a number"
                raise ConfigurationError(
                    f"{name} must be {kind}, got {text!r}"
                ) from None
            if field == "point_timeout":
                value = point_timeout_setting(value, name)
            try:
                cls(**{field: value})
            except ConfigurationError as error:
                raise ConfigurationError(f"{name}: {error}") from None
            kwargs[field] = value
        return cls(**kwargs)

    def backoff(self, attempt: int, label: str = "") -> float:
        """Sleep before retry number ``attempt`` (1-based), seconds.

        Exponential in the attempt number, capped, with deterministic
        jitter: the same (seed, label, attempt) always yields the same
        delay, while different labels decorrelate so simultaneous
        retries don't stampede in lockstep.
        """
        if attempt < 1:
            return 0.0
        # Cap the exponent before exponentiating: 2 ** (attempt - 1) at
        # large attempt counts builds a multi-thousand-bit integer just
        # to be discarded by the min().  1023 is the largest finite
        # float exponent; any positive base_delay times 2.0**1023
        # clears max_delay (an inf product still min()s correctly), so
        # the capped delay is exactly the uncapped one.
        exponent = min(attempt - 1, 1023)
        delay = min(self.base_delay * (2.0**exponent), self.max_delay)
        if self.jitter and delay:
            # str seeds hash stably (sha512), unlike tuples under
            # PYTHONHASHSEED randomization -- jitter must reproduce
            # across processes.
            rng = random.Random(f"{self.seed}:{label}:{attempt}")
            delay *= 1 - self.jitter + self.jitter * rng.random()
        return delay


def point_timeout_setting(seconds: float, source: str) -> Optional[float]:
    """The :attr:`RetryPolicy.point_timeout` a flag or variable asks for.

    ``0`` disables the timeout (``None``).  Any other value must be a
    positive number of seconds no larger than ``threading.TIMEOUT_MAX``;
    a negative, NaN, infinite or larger one raises
    :class:`ConfigurationError` naming ``source``, before any pool
    starts.
    """
    if seconds == 0:
        return None
    if not 0 < seconds <= threading.TIMEOUT_MAX:  # NaN fails both tests
        raise ConfigurationError(
            f"{source} must be 0 (no timeout) or a number of seconds in "
            f"(0, {threading.TIMEOUT_MAX:.0f}], got {seconds}"
        )
    return seconds


# Run-scoped default policy: the runner/bench CLI installs the policy it
# parsed from flags here, and the sweep executor picks it up without
# every figure module threading it through.
_policy: Optional[RetryPolicy] = None


@contextmanager
def configured(policy: Optional[RetryPolicy]):
    """Scope a default :class:`RetryPolicy` to a with-block."""
    global _policy
    previous = _policy
    _policy = policy
    try:
        yield
    finally:
        _policy = previous


def active_policy() -> RetryPolicy:
    """The scoped policy if one is configured, else env-derived defaults."""
    return _policy if _policy is not None else RetryPolicy.from_env()


def with_retry(
    func: Callable[[], object],
    policy: RetryPolicy,
    label: str = "",
    no_retry: Tuple[Type[BaseException], ...] = NO_RETRY,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``func`` under ``policy``; raise after the budget is spent.

    Exceptions in ``no_retry`` (capacity/configuration) propagate
    immediately -- retrying cannot fix them.  Anything else is retried
    with backoff; once ``max_attempts`` tries have failed, the last
    error is wrapped in :class:`~repro.errors.SweepExecutionError` so
    callers can distinguish "gave up" from a first-try bug.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            if obs.enabled():
                obs.add("resilience.retries")
            with obs.span(
                "retry.backoff", attempt=attempt - 1, label=label or "call"
            ):
                sleep(policy.backoff(attempt - 1, label))
        try:
            return func()
        except no_retry:
            raise
        except Exception as error:  # noqa: BLE001 -- retry layer by design
            last_error = error
    raise SweepExecutionError(
        f"{label or 'call'} failed after {policy.max_attempts} attempts: "
        f"{type(last_error).__name__}: {last_error}"
    ) from last_error
