"""Simulated time for the serving layer.

The serving subsystem schedules work on a *logical* clock: every
timestamp in the system -- request arrivals, window completions, queue
waits, latencies -- is a simulated quantity derived from the cost model,
never from the host's wall clock.  That keeps the whole serving
simulation DET002-clean (no ``time.*`` reads) and makes every run
bit-identical for a given seed, which is what lets ``repro serve-bench``
gate CI on its own JSON output.
"""

from __future__ import annotations

from ..errors import SimulationError


class SimulatedClock:
    """A monotonically advancing logical clock (seconds, float64).

    The event loop advances it to each event's timestamp; components
    read it through :meth:`now`.  Moving backwards is a scheduling bug
    and raises immediately rather than silently reordering events.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (idempotent at equal
        times); raises on attempts to move backwards."""
        if timestamp < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {timestamp} < {self._now}"
            )
        self._now = float(timestamp)
        return self._now
