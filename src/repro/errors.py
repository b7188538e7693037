"""Exception hierarchy for the library.

Every error raised by ``repro`` derives from :class:`ReproError`, so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class CapacityError(ReproError):
    """A simulated memory space ran out of capacity.

    The paper notes that the B+tree and Harmonia reduce the maximum size of
    R "due to memory capacity constraints" (Section 3.2); this error is how
    the simulated allocator reports that situation.
    """


class SimulationError(ReproError):
    """The simulator was driven into an inconsistent state."""


class InjectedFault(ReproError):
    """A deterministic fault raised by :mod:`repro.resilience.faults`.

    Only ever raised when a fault plan is installed (via ``REPRO_FAULTS``
    or programmatically); production runs never see it.  It stands in
    for any point or replica failure: tests drive the loud sweep failure
    and the serve executor's retry and failover through this one class.
    """


class WorkloadError(ReproError):
    """A workload/data-generation request was invalid."""
