"""Global simulation configuration.

The paper runs every experiment over the full probe relation S (2^26
tuples).  Replaying 2^26 index traversals at event granularity in Python is
infeasible, so the simulator replays a seeded *sample* of lookups and scales
the resulting counters to |S| (see DESIGN.md Section 5).  This module holds
the sampling knobs plus the default workload constants from Section 3.2 of
the paper, so experiments and tests agree on one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .units import GIB, MIB


#: Default number of tuples in the probe relation S (paper Section 3.2:
#: "we keep S fixed at 2^26 tuples (512 MiB)").
DEFAULT_S_TUPLES = 2**26

#: Default scaling range of the build relation R, in tuples (paper: "R
#: ranges between 2^26 and 2^33.9 tuples (0.5-120 GiB)").
DEFAULT_R_MIN_TUPLES = 2**26
DEFAULT_R_MAX_TUPLES = int(2**33.9)

#: Default B+tree node size (paper: "The B+tree is configured with 4 KiB
#: nodes").
DEFAULT_BTREE_NODE_BYTES = 4096

#: Default Harmonia node width in keys (paper: "Harmonia with 32 keys per
#: node").
DEFAULT_HARMONIA_NODE_KEYS = 32

#: Default hash-join configuration (paper: "we configure it with a 50% load
#: factor and a block size of 512 keys").
DEFAULT_HASH_LOAD_FACTOR = 0.5
DEFAULT_HASH_BLOCK_KEYS = 512

#: Default window size for windowed partitioning (paper Sections 5.2.2 and
#: 5.2.3 use 32 MiB windows).
DEFAULT_WINDOW_BYTES = 32 * MIB

#: Default radix-partition fan-out (paper Section 4.3.1: "We set it to 2048
#: partitions, ignoring the 4 least significant bits of the key").
DEFAULT_NUM_PARTITIONS = 2048
DEFAULT_IGNORED_LSB = 4

#: Default huge-page size (paper: "The machine is set up to use 1 GiB huge
#: pages").
DEFAULT_HUGE_PAGE_BYTES = 1 * GIB


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs controlling simulation fidelity vs. runtime.

    Attributes:
        probe_sample: number of probe lookups replayed at event granularity.
            Counters are scaled by ``s_tuples / probe_sample``.  Must be a
            positive multiple of 32 (one warp) so SIMT accounting stays
            aligned.
        interleave_width: number of concurrently resident GPU threads whose
            memory accesses interleave in the TLB/cache simulators.  The
            V100 holds up to 163,840 resident threads -- far more than its
            TLB has entries -- so by default the whole sample executes as a
            single wave (width >= any sample), which reproduces the
            inter-thread eviction (thrashing) of Section 4.1.
        seed: base RNG seed; every generator derives its own stream from it
            so runs are reproducible.
    """

    probe_sample: int = 2**14
    interleave_width: int = 2**20
    seed: int = 42

    def __post_init__(self) -> None:
        if self.probe_sample <= 0 or self.probe_sample % 32 != 0:
            raise ConfigurationError(
                "probe_sample must be a positive multiple of 32, got "
                f"{self.probe_sample}"
            )
        if self.interleave_width <= 0:
            raise ConfigurationError(
                f"interleave_width must be positive, got {self.interleave_width}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    def with_sample(self, probe_sample: int) -> "SimulationConfig":
        """Return a copy with a different event-replay sample size."""
        return replace(self, probe_sample=probe_sample)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy with a different base seed."""
        return replace(self, seed=seed)


#: Library-wide default configuration.  Experiments copy and tweak it; they
#: never mutate it in place (the dataclass is frozen to enforce that).
DEFAULT_CONFIG = SimulationConfig()
