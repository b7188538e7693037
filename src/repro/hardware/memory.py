"""Simulated host and device address spaces.

Base relations and (in the paper's configuration) all index structures live
in CPU memory and are accessed by the GPU across the interconnect
(Section 3.2: "All index structures and base relations are stored in CPU
memory, and are directly accessed over the interconnect").  Hash tables and
join results live in GPU memory.

The simulator needs real, distinct addresses -- the TLB and caches operate
on pages and lines of those addresses -- but never real backing storage.
:class:`SystemMemory` is therefore a bump allocator over two disjoint
address ranges with capacity accounting, so experiments hit the same
capacity walls the paper reports (Section 3.2: B+tree and Harmonia reduce
the maximum size of R "due to memory capacity constraints").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import CapacityError, ConfigurationError
from ..units import format_bytes
from .spec import SystemSpec


class MemorySpace(enum.Enum):
    """Which physical memory an allocation lives in."""

    HOST = "host"
    DEVICE = "device"


#: Base virtual addresses of the two spaces.  Far apart so that a stray
#: address arithmetic bug lands in unmapped territory instead of silently
#: aliasing the other space.
HOST_BASE = 0x0100_0000_0000
DEVICE_BASE = 0x7000_0000_0000


@dataclass(frozen=True)
class Allocation:
    """A contiguous simulated allocation.

    Attributes:
        base: first byte address.
        size: length in bytes.
        space: host or device memory.
        label: human-readable purpose, for capacity error messages.
    """

    base: int
    size: int
    space: MemorySpace
    label: str

    @property
    def end(self) -> int:
        """One past the last byte address."""
        return self.base + self.size

    def address_of(self, offset: int) -> int:
        """Address of a byte offset, bounds-checked."""
        if not 0 <= offset < self.size:
            raise ConfigurationError(
                f"offset {offset} outside allocation '{self.label}' "
                f"of {format_bytes(self.size)}"
            )
        return self.base + offset

    def contains(self, address: int) -> bool:
        """Whether a byte address falls inside this allocation."""
        return self.base <= address < self.end


@dataclass
class SystemMemory:
    """Bump allocator over the host and device address spaces of a machine.

    Alignment: host allocations are aligned to the machine's huge-page size
    (matching the paper's 1 GiB huge-page setup, so an allocation's pages
    are exclusively its own); device allocations to 256 bytes.
    """

    spec: SystemSpec
    _next: Dict[MemorySpace, int] = field(init=False)
    _used: Dict[MemorySpace, int] = field(init=False)
    allocations: List[Allocation] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._next = {MemorySpace.HOST: HOST_BASE, MemorySpace.DEVICE: DEVICE_BASE}
        self._used = {MemorySpace.HOST: 0, MemorySpace.DEVICE: 0}

    def _capacity(self, space: MemorySpace) -> int:
        if space is MemorySpace.HOST:
            return self.spec.cpu.memory_capacity_bytes
        return self.spec.gpu.memory_capacity_bytes

    def _alignment(self, space: MemorySpace) -> int:
        if space is MemorySpace.HOST:
            return self.spec.huge_page_bytes
        return 256

    def check_capacity(self, size: int, space: MemorySpace, label: str) -> int:
        """Aligned size of a ``size``-byte request; raises when it won't fit.

        Reserves nothing: estimates check a query's transient buffers this
        way.  Capacity accounting uses the *aligned* size: with 1 GiB huge
        pages a 1-byte host allocation still pins a whole page, exactly as
        on the paper's machine.
        """
        if size <= 0:
            raise ConfigurationError(
                f"allocation size must be positive, got {size} for '{label}'"
            )
        alignment = self._alignment(space)
        aligned_size = (size + alignment - 1) // alignment * alignment
        capacity = self._capacity(space)
        if self._used[space] + aligned_size > capacity:
            raise CapacityError(
                f"{space.value} memory exhausted allocating '{label}': "
                f"need {format_bytes(aligned_size)}, "
                f"used {format_bytes(self._used[space])} of "
                f"{format_bytes(capacity)}"
            )
        return aligned_size

    def allocate(self, size: int, space: MemorySpace, label: str) -> Allocation:
        """Reserve ``size`` bytes; raises :class:`CapacityError` when full."""
        aligned_size = self.check_capacity(size, space, label)
        base = self._next[space]
        allocation = Allocation(base=base, size=size, space=space, label=label)
        self._next[space] = base + aligned_size
        self._used[space] += aligned_size
        self.allocations.append(allocation)
        return allocation

    def used(self, space: MemorySpace) -> int:
        """Bytes currently reserved in a space (aligned sizes)."""
        return self._used[space]

    def available(self, space: MemorySpace) -> int:
        """Bytes still allocatable in a space."""
        return self._capacity(space) - self._used[space]

    def find(self, address: int) -> Allocation:
        """The live allocation containing ``address``.

        Raises :class:`ConfigurationError` for unmapped addresses; the
        simulator uses this to catch wild accesses from traversal bugs.
        """
        for allocation in self.allocations:
            if allocation.contains(address):
                return allocation
        raise ConfigurationError(f"address {address:#x} is not mapped")
