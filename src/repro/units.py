"""Byte and time units used throughout the library.

The paper reports sizes in binary units (GiB for relations, MiB for
windows) and interconnect bandwidths in decimal GB/s, matching vendor
datasheets.  We keep both conventions and name them explicitly so call
sites never multiply magic numbers.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: Size of one GPU cacheline in bytes.  Fast interconnects transfer remote
#: memory at this granularity (NVIDIA GPUs use 128-byte L2 lines; the L2
#: fetches 32-byte sectors, but the paper's transfer analysis works at
#: cacheline granularity).
CACHELINE_BYTES = 128

#: Size of one key/value attribute in bytes.  The paper uses single 8-byte
#: integer attributes "to maximize the tree height of indexes" (Section 3.2).
KEY_BYTES = 8

MICROSECOND = 1e-6
NANOSECOND = 1e-9


def format_bytes(num_bytes: float) -> str:
    """Render a byte count using binary units, e.g. ``format_bytes(2**35)
    == '32.0 GiB'``.

    Negative values are rejected because no size in this library can be
    negative; raising early catches sign bugs in cost arithmetic.
    """
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    for unit, name in ((TIB, "TiB"), (GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if num_bytes >= unit:
            return f"{num_bytes / unit:.1f} {name}"
    return f"{num_bytes:.0f} B"


def format_throughput(queries_per_second: float) -> str:
    """Render a query throughput the way the paper's figures do (Q/s)."""
    if queries_per_second < 0:
        raise ValueError(
            f"throughput must be non-negative, got {queries_per_second}"
        )
    return f"{queries_per_second:.2f} Q/s"

