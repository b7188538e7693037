"""Units and formatting helpers."""

import pytest

from repro.units import (
    CACHELINE_BYTES,
    GIB,
    KIB,
    MIB,
    TIB,
    format_bytes,
    format_throughput,
)


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2 * KIB) == "2.0 KiB"

    def test_mib(self):
        assert format_bytes(int(1.5 * MIB)) == "1.5 MiB"

    def test_gib(self):
        assert format_bytes(32 * GIB) == "32.0 GiB"

    def test_tib(self):
        assert format_bytes(2 * TIB) == "2.0 TiB"

    def test_zero(self):
        assert format_bytes(0) == "0 B"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatThroughput:
    def test_basic(self):
        assert format_throughput(1.9) == "1.90 Q/s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_throughput(-1.0)


def test_cacheline_is_gpu_sized():
    # Fast interconnects fetch remote memory at GPU cacheline granularity.
    assert CACHELINE_BYTES == 128
