"""Performance counters."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.hardware.counters import PerfCounters


def make(**kwargs):
    counters = PerfCounters()
    for key, value in kwargs.items():
        setattr(counters, key, value)
    return counters


class TestAccumulation:
    def test_add_in_place(self):
        a = make(lookups=10, remote_accesses=5)
        b = make(lookups=2, remote_accesses=1)
        a.add(b)
        assert a.lookups == 12
        assert a.remote_accesses == 6

    def test_add_returns_self(self):
        a = PerfCounters()
        assert a.add(PerfCounters()) is a

    def test_operator_add_is_pure(self):
        a = make(lookups=1)
        b = make(lookups=2)
        c = a + b
        assert c.lookups == 3
        assert a.lookups == 1 and b.lookups == 2

    def test_scaled(self):
        scaled = make(lookups=4, remote_bytes=100).scaled(2.5)
        assert scaled.lookups == 10
        assert scaled.remote_bytes == 250

    def test_scaled_rejects_negative(self):
        with pytest.raises(SimulationError):
            PerfCounters().scaled(-1)

    def test_as_dict_covers_all_fields(self):
        counters = make(lookups=1, tlb_misses=2)
        data = counters.as_dict()
        assert data["lookups"] == 1
        assert data["tlb_misses"] == 2
        assert "translation_requests" in data

    def test_arithmetic_covers_every_field(self):
        """A distinct value per dataclass field: add, ``+``, scaled and
        as_dict must carry each one, in declaration order, so the fixed
        field tuple they walk cannot drift from the dataclass."""
        names = [field.name for field in dataclasses.fields(PerfCounters)]
        a = PerfCounters(*[float(i + 1) for i in range(len(names))])
        b = PerfCounters(*[1000.0 * (i + 1) for i in range(len(names))])
        assert list(a.as_dict()) == names
        assert a.as_dict() == {n: float(i + 1) for i, n in enumerate(names)}
        expected = {n: 1001.0 * (i + 1) for i, n in enumerate(names)}
        assert (a + b).as_dict() == expected
        assert a.as_dict() == {n: float(i + 1) for i, n in enumerate(names)}
        total = PerfCounters(*[float(i + 1) for i in range(len(names))])
        assert total.add(b).as_dict() == expected
        assert a.scaled(0.5).as_dict() == {
            n: 0.5 * (i + 1) for i, n in enumerate(names)
        }


class TestDerivedMetrics:
    def test_requests_per_lookup(self):
        counters = make(lookups=10, translation_requests=105)
        assert counters.translation_requests_per_lookup == pytest.approx(10.5)

    def test_requests_per_lookup_empty(self):
        assert PerfCounters().translation_requests_per_lookup == 0.0

    def test_l2_hit_rate(self):
        counters = make(memory_accesses=10, l1_hits=2, l2_hits=4)
        assert counters.l2_hit_rate == pytest.approx(0.5)

    def test_l1_hit_rate(self):
        counters = make(memory_accesses=10, l1_hits=2)
        assert counters.l1_hit_rate == pytest.approx(0.2)

    def test_hit_rates_empty(self):
        assert PerfCounters().l2_hit_rate == 0.0
        assert PerfCounters().l1_hit_rate == 0.0


class TestValidation:
    def test_consistent_passes(self):
        make(
            memory_accesses=10, l1_hits=3, l2_hits=3, remote_accesses=4,
            tlb_misses=2,
        ).validate()

    def test_negative_counter_fails(self):
        with pytest.raises(SimulationError):
            make(lookups=-1).validate()

    def test_hits_exceeding_accesses_fails(self):
        with pytest.raises(SimulationError):
            make(memory_accesses=5, l1_hits=4, l2_hits=4).validate()

    def test_misses_exceeding_remote_fails(self):
        with pytest.raises(SimulationError):
            make(
                memory_accesses=10, remote_accesses=2, tlb_misses=5
            ).validate()
