"""Machine model: trace replay, coalescing, scaling."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.gpu.executor import LookupTrace, MachineModel
from repro.hardware.spec import V100_NVLINK2


@pytest.fixture
def machine():
    return MachineModel(V100_NVLINK2, SimulationConfig(probe_sample=2**10))


def trace_from(matrix):
    matrix = np.asarray(matrix, dtype=np.int64)
    steps = (matrix >= 0).sum(axis=0).astype(np.int64)
    return LookupTrace(step_addresses=matrix, steps_per_lookup=steps)


class TestLookupTrace:
    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            LookupTrace(
                step_addresses=np.zeros(4, dtype=np.int64),
                steps_per_lookup=np.zeros(4, dtype=np.int64),
            )

    def test_mismatched_steps(self):
        with pytest.raises(SimulationError):
            LookupTrace(
                step_addresses=np.zeros((2, 4), dtype=np.int64),
                steps_per_lookup=np.zeros(3, dtype=np.int64),
            )

    def test_counts(self):
        trace = trace_from([[0, 128, -1, 256]])
        assert trace.num_lookups == 4
        assert trace.num_steps == 1
        assert trace.total_accesses == 3

    def test_run_lengths_count_lanes(self):
        matrix = np.array([[0, 128, -1], [0, -1, -1]], dtype=np.int64)
        trace = LookupTrace(
            step_addresses=matrix,
            steps_per_lookup=np.array([2, 2, 2, 1, 0], dtype=np.int64),
            run_lengths=np.array([3, 1, 1]),
        )
        assert trace.step_addresses.shape[1] == 3
        assert trace.num_lookups == 5
        assert trace.total_accesses == 3 * 2 + 1

    def test_default_run_lengths_are_one_lane_each(self):
        trace = trace_from([[0, 128, -1, 256]])
        assert trace.run_lengths.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((2, 4), dtype=np.float64),
            np.zeros((2, 4), dtype=bool),
            np.zeros((2, 4), dtype=np.uint64),
        ],
        ids=["float", "bool", "unsigned"],
    )
    def test_rejects_non_signed_integer_matrix(self, matrix):
        with pytest.raises(SimulationError, match="signed integers"):
            LookupTrace(
                step_addresses=matrix,
                steps_per_lookup=np.zeros(4, dtype=np.int64),
            )

    @pytest.mark.parametrize(
        "run_lengths",
        [
            np.array([1, 0, 2]),
            np.array([1, -1, 2]),
            np.array([1.0, 1.0, 2.0]),
            np.array([True, True, True]),
            np.array([1, 2]),
            np.array([[1, 1, 2]]),
        ],
        ids=["zero", "negative", "float", "bool", "short", "2-d"],
    )
    def test_rejects_malformed_run_lengths(self, run_lengths):
        with pytest.raises(SimulationError, match="run_lengths"):
            LookupTrace(
                step_addresses=np.zeros((2, 3), dtype=np.int64),
                steps_per_lookup=np.zeros(4, dtype=np.int64),
                run_lengths=run_lengths,
            )

    def test_steps_per_lookup_counts_lanes_not_runs(self):
        with pytest.raises(SimulationError, match="lookup count"):
            LookupTrace(
                step_addresses=np.zeros((2, 3), dtype=np.int64),
                steps_per_lookup=np.zeros(3, dtype=np.int64),
                run_lengths=np.array([1, 2, 1]),
            )

    def test_shape_checked_before_default_run_lengths(self):
        with pytest.raises(SimulationError, match="shape"):
            LookupTrace(
                step_addresses=np.zeros(4, dtype=np.int64),
                steps_per_lookup=np.zeros(4, dtype=np.int64),
                run_lengths=np.ones(4, dtype=np.int64),
            )


class TestCoalescing:
    def test_same_line_within_warp_coalesces(self, machine):
        # 32 lanes all reading the same cacheline -> one transaction.
        matrix = np.zeros((1, 32), dtype=np.int64)
        lines, issued = machine.coalesced_lines(trace_from(matrix))
        assert issued == 32
        assert len(lines) == 1

    def test_distinct_lines_do_not_coalesce(self, machine):
        matrix = (np.arange(32, dtype=np.int64) * 128).reshape(1, 32)
        lines, issued = machine.coalesced_lines(trace_from(matrix))
        assert issued == 32
        assert len(lines) == 32

    def test_coalescing_is_per_warp(self, machine):
        # Two warps reading the same line still cost two transactions.
        matrix = np.zeros((1, 64), dtype=np.int64)
        lines, issued = machine.coalesced_lines(trace_from(matrix))
        assert issued == 64
        assert len(lines) == 2

    def test_inactive_lanes_dropped(self, machine):
        matrix = np.full((1, 32), -1, dtype=np.int64)
        matrix[0, 0] = 128
        lines, issued = machine.coalesced_lines(trace_from(matrix))
        assert issued == 1
        assert len(lines) == 1

    def test_sub_line_offsets_share_a_transaction(self, machine):
        # Addresses 0..31*8 fall in two 128-byte lines.
        matrix = (np.arange(32, dtype=np.int64) * 8).reshape(1, 32)
        lines, issued = machine.coalesced_lines(trace_from(matrix))
        assert len(lines) == 2

    def test_zero_step_trace_is_an_empty_stream(self, machine):
        lines, issued = machine.coalesced_lines(trace_from(np.empty((0, 40))))
        assert issued == 0
        assert len(lines) == 0 and lines.dtype == np.int64

    def test_runs_coalesce_per_warp(self, machine):
        # One run of 64 lanes spans two warps: one transaction per warp.
        trace = LookupTrace(
            step_addresses=np.array([[128, 4096]], dtype=np.int64),
            steps_per_lookup=np.ones(96, dtype=np.int64),
            run_lengths=np.array([64, 32]),
        )
        lines, issued = machine.coalesced_lines(trace)
        assert issued == 96
        assert lines.tolist() == [1, 1, 32]


class TestSimulateLookups:
    def test_counters_conserve_accesses(self, machine):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 2**30, size=(4, 64)).astype(np.int64)
        counters = machine.simulate_lookups(trace_from(matrix))
        counters.validate()
        assert counters.memory_accesses == 4 * 64
        assert counters.lookups == 64

    def test_repeat_access_hits_l2(self, machine):
        matrix = np.array([[0], [0]], dtype=np.int64)
        counters = machine.simulate_lookups(trace_from(matrix))
        assert counters.l2_hits == 1
        assert counters.remote_accesses == 1

    def test_remote_bytes_are_cachelines(self, machine):
        matrix = (np.arange(64, dtype=np.int64) * 4096).reshape(1, 64)
        counters = machine.simulate_lookups(trace_from(matrix))
        assert counters.remote_bytes == counters.remote_accesses * 128

    def test_tlb_disabled(self, machine):
        matrix = (np.arange(64, dtype=np.int64) * 2**21).reshape(1, 64)
        counters = machine.simulate_lookups(
            trace_from(matrix), simulate_tlb=False
        )
        assert counters.tlb_misses == 0
        assert counters.remote_accesses > 0

    def test_tlb_cold_misses_recorded(self, machine):
        matrix = (np.arange(64, dtype=np.int64) * 2**21).reshape(1, 64)
        counters = machine.simulate_lookups(trace_from(matrix))
        assert counters.tlb_cold_misses == 64
        assert counters.tlb_misses == 64

    def test_shuffle_reproducible(self, machine):
        """Back-to-back replays of one trace agree: each starts cold."""
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 2**34, size=(8, 512)).astype(np.int64)
        first = machine.simulate_lookups(trace_from(matrix), shuffle=True)
        second = machine.simulate_lookups(trace_from(matrix), shuffle=True)
        assert first.as_dict() == second.as_dict()

    def test_replay_retains_no_state(self, machine):
        """No array outlives a replay in the hierarchy models: the session
        cache keeps one machine per sweep point alive in every pool
        worker, and machines that kept their last batch once peaked
        `rsize-sweep` at 177.5 MiB (DESIGN.md §10)."""
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2**34, size=(8, 512)).astype(np.int64)
        counters = machine.simulate_lookups(trace_from(matrix), shuffle=True)
        assert counters.l2_hits + counters.remote_accesses > 0
        assert counters.tlb_misses > 0
        for model in (machine.l2, machine.tlb):
            held = [
                name
                for name, value in vars(model).items()
                if isinstance(value, np.ndarray)
            ]
            assert held == []

    def test_empty_trace(self, machine):
        matrix = np.full((2, 32), -1, dtype=np.int64)
        counters = machine.simulate_lookups(trace_from(matrix))
        assert counters.memory_accesses == 0

    def test_zero_step_trace(self, machine):
        counters = machine.simulate_lookups(trace_from(np.empty((0, 40))))
        assert counters.lookups == 40
        assert counters.memory_accesses == 0
        assert counters.remote_accesses == 0


class TestScaling:
    def test_linear_counters_scale(self, machine):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 2**34, size=(4, 64)).astype(np.int64)
        raw = machine.simulate_lookups(trace_from(matrix))
        scaled = machine.scale_lookup_counters(raw, 6400.0)
        assert scaled.lookups == 6400
        assert scaled.remote_accesses == pytest.approx(
            raw.remote_accesses * 100
        )

    def test_cold_tlb_misses_do_not_scale(self, machine):
        # All misses cold -> scaled misses stay at the cold count.
        matrix = (np.arange(64, dtype=np.int64) * 2**21).reshape(1, 64)
        raw = machine.simulate_lookups(trace_from(matrix))
        assert raw.tlb_misses == raw.tlb_cold_misses
        scaled = machine.scale_lookup_counters(raw, 64000.0)
        assert scaled.tlb_misses == raw.tlb_cold_misses

    def test_replay_factor_override(self, machine):
        matrix = (np.arange(64, dtype=np.int64) * 2**21).reshape(1, 64)
        raw = machine.simulate_lookups(trace_from(matrix))
        scaled = machine.scale_lookup_counters(raw, 64.0, replay_factor=10.0)
        assert scaled.translation_requests == pytest.approx(
            scaled.tlb_misses * 10.0
        )

    def test_rejects_zero_lookups(self, machine):
        from repro.hardware.counters import PerfCounters

        with pytest.raises(SimulationError):
            machine.scale_lookup_counters(PerfCounters(), 100.0)

    def test_rejects_shrinking(self, machine):
        matrix = np.zeros((1, 64), dtype=np.int64)
        raw = machine.simulate_lookups(trace_from(matrix))
        with pytest.raises(SimulationError):
            machine.scale_lookup_counters(raw, 32.0)


class TestCounterBuilders:
    def test_scan(self, machine):
        counters = machine.scan_counters(1000)
        assert counters.scan_bytes == 1000
        assert counters.remote_bytes == 1000

    def test_gpu_random(self, machine):
        counters = machine.gpu_random_counters(10, bytes_per_access=32)
        assert counters.gpu_memory_accesses == 10
        assert counters.gpu_memory_bytes == 320

    def test_result(self, machine):
        counters = machine.result_counters(512)
        assert counters.result_bytes == 512

    def test_analytic_tlb(self, machine):
        counters = machine.analytic_tlb_counters(100, replay_factor=8.0)
        assert counters.translation_requests == 800

    def test_negative_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.scan_counters(-1)
        with pytest.raises(SimulationError):
            machine.gpu_random_counters(-1)
        with pytest.raises(SimulationError):
            machine.result_counters(-1)
        with pytest.raises(SimulationError):
            machine.analytic_tlb_counters(-1)
