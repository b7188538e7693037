"""Scripted chaos: schedules, the controller, and result invariance.

The committed-schedule tests gate the same four JSON files CI replays
(`benchmarks/chaos/`); the hypothesis property generalizes them to
arbitrary generated schedules that leave at least one surviving replica
per range shard.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.__main__ import main as cli_main
from repro.errors import ConfigurationError, InjectedFault
from repro.resilience import chaos
from repro.resilience.chaos import (
    ChaosController,
    ChaosEvent,
    ChaosSchedule,
    build_event_log,
    check_invariance,
    check_replay,
    run_serve_under_chaos,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests skip themselves
    HAVE_HYPOTHESIS = False

SCHEDULE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "chaos"
)

#: Small harness workload shared by the property tests: fast enough for
#: a hypothesis example budget, big enough for several windows/shard.
SMALL = dict(
    shards=2,
    replicas=2,
    r_tuples=2**10,
    requests=6,
    request_tuples=64,
    window_kib=4,
)

#: Harness arguments of each committed schedule, as the CI chaos job
#: replays it.
COMMITTED = {
    "kill-one": {},
    "kill-then-recover": {},
    "rolling-wedge": {},
    "kill-during-compaction": dict(update_fraction=0.5, index="btree"),
}


def assert_every_death_rebuilt(timeline):
    """Each ``dead`` event is followed, for the same replica, by a
    ``rebuild_scheduled``, and no death schedules two: every replica
    that dies gets exactly one rebuild."""
    kinds = [event["kind"] for event in timeline]
    assert kinds.count("rebuild_scheduled") == kinds.count("dead")
    for position, event in enumerate(timeline):
        if event["kind"] != "dead":
            continue
        replica = (event["shard"], event["replica"])
        following = next(
            (
                later["kind"]
                for later in timeline[position + 1 :]
                if (later["shard"], later["replica"]) == replica
            ),
            None,
        )
        assert following == "rebuild_scheduled", (
            f"shard{replica[0]}r{replica[1]} died at t={event['t']} "
            f"and was never rebuilt (next event: {following})"
        )


class TestChaosEvent:
    def test_kill_requires_target(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="kill", at=0.0, shard=0)
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="kill", at=0.0, replica=0)

    def test_wedge_requires_positive_duration(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="wedge", at=0.0, shard=0, duration=0.0)

    def test_corrupt_requires_batch(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="corrupt")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="explode", at=0.0)

    def test_negative_arm_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(kind="kill", at=-1.0, shard=0, replica=0)

    def test_dict_round_trip(self):
        event = ChaosEvent(
            kind="wedge", at=1.5, shard=1, replica=-1, duration=0.5
        )
        assert ChaosEvent.from_dict(event.as_dict()) == event
        # Unset -1 fields stay out of the JSON form.
        assert "replica" not in event.as_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent.from_dict({"kind": "kill", "sharrd": 0, "replica": 0})
        with pytest.raises(ConfigurationError):
            ChaosEvent.from_dict({"at": 1.0})

    def test_integral_float_targets_accepted(self):
        event = ChaosEvent.from_dict({"kind": "kill", "shard": 1.0, "replica": 0})
        assert (event.shard, event.replica) == (1, 0)


class TestChaosSchedule:
    def schedule(self) -> ChaosSchedule:
        return ChaosSchedule(
            events=(
                ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),
                ChaosEvent(kind="corrupt", batch=3),
            )
        )

    def test_dict_round_trip(self):
        schedule = self.schedule()
        assert ChaosSchedule.from_dict(schedule.as_dict()) == schedule

    def test_schema_tag_enforced(self):
        payload = self.schedule().as_dict()
        payload["schema"] = "repro-chaos/99"
        with pytest.raises(ConfigurationError):
            ChaosSchedule.from_dict(payload)

    def test_file_round_trip(self, tmp_path):
        schedule = self.schedule()
        path = str(tmp_path / "schedule.json")
        schedule.dump(path)
        assert ChaosSchedule.load(path) == schedule

    def test_unreadable_file_rejected(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ConfigurationError):
            ChaosSchedule.load(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigurationError):
            ChaosSchedule.load(str(bad))
        array = tmp_path / "array.json"
        array.write_text("[]")
        with pytest.raises(ConfigurationError):
            ChaosSchedule.load(str(array))


class TestChaosController:
    def test_kill_fires_from_arm_time_until_restart(self):
        controller = ChaosController(
            ChaosSchedule(
                events=(
                    ChaosEvent(kind="kill", at=1.0, shard=0, replica=0),
                )
            )
        )
        # Before the arm time: nothing.
        controller.check_probe(0, 0, now=0.5, window_seq=0)
        # Wrong replica: nothing.
        controller.check_probe(0, 1, now=2.0, window_seq=1)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 0, now=2.0, window_seq=2)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 0, now=3.0, window_seq=3)
        # The rebuilt replica rejoined: the kill is spent.
        controller.on_restart(0, 0, now=4.0)
        controller.check_probe(0, 0, now=5.0, window_seq=4)
        assert len(controller.injections) == 2

    def test_restart_before_arm_time_does_not_clear(self):
        controller = ChaosController(
            ChaosSchedule(
                events=(
                    ChaosEvent(kind="kill", at=5.0, shard=0, replica=0),
                )
            )
        )
        controller.on_restart(0, 0, now=1.0)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 0, now=6.0, window_seq=0)

    def test_wedge_fires_within_its_interval(self):
        controller = ChaosController(
            ChaosSchedule(
                events=(
                    ChaosEvent(
                        kind="wedge", at=1.0, shard=0, duration=2.0
                    ),
                )
            )
        )
        controller.check_probe(0, 0, now=0.9, window_seq=0)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 0, now=1.0, window_seq=1)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 1, now=2.9, window_seq=2)  # all replicas
        controller.check_probe(0, 0, now=3.0, window_seq=3)  # half-open end
        controller.check_probe(1, 0, now=2.0, window_seq=4)  # other shard

    def test_wedge_can_target_one_replica(self):
        controller = ChaosController(
            ChaosSchedule(
                events=(
                    ChaosEvent(
                        kind="wedge",
                        at=0.0,
                        shard=0,
                        replica=1,
                        duration=1.0,
                    ),
                )
            )
        )
        controller.check_probe(0, 0, now=0.5, window_seq=0)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 1, now=0.5, window_seq=1)

    def test_corrupt_fires_exactly_once(self):
        controller = ChaosController(
            ChaosSchedule(events=(ChaosEvent(kind="corrupt", batch=2),))
        )
        controller.check_probe(0, 0, now=0.0, window_seq=1)
        with pytest.raises(InjectedFault):
            controller.check_probe(0, 0, now=0.0, window_seq=2)
        # The retry of the same window sequence sails through.
        controller.check_probe(0, 0, now=0.0, window_seq=2)
        assert [desc for _, desc in controller.injections] == [
            "corrupt[0] window2 shard0r0"
        ]


class TestCommittedSchedules:
    """The exact gates the CI chaos job replays."""

    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_invariant_and_replayable(self, name, tmp_path):
        path = os.path.join(SCHEDULE_DIR, f"{name}.json")
        log_path = str(tmp_path / "events.json")
        status = chaos.main(
            schedule_path=path, event_log_path=log_path, **COMMITTED[name]
        )
        assert status == 0
        log = json.loads(open(log_path).read())
        assert log["schema"] == chaos.LOG_SCHEMA
        assert log["invariant"] is True
        assert log["schedule"] == ChaosSchedule.load(path).as_dict()
        assert_every_death_rebuilt(log["timeline"])

    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_single_replica_invariant_and_rebuilt(self, name, tmp_path):
        """K = 1: every window of a dead copy waits for its rebuild or
        takes the fallback, and the copy always comes back."""
        path = os.path.join(SCHEDULE_DIR, f"{name}.json")
        log_path = str(tmp_path / "events.json")
        status = chaos.main(
            schedule_path=path,
            event_log_path=log_path,
            replicas=1,
            **COMMITTED[name],
        )
        assert status == 0
        log = json.loads(open(log_path).read())
        assert log["invariant"] is True
        assert_every_death_rebuilt(log["timeline"])
        kinds = [event["kind"] for event in log["timeline"]]
        assert kinds.count("dead") == kinds.count("rebuild_complete")

    def test_kill_one_full_event_sequence(self):
        """kill -> failover -> priced rebuild -> probation -> rejoin."""
        schedule = ChaosSchedule.load(
            os.path.join(SCHEDULE_DIR, "kill-one.json")
        )
        result = run_serve_under_chaos(schedule=schedule)
        kinds = [event["kind"] for event in result.timeline]
        for expected in (
            "failure",
            "dead",
            "rebuild_scheduled",
            "failover",
            "rebuild_complete",
            "recovered",
        ):
            assert expected in kinds, f"missing {expected} in {kinds}"
        # The ordering of the cycle's stages is fixed.
        assert kinds.index("dead") < kinds.index("rebuild_scheduled")
        assert kinds.index("rebuild_scheduled") < kinds.index(
            "rebuild_complete"
        )
        assert kinds.index("rebuild_complete") < kinds.index("recovered")
        # The rebuild event carries its priced cost.
        scheduled = next(
            event
            for event in result.timeline
            if event["kind"] == "rebuild_scheduled"
        )
        assert scheduled["detail"].startswith("slice_copy:")
        assert result.failovers >= 1
        assert result.recoveries >= 1
        assert result.injections

    def test_kill_one_emits_obs_metrics(self):
        schedule = ChaosSchedule.load(
            os.path.join(SCHEDULE_DIR, "kill-one.json")
        )
        obs.enable()
        obs.reset()
        try:
            run_serve_under_chaos(schedule=schedule)
            assert obs.counter("serve.failovers", shard=0, replica=0) >= 1
            assert obs.counter("serve.rebuilds", shard=0, replica=0) >= 1
            assert obs.counter("serve.recoveries", shard=0, replica=0) >= 1
        finally:
            obs.reset()
            obs.disable()

    def test_event_log_shape(self):
        schedule = ChaosSchedule.load(
            os.path.join(SCHEDULE_DIR, "kill-one.json")
        )
        result = run_serve_under_chaos(schedule=schedule)
        log = build_event_log(schedule, result, True, source="x.json")
        assert log["source"] == "x.json"
        assert log["summary"]["injections"] == len(result.injections)
        assert all(
            set(entry) == {"t", "fault"} for entry in log["injections"]
        )


class TestHarness:
    def test_total_shard_death_still_invariant(self):
        # Both replicas of shard 0 die: traffic degrades to the
        # fallback, which still answers in global positions.
        schedule = ChaosSchedule(
            events=(
                ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),
                ChaosEvent(kind="kill", at=0.0, shard=0, replica=1),
            )
        )
        ok, clean, chaotic = check_invariance(schedule, **SMALL)
        assert ok
        assert chaotic.fallback_windows > 0
        assert len(chaotic.positions) == len(clean.positions)

    def test_output_ignores_the_retired_retry_variables(
        self, capsys, monkeypatch
    ):
        """The serve retry is the executor's own fixed schedule: no
        environment variable reaches a chaos payload."""
        argv = [
            "chaos", "--schedule", os.path.join(SCHEDULE_DIR, "kill-one.json")
        ]
        assert cli_main(argv) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRIES", "1")
        monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0")
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == unset
        assert "injections=3" in unset
        assert "clean makespan 0.000140787s, chaotic 0.119898700s" in unset

    def test_replay_is_bit_identical(self):
        schedule = ChaosSchedule(
            events=(ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),)
        )
        ok, first, second = check_replay(schedule, **SMALL)
        assert ok
        assert first.timeline == second.timeline
        assert first.injections == second.injections

    def test_unknown_replica_index_rejected(self):
        with pytest.raises(ConfigurationError):
            run_serve_under_chaos(
                replica_indexes=["btree", "fractal-tree"], **SMALL
            )

    @pytest.mark.parametrize(
        "counts,flag",
        [({"shards": 0}, "--shards"), ({"shards": -1}, "--shards"),
         ({"replicas": 0}, "--replicas")],
    )
    def test_count_below_one_names_its_flag(self, counts, flag):
        """A bad count is the count's fault, not the schedule's."""
        schedule = ChaosSchedule(
            events=(ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),)
        )
        with pytest.raises(ConfigurationError, match=flag):
            run_serve_under_chaos(schedule=schedule, **{**SMALL, **counts})

    def test_replica_index_count_must_match(self):
        with pytest.raises(ConfigurationError):
            run_serve_under_chaos(
                replica_indexes=["btree"],
                shards=2,
                replicas=2,
                r_tuples=2**10,
                requests=4,
                request_tuples=64,
            )


#: Malformed single-event schedules, and the field each error must name.
MALFORMED_EVENTS = {
    "nan-arm-time": (
        {"kind": "kill", "at": float("nan"), "shard": 0, "replica": 0},
        "'at'",
    ),
    "string-arm-time": (
        {"kind": "kill", "at": "soon", "shard": 0, "replica": 0},
        "'at'",
    ),
    "event-not-an-object": (7, "'events'"),
    "shard-out-of-range": (
        {"kind": "kill", "at": 0.0, "shard": 9, "replica": 0},
        "shard 9",
    ),
    "replica-out-of-range": (
        {"kind": "kill", "at": 0.0, "shard": 0, "replica": 5},
        "replica 5",
    ),
    "fractional-shard": (
        {"kind": "kill", "at": 0.0, "shard": 1.7, "replica": 0},
        "'shard'",
    ),
    "nan-duration": (
        {"kind": "wedge", "at": 0.0, "shard": 0, "duration": float("nan")},
        "'duration'",
    ),
}


class TestMalformedSchedules:
    @pytest.mark.parametrize("case", sorted(MALFORMED_EVENTS))
    def test_cli_exits_2_naming_the_field(self, case, tmp_path, capsys):
        event, field_name = MALFORMED_EVENTS[case]
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"schema": chaos.SCHEMA, "events": [event]}))
        argv = ["chaos", "--schedule", str(path), "--requests", "8"]
        assert cli_main(argv) == 2
        assert field_name in capsys.readouterr().err

    @pytest.mark.parametrize("target", [dict(shard=2, replica=0), dict(shard=0, replica=2)])
    def test_harness_rejects_targets_outside_the_run(self, target):
        schedule = ChaosSchedule(events=(ChaosEvent(kind="kill", **target),))
        with pytest.raises(ConfigurationError, match="targets"):
            run_serve_under_chaos(schedule=schedule, **SMALL)

    @pytest.mark.parametrize("update_fraction", [float("nan"), -0.1, 1.5])
    def test_harness_rejects_bad_update_fraction(self, update_fraction):
        with pytest.raises(ConfigurationError, match="update fraction"):
            run_serve_under_chaos(update_fraction=update_fraction, **SMALL)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -1.0])
    def test_harness_rejects_bad_zipf_theta(self, theta):
        with pytest.raises(ConfigurationError, match="zipf theta"):
            run_serve_under_chaos(zipf_theta=theta, **SMALL)


# ----------------------------------------------------------------------
# The pinned invariance property (hypothesis).
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    @st.composite
    def survivable_schedules(draw):
        """Schedules that never touch replica 1: it always survives.

        Kills and wedges only ever target replica 0 of either shard, so
        every range keeps at least one healthy replica -- the
        precondition of the invariance property.  Corrupt events are
        transient by construction (one retry absorbs them).
        """
        events = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            kind = draw(st.sampled_from(["kill", "wedge", "corrupt"]))
            at = draw(
                st.floats(
                    min_value=0.0,
                    max_value=2.0e-4,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            shard = draw(st.integers(min_value=0, max_value=1))
            if kind == "kill":
                events.append(
                    ChaosEvent(kind="kill", at=at, shard=shard, replica=0)
                )
            elif kind == "wedge":
                duration = draw(
                    st.floats(
                        min_value=1.0e-6,
                        max_value=1.0e-4,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                )
                events.append(
                    ChaosEvent(
                        kind="wedge",
                        at=at,
                        shard=shard,
                        replica=0,
                        duration=duration,
                    )
                )
            else:
                events.append(
                    ChaosEvent(
                        kind="corrupt",
                        batch=draw(st.integers(min_value=0, max_value=24)),
                    )
                )
        return ChaosSchedule(events=tuple(events))

    #: One fault-free reference run per module: the clean side of the
    #: property is schedule-independent, so recomputing it per example
    #: would only burn the example budget.
    _CLEAN = None

    def clean_run():
        global _CLEAN
        if _CLEAN is None:
            _CLEAN = run_serve_under_chaos(schedule=None, **SMALL)
        return _CLEAN

    class TestInvarianceProperty:
        @given(schedule=survivable_schedules())
        @settings(deadline=None)
        def test_surviving_replica_implies_identical_results(
            self, schedule
        ):
            clean = clean_run()
            chaotic = run_serve_under_chaos(schedule=schedule, **SMALL)
            assert np.array_equal(clean.positions, chaotic.positions), (
                f"positions diverge under {schedule.as_dict()}"
            )
            replayed = run_serve_under_chaos(schedule=schedule, **SMALL)
            assert np.array_equal(
                chaotic.positions, replayed.positions
            )
            assert chaotic.makespan_seconds == replayed.makespan_seconds
            assert chaotic.timeline == replayed.timeline
            assert chaotic.injections == replayed.injections
            assert_every_death_rebuilt(chaotic.timeline)
