"""Bit-exact pins of the six CI chaos cells across commits.

``test_chaos.py`` checks each schedule's invariance and its replay on
one commit; neither notices a refactor that changes *what* failover,
rebuild, deferral or compaction walk, as long as the answers stay
right.  This pin holds every cell the CI chaos job replays -- the four
committed schedules plus the two ``--replicas 1`` cells, at their CI
arguments -- to ``chaos_pins.json`` with ``==``: the health timeline,
the injections, the makespan, the fallback, failover, recovery,
deferral and compaction counts, and a sha256 of the served positions.

The pinned timelines include the serve executor's fixed retry backoff
(0.05 s base, ``repro.serve.executor.retry_backoff``), charged in
simulated serve time (``kill-one`` reads 0.119898700 s chaotic against
0.000140787 s clean).  A change to that charge is a named model
change that re-records this file, as is any other intended change:

    PYTHONPATH=src python tests/resilience/test_chaos_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import build_parser, chaos_point
from repro.resilience.chaos import run_serve_under_chaos

FIXTURE = Path(__file__).with_name("chaos_pins.json")

SCHEDULE_DIR = Path(__file__).parents[2] / "benchmarks" / "chaos"

#: Cell name -> (schedule, extra ``repro chaos`` flags), as the CI chaos
#: matrix names its event logs and passes its extra arguments.
CELLS = {
    "kill-one": ("kill-one", ""),
    "kill-then-recover": ("kill-then-recover", ""),
    "rolling-wedge": ("rolling-wedge", ""),
    "kill-during-compaction": (
        "kill-during-compaction",
        "--update-fraction 0.5 --index btree",
    ),
    "kill-then-recover-r1": ("kill-then-recover", "--replicas 1"),
    "kill-then-recover-r1-updates": (
        "kill-then-recover",
        "--replicas 1 --update-fraction 0.5 --index btree",
    ),
}


def cli_point(schedule_name: str, *flags: str):
    """The point ``repro chaos --schedule <schedule_name>.json flags``
    serves, read off the CLI, which alone holds the harness defaults."""
    path = os.fspath(SCHEDULE_DIR / f"{schedule_name}.json")
    args = build_parser().parse_args(["chaos", "--schedule", path, *flags])
    return chaos_point(args)


def record_cell(name: str) -> dict:
    """One cell's chaotic run, through JSON (tuples become lists)."""
    schedule_name, flags = CELLS[name]
    result = run_serve_under_chaos(cli_point(schedule_name, *flags.split()))
    positions = np.ascontiguousarray(result.positions, dtype=np.int64)
    return json.loads(
        json.dumps(
            {
                "timeline": result.timeline,
                "injections": result.injections,
                "makespan_seconds": result.makespan_seconds,
                "fallback_windows": result.fallback_windows,
                "failovers": result.failovers,
                "recoveries": result.recoveries,
                "deferrals": result.deferrals,
                "compactions": result.compactions,
                "compactions_completed": result.compactions_completed,
                "positions_sha256": hashlib.sha256(
                    positions.tobytes()
                ).hexdigest(),
            }
        )
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_chaos_cell_bit_identical(name):
    assert record_cell(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    pins = {name: record_cell(name) for name in sorted(CELLS)}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
