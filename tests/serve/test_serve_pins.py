"""Bit-exact pin of a replicated mixed serve payload.

One small ``run_serve_bench`` sweep -- B+tree, two replicas per shard,
1, 2 and 4 shards, read-only and half-update traffic -- runs the path
the ``serve-mixed`` benchmark runs: request splitting, cost routing over
replicas, memoized window prices and counters, the delta tier, priced
compactions and the scatter of window answers back to their requests.
Every point checks its answers against the update oracle as it serves;
this pin holds the rest of the payload (simulated timeline, prices,
latencies, per-shard counters, compaction events, health transitions)
to ``serve_pins.json`` with ``==``.

A refactor of the serve path must leave the payload bit-identical.  An
intended change re-records the fixture and names the change:

    PYTHONPATH=src python tests/serve/test_serve_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serve.bench import run_serve_bench

FIXTURE = Path(__file__).with_name("serve_pins.json")

PINNED_SWEEP = dict(
    index="btree",
    replicas=2,
    shards=(1, 2, 4),
    window_kib=(4,),
    zipf_thetas=(0.0,),
    update_fractions=(0.0, 0.5),
    r_tuples=2**12,
    requests=24,
    request_tuples=256,
    workers=1,
)


def record() -> dict:
    """The pinned payload, through JSON (tuples become lists)."""
    return json.loads(json.dumps(run_serve_bench(**PINNED_SWEEP)))


def test_replicated_mixed_payload_bit_identical():
    payload = record()
    rows = payload["sweeps"]
    assert len(rows) == 6
    # The pin must exercise the compaction path it guards.
    assert sum(row["updates"]["compactions_completed"] for row in rows) > 0
    assert payload == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
