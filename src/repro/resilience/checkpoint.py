"""Append-only JSONL checkpoints for sweep runs (``--resume``).

A killed ``runner.run_report`` used to throw away every completed sweep
point.  With checkpointing enabled, :func:`repro.experiments.common.
map_standard_points` appends each finished point to a JSONL file as soon
as it completes, and a rerun with ``--resume`` loads the file and
recomputes only the missing points.  Figures are bit-identical either
way: outcomes are pickled, and pickle round-trips floats exactly.

File layout -- one sweep per file, named by a *config fingerprint* of
the full task list::

    <checkpoint-dir>/sweep-<fingerprint16>.jsonl

Each line is one completed point::

    {"task": "<task fingerprint>", "sha": "<12-hex digest>", "data": "<b64 pickle>"}

``task`` identifies the point independent of its position, so a resumed
run with a reordered-but-overlapping task list still gets its hits.
``sha`` guards the payload: a torn or corrupted line (crash mid-write,
bit rot, injected ``corrupt@checkpoint`` fault) fails verification and
is simply recomputed -- corruption can degrade a resume, never the
figures.  Records are flushed per point, so a SIGKILL loses at most the
point in flight.

Checkpoint files are trusted local state (they contain pickles); do not
load checkpoints from untrusted sources.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import is_dataclass
from typing import Dict, Iterable, Optional

from .. import obs
from . import faults

#: Environment variable enabling checkpointing outside the CLI flags.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"
RESUME_ENV = "REPRO_RESUME"

_MISSING = object()


def _canonical(obj) -> str:
    """A stable textual form for fingerprinting task structures.

    Classes render as their qualified name (``repr`` of a class embeds
    nothing stable), dataclasses as their field reprs, containers
    recursively.  Floats use ``repr`` -- exact round-trippable digits.
    """
    if isinstance(obj, type):
        return f"<class {obj.__module__}.{obj.__qualname__}>"
    if is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{name}={_canonical(getattr(obj, name))}"
            for name in obj.__dataclass_fields__
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (tuple, list)):
        inner = ", ".join(_canonical(item) for item in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{_canonical(key)}: {_canonical(value)}"
            for key, value in sorted(obj.items(), key=repr)
        )
        return f"{{{inner}}}"
    return repr(obj)


def fingerprint(obj) -> str:
    """Hex SHA-256 of the canonical form of ``obj``."""
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def sweep_path(directory: str, tasks: Iterable) -> str:
    """Checkpoint file path for a task list (keyed by its config hash)."""
    return os.path.join(
        directory, f"sweep-{fingerprint(list(tasks))[:16]}.jsonl"
    )


class SweepCheckpoint:
    """One sweep's append-only completed-point store.

    With ``resume=False`` any existing file is truncated -- a fresh run.
    With ``resume=True`` existing verified records are loaded and
    :meth:`get` serves them.  Either way :meth:`record` appends and
    flushes one line per completed point.
    """

    def __init__(self, path: str, resume: bool = True):
        self.path = path
        self.resume = resume
        self._records: Dict[str, object] = {}
        self.stats = {"loaded": 0, "discarded": 0, "recorded": 0, "resumed": 0}
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if resume:
            self._load()
        elif os.path.exists(path):
            os.remove(path)

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    data = record["data"]
                    digest = hashlib.sha256(data.encode()).hexdigest()[:12]
                    if digest != record["sha"]:
                        raise ValueError("checksum mismatch")
                    outcome = pickle.loads(base64.b64decode(data))
                except Exception:  # torn/corrupt line: recompute the point
                    self.stats["discarded"] += 1
                    continue
                self._records[record["task"]] = outcome
        self.stats["loaded"] = len(self._records)
        if obs.enabled():
            if self.stats["loaded"]:
                obs.add(
                    "checkpoint.loaded", float(self.stats["loaded"])
                )
            if self.stats["discarded"]:
                obs.add(
                    "checkpoint.discarded", float(self.stats["discarded"])
                )

    def get(self, task_fingerprint: str):
        """The stored outcome for a task, or ``None`` if absent.

        Outcomes are never ``None`` themselves (they are ``("ok", ...)``
        / ``("skip", ...)`` tuples), so ``None`` is unambiguous.
        """
        outcome = self._records.get(task_fingerprint, _MISSING)
        if outcome is _MISSING:
            return None
        self.stats["resumed"] += 1
        return outcome

    def record(self, task_fingerprint: str, outcome) -> None:
        """Append one completed point; flushed immediately."""
        data = base64.b64encode(pickle.dumps(outcome)).decode()
        line = json.dumps(
            {
                "task": task_fingerprint,
                "sha": hashlib.sha256(data.encode()).hexdigest()[:12],
                "data": data,
            }
        )
        line = faults.corrupt_text("checkpoint", task_fingerprint, line)
        with obs.span("checkpoint.write", bytes=len(line) + 1):
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        obs.add("checkpoint.records")
        self._records[task_fingerprint] = outcome
        self.stats["recorded"] += 1


# ----------------------------------------------------------------------
# Run-scoped configuration: the runner sets a checkpoint directory for
# the duration of one ``run_report`` and every standard sweep inside picks
# it up without threading parameters through each figure module.
# ----------------------------------------------------------------------

_directory: Optional[str] = None
_resume: bool = True


@contextmanager
def configured(directory: Optional[str], resume: bool = True):
    """Scope a checkpoint directory (and resume mode) to a with-block."""
    global _directory, _resume
    previous = (_directory, _resume)
    _directory, _resume = directory, resume
    try:
        yield
    finally:
        _directory, _resume = previous


def for_tasks(tasks) -> Optional["SweepCheckpoint"]:
    """The active checkpoint for a task list, or ``None`` when disabled.

    Precedence: the runner's :func:`configured` scope, then the
    ``REPRO_CHECKPOINT_DIR`` environment variable (with ``REPRO_RESUME``
    opting out of resume when set to ``0``).
    """
    if _directory is not None:
        return SweepCheckpoint(sweep_path(_directory, tasks), resume=_resume)
    env_dir = os.environ.get(CHECKPOINT_DIR_ENV)
    if env_dir:
        resume = os.environ.get(RESUME_ENV, "1") != "0"
        return SweepCheckpoint(sweep_path(env_dir, tasks), resume=resume)
    return None
