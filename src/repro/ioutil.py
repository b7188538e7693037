"""Crash-safe file writes shared by every durable artifact.

A plain ``open(path, "w")`` truncates first and writes second; a crash
between the two leaves a torn file that downstream readers (the CI
drift gate diffing ``metrics.json``, figure-export consumers) see as a
parse error indistinguishable from a bad run.  Everything durable goes
through :func:`atomic_write_text` instead: write to a temp file in the
*same directory* (same filesystem, so the final rename cannot turn
into a copy), flush and fsync, then ``os.replace`` -- which POSIX and
Windows both guarantee to be atomic.  Readers observe either the old
content or the new, never a prefix.

``repro lint`` enforces the contract statically (rule ``RES001``).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> str:
    """Replace ``path`` with ``text`` all-or-nothing; returns ``path``.

    Parent directories are created as needed.  The temp file is cleaned
    up on any failure, so an aborted write leaves no debris next to the
    target.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: str,
    payload: object,
    indent: int = 2,
    sort_keys: bool = True,
    default: Optional[object] = None,
) -> str:
    """JSON-serialize ``payload`` and atomically write it to ``path``.

    ``sort_keys`` defaults on because every committed artifact in this
    repository (manifests, baselines, bench reports) must be
    byte-stable across runs for diff-based gates to work.
    """
    text = json.dumps(
        payload, indent=indent, sort_keys=sort_keys, default=default  # type: ignore[arg-type]
    )
    return atomic_write_text(path, text + "\n")
