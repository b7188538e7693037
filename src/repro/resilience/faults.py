"""Deterministic, seeded fault injection for the experiment stack.

A sweep fails in practice in one of two ways: a point raises, or a
worker process dies.  This module lets tests (and CI smoke jobs) provoke
either at an exact, reproducible place, so the loud-failure contract in
:mod:`repro.experiments.common` and the serve executor's retry and
failover can be exercised deterministically.

A :class:`FaultPlan` names a *kind* of fault and a *site* at which to
fire.  Sites are labelled check-points sprinkled through the stack:

* ``point`` -- checked before simulating one sweep point (serial path
  and worker processes) by the standard, non-equi and serve sweeps;
* ``experiment`` -- checked by the runner before each experiment;
* ``replica`` -- checked by the replicated serve executor before every
  replica probe attempt.

A plan naming any other site is refused: it could never fire.

Kinds:

* ``raise`` -- raise :class:`~repro.errors.InjectedFault`;
* ``crash`` -- ``os._exit`` the process, but **only** inside a
  multiprocessing worker; in the coordinating process it is ignored,
  so an injected crash can never take down the test harness itself.

Plans are installed programmatically with :func:`install` or from the
``REPRO_FAULTS`` environment variable (which the CLI parses before any
work starts, so a bad spec is a usage error), e.g.::

    REPRO_FAULTS="raise@point:2"            # 3rd sweep point raises once
    REPRO_FAULTS="crash@point:0,count=2"    # workers crash on their 1st point
    REPRO_FAULTS="raise@point:1;raise@experiment:0,match=fig7"

Each plan counts only the site checks whose label matches it, per
process; counters restart in every pool worker (see
:func:`reset_for_worker`), so "the Nth point" means the Nth point *that
process* attempts -- deterministic under fork and spawn alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError, InjectedFault

#: Environment variable holding semicolon-separated fault specs.
FAULTS_ENV = "REPRO_FAULTS"

_KINDS = ("raise", "crash")

#: Site checked before every replica probe attempt of the serve
#: executor.  Labels name the replica, ``shard{s}r{k}``, so
#: ``match=shard1`` selects every replica of shard 1 and
#: ``match=shard1r0`` one copy.
REPLICA_SITE = "replica"

#: Every site the stack checks (see the module docstring).
SITES = ("point", "experiment", REPLICA_SITE)

#: Exit status used by injected worker crashes (distinctive in waitpid).
CRASH_EXIT_CODE = 117


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault: fire ``kind`` at the ``at``-th matching
    check of ``site`` (0-based), at most ``count`` times per process.

    Attributes:
        kind: one of ``raise | crash``.
        site: the check-point name, one of :data:`SITES`.
        at: index of the first matching check that fires (0-based).
        count: maximum number of fires per process.
        match: only checks whose label contains this substring count
            toward ``at`` (empty string matches everything).
    """

    kind: str
    site: str
    at: int = 0
    count: int = 1
    match: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.at < 0:
            raise ConfigurationError(f"fault 'at' must be >= 0, got {self.at}")
        if self.count < 1:
            raise ConfigurationError(
                f"fault 'count' must be >= 1, got {self.count}"
            )


def _integer(text: str, what: str, spec: str) -> int:
    """``int(text)``, or a :class:`ConfigurationError` naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"bad fault spec {spec!r}: {what} must be an integer, got {text!r}"
        ) from None


def parse_plan(spec: str) -> FaultPlan:
    """Parse one ``kind@site:at[,key=value...]`` spec string."""
    spec = spec.strip()
    head, _, options = spec.partition(",")
    if "@" not in head:
        raise ConfigurationError(
            f"bad fault spec {spec!r}: expected 'kind@site[:at][,key=value...]'"
        )
    kind, _, target = head.partition("@")
    site, _, at_text = target.partition(":")
    if not site:
        raise ConfigurationError(f"bad fault spec {spec!r}: missing site")
    kwargs: Dict[str, object] = {
        "at": _integer(at_text, "'at'", spec) if at_text else 0
    }
    if options:
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigurationError(
                    f"bad fault option {item!r} in {spec!r}"
                )
            if key == "count":
                kwargs["count"] = _integer(value, "'count'", spec)
            elif key == "match":
                kwargs["match"] = value
            else:
                raise ConfigurationError(
                    f"unknown fault option {key!r} in {spec!r}"
                )
    return FaultPlan(kind=kind.strip(), site=site.strip(), **kwargs)


def parse_plans(text: str) -> Tuple[FaultPlan, ...]:
    """Parse a semicolon-separated list of fault specs."""
    return tuple(
        parse_plan(part) for part in text.split(";") if part.strip()
    )


def env_plans() -> Tuple[FaultPlan, ...]:
    """The plans ``REPRO_FAULTS`` asks for, without installing them.

    A bad spec raises :class:`ConfigurationError` naming the variable;
    the CLI calls this before dispatching, so no work starts under a
    plan that cannot parse (or never fires).
    """
    try:
        return parse_plans(os.environ.get(FAULTS_ENV, ""))
    except ConfigurationError as error:
        raise ConfigurationError(f"{FAULTS_ENV}: {error}") from None


# ----------------------------------------------------------------------
# Per-process plan registry.  ``_seen``/``_fired`` are indexed by plan
# position, so identical plans installed twice track independently.
# ----------------------------------------------------------------------

_plans: List[FaultPlan] = []
_seen: Dict[int, int] = {}
_fired: Dict[int, int] = {}
_env_loaded = False


def install(*plans: FaultPlan) -> None:
    """Install fault plans (replacing any already installed)."""
    global _env_loaded
    clear()
    _plans.extend(plans)
    _env_loaded = True  # explicit installs override the environment


def clear() -> None:
    """Remove all plans and forget all counters (env will reload lazily)."""
    global _env_loaded
    _plans.clear()
    _seen.clear()
    _fired.clear()
    _env_loaded = False


def active() -> Tuple[FaultPlan, ...]:
    """The currently installed plans (loading ``REPRO_FAULTS`` if needed)."""
    _load_env()
    return tuple(_plans)


def reset_for_worker() -> None:
    """Reset counters in a fresh pool worker.

    Used as the pool initializer so every worker counts its own site
    checks from zero, regardless of what the parent process did before
    forking.  Keeps installed plans (and reloads the environment if none
    were installed programmatically).
    """
    _seen.clear()
    _fired.clear()
    if not _env_loaded:
        _load_env()


def is_worker_process() -> bool:
    """True inside a ``multiprocessing`` child."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def _load_env() -> None:
    global _env_loaded
    if _env_loaded:
        return
    _env_loaded = True
    _plans.extend(env_plans())


def check(site: str, label: str = "") -> None:
    """Fire any due ``raise``/``crash`` fault at this site.

    The fast path (no plans installed) is a tuple check -- cheap enough
    to call per replica probe attempt.
    """
    if not _plans and _env_loaded:
        return
    _load_env()
    for index, plan in enumerate(_plans):
        if plan.site != site or (plan.match and plan.match not in label):
            continue
        seen = _seen.get(index, 0)
        _seen[index] = seen + 1
        if seen < plan.at or _fired.get(index, 0) >= plan.count:
            continue
        _fired[index] = _fired.get(index, 0) + 1
        if plan.kind == "raise":
            raise InjectedFault(
                f"injected fault at {site}[{plan.at}] ({label or 'unlabelled'})"
            )
        # A crash: never take down the coordinating process -- crashes
        # only make sense as *worker* deaths that fail the sweep.
        if is_worker_process():
            os._exit(CRASH_EXIT_CODE)
