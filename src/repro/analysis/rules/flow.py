"""FLOW001/FLOW002: interprocedural determinism-flow rules.

Where ``DET001``-``DET003`` flag a nondeterministic *construct* the
moment it appears, these rules flag a nondeterministic *flow*: a value
(FLOW001) or an iteration order (FLOW002) produced by such a construct
that actually reaches one of the payload surfaces the bit-identity
gates diff -- across any number of intermediate calls.  The heavy
lifting lives in :mod:`repro.analysis.flow`; the rules here collect the
run's parsed files in :meth:`check_file` and hand the whole set to the
shared (cached) analysis in :meth:`finish_run`, so the three flow rules
cost one interprocedural pass, not three.

Both rules are opt-in (``requires_flow``): ``repro lint --flow``
enables them, as does naming them in ``--select``.  Findings anchor at
the *sink* line -- the payload write is where a leak becomes an
artifact, and that anchoring keeps the ``(rule, path, source line)``
baseline fingerprint and ``# repro: noqa[FLOW001]`` suppression
machinery working unchanged.  The full source->...->sink call path is
in the message.
"""

from __future__ import annotations

from typing import Iterable, List

from ..engine import FileContext, Rule, register
from ..findings import Finding, Severity


class _FlowRule(Rule):
    """Shared scaffolding: collect files, emit one lane's findings.

    The taint engine is imported lazily: :mod:`repro.analysis.flow`
    itself imports helpers from :mod:`.determinism`, so a module-level
    import here would be circular through the rules package init.
    """

    requires_flow = True
    #: :class:`repro.analysis.flow.Lane` value name ("value"/"order").
    lane_name: str = ""

    def __init__(self) -> None:
        self._contexts: List[FileContext] = []

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        self._contexts.append(ctx)
        return ()

    def finish_run(self) -> Iterable[Finding]:
        from ..flow import Lane, lane_findings

        for raw in lane_findings(self._contexts, Lane(self.lane_name)):
            yield Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=raw.path,
                line=raw.line,
                col=raw.col,
                message=raw.message,
                source_line=raw.source_line,
            )


@register
class DeterminismValueFlow(_FlowRule):
    """FLOW001: a nondeterministic value reaches a payload writer."""

    rule_id = "FLOW001"
    severity = Severity.ERROR
    summary = (
        "interprocedural: unseeded-RNG / wall-clock / os.environ value "
        "flows into a payload writer (atomic writers, metrics, json)"
    )
    lane_name = "value"


@register
class DeterminismOrderFlow(_FlowRule):
    """FLOW002: nondeterministic ordering reaches a payload writer."""

    rule_id = "FLOW002"
    severity = Severity.ERROR
    summary = (
        "interprocedural: set-iteration / completion / listing order "
        "flows unsorted into a payload writer"
    )
    lane_name = "order"
