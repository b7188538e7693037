"""The repository must pass its own linter.

This is the gate CI runs (`repro lint src --fail-on-findings`), run
in-process so a violation shows up in the tier-1 suite before it ever
reaches CI.  The committed baseline is held to the zero-entry policy:
any entry that does exist must carry a `todo` justification.
"""

import os

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.engine import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BASELINE_PATH = os.path.join(REPO_ROOT, "lint_baseline.json")
SRC_PATH = os.path.join(REPO_ROOT, "src")


@pytest.fixture(scope="module")
def self_run():
    baseline = Baseline.load(BASELINE_PATH)
    return lint_paths([SRC_PATH], baseline=baseline)


@pytest.fixture(scope="module")
def self_flow_run():
    baseline = Baseline.load(BASELINE_PATH)
    return lint_paths([SRC_PATH], baseline=baseline, include_flow=True)


def test_src_tree_is_lint_clean(self_run):
    messages = [f.format_text() for f in self_run.findings]
    assert self_run.findings == [], "\n".join(messages)
    assert self_run.errors == []
    # Sanity: the run actually saw the tree.
    assert self_run.files_checked > 50


def test_src_tree_is_flow_clean(self_flow_run):
    # The interprocedural gate CI runs (`repro lint src --flow
    # --fail-on-findings`): no nondeterministic source reaches a payload
    # writer, and no unclamped float reaches an int cast.
    messages = [f.format_text() for f in self_flow_run.findings]
    assert self_flow_run.findings == [], "\n".join(messages)
    assert self_flow_run.errors == []


def test_flow_analysis_sees_a_connected_graph():
    # Guard against the vacuous-pass failure mode: if sink matching ever
    # breaks, the flow gate would stay green while checking nothing.
    # The src tree must present a rich sink surface to both lanes.
    import ast

    from repro.analysis.engine import (
        FileContext,
        display_path,
        iter_python_files,
    )
    from repro.analysis.flow import FlowAnalysis, Lane

    contexts = []
    for path in iter_python_files([SRC_PATH]):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        contexts.append(
            FileContext(path, display_path(path), source, ast.parse(source))
        )
    analysis = FlowAnalysis(contexts).run()
    for lane in (Lane.VALUE, Lane.ORDER):
        assert len(analysis.sinks[lane]) > 50, lane
        edge_count = sum(
            len(targets) for targets in analysis.edges[lane].values()
        )
        assert edge_count > 1000, lane
    # The dtype lane sees the index math: float sources exist and are
    # all clamped before their casts.
    assert len(analysis.sources[Lane.DTYPE]) > 50
    assert analysis.findings(Lane.DTYPE) == []


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(BASELINE_PATH)
    unjustified = baseline.unjustified()
    assert unjustified == [], (
        "baseline entries without a 'todo' justification: "
        f"{[entry.get('path') for entry in unjustified]}"
    )


def test_suppressions_stay_rare(self_run):
    # Inline noqa markers are the escape hatch, not the norm.  If these
    # numbers creep up, the rule (or the code) needs fixing instead.
    # PERF001 is counted separately: sanctioning build-time and
    # per-level loops via justified noqa markers is that rule's design
    # (see repro/analysis/rules/perf.py), so its markers are bounded
    # but expected: per-level descents, build-time geometry, and the
    # O(|S|/W) window drivers (the windowed band join adds one).
    perf = [f for f in self_run.suppressed if f.rule_id == "PERF001"]
    other = [f for f in self_run.suppressed if f.rule_id != "PERF001"]
    assert len(other) <= 10
    assert len(perf) <= 25


def test_perf_suppressions_carry_justifications(self_run):
    # A bare "# repro: noqa[PERF001]" defeats the rule's review intent:
    # every sanctioned loop must say why it is not a per-key hot loop.
    bare = [
        f.format_text()
        for f in self_run.suppressed
        if f.rule_id == "PERF001" and "noqa[PERF001] --" not in f.source_line
    ]
    assert bare == [], "\n".join(bare)
