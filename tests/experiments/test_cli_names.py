"""``repro experiments`` rejects an unknown name with exit 2 and the list
of valid names, before running anything."""

from __future__ import annotations

import io

import pytest

from repro.__main__ import main as repro_main
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.runner import EXPERIMENT_NAMES, run_report


@pytest.mark.parametrize(
    "entry", [lambda argv: repro_main(["experiments", *argv]), runner.main]
)
def test_unknown_name_exits_2_and_lists_the_valid_names(entry, capsys):
    assert entry(["fig3", "fig42"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran, not even fig3
    assert "fig42" in captured.err
    for name in EXPERIMENT_NAMES:
        assert name in captured.err


def test_run_report_raises_before_running_anything():
    stream = io.StringIO()
    with pytest.raises(ConfigurationError, match="valid names: table1"):
        run_report(["table1", "nope"], stream=stream)
    assert stream.getvalue() == ""

