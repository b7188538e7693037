"""``repro obs report`` rejects bad input with exit 2, naming what is wrong.

Each case used to be accepted silently (or to die with a traceback):
``--rel-tol inf`` switched the CI drift gate off, ``nan`` and negative
tolerances meant "exact", and a manifest section that is not a JSON
object crashed ``--diff`` while rendering skipped it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import main
from repro.obs.manifest import load_manifest

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "baselines",
    "metrics_smoke.json",
)


@pytest.fixture
def drifted(tmp_path):
    """The committed smoke baseline with its first counter changed."""
    with open(BASELINE, encoding="utf-8") as handle:
        manifest = json.load(handle)
    first = sorted(manifest["counters"])[0]
    manifest["counters"][first] = manifest["counters"][first] * 2 + 7
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


def write_with_section(tmp_path, section, value):
    with open(BASELINE, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest[section] = value
    path = tmp_path / f"bad-{section}.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


class TestRelTol:
    def test_drift_fails_the_gate_at_a_valid_tolerance(self, drifted):
        argv = ["obs", "report", BASELINE, drifted, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "0.5"]) == 1

    def test_inf_is_rejected_instead_of_passing_the_drift(self, drifted, capsys):
        argv = ["obs", "report", BASELINE, drifted, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "inf"]) == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_nan_is_rejected(self, drifted, capsys):
        argv = ["obs", "report", BASELINE, drifted, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "nan"]) == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_negative_is_rejected(self, drifted, capsys):
        argv = ["obs", "report", BASELINE, drifted, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "-1"]) == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_one_is_rejected(self, drifted, capsys):
        argv = ["obs", "report", BASELINE, drifted, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "1"]) == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_zero_is_exact_and_accepted(self, capsys):
        argv = ["obs", "report", BASELINE, BASELINE, "--diff", "--fail-on-drift"]
        assert main(argv + ["--rel-tol", "0"]) == 0
        assert "no drift" in capsys.readouterr().out


class TestSections:
    def test_counters_array_is_rejected_by_diff(self, tmp_path, capsys):
        bad = write_with_section(tmp_path, "counters", [1, 2])
        assert main(["obs", "report", BASELINE, bad, "--diff"]) == 2
        err = capsys.readouterr().err
        assert bad in err and "'counters'" in err

    def test_histograms_string_is_rejected_by_diff(self, tmp_path, capsys):
        bad = write_with_section(tmp_path, "histograms", "oops")
        assert main(["obs", "report", bad, BASELINE, "--diff"]) == 2
        err = capsys.readouterr().err
        assert bad in err and "'histograms'" in err

    @pytest.mark.parametrize(
        "section", ["counters", "gauges", "histograms", "phases", "spans"]
    )
    def test_rendering_rejects_a_non_object_section(
        self, tmp_path, capsys, section
    ):
        bad = write_with_section(tmp_path, section, [1, 2])
        assert main(["obs", "report", bad]) == 2
        err = capsys.readouterr().err
        assert bad in err and repr(section) in err

    def test_null_section_is_rejected(self, tmp_path):
        bad = write_with_section(tmp_path, "spans", None)
        with pytest.raises(ValueError, match="'spans' must be a JSON object"):
            load_manifest(bad)

    def test_absent_sections_still_load(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"schema": "repro-obs-manifest/1"}))
        assert load_manifest(str(path)) == {"schema": "repro-obs-manifest/1"}
