"""Golden tests: one true positive and one false positive per rule."""

import textwrap

from repro.analysis.engine import lint_paths


def _ids(run):
    return [finding.rule_id for finding in run.findings]


# ----------------------------------------------------------------------
# DET001: unseeded RNG.
# ----------------------------------------------------------------------


class TestDet001:
    def test_flags_numpy_global_rng(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                import numpy as np

                def sample(n):
                    return np.random.rand(n)
                """
            ),
            select="DET001",
        )
        assert _ids(run) == ["DET001"]
        assert "default_rng" in run.findings[0].message

    def test_flags_stdlib_global_rng(self, lint_snippet):
        run = lint_snippet(
            "import random\nrandom.shuffle([1, 2, 3])\n",
            select="DET001",
        )
        assert _ids(run) == ["DET001"]

    def test_flags_renamed_submodule_import(self, lint_snippet):
        run = lint_snippet(
            "import numpy.random as nr\nx = nr.randint(0, 10)\n",
            select="DET001",
        )
        assert _ids(run) == ["DET001"]

    def test_allows_seeded_generators(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                import random

                import numpy as np

                rng = np.random.default_rng(42)
                values = rng.random(8)
                local = random.Random(42)
                local.shuffle([1, 2, 3])
                """
            ),
            select="DET001",
        )
        assert run.findings == []

    def test_unrelated_module_named_random_not_flagged(self, lint_snippet):
        # No numpy/random import: `workload.random.choice` is someone
        # else's API, not the stdlib global RNG.
        run = lint_snippet(
            "def pick(workload):\n    return workload.random.choice()\n",
            select="DET001",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# DET002: wall-clock reads.
# ----------------------------------------------------------------------


class TestDet002:
    def test_flags_perf_counter(self, lint_snippet):
        run = lint_snippet(
            "import time\nstart = time.perf_counter()\n",
            select="DET002",
        )
        assert _ids(run) == ["DET002"]

    def test_flags_datetime_now(self, lint_snippet):
        run = lint_snippet(
            "from datetime import datetime\nstamp = datetime.now()\n",
            select="DET002",
        )
        assert _ids(run) == ["DET002"]

    def test_allows_clock_in_sanctioned_module(self, lint_snippet):
        run = lint_snippet(
            "import time\nstart = time.perf_counter()\n",
            select="DET002",
            name="repro/experiments/runner.py",
        )
        assert run.findings == []

    def test_sleep_is_not_a_clock_read(self, lint_snippet):
        run = lint_snippet(
            "import time\ntime.sleep(0.1)\n",
            select="DET002",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# DET003: unordered set iteration.
# ----------------------------------------------------------------------


class TestDet003:
    def test_flags_set_literal_loop(self, lint_snippet):
        run = lint_snippet(
            "for item in {3, 1, 2}:\n    print(item)\n",
            select="DET003",
        )
        assert _ids(run) == ["DET003"]

    def test_flags_set_operation_in_comprehension(self, lint_snippet):
        run = lint_snippet(
            "def overlap(a, b):\n    return [x for x in set(a) & set(b)]\n",
            select="DET003",
        )
        assert _ids(run) == ["DET003"]

    def test_sorted_set_is_fine(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                for item in sorted({3, 1, 2}):
                    print(item)
                names = [x for x in sorted(set("abc"))]
                """
            ),
            select="DET003",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# UNIT001: raw byte arithmetic.
# ----------------------------------------------------------------------


class TestUnit001:
    def test_flags_multiply_and_shift_and_power(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                window = 32 * 1024
                cap = 1 << 30
                gib = 2 ** 30
                """
            ),
            select="UNIT001",
        )
        assert _ids(run) == ["UNIT001", "UNIT001", "UNIT001"]
        assert "KIB" in run.findings[0].message
        assert "GIB" in run.findings[1].message

    def test_element_counts_and_variable_shifts_pass(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                interleave_width = 2 ** 20
                probe_sample = 2 ** 14
                def mask(bits):
                    return 1 << bits
                """
            ),
            select="UNIT001",
        )
        assert run.findings == []

    def test_units_module_is_exempt(self, lint_snippet):
        run = lint_snippet(
            "KIB = 1024\nMIB = 1024 * 1024\n",
            select="UNIT001",
            name="repro/units.py",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# OBS001: metric naming and label consistency.
# ----------------------------------------------------------------------


class TestObs001:
    def test_flags_off_scheme_name(self, lint_snippet):
        run = lint_snippet(
            'obs.add("BatchCount", 1.0)\n',
            select="OBS001",
        )
        assert _ids(run) == ["OBS001"]

    def test_flags_bad_fstring_fragment(self, lint_snippet):
        run = lint_snippet(
            'obs.add(f"Index-{kind}.lookups", 1.0)\n',
            select="OBS001",
        )
        assert _ids(run) == ["OBS001"]

    def test_dotted_lowercase_name_passes(self, lint_snippet):
        run = lint_snippet(
            'obs.add("index.lookups", 1.0, index="rs")\n'
            'obs.phase("probe")\n',
            select="OBS001",
        )
        assert run.findings == []

    def test_conflicting_label_keys_across_files(self, tmp_path):
        (tmp_path / "a.py").write_text(
            'obs.add("index.lookups", 1.0, index="rs")\n', encoding="utf-8"
        )
        (tmp_path / "b.py").write_text(
            'obs.add("index.lookups", 1.0)\n', encoding="utf-8"
        )
        run = lint_paths([str(tmp_path)], select=["OBS001"])
        # Every call site of the inconsistent counter is reported.
        assert _ids(run) == ["OBS001", "OBS001"]
        assert {f.path.rsplit("/", 1)[-1] for f in run.findings} == {
            "a.py",
            "b.py",
        }

    def test_consistent_labels_across_files(self, tmp_path):
        (tmp_path / "a.py").write_text(
            'obs.add("index.lookups", 1.0, index="rs")\n', encoding="utf-8"
        )
        (tmp_path / "b.py").write_text(
            'obs.add("index.lookups", 2.0, index="btree")\n', encoding="utf-8"
        )
        run = lint_paths([str(tmp_path)], select=["OBS001"])
        assert run.findings == []


# ----------------------------------------------------------------------
# OBS002: hot-path guards.
# ----------------------------------------------------------------------


class TestObs002:
    def test_flags_unguarded_loop_recording(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def drain(batches):
                    for batch in batches:
                        obs.add("pipeline.batches", 1.0)
                """
            ),
            select="OBS002",
        )
        assert _ids(run) == ["OBS002"]

    def test_enabled_guard_inside_loop_passes(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def drain(batches):
                    for batch in batches:
                        if obs.enabled():
                            obs.add("pipeline.batches", 1.0)
                """
            ),
            select="OBS002",
        )
        assert run.findings == []

    def test_early_return_guard_passes(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def record_all(batches):
                    if not obs.enabled():
                        return
                    for batch in batches:
                        obs.add("pipeline.batches", 1.0)
                """
            ),
            select="OBS002",
        )
        assert run.findings == []

    def test_call_outside_loop_passes(self, lint_snippet):
        run = lint_snippet(
            "def once():\n    obs.add('run.count', 1.0)\n",
            select="OBS002",
        )
        assert run.findings == []

    def test_obs_package_itself_is_exempt(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def flush(pending):
                    for name in pending:
                        obs.add("obs.flushes", 1.0)
                """
            ),
            select="OBS002",
            name="repro/obs/metrics.py",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# NP001: dtype-dropping division.
# ----------------------------------------------------------------------


class TestNp001:
    def test_flags_int_of_true_division(self, lint_snippet):
        run = lint_snippet(
            "def bucket(key, width):\n    return int(key / width)\n",
            select="NP001",
        )
        assert _ids(run) == ["NP001"]

    def test_flags_astype_int_of_true_division(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                import numpy as np

                def buckets(keys, width):
                    return (keys / width).astype(np.int64)
                """
            ),
            select="NP001",
        )
        assert _ids(run) == ["NP001"]

    def test_floor_division_passes(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                import numpy as np

                def bucket(key, width):
                    return key // width

                def scale(keys, width):
                    return (keys / width).astype(np.float64)
                """
            ),
            select="NP001",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# RES001: non-atomic durable writes.
# ----------------------------------------------------------------------


class TestRes001:
    def test_flags_truncating_open(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def export(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """
            ),
            select="RES001",
        )
        assert _ids(run) == ["RES001"]

    def test_flags_path_write_text(self, lint_snippet):
        run = lint_snippet(
            "def export(target, text):\n    target.write_text(text)\n",
            select="RES001",
        )
        assert _ids(run) == ["RES001"]

    def test_reads_and_appends_pass(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def load(path):
                    with open(path, "r", encoding="utf-8") as handle:
                        return handle.read()

                def append_record(path, line):
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(line)
                """
            ),
            select="RES001",
        )
        assert run.findings == []

    def test_ioutil_is_exempt(self, lint_snippet):
        run = lint_snippet(
            "def helper(tmp, text):\n    with open(tmp, 'w') as h:\n        h.write(text)\n",
            select="RES001",
            name="repro/ioutil.py",
        )
        assert run.findings == []


# ----------------------------------------------------------------------
# PERF001: interpreted loops in the probe hot paths.
# ----------------------------------------------------------------------


class TestPerf001:
    def test_flags_loop_in_index_package(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def lookup_all(index, keys):
                    out = []
                    for key in keys:
                        out.append(index.lookup_one(key))
                    return out
                """
            ),
            select="PERF001",
            name="repro/indexes/slow.py",
        )
        assert _ids(run) == ["PERF001"]
        assert "vectorize with numpy" in run.findings[0].message

    def test_flags_loop_in_join_package(self, lint_snippet):
        run = lint_snippet(
            "def drive(keys):\n    for key in keys:\n        pass\n",
            select="PERF001",
            name="repro/join/driver.py",
        )
        assert _ids(run) == ["PERF001"]

    def test_noqa_justification_suppresses(self, lint_snippet):
        run = lint_snippet(
            textwrap.dedent(
                """
                def build(levels):
                    total = 0
                    for size in levels:  # repro: noqa[PERF001] -- build-time geometry
                        total += size
                    return total
                """
            ),
            select="PERF001",
            name="repro/indexes/geometry.py",
        )
        assert run.findings == []
        assert len(run.suppressed) == 1

    def test_other_packages_pass(self, lint_snippet):
        run = lint_snippet(
            "def sweep(points):\n    for point in points:\n        point.run()\n",
            select="PERF001",
            name="repro/experiments/driver.py",
        )
        assert run.findings == []
