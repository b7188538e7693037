"""Fault-injection harness: spec parsing, firing semantics, safety."""

import pytest

from repro.errors import ConfigurationError, InjectedFault
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, parse_plan, parse_plans


class TestParsing:
    def test_minimal_spec(self):
        plan = parse_plan("raise@point")
        assert plan.kind == "raise"
        assert plan.site == "point"
        assert plan.at == 0
        assert plan.count == 1

    def test_full_spec(self):
        plan = parse_plan("crash@experiment:3,count=2,match=fig7")
        assert plan == FaultPlan(
            kind="crash", site="experiment", at=3, count=2, match="fig7"
        )

    def test_multiple_specs(self):
        plans = parse_plans("raise@point:1; crash@point:0,count=3")
        assert [plan.kind for plan in plans] == ["raise", "crash"]

    def test_empty_text_yields_nothing(self):
        assert parse_plans("") == ()
        assert parse_plans(" ; ") == ()

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@point",          # unknown kind
            "raisepoint",             # missing @
            "raise@",                 # missing site
            "raise@point:0,bogus=1",  # unknown option
            "raise@point:0,count",    # malformed option
            "raise@nowhere:0",        # unknown site
            "raise@batch:0",          # a site nothing checks
            "raise@checkpoint:0",     # retired site
            "raise@replica:0",        # retired site
            "raise@point:x",          # non-integer 'at'
            "raise@point:0,count=x",  # non-integer count
            "raise@point:0,seed=1.5",  # retired option
            "hang@point:0,hang=x",    # retired kind
            "hang@point:0,hang=nan",  # retired kind
            "hang@point:0,hang=inf",  # retired kind
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_plan(spec)

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(kind="raise", site="point", at=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan(kind="raise", site="point", count=0)
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan(kind="corrupt", site="point")
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultPlan(kind="raise", site="batch")

    def test_every_site_is_accepted(self):
        for site in faults.SITES:
            assert FaultPlan(kind="raise", site=site).site == site


class TestFiring:
    def test_fires_at_nth_matching_check(self):
        faults.install(FaultPlan(kind="raise", site="point", at=2))
        faults.check("point")  # 0
        faults.check("point")  # 1
        with pytest.raises(InjectedFault):
            faults.check("point")  # 2 -> fires

    def test_count_bounds_fires(self):
        faults.install(FaultPlan(kind="raise", site="point", at=0, count=2))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.check("point")
        faults.check("point")  # budget spent: silent

    def test_other_sites_do_not_count(self):
        faults.install(FaultPlan(kind="raise", site="point", at=1))
        faults.check("experiment")
        faults.check("experiment", "fig7")
        faults.check("point")  # first matching check: index 0, no fire
        with pytest.raises(InjectedFault):
            faults.check("point")

    def test_match_filters_labels(self):
        faults.install(
            FaultPlan(kind="raise", site="experiment", at=0, match="fig7")
        )
        faults.check("experiment", "table1")
        faults.check("experiment", "fig3+fig4")
        with pytest.raises(InjectedFault):
            faults.check("experiment", "fig7")

    def test_no_plans_is_a_noop(self):
        faults.clear()
        faults.check("point", "anything")  # must not raise

    def test_crash_is_inert_in_parent_process(self):
        # An injected crash may only kill pool workers, never the
        # process coordinating the sweep (or the test harness).
        faults.install(FaultPlan(kind="crash", site="point", at=0))
        faults.check("point")  # still alive

    def test_reset_for_worker_restarts_counters(self):
        faults.install(FaultPlan(kind="raise", site="point", at=0))
        with pytest.raises(InjectedFault):
            faults.check("point")
        faults.reset_for_worker()  # fired/seen cleared, plans kept
        with pytest.raises(InjectedFault):
            faults.check("point")


class TestEnvironment:
    def test_env_plans_loaded_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise@point:0")
        faults.clear()
        assert [plan.kind for plan in faults.active()] == ["raise"]
        with pytest.raises(InjectedFault):
            faults.check("point")

    def test_env_plans_parse_without_installing(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise@point:0")
        faults.install()
        assert [plan.site for plan in faults.env_plans()] == ["point"]
        faults.check("point")  # the explicit empty install still holds

    @pytest.mark.parametrize("text", ["garbage", "raise@batch:0"])
    def test_bad_env_spec_names_the_variable(self, monkeypatch, text):
        monkeypatch.setenv(faults.FAULTS_ENV, text)
        with pytest.raises(ConfigurationError, match=faults.FAULTS_ENV):
            faults.env_plans()

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise@point:0")
        faults.clear()
        faults.install()  # explicit empty install: no faults
        faults.check("point")
