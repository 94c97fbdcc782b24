"""Unit tests for the emergency power-capping response."""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.faults.degradation import (
    InfeasibleBudgetError,
    proportional_clamp_caps,
)
from repro.manager.emergency import (
    EmergencyResponse,
    respond_to_budget_change,
    respond_to_budget_drop,
)
from repro.telemetry import get_tracer, recording


class TestEmergencyClamp:
    def test_meets_new_budget(self):
        caps = np.array([240.0, 200.0, 180.0])
        out = proportional_clamp_caps(caps, 500.0, 136.0)
        assert float(np.sum(out)) <= 500.0 + 1e-6

    def test_proportional_above_floor(self):
        caps = np.array([236.0, 186.0])  # above-floor 100, 50
        out = proportional_clamp_caps(caps, 372.0, 136.0)
        np.testing.assert_allclose(out, [136 + 100 * 2 / 3, 136 + 50 * 2 / 3])

    def test_noop_when_budget_suffices(self):
        caps = np.array([200.0, 200.0])
        out = proportional_clamp_caps(caps, 500.0, 136.0)
        np.testing.assert_array_equal(out, caps)

    def test_infeasible_budget_returns_floor(self):
        caps = np.array([240.0, 240.0])
        out = proportional_clamp_caps(caps, 100.0, 136.0)
        np.testing.assert_allclose(out, 136.0)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            proportional_clamp_caps(np.array([200.0]), 0.0, 136.0)

    def test_strict_raises_on_infeasible_budget(self):
        caps = np.array([240.0, 240.0])
        with pytest.raises(InfeasibleBudgetError) as info:
            proportional_clamp_caps(caps, 100.0, 136.0, strict=True)
        assert info.value.budget_w == 100.0
        assert info.value.floor_power_w == pytest.approx(272.0)
        assert info.value.host_count == 2
        assert "272.0 W" in str(info.value)

    def test_strict_passes_on_feasible_budget(self):
        caps = np.array([240.0, 240.0])
        out = proportional_clamp_caps(caps, 300.0, 136.0, strict=True)
        assert float(np.sum(out)) <= 300.0 + 1e-6


class TestRespondToBudgetDrop:
    @pytest.fixture(scope="class")
    def response(self, scheduled_wasteful, execution_model) -> EmergencyResponse:
        prepared = scheduled_wasteful
        char = prepared.characterization
        return respond_to_budget_drop(
            prepared.scheduled,
            char,
            create_policy("MixedAdaptive"),
            old_budget_w=prepared.budgets.max_w,
            new_budget_w=prepared.budgets.min_w,
            model=execution_model,
        )

    def test_rejects_budget_rise(self, scheduled_wasteful, execution_model):
        prepared = scheduled_wasteful
        with pytest.raises(ValueError, match="drop"):
            respond_to_budget_drop(
                prepared.scheduled,
                prepared.characterization,
                create_policy("MixedAdaptive"),
                old_budget_w=1000.0,
                new_budget_w=2000.0,
                model=execution_model,
            )

    def test_both_stages_within_new_budget(self, response):
        assert response.within_new_budget()

    def test_clamp_slows_execution(self, response):
        impact = response.qos_impact()
        assert impact["clamp_slowdown"] > 0.0

    def test_replan_no_worse_than_clamp(self, response):
        impact = response.qos_impact()
        assert impact["replanned_slowdown"] <= impact["clamp_slowdown"] + 1e-9

    def test_replan_recovers_some_qos(self, response):
        """On a waste-heavy mix the application-aware re-plan recovers a
        meaningful fraction of the clamp's penalty."""
        impact = response.qos_impact()
        assert impact["recovered"] > 0.1

    def test_static_policy_recovers_nothing_special(
        self, scheduled_wasteful, execution_model
    ):
        """With StaticCaps on a uniform state, stage 2's re-plan is just
        another uniform distribution — recovery is ~0 by construction."""
        prepared = scheduled_wasteful
        response = respond_to_budget_drop(
            prepared.scheduled,
            prepared.characterization,
            create_policy("StaticCaps"),
            old_budget_w=prepared.budgets.max_w,
            new_budget_w=prepared.budgets.min_w,
            model=execution_model,
        )
        mixed_impact = response.qos_impact()
        # StaticCaps' stage-2 equals its stage-1 outcome within noise.
        assert abs(
            mixed_impact["replanned_slowdown"] - mixed_impact["clamp_slowdown"]
        ) < 0.02

    def test_feasible_drop_has_zero_overshoot(self, response):
        overshoot = response.overshoot_watt_seconds()
        assert overshoot["clamp"] == pytest.approx(0.0, abs=1e-6)
        assert overshoot["replanned"] == pytest.approx(0.0, abs=1e-6)


class TestRespondToBudgetChange:
    def test_floor_infeasible_budget_flagged(
        self, scheduled_wasteful, execution_model
    ):
        """A budget below hosts x floor completes (policies degrade to the
        all-floor state) but the response must say the clamp failed."""
        prepared = scheduled_wasteful
        char = prepared.characterization
        floor_w = char.host_count * char.min_cap_w
        response = respond_to_budget_change(
            prepared.scheduled,
            char,
            create_policy("MixedAdaptive"),
            old_budget_w=prepared.budgets.max_w,
            new_budget_w=0.9 * floor_w,
            model=execution_model,
        )
        assert not response.clamp_feasible
        assert response.floor_power_w == pytest.approx(floor_w)
        # Even if the waiting-heavy mix happens to draw under the budget,
        # the infeasibility flag alone must fail the response.
        assert not response.within_new_budget()

    def test_equal_budgets_are_a_noop_replan(
        self, scheduled_wasteful, execution_model
    ):
        """Near-equal budgets must not raise: the clamp stage keeps the
        old caps and stage 2 re-plans at the (identical) budget."""
        prepared = scheduled_wasteful
        budget = prepared.budgets.ideal_w
        response = respond_to_budget_change(
            prepared.scheduled,
            prepared.characterization,
            create_policy("MixedAdaptive"),
            old_budget_w=budget,
            new_budget_w=budget,
            model=execution_model,
        )
        assert response.clamp_feasible
        assert response.within_new_budget()
        impact = response.qos_impact()
        # Stage 1 keeps the old caps: no clamp penalty on a flat budget.
        assert impact["clamp_slowdown"] == pytest.approx(0.0, abs=1e-9)

    def test_budget_rise_reclaims_headroom(
        self, scheduled_wasteful, execution_model
    ):
        """A restore event re-plans into the larger budget and speeds the
        mix up rather than raising like respond_to_budget_drop."""
        prepared = scheduled_wasteful
        response = respond_to_budget_change(
            prepared.scheduled,
            prepared.characterization,
            create_policy("MixedAdaptive"),
            old_budget_w=prepared.budgets.min_w,
            new_budget_w=prepared.budgets.max_w,
            model=execution_model,
        )
        assert response.clamp_feasible
        assert response.within_new_budget()
        impact = response.qos_impact()
        assert impact["replanned_slowdown"] < 0.0

    def test_app_aware_recovers_more_than_unaware(
        self, scheduled_wasteful, execution_model
    ):
        """On a waste-heavy mix the application-aware policy's stage-2
        re-plan recovers more of the clamp penalty than StaticCaps."""
        prepared = scheduled_wasteful

        def recovered(policy_name):
            return respond_to_budget_change(
                prepared.scheduled,
                prepared.characterization,
                create_policy(policy_name),
                old_budget_w=prepared.budgets.max_w,
                new_budget_w=prepared.budgets.min_w,
                model=execution_model,
            ).qos_impact()["recovered"]

        assert recovered("MixedAdaptive") > recovered("StaticCaps") + 0.05

    def test_one_engine_pass_per_response(
        self, scheduled_wasteful, execution_model
    ):
        """Baseline, clamp and re-plan run as one three-row engine call."""
        prepared = scheduled_wasteful
        get_tracer().clear()
        with recording():  # the span's attributes are read back
            respond_to_budget_change(
                prepared.scheduled,
                prepared.characterization,
                create_policy("MixedAdaptive"),
                old_budget_w=prepared.budgets.max_w,
                new_budget_w=prepared.budgets.min_w,
                model=execution_model,
            )
        engine = [s for s in get_tracer().finished()
                  if s.name.startswith("sim.simulate_")]
        get_tracer().clear()
        assert [s.name for s in engine] == ["sim.simulate_cap_batch"]
        assert engine[0].attributes["scenarios"] == 3
