"""Unit tests for the multi-phase workload extension."""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.workload.kernel import KernelConfig
from repro.workload.phases import (
    PhasedWorkload,
    WorkloadPhase,
    simulate_phased_job,
)


def _workload(nodes=6):
    return PhasedWorkload(
        name="solver",
        phases=(
            WorkloadPhase("assembly", KernelConfig(intensity=0.25), iterations=10),
            WorkloadPhase("kernel", KernelConfig(intensity=32.0), iterations=10),
        ),
        node_count=nodes,
    )


class TestStructure:
    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            PhasedWorkload(name="w", phases=(), node_count=4)

    def test_rejects_duplicate_phase_names(self):
        phase = WorkloadPhase("p", KernelConfig(intensity=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            PhasedWorkload(name="w", phases=(phase, phase), node_count=4)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            WorkloadPhase("p", KernelConfig(intensity=1.0), iterations=0)


class TestSimulation:
    def test_runs_all_phases(self, execution_model):
        result = simulate_phased_job(
            _workload(), np.ones(6), create_policy("MixedAdaptive"),
            budget_w=6 * 200.0, model=execution_model,
        )
        assert len(result.phase_results) == 2
        assert result.total_elapsed_s > 0
        assert result.total_energy_j > 0

    def test_efficiency_shape_checked(self, execution_model):
        with pytest.raises(ValueError, match="efficiencies"):
            simulate_phased_job(
                _workload(), np.ones(3), create_policy("StaticCaps"),
                budget_w=1200.0, model=execution_model,
            )

    def test_phase_summary_rows(self, execution_model):
        result = simulate_phased_job(
            _workload(), np.ones(6), create_policy("StaticCaps"),
            budget_w=6 * 200.0, model=execution_model,
        )
        rows = result.phase_summary()
        assert len(rows) == 2
        assert rows[0]["phase"] == 0
        assert rows[1]["energy_j"] > 0

    def test_replanning_beats_frozen_caps(self, execution_model):
        """Re-planning at phase boundaries never loses to a frozen phase-0
        allocation, and wins when phases differ in character.

        Phase 0 is memory-bound (over-provisioned caps are harmless but
        the frozen plan carries them into the compute-bound phase 1 the
        wrong way around when the budget is tight).
        """
        workload = PhasedWorkload(
            name="w",
            phases=(
                WorkloadPhase(
                    "imbalanced",
                    KernelConfig(intensity=32.0, waiting_fraction=0.5, imbalance=3),
                    iterations=10,
                ),
                WorkloadPhase("balanced", KernelConfig(intensity=32.0), iterations=10),
            ),
            node_count=6,
        )
        policy = create_policy("MixedAdaptive")
        budget = 6 * 180.0
        replanned = simulate_phased_job(
            workload, np.ones(6), policy, budget,
            model=execution_model, replan_each_phase=True,
        )
        frozen = simulate_phased_job(
            workload, np.ones(6), policy, budget,
            model=execution_model, replan_each_phase=False,
        )
        assert replanned.total_elapsed_s < frozen.total_elapsed_s

    def test_single_phase_equivalence(self, execution_model):
        """With one phase, replanning and frozen execution agree."""
        workload = PhasedWorkload(
            name="w",
            phases=(WorkloadPhase("only", KernelConfig(intensity=8.0), iterations=5),),
            node_count=4,
        )
        policy = create_policy("StaticCaps")
        a = simulate_phased_job(
            workload, np.ones(4), policy, 800.0,
            model=execution_model, replan_each_phase=True,
        )
        b = simulate_phased_job(
            workload, np.ones(4), policy, 800.0,
            model=execution_model, replan_each_phase=False,
        )
        assert a.total_elapsed_s == pytest.approx(b.total_elapsed_s)
