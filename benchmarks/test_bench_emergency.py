"""Bench: emergency budget-drop response — QoS in exceptional cases.

The paper's conclusion asks for a policy that "works well in the common
case, and minimizes the loss of quality of service in exceptional cases."
This bench drops each mix's budget from max to min mid-stride and
measures, per policy, the slowdown of the blunt stage-1 clamp versus the
stage-2 re-plan — quantifying how much an application-aware policy is
worth precisely when the facility is in trouble.
"""

from repro.analysis.render import render_table
from repro.core.registry import create_policy
from repro.manager.emergency import respond_to_budget_drop
from repro.sim.execution import SimulationOptions


def test_emergency_response(benchmark, paper_grid, emit):
    mixes = ("WastefulPower", "HighPower", "RandomLarge")
    policies = ("StaticCaps", "MixedAdaptive")

    def drill():
        out = {}
        for mix_name in mixes:
            prepared = paper_grid.prepare_mix(mix_name)
            for policy_name in policies:
                response = respond_to_budget_drop(
                    prepared.scheduled,
                    prepared.characterization,
                    create_policy(policy_name),
                    old_budget_w=prepared.budgets.max_w,
                    new_budget_w=prepared.budgets.min_w,
                    model=paper_grid.model,
                    options=SimulationOptions(noise_std=0.0),
                )
                out[(mix_name, policy_name)] = response
        return out

    responses = benchmark.pedantic(drill, rounds=1, iterations=1)

    rows = []
    for (mix_name, policy_name), response in responses.items():
        impact = response.qos_impact()
        rows.append([
            mix_name, policy_name,
            f"{100 * impact['clamp_slowdown']:.1f}%",
            f"{100 * impact['replanned_slowdown']:.1f}%",
            f"{100 * impact['recovered']:.0f}%",
        ])
    emit(
        "emergency_response",
        render_table(
            ["mix", "policy", "clamp slowdown", "replanned slowdown",
             "penalty recovered"],
            rows,
            title="Emergency budget drop (max -> min): two-stage response",
        ),
    )

    for (mix_name, policy_name), response in responses.items():
        assert response.within_new_budget(), (mix_name, policy_name)
        impact = response.qos_impact()
        # Re-planning never costs materially more than the clamp.  (For
        # StaticCaps it can cost a whisker more: the proportional clamp
        # accidentally preserves per-job differences that the uniform
        # re-plan erases — a finding in its own right.)
        assert impact["replanned_slowdown"] <= impact["clamp_slowdown"] + 0.005

    # Application awareness recovers more of the emergency penalty than
    # the static policy on every drilled mix.
    for mix_name in mixes:
        mixed = responses[(mix_name, "MixedAdaptive")].qos_impact()["recovered"]
        static = responses[(mix_name, "StaticCaps")].qos_impact()["recovered"]
        assert mixed >= static - 1e-9, mix_name
