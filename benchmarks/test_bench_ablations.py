"""Bench: the DESIGN.md ablation studies (beyond the paper's grid).

Three sweeps: balancer harvest fraction, MixedAdaptive step-4 weighting,
and characterization-noise sensitivity — the design choices the
reproduction calls out as load-bearing.
"""

from repro.analysis.render import render_table
from repro.experiments.ablations import (
    characterization_noise_sweep,
    harvest_fraction_sweep,
    step4_weighting_ablation,
)


def test_harvest_fraction_sweep(benchmark, paper_grid, emit):
    points = benchmark.pedantic(
        harvest_fraction_sweep, args=(paper_grid,),
        kwargs={"fractions": (0.25, 0.5, 0.75, 1.0)},
        rounds=1, iterations=1,
    )
    rows = [
        [f"{p.value:.2f}", f"{p.time_savings_pct:+.1f}%",
         f"{p.energy_savings_pct:+.1f}%"]
        for p in points
    ]
    emit(
        "ablation_harvest_fraction",
        render_table(
            ["harvest fraction", "time savings", "energy savings"],
            rows,
            title="Ablation — balancer aggressiveness (WastefulPower @ max "
                  "budget, MixedAdaptive vs StaticCaps)",
        ),
    )
    energies = [p.energy_savings_pct for p in points]
    assert energies == sorted(energies), "energy savings must grow with harvest"


def test_step4_weighting(benchmark, paper_grid, emit):
    out = benchmark.pedantic(
        step4_weighting_ablation, args=(paper_grid,), rounds=1, iterations=1
    )
    rows = []
    for level, variants in out.items():
        for variant, (t, e) in variants.items():
            rows.append([level, variant, f"{t:+.1f}%", f"{e:+.1f}%"])
    emit(
        "ablation_step4_weighting",
        render_table(
            ["budget", "step-4 surplus", "time savings", "energy savings"],
            rows,
            title="Ablation — MixedAdaptive step-4 weighting (WastefulPower)",
        ),
    )
    # Both variants must stay sane at every level.
    for level, variants in out.items():
        for variant, (t, e) in variants.items():
            assert t > -2.0 and e > -5.0, (level, variant)


def test_characterization_noise(benchmark, paper_grid, emit):
    points = benchmark.pedantic(
        characterization_noise_sweep, args=(paper_grid,),
        kwargs={"noise_levels": (0.0, 0.02, 0.05, 0.10)},
        rounds=1, iterations=1,
    )
    rows = [
        [f"{p.value:.0%}", f"{p.time_savings_pct:+.1f}%",
         f"{p.energy_savings_pct:+.1f}%"]
        for p in points
    ]
    emit(
        "ablation_characterization_noise",
        render_table(
            ["characterization noise", "time savings", "energy savings"],
            rows,
            title="Ablation — policy robustness to characterization error "
                  "(RandomLarge @ ideal budget, MixedAdaptive)",
        ),
    )
    clean = points[0]
    assert clean.time_savings_pct > 0
