"""Bench: the over-provisioning curve behind the paper's motivation.

For a fixed 216 kW facility budget (the Table III TDP footnote), sweep
fleet sizes from TDP-provisioned (900 nodes, uncapped) toward
floor-provisioned (~1588 nodes, maximally capped) for a compute-bound and
a memory-bound workload.  For fleet-parallel throughput both curves rise
monotonically — capped nodes are more energy-proportional than uncapped
ones — with the memory-bound gain far larger; that monotone gain is the
economic case for the over-provisioned, policy-managed operation the
paper's stack enables (paper §I and ref [7]).
"""

from repro.analysis.render import render_table
from repro.experiments.provisioning import overprovisioning_curve
from repro.workload.kernel import KernelConfig

FACILITY_W = 216_000.0  # Table III footnote: TDP of all CPUs


def test_overprovisioning_curve(benchmark, emit):
    compute_bound = KernelConfig(intensity=32.0)
    memory_bound = KernelConfig(intensity=0.25)

    def sweep():
        return (
            overprovisioning_curve(compute_bound, FACILITY_W, points=12),
            overprovisioning_curve(memory_bound, FACILITY_W, points=12),
        )

    cpu_curve, mem_curve = benchmark(sweep)

    rows = []
    for point_cpu, point_mem in zip(cpu_curve.points, mem_curve.points):
        rows.append([
            point_cpu.nodes,
            f"{point_cpu.cap_per_node_w:.0f} W",
            f"{point_cpu.fleet_gflops / 1e3:.1f}",
            f"{point_mem.fleet_gflops / 1e3:.1f}",
        ])
    emit(
        "provisioning_curve",
        render_table(
            ["nodes", "cap/node", "compute-bound TFLOPS",
             "memory-bound TFLOPS"],
            rows,
            title=f"Fleet throughput at a fixed {FACILITY_W / 1e3:.0f} kW "
                  "facility budget",
        ),
    )

    # Over-provisioning beats TDP sizing for both workload classes.
    assert cpu_curve.gain_over_tdp_provisioning() > 0.05
    assert mem_curve.gain_over_tdp_provisioning() > 0.05
    # For fleet-parallel throughput the gain is monotone in fleet size
    # (capped nodes are more energy-proportional than uncapped ones)...
    cpu_tput = [p.fleet_gflops for p in cpu_curve.points]
    assert all(b >= a for a, b in zip(cpu_tput, cpu_tput[1:]))
    # ...and memory-bound workloads, nearly cap-insensitive, gain the most.
    assert (
        mem_curve.gain_over_tdp_provisioning()
        > cpu_curve.gain_over_tdp_provisioning() + 0.1
    )
    # Per-node performance falls as caps tighten (nothing is free).
    assert (
        cpu_curve.points[-1].per_node_gflops
        < cpu_curve.points[0].per_node_gflops
    )