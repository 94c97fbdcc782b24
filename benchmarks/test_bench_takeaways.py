"""Bench: the paper's §VI takeaways, machine-checked at paper scale.

Runs the takeaway/marker predicates over the full grid and prints the
evidence table — the one-screen summary of whether the reproduction
agrees with every qualitative claim the paper makes.
"""

from repro.analysis.render import render_table
from repro.experiments.takeaways import check_takeaways


def test_takeaways(benchmark, paper_results, emit):
    report = benchmark(check_takeaways, paper_results)

    rows = [
        ["PASS" if report.checks[name] else "FAIL", name, report.evidence[name]]
        for name in report.checks
    ]
    emit(
        "takeaways",
        render_table(["status", "check", "evidence"], rows,
                     title="Paper takeaways and markers, checked at paper scale"),
    )

    assert report.all_hold(), report.failed()
