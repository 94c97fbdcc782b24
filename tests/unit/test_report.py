"""Unit tests for the full reproduction report builder."""

import pytest

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.report import build_report, write_report


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self, small_grid, small_grid_results):
        return build_report(small_grid, small_grid_results)

    def test_contains_every_section(self, report):
        for heading in (
            "Table I", "Fig. 6", "Table II", "Table III",
            "Fig. 7", "Fig. 8", "Takeaways", "Headlines",
        ):
            assert heading in report, heading

    def test_embeds_every_text_artifact_verbatim(self, report, small_grid,
                                                 small_grid_results):
        for artifact in ARTIFACTS:
            if artifact.svgs:
                continue
            data = artifact.produce(small_grid, small_grid_results)
            assert f"```\n{artifact.render(data)}\n```" in report, \
                artifact.name

    def test_all_mixes_listed(self, report):
        for mix in ("NeedUsedPower", "HighImbalance", "WastefulPower",
                    "LowPower", "HighPower", "RandomLarge"):
            assert mix in report

    def test_all_checks_pass(self, report):
        assert "FAIL" not in report
        assert report.count("PASS") >= 7

    def test_headlines_state_agreement(self, report):
        assert "All takeaway checks hold: **True**" in report

    def test_scale_recorded(self, report):
        assert "9 jobs x 10 nodes" in report

    def test_markdown_structure(self, report):
        assert report.startswith("# Reproduction report")
        # Code fences are balanced.
        assert report.count("```") % 2 == 0


class TestWriteReport:
    def test_writes_file(self, small_grid, small_grid_results, tmp_path):
        path = write_report(small_grid, tmp_path / "report.md",
                            small_grid_results)
        assert path.read_text().startswith("# Reproduction report")

    def test_creates_parents(self, small_grid, small_grid_results, tmp_path):
        path = write_report(small_grid, tmp_path / "a" / "b" / "report.md",
                            small_grid_results)
        assert path.exists()


class TestCliReport:
    def test_report_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["--scale", "5", "report"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out

    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "out.md"
        assert main(["--scale", "5", "report", "-o", str(target)]) == 0
        assert target.exists()
