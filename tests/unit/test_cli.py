"""Unit tests for the command-line interface."""

import json

import pytest

from repro import telemetry
from repro.cli import build_parser, main
from repro.telemetry import PROVENANCE_SCHEMA, Span, load_ledger


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    """In-process ``main()`` keeps the global tracer: each test reads
    spans it alone recorded, not ones an earlier command left behind."""
    telemetry.reset()
    yield
    telemetry.reset()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_default(self):
        args = build_parser().parse_args(["survey"])
        assert args.scale == 10

    def test_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "NotAMix"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_epilog_shows_examples(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "examples:" in out
        assert "telemetry" in out


class TestCommands:
    def test_survey(self, capsys):
        assert main(["--scale", "5", "survey"]) == 0
        out = capsys.readouterr().out
        assert "medium" in out and "GHz" in out

    def test_facility(self, capsys):
        assert main(["facility"]) == 0
        out = capsys.readouterr().out
        assert "rating_mw" in out

    def test_budgets_single_mix(self, capsys):
        assert main(["--scale", "5", "budgets", "LowPower"]) == 0
        out = capsys.readouterr().out
        assert "LowPower" in out
        assert "HighPower" not in out

    def test_budgets_all_mixes(self, capsys):
        assert main(["--scale", "5", "budgets"]) == 0
        out = capsys.readouterr().out
        assert "LowPower" in out and "HighPower" in out

    def test_characterize_with_save(self, capsys, tmp_path):
        path = tmp_path / "char.json"
        assert main(
            ["--scale", "5", "characterize", "WastefulPower", "--save", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["format"].startswith("repro.mix-characterization")
        out = capsys.readouterr().out
        assert "observed W/node" in out

    def test_grid_one_mix_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        assert main(
            ["--scale", "5", "grid", "--mix", "LowPower", "--csv", str(csv_path)]
        ) == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "MixedAdaptive" in out

    def test_grid_check_skipped_for_partial_mixes(self, capsys):
        assert main(["--scale", "5", "grid", "--mix", "LowPower", "--check"]) == 0
        out = capsys.readouterr().out
        assert "skipping" in out

    def test_grid_full_check_passes(self, capsys):
        assert main(["--scale", "5", "grid", "--check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_telemetry_command(self, capsys):
        assert main(["--scale", "4", "telemetry"]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out
        assert "Spans" in out
        assert "runtime.controller.run |" in out
        assert "Events by source" in out

    def test_telemetry_command_with_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "telemetry"
        assert main(["--scale", "4", "telemetry", "-o", str(out_dir)]) == 0
        assert (out_dir / "metrics.txt").exists()
        lines = (out_dir / "events.jsonl").read_text().strip().splitlines()
        rows = [json.loads(line) for line in lines]
        layers = {row["source"].split(".")[0] for row in rows}
        # The probe + grid cell + site pass cover all three stack layers.
        assert {"runtime", "manager", "experiments"} <= layers
        # The ledger validates on the way back in, and its metrics block
        # holds exact counters only.
        ledger = load_ledger(out_dir / "provenance.json")
        assert ledger["schema"] == PROVENANCE_SCHEMA
        assert set(ledger["metrics"]) == {"counters"}
        assert ledger["metrics"]["counters"]
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["schema"] == "repro.trace.v2"
        assert trace["spans"]
        for span_dict in trace["spans"]:
            assert "counters" not in span_dict
            assert Span.from_dict(span_dict).to_dict() == span_dict

    def test_grid_telemetry_out(self, capsys, tmp_path):
        out_dir = tmp_path / "t"
        assert main(
            ["--scale", "4", "grid", "--mix", "LowPower",
             "--telemetry-out", str(out_dir)]
        ) == 0
        metrics = (out_dir / "metrics.txt").read_text()
        assert "runtime.controller.run |" in metrics
        assert "sim.simulate_cap_batch |" in metrics
        assert (out_dir / "events.csv").exists()

    def test_figures_command(self, capsys, tmp_path):
        from repro.cli import main

        out_dir = tmp_path / "figs"
        assert main(["--scale", "5", "figures", "-o", str(out_dir)]) == 0
        assert (out_dir / "fig1_facility.svg").exists()
        listed = capsys.readouterr().out
        assert "fig8_energy" in listed


class TestWorkersAndCacheFlags:
    def test_workers_default_is_none(self):
        args = build_parser().parse_args(["survey"])
        assert args.workers is None

    def test_workers_parses_positive(self):
        args = build_parser().parse_args(["--workers", "4", "survey"])
        assert args.workers == 4

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_workers_rejects_bad_values_with_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--workers", value, "survey"])
        assert exc.value.code == 2
        assert "positive int" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_scale_rejects_nonpositive_with_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--scale", value, "survey"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_grid_with_workers_runs(self, capsys):
        assert main(
            ["--scale", "4", "--workers", "2", "grid", "--mix", "LowPower"]
        ) == 0
        assert "Savings vs StaticCaps" in capsys.readouterr().out


class TestSiteCommand:
    def test_site_defaults(self):
        args = build_parser().parse_args(["site"])
        assert args.policy == "MixedAdaptive"
        assert args.jobs == 6
        assert args.replays == 4

    def test_site_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["site", "--policy", "NotAPolicy"])

    def test_site_rejects_zero_replays(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["site", "--replays", "0"])
        assert exc.value.code == 2

    def test_site_runs_and_reports(self, capsys):
        assert main(
            ["--scale", "4", "site", "--jobs", "3", "--replays", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Site simulation" in out
        assert "makespan" in out


class TestFacilitySimCommand:
    @pytest.mark.parametrize("flag,value,message", [
        ("--window", "-5", "positive number"),
        ("--window", "nan", "positive number"),
        ("--horizon", "0", "positive number"),
        ("--budget-fraction", "1.5", "fraction in (0, 1]"),
        ("--budget-fraction", "0", "fraction in (0, 1]"),
    ])
    def test_bad_values_exit_2_without_traceback(self, flag, value,
                                                 message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["facility-sim", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a {message}" in err
        assert "Traceback" not in err

    def test_engine_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["facility-sim", "--engine", "fused"])
        assert exc.value.code == 2

    def test_worker_groups_run_and_report(self, capsys):
        assert main(
            ["--workers", "2", "facility-sim", "--clusters", "3",
             "--nodes-per-cluster", "16", "--jobs", "2", "--rows", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Facility campaign" in out
        assert "cluster-02" in out


class TestFaultsCommand:
    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.scenarios is None
        assert args.policies is None
        assert not args.check
        assert not args.list_only

    def test_faults_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--scenario", "meteor"])

    def test_faults_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--policy", "NotAPolicy"])

    def test_faults_list_names_scenarios(self, capsys):
        from repro.faults.scenarios import SCENARIO_NAMES

        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_faults_single_cell_reports_matrix(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert main(
            ["faults", "--scenario", "budget-step",
             "--policy", "StaticCaps"]
        ) == 0
        out = capsys.readouterr().out
        assert "Resilience suite" in out
        assert "budget-step" in out
        assert "QoS loss" in out

    def test_faults_check_passes_on_feasible_scenario(self, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert main(
            ["faults", "--scenario", "budget-step",
             "--policy", "MixedAdaptive", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out


class TestStreamCommand:
    ARGS = ["--scale", "3", "stream", "--per-job-batches",
            "--admission-interval", "4", "--budget-drop", "0.6",
            "--duration", "60"]

    def test_batch_run_conserves_jobs(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Streaming site engine" in out

    def test_unconserved_jobs_exit_1(self, capsys, monkeypatch):
        # A run cut short leaves jobs pending: the command must fail.
        from repro.stream.engine import SiteStreamEngine

        run = SiteStreamEngine.run
        monkeypatch.setattr(SiteStreamEngine, "run",
                            lambda self: run(self, max_events=20))
        assert main(self.ARGS) == 1
        assert "jobs not conserved" in capsys.readouterr().err
