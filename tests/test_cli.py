"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert args.strategy == "MXR"
        assert args.k == 2
        assert not args.tables

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--strategy", "NOPE"])

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--preset", "nope"])

    def test_batch_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch"])

    def test_batch_defaults(self):
        args = build_parser().parse_args(
            ["batch", "--experiment", "fig7"])
        assert args.profile == "quick"
        assert args.workers == 1
        assert args.checkpoint is None
        assert not args.no_resume

    def test_fig_sweeps_accept_workers(self):
        args = build_parser().parse_args(["fig7", "--workers", "3"])
        assert args.workers == 3

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {repro.__version__}"
        # Sourced from package metadata, not a drifting constant.
        assert repro.__version__[0].isdigit()


class TestCommands:
    def test_synth_synthetic(self, capsys):
        code = main(["synth", "--processes", "6", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy MXR" in out
        assert "FTO" in out

    def test_synth_with_tables(self, capsys):
        code = main(["synth", "--processes", "4", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4", "--tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schedule table" in out
        assert "table memory" in out

    def test_tables_fig5(self, capsys):
        code = main(["tables", "--preset", "fig5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P3" in out
        assert "F[" in out  # condition rows

    def test_verify_ok(self, capsys):
        code = main(["verify", "--processes", "4", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4", "--chunks", "2",
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all scenarios tolerated" in out
        assert "CERTIFIED" in out
        assert "simulated exhaustively" in out

    def test_verify_preset_fig3(self, capsys):
        code = main(["verify", "--preset", "fig3", "--k", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--chunks", "2", "--workers", "1"])
        assert code == 0

    def test_verify_fig5_transparency_and_json(self, capsys,
                                               tmp_path):
        out_path = tmp_path / "verify.json"
        code = main(["verify", "--preset", "fig5", "--k", "2",
                     "--iterations", "4", "--neighborhood", "4",
                     "--chunks", "2", "--workers", "1",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "transparency violations 0" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["certified"] is True
        assert payload["verify"]["workload"] == "fig5"

    def test_synth_preset_cruise(self, capsys):
        code = main(["synth", "--preset", "cruise", "--k", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--strategy", "MX"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cruise-controller" in out


@pytest.fixture
def tiny_quick_profiles(monkeypatch):
    """Shrink the quick profiles so CLI sweep tests stay fast."""
    from repro.experiments.fig7 import Fig7Config
    from repro.experiments.fig8 import Fig8Config
    from repro.synthesis.tabu import TabuSettings

    tiny = TabuSettings(iterations=4, neighborhood=4,
                        bus_contention=False)
    monkeypatch.setattr(
        Fig7Config, "quick",
        classmethod(lambda cls: cls(sizes=(8,), seeds=(1,),
                                    settings=tiny)))
    monkeypatch.setattr(
        Fig8Config, "quick",
        classmethod(lambda cls: cls(sizes=(8,), seeds=(1,),
                                    settings=tiny)))


class TestBatchCommand:
    def test_batch_fig7_writes_outputs(self, tiny_quick_profiles,
                                       tmp_path, capsys):
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        ckpt = tmp_path / "ckpt.jsonl"
        code = main(["batch", "--experiment", "fig7",
                     "--checkpoint", str(ckpt),
                     "--out", str(out), "--csv", str(csv)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "1 executed, 0 resumed" in printed
        assert "cache hit rate" in printed
        assert out.exists() and csv.exists() and ckpt.exists()

    def test_batch_fig7_resumes(self, tiny_quick_profiles, tmp_path,
                                capsys):
        ckpt = tmp_path / "ckpt.jsonl"
        main(["batch", "--experiment", "fig7",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        code = main(["batch", "--experiment", "fig7",
                     "--checkpoint", str(ckpt)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "0 executed, 1 resumed" in printed

    def test_batch_fig8_runs(self, tiny_quick_profiles, capsys):
        code = main(["batch", "--experiment", "fig8"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "FTO[27]" in printed


class TestCampaignCommand:
    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.sampler == "stratified"
        assert args.samples == 200
        assert args.chunks == 4
        assert args.workers == 4
        assert args.checkpoint is None

    def test_campaign_bad_sampler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--sampler", "nope"])

    def test_campaign_preset_choices(self):
        args = build_parser().parse_args(
            ["campaign", "--preset", "forkjoin"])
        assert args.preset == "forkjoin"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--preset", "fig5"])

    def test_new_workload_presets_accepted(self):
        for preset in ("chain", "forkjoin", "bursty"):
            args = build_parser().parse_args(
                ["synth", "--preset", preset])
            assert args.preset == preset

    def test_campaign_runs_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        ckpt = tmp_path / "campaign.ckpt.jsonl"
        argv = ["campaign", "--processes", "5", "--nodes", "2",
                "--seed", "3", "--k", "1", "--samples", "8",
                "--chunks", "2", "--iterations", "4",
                "--neighborhood", "4", "--checkpoint", str(ckpt),
                "--out", str(out)]
        code = main(argv)
        printed = capsys.readouterr().out
        assert code == 0
        assert "plans simulated" in printed
        assert "plans beyond the estimate bound 0" in printed
        assert out.exists() and ckpt.exists()
        # A rerun resumes every chunk and reproduces the report.
        before = out.read_text()
        code = main(argv)
        printed = capsys.readouterr().out
        assert code == 0
        assert "0 executed, 2 resumed" in printed
        assert out.read_text() == before

    def test_campaign_certify(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--processes", "4", "--nodes", "2",
                     "--seed", "3", "--k", "1", "--samples", "4",
                     "--chunks", "2", "--workers", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--certify", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "CERTIFIED" in printed
        assert "verified exhaustively" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["verification"]["certified"] is True


class TestEngineFlagValidation:
    """Invalid engine flag combinations die at parse time with a
    usage error, not mid-sweep with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--workers", "0"],
        ["verify", "--chunks", "-2"],
        ["batch", "--experiment", "fig7", "--workers", "nope"],
        ["dse", "--lease-size", "0"],
        ["campaign", "--lease-timeout", "0"],
        ["worker", "--workdir", "wd", "--lease-timeout", "-1"],
    ])
    def test_bad_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, hint", [
        (["verify", "--backend", "workdir"], "--workdir"),
        (["dse", "--backend", "serial", "--workdir", "wd"],
         "workdir backend"),
        (["batch", "--experiment", "fig7", "--workdir", "wd",
          "--checkpoint", "c.jsonl"], "the workdir is the checkpoint"),
    ])
    def test_bad_combinations_rejected(self, argv, hint, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert hint in capsys.readouterr().err

    def test_bogus_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--backend", "threads"])
        assert "invalid choice" in capsys.readouterr().err


class TestLibraryErrorBoundary:
    """A ReproError raised by a command prints one error line and
    exits 2 (argparse's usage-error code), never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--processes", "0"],
         "repro: error: need at least one process"),
        (["verify", "--processes", "5", "--nodes", "2", "--k", "2",
          "--iterations", "2", "--neighborhood", "2", "--chunks", "1",
          "--max-scenarios", "2"],
         "exceed the verification limit 2"),
    ], ids=["invalid-workload", "scenario-limit"])
    def test_repro_error_exits_two(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err


class TestWorkdirCli:
    VERIFY = ["verify", "--processes", "5", "--nodes", "2",
              "--seed", "1", "--k", "1", "--iterations", "4",
              "--neighborhood", "4", "--chunks", "2"]

    def test_verify_workdir_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        workdir_out = tmp_path / "workdir.json"
        assert main([*self.VERIFY, "--backend", "serial",
                     "--out", str(serial_out)]) == 0
        assert main([*self.VERIFY, "--backend", "workdir",
                     "--workdir", str(tmp_path / "wd"),
                     "--out", str(workdir_out)]) == 0
        capsys.readouterr()
        assert workdir_out.read_bytes() == serial_out.read_bytes()

    def test_worker_drains_a_workdir(self, tmp_path, capsys):
        from repro.engine import BatchJob, Workdir

        jobs = [BatchJob.create(f"cell-{i}", "engine_runners:echo",
                                name=f"cell-{i}", value=i)
                for i in range(3)]
        Workdir(tmp_path / "wd").initialize(jobs, lease_size=1)
        code = main(["worker", "--workdir", str(tmp_path / "wd"),
                     "--worker-id", "cli-worker", "--max-idle", "1"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "3 job(s) executed" in printed
        # The drained workdir resumes: the engine recomputes nothing.
        from repro.engine import BatchEngine, EngineConfig
        report = BatchEngine(EngineConfig(
            workdir=tmp_path / "wd", lease_size=1)).run(jobs)
        assert report.resumed == 3

    def test_cache_dir_flag_exports_environment(self, tmp_path,
                                                monkeypatch,
                                                capsys):
        import os

        from repro.eval import CACHE_DIR_ENV

        # setenv (not delenv) so teardown removes whatever main()
        # exported and the variable never leaks into later tests.
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        cache = tmp_path / "cache"
        assert main([*self.VERIFY, "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert os.environ[CACHE_DIR_ENV] == str(cache)
        assert any(cache.rglob("*.pkl"))
