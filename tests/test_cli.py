"""Configuration parsing and the command line harness."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympext as sx
from sympext.cli import _write_csv, build_parser, main
from sympext.config import ExperimentConfig, apply_overrides, config_presets, dump_config, parse_config_text


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig().validate()
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_full_round_trip(self):
        cfg = ExperimentConfig(
            system="nls", n_modes=5, q0=(3.0, 0.01, 0.01, 0.01, 0.01),
            p0=(1.0, 0.0, 0.0, 0.0, 0.0), delta=1e-3, omega=100.0, order=6,
            t_final=2.5, gamma=1e-4, stride=7, deltas=(0.1, 0.01),
            shell=12.5, grid_q=(-1.0, 1.0, 5),
        ).validate()
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nsystem = product1d  # trailing\nomega = 5\n")
        assert cfg.system == "product1d"
        assert cfg.omega == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(sx.ConfigError, match="unknown key 'foo'"):
            parse_config_text("foo = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(sx.ConfigError, match="duplicate"):
            parse_config_text("omega = 1\nomega = 2\n")

    def test_bad_number_rejected(self):
        with pytest.raises(sx.ConfigError, match="delta"):
            parse_config_text("delta = fast\n")

    def test_validation_messages_name_keys(self):
        with pytest.raises(sx.ConfigError, match="order"):
            ExperimentConfig(order=3).validate()
        with pytest.raises(sx.ConfigError, match="system"):
            ExperimentConfig(system="pendulum").validate()

    @pytest.mark.parametrize("order, n_modes", [(8, 64), (10, 21), (12, 7)])
    def test_order_and_modes_at_their_joint_bound_validate(self, order, n_modes):
        ExperimentConfig(system="nls", n_modes=n_modes, order=order).validate()

    def test_duration_exclusivity(self):
        with pytest.raises(sx.ConfigError, match="mutually exclusive"):
            ExperimentConfig(t_final=1.0, n_steps=5).validate()
        with pytest.raises(sx.ConfigError, match="duration"):
            ExperimentConfig().resolved_steps()
        assert ExperimentConfig(t_final=1.0, delta=0.1).resolved_steps() == 10

    def test_apply_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), {"omega": 3.0})
        assert cfg.omega == 3.0
        with pytest.raises(sx.ConfigError):
            apply_overrides(ExperimentConfig(), {"nonsense": 1})

    def test_presets_all_valid(self):
        for name, cfg in config_presets().items():
            cfg.validate()


def write_config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestIntegrateCommand:
    def test_zero_steps_single_row(self, tmp_path):
        cfg = write_config(tmp_path, "system = product1d\nn_steps = 0\ndelta = 0.1\n")
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q0,p0,x0,y0,H,Hbar"
        assert len(lines) == 2

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path, "system = product1d\nt_final = 5\ndelta = 0.01\nomega = 20\norder = 4\n"
        )
        main(["integrate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["integrate", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_rows_hold_the_trajectory_bits(self, tmp_path):
        # More rows than one conversion block (cli._CSV_BLOCK) at d = 2: every cell reads back as the run's float.
        text = "system = nls\nn_modes = 2\ndelta = 0.01\nomega = 50\nn_steps = 5000\norder = 2\n"
        assert main(["integrate", "--config", write_config(tmp_path, text), "--out", str(tmp_path)]) == 0
        table = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        model = sx.get_model("nls", 2)
        traj = sx.integrate(*sx.default_initial_condition("nls", 2), sx.IntegratorConfig(0.01, 50.0, 2, 5000), model)
        energies = [model.value(*traj.projected()), sx.extended_energy(model, 50.0, traj.states)]
        parts = sx.state_from_array(traj.states)
        np.testing.assert_array_equal(table, np.column_stack([traj.times, *parts, *energies]))

    @pytest.mark.parametrize("command, base, cfg_text", [
        ("integrate", "trajectory", "system = product1d\nt_final = 1\ndelta = 0.05\nomega = 7\n"),
        ("table", "table", "system = product1d\nt_final = 1\nomegas = 5,10\norder = 2\n"),
        ("nls", "observables", "system = nls\nn_modes = 2\ndelta = 0.01\nomega = 50\nt_final = 0.5\norder = 2\n"),
        ("compare", "compare", "system = schwarzschild\ndelta = 0.2\nomega = 2\nt_final = 2\norder = 2\n"),
        ("poincare", "section", "system = product1d\nomega = 2\ngrid_q = -1:1:2\ngrid_p = -1:1:2\nmax_crossings = 3\n"),
    ], ids=["integrate", "table", "nls", "compare", "poincare"])
    def test_metadata_round_trips(self, tmp_path, command, base, cfg_text):
        # Every subcommand's .meta re-parses to the config of its run.
        cfg = write_config(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        meta = (tmp_path / f"{base}.meta").read_text()
        assert parse_config_text(meta) == parse_config_text(cfg_text)

    def test_escape_abort_exit_code(self, tmp_path):
        # The mode system blows through the escape bound at this huge step.
        cfg = write_config(
            tmp_path,
            "system = nls\nn_modes = 2\nq0 = 8,0\np0 = 0,8\ndelta = 1\n"
            "t_final = 400\nomega = 0\nescape_bound = 1e6\n",
        )
        code = main(["integrate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        meta = (tmp_path / "trajectory.meta").read_text()
        assert "aborted" in meta

    def test_domain_abort_keeps_partial_trajectory(self, tmp_path):
        # The orbit falls through the horizon mid-run: the samples before
        # the failing step are still written.
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\nq0 = 0,2.6,0\np0 = 0.9,-1.5,-3\ndelta = 0.05\n"
            "omega = 2\nt_final = 20\n",
        )
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 3
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,q0,q1,q2,p0,p1,p2,x0,x1,x2,y0,y1,y2,H,Hbar"
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert 1 < len(data) < 401
        assert np.all(data[:, 2] > 2.0)
        # H and Hbar are NaN only where a copy has already crossed r = 2.
        outside = np.minimum(data[:, 2], data[:, 8]) <= 2.0
        assert outside[-1] and np.array_equal(np.isnan(data[:, -1]), outside)
        meta = (tmp_path / "trajectory.meta").read_text()
        assert "aborted" in meta and "horizon" in meta

    def test_last_sample_inside_horizon_is_numeric_abort(self, tmp_path):
        # The same orbit, stopped at the first sample whose second copy is
        # already inside r = 2: no step is refused, but its energies are
        # undefined, so the run still ends with the numeric-abort code.
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\nq0 = 0,2.6,0\np0 = 0.9,-1.5,-3\ndelta = 0.05\n"
            "omega = 2\nt_final = 3.45\n",
        )
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 3
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert len(data) == 70 and data[-1, 8] < 2.0
        assert np.array_equal(np.isnan(data[:, -1]), np.arange(70) == 69)
        meta = (tmp_path / "trajectory.meta").read_text()
        assert "aborted" not in meta and "outside the domain at t = 3.45" in meta and "horizon" in meta

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["integrate", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, text", [
        ("integrate", "t_final = inf\n"),
        ("integrate", "t_final = 1\ngamma = nan\n"),
        ("integrate", "t_final = 1\nescape_bound = nan\n"),
        ("poincare", "shell = nan\ngrid_q = -1:1:2\ngrid_p = -1:1:2\n"),
        ("table", "q0 = -3\np0 = 0\nt_final = 1\ndeltas = 0.01,nan\n"),
    ], ids=["t_final", "gamma", "escape_bound", "shell", "deltas"])
    def test_non_finite_real_is_config_error(self, tmp_path, command, text):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "turbo = yes\n")
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("order = 14\n", "order: must be an even integer from 2 to 12, got 14"),
        ("system = nls\nn_modes = 65\n", "n_modes: need 2 to 64, got 65"),
        ("system = nls\nn_modes = 64\norder = 12\n",
         "order and n_modes: 46720 unrolled stage gradients, above 5248"),
        ("system = nls\nn_modes = 22\norder = 10\n",
         "order and n_modes: 5368 unrolled stage gradients, above 5248"),
    ], ids=["order", "n_modes", "order_12_at_64_modes", "order_10_at_22_modes"])
    def test_key_that_grows_the_step_source_is_bounded(self, tmp_path, capsys, text, message):
        # Each two orders triple the generated step's A/B stages, and each unrolls the gradient over the modes.
        cfg = write_config(tmp_path, text + "n_steps = 1\n")
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", ["order = 12\n", "system = nls\nn_modes = 64\n"], ids=["order", "n_modes"])
    def test_key_at_its_bound_runs(self, tmp_path, text):
        cfg = write_config(tmp_path, text + "n_steps = 1\n")
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 3


class TestTableCommand:
    def test_single_point_no_fit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = product1d\nomegas = 20\ndelta = 0.02\nt_final = 5\norder = 4\n",
        )
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()
        assert rows[0] == "omega,max_amplitude_error,max_phase_error,status"
        assert len(rows) == 2
        meta = (tmp_path / "table.meta").read_text()
        assert "no slope fit" in meta
        assert "slope_amplitude" not in meta

    def test_scan_with_fit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = product1d\ndeltas = 0.02,0.01,0.005\nomega = 20\nt_final = 5\norder = 2\n",
        )
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 0
        meta = (tmp_path / "table.meta").read_text()
        slope = float([l for l in meta.splitlines() if "slope_amplitude" in l][0].split("=")[1])
        assert slope == pytest.approx(2.0, abs=0.35)

    def test_zero_steps_reports_the_start_errors(self, tmp_path):
        cfg = write_config(tmp_path, "system = product1d\nomegas = 20\nn_steps = 0\n")
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].endswith(",ok")

    def test_both_scans_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "system = product1d\nomegas = 1,2\ndeltas = 0.1,0.2\nt_final = 1\n")
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_workers_match_serial(self, tmp_path):
        text = "system = product1d\nomegas = 10,20\ndelta = 0.02\nt_final = 5\norder = 2\n"
        cfg = write_config(tmp_path, text)
        main(["table", "--config", cfg, "--out", str(tmp_path / "serial")])
        main(["table", "--config", cfg, "--out", str(tmp_path / "pool"), "--workers", "2"])
        assert (tmp_path / "serial" / "table.csv").read_bytes() == (
            tmp_path / "pool" / "table.csv"
        ).read_bytes()

    def test_pool_never_larger_than_the_scan(self, tmp_path, monkeypatch):
        # A process pool starts all of its workers at once; the stand-in
        # records the pool size and maps in this process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        cfg = write_config(tmp_path, "system = product1d\nomegas = 10,20\ndelta = 0.02\nt_final = 1\norder = 2\n")
        assert main(["table", "--config", cfg, "--out", str(tmp_path), "--workers", "64"]) == 0
        assert sizes == [2]


class TestWorkersFlag:
    @pytest.mark.parametrize("command", ["integrate", "table", "nls", "compare", "poincare"])
    def test_benchmark_subcommands_accept_workers(self, command):
        # The benchmark's CLI workloads pass --workers 1 to each of these subcommands.
        args = build_parser().parse_args([command, "--config", "run.cfg", "--out", "out", "--workers", "1"])
        assert (args.command, args.workers) == (command, 1)

    def test_one_worker_loads_no_multiprocessing(self, tmp_path):
        # With --workers 1 every subcommand runs in this process; only a pooled table scan starts workers.
        configs = {
            "integrate": "system = product1d\ndelta = 0.1\nt_final = 1\n",
            "table": "system = product1d\nomegas = 10,20\ndelta = 0.05\nt_final = 1\n",
            "nls": "system = nls\nn_modes = 2\ndelta = 0.01\nt_final = 0.1\n",
            "compare": "system = product1d\ndelta = 0.1\nt_final = 1\n",
            "poincare": "system = product1d\nomega = 2\nshell = 10\ngrid_q = -1:1:2\ngrid_p = -1:1:2\nmax_crossings = 4\n",
        }
        for command, text in configs.items():
            (tmp_path / f"{command}.cfg").write_text(text)
        script = (
            "import sys\n"
            "from sympext.cli import main\n"
            f"codes = [main([c, '--config', c + '.cfg', '--out', c, '--workers', '1']) for c in {list(configs)!r}]\n"
            "codes.append(main(['check', '--only', '6', '--out', 'check', '--workers', '1']))\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
        )
        src = str(Path(sx.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


class TestPoincareCommand:
    def test_section_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = product1d\nomega = 2\nshell = 10\n"
            "grid_q = -1:1:2\ngrid_p = -1:1:2\nmax_crossings = 12\n",
        )
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "section.csv").read_text().splitlines()
        assert rows[0] == "q,p,crossing_index,trajectory_id"
        assert len(rows) > 8
        meta = (tmp_path / "section.meta").read_text()
        assert "chaos statistic" in meta

    def test_statistic_and_classification_recorded(self, tmp_path):
        # A strongly bound product section on eight seeds: every trajectory carries enough crossings.
        cfg = write_config(
            tmp_path,
            "system = product1d\nomega = 10\nshell = 10\n"
            "grid_q = -0.5:0.5:2\ngrid_p = -0.5:0.5:2\nmax_crossings = 128\n",
        )
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
        meta = (tmp_path / "section.meta").read_text()
        assert re.search(r"^# chaos statistic: \d+\.\d{6}$", meta, re.MULTILINE), meta
        assert "# classification: regular\n" in meta

    def test_skipped_rows_recorded(self, tmp_path):
        # The seeds at q = 2 and q = 5 have no momentum root on the shell; those at q = -1 do.
        cfg = write_config(
            tmp_path,
            "system = product1d\nomega = 10\nshell = 10\n"
            "grid_q = -1:5:3\ngrid_p = -0.5:0.5:2\nmax_crossings = 20\n",
        )
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "section_skipped.csv").read_text().splitlines()) == 5

    def test_runs_without_scipy(self, tmp_path):
        # A None entry in sys.modules makes every scipy import fail.
        cfg = write_config(
            tmp_path,
            "system = product1d\nomega = 10\nshell = 10\n"
            "grid_q = -0.5:0.5:2\ngrid_p = -0.5:0.5:2\nmax_crossings = 128\n",
        )
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import sympext.checks\n"
            "from sympext.cli import main\n"
            f"code = main(['poincare', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
            "print('scipy modules:', sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(sx.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert re.search(r"^chaos statistic: \d+\.\d+", run.stdout, re.MULTILINE), run.stdout
        assert "scipy modules: []" in run.stdout

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unreachable_shell_numeric_abort(self, tmp_path, workers):
        cfg = write_config(
            tmp_path,
            "system = product1d\nomega = 1\nshell = 0.2\ngrid_q = -1:1:2\ngrid_p = -1:1:2\n",
        )
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path), "--workers", workers]) == 3

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("system", ["schwarzschild", "nls"])
    def test_multi_dof_system_is_config_error(self, tmp_path, capsys, system, workers):
        cfg = write_config(tmp_path, f"system = {system}\nshell = 10\ngrid_q = -1:1:2\ngrid_p = -1:1:2\n")
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path), "--workers", workers]) == 2
        assert "1-dof" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestNlsCommand:
    def test_requires_mode_system(self, tmp_path):
        cfg = write_config(tmp_path, "system = product1d\nt_final = 1\n")
        assert main(["nls", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_steps_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "system = nls\nn_modes = 2\nn_steps = 0\n")
        assert main(["nls", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_steps = 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_observable_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = nls\nn_modes = 2\ndelta = 0.01\nomega = 50\nt_final = 2\norder = 2\n",
        )
        assert main(["nls", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "observables.csv").read_text().splitlines()
        assert rows[0] == "t,H,Hbar,I,I1,I2,avg_I1,avg_I2,gap"

    def test_zero_data_zero_series(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = nls\nn_modes = 2\nq0 = 0,0\np0 = 0,0\ndelta = 0.01\n"
            "omega = 10\nt_final = 1\norder = 2\n",
        )
        assert main(["nls", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "observables.csv").read_text().splitlines()[1:]
        masses = np.array([[float(v) for v in row.split(",")[1:6]] for row in rows])
        assert not masses.any()


class TestCompareCommand:
    def test_product_compare_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = product1d\ndelta = 0.02\nomega = 20\nt_final = 5\norder = 4\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = (tmp_path / "compare_verdict.txt").read_text()
        assert "max_amplitude_error" in verdict
        header = (tmp_path / "compare.csv").read_text().splitlines()[0]
        assert header == "t,amp_err,phase_err,amp_err_rk4,phase_err_rk4"

    def test_zero_steps_reports_the_start_errors(self, tmp_path):
        cfg = write_config(tmp_path, "system = product1d\nn_steps = 0\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert len(lines) == 2  # the header and the start, where every error is zero
        assert "max_amplitude_error = 0" in (tmp_path / "compare_verdict.txt").read_text()

    @pytest.mark.parametrize("stride", [150, 160, 170])
    def test_coarse_stride_is_numeric_abort(self, tmp_path, capsys, stride):
        # Samples 1.5 to 1.7 time units apart turn the phase by nearly pi, so it cannot be unwrapped.
        cfg = write_config(
            tmp_path,
            "system = product1d\nq0 = -3\np0 = 0\ndelta = 0.01\nomega = 20\norder = 4\n"
            f"t_final = 50\nstride = {stride}\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric abort: sampling too coarse to unwrap the phase" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_self_zero_difference(self, tmp_path):
        # the proposed-versus-exact error recomputed twice agrees with itself
        cfg = write_config(
            tmp_path,
            "system = product1d\ndelta = 0.02\nomega = 20\nt_final = 5\norder = 4\n",
        )
        main(["compare", "--config", cfg, "--out", str(tmp_path / "x")])
        main(["compare", "--config", cfg, "--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "compare.csv").read_bytes() == (
            tmp_path / "y" / "compare.csv"
        ).read_bytes()


class TestPresets:
    def test_preset_runs(self, tmp_path):
        code = main([
            "integrate", "--preset", "fig_longtime", "--out", str(tmp_path),
            "--config", write_config(tmp_path, "t_final = 2\n"),
        ])
        assert code == 0

    def test_override_equal_to_default_applies(self, tmp_path):
        # omega = 20 is the ExperimentConfig default; it still overrides
        # the preset's omega = 0.
        text = "omega = 20\ngrid_q = -0.2:0.2:2\ngrid_p = -0.2:0.2:2\nmax_crossings = 3\n"
        code = main([
            "poincare", "--preset", "poincare_none", "--out", str(tmp_path),
            "--config", write_config(tmp_path, text),
        ])
        assert code == 0
        meta = parse_config_text((tmp_path / "section.meta").read_text())
        assert meta.omega == 20.0
        assert meta.max_crossings == 3

    def test_stride_one_overrides_preset_stride(self, tmp_path):
        code = main([
            "integrate", "--preset", "schwarzschild_long", "--out", str(tmp_path),
            "--config", write_config(tmp_path, "stride = 1\nt_final = 20\n"),
        ])
        assert code == 0
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 101
        assert parse_config_text((tmp_path / "trajectory.meta").read_text()).stride == 1

    def test_unknown_preset(self, tmp_path):
        assert main(["integrate", "--preset", "nope", "--out", str(tmp_path)]) == 2


class TestCheckCommand:
    def test_subset_runs_and_reports(self, tmp_path):
        code = main(["check", "--only", "6", "--out", str(tmp_path)])
        report = (tmp_path / "check_report.txt").read_text()
        assert "criterion  6" in report
        assert code in (0, 4)

    # The printed summaries of the four failing criteria, pinned byte for byte: a change that moves a
    # ratio, slope or drift of theirs shows here, not only in the acceptance run.
    FAILING_SUMMARIES = (
        'criterion  1 [FAIL] omega-scan error table: slopes=(1.014, 0.995); ratios to expected values '
        'amp=[2.009 2.087 2.032 2.048] phase=[2.001 2.038 2.029 1.973] (bands need <= 2.0; the measured '
        'errors sit at a uniform factor two above the expected table, consistent with the expectations '
        'assuming half this binding strength)',
        'criterion  2 [FAIL] delta-scan error table: slope=3.850; ratios to expected values [1.224 1.952 '
        '2.001 2.009] (bands need <= 2.0; same uniform factor two as the omega scan, saturating at the '
        'largest step)',
        'criterion  4 [FAIL] long-time energy comparison: extended-energy osc=1.923e+00 flat=True; RK4 '
        'terminal=7.767e-01 monotone=True; ratio=0.40 (needs >= 10.0; at this step the binding rotation '
        'advances 4 rad per substep, pumping an order-one bounded wobble)',
        'criterion  5 [FAIL] copy-binding scaling: max|q-x|=[1.08e-09 5.61e-09 3.94e-08 1.91e-07] '
        'slope=2.521 (band (-1.3, -0.7); the distances do satisfy the 1/omega bound itself with four '
        'orders of margin, but grow with the binding strength)',
    )

    def test_failing_criteria_print_their_pinned_summaries(self, tmp_path, capsys):
        assert main(["check", "--only", "1,2,4,5", "--out", str(tmp_path)]) == 4
        expected = "".join(line + "\n" for line in self.FAILING_SUMMARIES)
        assert capsys.readouterr().out == expected
        assert (tmp_path / "check_report.txt").read_text(encoding="utf-8") == expected

    def test_unknown_criterion_rejected(self, tmp_path):
        assert main(["check", "--only", "99", "--out", str(tmp_path)]) == 2

    def test_non_numeric_criterion_rejected(self, tmp_path, capsys):
        assert main(["check", "--only", "3,x", "--out", str(tmp_path)]) == 2
        assert "config error: criteria must be comma-separated numbers" in capsys.readouterr().err


class TestCompareSchwarzschild:
    def test_benchmarked_curves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\ndelta = 0.2\nomega = 2\nt_final = 10\norder = 4\nstride = 5\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = (tmp_path / "compare_verdict.txt").read_text()
        assert "benchmark_substeps" in verdict
        header = (tmp_path / "compare.csv").read_text().splitlines()[0]
        assert header.startswith("t,err_c0")

    def test_mode_system_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "system = nls\nt_final = 1\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_reference_on_trajectory_grid(self, tmp_path):
        # 33 steps of 0.03: every error row sits at a sample of the run.
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\ndelta = 0.03\nomega = 2\nt_final = 1\norder = 4\ngamma = 0.01\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        times = np.array([float(row.split(",")[0]) for row in rows])
        np.testing.assert_allclose(times, 0.03 * np.arange(34), rtol=0, atol=1e-12)

    def test_stride_must_divide_steps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\ndelta = 0.2\nomega = 2\nt_final = 10\norder = 4\nstride = 3\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "compare.csv").exists()


class TestProductOracleStart:
    @pytest.mark.parametrize("command", ["compare", "table"])
    @pytest.mark.parametrize("q0, p0", [("-3", "0.5"), ("3", "0")])
    def test_unserved_start_rejected(self, tmp_path, command, q0, p0):
        # The closed-form orbit starts on the P = 0 axis at Q0 < 0; any
        # other start would be compared against a different orbit.
        cfg = write_config(
            tmp_path,
            f"system = product1d\nq0 = {q0}\np0 = {p0}\ndelta = 0.02\nomega = 20\n"
            "t_final = 1\ndeltas = 0.02,0.01\n",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / f"{command}.csv").exists()


class TestStartDimension:
    @pytest.mark.parametrize("command, text", [
        ("integrate", "system = product1d\nq0 = 1,2\np0 = 0,0\n"),
        ("nls", "system = nls\nn_modes = 3\nq0 = 3,0.01\np0 = 1,0\n"),
        ("compare", "system = schwarzschild\nq0 = 0,20\np0 = 0.97,0\n"),
    ], ids=["integrate", "nls", "compare"])
    def test_wrong_dimension_start_is_config_error(self, tmp_path, command, text):
        cfg = write_config(tmp_path, text + "delta = 0.1\nt_final = 1\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))


class TestScanFailures:
    @pytest.mark.parametrize("bad_delta", ["-0.1", "0"])
    def test_failed_point_recorded_fit_on_survivors(self, tmp_path, bad_delta):
        cfg = write_config(
            tmp_path,
            f"system = product1d\ndeltas = {bad_delta},0.02,0.01,0.005\nomega = 20\nt_final = 5\norder = 2\n",
        )
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
        assert "failed: delta must be a positive finite real" in rows[0]
        assert all(row.count(",") == 3 for row in rows)
        assert sum(row.endswith("ok") for row in rows) == 3
        assert "slope_amplitude" in (tmp_path / "table.meta").read_text()

    def test_coarse_stride_recorded_as_failed_point(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = product1d\nq0 = -3\np0 = 0\ndelta = 0.01\nomegas = 20\norder = 4\n"
            "t_final = 50\nstride = 160\n",
        )
        assert main(["table", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = (tmp_path / "table.csv").read_text().splitlines()[1]
        assert row == ("20,nan,nan,failed: sampling too coarse to unwrap the phase: "
                       "a sample-to-sample angle change of 3.111 rad approaches pi")


class TestCompareDissipative:
    def test_report_only_curves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "system = schwarzschild\ndelta = 0.2\nomega = 2\nt_final = 10\n"
            "order = 4\ngamma = 1e-4\nstride = 5\n",
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = (tmp_path / "compare_verdict.txt").read_text()
        assert "terminal_scaled_errors_rk4" in verdict


class TestCsvCells:
    def test_special_cells_read_as_float_formatting(self, tmp_path):
        # A numeric cell is written as %.17g; it must be the bytes of format(float(v), ".17g").
        cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, -1e16, 5e-324, -5e-324, 1.7976931348623157e308,
                 0.1, 2.0 / 3.0, 123456789012345678.0, 7, np.float64(-0.0), np.float64(math.nan),
                 np.float64(1e16), np.float64(5e-324), np.float64(2.0 / 3.0)]
        _write_csv(tmp_path / "cells.csv", ["v"], [cells, ["text", *cells]])
        lines = (tmp_path / "cells.csv").read_text(encoding="utf-8").splitlines()
        want = ",".join(format(float(v), ".17g") for v in cells)
        assert lines == ["v", want, "text," + want]
