"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*argv):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*argv):
    return run_python("-m", "symtest.cli", *argv)


def write_config(tmp_path, name="cfg.json", **fields):
    base = dict(
        method="mmd", group="so(2)", n=12, reps=3, m=1, B=9,
        kernel="rbf(1.0)", generator="gauss-iso(d=2)", seed=3,
    )
    base.update(fields)
    base = {k: v for k, v in base.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def test_import_loads_no_scipy():
    # start-up time: scipy is imported only by the two functions that need it
    out = run_python("-c", "import sys, symtest; "
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestInvarianceCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        res = run_cli("invariance", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "rejection-rate=" in res.stdout
        payload = json.loads(out.read_text())
        assert payload["reps"] == 3

    def test_overrides_take_precedence(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        res = run_cli(
            "invariance", "--config", cfg, "--reps", "2", "--out", str(out)
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["reps"] == 2

    def test_rejects_equivariance_methods(self, tmp_path):
        cfg = write_config(
            tmp_path, method="kci", generator="cond-shift(d=2)", n=16,
            kernel_y="rbf(1.0)", kernel_m="rbf(1.0)", null_samples=50,
        )
        res = run_cli("invariance", "--config", cfg)
        assert res.returncode == 2
        assert "configuration error" in res.stderr


class TestEquivarianceCommand:
    def test_runs_kci(self, tmp_path):
        cfg = write_config(
            tmp_path, method="kci", generator="cond-shift(d=2)", n=16,
            kernel_y="rbf(1.0)", kernel_m="rbf(1.0)", null_samples=50,
        )
        res = run_cli("equivariance", "--config", cfg)
        assert res.returncode == 0, res.stderr
        assert "rejection-rate=" in res.stdout


class TestSimulateCommand:
    def test_file_backed_run(self, tmp_path):
        cfg = write_config(
            tmp_path, generator=None, group="so(4)", n=10,
            data=os.path.join(FIXTURES, "dijet.csv"),
            schema={"features": ["pt1", "phi1", "pt2", "phi2"]},
        )
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 0, res.stderr

    def test_missing_data_file_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path, generator=None, data="/nonexistent.csv",
            schema={"features": ["a", "b"]},
        )
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 3
        assert "data error" in res.stderr

    def test_schema_mismatch_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path, generator=None,
            data=os.path.join(FIXTURES, "dijet.csv"),
            schema={"features": ["no-such-column"]},
        )
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 3

    def test_parse_error_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path, generator=None,
            data=os.path.join(FIXTURES, "bad_cell.csv"),
            schema={"features": ["a", "b"]},
        )
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 3


class TestConfigErrors:
    def test_missing_config_file(self):
        res = run_cli("invariance", "--config", "/nonexistent/cfg.json")
        assert res.returncode == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        res = run_cli("invariance", "--config", str(path))
        assert res.returncode == 2

    def test_mistyped_value_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, seed=1.5)
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 2
        assert "seed must be" in res.stderr

    def test_bad_m_kind_exit_code(self, tmp_path):
        for m_kind in (3, "banana"):
            cfg = write_config(
                tmp_path, method="kci", generator="cond-shift(d=2)", n=16,
                kernel_y="rbf(1.0)", kernel_m="rbf(1.0)", null_samples=50,
                m_kind=m_kind,
            )
            res = run_cli("simulate", "--config", cfg)
            assert res.returncode == 2, res.stderr
            assert "m_kind must be" in res.stderr

    def test_more_landmarks_than_points_exit_code(self, tmp_path):
        # caught by validate, so no replication runs into BadLandmarkCount
        cfg = write_config(tmp_path, method="nmmd", n=12, n_landmarks=13)
        res = run_cli("simulate", "--config", cfg)
        assert res.returncode == 2, res.stderr
        assert "n_landmarks must not exceed n" in res.stderr
        ok = write_config(tmp_path, method="nmmd", n=12, n_landmarks=12, reps=1)
        assert run_cli("simulate", "--config", ok).returncode == 0

    def test_non_finite_bandwidth_and_epsilon_exit_2(self, tmp_path):
        # JSON reads 1e400 as inf
        cfg = write_config(tmp_path, kernel="rbf(1e400)")
        res = run_cli("invariance", "--config", cfg)
        assert res.returncode == 2, res.stderr
        assert "bad kernel descriptor" in res.stderr
        cfg = tmp_path / "kci.json"
        cfg.write_text(json.dumps(dict(
            method="kci", group="so(2)", generator="cond-shift(d=2)", n=16,
            reps=1, null_samples=50, epsilon=1.0,
        )).replace('"epsilon": 1.0', '"epsilon": 1e400'))
        res = run_cli("equivariance", "--config", str(cfg))
        assert res.returncode == 2, res.stderr
        assert "epsilon must be positive and finite" in res.stderr

    def test_bad_method(self, tmp_path):
        cfg = write_config(tmp_path, method="anova")
        res = run_cli("invariance", "--config", cfg)
        assert res.returncode == 2


class TestOverrides:
    def test_every_flag_reaches_the_config(self, tmp_path, monkeypatch):
        from symtest import cli

        argv, want = ["simulate", "--config", write_config(tmp_path)], {}
        for i, (name, typ) in enumerate(cli._OVERRIDES):
            want[name] = {str: f"value-{name}", int: i + 1, float: 0.25}[typ]
            argv += [f"--{name.replace('_', '-')}", str(want[name])]
        seen = []
        monkeypatch.setattr(cli.ExperimentConfig, "from_dict", seen.append)
        cli._load_config(cli.build_parser().parse_args(argv))
        assert set(want) <= set(cli.ExperimentConfig.__dataclass_fields__)
        assert {name: seen[0][name] for name in want} == want


class TestMethodLists:
    def test_each_method_runs_under_exactly_one_command(self, tmp_path, monkeypatch):
        from symtest import cli
        from symtest.harness import METHODS

        monkeypatch.setattr(cli, "run_simulation", lambda cfg: cfg)
        monkeypatch.setattr(cli, "_print_summary", lambda report: None)
        for method in METHODS:
            cfg = write_config(tmp_path, method=method)
            codes = [cli.main([command, "--config", cfg])
                     for command in ("invariance", "equivariance")]
            # exit code 2 is the configuration error of the other command
            assert codes == ([2, 0] if method in ("kci", "cp") else [0, 2]), method


class TestPowerCommand:
    def test_runs(self, tmp_path):
        cfg = write_config(tmp_path, n_resamples=3)
        out = tmp_path / "power.json"
        res = run_cli("power", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "estimated-power=" in res.stdout
        payload = json.loads(out.read_text())
        assert len(payload["betas"]) == 3

    def power_of(self, tmp_path, method, **fields):
        cfg = write_config(
            tmp_path, method=method, generator="gauss-mean(d=2,mu=0.5e1)",
            n=20, B=19, n_resamples=4, **fields,
        )
        out = tmp_path / "power.json"
        res = run_cli("power", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        return json.loads(out.read_text())

    def test_mmd_estimate_is_pinned(self, tmp_path):
        payload = self.power_of(tmp_path, "mmd")
        assert payload["config"]["method"] == "mmd"
        assert payload["config"]["n_resamples"] == 4
        assert abs(payload["beta_hat"] - 0.7802100258407207) < 1e-12

    def test_nmmd_and_cw_use_their_statistics(self, tmp_path):
        for method, beta_hat, option in (
            ("nmmd", 0.5095477563251857, "n_landmarks"),
            ("cw", 0.03040248745733743, "n_projections"),
        ):
            payload = self.power_of(tmp_path, method)
            assert payload["config"]["method"] == method
            assert abs(payload["beta_hat"] - beta_hat) < 1e-12
            other = self.power_of(tmp_path, method, **{option: 2})
            assert other["betas"] != payload["betas"]

    def test_format_is_a_usage_error(self, tmp_path, capsys):
        # power always writes JSON
        from symtest import cli

        with pytest.raises(SystemExit) as exit_:
            cli.main(["power", "--config", write_config(tmp_path), "--format", "csv"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_2smmd_and_inversion_mmd_estimates_are_pinned(self, tmp_path):
        for method, beta_hat in (("2smmd", 0.09904285864654466),
                                 ("inversion-mmd", 0.3497980270238228)):
            payload = self.power_of(tmp_path, method)
            assert payload["config"]["method"] == method
            assert abs(payload["beta_hat"] - beta_hat) < 1e-12

    def test_data_file_config_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, generator=None, group="so(4)", n=10, n_resamples=2,
            data=os.path.join(FIXTURES, "dijet.csv"),
            schema={"features": ["pt1", "phi1", "pt2", "phi2"]},
        )
        res = run_cli("power", "--config", cfg)
        assert res.returncode == 0, res.stderr
        assert "estimated-power=" in res.stdout

    def test_methods_without_power_estimate_exit_2(self, tmp_path):
        for method in ("kci", "cp"):
            cfg = write_config(tmp_path, method=method)
            res = run_cli("power", "--config", cfg)
            assert res.returncode == 2
            assert "power estimation" in res.stderr

    def test_unwritable_out_exit_1(self, tmp_path):
        out = str(tmp_path / "missing" / "power.json")
        res = run_cli("power", "--config", write_config(tmp_path, n_resamples=2),
                      "--out", out)
        assert res.returncode == 1
        assert f"error: cannot write report to {out}" in res.stderr
        assert "Traceback" not in res.stderr


class TestTuneCommand:
    def test_grid_search(self, tmp_path):
        h0 = dict(
            method="mmd", group="so(2)", n=10, m=1, B=9,
            generator="gauss-iso(d=2)", seed=1,
        )
        h1 = dict(h0, generator="gauss-mean(d=2,mu=2e1)", seed=2)
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({
            "grids": {"kernel": [1.0, 2.0]},
            "h0": h0, "h1": h1, "train_reps": 3, "h0_cap": 0.5,
        }))
        out = tmp_path / "tuned.json"
        res = run_cli("tune", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["selected"]["kernel"] in (1.0, 2.0)
        assert len(payload["records"]) == 2

    def test_overrides_and_format_are_usage_errors(self, tmp_path, capsys):
        # tune reads its configs' own sizes, so a flag would be ignored
        from symtest import cli

        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["tune", "--config", cfg, "--reps", "500", "--n", "7",
                      "--format", "csv"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_sections(self, tmp_path):
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({"grids": {"kernel": [1.0]}}))
        res = run_cli("tune", "--config", str(cfg))
        assert res.returncode == 2

    def tune_config(self, tmp_path, **fields):
        h0 = dict(method="mmd", group="so(2)", n=10, m=1, B=9,
                  generator="gauss-iso(d=2)", seed=1)
        raw = dict(grids={"kernel": [1.0]}, h0=h0, h1=h0, train_reps=2)
        raw.update(fields)
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps(raw))
        return str(cfg)

    def run_tune(self, tmp_path, **fields):
        return run_cli("tune", "--config", self.tune_config(tmp_path, **fields))

    def test_unwritable_out_exit_1(self, tmp_path):
        out = str(tmp_path / "missing" / "tuned.json")
        res = run_cli("tune", "--config", self.tune_config(tmp_path), "--out", out)
        assert res.returncode == 1
        assert f"error: cannot write report to {out}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_integer_train_reps_exit_2(self, tmp_path):
        res = self.run_tune(tmp_path, train_reps="x")
        assert res.returncode == 2, res.stderr
        assert "train_reps must be" in res.stderr

    def test_grids_that_are_not_an_object_exit_2(self, tmp_path):
        res = self.run_tune(tmp_path, grids=[1])
        assert res.returncode == 2, res.stderr
        assert "grids must" in res.stderr

    def test_empty_grid_exit_2(self, tmp_path):
        res = self.run_tune(tmp_path, grids={"kernel": []})
        assert res.returncode == 2, res.stderr
        assert "grids must" in res.stderr

    def test_hypothesis_that_is_not_an_object_exit_2(self, tmp_path):
        res = self.run_tune(tmp_path, h1=3)
        assert res.returncode == 2, res.stderr
        assert "h1 must be" in res.stderr


class TestImport:
    def test_import_loads_no_scipy(self):
        res = run_python("-c", "import sys, symtest; print(sorted(m for m in "
                         "sys.modules if m.startswith('scipy')))")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestVersion:
    def test_version_flag(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.strip()


class TestPackageAsModule:
    def test_python_m_symtest_runs_the_cli(self):
        res = run_python("-m", "symtest", "--help")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: symtest")
        for command in ("invariance", "equivariance", "simulate", "power", "tune"):
            assert command in res.stdout
