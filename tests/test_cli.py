import csv
import json
import sys

import numpy as np
import pytest

from rieszgibbs import cli, gibbs, kms, models, suites
from rieszgibbs.errors import ConfigError, UnknownCheck


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def jordan2_config(tmp_path, **overrides):
    data = {
        "model": {"preset": "jordan2"},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
        "t_grid": [0.0, 0.5, 1.0],
    }
    data.update(overrides)
    return write_config(tmp_path, data)


def read_report(out_dir):
    with open(out_dir / "verify_report.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.load_config({"model": {"preset": "jordan2"}, "extra": 1})

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError):
            cli.load_config({"model": {"preset": "jordan2", "gamma": 2}})

    def test_unknown_check(self):
        with pytest.raises(ConfigError, match="unknown check"):
            cli.load_config({"model": {"preset": "jordan2"}, "checks": ["spectra"]})

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.load_config({"model": {"preset": "jordan2"}, "seed": -1})

    def test_bad_tolerance_value(self):
        with pytest.raises(ConfigError, match="positive"):
            cli.load_config({"model": {"preset": "jordan2"}, "tolerances": {"gibbs": -1.0}})

    def test_bad_t_grid(self):
        with pytest.raises(ConfigError, match="t_grid"):
            cli.load_config({"model": {"preset": "jordan2"}, "t_grid": ["a"]})

    def test_full_model_round_trip(self):
        config = cli.load_config(
            {
                "model": {
                    "name": "custom",
                    "N": 4,
                    "beta": 2.0,
                    "lambda": {"rule": "linear", "slope": 0.5, "offset": 1.0},
                    "T": {"rule": "shift_perturbed", "epsilon": 0.25},
                }
            }
        )
        assert config.model.n == 4 and config.model.beta == 2.0
        assert config.checks == ("biorthogonality", "gibbs", "dynamics", "entropy", "kms", "modular")

    def test_rule_key_strictness(self):
        with pytest.raises(ConfigError):
            cli.load_config(
                {
                    "model": {
                        "N": 2,
                        "beta": 1.0,
                        "lambda": {"rule": "linear", "shift": 1.0},
                        "T": {"rule": "identity"},
                    }
                }
            )

    def test_explicit_constructing_operator_from_config(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {
                    "N": 2,
                    "beta": 1.0,
                    "lambda": {"rule": "explicit", "values": [1.0, 2.0]},
                    "T": {"rule": "explicit", "values": [[1.0, 1.0], [0.0, 1.0]]},
                },
                "checks": ["biorthogonality", "gibbs"],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0


class TestVerifyCommand:
    def test_jordan2_full_suite_passes(self, tmp_path):
        code = cli.main(["verify", "--config", jordan2_config(tmp_path), "--no-timestamp"])
        assert code == 0
        out = tmp_path / "out"
        rows = read_report(out)
        assert len(rows) == 6
        assert all(row["pass"] == "true" for row in rows)
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True
        assert {r["check"] for r in summary["results"]} == {
            "biorthogonality", "gibbs", "dynamics", "entropy", "kms", "modular",
        }
        for name in ("kms_phi.csv", "kms_psi.csv", "summability.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("model", [{"preset": "shift_half", "N": 8}, {"preset": "jordan2"}])
    def test_every_csv_number_parses(self, tmp_path, model):
        out = tmp_path / "out"
        config = write_config(tmp_path, {"model": model, "output_dir": str(out), "seed": 5})
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) in (0, 2)
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == 4
        for path in paths:
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    for column, value in row.items():
                        if column not in ("check", "pass", "converged") and value != "":
                            float(value)

    def test_kms_csv_rows_are_the_certified_ones(self, tmp_path):
        grid = [-2.0, 0.0, 0.5, 3.0]
        out = tmp_path / "out"
        config = write_config(
            tmp_path,
            {
                "model": {"preset": "shift_half", "N": 16},
                "checks": ["kms"],
                "seed": 3,
                "t_grid": grid,
                "output_dir": str(out),
            },
        )
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
        result = suites.check_kms(models.instantiate(models.preset("shift_half", n=16, seed=3)), 3, grid)
        certified = {s.name: s.residual for s in result.subchecks}
        for kind in ("phi", "psi"):
            with open(out / f"kms_{kind}.csv", newline="", encoding="utf-8") as fh:
                written = [tuple(float(row[c]) for c in kms.KMS_COLUMNS) for row in csv.DictReader(fh)]
            assert written == [tuple(row) for row in result.rows[kind]]
            assert max(max(row[3:]) for row in written) == certified[f"{kind}_boundaries"]

    def test_no_group_builds_a_state_twice(self, tmp_path, monkeypatch):
        # each check group forms a family's Gibbs state once and hands it on
        original = gibbs.gibbs_state
        builds = []

        def counting(system, spectrum, kind):
            frame = sys._getframe(1)
            while not (
                frame.f_globals["__name__"] == suites.__name__
                and frame.f_code.co_name.startswith("check_")
            ):
                frame = frame.f_back
            builds.append((frame.f_code.co_name, system, kind))
            return original(system, spectrum, kind)

        for name, module in list(sys.modules.items()):
            if name.startswith("rieszgibbs") and getattr(module, "gibbs_state", None) is original:
                monkeypatch.setattr(module, "gibbs_state", counting)
        out = tmp_path / "out"
        config = write_config(
            tmp_path, {"model": {"preset": "shift_half", "N": 16}, "output_dir": str(out)}
        )
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
        assert {group for group, _, _ in builds} == {"check_gibbs", "check_kms", "check_modular"}
        keys = [(group, id(system), kind) for group, system, kind in builds]
        assert len(keys) == len(set(keys))

    def test_check_subset(self, tmp_path):
        config = jordan2_config(tmp_path, checks=["biorthogonality", "entropy"])
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
        rows = read_report(tmp_path / "out")
        assert [row["check"] for row in rows] == ["biorthogonality", "entropy"]

    def test_tolerance_below_floor_exits_3(self, tmp_path, capsys):
        config = jordan2_config(tmp_path, tolerances={"biorthogonality": 1e-16})
        assert cli.main(["verify", "--config", config]) == 3
        assert "below the floor" in capsys.readouterr().err

    def test_tolerance_loosening_accepted(self, tmp_path):
        config = jordan2_config(tmp_path, tolerances={"kms": 1e-6})
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
        rows = {r["check"]: r for r in read_report(tmp_path / "out")}
        assert float(rows["kms"]["tolerance"]) >= 1e-6

    def test_zero_eigenvalue_model_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "model": {
                    "N": 2,
                    "beta": 1.0,
                    "lambda": {"rule": "explicit", "values": [0.0, 1.0]},
                    "T": {"rule": "identity"},
                }
            },
        )
        assert cli.main(["verify", "--config", config]) == 3
        assert "spectrum must be strictly positive" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["verify", "--config", "/nonexistent/x.json"]) == 3

    def test_timestamp_header_toggle(self, tmp_path):
        config = jordan2_config(tmp_path, checks=["biorthogonality"])
        cli.main(["verify", "--config", config])
        first = (tmp_path / "out" / "verify_report.csv").read_text()
        assert first.startswith("# generated ")
        cli.main(["verify", "--config", config, "--no-timestamp"])
        second = (tmp_path / "out" / "verify_report.csv").read_text()
        assert second.startswith("check,")


class TestSweepCommand:
    def test_beta_sweep_csv(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"preset": "oscillator", "N": 64}, "output_dir": str(tmp_path / "out")},
        )
        code = cli.main(
            ["sweep", "--config", config, "--beta-values", "0.5", "1.0", "2.0", "--no-timestamp"]
        )
        assert code == 0
        with open(tmp_path / "out" / "sweep_beta.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, beta in zip(rows, (0.5, 1.0, 2.0)):
            expected = np.sum(np.exp(-beta * np.arange(1.0, 65.0)))
            assert float(row["Z0"]) == pytest.approx(expected, abs=1e-12)

    def test_n_sweep_monotone_differences(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"preset": "oscillator"}, "output_dir": str(tmp_path / "out")},
        )
        assert (
            cli.main(["sweep", "--config", config, "--n-values", "8", "16", "32", "--no-timestamp"])
            == 0
        )
        with open(tmp_path / "out" / "sweep_N.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        diffs = [float(row["dZ0"]) for row in rows[1:]]
        assert diffs == sorted(diffs, reverse=True)

    def test_empty_axis_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"model": {"preset": "oscillator"}, "output_dir": str(tmp_path / "out")}
        )
        assert cli.main(["sweep", "--config", config]) == 3
        assert cli.main(["sweep", "--config", config, "--n-values"]) == 3
        assert (
            cli.main(
                ["sweep", "--config", config, "--n-values", "8", "--beta-values", "1.0"]
            )
            == 3
        )


class TestExplainAndCatalog:
    def test_known_checks(self, capsys):
        assert cli.main(["explain", "gibbs"]) == 0
        out = capsys.readouterr().out
        assert "tr(T* X T e^{-beta H0})" in out
        assert cli.main(["explain", "kms"]) == 0
        assert "shifted boundary" in capsys.readouterr().out

    def test_unknown_check_exits_3(self, capsys):
        assert cli.main(["explain", "bogus"]) == 3
        assert "unknown check" in capsys.readouterr().err

    def test_list_all(self, capsys):
        assert cli.main(["explain", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("biorthogonality", "gibbs", "dynamics", "entropy", "kms", "modular"):
            assert name in out

    def test_catalog(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("oscillator", "jordan2", "shift_half", "diag_sqrt", "exp_gen"):
            assert name in out

    def test_unknown_check_exception_type(self):
        with pytest.raises(UnknownCheck):
            cli.cmd_explain("bogus")


def test_log_env_var_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("RIESZ_GIBBS_LOG", "info")
    config = jordan2_config(tmp_path, checks=["biorthogonality"])
    assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
