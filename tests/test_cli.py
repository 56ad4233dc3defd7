import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from rieszgibbs import cli, gibbs, kms, models, suites
from rieszgibbs.errors import ConfigError


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

    def test_readme_schema_shows_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        shown = set(re.findall(r'^  "(\w+)":', block, re.M))
        assert shown == cli.CONFIG_KEYS
        for key in shown:
            # each shown key reaches its own validation instead of the unknown-key check
            with pytest.raises(ConfigError) as exc:
                cli.load_config({"model": None} if key == "model" else {"model": {}, key: None})
            assert "unknown key" not in str(exc.value)
        for key in ("tolerances", "extra"):
            with pytest.raises(ConfigError, match="unknown key"):
                cli.load_config({"model": {"preset": "jordan2"}, key: {}})

    def test_bad_t_grid(self):
        with pytest.raises(ConfigError, match="t_grid"):
            cli.load_config({"model": {"preset": "jordan2"}, "t_grid": ["a"]})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": True},
            {"t_grid": [0.0, True]},
            {"model": {"preset": "shift_half", "N": True}},
            {"model": {"preset": "shift_half", "N": 8.9}},
            {"model": {"preset": "shift_half", "beta": "2"}},
            {"checks": 5},
            {"checks": [["kms"]]},
            {"checks": "kms"},
        ],
        ids=["seed_bool", "t_grid_bool", "preset_n_bool", "preset_n_fraction",
             "preset_beta_string", "checks_int", "checks_nested", "checks_string"],
    )
    def test_non_number_exits_3(self, tmp_path, overrides):
        data = {
            "model": {"preset": "shift_half", "N": 8},
            "checks": ["biorthogonality", "kms"],
            "output_dir": str(tmp_path / "out"),
        }
        data.update(overrides)
        assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("checks", [5, [["kms"]], "kms", []])
    def test_malformed_checks_message(self, checks):
        with pytest.raises(ConfigError, match="checks must be a nonempty list"):
            cli.load_config({"model": {"preset": "jordan2"}, "checks": checks})

    CUSTOM_MODEL = {
        "N": 4,
        "lambda": {"rule": "linear"},
        "T": {"rule": "shift_perturbed", "epsilon": 0.5},
    }

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model": {"preset": "shift_half", "N": 8, "beta": float("inf")}},
            {"model": {"preset": "shift_half", "N": 8, "beta": float("-inf")}},
            {"model": {**CUSTOM_MODEL, "beta": float("inf")}},
            {"model": {**CUSTOM_MODEL, "beta": float("-inf")}},
            {"model": {**CUSTOM_MODEL, "beta": 10**400}},
            {"t_grid": [0.0, float("inf")]},
            {"t_grid": [float("-inf"), 1.0]},
            {"model": {"preset": "shift_half", "N": 8, "beta": 800}},
            {"model": {"preset": "shift_half", "N": 8, "beta": 1e300}},
            {"model": {**CUSTOM_MODEL, "beta": 1.0, "T": {"rule": "exp_generator", "scale": 1e300}}},
        ],
        ids=["preset_beta_inf", "preset_beta_neg_inf", "custom_beta_inf", "custom_beta_neg_inf",
             "custom_beta_huge_int", "t_grid_inf", "t_grid_neg_inf", "weights_underflow_beta_800",
             "weights_underflow_beta_1e300", "exp_generator_overflow"],
    )
    def test_non_finite_exits_3(self, tmp_path, overrides):
        # json writes Infinity/NaN literals, which json.load parses back; the last
        # three are finite numbers whose weights or T leave double range
        data = {
            "model": {"preset": "shift_half", "N": 8},
            "checks": ["biorthogonality", "kms"],
            "output_dir": str(tmp_path / "out"),
        }
        data.update(overrides)
        assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 3
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "section, rule",
        [
            ("lambda", {"rule": "linear", "offset": "x"}),
            ("lambda", {"rule": "explicit", "values": "abc"}),
            ("T", {"rule": "diagonal", "values": "ab"}),
            ("T", {"rule": "explicit", "values": [[1, 0], [0, "x"]]}),
            ("T", {"rule": "exp_generator", "scale": None}),
            ("lambda", {"rule": "linear", "slope": True}),
            ("lambda", {"rule": "explicit", "values": [1, True, 3, 4]}),
            ("T", {"rule": "shift_perturbed", "epsilon": "0.5"}),
            ("T", {"rule": "explicit", "values": [[1, 0], [0]]}),
            ("lambda", {"rule": ["linear"]}),
        ],
        ids=["offset_string", "values_string", "diagonal_values_string", "matrix_entry_string",
             "scale_null", "slope_bool", "values_bool", "epsilon_string", "ragged_matrix",
             "rule_list"],
    )
    def test_bad_rule_value_exits_3(self, tmp_path, capsys, section, rule):
        model = {"N": 2, "beta": 1.0, "lambda": {"rule": "linear"}, "T": {"rule": "identity"}}
        model[section] = rule
        data = {"model": model, "output_dir": str(tmp_path / "out")}
        assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 3
        assert capsys.readouterr().err.startswith(f"error: model.{section}")
        assert not (tmp_path / "out").exists()


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

    def test_raising_group_keeps_the_finished_rows(self, tmp_path, capsys):
        # modular raises Singular at shift_half N=64 (Omega^2 has a negative
        # eigenvalue in roundoff); the gibbs row before it is still written
        out = tmp_path / "out"
        config = write_config(
            tmp_path,
            {
                "model": {"preset": "shift_half", "N": 64},
                "checks": ["gibbs", "modular"],
                "output_dir": str(out),
            },
        )
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 2
        message = capsys.readouterr().err.removeprefix("error: ").strip()
        assert message.startswith("modular vector must be positive definite")
        assert [row["check"] for row in read_report(out)] == ["gibbs"]
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is False
        assert [r["check"] for r in summary["results"]] == ["gibbs"]
        assert summary["error"] == {"check": "modular", "message": message}

    def test_check_subset(self, tmp_path):
        config = jordan2_config(tmp_path, checks=["biorthogonality", "entropy"])
        assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0
        rows = read_report(tmp_path / "out")
        assert [row["check"] for row in rows] == ["biorthogonality", "entropy"]

    def test_tolerances_key_exits_3(self, tmp_path, capsys):
        # a group tolerance in the config once bought a pass: faithfulness_margin
        # fails here against the suite's own 1e-12
        out = tmp_path / "out"
        config = write_config(
            tmp_path,
            {
                "model": {"preset": "shift_half", "N": 64},
                "checks": ["gibbs"],
                "tolerances": {"gibbs": 1e300},
                "output_dir": str(out),
            },
        )
        assert cli.main(["verify", "--config", config]) == 3
        assert "tolerances" in capsys.readouterr().err
        assert not (out / "verify_report.csv").exists()

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

    def test_ill_conditioned_model_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "model": {
                    "N": 2,
                    "beta": 1.0,
                    "lambda": {"rule": "linear"},
                    "T": {"rule": "explicit", "values": [[1.0, 0.0], [0.0, 1e-13]]},
                },
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli.main(["verify", "--config", config]) == 3
        assert "ill-conditioned" in capsys.readouterr().err

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

    def test_underflowed_beta_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"model": {"preset": "shift_half", "N": 8}, "output_dir": str(tmp_path / "out")}
        )
        assert cli.main(["sweep", "--config", config, "--beta-values", "1.0", "800"]) == 3
        assert "underflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
        with pytest.raises(ConfigError):
            cli.cmd_explain("bogus")


def test_log_env_var_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("RIESZ_GIBBS_LOG", "info")
    config = jordan2_config(tmp_path, checks=["biorthogonality"])
    assert cli.main(["verify", "--config", config, "--no-timestamp"]) == 0


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()
    # a reused parser carries nothing from one call to the next
    assert cli.build_parser().parse_args(["sweep", "--config", "a.json"]).n_values is None
    args = cli.build_parser().parse_args(["sweep", "--config", "b.json", "--n-values", "8"])
    assert args.n_values == [8] and args.config == "b.json"
    assert cli.build_parser().parse_args(["sweep", "--config", "a.json"]).n_values is None
