"""Batch command-line interface: config-driven verification runs and sweeps.

Subcommands
-----------
verify   : run the selected invariant suites on one model instance and write
           a CSV report plus JSON summary; exit 0 when every check passes,
           2 on any numeric failure, 3 on a configuration error.
sweep    : run the convergence sweep over truncation dimensions or inverse
           temperatures; one CSV per swept axis.
explain  : print the identity a named check certifies (the math-to-code map).
catalog  : list the built-in model families.

The JSON run configuration is strictly validated: unknown keys are rejected,
and tolerance overrides may only loosen a check group, never push it below
its documented floor.  With ``--no-timestamp`` all outputs are byte-identical
for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import entropy as entropy_mod
from . import kms as kms_mod
from . import models, suites
from .errors import BadModel, ConfigError, RieszGibbsError, UnknownCheck
from .models import ModelSpec

logger = logging.getLogger("rieszgibbs")

DEFAULT_T_GRID = tuple(np.linspace(-10.0, 10.0, 41))

_LAMBDA_KEYS = {
    "linear": {"rule", "offset", "slope"},
    "power": {"rule", "exponent", "scale"},
    "log": {"rule", "scale", "shift"},
    "explicit": {"rule", "values"},
}
_T_KEYS = {
    "identity": {"rule"},
    "diagonal": {"rule", "exponent", "values"},
    "shift_perturbed": {"rule", "epsilon"},
    "exp_generator": {"rule", "scale"},
    "explicit": {"rule", "values"},
}

@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    checks: tuple[str, ...] = tuple(suites.CHECKS)
    tolerances: Mapping[str, float] = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0
    t_grid: tuple[float, ...] = DEFAULT_T_GRID


def _require_keys(section: str, data: Mapping, allowed: set[str], required: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {sorted(missing)}")


def _validate_rule(section: str, rule: Mapping, table: Mapping[str, set[str]]) -> dict:
    if not isinstance(rule, Mapping):
        raise ConfigError(f"{section} must be an object")
    kind = rule.get("rule")
    if kind not in table:
        raise ConfigError(f"{section}.rule must be one of {sorted(table)}, got {kind!r}")
    _require_keys(section, rule, table[kind], {"rule"})
    return dict(rule)


def _parse_model(data: Mapping, seed: int) -> ModelSpec:
    if not isinstance(data, Mapping):
        raise ConfigError("model must be an object")
    if "preset" in data:
        _require_keys("model", data, {"preset", "N", "beta"}, {"preset"})
        return models.preset(
            str(data["preset"]),
            n=int(data["N"]) if "N" in data else None,
            beta=float(data["beta"]) if "beta" in data else None,
            seed=seed,
        )
    _require_keys("model", data, {"name", "N", "beta", "lambda", "T"}, {"N", "beta", "lambda", "T"})
    n = data["N"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("model.N must be a positive integer")
    beta = data["beta"]
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not beta > 0:
        raise ConfigError("model.beta must be a positive number")
    return ModelSpec(
        name=str(data.get("name", "custom")),
        n=n,
        beta=float(beta),
        lambda_rule=_validate_rule("model.lambda", data["lambda"], _LAMBDA_KEYS),
        t_rule=_validate_rule("model.T", data["T"], _T_KEYS),
        seed=seed,
    )


def load_config(data: Mapping) -> RunConfig:
    """Validate a decoded JSON document against the strict schema."""
    if not isinstance(data, Mapping):
        raise ConfigError("configuration root must be an object")
    allowed = {"model", "checks", "tolerances", "output_dir", "seed", "t_grid"}
    _require_keys("config", data, allowed, {"model"})

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an integer in [0, 2^64)")

    checks = tuple(data.get("checks", suites.CHECKS))
    unknown = set(checks) - set(suites.CHECKS)
    if unknown:
        raise ConfigError(f"unknown check(s): {sorted(unknown)}")
    if not checks:
        raise ConfigError("checks must not be empty")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, Mapping):
        raise ConfigError("tolerances must be an object")
    bad = set(tolerances) - set(suites.CHECKS)
    if bad:
        raise ConfigError(f"tolerance override(s) for unknown check(s): {sorted(bad)}")
    for key, value in tolerances.items():
        if not isinstance(value, (int, float)) or not value > 0:
            raise ConfigError(f"tolerance override {key} must be a positive number")

    t_grid = data.get("t_grid", DEFAULT_T_GRID)
    if not isinstance(t_grid, (list, tuple)) or not all(
        isinstance(t, (int, float)) and np.isfinite(t) for t in t_grid
    ):
        raise ConfigError("t_grid must be a list of finite numbers")
    if "t_grid" in data and not t_grid:
        raise ConfigError("t_grid must not be empty")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")

    return RunConfig(
        model=_parse_model(data["model"], seed),
        checks=checks,
        tolerances=dict(tolerances),
        output_dir=output_dir,
        seed=seed,
        t_grid=tuple(float(t) for t in t_grid),
    )


def load_config_file(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return load_config(data)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(
    path: Path, columns: Sequence[str], rows: Sequence[Sequence], timestamp: bool
) -> None:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


def cmd_verify(config: RunConfig, timestamp: bool = True) -> int:
    """Run the selected suites; returns the process exit code."""
    inst = models.instantiate(config.model)
    logger.info(
        "verify: model=%s N=%d beta=%g cond_T=%.3e",
        config.model.name,
        config.model.n,
        config.model.beta,
        inst.meta["cond_t"],
    )

    results = {
        name: suites.CHECKS[name](inst, config.seed, config.t_grid) for name in config.checks
    }

    # overrides may only loosen: reject anything below the group floor
    final: list[suites.GroupResult] = []
    for name in suites.CHECKS:
        if name not in results:
            continue
        result = results[name]
        if name in config.tolerances:
            override = config.tolerances[name]
            floor = suites.group_floor(result)
            if override < floor:
                raise ConfigError(
                    f"tolerance override {override:g} for {name!r} is below the floor {floor:.3e}"
                )
            result = suites.apply_override(result, override)
        final.append(result)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "verify_report.csv",
        ("check", "max_residual", "tolerance", "pass"),
        [(r.check, r.max_residual, r.tolerance, r.passed) for r in final],
        timestamp,
    )
    summary = {
        "model": config.model.name,
        "N": config.model.n,
        "beta": config.model.beta,
        "seed": config.seed,
        "domain_assumptions": "automatically satisfied at finite dimension; "
        "continuity statements checked as norm continuity of the generators",
        "metadata": {
            key: (bool(val) if isinstance(val, (bool, np.bool_)) else float(val))
            for key, val in inst.meta.items()
            if key != "name"
        },
        "results": [
            {
                "check": r.check,
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in final
        ],
        "passed": all(r.passed for r in final),
    }
    (out / "verify_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if "kms" in results:
        for kind, rows in results["kms"].rows.items():
            _write_csv(out / f"kms_{kind}.csv", kms_mod.KMS_COLUMNS, rows, timestamp)
    if "entropy" in results:
        n_values = sorted({8, 16, 32, max(8, config.model.n)})
        if config.model.lambda_rule.get("rule") == "explicit":
            cap = len(config.model.lambda_rule["values"])
            n_values = sorted({n for n in n_values if n <= cap} | {cap})
        rows = entropy_mod.summability_report(
            models.lambda_fn(config.model.lambda_rule),
            gammas=(0.5, config.model.beta, 2.0 * config.model.beta),
            n_values=n_values,
        )
        _write_csv(out / "summability.csv", entropy_mod.SUMMABILITY_COLUMNS, rows, timestamp)

    for r in final:
        logger.info(
            "%-16s residual=%.3e tolerance=%.3e %s",
            r.check,
            r.max_residual,
            r.tolerance,
            "pass" if r.passed else "FAIL",
        )
    return 0 if all(r.passed for r in final) else 2


def cmd_sweep(
    config: RunConfig,
    n_values: Sequence[int] | None = None,
    beta_values: Sequence[float] | None = None,
    timestamp: bool = True,
) -> int:
    if bool(n_values) == bool(beta_values):
        raise ConfigError("sweep needs exactly one nonempty axis: N values or beta values")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if n_values:
        rows = models.convergence_sweep(config.model, [int(n) for n in n_values])
        _write_csv(out / "sweep_N.csv", models.sweep_columns("N"), rows, timestamp)
        logger.info("wrote %s", out / "sweep_N.csv")
    else:
        rows = models.beta_sweep(config.model, [float(b) for b in beta_values])
        _write_csv(out / "sweep_beta.csv", models.sweep_columns("beta"), rows, timestamp)
        logger.info("wrote %s", out / "sweep_beta.csv")
    return 0


def cmd_explain(name: str | None, list_all: bool = False, stream=None) -> int:
    stream = stream or sys.stdout
    if list_all or name is None:
        names = list(suites.CHECKS)
    elif name in suites.CHECKS:
        names = [name]
    else:
        raise UnknownCheck(f"unknown check {name!r}; known: {list(suites.CHECKS)}")
    for key in names:
        doc = suites.CHECKS[key].__doc__ or "unavailable, docstrings stripped by python -OO"
        print(f"{key}: {' '.join(doc.split())}", file=stream)
    return 0


def cmd_catalog(stream=None) -> int:
    stream = stream or sys.stdout
    for name, spec in sorted(models.catalog().items()):
        print(
            f"{name}: N={spec.n} beta={spec.beta} "
            f"lambda={spec.lambda_rule['rule']} T={spec.t_rule['rule']}",
            file=stream,
        )
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("RIESZ_GIBBS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riesz-gibbs",
        description="verify thermal/modular identities of biorthogonal systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites from a config")
    p_verify.add_argument("--config", required=True, help="path to JSON run config")
    p_verify.add_argument("--no-timestamp", action="store_true")

    p_sweep = sub.add_parser("sweep", help="convergence sweep over N or beta")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--n-values", type=int, nargs="*", default=None)
    p_sweep.add_argument("--beta-values", type=float, nargs="*", default=None)
    p_sweep.add_argument("--no-timestamp", action="store_true")

    p_explain = sub.add_parser("explain", help="print the identity a check certifies")
    p_explain.add_argument("check", nargs="?", default=None)
    p_explain.add_argument("--list", action="store_true", dest="list_all")

    sub.add_parser("catalog", help="list built-in model families")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            config = load_config_file(args.config)
            return cmd_verify(config, timestamp=not args.no_timestamp)
        if args.command == "sweep":
            config = load_config_file(args.config)
            return cmd_sweep(
                config,
                n_values=args.n_values,
                beta_values=args.beta_values,
                timestamp=not args.no_timestamp,
            )
        if args.command == "explain":
            return cmd_explain(args.check, list_all=args.list_all)
        if args.command == "catalog":
            return cmd_catalog()
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, BadModel, UnknownCheck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RieszGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
