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

The JSON run configuration is strictly validated: unknown keys are rejected.
With ``--no-timestamp`` all outputs are byte-identical for a fixed config and
seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from . import entropy as entropy_mod
from . import kms as kms_mod
from . import models, suites
from .errors import BadModel, ConfigError, RieszGibbsError
from .models import ModelSpec

logger = logging.getLogger("rieszgibbs")

DEFAULT_T_GRID = tuple(np.linspace(-10.0, 10.0, 41))

#: the top-level keys of a run configuration, as README's schema block shows them
CONFIG_KEYS = frozenset({"model", "checks", "output_dir", "seed", "t_grid"})

#: what a rule parameter of each nesting depth in ``models.LAMBDA_RULES`` and
#: ``models.T_RULES`` must be
_SHAPES = (
    "a finite number",
    "a list of finite numbers",
    "a list of equally long lists of finite numbers",
)


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    checks: tuple[str, ...]
    output_dir: str
    seed: int
    t_grid: tuple[float, ...]


def _require_keys(
    section: str, data: Mapping, allowed: AbstractSet[str], required: set[str]
) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {sorted(missing)}")


def _is_number(value) -> bool:
    """A finite JSON number: int or float, never a boolean, NaN, infinity or an
    integer beyond double range."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return finite and not isinstance(value, bool)


def _is_numbers(value, depth: int) -> bool:
    """Does ``value`` have the shape ``_SHAPES[depth]`` names?"""
    if depth == 0:
        return _is_number(value)
    if not isinstance(value, list) or not all(_is_numbers(v, depth - 1) for v in value):
        return False
    return depth == 1 or len({len(row) for row in value}) <= 1


def _validate_rule(section: str, rule: Mapping, table: Mapping[str, Mapping[str, int]]) -> dict:
    """A rule object with known keys whose values have the shapes ``table`` gives."""
    if not isinstance(rule, Mapping):
        raise ConfigError(f"{section} must be an object")
    kind = rule.get("rule")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{section}.rule must be one of {sorted(table)}, got {kind!r}")
    params = table[kind]
    _require_keys(section, rule, {"rule", *params}, {"rule"})
    for key, depth in params.items():
        if key in rule and not _is_numbers(rule[key], depth):
            raise ConfigError(f"{section}.{key} must be {_SHAPES[depth]}")
    return dict(rule)


def _model_n(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("model.N must be a positive integer")
    return n


def _model_beta(beta) -> float:
    if not _is_number(beta) or not beta > 0:
        raise ConfigError("model.beta must be a positive number")
    return float(beta)


def _parse_model(data: Mapping, seed: int) -> ModelSpec:
    if not isinstance(data, Mapping):
        raise ConfigError("model must be an object")
    if "preset" in data:
        _require_keys("model", data, {"preset", "N", "beta"}, {"preset"})
        return models.preset(
            str(data["preset"]),
            n=_model_n(data["N"]) if "N" in data else None,
            beta=_model_beta(data["beta"]) if "beta" in data else None,
            seed=seed,
        )
    _require_keys("model", data, {"name", "N", "beta", "lambda", "T"}, {"N", "beta", "lambda", "T"})
    return ModelSpec(
        name=str(data.get("name", "custom")),
        n=_model_n(data["N"]),
        beta=_model_beta(data["beta"]),
        lambda_rule=_validate_rule("model.lambda", data["lambda"], models.LAMBDA_RULES),
        t_rule=_validate_rule("model.T", data["T"], models.T_RULES),
        seed=seed,
    )


def load_config(data: Mapping) -> RunConfig:
    """Validate a decoded JSON document against the strict schema."""
    if not isinstance(data, Mapping):
        raise ConfigError("configuration root must be an object")
    _require_keys("config", data, CONFIG_KEYS, {"model"})

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an integer in [0, 2^64)")

    checks = data.get("checks", list(suites.CHECKS))
    if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
        raise ConfigError("checks must be a nonempty list of check names")
    unknown = set(checks) - set(suites.CHECKS)
    if unknown:
        raise ConfigError(f"unknown check(s): {sorted(unknown)}")

    t_grid = data.get("t_grid", DEFAULT_T_GRID)
    if not isinstance(t_grid, (list, tuple)) or not all(_is_number(t) for t in t_grid):
        raise ConfigError("t_grid must be a list of finite numbers")
    if "t_grid" in data and not t_grid:
        raise ConfigError("t_grid must not be empty")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")

    return RunConfig(
        model=_parse_model(data["model"], seed),
        checks=tuple(checks),
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


def _flag(value) -> str:
    return "true" if value else "false"


def _write_csv(
    path: Path, columns: Sequence[str], rows: Sequence[Sequence], timestamp: bool
) -> None:
    """Rows of str, None, ints and floats (numpy's too), which csv writes as
    ``str`` does: a float as its repr, None as an empty field.  A flag comes
    as its ``_flag`` string."""
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
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

    # a group that raises ends the run, but the groups before it are still written
    results, error = {}, None
    for name, check in suites.CHECKS.items():
        if name not in config.checks:
            continue
        try:
            results[name] = check(inst, config.seed, config.t_grid)
        except (ConfigError, BadModel):
            raise
        except RieszGibbsError as exc:
            error = {"check": name, "message": str(exc)}
            print(f"error: {exc}", file=sys.stderr)
            break
    final = list(results.values())

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "verify_report.csv",
        ("check", "max_residual", "tolerance", "pass"),
        [(r.check, r.max_residual, r.tolerance, _flag(r.passed)) for r in final],
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
        "passed": error is None and all(r.passed for r in final),
    }
    if error is not None:
        summary["error"] = error
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
            models.lambda_values(config.model.lambda_rule, max(n_values)),
            gammas=(0.5, config.model.beta, 2.0 * config.model.beta),
            n_values=n_values,
        )
        rows = [(*row[:-1], _flag(row.converged)) for row in rows]
        _write_csv(out / "summability.csv", entropy_mod.SUMMABILITY_COLUMNS, rows, timestamp)

    for r in final:
        logger.info(
            "%-16s residual=%.3e tolerance=%.3e %s",
            r.check,
            r.max_residual,
            r.tolerance,
            "pass" if r.passed else "FAIL",
        )
    return 0 if summary["passed"] else 2


def cmd_sweep(
    config: RunConfig,
    n_values: Sequence[int] | None = None,
    beta_values: Sequence[float] | None = None,
    timestamp: bool = True,
) -> int:
    if bool(n_values) == bool(beta_values):
        raise ConfigError("sweep needs exactly one nonempty axis: N values or beta values")
    if n_values:
        axis, rows = "N", models.convergence_sweep(config.model, [int(n) for n in n_values])
    else:
        axis, rows = "beta", models.beta_sweep(config.model, [float(b) for b in beta_values])
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"sweep_{axis}.csv", models.sweep_columns(axis), rows, timestamp)
    logger.info("wrote %s", out / f"sweep_{axis}.csv")
    return 0


def cmd_explain(name: str | None, list_all: bool = False) -> int:
    if list_all or name is None:
        names = list(suites.CHECKS)
    elif name in suites.CHECKS:
        names = [name]
    else:
        raise ConfigError(f"unknown check {name!r}; known: {list(suites.CHECKS)}")
    for key in names:
        doc = suites.CHECKS[key].__doc__ or "unavailable, docstrings stripped by python -OO"
        print(f"{key}: {' '.join(doc.split())}")
    return 0


def cmd_catalog() -> int:
    for name, spec in sorted(models.catalog().items()):
        print(
            f"{name}: N={spec.n} beta={spec.beta} "
            f"lambda={spec.lambda_rule['rule']} T={spec.t_rule['rule']}"
        )
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("RIESZ_GIBBS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


@functools.cache  # built once per process; parsing leaves no state in it
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
    except (ConfigError, BadModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RieszGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
