"""Workload definitions and the output checks that define a failed operation.

A workload is one *pass*: a fixed list of CLI calls made from a seed.  An
operation is one check group within one ``verify`` call, or one row of a
``sweep`` call.  Checks distinguish two kinds of failure:

- a check group that reports ``"pass": false`` (the program says an identity
  does not hold at this truncation) fails its operation only;
- anything that makes an output wrong or unverifiable -- a raise or exit 3,
  an exit code that disagrees with the summary, a missing or malformed
  output, a difference from a repeat of the same config, an oracle
  disagreement -- fails the operation and marks the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from reference import SpeedProbe

ALL_GROUPS = ("biorthogonality", "gibbs", "dynamics", "entropy", "kms", "modular")
CATALOG = ("diag_growth", "diag_sqrt", "exp_gen", "oscillator", "shift_half")
SWEEP_N = (16, 64, 128, 256, 512)
SHIFT_EPSILON = 0.5  # the shift_half preset: T = I + 0.5 L, lambda_n = 1 + n
ORACLE_RTOL = 1e-12
TEXT_COLUMNS = {"check", "pass", "converged"}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``verify`` on ``groups`` or ``sweep`` over ``n_values``."""

    label: str
    model: dict
    groups: tuple[str, ...] = ()
    n_values: tuple[int, ...] = ()

    @property
    def command(self) -> str:
        return "sweep" if self.n_values else "verify"

    def config(self, seed: int, output_dir: str) -> dict:
        cfg = {"model": self.model, "output_dir": output_dir, "seed": seed}
        if self.groups:
            cfg["checks"] = list(self.groups)
        return cfg

    def argv(self, config_path: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--no-timestamp"]
        if self.n_values:
            argv += ["--n-values", *map(str, self.n_values)]
        return argv

    @property
    def ops(self) -> int:
        return len(self.n_values) or len(self.groups)


WARMUP = Call("warmup/shift_half/N=8", {"preset": "shift_half", "N": 8}, ALL_GROUPS)

WORKLOADS: dict[str, tuple[Call, ...]] = {
    # modular is left out: it raises Singular for shift_half at N >= 128.
    "verify_n256": (
        Call(
            "shift_half/N=256",
            {"preset": "shift_half", "N": 256, "beta": 1.0},
            ("biorthogonality", "gibbs", "dynamics", "entropy", "kms"),
        ),
    ),
    "verify_small_catalog": tuple(
        Call(f"{name}/N={n}", {"preset": name, "N": n}, ALL_GROUPS)
        for name in CATALOG
        for n in (8, 16, 32)
    )
    + (Call("jordan2/N=2", {"preset": "jordan2", "N": 2}, ALL_GROUPS),),
    "sweep_n512": (
        Call("shift_half/sweep", {"preset": "shift_half", "beta": 1.0}, n_values=SWEEP_N),
    ),
}


# What the call-cost metrics divide by, sampled during the calls; it takes
# 4-12% of a call's time.
PROBES: dict[str, SpeedProbe] = {
    "verify_n256": SpeedProbe("dense", units=5, period=1.0),
    "verify_small_catalog": SpeedProbe("small", units=10, period=0.025),
    "sweep_n512": SpeedProbe("dense", units=5, period=0.5),
}


@dataclass
class Checked:
    """Outcome of the output checks on one call."""

    failed: int = 0
    fields: int = 0
    bad_fields: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)  # output wrong or unverifiable
    reported_fail: list[str] = field(default_factory=list)  # groups reporting FAIL


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def count_fields(out: Path) -> tuple[int, int]:
    """(numeric CSV fields, those ``float()`` rejects); empty fields are absent values."""
    total = bad = 0
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            continue
        header, body = rows[0], rows[1:]
        for row in body:
            for col, value in zip(header, row):
                if col in TEXT_COLUMNS or value == "":
                    continue
                total += 1
                try:
                    float(value)
                except ValueError:
                    bad += 1
    return total, bad


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_verify(call: Call, seed: int, code, out: Path) -> Checked:
    res = Checked()
    required = ["verify_report.csv", "verify_summary.json"]
    if "kms" in call.groups:
        required += ["kms_phi.csv", "kms_psi.csv"]
    if "entropy" in call.groups:
        required.append("summability.csv")
    if code not in (0, 2):
        res.problems.append(f"exit code {code!r}")
    missing = [name for name in required if not (out / name).is_file()]
    if missing:
        res.problems.append(f"missing {missing}")
    summary = {}
    if (out / "verify_summary.json").is_file():
        try:
            summary = json.loads((out / "verify_summary.json").read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            res.problems.append(f"summary is not JSON: {exc}")
    if not isinstance(summary, dict):
        res.problems.append("summary is not an object")
        summary = {}
    results = summary.get("results", [])
    names = [e.get("check") if isinstance(e, dict) else None for e in results]
    entries = dict(zip(names, results))
    if sorted(names, key=str) != sorted(call.groups):
        res.problems.append(f"summary groups {names} != {list(call.groups)}")
    if summary and summary.get("seed") != seed:
        res.problems.append(f"summary seed {summary.get('seed')!r} != {seed}")
    bad_groups = set()
    for group in call.groups:
        entry = entries.get(group)
        if entry is None:
            bad_groups.add(group)
        elif not (_finite(entry.get("max_residual")) and _finite(entry.get("tolerance"))
                  and entry["tolerance"] > 0 and isinstance(entry.get("pass"), bool)):
            res.problems.append(f"malformed entry for {group}")
            bad_groups.add(group)
        elif not entry["pass"]:
            res.reported_fail.append(group)
            bad_groups.add(group)
    passed = summary.get("passed")
    groups_pass = not bad_groups and len(entries) == len(call.groups)
    if summary and (passed is not (code == 0) or passed is not groups_pass):
        res.problems.append(f"exit code {code!r} disagrees with passed={passed!r}")
    res.failed = call.ops if res.problems else len(bad_groups)
    if out.is_dir():
        res.fields, res.bad_fields = count_fields(out)
        res.digest = output_digest(out)
    return res


def shift_half_oracle(n: int, beta: float = 1.0) -> dict[str, float]:
    """Closed forms for T = I + eps L, lambda_n = 1 + n at truncation ``n``."""
    eps2 = SHIFT_EPSILON**2
    w = [math.exp(-beta * (1.0 + k)) for k in range(n)]
    z0 = math.fsum(w)
    z_phi = (1.0 + eps2) * z0 - eps2 * w[-1]
    z_psi = math.fsum(wk * (1.0 - eps2 ** (k + 1)) / (1.0 - eps2) for k, wk in enumerate(w))
    p = [wk / z0 for wk in w]
    return {
        "Z0": z0,
        "Zphi": z_phi,
        "Zpsi": z_psi,
        "omega_identity": 1.0,
        "omega_ground": w[0] / z_phi,
        "S_rho": -math.fsum(pk * math.log(pk) for pk in p if pk > 0.0),
    }


def check_sweep(call: Call, seed: int, code, out: Path) -> Checked:
    res = Checked()
    if code != 0:
        res.problems.append(f"exit code {code!r}")
    path = out / "sweep_N.csv"
    rows = []
    if path.is_file():
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    else:
        res.problems.append("missing sweep_N.csv")
    if len(rows) != len(call.n_values):
        res.problems.append(f"{len(rows)} sweep rows, expected {len(call.n_values)}")
    failed_rows = set(range(len(rows), len(call.n_values)))
    for i, (n, row) in enumerate(zip(call.n_values, rows)):
        expected = shift_half_oracle(n, beta=call.model["beta"])
        try:
            ok = float(row["N"]) == n and all(
                abs(float(row[col]) - want) <= ORACLE_RTOL * abs(want)
                for col, want in expected.items()
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            res.problems.append(f"row N={n} disagrees with the closed-form oracle: {row}")
            failed_rows.add(i)
    res.failed = call.ops if code != 0 else len(failed_rows)
    if out.is_dir():
        res.fields, res.bad_fields = count_fields(out)
        res.digest = output_digest(out)
    return res


def check_call(call: Call, seed: int, code, out: Path) -> Checked:
    check = check_sweep if call.n_values else check_verify
    return check(call, seed, code, out)
