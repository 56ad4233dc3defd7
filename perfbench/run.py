"""Benchmark entry point for riesz-gibbs: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload verify_n256 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  The package is imported from
``src`` (``PYTHONPATH=src``); nothing needs installing.  Each workload runs
in a fresh process with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the JSON result; the line before it
records the seed, the environment and the raw correctness counts.  Exits
non-zero without a result when the checks cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 15
WORKER_TIMEOUT_S = 160
WORK_DIR = ".perfbench_out"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pinned_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("RIESZ_GIBBS_LOG", None)
    return env


def setup_seconds(root: Path, env: dict) -> float:
    """Median wall time for a fresh interpreter to import ``rieszgibbs.cli``."""
    cmd = [sys.executable, "-c", "import rieszgibbs.cli"]
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=60)  # writes bytecode caches
    times = []
    for _ in range(SETUP_LAUNCHES):
        # no timeout here: with one, the wait polls in steps of up to 50 ms
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def source_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "rieszgibbs").rglob("*.py")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def mean_ref_s(records: list[dict]) -> float:
    """Mean time of the reference units sampled during these calls."""
    return sum(r["ref_s"] for r in records) / sum(r["ref_units"] for r in records)


def call_times(records: list[dict], divisor) -> tuple[float, float]:
    """(median over passes, 90th percentile over configs) of the mean call time.

    Each group's mean wall time is divided by ``divisor(group)``: by
    ``mean_ref_s`` for the call-cost metrics, in reference units.  Times are
    taken per pass and per config, not over all calls pooled: a pooled
    percentile of a fixed mix of configs jumps between configs from run to
    run.
    """
    by_pass, by_config = {}, {}
    for r in records:
        by_pass.setdefault(r["pass"], []).append(r)
        by_config.setdefault(r["label"], []).append(r)

    def cost(rs):
        return statistics.fmean(r["wall_s"] for r in rs) / divisor(rs)

    return (statistics.median(cost(rs) for rs in by_pass.values()),
            p90([cost(rs) for rs in by_config.values()]))


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "frac" if name.endswith("_frac") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rieszgibbs" / "cli.py").is_file():
        print("error: run from a riesz-gibbs checkout (src/rieszgibbs/cli.py not found)",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**64  # the config schema takes a 64-bit unsigned seed
    work = root / WORK_DIR / f"{args.workload}-{seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = pinned_env(root)

    try:
        setup = None if args.trace else setup_seconds(root, env)
        out = work / "result.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work), "--out", str(out)],
            env=env, cwd=root, check=True, timeout=WORKER_TIMEOUT_S,
        )
        result = json.loads(out.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: the workload could not run: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    first_pass = [r for r in records if r["pass"] == 0]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    fields = sum(r["fields"] for r in first_pass)
    bad_fields = sum(r["bad_fields"] for r in first_pass)
    problems = [f"{r['label']} pass {r['pass']}: {p}" for r in records for p in r["problems"]]
    reported = sorted({f"{r['label']}: {g}" for r in records for g in r["reported_fail"]})
    for line in problems + [f"{name} reports FAIL" for name in reported]:
        print(f"[{args.workload}] {line}", file=sys.stderr)

    seconds = {}
    if not args.trace:
        call_rel, call_p90_rel = call_times(records, mean_ref_s)
        call_s, call_p90_s = call_times(records, lambda rs: 1.0)
        seconds = {"call_s": call_s, "call_p90_s": call_p90_s, "ref_unit_s": mean_ref_s(records)}
    print(json.dumps({
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "calls": len(records),
        "ops_failed_frac": failed / attempted,
        "report_bad_fields": bad_fields,
        "report_fields": fields,
        "reported_fail": reported,
        **seconds,
        "absent": result.get("absent", []),
        "env": {
            **result["env"],
            "pinned": PINNED,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": source_lines(root),
        },
    }, sort_keys=True))

    if args.trace:
        metrics = {k: metric(v, per_layer_unit(k)) for k, v in sorted(result["per_layer"].items())}
    else:
        metrics = {
            "setup_s": metric(setup, "s"),
            "call_rel": metric(call_rel, "ref"),
            "call_p90_rel": metric(call_p90_rel, "ref"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "ops_ok_frac": metric(1.0 - failed / attempted, "frac"),
            "fields_ok_frac": metric(1.0 - bad_fields / fields if fields else 0.0, "frac"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
