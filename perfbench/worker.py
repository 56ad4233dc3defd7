"""One workload in one process: warm up, run passes through ``cli.main``, check.

Started by ``run.py`` with the BLAS thread variables already pinned, so they
hold before numpy is imported.  The load is a closed loop: one caller makes
sequential calls.  Writes its measurements as JSON to ``--out``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out FILE
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import PROBES, WARMUP, WORKLOADS, Call, check_call


def blas_info() -> dict:
    """numpy version; BLAS library name, version and the thread count it actually uses."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}}


class Runner:
    """Runs calls, keeps their timings and checks, and compares repeats.

    With a started ``probe`` set, it records for each call the time and the
    number of the reference units sampled during it, and leaves their time
    out of the call's wall time.
    """

    def __init__(self, cli, seed: int, work: Path) -> None:
        self.cli, self.seed, self.work = cli, seed, work
        self.probe = None
        self.records: list[dict] = []
        self.first_digest: dict[str, str] = {}
        self.passes = 0
        self.tracer = None

    def _paths(self, call: Call) -> tuple[Path, Path]:
        base = self.work / call.label.replace("/", "_").replace("=", "")
        return base / "config.json", base / "out"

    def prepare(self, calls) -> None:
        for call in calls:
            config, out = self._paths(call)
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps(call.config(self.seed, str(out))), encoding="utf-8")

    def run(self, call: Call) -> None:
        config, out = self._paths(call)
        shutil.rmtree(out, ignore_errors=True)
        if self.tracer is not None:
            self.tracer.call_id = len(self.records)
        probe = self.probe
        error = None
        start = time.perf_counter()
        if probe is not None:
            spent, units = probe.spent_s, probe.units_run
        try:
            code = self.cli.main(call.argv(str(config)))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark keeps running and counts it
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        ref_s = ref_units = None
        if probe is not None:
            ref_s, ref_units = probe.spent_s - spent, probe.units_run - units
            wall -= ref_s
        checked = check_call(call, self.seed, code, out)
        if error:
            checked.problems.append(error)
        first = self.first_digest.setdefault(call.label, checked.digest)
        if checked.digest != first:
            checked.problems.append("outputs differ from an earlier call of the same config")
            checked.failed = call.ops
        self.records.append({
            "label": call.label, "pass": self.passes, "wall_s": wall, "ref_s": ref_s,
            "ref_units": ref_units, "exit": code,
            "digest": checked.digest, "ops": call.ops, "failed": checked.failed,
            "fields": checked.fields, "bad_fields": checked.bad_fields,
            "reported_fail": checked.reported_fail, "problems": checked.problems,
        })

    def run_passes(self, calls, seconds: float, min_passes: int) -> list[float]:
        """Whole passes until ``seconds`` have elapsed; returns each pass's wall time."""
        walls = []
        start = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            for call in calls:
                self.run(call)
            walls.append(time.perf_counter() - t0)
            self.passes += 1
        return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from rieszgibbs import cli

    work = Path(args.work)
    calls = WORKLOADS[args.workload]
    runner = Runner(cli, args.seed, work)
    runner.prepare((WARMUP, *calls))
    runner.run(WARMUP)  # lazy initialisation is not part of any timing
    runner.records.clear()

    result: dict = {"env": blas_info()}
    if args.trace:
        from tracer import Tracer, summarize

        untraced = runner.run_passes(calls, args.seconds / 2, min_passes=1)
        tracer = runner.tracer = Tracer()
        tracer.install()
        traced, per_pass = [], []
        start = time.perf_counter()
        try:
            while not traced or time.perf_counter() - start < args.seconds / 2:
                mark = tracer.mark()
                traced += runner.run_passes(calls, 0.0, min_passes=1)
                per_pass.append(summarize(tracer, mark))
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.json")
        layer = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        layer["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = layer
        result["absent"] = tracer.absent
    else:
        runner.probe = PROBES[args.workload]
        runner.probe.start()
        try:
            # at least two passes, so every config is compared against a repeat
            runner.run_passes(calls, args.seconds, min_passes=2)
        finally:
            runner.probe.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = runner.records
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
