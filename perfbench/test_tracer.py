"""The benchmark's tracer counts what cProfile counts, and repeats exactly.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

import pytest

import tracer as tracing
from workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rieszgibbs import cli  # noqa: E402


@pytest.fixture
def catalog_call(tmp_path):
    """argv of one verify_small_catalog instance, after a warm-up call."""
    call = next(c for c in WORKLOADS["verify_small_catalog"] if c.label == "exp_gen/N=16")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(call.config(7, str(tmp_path / "out"))), encoding="utf-8")
    argv = call.argv(str(config))
    assert cli.main(argv) == 0
    return argv


def traced_counts(argv) -> dict[str, int]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = tracing.summarize(tracer, mark)
    return {k[: -len(".calls")]: v for k, v in metrics.items() if k.endswith(".calls")}


def test_calls_match_cprofile_and_repeat(catalog_call):
    first = traced_counts(catalog_call)
    assert first == traced_counts(catalog_call)

    profile = cProfile.Profile()
    profile.runcall(cli.main, catalog_call)
    stats = pstats.Stats(profile).stats
    ncalls = {}
    for name in first:
        layer, fname = name.split(".")
        code = getattr(sys.modules[f"rieszgibbs.{layer}"], fname).__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        ncalls[name] = entry[1] if entry else 0
    assert first == ncalls
    assert first["dynamics.h0_exponential"] > 0 and first["modular.modular_data"] > 0


def test_uninstall_restores_every_binding():
    from rieszgibbs import dynamics, kms

    original = dynamics.h0_exponential
    tracer = tracing.Tracer()
    tracer.install()
    assert kms.h0_exponential is dynamics.h0_exponential is not original
    tracer.uninstall()
    assert kms.h0_exponential is dynamics.h0_exponential is original


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "riesz", (*tracing.LAYERS["riesz"], "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["riesz.no_such_function"]
    metrics = tracing.summarize(tracer, tracer.mark())
    assert metrics["riesz.no_such_function.calls"] == 0
