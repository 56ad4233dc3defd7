"""Span tracer for the rieszgibbs layers, installed from outside the package.

Each listed public function is replaced, in every ``rieszgibbs`` module that
binds it, by a wrapper that records one span per call:
``[name, start, end, parent_index, call_id]``.  Modules such as ``kms``,
``models`` and ``modular`` import functions by name
(``from .dynamics import h0_exponential``), so patching only the defining
module would miss those calls.  Spans stay in memory until ``write``.

Trivial helpers (``dagger``, ``frobenius``, ``trace``, ``hs_inner``,
``as_operator``) are deliberately not wrapped: they are called so often that
wrapping them distorts the timings it is meant to measure.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import sys
import time

#: module -> public functions traced in that layer
LAYERS = {
    "numerics": ("herm_eig", "svd", "cond", "inverse", "abs_of_adjoint", "func_of_hermitian"),
    "riesz": ("build_system", "dual_system", "verify_biorthogonality"),
    "gibbs": (
        "gibbs_state",
        "boltzmann_operator",
        "partition_constants",
        "omega_sum",
        "omega_trace",
        "faithfulness_witness",
    ),
    "dynamics": ("hamiltonian", "h0_exponential", "evolve", "spectrum_residual"),
    "entropy": ("build_density", "entropy_generalized", "matrix_log_series", "summability_report"),
    "kms": ("strip_function", "strip_f", "verification_rows", "cauchy_mean_residual"),
    "modular": ("omega_vectors", "modular_data", "omega_power", "modular_flow", "verify_modular_kms"),
    "models": ("instantiate", "build_t", "convergence_sweep"),
    "suites": (
        "check_biorthogonality",
        "check_gibbs",
        "check_dynamics",
        "check_entropy",
        "check_kms",
        "check_modular",
    ),
    "cli": ("cmd_verify", "cmd_sweep"),
}

#: functions whose distinct inputs are counted (wasted-work ratio)
DISTINCT = ("gibbs.gibbs_state", "dynamics.hamiltonian", "riesz.build_system")

PACKAGE = "rieszgibbs"


def _digest(h, value) -> None:
    """Feed a content fingerprint of an argument into ``h``."""
    if hasattr(value, "dtype") and hasattr(value, "tobytes"):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(value.tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _digest(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _digest(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode())


def input_key(args, kwargs) -> str:
    h = hashlib.blake2b(digest_size=16)
    _digest(h, args)
    _digest(h, sorted(kwargs.items()))
    return h.hexdigest()


class Tracer:
    """Wraps the listed functions; ``spans`` is the in-memory record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.keys: dict[str, list[str]] = {name: [] for name in DISTINCT}
        self.call_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, keys = self.spans, self._stack, self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(input_key(args, kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position in the record, for summarising only what follows it."""
        return len(self.spans), {k: len(v) for k, v in self.keys.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def summarize(tracer: Tracer, since: tuple[int, dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics over the spans recorded after ``since``.

    ``<layer>.<fn>.calls`` and ``.s`` (inclusive), ``<layer>.self_s`` (span
    time not covered by a traced child), ``cli.output_s`` (``cmd_verify``
    minus its check groups) and ``<layer>.<fn>.distinct_frac``.  A listed
    function the package no longer has reads 0 and is named in
    ``tracer.absent``.
    """
    first, key_marks = since
    spans = tracer.spans[first:]
    child_time = [0.0] * len(spans)
    check_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= first:
            child_time[parent - first] += end - start
            if name.startswith("suites.check_"):
                check_time[parent - first] += end - start

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.self_s"] = 0.0
        for fname in names:
            if layer not in ("suites", "cli"):
                out[f"{layer}.{fname}.calls"] = 0
            out[f"{layer}.{fname}.s"] = 0.0
    out["cli.output_s"] = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{layer}.self_s"] += dur - child_time[i]
        if name == "cli.cmd_verify":
            out["cli.output_s"] += dur - check_time[i]
    for name in DISTINCT:
        keys = tracer.keys[name][key_marks[name]:]
        out[f"{name}.distinct_frac"] = len(set(keys)) / len(keys) if keys else 0.0
    return out
