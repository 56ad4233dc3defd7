"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite targets a single core in well under a minute.
"""

import json

import numpy as np
import pytest

from conftest import instance
from rieszgibbs import cli, dynamics, entropy, gibbs, kms, modular, models, numerics
from rieszgibbs.models import random_observable
from rieszgibbs.riesz import verify_biorthogonality

# the fixture families, instantiated at the dimensions each criterion needs
FAMILIES = ("oscillator", "shift_half", "diag_sqrt", "exp_gen")

WIDE_FIXTURES = [("jordan2", None)] + [(f, n) for f in FAMILIES for n in (8, 32, 64)]
CORE_FIXTURES = [
    ("jordan2", None),
    ("oscillator", 8),
    ("shift_half", 8),
    ("diag_sqrt", 32),
    ("exp_gen", 16),
]
KMS_FIXTURES = [
    ("jordan2", None),
    ("oscillator", 16),
    ("shift_half", 16),
    ("diag_sqrt", 16),
    ("exp_gen", 12),
]


def report(number: int, label: str, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_01_biorthogonality():
    worst = 0.0
    for name, n in WIDE_FIXTURES:
        inst = instance(name, n=n)
        assert inst.system.cond_t <= 1e6
        dev = verify_biorthogonality(inst.system)
        tol = 1e-10 * inst.system.cond_t
        worst = max(worst, dev / tol)
    report(1, "biorthogonality", worst <= 1.0, f"worst residual/tolerance = {worst:.3e}")


def test_criterion_02_dual_representation(rng):
    worst = 0.0
    for name, n in CORE_FIXTURES:
        inst = instance(name, n=n)
        dim = inst.system.dim
        tol = 1e-11 * inst.system.cond_t**2 * dim
        states = [gibbs.gibbs_state(inst.system, inst.spectrum, k) for k in ("f", "phi", "psi")]
        for _ in range(100):
            x = random_observable(dim, rng)
            for state in states:
                dev = abs(gibbs.omega_sum(state, x) - gibbs.omega_trace(state, x))
                worst = max(worst, dev / tol)
            # omega_phi(X) = (Z0/Zphi) omega_f(T^H X T)
            t_op = inst.system.t_op
            pulled = gibbs.omega_trace(states[0], t_op.conj().T @ x @ t_op)
            z_ratio = states[0].partition / states[1].partition
            ratio = abs(gibbs.omega_trace(states[1], x) - z_ratio * pulled)
            worst = max(worst, ratio / tol)
    report(2, "dual representation", worst <= 1.0, f"worst residual/tolerance = {worst:.3e}")


def test_criterion_03_faithfulness():
    worst_margin = np.inf
    for name, n in CORE_FIXTURES:
        inst = instance(name, n=n)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        witness = gibbs.faithfulness_witness(state)
        sigma_min = 1.0 / np.linalg.norm(inst.system.t_inv, 2)
        bound = (
            np.exp(-inst.spectrum.beta * inst.spectrum.lambdas[-1])
            * sigma_min**2
            / state.partition
        )
        assert witness.min_eigenvalue > 0.0
        worst_margin = min(worst_margin, witness.min_eigenvalue / bound)
    report(
        3,
        "faithfulness",
        worst_margin >= 0.9,
        f"smallest (min eig)/(lower bound) = {worst_margin:.6f} (needs >= 0.9)",
    )


def test_criterion_04_dynamics(rng):
    worst_group = worst_adjoint = 0.0
    ratios = []
    for name, n in [("jordan2", None), ("oscillator", 8), ("shift_half", 16),
                    ("diag_sqrt", 16), ("exp_gen", 12)]:
        inst = instance(name, n=n)
        dim = inst.system.dim
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        x = random_observable(dim, rng)
        for s, t in ((0.7, 0.2), (4.7, 5.3), (9.0, -8.5)):
            lhs = dynamics.evolve(ham, "phi", s + t, x)
            rhs = dynamics.evolve(ham, "phi", s, dynamics.evolve(ham, "phi", t, x))
            worst_group = max(worst_group, numerics.frobenius(lhs - rhs))
            adj = numerics.frobenius(
                dynamics.evolve(ham, "phi", t, x).conj().T
                - dynamics.evolve(ham, "psi", t, x.conj().T)
            )
            worst_adjoint = max(worst_adjoint, adj)
        for which in ("f", "phi", "psi"):
            r1, r2 = dynamics.generator_residuals(
                dynamics.spectral_evolution(ham, which, x), (1e-3, 5e-4)
            )
            ratios.append(r2 / r1)
    ok = (
        worst_group <= 1e-11
        and worst_adjoint <= 1e-11
        and all(0.4 <= r <= 0.6 for r in ratios)
    )
    report(
        4,
        "dynamics",
        ok,
        f"group law {worst_group:.3e} <= 1e-11, adjoint {worst_adjoint:.3e} <= 1e-11, "
        f"halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )


def test_criterion_05_real_spectrum():
    worst = 0.0
    for name, n in WIDE_FIXTURES:
        inst = instance(name, n=n)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        tol = 1e-9 * inst.system.cond_t * inst.spectrum.lambdas[-1]
        worst = max(worst, dynamics.spectrum_residual(ham) / tol)
    report(5, "real spectrum of H", worst <= 1.0, f"worst residual/tolerance = {worst:.3e}")


def test_criterion_06_entropy():
    worst = 0.0
    for name, n in WIDE_FIXTURES:
        inst = instance(name, n=n)
        pair = entropy.build_density(inst.system, inst.spectrum)
        dev = abs(entropy.entropy_generalized(pair) - entropy.entropy_standard(pair))
        worst = max(worst, dev / (1e-10 * inst.system.cond_t))
    jordan = instance("jordan2")
    s0 = entropy.entropy_standard(entropy.build_density(jordan.system, jordan.spectrum))
    binary_ok = abs(s0 - 0.58220) <= 1e-5
    report(
        6,
        "entropy equality",
        worst <= 1.0 and binary_ok,
        f"worst |S_rho - S_rho0|/tolerance = {worst:.3e}, jordan2 S = {s0:.6f} vs 0.58220",
    )


def test_criterion_07_kms_boundaries(rng):
    t_grid = np.linspace(-10.0, 10.0, 41)
    worst = 0.0
    for name, n in KMS_FIXTURES:
        inst = instance(name, n=n)
        dim = inst.system.dim
        tol = 1e-10 * inst.system.cond_t**2 * dim
        x, y = random_observable(dim, rng), random_observable(dim, rng)
        sf = kms.strip_function(gibbs.gibbs_state(inst.system, inst.spectrum, "phi"), x, y)
        worst = max(worst, max(kms.verify_kms_like(sf, t_grid)) / tol)
        sf_psi = kms.strip_function(gibbs.gibbs_state(inst.system, inst.spectrum, "psi"), x, y)
        worst = max(worst, max(kms.verify_kms_like(sf_psi, t_grid)) / tol)

    # unitary-T reduction: the twist drops and the textbook identity holds to 1e-12
    osc = instance("oscillator", n=16)
    x, y = random_observable(16, rng), random_observable(16, rng)
    state = gibbs.gibbs_state(osc.system, osc.spectrum, "phi")
    sf = kms.strip_function(state, x, y)
    ham = dynamics.hamiltonian(osc.system, osc.spectrum)
    textbook = max(
        abs(
            kms.strip_values(sf, [t + 1j * osc.spectrum.beta])[0]
            - gibbs.omega_trace(state, dynamics.evolve(ham, "f", t, y) @ x)
        )
        for t in t_grid
    )

    # Cauchy mean value over a 32-node circle of radius half the distance to
    # the nearer boundary (at most 0.5) around each interior point
    beta = osc.spectrum.beta
    nodes = np.exp(2j * np.pi * np.arange(32) / 32)
    cauchy = 0.0
    for z0 in [0.5j, 0.3 + 0.25j, -1.2 + 0.75j, 2.0 + 0.5j, -4.0 + 0.4j]:
        radius = min(0.5 * z0.imag, 0.5 * (beta - z0.imag), 0.5)
        values = kms.strip_values(sf, np.append(z0 + radius * nodes, z0))
        cauchy = max(cauchy, abs(values[:-1].mean() - values[-1]))
    ok = worst <= 1.0 and textbook <= 1e-12 and cauchy <= 1e-9
    report(
        7,
        "twisted boundary identities",
        ok,
        f"worst residual/tolerance = {worst:.3e}, textbook reduction {textbook:.3e} <= 1e-12, "
        f"Cauchy mean residual {cauchy:.3e} <= 1e-9",
    )


def test_criterion_08_modular():
    # S and the vector state are certified for every X with ||X||_F <= 1 at once
    worst_s = worst_state = worst_norm = 0.0
    for name, n in [("jordan2", None), ("oscillator", 8), ("shift_half", 8)]:
        inst = instance(name, n=n)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        md = modular.modular_data(state)
        worst_norm = max(worst_norm, abs(numerics.frobenius(md.omega) - 1.0))
        worst_s = max(worst_s, modular.tomita_residual(md) / (1e-10 * md.cond_omega**2))
        worst_state = max(worst_state, modular.state_residual(md, state))
    worst_oracle = 0.0
    for name, n in [("jordan2", None), ("oscillator", 4), ("diag_sqrt", 6)]:
        inst = instance(name, n=n)
        md = modular.modular_data(gibbs.gibbs_state(inst.system, inst.spectrum, "phi"))
        got = np.sort(np.linalg.eigvalsh(modular.delta_matrix(md)))
        expected = modular.delta_spectrum_expected(md)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(got - expected) / np.maximum(1.0, expected)))
        )
    ok = (
        worst_s <= 1.0
        and worst_state <= 1e-11
        and worst_norm <= 1e-12
        and worst_oracle <= 1e-10
    )
    report(
        8,
        "modular structure",
        ok,
        f"S-involution bound/tolerance {worst_s:.3e}, state agreement {worst_state:.3e} <= 1e-11 "
        f"(both over every X), "
        f"HS-norm defect {worst_norm:.3e} <= 1e-12, Delta spectrum {worst_oracle:.3e} <= 1e-10",
    )


def test_criterion_09_truncation_convergence():
    rows = models.convergence_sweep(models.preset("oscillator"), [8, 16, 24, 32, 64])
    limit = np.exp(-1.0) / (1.0 - np.exp(-1.0))
    worst = 0.0
    for row in rows:
        n = int(row.axis)
        if n > 32:
            continue  # beyond N=32 the geometric tail is below double resolution
        worst = max(worst, abs(row.z0 - limit) / (2.0 * np.exp(-(n + 1.0))))
    diff_columns = {
        "dZ0": [r.d_z0 for r in rows[1:]],
        "dZphi": [r.d_z_phi for r in rows[1:]],
        "dZpsi": [r.d_z_psi for r in rows[1:]],
        "dS_rho": [r.d_s_rho for r in rows[1:]],
    }
    monotone = all(
        all(b <= a + 1e-15 for a, b in zip(col, col[1:])) for col in diff_columns.values()
    )
    report(
        9,
        "truncation convergence",
        worst <= 1.0 and monotone,
        f"worst |Z0(N)-limit| / 2e^-(N+1) = {worst:.3e}, "
        f"successive-difference columns nonincreasing = {monotone}",
    )


def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    base = {
        "model": {"preset": "jordan2"},
        "seed": 42,
        "t_grid": [0.0, 0.5, 1.0, 2.0],
    }
    for out in (out1, out2):
        config = dict(base, output_dir=str(out))
        path = tmp_path / f"config_{out.name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["verify", "--config", str(path), "--no-timestamp"]) == 0
    names = [
        "verify_report.csv",
        "verify_summary.json",
        "kms_phi.csv",
        "kms_psi.csv",
        "summability.csv",
    ]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    report(
        10,
        "determinism",
        identical,
        f"two runs of one config byte-identical across {len(names)} files",
    )
