#!/usr/bin/env python3
"""Entropy of the deformed density equals the reference entropy.

rho = T rho0 T^-1 and log rho = T log(rho0) T^-1 pair with the biorthogonal
families to give S_rho = -sum_n psi_n* (rho log rho) phi_n, which collapses
to the reference value S_rho0 = -tr(rho0 log rho0) for every admissible T.
Also shown: the power-series route to the logarithm inside its convergence
domain, and summability diagnostics for three spectrum growth laws.
"""

import numpy as np

from rieszgibbs.entropy import (
    build_density,
    entropy_generalized,
    entropy_standard,
    matrix_log_series,
    summability_report,
)
from rieszgibbs.models import instantiate, preset

print("=== entropy equality across constructing operators ===")
for name, n in (("jordan2", None), ("oscillator", 32), ("diag_sqrt", 32), ("exp_gen", 16)):
    inst = instantiate(preset(name, n=n))
    pair = build_density(inst.system, inst.spectrum)
    s_std = entropy_standard(pair)
    s_gen = entropy_generalized(pair)
    print(f"{name:12s} N={inst.system.dim:3d}  S_rho0 = {s_std:.10f}  |S_rho - S_rho0| = {abs(s_gen - s_std):.2e}")

print("\njordan2 value is the binary entropy of p0 = 1/(1 + e^-1) = 0.731059:")
inst = instantiate(preset("jordan2"))
print(f"  S = {entropy_standard(build_density(inst.system, inst.spectrum)):.6f}")

print("\n=== power-series logarithm inside spectrum(rho0) in (0, 2) ===")
from rieszgibbs.gibbs import Spectrum
from rieszgibbs.riesz import build_system

sys4 = build_system(np.eye(4), np.eye(4) + 0.3 * np.eye(4, k=-1))
spec4 = Spectrum(lambdas=np.array([0.2, 0.4, 0.6, 0.8]), beta=1.0)
pair4 = build_density(sys4, spec4, normalize=False)
for terms in (5, 20, 80, 200):
    err = np.linalg.norm(matrix_log_series(pair4.rho, terms) - pair4.log_rho)
    print(f"  {terms:4d} terms: ||series - T log(rho0) T^-1||_F = {err:.3e}")

print("\n=== summability of sum e^(-gamma lambda_n) for three growth laws ===")
n = np.arange(256.0)
cases = [
    ("lambda_n = n + 1", n + 1.0, 1.0),
    ("lambda_n = log(n+2)", np.log(n + 2.0), 1.0),
    ("lambda_n = (n+1)^2", (n + 1.0) ** 2, 0.1),
]
for label, lambdas, gamma in cases:
    rows = summability_report(lambdas, gammas=[gamma], n_values=[16, 64, 256])
    last = rows[-1]
    print(
        f"  {label:22s} gamma={gamma}: partial sum = {last.partial_sum_0:12.6f}, "
        f"tail ratio = {last.tail_ratio:.4f}, converged = {last.converged}"
    )
print("(the logarithmic spectrum is flagged: its tail never decays geometrically)")
