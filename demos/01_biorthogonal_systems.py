#!/usr/bin/env python3
"""Biorthogonal pairs from a constructing operator.

Starting from the standard basis e_n and an invertible T, the two families
phi_n = T e_n and psi_n = (T^-1)* e_n satisfy (phi_n | psi_m) = delta_nm.
This script builds the canonical 2x2 Jordan-block instance, a stiffer random
instance, and shows how the certified biorthogonality deviation scales with
the conditioning of T.
"""

import numpy as np

from rieszgibbs.riesz import (
    biorthogonality_tolerance,
    build_system,
    check_naturalness,
    dual_system,
    verify_biorthogonality,
)

print("=== 2x2 Jordan-block instance ===")
t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
sys2 = build_system(np.eye(2), t)
print("T =\n", t.real)
print("phi columns =\n", sys2.phi.real)
print("psi columns =\n", sys2.psi.real)
print(f"cond(T) = {sys2.cond_t:.6f}")
print(f"max |(phi_n|psi_m) - delta_nm| = {verify_biorthogonality(sys2):.3e}")

print("\n=== naturalness: does a proposed dual family satisfy T* psi_n = e_n? ===")
ok = check_naturalness(sys2, sys2.psi)
print(f"own psi family: natural={ok.is_natural}, deviation={ok.max_deviation:.3e}")
tampered = sys2.psi.copy()
tampered[:, 0] *= 2.0
bad = check_naturalness(sys2, tampered)
print(f"rescaled column: natural={bad.is_natural}, deviation={bad.max_deviation:.3e}")

print("\n=== duality: the system of (T^-1)* swaps the two families ===")
dual = dual_system(sys2)
print(f"max |dual phi - psi| = {np.max(np.abs(dual.phi - sys2.psi)):.3e}")

print("\n=== conditioning vs certified deviation (N = 48) ===")
rng = np.random.default_rng(1)
for scale in (0.05, 0.3, 0.9):
    g = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    sys_n = build_system(np.eye(48), np.eye(48) + scale * g / np.sqrt(48))
    dev = verify_biorthogonality(sys_n)
    tol = biorthogonality_tolerance(sys_n.cond_t)
    print(f"cond(T) = {sys_n.cond_t:9.2f}   deviation = {dev:.3e}   tolerance = {tol:.3e}")
