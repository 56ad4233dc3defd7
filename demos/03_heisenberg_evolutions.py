#!/usr/bin/env python3
"""Similarity propagators and the three Heisenberg evolutions.

H = T H0 T^-1 is not normal, yet it inherits the real spectrum of H0 and
its propagator is defined by the similarity e^{itH} = T e^{itH0} T^-1.
The evolutions alpha^phi (generated by H) and alpha^psi (generated by H*)
are not star-automorphisms individually; instead they exchange under the
adjoint: alpha^phi_t(X)* = alpha^psi_t(X*).
"""

import numpy as np

from rieszgibbs.dynamics import (
    evolve,
    generator_residuals,
    group_law_bound,
    hamiltonian,
    propagator,
    spectral_evolution,
    spectrum_residual,
)
from rieszgibbs.models import instantiate, preset, random_observable

inst = instantiate(preset("shift_half", n=12))
system, spectrum = inst.system, inst.spectrum
ham = hamiltonian(system, spectrum)

print("non-normality of H:", f"||H H* - H* H||_F = {np.linalg.norm(ham.h @ ham.h.conj().T - ham.h.conj().T @ ham.h):.3f}")
print(f"spectrum residual vs lambda_n: {spectrum_residual(ham):.3e}  (real spectrum)")

t = 1.7
u = propagator(ham, "phi", t)
print(f"\npropagator adjoint: ||(e^(itH))* - e^(-itH*)||_F = "
      f"{np.linalg.norm(u.conj().T - propagator(ham, 'psi', -t)):.3e}")

rng = np.random.default_rng(3)
x = random_observable(12, rng)

s = 0.8
lhs = evolve(ham, "phi", s + t, x)
rhs = evolve(ham, "phi", s, evolve(ham, "phi", t, x))
bound, kappa = group_law_bound(ham)
print(f"group law: ||alpha_(s+t) - alpha_s(alpha_t)||_F = {np.linalg.norm(lhs - rhs):.3e}; "
      f"bound over every s, t and ||X||_F <= 1: {bound:.3e} (kappa = {kappa:.3f})")
print("  (the bound holds in exact arithmetic on V = C F and D = F* C^-1, and D V = I "
      "exactly here; the sample adds the rounding of forming U_t)")

adj = np.linalg.norm(evolve(ham, "phi", t, x).conj().T - evolve(ham, "psi", t, x.conj().T))
print(f"adjoint exchange: ||alpha^phi_t(X)* - alpha^psi_t(X*)||_F = {adj:.3e}")

sandwich = system.t_op @ evolve(ham, "f", t, system.t_inv @ x @ system.t_op) @ system.t_inv
print(f"factorization through alpha^0: {np.linalg.norm(evolve(ham, 'phi', t, x) - sandwich):.3e}")

print("\nfirst-order difference quotient converges to i[G, X] (residual ~ t):")
print(f"{'t_step':>10s} {'alpha^0':>12s} {'alpha^phi':>12s} {'alpha^psi':>12s}")
steps = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
columns = [
    generator_residuals(spectral_evolution(ham, which, x), steps) for which in ("f", "phi", "psi")
]
for t_step, row in zip(steps, zip(*columns)):
    print(f"{t_step:10.2e} {row[0]:12.4e} {row[1]:12.4e} {row[2]:12.4e}")
print("(each column halves as t_step halves)")
