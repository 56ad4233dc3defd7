#!/usr/bin/env python3
"""Modular structure on the Hilbert-Schmidt space of N x N matrices.

The phi state is implemented by the positive unit vector
Omega_phi = |(T e^{-beta H0/2})*| / sqrt(Zphi):  omega(X) = (X Omega | Omega).
Its modular data acts by two-sided multiplication,

    J(V) = V*,   Delta(V) = Omega^2 V Omega^-2,   sigma_t(X) = Omega^2it X Omega^-2it,

and the closure of X Omega -> X* Omega factors as J Delta^(1/2).  For small N
a dense N^2 x N^2 materialization of Delta cross-checks its spectrum
{(w_j / w_k)^2} against the eigenvalues w of Omega.
"""

import numpy as np

from rieszgibbs import (
    gibbs_state,
    hamiltonian,
    modular_data,
    modular_flow,
    omega_trace,
    omega_vector,
    state_via_vector,
    tomita_s,
    verify_modular_kms,
)
from rieszgibbs.modular import commuting_flow_residual, delta_matrix, delta_spectrum_expected
from rieszgibbs.models import instantiate, preset, random_observable

rng = np.random.default_rng(5)
inst = instantiate(preset("shift_half", n=6))
system, spectrum = inst.system, inst.spectrum

state = gibbs_state(system, spectrum, "phi")
md = modular_data(omega_vector(state))
print(f"||Omega_phi||_HS = {np.sqrt(np.trace(md.omega @ md.omega).real):.15f}")
print(f"cond(Omega_phi)  = {md.cond_omega:.3f}")

x = random_observable(6, rng)
print(f"\nvector state vs trace form: |(X Omega|Omega) - omega(X)| = "
      f"{abs(state_via_vector(x, md.omega) - omega_trace(state, x)):.3e}")

v = x @ md.omega
print(f"Tomita involution: ||S(X Omega) - X* Omega||_HS = "
      f"{np.linalg.norm(tomita_s(md, v) - x.conj().T @ md.omega):.3e}")

y = random_observable(6, rng)
print(f"thermal condition along the modular flow (unit inverse temperature): "
      f"{verify_modular_kms(md, x, y, [0.0, 0.7, -1.3]):.3e}")

print("\ndense-oracle check of the Delta spectrum (N = 6, so Delta is 36 x 36):")
got = np.sort(np.linalg.eigvalsh(delta_matrix(md)))
expected = delta_spectrum_expected(md)
print(f"  max |eig(Delta) - (w_j/w_k)^2| = {np.max(np.abs(got - expected)):.3e}")
print(f"  spectral range of Delta: [{got[0]:.3e}, {got[-1]:.3e}]")

print("\ncommuting case ([T, H0] = 0): the deformed evolution factors through")
print("the modular flow conjugated by |T*|^(2it/beta):")
osc = instantiate(preset("diag_sqrt", n=8))
ham = hamiltonian(osc.system, osc.spectrum)
md_osc = modular_data(omega_vector(gibbs_state(osc.system, osc.spectrum, "phi")))
for t in (0.4, 1.9):
    r = commuting_flow_residual(ham, md_osc, t, random_observable(8, rng))
    print(f"  t = {t}: residual = {r:.3e}")

print("\nmodular flow vs reference evolution for T = I (time rescaled by -beta):")
iden = instantiate(preset("oscillator", n=6))
ham_i = hamiltonian(iden.system, iden.spectrum)
md_i = modular_data(omega_vector(gibbs_state(iden.system, iden.spectrum, "phi")))
x6 = random_observable(6, rng)
from rieszgibbs import alpha0

dev = np.linalg.norm(modular_flow(md_i, 0.9, x6) - alpha0(ham_i, -iden.spectrum.beta * 0.9, x6))
print(f"  ||sigma_t(X) - alpha0_(-beta t)(X)||_F = {dev:.3e}")
