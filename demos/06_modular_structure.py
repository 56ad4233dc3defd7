#!/usr/bin/env python3
"""Modular structure on the Hilbert-Schmidt space of N x N matrices.

The phi state is implemented by the positive unit vector
Omega_phi = |(T e^{-beta H0/2})*| / sqrt(Zphi):  omega(X) = (X Omega | Omega).
Its modular data acts by two-sided multiplication,

    J(V) = V*,   Delta(V) = Omega^2 V Omega^-2,   sigma_t(X) = Omega^2it X Omega^-2it,

and the closure of X Omega -> X* Omega factors as J Delta^(1/2).  The vector
state, the Tomita involution and the modular KMS condition are linear or
bilinear in the observables, so each is checked for every X (and Y) with
||X||_F <= 1 at once, by one comparison of operators.  For small N a dense
N^2 x N^2 materialization of Delta cross-checks its spectrum {(w_j / w_k)^2}
against the eigenvalues w of Omega.
"""

import numpy as np

from rieszgibbs.dynamics import evolve, hamiltonian
from rieszgibbs.gibbs import gibbs_state
from rieszgibbs.modular import (
    commuting_flow_residual,
    delta_matrix,
    delta_spectrum_expected,
    modular_data,
    modular_flow,
    state_residual,
    tomita_residual,
    verify_modular_kms,
)
from rieszgibbs.models import instantiate, preset, random_observable

rng = np.random.default_rng(5)
inst = instantiate(preset("shift_half", n=6))
system, spectrum = inst.system, inst.spectrum

state = gibbs_state(system, spectrum, "phi")
md = modular_data(state)
print(f"||Omega_phi||_HS = {np.sqrt(np.trace(md.omega @ md.omega).real):.15f}")
print(f"cond(Omega_phi)  = {md.cond_omega:.3f}")

print("\nlargest gap over every X (and Y) with ||X||_F <= 1:")
print(f"  vector state vs trace form, sup |(X Omega|Omega) - omega(X)| = "
      f"||Omega Omega* - rho||_F = {state_residual(md, state):.3e}")
print(f"  Tomita involution, sup ||S(X Omega) - X* Omega||_HS <= "
      f"{tomita_residual(md):.3e}")
print(f"  thermal condition along the modular flow (unit inverse temperature) <= "
      f"{verify_modular_kms(md, [0.0, 0.7, -1.3]):.3e}")

print("\ndense-oracle check of the Delta spectrum (N = 6, so Delta is 36 x 36):")
got = np.sort(np.linalg.eigvalsh(delta_matrix(md)))
expected = delta_spectrum_expected(md)
print(f"  max |eig(Delta) - (w_j/w_k)^2| = {np.max(np.abs(got - expected)):.3e}")
print(f"  spectral range of Delta: [{got[0]:.3e}, {got[-1]:.3e}]")

print("\ncommuting case ([T, H0] = 0): the deformed evolution factors through")
print("the modular flow conjugated by |T*|^(2it/beta):")
osc = instantiate(preset("diag_sqrt", n=8))
ham = hamiltonian(osc.system, osc.spectrum)
md_osc = modular_data(gibbs_state(osc.system, osc.spectrum, "phi"))
r = commuting_flow_residual(ham, md_osc, random_observable(8, rng), (0.4, 1.9))
print(f"  t = 0.4, 1.9: largest residual = {r:.3e}")

print("\nmodular flow vs reference evolution for T = I (time rescaled by -beta);")
print("the flow unitaries of all three times are one block in Omega's eigenbasis:")
iden = instantiate(preset("oscillator", n=6))
ham_i = hamiltonian(iden.system, iden.spectrum)
md_i = modular_data(gibbs_state(iden.system, iden.spectrum, "phi"))
x6 = random_observable(6, rng)
times = np.array([0.9, -0.4, 2.5])
for t, flowed in zip(times, modular_flow(md_i, times, x6)):
    evolved = evolve(ham_i, "f", -iden.spectrum.beta * t, x6)
    print(f"  t = {t:4.1f}: ||sigma_t(X) - alpha^0_(-beta t)(X)||_F = "
          f"{np.linalg.norm(flowed - evolved):.3e}")
