#!/usr/bin/env python3
"""Three thermal functionals and their equivalent trace forms.

With H0 = diag(lambda) and Boltzmann weights e^{-beta lambda_n}, each family
(frame, phi, psi) defines a normalized positive functional.  The phi state,
for example, can be evaluated two independent ways,

    sum form  : (1/Zphi) sum_n e^{-beta lambda_n} (X phi_n | phi_n)
    trace form: (1/Zphi) tr(T* X T e^{-beta H0})

and also relates back to the reference state through
omega_phi(X) = (Z0/Zphi) omega_f(T* X T).  All three routes agree to
roundoff; faithfulness is witnessed by the positive density T e^{-bH0} T*/Zphi.
Each identity is linear in X, so it holds for every X when the two densities
agree: the Frobenius distance of the densities bounds the gap for every X of
unit Frobenius norm.
"""

import numpy as np

from rieszgibbs.gibbs import (
    faithfulness_witness,
    gibbs_state,
    omega_sum,
    omega_trace,
    partition_constants,
)
from rieszgibbs.models import instantiate, preset, random_observable

inst = instantiate(preset("jordan2"))
system, spectrum = inst.system, inst.spectrum

z = partition_constants(system, spectrum)
print(f"Z0   = {z.z0:.6f}   (= e^-1 + e^-2)")
print(f"Zphi = {z.z_phi:.6f}   (= e^-1 + 2 e^-2, since ||phi_1||^2 = 2)")
print(f"Zpsi = {z.z_psi:.6f}   (= 2 e^-1 + e^-2, since ||psi_0||^2 = 2)")

x = np.diag([1.0, 0.0]).astype(complex)
print("\nX = ground-state projector:")
states = {kind: gibbs_state(system, spectrum, kind) for kind in ("f", "phi", "psi")}
for kind, state in states.items():
    s, t = omega_sum(state, x), omega_trace(state, x)
    print(
        f"  omega_{kind:3s}(X): sum = {s.real:.8f}, trace = {t.real:.8f}, "
        f"|sum - trace| = {abs(s - t):.2e}"
    )

state = states["phi"]
# densities as adjoints: rho^H of the trace form, sigma = sigma^H of the sandwich form
rho_h, t_op = state.trace_density_h, system.t_op
pulled = (z.z0 / z.z_phi) * t_op @ states["f"].trace_density_h @ t_op.conj().T
print(f"\nsandwich ordering, every X: {np.linalg.norm(rho_h - state.sandwich_density):.2e}")
print(f"ratio identity, every X   : {np.linalg.norm(pulled - rho_h):.2e}")

witness = faithfulness_witness(state)
print(f"\ndensity witness: tr = {np.trace(witness.density).real:.12f}, "
      f"min eigenvalue = {witness.min_eigenvalue:.6f} > 0  (faithful)")

print("\nrandom observables on a 16-dimensional shifted family:")
inst16 = instantiate(preset("shift_half", n=16))
state16 = gibbs_state(inst16.system, inst16.spectrum, "phi")
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(25):
    y = random_observable(16, rng)
    worst = max(worst, abs(omega_sum(state16, y) - omega_trace(state16, y)))
print(f"worst |sum - trace| over 25 draws: {worst:.3e}")
