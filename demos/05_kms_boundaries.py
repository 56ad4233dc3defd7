#!/usr/bin/env python3
"""Twisted thermal boundary conditions on the strip 0 <= Im z <= beta.

The two-point function f_XY(z) = (1/Zphi) tr(T* X alpha^phi_z(Y) T e^{-beta H0})
interpolates the phi state: on the real line it returns omega(X alpha_t(Y)),
and on the shifted line Im z = beta it returns the state of the observables in
the *opposite* order, twisted by M = TT*:

    f(t + i beta) = omega(M^-1 alpha_t(Y) M X).

For unitary T the twist disappears and the textbook thermal condition comes
back.  Analyticity inside the strip is probed with the Cauchy mean value.
"""

import numpy as np

from rieszgibbs import (
    cauchy_mean_residual,
    gibbs_state,
    nonhermitian_density_residual,
    strip_f,
    strip_function,
    verify_kms_like,
)
from rieszgibbs.models import instantiate, preset, random_observable

rng = np.random.default_rng(4)
inst = instantiate(preset("shift_half", n=16))
x, y = random_observable(16, rng), random_observable(16, rng)

state = gibbs_state(inst.system, inst.spectrum, "phi")
sf = strip_function(state, x, y)
t_grid = np.linspace(-10.0, 10.0, 41)
res = verify_kms_like(sf, t_grid)
print(f"phi state, 41-point grid on [-10, 10]:")
print(f"  real boundary residual    = {res.max_real:.3e}")
print(f"  shifted boundary residual = {res.max_shifted:.3e}")

sf_psi = strip_function(gibbs_state(inst.system, inst.spectrum, "psi"), x, y)
res_psi = verify_kms_like(sf_psi, t_grid)
print(f"psi state (twist inverted):")
print(f"  real boundary residual    = {res_psi.max_real:.3e}")
print(f"  shifted boundary residual = {res_psi.max_shifted:.3e}")

print("\nvalues along the strip at t = 0.5:")
beta = inst.spectrum.beta
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    val = strip_f(sf, 0.5 + 1j * s * beta)
    print(f"  Im z = {s * beta:4.2f}: f = {val.real:+.6f} {val.imag:+.6f}i")

print("\nCauchy mean-value residual at interior points:")
for z0 in (0.5j, 0.3 + 0.25j, -1.0 + 0.75j):
    print(f"  z0 = {z0}: {cauchy_mean_residual(sf, z0):.3e}")

print("\nstate as a trace against the non-normal density e^{-beta H} TT*/Zphi:")
worst = max(
    nonhermitian_density_residual(state, random_observable(16, rng))
    for _ in range(10)
)
print(f"  worst deviation from the trace form over 10 draws: {worst:.3e}")
