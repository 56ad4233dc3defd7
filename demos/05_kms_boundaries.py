#!/usr/bin/env python3
"""Twisted thermal boundary conditions on the strip 0 <= Im z <= beta.

The two-point function f_XY(z) = (1/Zphi) tr(T* X alpha^phi_z(Y) T e^{-beta H0})
interpolates the phi state: on the real line it returns omega(X alpha_t(Y)),
and on the shifted line Im z = beta it returns the state of the observables in
the *opposite* order, twisted by M = TT*:

    f(t + i beta) = omega(M^-1 alpha_t(Y) M X).

For unitary T the twist disappears and the textbook thermal condition comes
back.  Inside the strip f is a finite exponential sum in z; its values along
Im z interpolate between the two boundaries.
"""

import numpy as np

from rieszgibbs.gibbs import gibbs_state
from rieszgibbs.kms import strip_function, strip_values, verify_kms_like
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
heights = (0.0, 0.25, 0.5, 0.75, 1.0)
for s, val in zip(heights, strip_values(sf, [0.5 + 1j * s * beta for s in heights])):
    print(f"  Im z = {s * beta:4.2f}: f = {val.real:+.6f} {val.imag:+.6f}i")
