import warnings

import numpy as np
import pytest

from conftest import instance
from rieszgibbs import dynamics, gibbs, kms, models, numerics, riesz
from rieszgibbs.models import random_observable

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def strip(system, spectrum, x, y, kind="phi"):
    return kms.strip_function(gibbs.gibbs_state(system, spectrum, kind), x, y)


def two_level():
    sys_ = riesz.identity_system(2)
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return sys_, spec


class TestComplexTimeConjugation:
    def test_real_z_matches_real_evolution(self, rng):
        inst = instance("shift_half", n=8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        y = random_observable(8, rng)
        t = 1.7
        assert numerics.frobenius(
            kms.alpha_phi_z(ham, t, y) - dynamics.alpha_phi(ham, t, y)
        ) <= 1e-12

    def test_diagonal_fixed_at_thermal_point(self):
        sys_, spec = two_level()
        ham = dynamics.hamiltonian(sys_, spec)
        y = np.diag([0.4, 0.6]).astype(complex)
        out = kms.alpha_phi_z(ham, 1j * spec.beta, y)
        np.testing.assert_allclose(out, y, atol=1e-15)

    def test_offdiagonal_thermal_scaling(self):
        # e^{izH0} at z = i*beta is e^{-beta H0}: entry (0,1) scales by e^{beta}
        sys_, spec = two_level()
        ham = dynamics.hamiltonian(sys_, spec)
        out = kms.alpha_phi_z(ham, 1j * spec.beta, E01)
        assert out[0, 1] == pytest.approx(np.exp(spec.beta), abs=1e-14)

    def test_warns_outside_strip(self):
        sys_, spec = two_level()
        ham = dynamics.hamiltonian(sys_, spec)
        with pytest.warns(UserWarning, match="strip"):
            kms.alpha_phi_z(ham, -0.5j, E01)


class TestStripFunction:
    def test_z_zero_is_product_state(self, rng, jordan2):
        x, y = random_observable(2, rng), random_observable(2, rng)
        state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        assert kms.strip_f(sf, 0.0) == pytest.approx(gibbs.omega_sum(state, x @ y), abs=1e-14)

    def test_identity_t_reduces_to_reference_two_point(self, rng):
        sys_, spec = two_level()
        x, y = random_observable(2, rng), random_observable(2, rng)
        sf = strip(sys_, spec, x, y)
        ham = dynamics.hamiltonian(sys_, spec)
        boltz = riesz.family(sys_, "f").similarity(spec.weights())
        z0 = np.sum(spec.weights())
        for t in (0.0, 0.8, -2.5):
            direct = np.trace(x @ dynamics.alpha0(ham, t, y) @ boltz) / z0
            assert kms.strip_f(sf, t) == pytest.approx(complex(direct), abs=1e-14)

    def test_rejects_unknown_kind(self, jordan2):
        with pytest.raises(ValueError):
            strip(jordan2.system, jordan2.spectrum, np.eye(2), np.eye(2), kind="chi")


def dense_strip_chain(system, spectrum, x, y, kind, z):
    """Reference: tr(A e^{izH0} B e^{i(i beta - z)H0}) / Z with A = C^H X C, B = C^{-1} Y C."""
    if kind == "phi":
        c, c_inv = system.t_op, system.t_inv
    else:
        c, c_inv = system.t_inv.conj().T, system.t_op.conj().T
    frame, lam = system.frame, spectrum.lambdas
    # Z = sum_n e^{-beta lambda_n} ||C f_n||^2 over the family columns C F
    partition = np.sum(spectrum.weights() * np.linalg.norm(c @ frame, axis=0) ** 2)

    def h0_exp(w):
        return (frame * np.exp(1j * w * lam)) @ frame.conj().T

    chain = c.conj().T @ x @ c @ h0_exp(z) @ c_inv @ y @ c @ h0_exp(1j * spectrum.beta - z)
    return np.trace(chain) / partition


def framed_shift_system(n, rng):
    """shift_half's constructing operator on a random unitary frame (F != I)."""
    frame = models.random_unitary(n, rng)
    assert numerics.frobenius(frame - np.eye(n)) > 1.0
    t_op = models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, n)
    spectrum = gibbs.Spectrum(lambdas=1.0 + np.arange(n), beta=1.0)
    return riesz.build_system(frame, t_op), spectrum


class TestSpectralKernel:
    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_dense_chain(self, rng, n, kind):
        system, spectrum = framed_shift_system(n, rng)
        x, y = random_observable(n, rng), random_observable(n, rng)
        sf = strip(system, spectrum, x, y, kind=kind)
        beta = spectrum.beta
        zs = [t + 1j * s for t in np.linspace(-10.0, 10.0, 7) for s in (0.0, 0.5 * beta, beta)]
        values = kms.strip_values(sf, zs)
        oracle = np.array([dense_strip_chain(system, spectrum, x, y, kind, z) for z in zs])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(values - oracle)) <= 1e-13 * scale
        assert abs(kms.strip_f(sf, zs[4]) - oracle[4]) <= 1e-13 * scale

    def test_boundaries_on_random_frame(self, rng):
        system, spectrum = framed_shift_system(16, rng)
        x, y = random_observable(16, rng), random_observable(16, rng)
        tol = kms.kms_tolerance(system.cond_t, 16)
        for kind in ("f", "phi", "psi"):
            sf = strip(system, spectrum, x, y, kind=kind)
            assert max(kms.verify_kms_like(sf, [-6.0, 0.0, 0.7, 3.0])) <= tol

    def test_warns_once_outside_strip(self, jordan2):
        sf = strip(jordan2.system, jordan2.spectrum, E01, E01.T)
        beta = jordan2.spectrum.beta
        with pytest.warns(UserWarning, match="strip") as record:
            kms.strip_values(sf, [0.3, -0.5j, 2.0 + 3j * beta])
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kms.strip_values(sf, [0.3, 0.5j * beta, -1.0 + 1j * beta])


class TestBoundaryIdentities:
    def test_identity_t_textbook_reduction(self, rng):
        # untwisted form f(t + i beta) = omega(alpha_t(Y) X) holds for T = I
        inst = instance("oscillator", n=16)
        x, y = random_observable(16, rng), random_observable(16, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        for t in (0.0, 0.5, 1.0, -4.0):
            lhs = kms.strip_f(sf, t + 1j * inst.spectrum.beta)
            rhs = gibbs.omega_trace(state, dynamics.alpha0(ham, t, y) @ x)
            assert abs(lhs - rhs) <= 1e-12

    def test_untwisted_shifted_boundary_fails(self, rng):
        # TT^H != I: the textbook pairing omega(alpha_t(Y) X) misses f(t + i beta)
        inst = instance("shift_half", n=16)
        twist = inst.system.t_op @ inst.system.t_op.conj().T
        assert numerics.frobenius(twist - np.eye(16)) > 1.0
        x, y = random_observable(16, rng), random_observable(16, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        tol = kms.kms_tolerance(inst.system.cond_t, 16)
        ts = [0.0, 0.7, -3.0]
        shifted = kms.strip_values(sf, [t + 1j * inst.spectrum.beta for t in ts])
        untwisted = max(
            abs(f - gibbs.omega_trace(state, dynamics.alpha_phi(ham, t, y) @ x))
            for t, f in zip(ts, shifted)
        )
        assert untwisted > tol
        assert kms.verify_kms_like(sf, ts).max_shifted <= tol

    def test_jordan2_grid(self, jordan2):
        x = np.diag([1.0, 0.0]).astype(complex)
        sf = strip(jordan2.system, jordan2.spectrum, x, x)
        res = kms.verify_kms_like(sf, [0.0, 0.5, 1.0])
        assert res.max_real <= 1e-12 and res.max_shifted <= 1e-12

    def test_randomized_grid(self, rng):
        inst = instance("exp_gen", n=16)
        x, y = random_observable(16, rng), random_observable(16, rng)
        sf = strip(inst.system, inst.spectrum, x, y)
        res = kms.verify_kms_like(sf, np.linspace(-10, 10, 20))
        assert max(res) <= 1e-10

    def test_psi_mirror(self, rng):
        inst = instance("shift_half", n=12)
        x, y = random_observable(12, rng), random_observable(12, rng)
        sf = strip(inst.system, inst.spectrum, x, y, kind="psi")
        res = kms.verify_kms_like(sf, [0.0, 0.7, 3.0, -6.0])
        assert max(res) <= kms.kms_tolerance(inst.system.cond_t, 12)

    def test_psi_equals_dual_phi(self, rng, jordan2):
        x, y = random_observable(2, rng), random_observable(2, rng)
        sys_, spec = jordan2.system, jordan2.spectrum
        sf_psi = strip(sys_, spec, x, y, kind="psi")
        sf_dual = strip(riesz.dual_system(sys_), spec, x, y)
        res = kms.dual_strip_residual(sf_psi, sf_dual, [0.0, 0.5, 1.0])
        assert res <= 1e-12

    def test_degenerate_twist_for_diagonal_t(self, rng):
        # TT^H commutes with e^{-beta H}: the twist migrates onto the static
        # observable, and drops entirely once X commutes with TT^H as well
        inst = instance("diag_sqrt", n=8)
        x, y = random_observable(8, rng), random_observable(8, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        twist = inst.system.t_op @ inst.system.t_op.conj().T
        migrated = twist @ x @ np.linalg.inv(twist)
        tol = kms.kms_tolerance(inst.system.cond_t, 8)
        for t in (0.0, 1.3):
            lhs = kms.strip_f(sf, t + 1j * inst.spectrum.beta)
            rhs = gibbs.omega_trace(state, dynamics.alpha_phi(ham, t, y) @ migrated)
            assert abs(lhs - rhs) <= tol
        x_diag = np.diag(rng.standard_normal(8)).astype(complex)
        sf_diag = kms.strip_function(state, x_diag, y)
        for t in (0.0, 1.3):
            lhs = kms.strip_f(sf_diag, t + 1j * inst.spectrum.beta)
            rhs = gibbs.omega_trace(state, dynamics.alpha_phi(ham, t, y) @ x_diag)
            assert abs(lhs - rhs) <= tol


class TestAnalyticity:
    def test_cauchy_mean_value(self, rng):
        inst = instance("shift_half", n=8)
        x, y = random_observable(8, rng), random_observable(8, rng)
        sf = strip(inst.system, inst.spectrum, x, y)
        for z0 in (0.5j, 0.3 + 0.25j, -1.0 + 0.75j):
            assert kms.cauchy_mean_residual(sf, z0) <= 1e-10

    def test_interior_point_required(self, jordan2):
        sf = strip(jordan2.system, jordan2.spectrum, np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            kms.cauchy_mean_residual(sf, 1.0)  # on the real boundary


class TestDensityIdentity:
    def test_against_trace_form(self, rng):
        for name, n in (("jordan2", None), ("shift_half", 16), ("exp_gen", 12)):
            inst = instance(name, n=n)
            dim = inst.system.dim
            for kind in ("f", "phi", "psi"):
                state = gibbs.gibbs_state(inst.system, inst.spectrum, kind)
                for _ in range(5):
                    x = random_observable(dim, rng)
                    assert kms.nonhermitian_density_residual(state, x) <= 1e-11


def test_trace_cyclicity_along_regrouping(rng, jordan2):
    # every regrouping step of the shifted-boundary derivation is a cyclic trace move
    sys_, spec = jordan2.system, jordan2.spectrum
    boltz = riesz.family(sys_, "f").similarity(spec.weights())
    x = random_observable(2, rng)
    t_h = sys_.t_op.conj().T
    factors = [
        (t_h @ x @ sys_.t_op, boltz),
        (sys_.t_op @ boltz, t_h @ x),
        (boltz @ t_h, x @ sys_.t_op),
    ]
    values = [np.trace(a @ b) for a, b in factors]
    cyclic = [np.trace(b @ a) for a, b in factors]
    for v, c in zip(values, cyclic):
        assert v == pytest.approx(values[0], abs=1e-14)
        assert c == pytest.approx(v, abs=1e-14)


def test_verification_rows_structure(jordan2):
    x = np.diag([1.0, 0.0]).astype(complex)
    sf = strip(jordan2.system, jordan2.spectrum, x, x)
    rows = kms.verification_rows(sf, [0.0, 1.0])
    assert len(rows) == 2 and rows[0].t == 0.0
    assert all(r.res_real_boundary <= 1e-12 for r in rows)
    assert kms.KMS_COLUMNS == ("t", "f_real", "f_imag", "res_real_boundary", "res_shifted_boundary")
