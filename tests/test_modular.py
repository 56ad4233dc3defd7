import numpy as np
import pytest

from conftest import instance
from rieszgibbs import dynamics, gibbs, modular, numerics, riesz
from rieszgibbs.errors import DimensionMismatch, Singular
from rieszgibbs.models import random_observable

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def omega_of(system, spectrum, kind="phi"):
    return modular.omega_vector(gibbs.gibbs_state(system, spectrum, kind))


def two_level_data():
    sys_ = riesz.identity_system(2)
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return sys_, spec, modular.modular_data(omega_of(sys_, spec))


class TestRepresentations:
    def test_left_identity(self, rng):
        v = random_observable(3, rng)
        np.testing.assert_array_equal(modular.pi_left(np.eye(3), v), v)

    def test_left_is_multiplicative(self, rng):
        x, y, v = (random_observable(3, rng) for _ in range(3))
        lhs = modular.pi_left(x, modular.pi_left(y, v))
        np.testing.assert_allclose(lhs, modular.pi_left(x @ y, v), atol=1e-15)

    def test_left_right_commute_exactly(self, rng):
        x, a, v = (random_observable(3, rng) for _ in range(3))
        lhs = modular.pi_left(x, modular.pi_right(a, v))
        rhs = modular.pi_right(a, modular.pi_left(x, v))
        assert numerics.frobenius(lhs - rhs) <= 1e-15

    def test_right_is_anti_multiplicative(self, rng):
        a, b, v = (random_observable(3, rng) for _ in range(3))
        lhs = modular.pi_right(a, modular.pi_right(b, v))
        np.testing.assert_allclose(lhs, modular.pi_right(b @ a, v), atol=1e-15)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            modular.pi_left(np.eye(2), np.eye(3))


class TestOmegaVectors:
    def test_identity_t_closed_form(self):
        sys_, spec, _ = two_level_data()
        z0 = np.exp(-1) + np.exp(-2)
        expected = np.diag([np.exp(-0.5), np.exp(-1.0)]) / np.sqrt(z0)
        np.testing.assert_allclose(omega_of(sys_, spec, "f"), expected, atol=1e-14)
        np.testing.assert_allclose(omega_of(sys_, spec, "phi"), expected, atol=1e-14)

    def test_unit_hs_norm(self, jordan2):
        for kind in ("f", "phi", "psi"):
            omega = omega_of(jordan2.system, jordan2.spectrum, kind)
            assert abs(numerics.hs_norm(omega) - 1.0) <= 1e-12

    def test_psi_vector_is_dual_phi_vector(self):
        inst = instance("exp_gen", n=8)
        omega_psi = omega_of(inst.system, inst.spectrum, "psi")
        dual_phi = omega_of(riesz.dual_system(inst.system), inst.spectrum, "phi")
        assert numerics.frobenius(omega_psi - dual_phi) <= 1e-12

    def test_rejects_singular_vector(self):
        with pytest.raises(Singular):
            modular.modular_data(np.diag([1.0, 0.0]).astype(complex))


class TestStateViaVector:
    def test_unital(self, jordan2):
        omega = omega_of(jordan2.system, jordan2.spectrum)
        assert modular.state_via_vector(np.eye(2), omega) == pytest.approx(1.0, abs=1e-13)

    def test_jordan2_value(self, jordan2):
        omega = omega_of(jordan2.system, jordan2.spectrum)
        x = np.diag([1.0, 0.0]).astype(complex)
        assert modular.state_via_vector(x, omega).real == pytest.approx(
            0.7880584423829146, abs=1e-13
        )

    def test_agrees_with_trace_form(self, rng):
        inst = instance("shift_half", n=16)
        omega = omega_of(inst.system, inst.spectrum)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        worst = max(
            abs(
                modular.state_via_vector(x, omega) - gibbs.omega_trace(state, x)
            )
            for x in (random_observable(16, rng) for _ in range(50))
        )
        assert worst <= 1e-11


class TestTomitaInvolution:
    def test_fixes_omega(self):
        _, _, md = two_level_data()
        assert numerics.hs_norm(modular.tomita_s(md, md.omega) - md.omega) <= 1e-13

    def test_fixes_hermitian_orbits(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng, hermitian=True)
        v = x @ md.omega
        assert numerics.hs_norm(modular.tomita_s(md, v) - v) <= 1e-13

    def test_maps_to_adjoint_orbit(self):
        _, _, md = two_level_data()
        got = modular.tomita_s(md, E01 @ md.omega)
        np.testing.assert_allclose(got, E01.conj().T @ md.omega, atol=1e-12)

    def test_is_involution(self, rng):
        inst = instance("shift_half", n=6)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        v = random_observable(6, rng)
        back = modular.tomita_s(md, modular.tomita_s(md, v))
        assert numerics.hs_norm(back - v) <= modular.modular_tolerance(md.cond_omega)

    def test_polar_pieces_match(self, rng):
        # S = J Delta^{1/2}: apply the factors separately
        _, _, md = two_level_data()
        v = random_observable(2, rng)
        half = modular.omega_power(md, 1.0) @ v @ modular.omega_power(md, -1.0)
        assert numerics.hs_norm(modular.tomita_s(md, v) - half.conj().T) <= 1e-13


class TestModularFlow:
    def test_time_zero(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        np.testing.assert_allclose(modular.modular_flow(md, 0.0, x), x, atol=1e-14)

    def test_fixes_omega_square(self):
        _, _, md = two_level_data()
        x = md.omega @ md.omega
        assert numerics.frobenius(modular.modular_flow(md, 1.3, x) - x) <= 1e-13

    def test_group_law_and_star(self, rng):
        inst = instance("diag_sqrt", n=8)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        tol = modular.modular_tolerance(md.cond_omega)
        x = random_observable(8, rng)
        s, t = 0.6, -1.9
        lhs = modular.modular_flow(md, s + t, x)
        rhs = modular.modular_flow(md, s, modular.modular_flow(md, t, x))
        assert numerics.frobenius(lhs - rhs) <= tol
        star = modular.modular_flow(md, t, x.conj().T)
        assert numerics.frobenius(modular.modular_flow(md, t, x).conj().T - star) <= tol

    def test_halved_flow_is_time_rescaling(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        lhs = modular.modular_flow(md, 0.7, x)
        rhs = modular.modular_flow_halved(md, 1.4, x)
        assert numerics.frobenius(lhs - rhs) <= 1e-13

    def test_vector_flow_commutes_with_omega(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        t = 0.9
        lhs = modular.modular_flow(md, t, x @ md.omega)
        rhs = modular.modular_flow(md, t, x) @ md.omega
        assert numerics.hs_norm(lhs - rhs) <= 1e-12


class TestDeltaOperator:
    def test_positivity(self, rng):
        _, _, md = two_level_data()
        for _ in range(10):
            v = random_observable(2, rng)
            val = numerics.hs_inner(modular.delta_apply(md, v), v)
            assert val.real > 0 and abs(val.imag) <= 1e-13

    def test_spectrum_against_dense_oracle(self):
        for name, n in (("jordan2", None), ("oscillator", 4), ("shift_half", 6)):
            inst = instance(name, n=n)
            md = modular.modular_data(
                omega_of(inst.system, inst.spectrum)
            )
            dense = modular.delta_matrix(md)
            got = np.sort(np.linalg.eigvalsh(dense))
            expected = modular.delta_spectrum_expected(md)
            assert np.max(np.abs(got - expected) / np.maximum(1.0, expected)) <= 1e-10

    def test_oracle_dimension_guard(self):
        inst = instance("oscillator", n=16)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        with pytest.raises(ValueError):
            modular.delta_matrix(md)

    def test_cyclic_separating_proxy(self):
        # X -> X Omega is injective with full-dimensional range when Omega is nonsingular
        inst = instance("shift_half", n=4)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        right_mult = np.kron(np.eye(4), md.omega.T)
        assert md.eig.values[0] > 0
        assert np.linalg.matrix_rank(right_mult) == 16


class TestJConjugation:
    def test_isometric_antilinear(self, rng):
        v, w = random_observable(5, rng), random_observable(5, rng)
        lhs = numerics.hs_inner(v.conj().T, w.conj().T)
        assert lhs == pytest.approx(np.conj(numerics.hs_inner(v, w)), abs=1e-14)

    def test_involution_is_exact(self, rng):
        v = random_observable(5, rng)
        np.testing.assert_array_equal(v.conj().T.conj().T, v)


class TestModularKms:
    def test_commuting_observables_vanish(self):
        _, _, md = two_level_data()
        x = md.omega @ md.omega
        assert modular.verify_modular_kms(md, x, x, [0.0, 1.0]) <= 1e-14

    def test_two_level_ladder(self):
        _, _, md = two_level_data()
        assert modular.verify_modular_kms(md, E01, E01.conj().T, [0.0, 0.5, 2.0]) <= 1e-12

    def test_randomized(self, rng):
        inst = instance("exp_gen", n=8)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        x, y = random_observable(8, rng), random_observable(8, rng)
        assert modular.verify_modular_kms(md, x, y, [0.0, 0.7, -1.3]) <= 1e-10

    def test_opposite_shift_fails(self, rng, monkeypatch):
        inst = instance("shift_half", n=16)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        tol = modular.modular_tolerance(md.cond_omega)
        x, y = random_observable(16, rng), random_observable(16, rng)
        t_grid = [0.0, 0.5, 1.7, -2.3]
        assert modular.MODULAR_KMS_SHIFT == -1j
        assert modular.verify_modular_kms(md, x, y, t_grid) <= tol
        monkeypatch.setattr(modular, "MODULAR_KMS_SHIFT", 1j)
        assert modular.verify_modular_kms(md, x, y, t_grid) > tol


class TestCommutant:
    def test_identity_a_trivial(self, rng):
        x, v, w = (random_observable(3, rng) for _ in range(3))
        assert modular.commutant_residual(np.eye(3), x, v, w) <= 1e-14

    def test_diagonal_against_shift(self, rng):
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        x = np.eye(4, k=-1).astype(complex)
        v, w = random_observable(4, rng), random_observable(4, rng)
        assert modular.commutant_residual(a, x, v, w) <= 1e-13

    def test_randomized(self, rng):
        worst = max(
            modular.commutant_residual(*(random_observable(8, rng) for _ in range(4)))
            for _ in range(20)
        )
        assert worst <= 1e-12


class TestCommutingFlowRelation:
    def test_diagonal_families(self, rng):
        for name, n in (("oscillator", 8), ("diag_sqrt", 8)):
            inst = instance(name, n=n)
            ham = dynamics.hamiltonian(inst.system, inst.spectrum)
            md = modular.modular_data(
                omega_of(inst.system, inst.spectrum)
            )
            x = random_observable(n, rng)
            for t in (0.4, -1.1):
                assert modular.commuting_flow_residual(ham, md, t, x) <= 1e-11

    def test_modular_flow_matches_reference_evolution_for_identity_t(self, rng):
        # T = I: sigma_t is the reference evolution at rescaled time -beta t
        inst = instance("oscillator", n=6, beta=0.8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        md = modular.modular_data(omega_of(inst.system, inst.spectrum))
        x = random_observable(6, rng)
        t = 0.9
        lhs = modular.modular_flow(md, t, x)
        rhs = dynamics.alpha0(ham, -inst.spectrum.beta * t, x)
        assert numerics.frobenius(lhs - rhs) <= 1e-12
