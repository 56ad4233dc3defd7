import numpy as np
import pytest

from conftest import instance
from rieszgibbs import dynamics, gibbs, models, modular, numerics, riesz, suites
from rieszgibbs.errors import Singular
from rieszgibbs.models import random_observable, random_unitary

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def data_of(system, spectrum, kind="phi"):
    return modular.modular_data(gibbs.gibbs_state(system, spectrum, kind))


def omega_of(system, spectrum, kind="phi"):
    return data_of(system, spectrum, kind).omega


def two_level_data():
    sys_ = riesz.build_system(np.eye(2), np.eye(2))
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return sys_, spec, data_of(sys_, spec)


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
            assert abs(numerics.frobenius(omega) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_random_frame_matches_dense_factor(self, n, kind):
        # F != I: Omega = |(C F diag(w^{1/2}) F^H)^H| / sqrt(Z), with the full
        # half factor formed densely here and |K^H| = U Sigma U^H from its SVD
        rng = np.random.default_rng(n)
        t_op = np.eye(n) + 0.5 * np.eye(n, k=-1) + 0.1 * random_observable(n, rng)
        frame = random_unitary(n, rng)
        system = riesz.build_system(frame, t_op)
        spectrum = gibbs.Spectrum(lambdas=np.linspace(0.5, 4.0, n), beta=0.8)
        c_op = {"f": np.eye(n), "phi": system.t_op, "psi": system.t_inv.conj().T}[kind]
        half = np.exp(-0.5 * spectrum.beta * spectrum.lambdas)
        k_full = c_op @ (frame * half) @ frame.conj().T
        u, sigma, _ = np.linalg.svd(k_full)
        expected = (u * sigma) @ u.conj().T / np.linalg.norm(sigma)
        omega = omega_of(system, spectrum, kind)
        assert numerics.frobenius(omega - expected) <= 1e-13 * system.cond_t**2

    def test_square_is_sandwich_density(self):
        inst = instance("exp_gen", n=16)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        md = modular.modular_data(state)
        assert numerics.frobenius(md.omega @ md.omega - state.sandwich_density) <= 1e-13

    def test_unitary_t_conjugates_frame_vector(self, rng):
        # |(U e^{-beta H0/2})^H| = U e^{-beta H0/2} U^H and Zphi = Z0 for unitary U
        u = random_unitary(8, rng)
        system = riesz.build_system(np.eye(8), u)
        spectrum = gibbs.Spectrum(lambdas=np.linspace(0.5, 4.0, 8), beta=0.8)
        omega_f = omega_of(system, spectrum, "f")
        expected = u @ omega_f @ u.conj().T
        assert numerics.frobenius(omega_of(system, spectrum, "phi") - expected) <= 1e-13

    def test_jordan2_invariants(self, jordan2):
        # Omega^2 = T diag(e^{-1}, e^{-2}) T^H / Zphi: unit trace, det Omega = e^{-3/2} / Zphi
        md = data_of(jordan2.system, jordan2.spectrum)
        z_phi = np.exp(-1.0) + 2.0 * np.exp(-2.0)
        assert abs(np.trace(md.omega @ md.omega).real - 1.0) <= 1e-14
        assert np.linalg.det(md.omega).real == pytest.approx(np.exp(-1.5) / z_phi, rel=1e-14)

    def test_psi_vector_is_dual_phi_vector(self):
        inst = instance("exp_gen", n=8)
        omega_psi = omega_of(inst.system, inst.spectrum, "psi")
        dual_phi = omega_of(riesz.dual_system(inst.system), inst.spectrum, "phi")
        assert numerics.frobenius(omega_psi - dual_phi) <= 1e-12

    def test_rejects_singular_vector(self):
        # e^{-800} underflows to 0, so Omega^2 = diag(e^{-1}, 0) / Z is singular
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 800.0]), beta=1.0)
        with pytest.raises(Singular):
            data_of(sys_, spec)

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("name", ["oscillator", "diag_sqrt", "diag_growth"])
    def test_diagonal_families_closed_form(self, name, n):
        # T = diag(d), F = I: Omega_phi = diag(|d_n| e^{-beta lambda_n/2}) / sqrt(Z_phi)
        inst = instance(name, n=n)
        lam, beta = inst.spectrum.lambdas, inst.spectrum.beta
        d = np.abs(np.diag(inst.system.t_op))
        z_phi = np.sum(d**2 * np.exp(-beta * lam))
        expected = np.sort(d * np.exp(-0.5 * beta * lam) / np.sqrt(z_phi))
        md = data_of(inst.system, inst.spectrum)
        np.testing.assert_allclose(md.values, expected, rtol=1e-13, atol=0)
        assert md.cond_omega == pytest.approx(expected[-1] / expected[0], rel=1e-13)

    def test_check_modular_takes_one_eigendecomposition_per_state(self, monkeypatch):
        # shift_half does not commute with H0, so no commuting-flow relation
        calls = []
        herm_eig = numerics.herm_eig
        monkeypatch.setattr(numerics, "herm_eig", lambda a: calls.append(a) or herm_eig(a))
        suites.check_modular(instance("shift_half", n=16), 0, ())
        assert len(calls) == 3

    def test_check_modular_forms_each_power_once_and_draws_observables_once(self, monkeypatch):
        # every power of Omega is one row of a phase block through its eigenbasis:
        # the three Omegas, Omega^-1 for S and Omega^-2 for Delta (one block of
        # observables at N=16), and for the modular KMS grid four flow unitaries
        # and eight half-chain powers; the observables are shared by every sub-check
        datas, draws, rows = [], [], []
        make, blocks = modular.modular_data, models.observable_blocks
        similarity = riesz.Family.similarity
        monkeypatch.setattr(modular, "modular_data", lambda s: datas.append(make(s)) or datas[-1])
        monkeypatch.setattr(
            models,
            "observable_blocks",
            lambda n, count, rng: draws.append(count) or blocks(n, count, rng),
        )
        monkeypatch.setattr(
            riesz.Family,
            "similarity",
            lambda fam, g: rows.append((fam, len(np.atleast_2d(g)))) or similarity(fam, g),
        )
        suites.check_modular(instance("shift_half", n=16), 0, ())
        assert len(datas) == 3
        bases = [d.basis for d in datas]
        assert sum(m for fam, m in rows if any(fam is b for b in bases)) == 17
        # twelve observables in blocks, then random_observable's one
        assert draws == [suites.N_OBSERVABLES, 1]

    def test_commuting_check_takes_one_gram_eigendecomposition(self, monkeypatch):
        # three modular vectors and one T T^H for both commuting-flow times
        calls = []
        herm_eig = numerics.herm_eig
        monkeypatch.setattr(numerics, "herm_eig", lambda a: calls.append(a) or herm_eig(a))
        result = suites.check_modular(instance("diag_sqrt", n=16), 0, ())
        assert "commuting_flow_relation" in [s.name for s in result.subchecks]
        assert len(calls) == 4

    def test_omega_square_is_the_sandwich_density(self):
        inst = instance("shift_half", n=8)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        assert modular.modular_data(state).omega_sq is state.sandwich_density


class TestStateViaVector:
    def test_unital(self, jordan2):
        omega = omega_of(jordan2.system, jordan2.spectrum)
        assert modular.state_via_vector(omega, omega) == pytest.approx(1.0, abs=1e-13)

    def test_jordan2_value(self, jordan2):
        omega = omega_of(jordan2.system, jordan2.spectrum)
        x = np.diag([1.0, 0.0]).astype(complex)
        assert modular.state_via_vector(x @ omega, omega).real == pytest.approx(
            0.7880584423829146, abs=1e-13
        )

    def test_agrees_with_trace_form(self, rng):
        inst = instance("shift_half", n=16)
        omega = omega_of(inst.system, inst.spectrum)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        worst = max(
            abs(
                modular.state_via_vector(x @ omega, omega) - gibbs.omega_trace(state, x)
            )
            for x in (random_observable(16, rng) for _ in range(50))
        )
        assert worst <= 1e-11


class TestTomitaInvolution:
    def test_fixes_omega(self):
        _, _, md = two_level_data()
        assert numerics.frobenius(modular.tomita_s(md, md.omega) - md.omega) <= 1e-13

    def test_fixes_hermitian_orbits(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        x = 0.5 * (x + x.conj().T)
        v = x @ md.omega
        assert numerics.frobenius(modular.tomita_s(md, v) - v) <= 1e-13

    def test_maps_to_adjoint_orbit(self):
        _, _, md = two_level_data()
        got = modular.tomita_s(md, E01 @ md.omega)
        np.testing.assert_allclose(got, E01.conj().T @ md.omega, atol=1e-12)

    def test_is_involution(self, rng):
        inst = instance("shift_half", n=6)
        md = data_of(inst.system, inst.spectrum)
        v = random_observable(6, rng)
        back = modular.tomita_s(md, modular.tomita_s(md, v))
        assert numerics.frobenius(back - v) <= modular.modular_tolerance(md.cond_omega)

    def test_polar_pieces_match(self, rng):
        # S = J Delta^{1/2}: apply the factors separately
        _, _, md = two_level_data()
        v = random_observable(2, rng)
        omega, omega_inv = modular.omega_powers(md, np.array([1.0, -1.0]))
        half = omega @ v @ omega_inv
        assert numerics.frobenius(modular.tomita_s(md, v) - half.conj().T) <= 1e-13


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
        md = data_of(inst.system, inst.spectrum)
        tol = modular.modular_tolerance(md.cond_omega)
        x = random_observable(8, rng)
        s, t = 0.6, -1.9
        lhs = modular.modular_flow(md, s + t, x)
        rhs = modular.modular_flow(md, s, modular.modular_flow(md, t, x))
        assert numerics.frobenius(lhs - rhs) <= tol
        star = modular.modular_flow(md, t, x.conj().T)
        assert numerics.frobenius(modular.modular_flow(md, t, x).conj().T - star) <= tol

    def test_time_block_matches_single_times(self, rng):
        inst = instance("exp_gen", n=8)
        md = data_of(inst.system, inst.spectrum)
        x = random_observable(8, rng)
        ts = np.array([0.0, 0.7, -1.3])
        flowed = modular.modular_flow(md, ts, x)
        assert flowed.shape == (3, 8, 8)
        for t, got in zip(ts, flowed):
            assert numerics.frobenius(got - modular.modular_flow(md, t, x)) <= 1e-14

    def test_vector_flow_commutes_with_omega(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        t = 0.9
        lhs = modular.modular_flow(md, t, x @ md.omega)
        rhs = modular.modular_flow(md, t, x) @ md.omega
        assert numerics.frobenius(lhs - rhs) <= 1e-12


class TestDeltaOperator:
    def test_positivity(self, rng):
        _, _, md = two_level_data()
        for _ in range(10):
            v = random_observable(2, rng)
            val = numerics.hs_inner(modular.delta_apply(md, v), v)
            assert val.real > 0 and abs(val.imag) <= 1e-13

    def test_two_sided_form_matches_eigenbasis_form(self, rng):
        inst = instance("exp_gen", n=16)
        md = data_of(inst.system, inst.spectrum)
        for _ in range(5):
            v = random_observable(16, rng)
            two_sided = numerics.hs_inner(modular.delta_apply(md, v), v)
            form = modular.delta_form(md, v)
            assert abs(two_sided - form) <= 1e-12 * form

    def test_spectrum_against_dense_oracle(self):
        for name, n in (("jordan2", None), ("oscillator", 4), ("shift_half", 6)):
            inst = instance(name, n=n)
            md = data_of(inst.system, inst.spectrum)
            dense = modular.delta_matrix(md)
            got = np.sort(np.linalg.eigvalsh(dense))
            expected = modular.delta_spectrum_expected(md)
            assert np.max(np.abs(got - expected) / np.maximum(1.0, expected)) <= 1e-10

    def test_oracle_dimension_guard(self):
        for n in (modular.ORACLE_DIM_MAX + 1, 16):
            inst = instance("oscillator", n=n)
            md = data_of(inst.system, inst.spectrum)
            with pytest.raises(ValueError):
                modular.delta_matrix(md)

    def test_check_modular_runs_the_oracle_up_to_its_limit(self):
        for n, expected in ((modular.ORACLE_DIM_MAX, True), (modular.ORACLE_DIM_MAX + 1, False)):
            result = suites.check_modular(instance("oscillator", n=n), 0, ())
            names = [s.name for s in result.subchecks]
            assert ("delta_spectrum_oracle" in names) == expected

    def test_cyclic_separating_proxy(self):
        # X -> X Omega is injective with full-dimensional range when Omega is nonsingular
        inst = instance("shift_half", n=4)
        md = data_of(inst.system, inst.spectrum)
        right_mult = np.kron(np.eye(4), md.omega.T)
        assert md.values[0] > 0
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
        md = data_of(inst.system, inst.spectrum)
        x, y = random_observable(8, rng), random_observable(8, rng)
        assert modular.verify_modular_kms(md, x, y, [0.0, 0.7, -1.3]) <= 1e-10

    def test_opposite_shift_fails(self, rng, monkeypatch):
        inst = instance("shift_half", n=16)
        md = data_of(inst.system, inst.spectrum)
        tol = modular.modular_kms_tolerance(16)
        x, y = random_observable(16, rng), random_observable(16, rng)
        t_grid = [0.0, 0.5, 1.7, -2.3]
        assert modular.MODULAR_KMS_SHIFT == -1j
        assert modular.verify_modular_kms(md, x, y, t_grid) <= tol
        monkeypatch.setattr(modular, "MODULAR_KMS_SHIFT", 1j)
        assert modular.verify_modular_kms(md, x, y, t_grid) > tol


class TestCommutingFlowRelation:
    def test_diagonal_families(self, rng):
        for name, n in (("oscillator", 8), ("diag_sqrt", 8)):
            inst = instance(name, n=n)
            ham = dynamics.hamiltonian(inst.system, inst.spectrum)
            md = data_of(inst.system, inst.spectrum)
            x = random_observable(n, rng)
            assert modular.commuting_flow_residual(ham, md, x, (0.4, -1.1)) <= 1e-11

    def test_modular_flow_matches_reference_evolution_for_identity_t(self, rng):
        # T = I: sigma_t is the reference evolution at rescaled time -beta t
        inst = instance("oscillator", n=6, beta=0.8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        md = data_of(inst.system, inst.spectrum)
        x = random_observable(6, rng)
        t = 0.9
        lhs = modular.modular_flow(md, t, x)
        rhs = dynamics.evolve(ham, "f", -inst.spectrum.beta * t, x)
        assert numerics.frobenius(lhs - rhs) <= 1e-12
