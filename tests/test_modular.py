from dataclasses import replace

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

    def test_check_modular_takes_one_eigendecomposition(self, monkeypatch):
        # only the phi state's Omega; shift_half does not commute with H0, so
        # no commuting-flow relation
        calls = []
        herm_eig = numerics.herm_eig
        monkeypatch.setattr(numerics, "herm_eig", lambda a: calls.append(a) or herm_eig(a))
        suites.check_modular(instance("shift_half", n=16), 0, ())
        assert len(calls) == 1

    def test_check_modular_forms_each_power_once_and_draws_observables_once(self, monkeypatch):
        # every power of Omega is one row of a phase block through its eigenbasis:
        # Omega, Omega^-1 for S, Omega^-2 for Delta (one block of observables at
        # N=16), and for the modular KMS grid four flow unitaries and eight
        # half-chain powers; only Delta reads the observables
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
        assert len(datas) == 1
        assert sum(m for fam, m in rows if fam is datas[0].basis) == 15
        assert draws == [suites.N_OBSERVABLES]

    def test_commuting_check_takes_one_gram_eigendecomposition(self, monkeypatch):
        # one modular vector and one T T^H for both commuting-flow times
        calls = []
        herm_eig = numerics.herm_eig
        monkeypatch.setattr(numerics, "herm_eig", lambda a: calls.append(a) or herm_eig(a))
        result = suites.check_modular(instance("diag_sqrt", n=16), 0, ())
        assert "commuting_flow_relation" in [s.name for s in result.subchecks]
        assert len(calls) == 2

    def test_omega_square_is_the_sandwich_density(self):
        inst = instance("shift_half", n=8)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        assert modular.modular_data(state).omega_sq is state.sandwich_density


def state_gap(md, state, x):
    """|(X Omega | Omega) - omega(X)| for one observable, the sampled route."""
    return abs(numerics.hs_inner(x @ md.omega, md.omega) - gibbs.omega_trace(state, x))


def tomita_s(md, v):
    """S(V) = J Delta^{1/2} V = (Omega V Omega^-1)^H."""
    return numerics.dagger(md.omega @ v @ modular.omega_powers(md, -1.0))


def tomita_gap(md, x):
    """||S(X Omega) - X^H Omega||_F for one observable, the sampled route."""
    return numerics.frobenius(tomita_s(md, x @ md.omega) - x.conj().T @ md.omega)


def modular_kms_gap(md, x, y, t_grid):
    """max_t |g(t + MODULAR_KMS_SHIFT) - omega(sigma_t(Y) X)| for one pair, the
    sampled route: g(z) = tr((X Omega^{2iz}) (Y Omega^{2-2iz}))."""
    t = np.asarray(t_grid, dtype=float)
    z = t + modular.MODULAR_KMS_SHIFT
    left, right = np.split(modular.omega_powers(md, np.concatenate([2j * z, 2.0 - 2j * z])), 2)
    g = np.einsum("mij,mji->m", x @ left, y @ right)
    rhs = numerics.hs_inner(modular.modular_flow(md, t, y) @ x, md.omega_sq)
    return float(np.max(np.abs(g - rhs)))


KMS_GRID = (0.0, 0.5, 1.7, -2.3)


@pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "perturbed"])
@pytest.mark.parametrize("name,n", [("shift_half", 8), ("exp_gen", 16), ("diag_sqrt", 6)])
def test_operator_residuals_dominate_sampled_ones(name, n, perturbed, rng):
    # each operator residual is the largest gap, or a bound on it, over every
    # unit-Frobenius X (and Y), so no sampled observable may exceed it; the
    # perturbed Omega (eigenvalues raised to 1.05, then scaled by 1 + 1e-3)
    # lifts all three residuals far above roundoff
    inst = instance(name, n=n)
    state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
    md = modular.modular_data(state)
    if perturbed:
        values = md.values**1.05
        md = replace(md, omega=1.001 * md.basis.similarity(values), values=values)
        assert min(modular.state_residual(md, state), modular.tomita_residual(md)) > 1e-4
        assert modular.verify_modular_kms(md, KMS_GRID) > 1e-4
    xs = [random_observable(n, rng) for _ in range(50)]
    ys = [random_observable(n, rng) for _ in range(50)]
    assert max(state_gap(md, state, x) for x in xs) <= modular.state_residual(md, state)
    assert max(tomita_gap(md, x) for x in xs) <= modular.tomita_residual(md)
    sampled = max(modular_kms_gap(md, x, y, KMS_GRID) for x, y in zip(xs, ys))
    assert sampled <= modular.verify_modular_kms(md, KMS_GRID)


class TestStateRepresentation:
    def test_unital(self, jordan2):
        # at X = 1, (Omega | Omega) = ||Omega||_F^2 = 1
        md = data_of(jordan2.system, jordan2.spectrum)
        assert numerics.hs_inner(md.omega, md.omega) == pytest.approx(1.0, abs=1e-13)

    def test_jordan2_value(self, jordan2):
        omega = omega_of(jordan2.system, jordan2.spectrum)
        x = np.diag([1.0, 0.0]).astype(complex)
        assert numerics.hs_inner(x @ omega, omega).real == pytest.approx(
            0.7880584423829146, abs=1e-13
        )

    def test_agrees_with_trace_form_for_every_observable(self):
        inst = instance("shift_half", n=16)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        assert modular.state_residual(modular.modular_data(state), state) <= 1e-11

    def test_is_the_gap_at_the_worst_observable(self):
        # |tr(X D)| over ||X||_F <= 1 peaks at X = D^H / ||D||_F, D = Omega Omega^H - rho;
        # Omega scaled by 1 + 1e-3 lifts D above roundoff
        inst = instance("exp_gen", n=8)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        md = modular.modular_data(state)
        md = replace(md, omega=1.001 * md.omega)
        d = md.omega @ md.omega.conj().T - state.trace_density_h.conj().T
        x = d.conj().T / numerics.frobenius(d)
        residual = modular.state_residual(md, state)
        assert residual > 1e-4
        assert state_gap(md, state, x) == pytest.approx(residual, rel=1e-9, abs=0)


class TestTomitaInvolution:
    def test_fixes_omega(self):
        _, _, md = two_level_data()
        assert numerics.frobenius(tomita_s(md, md.omega) - md.omega) <= 1e-13

    def test_fixes_hermitian_orbits(self, rng):
        _, _, md = two_level_data()
        x = random_observable(2, rng)
        x = 0.5 * (x + x.conj().T)
        v = x @ md.omega
        assert numerics.frobenius(tomita_s(md, v) - v) <= 1e-13

    def test_maps_to_adjoint_orbit(self):
        _, _, md = two_level_data()
        got = tomita_s(md, E01 @ md.omega)
        np.testing.assert_allclose(got, E01.conj().T @ md.omega, atol=1e-12)

    def test_bound_for_every_observable(self):
        _, _, md = two_level_data()
        assert modular.tomita_residual(md) <= 1e-13
        inst = instance("shift_half", n=6)
        md = data_of(inst.system, inst.spectrum)
        assert modular.tomita_residual(md) <= modular.modular_tolerance(md.cond_omega)

    def test_bound_sees_an_inverse_off_by_a_factor(self, monkeypatch):
        # Omega^-1 scaled by 1 + 1e-3: Omega Omega^-1 - 1 = 1e-3 I, so the
        # bound reads 1e-3 sqrt(N) ||Omega||_F = 1e-3 sqrt(N)
        inst = instance("exp_gen", n=16)
        md = data_of(inst.system, inst.spectrum)
        powers = modular.omega_powers
        monkeypatch.setattr(modular, "omega_powers", lambda d, a: 1.001 * powers(d, a))
        assert modular.tomita_residual(md) == pytest.approx(4e-3, rel=1e-6)
        assert modular.tomita_residual(md) > modular.modular_tolerance(md.cond_omega)


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

    @staticmethod
    def _extreme_unit_gap():
        """delta_positivity's sub-check at exp_gen N=16, seed 0, and its
        |(Delta X | X) - form| / form at X = u_0 u_15^H, the matrix unit of the
        eigenvectors of Omega's smallest (4.4e-4) and largest (0.80) eigenvalues."""
        inst = instance("exp_gen", n=16, seed=0)
        sub = {s.name: s for s in suites.check_modular(inst, 0, ()).subchecks}
        md = data_of(inst.system, inst.spectrum)
        u = md.basis.vectors
        x = np.outer(u[:, 0], u[:, -1].conj())
        form = modular.delta_form(md, x)
        gap = abs(numerics.hs_inner(modular.delta_apply(md, x), x) - form) / form
        return sub["delta_positivity"], gap

    def test_positivity_draws_pass_where_a_matrix_unit_misses(self):
        sub, _ = self._extreme_unit_gap()
        assert sub.passed

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="delta_positivity's 1e-12 is no bound over every X: u_0 u_15^H reads 4.6e-11 "
        "(ROADMAP item 11)",
    )
    def test_positivity_tolerance_covers_the_extreme_matrix_unit(self):
        sub, gap = self._extreme_unit_gap()
        assert gap <= sub.tolerance

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
        assert modular_kms_gap(md, x, x, [0.0, 1.0]) <= 1e-14

    def test_two_level_bound(self):
        # covers the ladder pair E01, E01^H among every other pair
        _, _, md = two_level_data()
        assert modular.verify_modular_kms(md, [0.0, 0.5, 2.0]) <= 1e-14

    def test_bound_without_cond_omega(self):
        # exp_gen N=16 has cond(Omega) ~ 1.8e3, and the bound stays at roundoff
        inst = instance("exp_gen", n=16)
        md = data_of(inst.system, inst.spectrum)
        assert md.cond_omega > 1e3
        assert modular.verify_modular_kms(md, KMS_GRID) <= modular.modular_kms_tolerance(16)

    def test_opposite_shift_fails(self, monkeypatch):
        inst = instance("shift_half", n=16)
        md = data_of(inst.system, inst.spectrum)
        tol = modular.modular_kms_tolerance(16)
        assert modular.MODULAR_KMS_SHIFT == -1j
        assert modular.verify_modular_kms(md, KMS_GRID) <= tol
        monkeypatch.setattr(modular, "MODULAR_KMS_SHIFT", 1j)
        assert modular.verify_modular_kms(md, KMS_GRID) > tol


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
