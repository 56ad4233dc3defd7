import warnings

import numpy as np
import pytest

from conftest import instance
from rieszgibbs import dynamics, gibbs, models, numerics, riesz, suites
from rieszgibbs.errors import BadModel, DimensionMismatch
from rieszgibbs.models import random_observable, random_unitary

E1, E2 = np.exp(-1.0), np.exp(-2.0)


class TestSpectrum:
    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(BadModel, match="strictly positive"):
            gibbs.Spectrum(lambdas=np.array([0.0, 1.0]), beta=1.0)

    def test_rejects_descending(self):
        with pytest.raises(BadModel, match="ascending"):
            gibbs.Spectrum(lambdas=np.array([2.0, 1.0]), beta=1.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(BadModel, match="temperature"):
            gibbs.Spectrum(lambdas=np.array([1.0]), beta=0.0)

    def test_rejects_all_weights_underflowed(self):
        # e^{-800} is below the smallest subnormal double
        with pytest.raises(BadModel, match="underflows"):
            gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=800.0)

    def test_keeps_partly_underflowed_weights(self):
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2000.0]), beta=1.0)
        np.testing.assert_array_equal(spec.weights(), [E1, 0.0])

    def test_weights(self):
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
        np.testing.assert_allclose(spec.weights(), [E1, E2], rtol=0)


class TestStandardHamiltonian:
    """H0 = F diag(lambda) F^H is the frame family's similarity of lambda."""

    def test_identity_frame_is_diagonal(self):
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
        np.testing.assert_array_equal(
            riesz.family(sys_, "f").similarity(spec.lambdas), np.diag([1.0, 2.0])
        )

    def test_rotated_frame_keeps_spectrum(self):
        hada = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        sys_ = riesz.build_system(hada, np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
        h0 = riesz.family(sys_, "f").similarity(spec.lambdas)
        assert numerics.hermiticity_defect(h0) < 1e-15
        np.testing.assert_allclose(numerics.herm_eig(h0).values, [1.0, 2.0], atol=1e-14)

    def test_eigenvector_residual_large_frame(self, rng):
        n = 64
        sys_ = riesz.build_system(random_unitary(n, rng), np.eye(n))
        spec = gibbs.Spectrum(lambdas=np.arange(1.0, n + 1.0), beta=1.0)
        h0 = riesz.family(sys_, "f").similarity(spec.lambdas)
        residual = h0 @ sys_.frame - sys_.frame * spec.lambdas
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12 * spec.lambdas[-1]

    def test_dimension_mismatch(self):
        spec = gibbs.Spectrum(lambdas=np.array([1.0]), beta=1.0)
        with pytest.raises(DimensionMismatch):
            gibbs.gibbs_state(riesz.build_system(np.eye(3), np.eye(3)), spec, "f")
        with pytest.raises(DimensionMismatch):
            dynamics.hamiltonian(riesz.build_system(np.eye(3), np.eye(3)), spec)


class TestPartitionConstants:
    def test_identity_t_collapses(self):
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
        z = gibbs.partition_constants(sys_, spec)
        assert z.z0 == pytest.approx(0.503214724408055, abs=1e-15)
        assert z.z_phi == pytest.approx(z.z0) and z.z_psi == pytest.approx(z.z0)

    def test_jordan2_norm_weighting(self, jordan2):
        z = gibbs.partition_constants(jordan2.system, jordan2.spectrum)
        assert z.z_phi == pytest.approx(E1 + 2 * E2, abs=1e-15)  # ||phi_1||^2 = 2
        assert z.z_psi == pytest.approx(2 * E1 + E2, abs=1e-15)  # ||psi_0||^2 = 2

    def test_geometric_limit(self):
        inst = instance("oscillator", n=48)
        z = gibbs.partition_constants(inst.system, inst.spectrum)
        assert z.z0 == pytest.approx(np.exp(-1) / (1 - np.exp(-1)), abs=1e-12)


class TestOmegaEvaluations:
    def test_unital(self, jordan2):
        for kind in ("f", "phi", "psi"):
            state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, kind)
            assert gibbs.omega_sum(state, np.eye(2)) == pytest.approx(1.0, abs=1e-14)
            assert gibbs.omega_trace(state, np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_jordan2_hand_value(self, jordan2):
        state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, "phi")
        x = np.diag([1.0, 0.0]).astype(complex)
        expected = 0.7880584423829146  # (e^-1 + e^-2) / Zphi
        assert gibbs.omega_sum(state, x).real == pytest.approx(expected, abs=1e-13)
        assert abs(gibbs.omega_trace(state, x) - gibbs.omega_sum(state, x)) <= 1e-13

    def test_identity_t_reduces_to_reference(self, rng):
        sys_ = riesz.build_system(np.eye(4), np.eye(4))
        spec = gibbs.Spectrum(lambdas=np.arange(1.0, 5.0), beta=0.7)
        state = gibbs.gibbs_state(sys_, spec, "phi")
        boltz = riesz.family(sys_, "f").similarity(spec.weights())
        for _ in range(5):
            x = random_observable(4, rng)
            direct = np.trace(x @ boltz) / np.sum(spec.weights())
            assert gibbs.omega_sum(state, x) == pytest.approx(complex(direct), abs=1e-14)

    def test_sum_equals_trace_randomized(self, rng):
        inst = instance("shift_half", n=32)
        tol = gibbs.state_tolerance(inst.system.cond_t, 32)
        for kind in ("f", "phi", "psi"):
            state = gibbs.gibbs_state(inst.system, inst.spectrum, kind)
            for _ in range(20):
                x = random_observable(32, rng)
                s = gibbs.omega_sum(state, x)
                assert abs(s - gibbs.omega_trace(state, x)) <= tol
                assert abs(s - numerics.hs_inner(x, state.sandwich_density)) <= tol

    def test_hermiticity_and_positivity(self, rng):
        inst = instance("exp_gen", n=12)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        tol = gibbs.state_tolerance(inst.system.cond_t, 12)
        for _ in range(10):
            x = random_observable(12, rng)
            assert abs(
                gibbs.omega_sum(state, x.conj().T) - np.conj(gibbs.omega_sum(state, x))
            ) <= tol
            val = gibbs.omega_sum(state, x.conj().T @ x)
            assert val.real > 0 and abs(val.imag) <= tol


def _ratio_residual(phi, f, x):
    """|omega_phi(X) - (Z0/Zphi) omega_f(T^H X T)|, one observable at a time."""
    c = phi.family.c_op
    pulled = gibbs.omega_trace(f, c.conj().T @ x @ c)
    return abs(gibbs.omega_trace(phi, x) - f.partition / phi.partition * pulled)


class TestRatioIdentity:
    def test_identity_t_is_exact(self, rng):
        sys_ = riesz.build_system(np.eye(3), np.eye(3))
        spec = gibbs.Spectrum(lambdas=np.arange(1.0, 4.0), beta=1.0)
        phi, f = (gibbs.gibbs_state(sys_, spec, k) for k in ("phi", "f"))
        assert _ratio_residual(phi, f, random_observable(3, rng)) <= 1e-15

    def test_jordan2(self, jordan2):
        x = np.diag([1.0, 0.0]).astype(complex)
        phi, f = (gibbs.gibbs_state(jordan2.system, jordan2.spectrum, k) for k in ("phi", "f"))
        assert _ratio_residual(phi, f, x) <= 1e-13

    def test_randomized(self, rng):
        inst = instance("diag_sqrt", n=32)
        phi, f = (gibbs.gibbs_state(inst.system, inst.spectrum, k) for k in ("phi", "f"))
        for _ in range(10):
            x = random_observable(32, rng)
            assert _ratio_residual(phi, f, x) <= 1e-11


class TestFaithfulness:
    def test_identity_t_minimum(self):
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
        witness = gibbs.faithfulness_witness(gibbs.gibbs_state(sys_, spec, "phi"))
        assert witness.min_eigenvalue == pytest.approx(0.2689414213699951, abs=1e-14)

    def test_jordan2_closed_form(self, jordan2):
        # rho = T diag(e^-1, e^-2) T^H / Zphi has a 2x2 closed-form spectrum
        state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, "phi")
        witness = gibbs.faithfulness_witness(state)
        tr, det = E1 + 2 * E2, E1 * E2
        lo = (tr - np.sqrt(tr**2 - 4 * det)) / 2 / state.partition
        assert witness.min_eigenvalue == pytest.approx(lo, abs=1e-14)
        assert witness.min_eigenvalue > 0

    def test_density_is_normalized(self):
        for name, n in (("oscillator", 16), ("shift_half", 16), ("exp_gen", 12)):
            inst = instance(name, n=n)
            for kind in ("f", "phi", "psi"):
                witness = gibbs.faithfulness_witness(
                    gibbs.gibbs_state(inst.system, inst.spectrum, kind)
                )
                assert abs(numerics.trace(witness.density) - 1.0) <= 1e-13
                assert witness.min_eigenvalue > 0

    def test_trace_against_density_matches_state(self, rng):
        inst = instance("shift_half", n=8)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        witness = gibbs.faithfulness_witness(state)
        x = random_observable(8, rng)
        assert gibbs.omega_sum(state, x) == pytest.approx(
            complex(np.trace(x @ witness.density)), abs=1e-13
        )


def test_psi_state_is_dual_phi_state(rng):
    inst = instance("exp_gen", n=10)
    state_psi = gibbs.gibbs_state(inst.system, inst.spectrum, "psi")
    dual_phi = gibbs.gibbs_state(riesz.dual_system(inst.system), inst.spectrum, "phi")
    tol = gibbs.state_tolerance(inst.system.cond_t, 10)
    for _ in range(10):
        x = random_observable(10, rng)
        assert abs(gibbs.omega_sum(state_psi, x) - gibbs.omega_sum(dual_phi, x)) <= tol


def test_state_is_unital(jordan2):
    state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, "phi")
    assert gibbs.omega_sum(state, np.eye(2)) == pytest.approx(1.0, abs=1e-14)


class TestObservableShape:
    @pytest.mark.parametrize("route", ["omega_sum", "omega_trace"])
    def test_wrong_shape_raises(self, route):
        inst = instance("shift_half", n=8)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        for shape in ((1, 8), (8, 1), (9, 9)):
            with pytest.raises(DimensionMismatch):
                getattr(gibbs, route)(state, np.ones(shape, dtype=complex))


def _dense_chain(system, spectrum, kind, x):
    """tr(C^H X C e^{-beta H0}) / tr(C e^{-beta H0} C^H), every product dense."""
    c = {
        "f": np.eye(system.dim),
        "phi": system.t_op,
        "psi": np.linalg.inv(system.t_op).conj().T,
    }[kind]
    f = system.frame
    boltz = f @ np.diag(spectrum.weights()) @ f.conj().T
    z = np.trace(c @ boltz @ c.conj().T)
    return complex(np.trace(c.conj().T @ x @ c @ boltz) / z)


class TestRoutesOnRandomFrame:
    """F != I: every route matches a dense trace chain formed in the test."""

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_routes_match_dense_chain(self, n, kind):
        rng = np.random.default_rng(n)
        t_op = np.eye(n) + 0.5 * np.eye(n, k=-1) + 0.1 * random_observable(n, rng)
        system = riesz.build_system(random_unitary(n, rng), t_op)
        spectrum = gibbs.Spectrum(lambdas=np.linspace(0.5, 4.0, n), beta=0.8)
        state = gibbs.gibbs_state(system, spectrum, kind)
        tol = gibbs.state_tolerance(system.cond_t, n)
        for _ in range(4):
            x = random_observable(n, rng)
            expected = _dense_chain(system, spectrum, kind, x)
            sandwich = numerics.hs_inner(x, state.sandwich_density)
            for value in (gibbs.omega_sum(state, x), gibbs.omega_trace(state, x), sandwich):
                assert abs(value - expected) <= tol

    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_boltzmann_and_twist_match_dense_and_are_cached(self, kind):
        rng = np.random.default_rng(5)
        n = 8
        t_op = np.eye(n) + 0.5 * np.eye(n, k=-1) + 0.1 * random_observable(n, rng)
        system = riesz.build_system(random_unitary(n, rng), t_op)
        spectrum = gibbs.Spectrum(lambdas=np.linspace(0.5, 4.0, n), beta=0.8)
        state = gibbs.gibbs_state(system, spectrum, kind)
        c = {"f": np.eye(n), "phi": t_op, "psi": np.linalg.inv(t_op).conj().T}[kind]
        f = system.frame
        boltz = c @ f @ np.diag(spectrum.weights()) @ f.conj().T @ np.linalg.inv(c)
        tol = 1e-13 * system.cond_t**2
        assert numerics.frobenius(state.boltzmann - boltz) <= tol * numerics.frobenius(boltz)
        assert numerics.frobenius(state.twist - c @ c.conj().T) <= tol
        assert state.boltzmann is state.boltzmann and state.twist is state.twist


def test_densities_are_formed_only_where_read(monkeypatch):
    """check_kms and a sweep row evaluate no trace or sandwich route;
    check_gibbs forms each density once per state and draws no observable."""
    counts = dict.fromkeys(("_trace_density", "_sandwich_density"), 0)
    draws = dict.fromkeys(("observable_blocks", "random_observable"), 0)

    def counting(module, tally, name):
        original = getattr(module, name)

        def call(*args):
            tally[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, call)

    for name in counts:
        counting(gibbs, counts, name)
    suites.check_kms(instance("shift_half", n=16), 0, (0.0, 0.9))
    models._sweep_row(models.preset("shift_half", n=16), 16.0, None)
    assert counts == {"_trace_density": 0, "_sandwich_density": 0}
    for name in draws:
        counting(models, draws, name)
    suites.check_gibbs(instance("shift_half", n=16), 0, ())
    # trace densities of the three states and the dual system's psi state
    assert counts == {"_trace_density": 4, "_sandwich_density": 3}
    assert draws == {"observable_blocks": 0, "random_observable": 0}


def test_underflowed_faithfulness_margin_fails_and_binds():
    # e^{-beta lambda_N} sigma_min(T)^2 / Z_phi underflows to 0.0 at oscillator
    # N=24, beta=40: the margin cannot be certified, so the sub-check fails with
    # a finite residual, without a 0/0, and the group's row names it
    inst = instance("oscillator", n=24, beta=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = suites.check_gibbs(inst, 0, ())
    faith = {s.name: s for s in result.subchecks}["faithfulness_margin"]
    assert np.isfinite(faith.residual) and not faith.passed and not result.passed
    assert (result.max_residual, result.tolerance) == (faith.residual, faith.tolerance)


def test_a_nan_residual_binds():
    subs = [
        suites.SubCheck("loose", 0.5, 1.0),
        suites.SubCheck("undefined", float("nan"), 1e-12),
        suites.SubCheck("tight", 2e-12, 1e-12),
    ]
    result = suites._finish("gibbs", subs)
    assert np.isnan(result.max_residual) and result.tolerance == 1e-12
    assert not result.passed
