from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rieszgibbs import dynamics, models, numerics, riesz, suites
from rieszgibbs.errors import DimensionMismatch, NotUnitary, Singular
from rieszgibbs.models import random_unitary


def test_identity_system_is_self_dual():
    sys_ = riesz.build_system(np.eye(4), np.eye(4))
    np.testing.assert_array_equal(sys_.phi, np.eye(4))
    np.testing.assert_array_equal(sys_.psi, np.eye(4))
    assert riesz.verify_biorthogonality(sys_) <= 1e-15


def test_jordan2_closed_form():
    t = np.array([[1, 1], [0, 1]], dtype=complex)
    sys_ = riesz.build_system(np.eye(2), t)
    np.testing.assert_allclose(sys_.phi, [[1, 1], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(sys_.psi, [[1, 0], [-1, 1]], atol=1e-14)
    assert riesz.verify_biorthogonality(sys_) <= 1e-14


def test_diagonal_reciprocal_pair():
    sys_ = riesz.build_system(np.eye(2), np.diag([2.0, 0.5]).astype(complex))
    np.testing.assert_allclose(sys_.psi, np.diag([0.5, 2.0]), atol=1e-15)
    gram = sys_.psi.conj().T @ sys_.phi
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-15)


def test_random_well_conditioned_large(rng):
    t = np.eye(64) + 0.4 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8.0
    sys_ = riesz.build_system(np.eye(64), t)
    assert riesz.verify_biorthogonality(sys_) <= 1e-10


def test_psi_gram_identity(rng):
    t = np.eye(16) + 0.2 * rng.standard_normal((16, 16))
    sys_ = riesz.build_system(np.eye(16), t)
    gram = sys_.psi.conj().T @ sys_.phi
    tol = riesz.biorthogonality_tolerance(sys_.cond_t)
    assert numerics.frobenius(gram - np.eye(16)) <= tol * 16


def test_dual_system_swaps_families(rng):
    t = np.eye(8) + 0.3 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / 3.0
    sys_ = riesz.build_system(np.eye(8), t)
    dual = riesz.dual_system(sys_)
    assert np.max(np.abs(dual.phi - sys_.psi)) <= 1e-12
    assert np.max(np.abs(dual.psi - sys_.phi)) <= 1e-12


class TestFamily:
    def framed_system(self, rng, n=12):
        t = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 3.0
        return riesz.build_system(random_unitary(n, rng), t)

    def test_psi_is_dual_phi(self, rng):
        sys_ = self.framed_system(rng)
        psi = riesz.family(sys_, "psi")
        dual_phi = riesz.family(riesz.dual_system(sys_), "phi")
        np.testing.assert_array_equal(psi.c_op, dual_phi.c_op)
        np.testing.assert_array_equal(psi.vectors, dual_phi.vectors)
        tol = 1e-12 * sys_.cond_t
        assert np.max(np.abs(psi.duals_h - dual_phi.duals_h)) <= tol

    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_columns_are_biorthogonal_images(self, rng, kind):
        sys_ = self.framed_system(rng)
        fam = riesz.family(sys_, kind)
        tol = riesz.biorthogonality_tolerance(sys_.cond_t)
        assert numerics.frobenius(fam.vectors - fam.c_op @ sys_.frame) <= tol
        assert numerics.frobenius(fam.duals_h @ fam.vectors - np.eye(12)) <= tol
        g = np.linspace(0.5, 2.0, 12)
        dense = fam.c_op @ (sys_.frame * g) @ sys_.frame.conj().T @ np.linalg.inv(fam.c_op)
        assert numerics.frobenius(fam.similarity(g) - dense) <= tol * numerics.frobenius(dense)

    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_formed_once_per_system_and_read_only(self, rng, kind):
        sys_ = self.framed_system(rng)
        fam = riesz.family(sys_, kind)
        assert riesz.family(sys_, kind) is fam
        for array in fam:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="family kind"):
            riesz.family(riesz.build_system(np.eye(2), np.eye(2)), "chi")


def preset_system(name, n=16):
    return models.instantiate(models.preset(name, n=n))


REAL_PRESETS = ["shift_half", "oscillator", "diag_sqrt", "diag_growth"]


class TestRealSystems:
    """A system whose frame and T have no imaginary part is built, inverted and
    verified in float64; any other system keeps complex128."""

    @pytest.mark.parametrize(
        "name, dtype",
        [(name, np.float64) for name in REAL_PRESETS]
        + [("exp_gen", np.complex128), ("random_unitary_frame", np.complex128)],
    )
    def test_factorizations_and_arrays_keep_the_system_dtype(self, monkeypatch, rng, name, dtype):
        frame = random_unitary(12, rng)
        seen = []
        for fn in ("svd", "inv"):
            original = getattr(np.linalg, fn)

            def recording(a, *args, _original=original, **kwargs):
                seen.append(a.dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, fn, recording)
        if name == "random_unitary_frame":
            system = riesz.build_system(frame, models.build_t({"rule": "shift_perturbed"}, 12))
        else:
            system = preset_system(name).system
        dual = riesz.dual_system(system)
        # at least the condition check's SVD and the inverse of each build
        assert len(seen) >= 4 and set(seen) == {np.dtype(dtype)}
        for sys_ in (system, dual):
            for array in (sys_.frame, sys_.t_op, sys_.t_inv, sys_.phi, sys_.psi):
                assert array.dtype == dtype


class TestRealFamilies:
    """A family whose C, C F and F^H C^{-1} have no imaginary part is stored as
    float64 in place of the complex arrays; any other keeps complex128."""

    @pytest.mark.parametrize("name", REAL_PRESETS)
    def test_real_presets_are_float64(self, name):
        system = preset_system(name).system
        for kind in ("f", "phi", "psi"):
            fam = riesz.family(system, kind)
            assert fam.real and all(a.dtype == np.float64 for a in fam)
        # the system is real too, and its families read its arrays without copies
        assert riesz.family(system, "f").vectors is system.frame
        assert riesz.family(system, "phi").c_op is system.t_op
        assert riesz.family(system, "phi").vectors is system.phi
        assert riesz.family(system, "psi").vectors is system.psi

    def test_exp_gen_deformed_families_stay_complex(self):
        system = preset_system("exp_gen").system
        assert all(a.dtype == np.float64 for a in riesz.family(system, "f"))
        for kind in ("phi", "psi"):
            fam = riesz.family(system, kind)
            assert not fam.real and all(a.dtype == np.complex128 for a in fam)

    def test_random_unitary_frame_stays_complex(self, rng):
        frame = random_unitary(12, rng)
        system = riesz.build_system(frame, models.build_t({"rule": "shift_perturbed"}, 12))
        for kind in ("f", "phi", "psi"):
            fam = riesz.family(system, kind)
            assert not fam.real and all(a.dtype == np.complex128 for a in fam)
        # today's arrays: the frame family's columns are the system's frame
        assert riesz.family(system, "f").vectors is system.frame

    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_real_similarity_matches_complex_formula(self, kind):
        inst = preset_system("shift_half")
        fam = riesz.family(inst.system, kind)
        vectors, duals_h = fam.vectors.astype(complex), fam.duals_h.astype(complex)
        lam = inst.spectrum.lambdas
        for g in (np.exp(2.3j * lam), np.exp(-lam)):
            exact = (vectors * g) @ duals_h
            out = fam.similarity(g)
            assert out.dtype == (np.complex128 if np.iscomplexobj(g) else np.float64)
            scale = numerics.frobenius(fam.vectors) * numerics.frobenius(fam.duals_h)
            assert numerics.frobenius(out - exact) <= 4 * np.finfo(float).eps * scale
            s, s_conj = fam.similarity_pair(g)
            np.testing.assert_array_equal(s, out)
            np.testing.assert_array_equal(s_conj, out.conj())

    @pytest.mark.parametrize("name", ["shift_half", "exp_gen"], ids=["real", "complex"])
    def test_phase_block_gives_each_similarity(self, name):
        inst = preset_system(name)
        fam = riesz.family(inst.system, "phi")
        g = np.exp(1j * np.array([0.0, -1.5, 2.5])[:, None] * inst.spectrum.lambdas)
        for stacked, each in zip(fam.similarity_pair(g), zip(*map(fam.similarity_pair, g))):
            np.testing.assert_array_equal(stacked, np.array(each))

    def test_evolve_rejects_a_complex_time(self, rng):
        # for complex t, U_{-t} is not conj(U_t): evolve refuses the time
        # rather than return U_t X conj(U_t) from the real-family shortcut
        inst = preset_system("shift_half")
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        with pytest.raises(ValueError):
            dynamics.evolve(ham, "phi", 0.7 + 0.3j, models.random_observable(16, rng))


def test_frame_rotation_preserves_biorthogonality(rng):
    t = np.eye(6) + 0.25 * rng.standard_normal((6, 6))
    u = random_unitary(6, rng)
    rotated = riesz.build_system(np.eye(6) @ u, t)
    assert riesz.verify_biorthogonality(rotated) <= riesz.biorthogonality_tolerance(rotated.cond_t)


class TestNaturalness:
    def test_own_psi_is_natural(self, rng):
        t = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        sys_ = riesz.build_system(np.eye(5), t)
        result = riesz.check_naturalness(sys_, sys_.psi)
        assert result.is_natural and result.max_deviation <= 1e-15

    def test_scaled_column_is_not_natural(self):
        sys_ = riesz.build_system(np.eye(2), np.array([[1, 1], [0, 1]], dtype=complex))
        tampered = sys_.psi.copy()
        tampered[:, 0] *= 2.0
        result = riesz.check_naturalness(sys_, tampered)
        assert not result.is_natural
        # T^H (2 psi_0) - f_0 = f_0
        assert result.max_deviation == pytest.approx(1.0, rel=1e-12)

    def test_planted_psi_defect_fails_the_suite(self):
        inst = models.instantiate(models.preset("shift_half", n=16))
        psi = inst.system.psi.copy()
        psi[3, 5] += 1e-6

        def naturalness(system):
            result = suites.check_biorthogonality(inst._replace(system=system), 0, ())
            return {s.name: s for s in result.subchecks}["naturalness"]

        assert naturalness(inst.system).passed
        planted = naturalness(replace(inst.system, psi=psi))
        assert planted.residual > 1e-6 and not planted.passed

    def test_identity_frame_is_self_dual(self):
        sys_ = riesz.build_system(np.eye(3), np.eye(3))
        assert riesz.check_naturalness(sys_, sys_.frame).is_natural

    def test_shape_mismatch(self):
        sys_ = riesz.build_system(np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            riesz.check_naturalness(sys_, np.eye(4))


class TestBuildErrors:
    def test_rejects_non_unitary_frame(self):
        with pytest.raises(NotUnitary):
            riesz.build_system(2.0 * np.eye(3), np.eye(3))

    def test_rejects_singular_t(self):
        with pytest.raises(Singular):
            riesz.build_system(np.eye(2), np.array([[1, 0], [0, 0]], dtype=complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            riesz.build_system(np.eye(3), np.eye(4))

    def test_arrays_are_frozen(self):
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            sys_.phi[0, 0] = 5.0


@settings(max_examples=25, deadline=None)
@given(
    perturbation=arrays(
        np.float64, (4, 4), elements=st.floats(min_value=-0.15, max_value=0.15, allow_nan=False)
    )
)
def test_biorthogonality_for_perturbed_identity(perturbation):
    sys_ = riesz.build_system(np.eye(4), np.eye(4) + perturbation)
    assert riesz.verify_biorthogonality(sys_) <= riesz.biorthogonality_tolerance(sys_.cond_t)
