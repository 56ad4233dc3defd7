from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rieszgibbs import models, numerics, riesz, suites
from rieszgibbs.errors import DimensionMismatch, NotUnitary, Singular
from rieszgibbs.models import random_unitary


def test_identity_system_is_self_dual():
    sys_ = riesz.identity_system(4)
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
        assert np.max(np.abs(psi.c_inv - dual_phi.c_inv)) <= tol
        assert np.max(np.abs(psi.duals - dual_phi.duals)) <= tol

    @pytest.mark.parametrize("kind", ["f", "phi", "psi"])
    def test_columns_are_biorthogonal_images(self, rng, kind):
        sys_ = self.framed_system(rng)
        fam = riesz.family(sys_, kind)
        tol = riesz.biorthogonality_tolerance(sys_.cond_t)
        assert numerics.frobenius(fam.c_op @ fam.c_inv - np.eye(12)) <= tol
        assert numerics.frobenius(fam.vectors - fam.c_op @ sys_.frame) <= tol
        assert numerics.frobenius(fam.duals.conj().T @ fam.vectors - np.eye(12)) <= tol
        g = np.linspace(0.5, 2.0, 12)
        dense = fam.c_op @ (sys_.frame * g) @ sys_.frame.conj().T @ fam.c_inv
        assert numerics.frobenius(fam.similarity(g) - dense) <= tol * numerics.frobenius(dense)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="family kind"):
            riesz.family(riesz.identity_system(2), "chi")


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
        sys_ = riesz.identity_system(3)
        assert riesz.check_naturalness(sys_, sys_.frame).is_natural

    def test_shape_mismatch(self):
        sys_ = riesz.identity_system(3)
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
        sys_ = riesz.identity_system(2)
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
