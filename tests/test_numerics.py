import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rieszgibbs import numerics
from rieszgibbs.errors import NotHermitian, Singular

E1 = np.exp(-1.0)
E2 = np.exp(-2.0)


def random_hermitian(n, rng, scale=1.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (b + b.conj().T)


class TestHermEig:
    def test_diagonal_is_exact(self):
        eig = numerics.herm_eig(np.diag([1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(eig.values, [1.0, 2.0], rtol=0, atol=0)
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-15)

    def test_pauli_x_spectrum(self):
        # characteristic polynomial lambda^2 - 1
        eig = numerics.herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_residual(self, rng):
        a = random_hermitian(16, rng)
        eig = numerics.herm_eig(a)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        assert numerics.frobenius(recon - a) <= 1e-12 * numerics.frobenius(a)

    def test_large_dimension_residual(self, rng):
        a = random_hermitian(128, rng)
        eig = numerics.herm_eig(a)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        assert numerics.frobenius(recon - a) <= 1e-11 * numerics.frobenius(a)
        ortho = eig.vectors.conj().T @ eig.vectors - np.eye(128)
        assert numerics.frobenius(ortho) <= 1e-12 * np.sqrt(128)

    def test_ascending_order(self, rng):
        eig = numerics.herm_eig(random_hermitian(9, rng))
        assert np.all(np.diff(eig.values) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            numerics.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSvd:
    def test_identity(self):
        u, s, v = numerics.svd(np.eye(3, dtype=complex))
        np.testing.assert_allclose(s, np.ones(3), atol=1e-15)

    def test_diagonal_nonneg(self):
        _, s, _ = numerics.svd(np.diag([3.0, 0.0]).astype(complex))
        np.testing.assert_allclose(s, [3.0, 0.0], atol=1e-15)

    def test_golden_ratio_values(self):
        # sigma1*sigma2 = |det| = 1 and sigma1^2 + sigma2^2 = ||A||_F^2 = 3
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        u, s, v = numerics.svd(a)
        assert abs(s[0] * s[1] - 1.0) < 1e-14
        assert abs(s[0] ** 2 + s[1] ** 2 - 3.0) < 1e-14
        np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, a, atol=1e-14)

    def test_descending(self, rng):
        _, s, _ = numerics.svd(rng.standard_normal((7, 7)) + 0j)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


class TestInverseTraceInner:
    def test_inverse_closed_form(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        inv, cond, sigma_min = numerics.inverse(a)
        np.testing.assert_allclose(inv, [[1, -1], [0, 1]], atol=1e-15)
        # golden ratio squared: sigma_max / sigma_min of the Jordan block
        assert cond == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-14)
        # sigma_min is the inverse golden ratio
        assert sigma_min == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)

    def test_inverse_residual(self, rng):
        a = np.eye(12) + 0.3 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        inv, cond, sigma_min = numerics.inverse(a)
        assert (cond, sigma_min) == numerics.cond(a)
        assert sigma_min == pytest.approx(1.0 / np.linalg.norm(inv, 2), rel=1e-12)
        assert numerics.frobenius(a @ inv - np.eye(12)) <= 1e-12 * cond

    def test_singular_refused(self):
        with pytest.raises(Singular):
            numerics.inverse(np.array([[1, 1], [1, 1]], dtype=complex))
        with pytest.raises(Singular):
            numerics.inverse(np.diag([1.0, 1e-15]).astype(complex))

    def test_trace_fixed_value(self):
        assert abs(numerics.trace(np.diag([E1, E2])) - 0.5032147244080551) < 1e-15

    def test_hs_inner_identity(self):
        assert numerics.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_hs_inner_matches_trace_form(self, rng):
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert numerics.hs_inner(s, t) == pytest.approx(np.trace(t.conj().T @ s))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            numerics.as_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            numerics.as_operator(np.ones((2, 3)))


class TestMatmul:
    """The mixed real/complex product: one real GEMM on the complex factor's
    float64 view, within the dot-product roundoff of the complex product."""

    @staticmethod
    def operands(rng, order, layout):
        real = rng.standard_normal((7, 9) if order == "real@complex" else (9, 5))
        shape = (9, 5) if order == "real@complex" else (7, 9)
        if layout == "dagger":  # a non-contiguous view of the complex factor
            shape = shape[::-1]
        cplx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "dagger":
            cplx = numerics.dagger(cplx)
            assert not cplx.flags.c_contiguous
        return (real, cplx) if order == "real@complex" else (cplx, real)

    @pytest.mark.parametrize("layout", ["contiguous", "dagger"])
    @pytest.mark.parametrize("order", ["real@complex", "complex@real"])
    def test_matches_complex_product(self, rng, order, layout):
        a, b = self.operands(rng, order, layout)
        out = numerics.matmul(a, b)
        assert out.dtype == np.complex128 and out.shape == (7, 5)
        exact = a.astype(complex) @ b.astype(complex)
        unit_roundoff = np.finfo(float).eps / 2
        bound = 4 * unit_roundoff * numerics.frobenius(a) * numerics.frobenius(b)
        assert numerics.frobenius(out - exact) <= bound

    def test_real_product_stays_real(self, rng):
        a, b = rng.standard_normal((7, 9)), rng.standard_normal((9, 5))
        out = numerics.matmul(a, b)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, a @ b)

    def test_chain_is_left_to_right(self, rng):
        a, c = rng.standard_normal((7, 9)), rng.standard_normal((5, 4))
        b = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        np.testing.assert_array_equal(
            numerics.matmul(a, b, c), numerics.matmul(numerics.matmul(a, b), c)
        )

    def test_complex_product_is_plain_matmul(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        np.testing.assert_array_equal(numerics.matmul(a, b), a @ b)


finite_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(
    re=arrays(np.float64, (4, 4), elements=finite_entries),
    im=arrays(np.float64, (4, 4), elements=finite_entries),
)
def test_hs_inner_positive_definite(re, im):
    s = re + 1j * im
    val = numerics.hs_inner(s, s)
    assert val.imag == 0.0
    assert val.real >= 0.0
    # strictly positive only where the exact ||s||^2 is a normal double;
    # entries near 1e-249 square to below the smallest one
    scale = np.max(np.abs(s))
    if scale > 0.0 and scale**2 * np.sum(np.abs(s / scale) ** 2) >= np.finfo(float).tiny:
        assert val.real > 0.0


@settings(max_examples=25, deadline=None)
@given(
    re=arrays(np.float64, (4, 4), elements=finite_entries),
    im=arrays(np.float64, (4, 4), elements=finite_entries),
)
def test_herm_eig_reconstructs_any_hermitian(re, im):
    a = (re + 1j * im) + (re + 1j * im).conj().T
    eig = numerics.herm_eig(a)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert numerics.frobenius(recon - a) <= 1e-12 * max(1.0, numerics.frobenius(a))


class TestStacks:
    """A (m, N, N) stack takes one numpy call and gives each matrix the digits
    it gets alone, for both mixed real/complex routes too."""

    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    def test_stacked_routes_match_each_matrix_bit_for_bit(self, rng, n):
        a = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        b = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        r = rng.standard_normal((n, n))
        pairs = [
            (numerics.dagger(a), [numerics.dagger(x) for x in a]),
            (numerics.matmul(a, b, r), [numerics.matmul(x, y, r) for x, y in zip(a, b)]),
            (numerics.matmul(r, a), [numerics.matmul(r, x) for x in a]),
            (numerics.hs_inner(a, b), [numerics.hs_inner(x, y) for x, y in zip(a, b)]),
            (numerics.hs_inner(a, b[0]), [numerics.hs_inner(x, b[0]) for x in a]),
            (numerics.frobenius(a), [numerics.frobenius(x) for x in a]),
            (numerics.frobenius(r + a.real), [numerics.frobenius(r + x) for x in a.real]),
        ]
        for stacked, each in pairs:
            np.testing.assert_array_equal(stacked, np.array(each))

    def test_hs_inner_is_numpy_vdot(self, rng):
        s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for x, y in ((s, t), (s.conj().T, t), (s, t.T)):
            assert numerics.hs_inner(x, y) == np.vdot(y, x)

    def test_modulus_is_python_abs(self, rng):
        z = rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30, 64) + 1j * rng.standard_normal(64)
        assert numerics.modulus(z).tolist() == [abs(complex(v)) for v in z]

    def test_block_rule(self):
        # one matrix from N = 64 up, so large instances make a loop's GEMMs
        assert [numerics.block_size(n) for n in (64, 65, 128, 512, 4096)] == [1] * 5
        assert all(numerics.block_size(n) >= 12 for n in range(1, 17))
        for n in (2, 8, 16, 32, 48):
            m = numerics.block_size(n)
            assert m * 16 * n * n <= numerics.BLOCK_BYTES < (m + 1) * 16 * n * n
