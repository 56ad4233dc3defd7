import numpy as np
import pytest

from conftest import instance
from rieszgibbs import entropy, gibbs, numerics, riesz
from rieszgibbs.errors import NotNormalized

E1, E2 = np.exp(-1.0), np.exp(-2.0)


def two_level_pair(normalize=True):
    sys_ = riesz.build_system(np.eye(2), np.eye(2))
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return entropy.build_density(sys_, spec, normalize=normalize)


class TestBuildDensity:
    def test_unnormalized_diagonal(self):
        pair = two_level_pair(normalize=False)
        np.testing.assert_array_equal(pair.rho0, np.diag([E1, E2]))
        np.testing.assert_allclose(pair.log_rho0, np.diag([-1.0, -2.0]), atol=1e-15)

    def test_normalized_diagonal(self):
        pair = two_level_pair()
        np.testing.assert_allclose(
            np.diag(pair.rho0).real, [0.7310585786300049, 0.2689414213699951], atol=1e-15
        )
        assert abs(numerics.trace(pair.rho0) - 1.0) <= 1e-15

    def test_similarity_preserves_spectrum(self, jordan2):
        pair = entropy.build_density(jordan2.system, jordan2.spectrum)
        eig_rho = np.sort(np.linalg.eigvals(pair.rho).real)
        eig_rho0 = np.sort(np.linalg.eigvalsh(pair.rho0))
        assert np.max(np.abs(eig_rho - eig_rho0)) <= 1e-11

    def test_log_pair_is_similarity_transform(self, jordan2):
        pair = entropy.build_density(jordan2.system, jordan2.spectrum)
        sys_ = jordan2.system
        expected = sys_.t_op @ pair.log_rho0 @ sys_.t_inv
        assert numerics.frobenius(pair.log_rho - expected) <= 1e-14


class TestEntropyStandard:
    def test_maximal_mixing(self):
        # equal energies make rho0 = I/2: S = log 2
        sys_ = riesz.build_system(np.eye(2), np.eye(2))
        spec = gibbs.Spectrum(lambdas=np.array([1.0, 1.0]), beta=1.0)
        pair = entropy.build_density(sys_, spec)
        assert entropy.entropy_standard(pair) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_two_level_binary_entropy(self):
        pair = two_level_pair()
        assert entropy.entropy_standard(pair) == pytest.approx(0.5822031088882179, abs=1e-13)

    def test_matches_eigenvalue_formula(self):
        inst = instance("oscillator", n=12)
        pair = entropy.build_density(inst.system, inst.spectrum)
        p = np.linalg.eigvalsh(pair.rho0)
        assert entropy.entropy_standard(pair) == pytest.approx(
            float(-np.sum(p * np.log(p))), abs=1e-13
        )

    def test_geometric_closed_form(self):
        # beta <H0> + log Z0 for lambda_n = n + 1 at beta = 1
        inst = instance("oscillator", n=64)
        pair = entropy.build_density(inst.system, inst.spectrum)
        assert entropy.entropy_standard(pair) == pytest.approx(1.0406518522564085, abs=1e-12)

    def test_requires_normalization(self):
        with pytest.raises(NotNormalized):
            entropy.entropy_standard(two_level_pair(normalize=False))


class TestEntropyGeneralized:
    def test_identity_t_collapses_exactly(self):
        pair = two_level_pair()
        assert entropy.entropy_generalized(pair) == pytest.approx(
            entropy.entropy_standard(pair), abs=1e-15
        )

    def test_jordan2_equality(self, jordan2):
        pair = entropy.build_density(jordan2.system, jordan2.spectrum)
        s_gen = entropy.entropy_generalized(pair)
        assert s_gen == pytest.approx(0.5822031088882179, abs=1e-12)
        assert abs(s_gen - entropy.entropy_standard(pair)) <= 1e-12

    def test_equality_across_models(self):
        for name, n in (("shift_half", 32), ("diag_sqrt", 32), ("exp_gen", 16)):
            inst = instance(name, n=n)
            pair = entropy.build_density(inst.system, inst.spectrum)
            dev = abs(entropy.entropy_generalized(pair) - entropy.entropy_standard(pair))
            assert dev <= 1e-10 * inst.system.cond_t

    def test_requires_normalization(self):
        with pytest.raises(NotNormalized):
            entropy.entropy_generalized(two_level_pair(normalize=False))


class TestLogSeries:
    def test_converges_inside_domain(self):
        # small beta*lambda keeps spectrum(rho0) inside (0, 2)
        sys_ = riesz.build_system(np.eye(4), np.eye(4) + 0.3 * np.eye(4, k=-1))
        spec = gibbs.Spectrum(lambdas=np.array([0.2, 0.4, 0.6, 0.8]), beta=1.0)
        pair = entropy.build_density(sys_, spec, normalize=False)
        series = entropy.matrix_log_series(pair.rho, 200)
        assert numerics.frobenius(series - pair.log_rho) <= 1e-12

    def test_partial_sums_improve(self):
        sys_ = riesz.build_system(np.eye(3), np.eye(3))
        spec = gibbs.Spectrum(lambdas=np.array([0.3, 0.5, 0.9]), beta=1.0)
        pair = entropy.build_density(sys_, spec, normalize=False)
        errs = [
            numerics.frobenius(entropy.matrix_log_series(pair.rho, k) - pair.log_rho)
            for k in (5, 20, 80)
        ]
        assert errs[0] > errs[1] > errs[2]


#: indices n = 0 .. 1999 of the spectra the summability tests tabulate
N = np.arange(2000.0)


class TestSummability:
    def test_geometric_spectrum(self):
        rows = entropy.summability_report(N + 1.0, gammas=[1.0], n_values=[16, 32, 48])
        last = rows[-1]
        assert last.partial_sum_0 == pytest.approx(np.exp(-1) / (1 - np.exp(-1)), abs=1e-12)
        assert last.tail_ratio == pytest.approx(np.exp(-1), abs=1e-12)
        assert last.converged

    def test_logarithmic_spectrum_flagged(self):
        rows = entropy.summability_report(np.log(N + 2.0), gammas=[0.5, 1.0], n_values=[64, 256])
        assert not any(row.converged for row in rows)

    def test_quadratic_spectrum_fast(self):
        rows = entropy.summability_report((N + 1.0) ** 2, gammas=[0.1], n_values=[30])
        row = rows[0]
        assert row.converged
        # twelve digits by N = 30
        dense = entropy.summability_report((N + 1.0) ** 2, gammas=[0.1], n_values=[2000])[0]
        assert row.partial_sum_0 == pytest.approx(dense.partial_sum_0, abs=1e-12)

    def test_column_order(self):
        assert entropy.SUMMABILITY_COLUMNS == (
            "gamma",
            "N",
            "partial_sum_0",
            "partial_sum_1",
            "tail_ratio",
            "converged",
        )
