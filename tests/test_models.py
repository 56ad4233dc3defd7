import gc
import math

import numpy as np
import pytest

from rieszgibbs import entropy, kms, models, numerics, riesz
from rieszgibbs.errors import BadModel


class TestLambdaRules:
    def test_linear_default_is_shifted_count(self):
        np.testing.assert_array_equal(
            models.lambda_values({"rule": "linear"}, 4), [1.0, 2.0, 3.0, 4.0]
        )

    def test_offset_evaluation(self):
        np.testing.assert_array_equal(
            models.lambda_values({"rule": "linear"}, 2, offset=10), [11.0, 12.0]
        )

    def test_power_and_log(self):
        np.testing.assert_allclose(
            models.lambda_values({"rule": "power", "exponent": 2.0}, 3), [1.0, 4.0, 9.0]
        )
        np.testing.assert_allclose(
            models.lambda_values({"rule": "log"}, 2), np.log([2.0, 3.0])
        )

    def test_explicit_bounds(self):
        with pytest.raises(BadModel):
            models.lambda_values({"rule": "explicit", "values": [1.0]}, 2)

    def test_unknown_rule(self):
        with pytest.raises(BadModel):
            models.lambda_values({"rule": "cubic"}, 2)


class TestConstructingOperators:
    def test_identity(self):
        np.testing.assert_array_equal(models.build_t({"rule": "identity"}, 3), np.eye(3))

    def test_shift_perturbed_structure(self):
        t = models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, 3)
        np.testing.assert_array_equal(t, np.eye(3) + 0.5 * np.eye(3, k=-1))

    def test_shift_epsilon_range(self):
        with pytest.raises(BadModel):
            models.build_t({"rule": "shift_perturbed", "epsilon": 1.5}, 3)

    def test_diagonal_zero_rejected(self):
        with pytest.raises(BadModel):
            models.build_t({"rule": "diagonal", "values": [1.0, 0.0]}, 2)

    def test_exp_generator_deterministic(self):
        a = models.build_t({"rule": "exp_generator", "scale": 0.4}, 8, seed=7)
        b = models.build_t({"rule": "exp_generator", "scale": 0.4}, 8, seed=7)
        np.testing.assert_array_equal(a, b)
        c = models.build_t({"rule": "exp_generator", "scale": 0.4}, 8, seed=8)
        assert np.max(np.abs(a - c)) > 1e-3

    @pytest.mark.parametrize(
        "rule",
        [{"rule": "exp_generator", "scale": 1e300}, {"rule": "diagonal", "exponent": 1e300}],
        ids=["exp_generator", "diagonal"],
    )
    def test_overflowing_t_rejected(self, rule):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BadModel, match="overflows double range"):
                models.build_t(rule, 4)

    def test_exp_generator_matches_series_inverse(self):
        # exp(G) exp(-G) = I validates the scaling-and-squaring helper
        rng = np.random.default_rng(5)
        g = 0.6 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        fwd = models._taylor_expm(g)
        bwd = models._taylor_expm(-g)
        assert numerics.frobenius(fwd @ bwd - np.eye(6)) <= 1e-13


class TestInstantiate:
    def test_oscillator_partition_matches_partial_sum(self):
        inst = models.instantiate(models.preset("oscillator"))
        from rieszgibbs.gibbs import partition_constants

        z = partition_constants(inst.system, inst.spectrum)
        expected = np.sum(np.exp(-np.arange(1.0, 33.0)))
        assert z.z0 == pytest.approx(expected, abs=1e-12)

    def test_jordan2_is_canonical_fixture(self):
        inst = models.instantiate(models.preset("jordan2"))
        np.testing.assert_array_equal(inst.system.t_op, [[1, 1], [0, 1]])
        assert inst.meta["cond_t"] == pytest.approx(2.618033988749895, rel=1e-12)

    def test_diag_growth_flags_unbounded_family(self):
        inst = models.instantiate(models.preset("diag_growth"))
        assert not inst.meta["is_riesz_basis"]
        from rieszgibbs.riesz import verify_biorthogonality

        assert verify_biorthogonality(inst.system) <= 1e-10 * inst.system.cond_t

    def test_diag_growth_partition_polylog(self):
        inst = models.instantiate(models.preset("diag_growth", n=64))
        from rieszgibbs.gibbs import partition_constants

        z = partition_constants(inst.system, inst.spectrum)
        x = np.exp(-1.0)
        assert z.z_phi == pytest.approx(x * (1 + x) / (1 - x) ** 3, abs=1e-13)

    def test_bounded_families_flagged(self):
        assert models.instantiate(models.preset("oscillator")).meta["is_riesz_basis"]
        assert models.instantiate(models.preset("shift_half")).meta["is_riesz_basis"]

    def test_tail_metadata(self):
        inst = models.instantiate(models.preset("oscillator", n=16))
        expected = np.exp(-17.0) / np.sum(np.exp(-np.arange(1.0, 17.0)))
        assert inst.meta["f_tail_ratio"] == pytest.approx(expected, rel=1e-12)
        assert not inst.meta["phi_tail_ratio_is_bound"]

    def test_deterministic_instantiation(self):
        spec = models.preset("exp_gen", seed=123)
        a = models.instantiate(spec)
        b = models.instantiate(spec)
        np.testing.assert_array_equal(a.system.t_op, b.system.t_op)

    def test_zero_spectrum_rejected(self):
        spec = models.ModelSpec(
            name="bad",
            n=2,
            beta=1.0,
            lambda_rule={"rule": "explicit", "values": [0.0, 1.0]},
            t_rule={"rule": "identity"},
        )
        with pytest.raises(BadModel, match="strictly positive"):
            models.instantiate(spec)

    def test_one_condition_number_per_instance(self, monkeypatch):
        # cond(T) and sigma_min(T) come from the one SVD that build_system's inverse check takes
        calls = []
        original = numerics.cond
        monkeypatch.setattr(numerics, "cond", lambda a: calls.append(a) or original(a))
        inst = models.instantiate(models.preset("shift_half", n=16))
        assert len(calls) == 1
        cond_t, sigma_min_t = original(inst.system.t_op)
        assert inst.meta["cond_t"] == inst.system.cond_t == cond_t
        # sigma_min(T) comes from the same SVD
        assert inst.system.sigma_min_t == sigma_min_t

    def test_ill_conditioned_explicit_t_rejected(self):
        spec = models.ModelSpec(
            name="bad",
            n=2,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "explicit", "values": [[1.0, 0.0], [0.0, 1e-13]]},
        )
        with pytest.raises(BadModel, match="ill-conditioned"):
            models.instantiate(spec)

    def test_unknown_preset(self):
        with pytest.raises(BadModel):
            models.preset("harmonium")

    def test_jordan2_dimension_is_fixed(self):
        with pytest.raises(BadModel):
            models.preset("jordan2", n=4)


class TestObservables:
    def test_random_unitary_is_unitary(self, rng):
        u = models.random_unitary(7, rng)
        assert numerics.frobenius(u.conj().T @ u - np.eye(7)) <= 1e-13

    def test_random_observable_norm(self, rng):
        x = models.random_observable(5, rng)
        assert np.linalg.norm(x, "fro") == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [3, 16, 32, 64])
    def test_block_draws_are_the_sequential_draws(self, n):
        # a block is one (m, 2, n, n) draw: the stream of m real/imaginary pairs
        blocks = list(models.observable_blocks(n, 13, np.random.default_rng(3)))
        assert [len(b) for b in blocks][:-1] == [numerics.block_size(n)] * (len(blocks) - 1)
        seq = np.random.default_rng(3)
        for x in np.concatenate(blocks):
            a = seq.standard_normal((n, n)) + 1j * seq.standard_normal((n, n))
            np.testing.assert_array_equal(x, a / np.linalg.norm(a, "fro"))
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(models.random_observable(n, rng), blocks[0][0])


class TestSweeps:
    def test_requires_ascending_dimensions(self):
        with pytest.raises(BadModel):
            models.convergence_sweep(models.preset("oscillator"), [16, 8])

    def test_requires_nonempty(self):
        with pytest.raises(BadModel):
            models.convergence_sweep(models.preset("oscillator"), [])

    def test_differences_shrink(self):
        rows = models.convergence_sweep(models.preset("oscillator"), [8, 16, 32])
        assert rows[0].d_z0 is None
        assert rows[2].d_z0 < rows[1].d_z0
        assert rows[2].d_s_rho < rows[1].d_s_rho

    def test_beta_sweep_tracks_partial_sums(self):
        rows = models.beta_sweep(models.preset("oscillator", n=64), [0.5, 1.0, 2.0])
        for row, beta in zip(rows, (0.5, 1.0, 2.0)):
            expected = np.sum(np.exp(-beta * np.arange(1.0, 65.0)))
            assert row.z0 == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def shift_half_closed_forms(n, beta, eps=0.5):
        """T = I + eps L, lambda_k = 1 + k: ||phi_k||^2 = 1 + eps^2 except the
        last column's 1, ||psi_k||^2 = sum_{j <= k} eps^{2j}, and phi_0 is the
        only column with a component along f_0."""
        w = [math.exp(-beta * (1.0 + k)) for k in range(n)]
        z0 = math.fsum(w)
        z_phi = (1.0 + eps**2) * z0 - eps**2 * w[-1]
        p = [wk / z0 for wk in w]
        return {
            "z0": z0,
            "z_phi": z_phi,
            "z_psi": math.fsum(
                wk * (1.0 - eps ** (2 * (k + 1))) / (1.0 - eps**2) for k, wk in enumerate(w)
            ),
            "omega_identity": 1.0,
            "omega_ground": w[0] / z_phi,
            "s_rho": -math.fsum(pk * math.log(pk) for pk in p if pk > 0.0),
        }

    def test_shift_half_sweep_matches_closed_forms(self):
        n_values = (16, 64, 128)
        rows = models.convergence_sweep(models.preset("shift_half", beta=1.0), n_values)
        for n, row in zip(n_values, rows):
            assert row.axis == n
            for column, want in self.shift_half_closed_forms(n, 1.0).items():
                assert getattr(row, column) == pytest.approx(want, rel=1e-12, abs=0.0), (n, column)

    def test_residual_columns_are_small(self):
        rows = models.convergence_sweep(models.preset("jordan2"), [2])
        assert rows[0].bio_residual <= 1e-12
        assert rows[0].kms_residual <= 1e-12

    def test_row_reads_the_build_pair_deviation(self, monkeypatch):
        # the biorthogonality column is the deviation build_system measured
        calls = []
        real = riesz.verify_biorthogonality
        # a by-name import in models would bypass the patch on riesz alone
        for module in (riesz, models):
            monkeypatch.setattr(
                module, "verify_biorthogonality", lambda s: calls.append(s) or real(s), raising=False
            )
        row = models.convergence_sweep(models.preset("shift_half"), [8])[0]
        assert len(calls) == 1
        assert row.bio_residual == real(calls[0])

    def test_row_forms_only_the_families_it_evaluates(self, monkeypatch):
        # Zpsi reads the psi columns off the system: forming the psi family
        # would keep two more N x N conjugate copies alive through the row
        built = []
        real = models.instantiate

        def recording(spec):
            built.append(real(spec))
            return built[-1]

        monkeypatch.setattr(models, "instantiate", recording)
        models.convergence_sweep(models.preset("shift_half"), [8])
        assert set(built[0].system.families) == {"f", "phi"}

    def test_row_drops_the_density_pair_before_the_kms_stage(self, monkeypatch):
        # the pair holds four N x N arrays and the row reads only S_rho from it
        def live_pairs():
            return sum(isinstance(o, entropy.DensityPair) for o in gc.get_objects())

        baseline = live_pairs()
        seen = []
        real = kms.verify_kms_like

        def probe(sf, t_grid):
            seen.append(live_pairs())
            return real(sf, t_grid)

        monkeypatch.setattr(kms, "verify_kms_like", probe)
        models.convergence_sweep(models.preset("shift_half"), [8])
        assert seen == [baseline]
