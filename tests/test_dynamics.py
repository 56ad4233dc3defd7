import numpy as np
import pytest

from conftest import instance
from test_planted import root_defect
from rieszgibbs import cli, dynamics, gibbs, models, numerics, riesz, suites
from rieszgibbs.models import random_observable

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def two_level_ham():
    sys_ = riesz.build_system(np.eye(2), np.eye(2))
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return dynamics.hamiltonian(sys_, spec)


class TestAlpha0:
    def test_time_zero_is_identity_map(self, rng):
        ham = two_level_ham()
        x = random_observable(2, rng)
        np.testing.assert_array_equal(dynamics.evolve(ham, "f", 0.0, x), x)

    def test_hamiltonian_is_fixed(self):
        ham = two_level_ham()
        assert numerics.frobenius(dynamics.evolve(ham, "f", 3.7, ham.h0) - ham.h0) <= 1e-14

    def test_offdiagonal_phase(self):
        # entry (0,1) picks up e^{it(lambda_0 - lambda_1)} = e^{-it}
        ham = two_level_ham()
        for t in (0.3, 2.0, -5.0):
            out = dynamics.evolve(ham, "f", t, E01)
            assert out[0, 1] == pytest.approx(np.exp(-1j * t), abs=1e-15)
            assert abs(out[1, 0]) <= 1e-15


class TestPropagators:
    def test_time_zero(self):
        inst = instance("shift_half", n=8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        for which in ("phi", "psi"):
            np.testing.assert_allclose(dynamics.propagator(ham, which, 0.0), np.eye(8), atol=1e-14)

    def test_identity_t_matches_spectral_calculus(self):
        # T = I and F = I: e^{itH} is the closed form diag(e^{it lambda_n})
        ham = two_level_ham()
        t = 1.3
        closed_form = np.diag(np.exp(1j * t * ham.spectrum.lambdas))
        assert numerics.frobenius(dynamics.propagator(ham, "phi", t) - closed_form) <= 1e-14

    def test_adjoint_relation_entrywise(self, jordan2):
        ham = dynamics.hamiltonian(jordan2.system, jordan2.spectrum)
        for t in (0.4, 1.9, -3.2):
            lhs = dynamics.propagator(ham, "phi", t).conj().T
            rhs = dynamics.propagator(ham, "psi", -t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_group_law_of_propagators(self):
        inst = instance("exp_gen", n=10)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        s, t = 0.8, -2.1
        prod = dynamics.propagator(ham, "phi", s) @ dynamics.propagator(ham, "phi", t)
        assert numerics.frobenius(dynamics.propagator(ham, "phi", s + t) - prod) <= 1e-12

    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_dense_similarity_on_random_frame(self, rng, n):
        frame = models.random_unitary(n, rng)
        assert numerics.frobenius(frame - np.eye(n)) > 1.0
        t_op = models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, n)
        system = riesz.build_system(frame, t_op)
        spectrum = gibbs.Spectrum(lambdas=1.0 + np.arange(n), beta=1.0)
        ham = dynamics.hamiltonian(system, spectrum)
        eye = np.eye(n, dtype=complex)
        ops = {
            "f": (eye, eye),
            "phi": (system.t_op, system.t_inv),
            "psi": (system.t_inv.conj().T, system.t_op.conj().T),
        }
        for which, (c, c_inv) in ops.items():
            for t in (1.3, 1j * spectrum.beta):
                h0_exp = (frame * np.exp(1j * t * spectrum.lambdas)) @ frame.conj().T
                dense = c @ h0_exp @ c_inv
                err = numerics.frobenius(dynamics.propagator(ham, which, t) - dense)
                assert err <= 1e-14 * system.cond_t * numerics.frobenius(dense)


class TestSpectralEvolution:
    @pytest.mark.parametrize("which", ["f", "phi", "psi"])
    def test_matches_dense_evolution_on_random_frame(self, rng, which):
        frame = models.random_unitary(16, rng)
        t_op = models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, 16)
        system = riesz.build_system(frame, t_op)
        spectrum = gibbs.Spectrum(lambdas=1.0 + np.arange(16), beta=1.0)
        ham = dynamics.hamiltonian(system, spectrum)
        x = random_observable(16, rng)
        alpha = dynamics.spectral_evolution(ham, which, x)
        for ts in ((1.3,), (0.4, -2.2), (5.0, 2.5, -0.5)):
            dense = dynamics.evolve(ham, which, sum(ts), x)
            err = numerics.frobenius(alpha(*ts) - dense)
            assert err <= 1e-14 * system.cond_t**2 * numerics.frobenius(dense)


class TestDeformedEvolutions:
    def test_time_zero(self, rng, jordan2):
        ham = dynamics.hamiltonian(jordan2.system, jordan2.spectrum)
        x = random_observable(2, rng)
        np.testing.assert_allclose(dynamics.evolve(ham, "phi", 0.0, x), x, atol=1e-15)

    def test_generator_is_fixed_point(self):
        inst = instance("shift_half", n=8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        assert numerics.frobenius(dynamics.evolve(ham, "phi", 2.2, ham.h) - ham.h) <= 1e-11

    def test_two_path_factorization(self, rng):
        # direct conjugation vs the sandwich through the reference evolution
        inst = instance("shift_half", n=32)
        sys_ = inst.system
        ham = dynamics.hamiltonian(sys_, inst.spectrum)
        x = random_observable(32, rng)
        t = 1.4
        direct = dynamics.evolve(ham, "phi", t, x)
        sandwich = sys_.t_op @ dynamics.evolve(ham, "f", t, sys_.t_inv @ x @ sys_.t_op) @ sys_.t_inv
        assert numerics.frobenius(direct - sandwich) <= 1e-12

    def test_adjoint_exchanges_families(self, rng):
        inst = instance("exp_gen", n=12)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        x = random_observable(12, rng)
        for t in (0.5, -4.0):
            lhs = dynamics.evolve(ham, "phi", t, x).conj().T
            rhs = dynamics.evolve(ham, "psi", t, x.conj().T)
            assert numerics.frobenius(lhs - rhs) <= 1e-12

    def test_group_law(self, rng):
        inst = instance("diag_sqrt", n=16)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        x = random_observable(16, rng)
        for s, t in ((0.5, 0.25), (-3.0, 7.0), (9.0, -8.5)):
            for which in ("f", "phi", "psi"):
                lhs = dynamics.evolve(ham, which, s + t, x)
                rhs = dynamics.evolve(ham, which, s, dynamics.evolve(ham, which, t, x))
                assert numerics.frobenius(lhs - rhs) <= 1e-11

    def test_intertwining(self, rng):
        inst = instance("shift_half", n=16)
        sys_ = inst.system
        ham = dynamics.hamiltonian(sys_, inst.spectrum)
        x = random_observable(16, rng)
        t = 2.7
        lhs = dynamics.evolve(ham, "phi", t, x) @ sys_.t_op
        rhs = sys_.t_op @ dynamics.evolve(ham, "f", t, sys_.t_inv @ x @ sys_.t_op)
        assert numerics.frobenius(lhs - rhs) <= 1e-11 * sys_.cond_t**2

    def test_psi_evolution_is_dual_phi(self, rng):
        inst = instance("exp_gen", n=10)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        dual_ham = dynamics.hamiltonian(riesz.dual_system(inst.system), inst.spectrum)
        x = random_observable(10, rng)
        t = 1.1
        assert numerics.frobenius(
            dynamics.evolve(ham, "psi", t, x) - dynamics.evolve(dual_ham, "phi", t, x)
        ) <= 1e-12


class TestSimilarityCount:
    @pytest.mark.parametrize(
        "name, count", [("shift_half", 1), ("exp_gen", 2)], ids=["real", "complex"]
    )
    def test_generators_are_formed_on_first_use(self, monkeypatch, name, count):
        # U_t, and U_{-t} unless the family is real (then it is conj(U_t)); no generator
        inst = instance(name, n=8)
        calls = []
        similarity = riesz.Family.similarity

        def counting(fam, g):
            calls.append(g)
            return similarity(fam, g)

        monkeypatch.setattr(riesz.Family, "similarity", counting)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        dynamics.evolve(ham, "phi", 0.7, random_observable(8, np.random.default_rng(1)))
        assert len(calls) == count
        assert ham.h is ham.h and len(calls) == count + 1

    @pytest.mark.parametrize(
        "name, count",
        # H0, H, H^dag once each, and evolve's phi pair at the three intertwining
        # times: one similarity per pair for the real shift_half family, two for
        # the complex exp_gen one.  The group law bound forms no propagator
        [("shift_half", 3 + 3 * 1), ("exp_gen", 3 + 3 * 2)],
        ids=["real", "complex"],
    )
    def test_check_dynamics_similarity_count(self, monkeypatch, name, count):
        inst = instance(name, n=32)
        assert riesz.family(inst.system, "phi").real == (name == "shift_half")
        calls = []
        similarity = riesz.Family.similarity

        def counting(fam, g):
            calls.append(g)
            return similarity(fam, g)

        monkeypatch.setattr(riesz.Family, "similarity", counting)
        suites.check_dynamics(inst, 0, ())
        assert len(calls) == count


class TestGenerators:
    def test_generator_is_the_stored_hamiltonian(self):
        inst = instance("shift_half", n=8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        for which, stored in (("f", ham.h0), ("phi", ham.h), ("psi", ham.h_dag)):
            assert dynamics.generator_of(ham, which) is stored

    def test_commuting_observable_gives_zero(self):
        inst = instance("diag_sqrt", n=16)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        for which in ("f", "phi", "psi"):
            g = dynamics.generator_of(ham, which)
            assert dynamics.generator_residuals(dynamics.spectral_evolution(ham, which, g), (1.0,))[0] <= 1e-10

    def test_linear_shrinkage(self, rng):
        inst = instance("shift_half", n=8)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        x = random_observable(8, rng)
        for which in ("f", "phi", "psi"):
            r1, r2 = dynamics.generator_residuals(
                dynamics.spectral_evolution(ham, which, x), (1e-3, 5e-4)
            )
            assert 0.4 <= r2 / r1 <= 0.6

    def test_scalar_phase_taylor_bound(self):
        ham = two_level_ham()
        steps = (1e-2, 1e-3, 1e-4)
        for t, r in zip(steps, dynamics.generator_residuals(dynamics.spectral_evolution(ham, "f", E01), steps)):
            assert r <= t * numerics.frobenius(E01)

    def test_rejects_nonpositive_step(self):
        ham = two_level_ham()
        with pytest.raises(ValueError):
            dynamics.generator_residuals(dynamics.spectral_evolution(ham, "f", E01), (1e-3, 0.0))


class TestSpectralData:
    def test_eigenvalue_equations(self):
        for name, n in (("jordan2", None), ("shift_half", 16), ("exp_gen", 12)):
            inst = instance(name, n=n)
            ham = dynamics.hamiltonian(inst.system, inst.spectrum)
            tol = dynamics.generator_tolerance(inst.system.cond_t, inst.spectrum.lambdas)
            assert dynamics.eigenvector_residual(ham) <= tol

    def test_real_spectrum(self):
        for name, n in (("jordan2", None), ("diag_sqrt", 32), ("exp_gen", 16)):
            inst = instance(name, n=n)
            ham = dynamics.hamiltonian(inst.system, inst.spectrum)
            tol = 1e-9 * inst.system.cond_t * inst.spectrum.lambdas[-1]
            assert dynamics.spectrum_residual(ham) <= tol

    def test_hdag_is_matrix_adjoint(self):
        inst = instance("exp_gen", n=12)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        defect = numerics.frobenius(ham.h_dag - ham.h.conj().T)
        assert defect <= 1e-12 * numerics.frobenius(ham.h)


EXACT_IN_BINARY = ("group_law", "spectral_reality", "eigenvector_residual")

#: the 12 dynamics and kms sub-checks that read exactly 0.0 on the default
#: verify (seed 0, the CLI's t grid) at N=16.  With T = I (oscillator),
#: T = I + L/2 and its dyadic inverse (shift_half) or a diagonal T
#: (diag_growth), these identities come out exact in floating point; the
#: group law's root D V - I is exact there at every N (diag_growth up to
#: N = 32).  Every other residual carries roundoff; one that newly reads 0.0
#: would hint at a check that lost one of its two routes.
ZERO_RESIDUALS = {
    "shift_half": {*EXACT_IN_BINARY, "dual_consistency"},
    "oscillator": {*EXACT_IN_BINARY, "dual_consistency"},
    "diag_growth": {*EXACT_IN_BINARY, "dual_consistency"},
    "diag_sqrt": set(),
    "exp_gen": set(),
}


@pytest.mark.parametrize("name", list(ZERO_RESIDUALS))
def test_exactly_the_known_residuals_read_zero(name):
    inst = models.instantiate(models.preset(name, n=16))
    zeros = {
        s.name
        for group in ("dynamics", "kms")
        for s in suites.CHECKS[group](inst, 0, cli.DEFAULT_T_GRID).subchecks
        if s.residual == 0.0
    }
    assert zeros == ZERO_RESIDUALS[name]


def _group_law(inst):
    return suites.check_dynamics(inst, 0, ()).subchecks[0]


def test_group_law_reads_nonzero_on_a_complex_family():
    assert _group_law(instance("exp_gen", n=16)).residual > 0.0


def test_root_defect_flips_the_exact_group_law(monkeypatch):
    inst = instance("shift_half", n=16)
    assert _group_law(inst).residual == 0.0
    assert not _group_law(root_defect(inst, monkeypatch)).passed


def _random_frame_instance(n):
    frame = models.random_unitary(n, np.random.default_rng(7))
    system = riesz.build_system(frame, models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, n))
    return models.ModelInstance(system, gibbs.Spectrum(lambdas=1.0 + np.arange(n), beta=1.0), {})


#: shift_half (E = 0 exactly), exp_gen (a complex family) and a random frame
#: (the frame family's own F^H F - I nonzero), each clean and under the root defect
BOUND_CASES = [
    pytest.param(make, planted, id=f"{name}-{'root' if planted else 'clean'}")
    for name, make in (
        ("shift_half8", lambda: instance("shift_half", n=8)),
        ("exp_gen16", lambda: instance("exp_gen", n=16)),
        ("random_frame16", lambda: _random_frame_instance(16)),
    )
    for planted in (False, True)
]


class TestGroupLawBound:
    @pytest.mark.parametrize("make, planted", BOUND_CASES)
    def test_dominates_the_dense_route(self, make, planted, monkeypatch):
        # the bound holds in exact arithmetic on the families' arrays; the dense
        # route adds its own rounding, gamma_N per product of norm <= kappa^4
        inst = root_defect(make(), monkeypatch) if planted else make()
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        bound = _group_law(inst).residual
        n = inst.system.dim
        rounding = 8 * n * np.finfo(float).eps * dynamics.group_law_bound(ham)[1] ** 4
        rng = np.random.default_rng(2)
        for _ in range(20):
            s, t = rng.uniform(-10.0, 10.0, 2)
            x = random_observable(n, rng)
            for which in ("f", "phi", "psi"):
                twice = dynamics.evolve(ham, which, s, dynamics.evolve(ham, which, t, x))
                gap = numerics.frobenius(twice - dynamics.evolve(ham, which, s + t, x))
                assert gap <= bound + rounding
        if planted:
            assert rounding < 1e-6 * bound

    @pytest.mark.parametrize("make, planted", BOUND_CASES)
    def test_kappa_bounds_every_family(self, make, planted, monkeypatch):
        inst = root_defect(make(), monkeypatch) if planted else make()
        kappa = dynamics.group_law_bound(dynamics.hamiltonian(inst.system, inst.spectrum))[1]
        for which in ("f", "phi", "psi"):
            fam = riesz.family(inst.system, which)
            assert kappa >= np.linalg.norm(fam.vectors, 2) * np.linalg.norm(fam.duals_h, 2)
