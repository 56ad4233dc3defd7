import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import instance
from rieszgibbs import dynamics, gibbs, kms, models, numerics, riesz, suites
from rieszgibbs.models import random_observable

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def strip(system, spectrum, x, y, kind="phi"):
    return kms.strip_function(gibbs.gibbs_state(system, spectrum, kind), x, y)


def two_level():
    sys_ = riesz.build_system(np.eye(2), np.eye(2))
    spec = gibbs.Spectrum(lambdas=np.array([1.0, 2.0]), beta=1.0)
    return sys_, spec


class TestComplexTimeConjugation:
    def test_real_z_matches_real_evolution(self, rng):
        # a complex time on the real axis is the real evolution, here taken
        # through the reference evolution: T alpha^0_t(T^-1 Y T) T^-1
        inst = instance("shift_half", n=8)
        sys_ = inst.system
        ham = dynamics.hamiltonian(sys_, inst.spectrum)
        y = random_observable(8, rng)
        t = 1.7
        real = sys_.t_op @ dynamics.evolve(ham, "f", t, sys_.t_inv @ y @ sys_.t_op) @ sys_.t_inv
        assert numerics.frobenius(dynamics.evolve(ham, "phi", complex(t, 0.0), y) - real) <= 1e-12


class TestStripFunction:
    def test_z_zero_is_product_state(self, rng, jordan2):
        x, y = random_observable(2, rng), random_observable(2, rng)
        state = gibbs.gibbs_state(jordan2.system, jordan2.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        f0 = kms.strip_values(sf, [0.0])[0]
        assert f0 == pytest.approx(gibbs.omega_sum(state, x @ y), abs=1e-14)

    def test_identity_t_reduces_to_reference_two_point(self, rng):
        sys_, spec = two_level()
        x, y = random_observable(2, rng), random_observable(2, rng)
        sf = strip(sys_, spec, x, y)
        ham = dynamics.hamiltonian(sys_, spec)
        boltz = riesz.family(sys_, "f").similarity(spec.weights())
        z0 = np.sum(spec.weights())
        for t in (0.0, 0.8, -2.5):
            direct = np.trace(x @ dynamics.evolve(ham, "f", t, y) @ boltz) / z0
            assert kms.strip_values(sf, [t])[0] == pytest.approx(complex(direct), abs=1e-14)

    def test_rejects_unknown_kind(self, jordan2):
        with pytest.raises(ValueError):
            strip(jordan2.system, jordan2.spectrum, np.eye(2), np.eye(2), kind="chi")


def dense_strip_chain(system, spectrum, x, y, kind, z):
    """Reference: tr(A e^{izH0} B e^{i(i beta - z)H0}) / Z with A = C^H X C, B = C^{-1} Y C."""
    if kind == "phi":
        c, c_inv = system.t_op, system.t_inv
    else:
        c, c_inv = system.t_inv.conj().T, system.t_op.conj().T
    frame, lam = system.frame, spectrum.lambdas
    # Z = sum_n e^{-beta lambda_n} ||C f_n||^2 over the family columns C F
    partition = np.sum(spectrum.weights() * np.linalg.norm(c @ frame, axis=0) ** 2)

    def h0_exp(w):
        return (frame * np.exp(1j * w * lam)) @ frame.conj().T

    chain = c.conj().T @ x @ c @ h0_exp(z) @ c_inv @ y @ c @ h0_exp(1j * spectrum.beta - z)
    return np.trace(chain) / partition


def framed_shift_system(n, rng):
    """shift_half's constructing operator on a random unitary frame (F != I)."""
    frame = models.random_unitary(n, rng)
    assert numerics.frobenius(frame - np.eye(n)) > 1.0
    t_op = models.build_t({"rule": "shift_perturbed", "epsilon": 0.5}, n)
    spectrum = gibbs.Spectrum(lambdas=1.0 + np.arange(n), beta=1.0)
    return riesz.build_system(frame, t_op), spectrum


class TestSpectralKernel:
    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_dense_chain(self, rng, n, kind):
        system, spectrum = framed_shift_system(n, rng)
        x, y = random_observable(n, rng), random_observable(n, rng)
        sf = strip(system, spectrum, x, y, kind=kind)
        beta = spectrum.beta
        zs = [t + 1j * s for t in np.linspace(-10.0, 10.0, 7) for s in (0.0, 0.5 * beta, beta)]
        values = kms.strip_values(sf, zs)
        oracle = np.array([dense_strip_chain(system, spectrum, x, y, kind, z) for z in zs])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(values - oracle)) <= 1e-13 * scale
        assert abs(kms.strip_values(sf, [zs[4]])[0] - oracle[4]) <= 1e-13 * scale

    def test_boundaries_on_random_frame(self, rng):
        system, spectrum = framed_shift_system(16, rng)
        x, y = random_observable(16, rng), random_observable(16, rng)
        tol = kms.kms_tolerance(system.cond_t, 16)
        for kind in ("f", "phi", "psi"):
            sf = strip(system, spectrum, x, y, kind=kind)
            assert max(kms.verify_kms_like(sf, [-6.0, 0.0, 0.7, 3.0])) <= tol

    def test_warns_once_outside_strip(self, jordan2):
        sf = strip(jordan2.system, jordan2.spectrum, E01, E01.T)
        beta = jordan2.spectrum.beta
        with pytest.warns(UserWarning, match="strip") as record:
            kms.strip_values(sf, [0.3, -0.5j, 2.0 + 3j * beta])
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kms.strip_values(sf, [0.3, 0.5j * beta, -1.0 + 1j * beta])


class TestBoundaryIdentities:
    def test_identity_t_textbook_reduction(self, rng):
        # untwisted form f(t + i beta) = omega(alpha_t(Y) X) holds for T = I
        inst = instance("oscillator", n=16)
        x, y = random_observable(16, rng), random_observable(16, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        for t in (0.0, 0.5, 1.0, -4.0):
            lhs = kms.strip_values(sf, [t + 1j * inst.spectrum.beta])[0]
            rhs = gibbs.omega_trace(state, dynamics.evolve(ham, "f", t, y) @ x)
            assert abs(lhs - rhs) <= 1e-12

    def test_untwisted_shifted_boundary_fails(self, rng):
        # TT^H != I: the textbook pairing omega(alpha_t(Y) X) misses f(t + i beta)
        inst = instance("shift_half", n=16)
        twist = inst.system.t_op @ inst.system.t_op.conj().T
        assert numerics.frobenius(twist - np.eye(16)) > 1.0
        x, y = random_observable(16, rng), random_observable(16, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        tol = kms.kms_tolerance(inst.system.cond_t, 16)
        ts = [0.0, 0.7, -3.0]
        shifted = kms.strip_values(sf, [t + 1j * inst.spectrum.beta for t in ts])
        untwisted = max(
            abs(f - gibbs.omega_trace(state, dynamics.evolve(ham, "phi", t, y) @ x))
            for t, f in zip(ts, shifted)
        )
        assert untwisted > tol
        assert kms.verify_kms_like(sf, ts).max_shifted <= tol

    def test_jordan2_grid(self, jordan2):
        x = np.diag([1.0, 0.0]).astype(complex)
        sf = strip(jordan2.system, jordan2.spectrum, x, x)
        res = kms.verify_kms_like(sf, [0.0, 0.5, 1.0])
        assert res.max_real <= 1e-12 and res.max_shifted <= 1e-12

    def test_randomized_grid(self, rng):
        inst = instance("exp_gen", n=16)
        x, y = random_observable(16, rng), random_observable(16, rng)
        sf = strip(inst.system, inst.spectrum, x, y)
        res = kms.verify_kms_like(sf, np.linspace(-10, 10, 20))
        assert max(res) <= 1e-10

    def test_psi_mirror(self, rng):
        inst = instance("shift_half", n=12)
        x, y = random_observable(12, rng), random_observable(12, rng)
        sf = strip(inst.system, inst.spectrum, x, y, kind="psi")
        res = kms.verify_kms_like(sf, [0.0, 0.7, 3.0, -6.0])
        assert max(res) <= kms.kms_tolerance(inst.system.cond_t, 12)

    def test_psi_equals_dual_phi(self, rng, jordan2):
        x, y = random_observable(2, rng), random_observable(2, rng)
        sys_, spec = jordan2.system, jordan2.spectrum
        sf_psi = strip(sys_, spec, x, y, kind="psi")
        sf_dual = strip(riesz.dual_system(sys_), spec, x, y)
        res = kms.dual_strip_residual(sf_psi, sf_dual, [0.0, 0.5, 1.0])
        assert res <= 1e-12

    def test_degenerate_twist_for_diagonal_t(self, rng):
        # TT^H commutes with e^{-beta H}: the twist migrates onto the static
        # observable, and drops entirely once X commutes with TT^H as well
        inst = instance("diag_sqrt", n=8)
        x, y = random_observable(8, rng), random_observable(8, rng)
        state = gibbs.gibbs_state(inst.system, inst.spectrum, "phi")
        sf = kms.strip_function(state, x, y)
        ham = dynamics.hamiltonian(inst.system, inst.spectrum)
        twist = inst.system.t_op @ inst.system.t_op.conj().T
        migrated = twist @ x @ np.linalg.inv(twist)
        tol = kms.kms_tolerance(inst.system.cond_t, 8)
        for t in (0.0, 1.3):
            lhs = kms.strip_values(sf, [t + 1j * inst.spectrum.beta])[0]
            rhs = gibbs.omega_trace(state, dynamics.evolve(ham, "phi", t, y) @ migrated)
            assert abs(lhs - rhs) <= tol
        x_diag = np.diag(rng.standard_normal(8)).astype(complex)
        sf_diag = kms.strip_function(state, x_diag, y)
        for t in (0.0, 1.3):
            lhs = kms.strip_values(sf_diag, [t + 1j * inst.spectrum.beta])[0]
            rhs = gibbs.omega_trace(state, dynamics.evolve(ham, "phi", t, y) @ x_diag)
            assert abs(lhs - rhs) <= tol


class TestDensityIdentity:
    def test_against_trace_form(self, rng):
        for name, n in (("jordan2", None), ("shift_half", 16), ("exp_gen", 12)):
            inst = instance(name, n=n)
            dim = inst.system.dim
            for kind in ("f", "phi", "psi"):
                state = gibbs.gibbs_state(inst.system, inst.spectrum, kind)
                # omega(X) = tr(e^{-beta H} M X)/Z with the cached e^{-beta H} and M
                density = state.boltzmann @ state.twist / state.partition
                for x in (random_observable(dim, rng) for _ in range(5)):
                    assert abs(np.trace(density @ x) - gibbs.omega_sum(state, x)) <= 1e-11


def test_trace_cyclicity_along_regrouping(rng, jordan2):
    # every regrouping step of the shifted-boundary derivation is a cyclic trace move
    sys_, spec = jordan2.system, jordan2.spectrum
    boltz = riesz.family(sys_, "f").similarity(spec.weights())
    x = random_observable(2, rng)
    t_h = sys_.t_op.conj().T
    factors = [
        (t_h @ x @ sys_.t_op, boltz),
        (sys_.t_op @ boltz, t_h @ x),
        (boltz @ t_h, x @ sys_.t_op),
    ]
    values = [np.trace(a @ b) for a, b in factors]
    cyclic = [np.trace(b @ a) for a, b in factors]
    for v, c in zip(values, cyclic):
        assert v == pytest.approx(values[0], abs=1e-14)
        assert c == pytest.approx(v, abs=1e-14)


def test_verification_rows_structure(jordan2):
    x = np.diag([1.0, 0.0]).astype(complex)
    sf = strip(jordan2.system, jordan2.spectrum, x, x)
    (rows,) = kms.verification_rows(sf, [0.0, 1.0])
    assert len(rows) == 2 and rows[0].t == 0.0
    assert all(r.res_real_boundary <= 1e-12 for r in rows)
    assert kms.KMS_COLUMNS == ("t", "f_real", "f_imag", "res_real_boundary", "res_shifted_boundary")


def fresh_oracle_rows(sf, t_grid):
    """Per-t dense reference: U_t and U_{-t} of the strip function's own family
    built fresh at every grid point, alpha_t(Y) = U_t Y U_{-t}, and both boundary
    residuals as tr(K E) = (E | K^H), one dot against each trace factor's adjoint."""
    state = sf.state
    lam, partition = state.spectrum.lambdas, state.partition
    c_op, cf, cf_inv = state.family
    boltz_c = cf * state.weights
    k_real = (boltz_c @ cf.conj().T) @ sf.x
    k_shift = (c_op @ c_op.conj().T) @ sf.x @ (boltz_c @ cf_inv)
    k_real_h = np.ascontiguousarray(k_real.conj().T)
    k_shift_h = np.ascontiguousarray(k_shift.conj().T)
    ts = np.asarray(t_grid, dtype=float)
    values = kms.strip_values(sf, np.concatenate([ts, ts + 1j * sf.beta]))
    rows = []
    for t, f_real, f_shift in zip(ts.tolist(), values[: ts.size], values[ts.size :]):
        u_fwd = (cf * np.exp(1j * t * lam)) @ cf_inv
        u_bwd = (cf * np.exp(1j * -t * lam)) @ cf_inv
        evolved = u_fwd @ sf.y @ u_bwd
        rhs_real = complex(np.vdot(k_real_h, evolved)) / partition
        rhs_shift = complex(np.vdot(k_shift_h, evolved)) / partition
        rows.append(
            (t, float(f_real.real), float(f_real.imag),
             float(abs(f_real - rhs_real)), float(abs(f_shift - rhs_shift)))
        )
    return rows


DEFAULT_GRID = tuple(np.linspace(-10.0, 10.0, 41).tolist())

#: the adjoint family's rows read alpha'_t(Y') = alpha_t(Y'^H)^H, whose products
#: group differently from its own propagators': about 1e-15 of the row scale is
#: seen on these grids, against a KMS tolerance of 1e-10 cond(T)^2 N
ADJOINT_ROUNDOFF = 1e-13


class TestDenseOracle:
    """``verification_rows`` forms one propagator pair per mirror pair t, -t and
    serves the adjoint family's rows from it; every row must match the per-t
    dense reference of its own family."""

    GRIDS = {
        "default_symmetric": DEFAULT_GRID,
        "asymmetric": (-3.0, 0.7, 2.5, 9.0, -0.25),
        "repeated": (1.5, -1.5, 1.5, 0.2, -1.5),
        "signed_zeros": (0.0, -0.0, 2.0, -2.0),
        "single_point": (2.5,),
    }

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
    def test_matches_fresh_per_t_reference(self, rng, kind, grid):
        system, spectrum = framed_shift_system(16, rng)
        x, y = random_observable(16, rng), random_observable(16, rng)
        sf = strip(system, spectrum, x, y, kind=kind)
        # the adjoint family's strip function has observables of its own
        x_adj, y_adj = random_observable(16, rng), random_observable(16, rng)
        sf_adj = strip(system, spectrum, x_adj, y_adj, kind={"phi": "psi", "psi": "phi"}[kind])
        t_grid = self.GRIDS[grid]
        (alone,) = kms.verification_rows(sf, t_grid)
        rows, rows_adj = kms.verification_rows(sf, t_grid, sf_adj)
        # the propagators' own family: bit for bit, alone or paired
        assert [tuple(r) for r in alone] == [tuple(r) for r in rows] == fresh_oracle_rows(sf, t_grid)
        fresh_adj = fresh_oracle_rows(sf_adj, t_grid)
        bound = ADJOINT_ROUNDOFF * max(abs(complex(r[1], r[2])) for r in fresh_adj)
        for row, ref in zip(rows_adj, fresh_adj):
            assert tuple(row[:3]) == ref[:3]
            assert abs(row.res_real_boundary - ref[3]) <= bound
            assert abs(row.res_shifted_boundary - ref[4]) <= bound
        # a signed zero keeps its sign in the t column
        for out in (rows, rows_adj):
            assert [np.signbit(r.t) for r in out] == [np.signbit(t) for t in t_grid]

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
    def test_rows_do_not_depend_on_the_block_size(self, rng, monkeypatch, block, grid):
        # N = 16 makes blocks of 16 distinct |t|; 1, 3 and 64 split the grids
        # otherwise, with blocks of mirrored and unmirrored points mixed
        system, spectrum = framed_shift_system(16, rng)
        x, y, x_adj, y_adj = (random_observable(16, rng) for _ in range(4))
        sf = strip(system, spectrum, x, y)
        sf_adj = strip(system, spectrum, x_adj, y_adj, kind="psi")
        t_grid = self.GRIDS[grid]
        default = kms.verification_rows(sf, t_grid, sf_adj)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block * 16 * 16 * 16)
        assert numerics.block_size(16) == block
        assert kms.verification_rows(sf, t_grid, sf_adj) == default
        (rows,) = kms.verification_rows(sf, t_grid)
        assert [tuple(r) for r in rows] == fresh_oracle_rows(sf, t_grid)

    def test_mirror_pair_forms_its_propagators_once(self, rng, monkeypatch):
        system, spectrum = framed_shift_system(8, rng)
        x, y = random_observable(8, rng), random_observable(8, rng)
        sf, sf_psi = (strip(system, spectrum, x, y, kind=k) for k in ("phi", "psi"))
        for s in (sf, sf_psi):
            s.state.boltzmann  # K_shift's e^{-beta H}, formed before the count starts
        phases = []
        similarity = riesz.Family.similarity

        def counting(fam, g):
            # one propagator per row of a (m, N) block of phases
            phases.extend(np.atleast_2d(g))
            return similarity(fam, g)

        monkeypatch.setattr(riesz.Family, "similarity", counting)
        kms.verification_rows(sf, DEFAULT_GRID, sf_psi)
        # U_t and U_{-t} for 20 mirror pairs and t = 0 serve the rows of both states
        assert len(phases) == 42
        phases.clear()
        kms.verification_rows(sf, (-2.0, 0.5, 2.0, -0.5, 2.0, 0.0, -0.0))
        # lambda_0 = 1, so each propagator's phase e^{+-i t lambda_0} names |t|
        assert len(phases) == 6
        formed = sorted(abs(np.angle(g[0])) for g in phases)
        assert formed == pytest.approx([0.0, 0.0, 0.5, 0.5, 2.0, 2.0], abs=1e-15)

    def test_partner_must_be_the_adjoint_family(self, rng):
        system, spectrum = framed_shift_system(8, rng)
        x, y = random_observable(8, rng), random_observable(8, rng)
        sf_phi, sf_psi, sf_f = (strip(system, spectrum, x, y, kind=k) for k in ("phi", "psi", "f"))
        shifted = gibbs.Spectrum(lambdas=spectrum.lambdas + 1.0, beta=spectrum.beta)
        # T is not unitary, so phi is not its own adjoint; f is not phi's either,
        # and the psi family over other energies has other propagators
        for partner in (sf_phi, sf_f, strip(system, shifted, x, y, kind="psi")):
            with pytest.raises(ValueError, match="adjoint family"):
                kms.verification_rows(sf_phi, (0.0, 1.0), partner)
        with pytest.raises(ValueError, match="adjoint family"):
            kms.verification_rows(sf_f, (0.0, 1.0), sf_psi)
        # the frame family is its own adjoint, and phi and psi are each other's
        assert len(kms.verification_rows(sf_f, (0.0, 1.0), sf_f)) == 2
        assert len(kms.verification_rows(sf_psi, (0.0, 1.0), sf_phi)) == 2


@pytest.mark.parametrize(
    "name, count",
    # one propagator pair for each of the 21 mirror pairs of the 41-point grid,
    # shared by both states, plus e^{-beta H} of each state; a real family
    # (shift_half) forms U_{-t} as conj(U_t), a complex one (exp_gen's phi
    # family) forms both; neither has a degenerate twist
    [("shift_half", 21 + 2), ("exp_gen", 2 * 21 + 2)],
    ids=["real", "complex"],
)
def test_check_kms_similarity_count(name, count):
    inst = instance(name, n=32)
    assert riesz.family(inst.system, "phi").real == (name == "shift_half")
    calls = []
    similarity = riesz.Family.similarity

    def counting(fam, g):
        calls.extend(np.atleast_2d(g))
        return similarity(fam, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riesz.Family, "similarity", counting)
        suites.check_kms(inst, 0, DEFAULT_GRID)
    assert len(calls) == count


def phase_diagonal_instance(n):
    """diag_sqrt with T = diag(sqrt(n+1) e^{i theta_n}): a complex family whose
    twist TT* = diag(n+1) commutes with e^{-beta H} = e^{-beta H0}."""
    spec = models.preset("diag_sqrt", n=n)
    d = np.sqrt(np.arange(1.0, n + 1.0)) * np.exp(1j * np.linspace(0.3, 2.0, n))
    return models.instantiate(replace(spec, t_rule={"rule": "explicit", "values": np.diag(d)}))


@pytest.mark.parametrize(
    "make, count",
    # the grid's t = 0 and its one mirror pair, e^{-beta H} of both states and
    # U_{+-t} at the 3 probe times: one similarity per pair for the real
    # diag_sqrt family, two for the complex phase-diagonal one
    [
        (lambda: instance("diag_sqrt", n=8), 2 + 2 + 3),
        (lambda: phase_diagonal_instance(8), 4 + 2 + 6),
    ],
    ids=["real", "complex"],
)
def test_degenerate_twist_probe_forms_only_propagators(monkeypatch, make, count):
    # the probe evolves Y with the phi propagators and forms no generator
    inst = make()
    lam = inst.spectrum.lambdas
    calls = []
    similarity = riesz.Family.similarity

    def counting(fam, g):
        calls.extend(np.atleast_2d(g))
        return similarity(fam, g)

    monkeypatch.setattr(riesz.Family, "similarity", counting)
    result = suites.check_kms(inst, 0, (0.0, 1.5, -1.5))
    assert "degenerate_twist" in [s.name for s in result.subchecks]
    assert not any(np.array_equal(g, lam) for g in calls)
    assert len(calls) == count


def test_check_kms_forms_the_phi_boltzmann_operator_once(monkeypatch):
    # the phi K_shift factor and the degenerate-twist probe both read
    # e^{-beta H} from the phi state's cache
    inst = instance("diag_sqrt", n=8)
    phi = riesz.family(inst.system, "phi")
    weights = inst.spectrum.weights()
    formed = []
    similarity = riesz.Family.similarity

    def counting(fam, g):
        if fam is phi and np.array_equal(g, weights):
            formed.append(g)
        return similarity(fam, g)

    monkeypatch.setattr(riesz.Family, "similarity", counting)
    result = suites.check_kms(inst, 0, (0.0, 1.5, -1.5))
    assert "degenerate_twist" in [s.name for s in result.subchecks]
    assert len(formed) == 1


def test_kms_peak_memory_does_not_grow_with_the_grid():
    # one propagator pair is live at a time: quadrupling the grid may grow the
    # traced peak of one check_kms by the strip grid's O(M N) phase arrays and
    # a few N x N arrays, never by a propagator per grid point (2 N^2 each)
    inst = instance("shift_half", n=64)
    n_squared_array = 64 * 64 * 16

    def traced_peak(points):
        grid = tuple(np.linspace(-10.0, 10.0, points).tolist())
        tracemalloc.start()
        try:
            suites.check_kms(inst, 0, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(161) - traced_peak(41)
    assert growth <= 8 * n_squared_array
