"""Invariant suites behind the ``verify`` command.

Each check group bundles the identities one module certifies into named
sub-checks, every sub-check carrying its own residual and tolerance.  The
group's reported row is its *binding* sub-check (largest residual/tolerance
ratio), so a report line always shows a concrete residual against the
tolerance that constrains it.

All randomness is drawn from generators seeded by (run seed, group index),
making each group's result independent of which other groups run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dynamics as dyn
from . import entropy as ent
from . import gibbs as gb
from . import kms as km
from . import modular as md
from . import models
from . import numerics
from . import riesz
from .models import ModelInstance

#: observables drawn per randomized sub-check
N_OBSERVABLES = 12


@dataclass(frozen=True)
class SubCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class GroupResult:
    check: str
    max_residual: float
    tolerance: float
    subchecks: tuple[SubCheck, ...]
    #: per-grid-point rows the group certified, keyed by state family (kms only)
    rows: Mapping[str, list[km.KmsRow]]

    @property
    def passed(self) -> bool:
        """The suite's own verdict: every sub-check within its tolerance."""
        return all(s.passed for s in self.subchecks)


def _group_rng(seed: int, group: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, list(CHECKS).index(group)]))
    )


def _finish(
    check: str, subs: list[SubCheck], rows: Mapping[str, list[km.KmsRow]] | None = None
) -> GroupResult:
    # a NaN residual or a zero tolerance binds: neither can be certified
    binding = max(subs, key=lambda s: s.residual / s.tolerance if s.tolerance > 0 else np.inf)
    binding = next((s for s in subs if np.isnan(s.residual)), binding)
    return GroupResult(
        check=check,
        max_residual=binding.residual,
        tolerance=binding.tolerance,
        subchecks=tuple(subs),
        rows=rows or {},
    )


def check_biorthogonality(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """phi_n = T f_n and psi_n = (T^-1)* f_n form a biorthogonal pair:
    (phi_n | psi_m) = delta_nm, with F unitary and cond(T) capped."""
    system = inst.system
    n = system.dim
    bio_tol = riesz.biorthogonality_tolerance(system.cond_t)
    frame_defect = numerics.frobenius(
        numerics.dagger(system.frame) @ system.frame - np.eye(n)
    )
    natural = riesz.check_naturalness(system, system.psi)
    dual = riesz.dual_system(system)
    swap = max(
        float(np.max(np.abs(dual.phi - system.psi))),
        float(np.max(np.abs(dual.psi - system.phi))),
    )
    subs = [
        SubCheck("pair_deviation", system.pair_deviation, bio_tol),
        SubCheck("frame_unitarity", frame_defect, riesz.FRAME_TOL * n),
        SubCheck("naturalness", natural.max_deviation, bio_tol),
        SubCheck("dual_family_swap", swap, bio_tol),
    ]
    return _finish("biorthogonality", subs)


def check_gibbs(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """dual representation of the deformed thermal functional:
    (1/Z_phi) tr(T* X T e^{-beta H0})
    = (1/Z_phi) tr((T e^{-beta H0/2})* X (T e^{-beta H0/2}));
    plus omega_phi(X) = (Z0/Z_phi) omega_f(T* X T), omega(X*) = conj(omega(X)),
    omega_phi = the psi state of the dual system, unitality, and faithfulness
    of the density T e^{-beta H0} T*/Z_phi.  Each identity is linear in X, so
    it is one comparison of the two routes' densities: the residual
    ||rho_1 - rho_2||_F is the largest |omega_1(X) - omega_2(X)| over every
    X with ||X||_F <= 1, and no observable is drawn."""
    system, spectrum = inst.system, inst.spectrum
    n = system.dim
    tol = gb.state_tolerance(system.cond_t, n)
    states = {k: gb.gibbs_state(system, spectrum, k) for k in ("f", "phi", "psi")}
    # psi state of the dual system: its columns come from a fresh inversion of (T^-1)^H
    dual_psi = gb.gibbs_state(riesz.dual_system(system), spectrum, "psi")
    # every density is compared as its adjoint: rho^H, and sigma = sigma^H
    rho_h = {k: s.trace_density_h for k, s in states.items()}
    # omega_f(T* X T) = tr(T rho_f T* X)
    t_op = states["phi"].family.c_op
    pulled = numerics.matmul(t_op, rho_h["f"], numerics.dagger(t_op))
    z_ratio = states["f"].partition / states["phi"].partition

    r_orderings = max(numerics.frobenius(rho_h[k] - s.sandwich_density) for k, s in states.items())
    r_ratio = numerics.frobenius(z_ratio * pulled - rho_h["phi"])
    r_herm = max(numerics.frobenius(r - numerics.dagger(r)) for r in rho_h.values())
    r_dual = numerics.frobenius(rho_h["phi"] - dual_psi.trace_density_h)
    r_unital = max(abs(numerics.trace(r) - 1.0) for r in rho_h.values())

    witness = gb.faithfulness_witness(states["phi"])
    sigma_min = system.sigma_min_t
    lower = np.exp(-spectrum.beta * spectrum.lambdas[-1]) * sigma_min**2 / states["phi"].partition
    # a bound below the normal range cannot be certified: a full shortfall
    normal = lower >= np.finfo(float).tiny
    faith_short = max(0.0, 0.9 * lower - witness.min_eigenvalue) / lower if normal else 1.0

    subs = [
        SubCheck("trace_orderings", r_orderings, tol),
        SubCheck("ratio_identity", r_ratio, tol),
        SubCheck("unitality", r_unital, 1e-13),
        SubCheck("hermiticity", r_herm, tol),
        SubCheck("faithfulness_margin", faith_short, 1e-12),
        SubCheck("psi_duality", r_dual, tol),
    ]
    return _finish("gibbs", subs)


def check_dynamics(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """similarity propagators U_t = V e^{it Lambda} D, with V = C F,
    D = F* C^-1 and C = I, T or (T*)^-1 for e^{itH0}, e^{itH} and e^{itH*}.
    group_law: alpha_s(alpha_t(X)) = alpha_{s+t}(X) for every real s, t,
    every evolution and every X with ||X||_F <= 1, as the bound
    kappa^2 e (2 + e) from U_s U_t - U_{s+t} = V e^{is Lambda} E e^{it Lambda} D,
    with e = max ||E||_F over the families' roots E = D V - I and
    kappa >= ||V||_2 ||D||_2; intertwining: alpha^phi_t(X) T =
    T alpha^0_t(T^-1 X T); generator_halving: (alpha_t(X) - X)/t - i[G, X]
    halves with t for G = H0, H, H*; commuting_generator: alpha_t(G) = G;
    norm_continuity at t = 1e-8; spectral_reality: the eigenvalues of
    H = T H0 T^-1 are the real lambda_n; eigenvector_residual:
    H phi_n = lambda_n phi_n and H* psi_n = lambda_n psi_n."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "dynamics")
    n = system.dim
    cond_t = system.cond_t
    lam_max = float(spectrum.lambdas[-1])
    ham = dyn.hamiltonian(system, spectrum)
    x = models.random_observable(n, rng)

    # the eigenbasis side (spectral_evolution, X~ formed once per family and
    # observable) against the dense similarity side (evolve)
    spectral = {which: dyn.spectral_evolution(ham, which, x) for which in ("f", "phi", "psi")}
    pulled = dyn.spectral_evolution(ham, "f", numerics.matmul(system.t_inv, x, system.t_op))
    r_inter = 0.0
    for t in (0.9, 5.5, -7.5):
        dense = dyn.evolve(ham, "phi", t, x)
        defect = numerics.matmul(dense, system.t_op) - numerics.matmul(system.t_op, pulled(t))
        r_inter = max(r_inter, numerics.frobenius(defect))

    r_halving = 0.0
    for alpha in spectral.values():
        r1, r2 = dyn.generator_residuals(alpha, (1e-3, 5e-4))
        r_halving = max(r_halving, abs(r2 / r1 - 0.5))
    r_commuting = max(
        dyn.generator_residuals(
            dyn.spectral_evolution(ham, which, dyn.generator_of(ham, which)), (1.0,)
        )[0]
        for which in ("f", "phi", "psi")
    )
    t_cont = 1e-8
    r_continuity = max(numerics.frobenius(alpha(t_cont) - x) for alpha in spectral.values())
    cont_tol = 4.0 * t_cont * lam_max * max(cond_t, 1.0) ** 2 + 1e-12

    subs = [
        SubCheck("group_law", dyn.group_law_bound(ham)[0], 1e-11 * cond_t**2),
        SubCheck("intertwining", r_inter, 1e-11 * cond_t**2),
        SubCheck("generator_halving", r_halving, 0.1),
        SubCheck("commuting_generator", r_commuting, 1e-10),
        SubCheck("norm_continuity", r_continuity, cont_tol),
        SubCheck("spectral_reality", dyn.spectrum_residual(ham), 1e-9 * cond_t * lam_max),
        SubCheck(
            "eigenvector_residual",
            dyn.eigenvector_residual(ham),
            dyn.generator_tolerance(cond_t, spectrum.lambdas),
        ),
    ]
    return _finish("dynamics", subs)


def check_entropy(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """entropy equality: -sum_n psi_n* (rho log rho) phi_n =
    -tr(rho0 log rho0) for rho = T rho0 T^-1, log rho = T log(rho0) T^-1,
    rho0 = e^{-beta H0}/Z0, and against beta sum_n lambda_n p_n + log Z0 with
    p = e^{-beta lambda}/Z0, a closed form from the weights alone."""
    system, spectrum = inst.system, inst.spectrum
    cond_t = system.cond_t
    pair = ent.build_density(system, spectrum, normalize=True)
    s_std = ent.entropy_standard(pair)
    s_gen = ent.entropy_generalized(pair)
    # complex128 input for every family, so one LAPACK solver of each kind serves all
    eig_rho = np.sort(np.linalg.eigvals(pair.rho.astype(complex)).real)
    eig_rho0 = np.sort(np.linalg.eigvalsh(pair.rho0.astype(complex)))
    w = spectrum.weights()
    s_closed = spectrum.beta * np.dot(spectrum.lambdas, w) / np.sum(w) + np.log(np.sum(w))
    s_tol = 1e-10 * max(cond_t, 1.0)
    subs = [
        SubCheck("entropy_equality", abs(s_gen - s_std), s_tol),
        SubCheck("closed_form", abs(s_gen - s_closed), s_tol),
        SubCheck("normalization", abs(numerics.trace(pair.rho0) - 1.0), 1e-13),
        SubCheck(
            "similarity",
            float(np.max(np.abs(eig_rho - eig_rho0))),
            1e-11 * max(cond_t, 1.0),
        ),
    ]
    # power-series diagnostic, only inside its convergence domain
    rate = 1.0 - np.exp(-spectrum.beta * spectrum.lambdas[-1])
    if rate < 1.0:
        terms = int(np.ceil(np.log(1e-13) / np.log(rate))) if rate > 0.0 else 1
        if terms <= 400:
            raw = ent.build_density(system, spectrum, normalize=False)
            series = ent.matrix_log_series(raw.rho, terms)
            subs.append(
                SubCheck(
                    "log_series",
                    numerics.frobenius(series - raw.log_rho),
                    1e-10 * max(cond_t, 1.0) ** 2,
                )
            )
    return _finish("entropy", subs)


def check_kms(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """strip function f_XY(z) = (1/Z_phi) tr(T* X alpha^phi_z(Y) T e^{-beta H0})
    matches omega_phi(X alpha^phi_t(Y)) on the real boundary and
    omega_phi((TT*)^-1 alpha^phi_t(Y) TT* X) on the shifted boundary
    (psi version twists with TT* inverted); the psi strip function agrees
    with the phi one of the dual system; when TT* commutes with e^{-beta H}
    the twist migrates onto X.  f is a finite exponential sum, entire by
    construction, so only its boundary values are certified."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "kms")
    n = system.dim
    tol = km.kms_tolerance(system.cond_t, n)
    x = models.random_observable(n, rng)
    y = models.random_observable(n, rng)
    state_phi = gb.gibbs_state(system, spectrum, "phi")
    sf_phi = km.strip_function(state_phi, x, y)
    sf_psi = km.strip_function(gb.gibbs_state(system, spectrum, "psi"), x, y)
    # the psi state's family is the adjoint of the phi state's: one propagator
    # pair per grid point and its mirror serves the rows of both
    rows = dict(zip(("phi", "psi"), km.verification_rows(sf_phi, t_grid, sf_psi)))

    # phi state of the dual system: its columns come from a fresh inversion of (T^-1)^H
    state_dual = gb.gibbs_state(riesz.dual_system(system), spectrum, "phi")
    r_dual = km.dual_strip_residual(
        sf_psi, km.strip_function(state_dual, x, y), (0.0, 0.9, -3.0)
    )

    subs = [
        SubCheck("phi_boundaries", max(km.boundary_residuals(rows["phi"])), tol),
        SubCheck("psi_boundaries", max(km.boundary_residuals(rows["psi"])), tol),
        SubCheck("dual_consistency", r_dual, 1e-12 * max(1.0, system.cond_t**2)),
    ]
    # degenerate twist: when TT^H commutes with e^{-beta H} the shifted-boundary
    # twist migrates onto the static observable, f(t+i beta) = omega(alpha_t(Y) M X M^-1)
    twist, exp_bh = state_phi.twist, state_phi.boltzmann
    if numerics.frobenius(twist @ exp_bh - exp_bh @ twist) < 1e-12 * numerics.frobenius(exp_bh):
        ham = dyn.hamiltonian(system, spectrum)
        migrated = numerics.matmul(twist, x, numerics.inverse(twist)[0])
        ts = (0.0, 0.9, 4.2)
        shifted = km.strip_values(sf_phi, [t + 1j * spectrum.beta for t in ts])
        r_degenerate = max(
            abs(f - gb.omega_trace(state_phi, dyn.evolve(ham, "phi", t, y) @ migrated))
            for t, f in zip(ts, shifted)
        )
        subs.append(SubCheck("degenerate_twist", r_degenerate, tol))
    return _finish("kms", subs, rows)


def check_modular(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """Modular data of Omega_phi = |(T e^{-beta H0/2})*|/sqrt(Z_phi) = sigma^{1/2}
    in its one eigenbasis U, where every power of Omega and every flow unitary
    is U diag(w^a) U*.  Residuals linear or bilinear in X cover every X (and Y)
    with ||X||_F <= 1: omega_phi(X) = (X Omega | Omega) exactly, as
    ||Omega Omega* - rho_phi||_F (at X = 1, Omega's unit HS norm); the bound
    ||Omega||_F ||Omega Omega^-1 - 1||_F + ||Omega - Omega*||_F on
    J Delta^{1/2}(X Omega) = X* Omega; and on the modular KMS condition along
    sigma_t(X) = u X u*, u = Omega^{2it}, the bound ||A - sigma u||_F ||B||_2
    + ||sigma||_2 ||B - u*||_F per grid point, A and B the half-chain powers of
    its two-point function.  (Delta X | X), quadratic in X, is sampled on 12 X
    against sum_jk (w_j/w_k)^2 |X~_jk|^2; at N <= 6 Delta's spectrum is
    {(w_j/w_k)^2}; for [T, H0] = 0 the evolution is a twisted modular flow."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "modular")
    n = system.dim
    state = gb.gibbs_state(system, spectrum, "phi")
    data = md.modular_data(state)
    blocks = list(models.observable_blocks(n, N_OBSERVABLES, rng))

    r_pos = 0.0
    for x in blocks:
        form = md.delta_form(data, x)
        two_sided = numerics.hs_inner(md.delta_apply(data, x), x)
        r_pos = max(r_pos, (numerics.modulus(two_sided - form) / form).max())

    r_tomita, r_state = md.tomita_residual(data), md.state_residual(data, state)
    r_mkms = md.verify_modular_kms(data, (0.0, 0.5, 1.7, -2.3))
    subs = [
        SubCheck("tomita_involution", r_tomita, md.modular_tolerance(data.cond_omega)),
        SubCheck("state_representation", r_state, max(1e-11, gb.state_tolerance(system.cond_t, n))),
        SubCheck("delta_positivity", r_pos, 1e-12),
        SubCheck("modular_kms", r_mkms, md.modular_kms_tolerance(n)),
    ]
    if n <= md.ORACLE_DIM_MAX:
        oracle = np.sort(np.linalg.eigvalsh(md.delta_matrix(data)))
        expected = md.delta_spectrum_expected(data)
        rel = float(np.max(np.abs(oracle - expected) / np.maximum(1.0, expected)))
        subs.append(SubCheck("delta_spectrum_oracle", rel, 1e-10))
    ham = dyn.hamiltonian(system, spectrum)
    h0 = ham.h0
    commutator = numerics.matmul(system.t_op, h0) - numerics.matmul(h0, system.t_op)
    if numerics.frobenius(commutator) < 1e-13 * max(numerics.frobenius(h0), 1.0):
        r_commute = md.commuting_flow_residual(ham, data, blocks[0][0], (0.6, -1.4))
        subs.append(SubCheck("commuting_flow_relation", r_commute, 1e-11))
    return _finish("modular", subs)


#: every check group by name, in report order; each docstring is what ``explain`` prints
CHECKS: dict[str, Callable[[ModelInstance, int, Sequence[float]], GroupResult]] = {
    "biorthogonality": check_biorthogonality,
    "gibbs": check_gibbs,
    "dynamics": check_dynamics,
    "entropy": check_entropy,
    "kms": check_kms,
    "modular": check_modular,
}
