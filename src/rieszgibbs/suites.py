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

from dataclasses import dataclass, field
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
    passed: bool
    subchecks: tuple[SubCheck, ...]
    #: per-grid-point rows the group certified, keyed by state family (kms only)
    rows: Mapping[str, list[km.KmsRow]] = field(default_factory=dict)


def _group_rng(seed: int, group: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, list(CHECKS).index(group)]))
    )


def _finish(
    check: str, subs: list[SubCheck], rows: Mapping[str, list[km.KmsRow]] | None = None
) -> GroupResult:
    binding = max(subs, key=lambda s: s.residual / s.tolerance if s.tolerance > 0 else np.inf)
    return GroupResult(
        check=check,
        max_residual=binding.residual,
        tolerance=binding.tolerance,
        passed=all(s.passed for s in subs),
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
        SubCheck("pair_deviation", riesz.verify_biorthogonality(system), bio_tol),
        SubCheck("frame_unitarity", frame_defect, riesz.FRAME_TOL * n),
        SubCheck("naturalness", natural.max_deviation, bio_tol),
        SubCheck("dual_family_swap", swap, bio_tol),
    ]
    return _finish("biorthogonality", subs)


def check_gibbs(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """dual representation of the deformed thermal functional:
    (1/Z_phi) sum_n e^{-beta lambda_n} (X phi_n | phi_n)
    = (1/Z_phi) tr(T* X T e^{-beta H0})
    = (1/Z_phi) tr((T e^{-beta H0/2})* X (T e^{-beta H0/2}));
    plus omega_phi(X) = (Z0/Z_phi) omega_f(T* X T), unitality,
    positivity, and faithfulness of the density T e^{-beta H0} T*/Z_phi."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "gibbs")
    n = system.dim
    tol = gb.state_tolerance(system.cond_t, n)
    states = {k: gb.gibbs_state(system, spectrum, k) for k in ("f", "phi", "psi")}
    # psi state of the dual system: its columns come from a fresh inversion of (T^-1)^H
    dual_psi = gb.gibbs_state(riesz.dual_system(system), spectrum, "psi")
    eye = np.eye(n, dtype=complex)

    r_sum_trace = r_orderings = r_ratio = r_herm = r_pos = r_dual = 0.0
    for _ in range(N_OBSERVABLES):
        x = models.random_observable(n, rng)
        for state in states.values():
            s, t = gb.omega_sum(state, x), gb.omega_trace(state, x)
            r_sum_trace = max(r_sum_trace, abs(s - t))
            r_orderings = max(r_orderings, abs(t - gb.omega_trace_sandwich(state, x)))
            r_herm = max(
                r_herm,
                abs(gb.omega_sum(state, numerics.dagger(x)) - np.conj(s)),
            )
            val = gb.omega_sum(state, numerics.dagger(x) @ x)
            r_pos = max(r_pos, max(0.0, -val.real), abs(val.imag))
        r_ratio = max(r_ratio, gb.omega_ratio_residual(states["phi"], states["f"], x))
        r_dual = max(
            r_dual, abs(gb.omega_sum(states["phi"], x) - gb.omega_sum(dual_psi, x))
        )
    r_unital = max(abs(gb.omega_sum(s, eye) - 1.0) for s in states.values())

    witness = gb.faithfulness_witness(states["phi"])
    sigma_min = 1.0 / np.linalg.norm(system.t_inv, 2)
    lower = np.exp(-spectrum.beta * spectrum.lambdas[-1]) * sigma_min**2 / states["phi"].partition
    faith_short = max(0.0, 0.9 * lower - witness.min_eigenvalue) / lower
    trace_dev = abs(numerics.trace(witness.density) - 1.0)

    subs = [
        SubCheck("sum_vs_trace", r_sum_trace, tol),
        SubCheck("trace_orderings", r_orderings, tol),
        SubCheck("ratio_identity", r_ratio, tol),
        SubCheck("unitality", r_unital, 1e-13),
        SubCheck("hermiticity", r_herm, tol),
        SubCheck("positivity", r_pos, tol),
        SubCheck("faithfulness_margin", faith_short, 1e-12),
        SubCheck("density_trace", trace_dev, 1e-13),
        SubCheck("psi_duality", r_dual, tol),
    ]
    return _finish("gibbs", subs)


def check_dynamics(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """similarity propagators e^{itH} = T e^{itH0} T^-1 and
    e^{itH*} = (T*)^-1 e^{itH0} T*: group law, (e^{itH})* = e^{-itH*},
    alpha^phi_t(X)* = alpha^psi_t(X*), generators H0 / H / H*, and the
    real spectrum of H = T H0 T^-1."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "dynamics")
    n = system.dim
    cond_t = system.cond_t
    lam_max = float(spectrum.lambdas[-1])
    ham = dyn.hamiltonian(system, spectrum)
    x = models.random_observable(n, rng)
    pairs = [(0.3, 0.9), (-2.0, 5.5), (4.0, -7.5)]

    r_group = r_adjoint = r_inter = 0.0
    for s, t in pairs:
        for which in ("0", "phi", "psi"):
            both = dyn.evolve(ham, which, s + t, x)
            nested = dyn.evolve(ham, which, s, dyn.evolve(ham, which, t, x))
            r_group = max(r_group, numerics.frobenius(both - nested))
        r_adjoint = max(
            r_adjoint,
            numerics.frobenius(
                numerics.dagger(dyn.alpha_phi(ham, t, x))
                - dyn.alpha_psi(ham, t, numerics.dagger(x))
            ),
        )
        pulled = system.t_inv @ x @ system.t_op
        r_inter = max(
            r_inter,
            numerics.frobenius(
                dyn.alpha_phi(ham, t, x) @ system.t_op
                - system.t_op @ dyn.alpha0(ham, t, pulled)
            ),
        )
    t_probe = 1.5
    r_prop = numerics.frobenius(
        numerics.dagger(dyn.exp_ith(ham, t_probe)) - dyn.exp_ithdag(ham, -t_probe)
    )

    r_halving = 0.0
    for which in ("0", "phi", "psi"):
        r1 = dyn.generator_residual(ham, which, x, 1e-3)
        r2 = dyn.generator_residual(ham, which, x, 5e-4)
        r_halving = max(r_halving, abs(r2 / r1 - 0.5))
    r_commuting = max(
        dyn.generator_residual(ham, which, dyn.generator_of(ham, which), 1.0)
        for which in ("0", "phi", "psi")
    )
    t_cont = 1e-8
    r_continuity = max(
        numerics.frobenius(dyn.evolve(ham, which, t_cont, x) - x)
        for which in ("0", "phi", "psi")
    )
    cont_tol = 4.0 * t_cont * lam_max * max(cond_t, 1.0) ** 2 + 1e-12

    subs = [
        SubCheck("group_law", r_group, 1e-11),
        SubCheck("adjoint_pairing", r_adjoint, 1e-11),
        SubCheck("propagator_adjoint", r_prop, 1e-12 * cond_t**2),
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
        SubCheck(
            "hdag_adjoint",
            numerics.frobenius(ham.h_dag - numerics.dagger(ham.h)),
            1e-12 * max(numerics.frobenius(ham.h), 1.0),
        ),
    ]
    return _finish("dynamics", subs)


def check_entropy(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """entropy equality: -sum_n psi_n* (rho log rho) phi_n =
    -tr(rho0 log rho0) for rho = T rho0 T^-1, log rho = T log(rho0) T^-1,
    rho0 = e^{-beta H0}/Z0."""
    system, spectrum = inst.system, inst.spectrum
    cond_t = system.cond_t
    pair = ent.build_density(system, spectrum, normalize=True)
    s_std = ent.entropy_standard(pair)
    s_gen = ent.entropy_generalized(pair)
    eig_rho = np.sort(np.linalg.eigvals(pair.rho).real)
    eig_rho0 = np.sort(np.linalg.eigvalsh(pair.rho0))
    subs = [
        SubCheck("entropy_equality", abs(s_gen - s_std), 1e-10 * max(cond_t, 1.0)),
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
    (psi version twists with TT* inverted); interior analyticity via the
    Cauchy mean value."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "kms")
    n = system.dim
    tol = km.kms_tolerance(system.cond_t, n)
    x = models.random_observable(n, rng)
    y = models.random_observable(n, rng)
    state_phi = gb.gibbs_state(system, spectrum, "phi")
    sf_phi = km.strip_function(state_phi, x, y)
    sf_psi = km.strip_function(gb.gibbs_state(system, spectrum, "psi"), x, y)
    rows = {
        "phi": km.verification_rows(sf_phi, t_grid),
        "psi": km.verification_rows(sf_psi, t_grid),
    }

    beta = spectrum.beta
    interior = [
        complex(t0, s0 * beta)
        for t0, s0 in ((0.0, 0.5), (1.3, 0.25), (-2.1, 0.75), (0.4, 0.6), (-0.8, 0.35))
    ]
    r_cauchy = max(km.cauchy_mean_residual(sf_phi, z0) for z0 in interior)
    r_density = max(
        km.nonhermitian_density_residual(state_phi, models.random_observable(n, rng))
        for _ in range(4)
    )
    # phi state of the dual system: its columns come from a fresh inversion of (T^-1)^H
    state_dual = gb.gibbs_state(riesz.dual_system(system), spectrum, "phi")
    r_dual = km.dual_strip_residual(
        sf_psi, km.strip_function(state_dual, x, y), (0.0, 0.9, -3.0)
    )

    subs = [
        SubCheck("phi_boundaries", max(km.boundary_residuals(rows["phi"])), tol),
        SubCheck("psi_boundaries", max(km.boundary_residuals(rows["psi"])), tol),
        SubCheck("analyticity", r_cauchy, 1e-9),
        SubCheck("density_identity", r_density, 1e-11),
        SubCheck("dual_consistency", r_dual, 1e-12 * max(1.0, system.cond_t**2)),
    ]
    # degenerate twist: when TT^H commutes with e^{-beta H} the shifted-boundary
    # twist migrates onto the static observable, f(t+i beta) = omega(alpha_t(Y) M X M^-1)
    twist = system.t_op @ numerics.dagger(system.t_op)
    exp_bh = state_phi.family.similarity(state_phi.weights)
    if numerics.frobenius(twist @ exp_bh - exp_bh @ twist) < 1e-12 * numerics.frobenius(exp_bh):
        ham = dyn.hamiltonian(system, spectrum)
        migrated = twist @ x @ numerics.inverse(twist)
        ts = (0.0, 0.9, 4.2)
        shifted = km.strip_values(sf_phi, [t + 1j * beta for t in ts])
        r_degenerate = max(
            abs(f - gb.omega_trace(state_phi, dyn.alpha_phi(ham, t, y) @ migrated))
            for t, f in zip(ts, shifted)
        )
        subs.append(SubCheck("degenerate_twist", r_degenerate, tol))
    return _finish("kms", subs, rows)


def check_modular(inst: ModelInstance, seed: int, t_grid: Sequence[float]) -> GroupResult:
    """Hilbert-Schmidt modular data for Omega_phi = |(T e^{-beta H0/2})*|/sqrt(Z_phi):
    J Delta^{1/2}(X Omega) = X* Omega, omega_phi(X) = (X Omega | Omega),
    flow sigma_t(X) = Omega^{2it} X Omega^{-2it} with spectrum of Delta
    {(w_j/w_k)^2}, and the left/right multiplication commutant relation."""
    system, spectrum = inst.system, inst.spectrum
    rng = _group_rng(seed, "modular")
    n = system.dim
    states = {k: gb.gibbs_state(system, spectrum, k) for k in ("f", "phi", "psi")}
    omegas = {k: md.omega_vector(s) for k, s in states.items()}
    data = md.modular_data(omegas["phi"])
    tol = md.modular_tolerance(data.cond_omega)

    r_norm = max(abs(numerics.hs_norm(o) - 1.0) for o in omegas.values())
    r_tomita = r_state = r_j = r_flowstar = r_vecflow = 0.0
    r_pos = 0.0
    for _ in range(N_OBSERVABLES):
        x = models.random_observable(n, rng)
        v = models.random_observable(n, rng)
        w = models.random_observable(n, rng)
        r_tomita = max(
            r_tomita,
            numerics.hs_norm(
                md.tomita_s(data, x @ data.omega) - numerics.dagger(x) @ data.omega
            ),
        )
        r_state = max(
            r_state,
            abs(md.state_via_vector(x, data.omega) - gb.omega_trace(states["phi"], x)),
        )
        r_j = max(
            r_j,
            abs(
                numerics.hs_inner(numerics.dagger(v), numerics.dagger(w))
                - np.conj(numerics.hs_inner(v, w))
            ),
        )
        dv = md.delta_apply(data, v)
        val = numerics.hs_inner(dv, v)
        r_pos = max(r_pos, max(0.0, -val.real) / max(numerics.hs_norm(v) ** 2, 1e-30))
        t_probe = 0.8
        r_flowstar = max(
            r_flowstar,
            numerics.frobenius(
                numerics.dagger(md.modular_flow(data, t_probe, x))
                - md.modular_flow(data, t_probe, numerics.dagger(x))
            ),
        )
        r_vecflow = max(
            r_vecflow,
            numerics.hs_norm(
                md.modular_flow(data, t_probe, x @ data.omega)
                - md.modular_flow(data, t_probe, x) @ data.omega
            ),
        )
    x = models.random_observable(n, rng)
    r_flowgroup = max(
        numerics.frobenius(
            md.modular_flow(data, s + t, x)
            - md.modular_flow(data, s, md.modular_flow(data, t, x))
        )
        for s, t in ((0.4, 1.1), (-2.0, 3.3))
    )
    r_mkms = md.verify_modular_kms(
        data, x, models.random_observable(n, rng), (0.0, 0.5, 1.7, -2.3)
    )
    r_comm = max(
        md.commutant_residual(
            models.random_observable(n, rng),
            models.random_observable(n, rng),
            models.random_observable(n, rng),
            models.random_observable(n, rng),
        )
        for _ in range(N_OBSERVABLES)
    )

    subs = [
        SubCheck("hs_norms", r_norm, 1e-12),
        SubCheck("tomita_involution", r_tomita, tol),
        SubCheck("state_representation", r_state, max(1e-11, gb.state_tolerance(system.cond_t, n))),
        SubCheck("j_isometry", r_j, 1e-13),
        SubCheck("delta_positivity", r_pos, 1e-13),
        SubCheck("flow_group_law", r_flowgroup, tol),
        SubCheck("flow_star", r_flowstar, tol),
        SubCheck("vector_flow", r_vecflow, tol),
        SubCheck("modular_kms", r_mkms, tol),
        SubCheck("commutant", r_comm, 1e-12),
    ]
    if n <= 6:
        oracle = np.sort(np.linalg.eigvalsh(md.delta_matrix(data)))
        expected = md.delta_spectrum_expected(data)
        rel = float(np.max(np.abs(oracle - expected) / np.maximum(1.0, expected)))
        subs.append(SubCheck("delta_spectrum_oracle", rel, 1e-10))
    h0 = states["f"].family.similarity(spectrum.lambdas)
    if numerics.frobenius(system.t_op @ h0 - h0 @ system.t_op) < 1e-13 * max(
        numerics.frobenius(h0), 1.0
    ):
        ham = dyn.hamiltonian(system, spectrum)
        r_commute = max(
            md.commuting_flow_residual(ham, data, t, models.random_observable(n, rng))
            for t in (0.6, -1.4)
        )
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


def group_floor(result: GroupResult) -> float:
    """Smallest tolerance inside a group; overrides below it are rejected."""
    return min(s.tolerance for s in result.subchecks)


def apply_override(result: GroupResult, override: float) -> GroupResult:
    """Loosen every sub-tolerance of a group to at least ``override``."""
    subs = [
        SubCheck(s.name, s.residual, max(s.tolerance, override))
        for s in result.subchecks
    ]
    return _finish(result.check, subs, result.rows)
