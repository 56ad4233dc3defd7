"""Planted defects for the kms and modular sub-checks, and the names every group emits.

Each defect takes a clean instance and returns the instance to run; one that
acts on code rather than data patches it through ``monkeypatch``.  Every
defect must turn each sub-check it is listed under to FAIL on both instances,
apart from the strict xfails in ``KNOWN_MISSES``.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import instance
from rieszgibbs import cli, gibbs, kms, modular, numerics, suites

INSTANCES = (("shift_half", 8), ("exp_gen", 16))


def scaled_kernel(inst, monkeypatch):
    """Every strip-function kernel entry scaled by 1 + 0.1 N(0,1), a fresh
    draw per strip function; the dense boundary oracle keeps X and Y."""
    real = kms.strip_function
    rng = np.random.default_rng(5)

    def noisy(state, x, y):
        sf = real(state, x, y)
        return replace(sf, kernel=sf.kernel * (1.0 + 0.1 * rng.standard_normal(sf.kernel.shape)))

    monkeypatch.setattr(kms, "strip_function", noisy)
    return inst


def _scale_cached_rows(monkeypatch, name):
    """Row i of the GibbsState's cached ``name`` scaled by 1 + 1e-3 i."""
    formed = vars(gibbs.GibbsState)[name].func

    def scaled(state):
        value = formed(state)
        return value * (1.0 + 1e-3 * np.arange(value.shape[0]))[:, None]

    monkeypatch.setattr(gibbs.GibbsState, name, property(scaled))


def scaled_boltzmann_rows(inst, monkeypatch):
    """Rows of the cached e^{-beta H} scaled by 1 + 1e-3 i."""
    _scale_cached_rows(monkeypatch, "boltzmann")
    return inst


def scaled_twist_rows(inst, monkeypatch):
    """Rows of the cached twist M = C C^H scaled by 1 + 1e-3 i."""
    _scale_cached_rows(monkeypatch, "twist")
    return inst


def scaled_omega(inst, monkeypatch):
    """Every state's Omega scaled by 1 + 1e-3, its eigenbasis and Omega^2 kept."""
    real = modular.modular_data

    def scaled(state):
        md = real(state)
        return replace(md, omega=1.001 * md.omega)

    monkeypatch.setattr(modular, "modular_data", scaled)
    return inst


def raised_omega_eigenvalues(inst, monkeypatch):
    """Omega's eigenvalues raised to the power 1.05 and Omega rebuilt from them;
    Omega^2 stays the dense sandwich density."""
    real = modular.modular_data

    def raised(state):
        md = real(state)
        values = md.values**1.05
        return replace(md, omega=md.basis.similarity(values), values=values)

    monkeypatch.setattr(modular, "modular_data", raised)
    return inst


def _scale_power(monkeypatch, exponent, scale):
    """Omega^exponent scaled by ``scale`` wherever a phase block forms it."""
    real = modular.omega_powers

    def scaled(md, exponents):
        hit = np.asarray(exponents) == exponent
        return real(md, exponents) * np.where(hit, scale, 1.0)[..., None, None]

    monkeypatch.setattr(modular, "omega_powers", scaled)


def scaled_inverse_power(inst, monkeypatch):
    """Omega^-1, which S reads, scaled by 1 + 1e-3."""
    _scale_power(monkeypatch, -1.0, 1.001)
    return inst


def coarsely_scaled_inverse_power(inst, monkeypatch):
    """Omega^-1 scaled by 1 + 1e-2."""
    _scale_power(monkeypatch, -1.0, 1.01)
    return inst


def scaled_inverse_square_power(inst, monkeypatch):
    """Omega^-2, which Delta reads, scaled by 1 + 1e-3."""
    _scale_power(monkeypatch, -2.0, 1.001)
    return inst


def square_root_delta(inst, monkeypatch):
    """Delta^{1/2} V = Omega V Omega^{-1} in place of Delta V."""

    def half(md, v):
        return md.omega @ v @ modular.omega_powers(md, -1.0)

    monkeypatch.setattr(modular, "delta_apply", half)
    return inst


def _plant_flow(monkeypatch, exponents, right=numerics.dagger, scale=1.0):
    """sigma_t(X) = u X right(u) with u = scale * Omega^{exponents(t)}."""

    def flow(md, t, x):
        u = scale * modular.omega_powers(md, exponents(np.asarray(t)))
        return u @ x @ right(u)

    monkeypatch.setattr(modular, "modular_flow", flow)


def scaled_flow_unitary(inst, monkeypatch):
    """Every flow unitary u = Omega^{2it} scaled by 1.01."""
    _plant_flow(monkeypatch, lambda t: 2j * t, scale=1.01)
    return inst


def shifted_flow_exponent(inst, monkeypatch):
    """A real part 0.02 t added to the flow exponent 2it."""
    _plant_flow(monkeypatch, lambda t: (0.02 + 2j) * t)
    return inst


def scaled_flow_time(inst, monkeypatch):
    """The flow time scaled by 1.01."""
    _plant_flow(monkeypatch, lambda t: 2.02j * t)
    return inst


def flow_without_adjoint(inst, monkeypatch):
    """sigma_t(X) = u X u, the adjoint of the right factor dropped."""
    _plant_flow(monkeypatch, lambda t: 2j * t, right=lambda u: u)
    return inst


#: group -> sub-check name -> planted defects, each of which must turn it to
#: FAIL.  The strip function is a finite exponential sum whatever its kernel;
#: in Omega's one eigenbasis sigma_t commutes with the adjoint, u_t with Omega,
#: and flow phases compose, whatever the unitary, Omega's eigenvalues and the
#: times are.  So only two-route comparisons are listed.
PLANTED = {
    "kms": {
        "phi_boundaries": (scaled_kernel, scaled_boltzmann_rows, scaled_twist_rows),
        "psi_boundaries": (scaled_kernel, scaled_boltzmann_rows, scaled_twist_rows),
        "dual_consistency": (scaled_kernel,),
    },
    "modular": {
        "hs_norms": (scaled_omega, raised_omega_eigenvalues),
        "tomita_involution": (scaled_inverse_power, coarsely_scaled_inverse_power),
        "state_representation": (scaled_omega, raised_omega_eigenvalues),
        "delta_positivity": (
            square_root_delta,
            scaled_inverse_square_power,
            raised_omega_eigenvalues,
        ),
        "modular_kms": (
            scaled_flow_unitary,
            shifted_flow_exponent,
            scaled_flow_time,
            flow_without_adjoint,
            raised_omega_eigenvalues,
        ),
    },
}


#: (sub-check, defect, preset, n) -> why that defect does not flip it there.
#: Each is a strict xfail, so the entry must go once the sub-check catches it.
KNOWN_MISSES = {
    ("tomita_involution", "scaled_inverse_power", "exp_gen", 16): (
        "1e-10 cond(Omega)^2 passes a 1e-3 error in Omega^-1: 2.8e-4 under 3.0e-4"
    ),
}


def _planted_cases():
    for group, names in PLANTED.items():
        for name, defects in names.items():
            for defect in defects:
                for preset, n in INSTANCES:
                    why = KNOWN_MISSES.get((name, defect.__name__, preset, n))
                    marks = [pytest.mark.xfail(strict=True, reason=why)] if why else []
                    yield pytest.param(
                        group,
                        name,
                        defect,
                        preset,
                        n,
                        marks=marks,
                        id=f"{group}-{name}-{defect.__name__}-{preset}{n}",
                    )


@pytest.mark.parametrize("group,name,defect,preset,n", list(_planted_cases()))
def test_planted_defect_fails_the_subcheck(group, name, defect, preset, n, monkeypatch):
    inst = instance(preset, n=n)
    check = suites.CHECKS[group]
    clean = {s.name: s for s in check(inst, 0, cli.DEFAULT_T_GRID).subchecks}
    assert clean[name].passed
    planted = defect(inst, monkeypatch)
    result = {s.name: s for s in check(planted, 0, cli.DEFAULT_T_GRID).subchecks}
    assert not result[name].passed


#: the sub-check names each group emits on every instance, in report order
ALWAYS = {
    "biorthogonality": ["pair_deviation", "frame_unitarity", "naturalness", "dual_family_swap"],
    "gibbs": [
        "sum_vs_trace",
        "trace_orderings",
        "ratio_identity",
        "unitality",
        "hermiticity",
        "positivity",
        "faithfulness_margin",
        "density_trace",
        "psi_duality",
    ],
    "dynamics": [
        "group_law",
        "adjoint_pairing",
        "propagator_adjoint",
        "intertwining",
        "generator_halving",
        "commuting_generator",
        "norm_continuity",
        "spectral_reality",
        "eigenvector_residual",
        "hdag_adjoint",
    ],
    "entropy": ["entropy_equality", "normalization", "similarity"],
    "kms": ["phi_boundaries", "psi_boundaries", "dual_consistency"],
    "modular": [
        "hs_norms",
        "tomita_involution",
        "state_representation",
        "delta_positivity",
        "modular_kms",
    ],
}

#: every group's emitted names per instance; diag_sqrt N=6 also reaches every
#: conditional kms and modular sub-check.  entropy's log_series is emitted only
#: inside the log series' convergence domain, which neither instance reaches.
EMITTED = {
    ("shift_half", 8): ALWAYS,
    ("diag_sqrt", 6): {
        **ALWAYS,
        "kms": [*ALWAYS["kms"], "degenerate_twist"],
        "modular": [*ALWAYS["modular"], "delta_spectrum_oracle", "commuting_flow_relation"],
    },
}


@pytest.mark.parametrize("preset,n", list(EMITTED), ids=[f"{p}{n}" for p, n in EMITTED])
def test_emitted_subcheck_names(preset, n):
    # one dict comparison, so a deleted or renamed name is a one-line diff
    inst = instance(preset, n=n)
    emitted = {
        group: [s.name for s in check(inst, 0, cli.DEFAULT_T_GRID).subchecks]
        for group, check in suites.CHECKS.items()
    }
    assert emitted == EMITTED[preset, n]


def test_registry_covers_every_unconditional_name():
    for group, names in PLANTED.items():
        assert list(names) == ALWAYS[group]
