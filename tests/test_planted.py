"""Planted defects for the kms and modular sub-checks, and the names they emit.

Each defect takes a clean instance and returns the instance to run; one that
acts on code rather than data patches it through ``monkeypatch``.  Every
defect must turn each sub-check it is listed under to FAIL on both instances.
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


def scaled_flow_unitary(inst, monkeypatch):
    """sigma_t(X) = u X u^H with every flow unitary u = Omega^{2it} scaled by 1.01."""

    def flow(md, t, x):
        u = 1.01 * modular.omega_power(md, 2j * t)
        return u @ x @ numerics.dagger(u)

    monkeypatch.setattr(modular, "modular_flow", flow)
    return inst


#: group -> sub-check name -> planted defects, each of which must turn it to
#: FAIL.  The strip function is a finite exponential sum whatever its kernel,
#: and sigma_t commutes with the adjoint whatever its unitary, so only
#: two-route comparisons are listed.
PLANTED = {
    "kms": {
        "phi_boundaries": (scaled_kernel, scaled_boltzmann_rows, scaled_twist_rows),
        "psi_boundaries": (scaled_kernel, scaled_boltzmann_rows, scaled_twist_rows),
        "dual_consistency": (scaled_kernel,),
    },
    "modular": {
        "flow_group_law": (scaled_flow_unitary,),
        "modular_kms": (scaled_flow_unitary,),
    },
}


@pytest.mark.parametrize("preset,n", INSTANCES, ids=[f"{p}{n}" for p, n in INSTANCES])
@pytest.mark.parametrize(
    "group,name,defect",
    [
        (group, name, defect)
        for group, names in PLANTED.items()
        for name, defects in names.items()
        for defect in defects
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_planted_defect_fails_the_subcheck(group, name, defect, preset, n, monkeypatch):
    inst = instance(preset, n=n)
    check = suites.CHECKS[group]
    clean = {s.name: s for s in check(inst, 0, cli.DEFAULT_T_GRID).subchecks}
    assert clean[name].passed
    planted = defect(inst, monkeypatch)
    result = {s.name: s for s in check(planted, 0, cli.DEFAULT_T_GRID).subchecks}
    assert not result[name].passed


KMS_ALWAYS = ["phi_boundaries", "psi_boundaries", "dual_consistency"]
MODULAR_ALWAYS = [
    "hs_norms",
    "tomita_involution",
    "state_representation",
    "delta_positivity",
    "flow_group_law",
    "vector_flow",
    "modular_kms",
]

#: the sub-check names each group emits, in report order; diag_sqrt N=6 also
#: reaches every conditional kms and modular sub-check
EMITTED = {
    ("shift_half", 8): {"kms": KMS_ALWAYS, "modular": MODULAR_ALWAYS},
    ("diag_sqrt", 6): {
        "kms": [*KMS_ALWAYS, "degenerate_twist"],
        "modular": [*MODULAR_ALWAYS, "delta_spectrum_oracle", "commuting_flow_relation"],
    },
}


@pytest.mark.parametrize("preset,n", list(EMITTED), ids=[f"{p}{n}" for p, n in EMITTED])
def test_emitted_subcheck_names(preset, n):
    inst = instance(preset, n=n)
    for group, names in EMITTED[preset, n].items():
        emitted = suites.CHECKS[group](inst, 0, cli.DEFAULT_T_GRID).subchecks
        assert [s.name for s in emitted] == names
