"""Finite-dimensional thermal and modular structure of biorthogonal systems.

Build a system from a unitary frame and an invertible constructing operator,
attach a strictly positive spectrum, and every derived object -- deformed
Gibbs functionals, non-normal Heisenberg evolutions, the generalized entropy,
twisted thermal boundary identities and the Hilbert-Schmidt modular data --
comes with machine-checkable residuals certifying the identities it obeys.
"""

from .dynamics import (
    NonHermitianHamiltonian,
    alpha0,
    alpha_phi,
    alpha_psi,
    exp_ith,
    exp_ithdag,
    generator_residual,
    hamiltonian,
    propagator,
    spectrum_residual,
)
from .entropy import (
    DensityPair,
    build_density,
    entropy_generalized,
    entropy_standard,
    matrix_log_series,
    summability_report,
)
from .errors import (
    BadModel,
    ConfigError,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    RieszGibbsError,
    Singular,
    UnknownCheck,
)
from .gibbs import (
    GibbsState,
    Spectrum,
    boltzmann_operator,
    faithfulness_witness,
    gibbs_state,
    omega_ratio_residual,
    omega_sum,
    omega_trace,
    omega_trace_sandwich,
    partition_constants,
    standard_hamiltonian,
)
from .kms import (
    StripFunction,
    alpha_phi_z,
    cauchy_mean_residual,
    nonhermitian_density_residual,
    strip_f,
    strip_function,
    strip_values,
    verify_kms_like,
)
from .modular import (
    ModularData,
    commutant_residual,
    delta_apply,
    delta_matrix,
    modular_data,
    modular_flow,
    modular_flow_halved,
    omega_vectors,
    pi_left,
    pi_right,
    state_via_vector,
    tomita_s,
    verify_modular_kms,
)
from .models import ModelSpec, catalog, convergence_sweep, instantiate, preset
from .numerics import (
    HermitianEig,
    abs_of_adjoint,
    func_of_hermitian,
    herm_eig,
    hs_inner,
    hs_norm,
    inverse,
    svd,
    trace,
)
from .riesz import (
    Family,
    RieszSystem,
    build_system,
    check_naturalness,
    dual_system,
    family,
    identity_system,
    verify_biorthogonality,
)

__version__ = "0.1.0"
