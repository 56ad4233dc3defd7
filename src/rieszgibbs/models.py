"""Reference model families: spectra and constructing operators by rule.

Each family fixes a closed-form spectrum rule n -> lambda_n and a rule for
the constructing operator, so a single ModelSpec reproducibly determines the
whole finite-dimensional instance at any truncation N.  Truncation follows a
per-family convention (there is no universal recipe for compressing an
unbounded operator):

- ``identity``        : T = I at every N.
- ``diagonal``        : T = diag(d_0 .. d_{N-1}) with d_n from its own closed
                        form; the N x N matrix is the leading compression of
                        the infinite diagonal.
- ``shift_perturbed`` : T = I + eps * L with L the lower shift and
                        eps in (0, 1); Neumann series gives the inverse, and
                        norms of T, T^{-1} are bounded uniformly in N.
- ``exp_generator``   : T = exp(scale * G) with G a pseudo-random complex
                        matrix drawn from a seeded PCG64 stream.  This family
                        is defined per-N (the draw at size N is not a
                        compression of a larger one) and exists to exercise
                        generic non-normal T.

Pseudo-randomness: every draw uses numpy's PCG64 generator seeded with the
64-bit seed from the run configuration, so identical specs give bit-identical
systems across runs and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import entropy as entropy_mod
from . import kms as kms_mod
from . import numerics
from .errors import BadModel, Singular
from .gibbs import (
    Spectrum,
    gibbs_state,
    omega_sum,
    partition_constants,
)
from .numerics import CMatrix
from .riesz import RieszSystem, build_system


@dataclass(frozen=True)
class ModelSpec:
    """Closed-form recipe for one finite-dimensional instance."""

    name: str
    n: int
    beta: float
    lambda_rule: Mapping
    t_rule: Mapping
    seed: int = 0


#: parameters each spectrum rule reads besides "rule", with the nesting depth
#: of their values: 0 for a number, 1 for a list of numbers
LAMBDA_RULES = {
    "linear": {"offset": 0, "slope": 0},
    "power": {"exponent": 0, "scale": 0},
    "log": {"scale": 0, "shift": 0},
    "explicit": {"values": 1},
}


def _lambda_on_indices(rule: Mapping, idx: np.ndarray) -> np.ndarray:
    kind = rule.get("rule")
    if kind == "linear":
        return rule.get("offset", 1.0) + rule.get("slope", 1.0) * idx
    if kind == "power":
        return rule.get("scale", 1.0) * (idx + 1.0) ** rule.get("exponent", 1.0)
    if kind == "log":
        return rule.get("scale", 1.0) * np.log(idx + rule.get("shift", 2.0))
    if kind == "explicit":
        values = np.asarray(rule.get("values", []), dtype=float)
        needed = int(idx.max()) + 1 if idx.size else 0
        if values.size < needed:
            raise BadModel(f"explicit spectrum has {values.size} values, need {needed}")
        return values[idx.astype(int)]
    raise BadModel(f"unknown spectrum rule {kind!r}")


def lambda_values(rule: Mapping, n: int, offset: int = 0) -> np.ndarray:
    """Evaluate a spectrum rule on indices offset .. offset+n-1."""
    return _lambda_on_indices(rule, np.arange(offset, offset + n, dtype=float))


def _taylor_expm(g: CMatrix) -> CMatrix:
    """exp(G) by scaling-and-squaring with a Taylor core.

    Only used to *construct* exp_generator operators (never for propagators,
    which always go through the similarity factorization).
    """
    norm = np.linalg.norm(g, 2)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-16) / 0.5))))
    scaled = g / (2.0**squarings)
    result = np.eye(g.shape[0], dtype=complex)
    term = np.eye(g.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ scaled / k
        result = result + term
        # the Frobenius norm bounds the 2-norm from above, without an SVD
        if numerics.frobenius(term) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


#: parameters each constructing-operator rule reads besides "rule", with the
#: nesting depth of their values as in LAMBDA_RULES (2 for a list of lists)
T_RULES = {
    "identity": {},
    "diagonal": {"exponent": 0, "values": 1},
    "shift_perturbed": {"epsilon": 0},
    "exp_generator": {"scale": 0},
    "explicit": {"values": 2},
}


def _diagonal_entries(rule: Mapping, n: int) -> np.ndarray:
    if "values" in rule:
        vals = np.asarray(rule["values"], dtype=float)
        if vals.size < n:
            raise BadModel(f"explicit diagonal has {vals.size} values, need {n}")
        return vals[:n]
    exponent = rule.get("exponent", 0.5)
    return (np.arange(n, dtype=float) + 1.0) ** exponent


def build_t(rule: Mapping, n: int, seed: int = 0) -> CMatrix:
    """Materialize the constructing operator of a family at dimension N."""
    kind = rule.get("rule")
    if kind == "identity":
        t = np.eye(n, dtype=complex)
    elif kind == "diagonal":
        d = _diagonal_entries(rule, n)
        if np.any(d == 0.0):
            raise BadModel("diagonal constructing operator has a zero entry")
        t = np.diag(d).astype(complex)
    elif kind == "shift_perturbed":
        eps = float(rule.get("epsilon", 0.5))
        if not 0.0 < eps < 1.0:
            raise BadModel("shift perturbation must satisfy 0 < epsilon < 1")
        t = np.eye(n, dtype=complex) + eps * np.eye(n, k=-1, dtype=complex)
    elif kind == "exp_generator":
        scale = float(rule.get("scale", 0.35))
        rng = np.random.Generator(np.random.PCG64(seed))
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (
            2.0 * math.sqrt(n)
        )
        t = _taylor_expm(scale * g)
    elif kind == "explicit":
        t = np.asarray(rule.get("values"), dtype=complex)
        if t.shape != (n, n):
            raise BadModel(f"explicit T has shape {t.shape}, need ({n}, {n})")
    else:
        raise BadModel(f"unknown constructing-operator rule {kind!r}")
    if not np.all(np.isfinite(t)):
        raise BadModel(f"{kind} constructing operator overflows double range")
    return t


def _is_riesz_basis(rule: Mapping) -> bool:
    """True when the family keeps T and T^{-1} uniformly bounded in N."""
    kind = rule.get("rule")
    if kind in ("identity", "shift_perturbed"):
        return True
    if kind == "diagonal":
        if "values" in rule:
            vals = np.asarray(rule["values"], dtype=float)
            return bool(np.all(vals != 0.0)) and vals.size > 0
        return rule.get("exponent", 0.5) == 0.0
    # per-N families (explicit, exp_generator) are trivially bounded at fixed N
    return True


class ModelInstance(NamedTuple):
    system: RieszSystem
    spectrum: Spectrum
    meta: dict


def instantiate(spec: ModelSpec) -> ModelInstance:
    """Build the concrete system plus truncation-quality metadata.

    Metadata: cond_t, the dropped-weight ratios e^{-beta lambda_N}/Z0 and
    e^{-beta lambda_N}||phi_N||^2 / Zphi (the latter an upper bound via
    sigma_max for families without closed-form columns), and the
    is_riesz_basis flag.
    """
    if spec.n < 1:
        raise BadModel("truncation dimension must be >= 1")
    # a rule that overflows double range is reported as BadModel, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        lam = lambda_values(spec.lambda_rule, spec.n)
        spectrum = Spectrum(lambdas=lam, beta=spec.beta)
        t_op = build_t(spec.t_rule, spec.n, seed=spec.seed)
    try:
        system = build_system(np.eye(spec.n), t_op)
    except Singular as exc:
        raise BadModel(f"constructing operator too ill-conditioned: {exc}") from exc
    z = partition_constants(system, spectrum)

    kind = spec.t_rule.get("rule")
    try:
        lam_next = float(lambda_values(spec.lambda_rule, 1, offset=spec.n)[0])
    except BadModel:
        lam_next = float(lam[-1])  # explicit spectra end at the truncation
    dropped = math.exp(-spec.beta * lam_next)
    if kind == "identity":
        phi_next_sq, is_bound = 1.0, False
    elif kind == "diagonal" and "values" not in spec.t_rule:
        phi_next_sq = float((spec.n + 1.0) ** (2.0 * spec.t_rule.get("exponent", 0.5)))
        is_bound = False
    elif kind == "shift_perturbed":
        phi_next_sq = 1.0 + float(spec.t_rule.get("epsilon", 0.5)) ** 2
        is_bound = False
    else:
        phi_next_sq = float(np.linalg.norm(system.t_op, 2) ** 2)
        is_bound = True
    meta = {
        "name": spec.name,
        "cond_t": system.cond_t,
        "f_tail_ratio": dropped / z.z0,
        "phi_tail_ratio": dropped * phi_next_sq / z.z_phi,
        "phi_tail_ratio_is_bound": is_bound,
        "is_riesz_basis": _is_riesz_basis(spec.t_rule),
    }
    return ModelInstance(system=system, spectrum=spectrum, meta=meta)


def catalog() -> dict[str, ModelSpec]:
    """Named reference models used throughout the test and demo suites."""
    return {
        "oscillator": ModelSpec(
            name="oscillator",
            n=32,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "identity"},
        ),
        "jordan2": ModelSpec(
            name="jordan2",
            n=2,
            beta=1.0,
            lambda_rule={"rule": "explicit", "values": [1.0, 2.0]},
            t_rule={"rule": "explicit", "values": [[1.0, 1.0], [0.0, 1.0]]},
        ),
        "shift_half": ModelSpec(
            name="shift_half",
            n=32,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "shift_perturbed", "epsilon": 0.5},
        ),
        "diag_sqrt": ModelSpec(
            name="diag_sqrt",
            n=32,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "diagonal", "exponent": 0.5},
        ),
        "diag_growth": ModelSpec(
            name="diag_growth",
            n=32,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "diagonal", "exponent": 1.0},
        ),
        "exp_gen": ModelSpec(
            name="exp_gen",
            n=16,
            beta=1.0,
            lambda_rule={"rule": "linear"},
            t_rule={"rule": "exp_generator", "scale": 0.35},
            seed=20240817,
        ),
    }


def preset(name: str, n: int | None = None, beta: float | None = None, seed: int | None = None) -> ModelSpec:
    """Catalog entry with optional overrides of N, beta, seed."""
    table = catalog()
    if name not in table:
        raise BadModel(f"unknown model {name!r}; known: {sorted(table)}")
    spec = table[name]
    if name == "jordan2" and n not in (None, 2):
        raise BadModel("jordan2 is a fixed 2x2 instance")
    if n is not None:
        spec = replace(spec, n=n)
    if beta is not None:
        spec = replace(spec, beta=beta)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec


def random_unitary(n: int, rng: np.random.Generator) -> CMatrix:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(n: int, rng: np.random.Generator) -> CMatrix:
    """Unit-Frobenius random observable."""
    return next(observable_blocks(n, 1, rng))[0]


def observable_blocks(n: int, count: int, rng: np.random.Generator) -> Iterator[CMatrix]:
    """``count`` unit-Frobenius random observables in (m, n, n) stacks of at most
    ``numerics.block_size(n)``, each one (m, 2, n, n) draw: the same stream as
    m draws of an n x n real part, then an n x n imaginary part."""
    size = numerics.block_size(n)
    for lo in range(0, count, size):
        a = rng.standard_normal((min(size, count - lo), 2, n, n))
        a = a[:, 0] + 1j * a[:, 1]
        yield a / numerics.frobenius(a)[:, None, None]


SWEEP_T_GRID = (0.0, 0.7, 3.1)


class SweepRow(NamedTuple):
    axis: float
    z0: float
    z_phi: float
    z_psi: float
    omega_identity: float
    omega_ground: float
    s_rho: float
    bio_residual: float
    kms_residual: float
    d_z0: float | None
    d_z_phi: float | None
    d_z_psi: float | None
    d_s_rho: float | None


def sweep_columns(axis_name: str) -> tuple[str, ...]:
    return (
        axis_name,
        "Z0",
        "Zphi",
        "Zpsi",
        "omega_identity",
        "omega_ground",
        "S_rho",
        "bio_residual",
        "kms_residual",
        "dZ0",
        "dZphi",
        "dZpsi",
        "dS_rho",
    )


def _sweep_row(spec: ModelSpec, axis_value: float, prev: SweepRow | None) -> SweepRow:
    inst = instantiate(spec)
    system, spectrum = inst.system, inst.spectrum
    z = partition_constants(system, spectrum)
    state = gibbs_state(system, spectrum, "phi")
    omega_id = omega_sum(state, np.eye(spec.n, dtype=complex)).real
    ground = np.zeros((spec.n, spec.n), dtype=complex)
    ground[0, 0] = 1.0
    omega_ground = omega_sum(state, ground).real
    # only S_rho is read: the pair's four N x N arrays go before the KMS peak
    s_rho = entropy_mod.entropy_generalized(
        entropy_mod.build_density(system, spectrum, normalize=True)
    )
    sf = kms_mod.strip_function(state, ground, ground)
    res = kms_mod.verify_kms_like(sf, SWEEP_T_GRID)
    kms_res = max(res.max_real, res.max_shifted)

    def diff(value: float, prev_value: float | None) -> float | None:
        return None if prev_value is None else abs(value - prev_value)

    return SweepRow(
        axis=axis_value,
        z0=z.z0,
        z_phi=z.z_phi,
        z_psi=z.z_psi,
        omega_identity=omega_id,
        omega_ground=omega_ground,
        s_rho=s_rho,
        bio_residual=system.pair_deviation,
        kms_residual=kms_res,
        d_z0=diff(z.z0, prev.z0 if prev else None),
        d_z_phi=diff(z.z_phi, prev.z_phi if prev else None),
        d_z_psi=diff(z.z_psi, prev.z_psi if prev else None),
        d_s_rho=diff(s_rho, prev.s_rho if prev else None),
    )


def convergence_sweep(spec: ModelSpec, n_values: Sequence[int]) -> list[SweepRow]:
    """Per-N partition constants, states, entropy and residuals.

    For summable families the successive-difference columns shrink
    monotonically toward the truncation limit.
    """
    if not n_values:
        raise BadModel("sweep needs at least one dimension")
    if list(n_values) != sorted(n_values):
        raise BadModel("sweep dimensions must be ascending")
    rows: list[SweepRow] = []
    prev = None
    for n in n_values:
        row = _sweep_row(replace(spec, n=int(n)), int(n), prev)
        rows.append(row)
        prev = row
    return rows


def beta_sweep(spec: ModelSpec, beta_values: Sequence[float]) -> list[SweepRow]:
    """Same columns swept over inverse temperature at fixed N."""
    if not beta_values:
        raise BadModel("sweep needs at least one beta")
    rows: list[SweepRow] = []
    for beta in beta_values:
        rows.append(_sweep_row(replace(spec, beta=float(beta)), float(beta), None))
    return rows
