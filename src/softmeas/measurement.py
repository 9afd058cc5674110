"""Soft nondemolition measurement channels.

A soft measurement couples an object in a fixed orthogonal basis to a meter
whose readout states may be mutually nonorthogonal. It is parameterized by
two Hermitian PSD unit-diagonal matrices:

* ``entanglement`` -- residual phase correlations between measured basis
  states (identity = projective readout, all-ones = fully coherent copy);
* ``gram`` -- scalar products of the meter states (identity = perfectly
  distinguishable outcomes, all-ones = a single meter state, no measurement).

Meter states are synthesized minimally in a space of the object's dimension
as the columns of the principal square root of the Gram matrix, which fixes
all global phases and makes outputs reproducible.

Joint states returned by the ``apply_*`` functions live on
``H_object (x) H_meter`` with the object index major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMeasurement,
    OutOfRange,
    ZeroDt,
)
from .matcore import (
    TAU_HERM,
    TAU_PSD,
    TAU_TRACE,
    _first,
    _hermitian_deviation,
    _hermitian_part,
    _label,
    matrix_sqrt_psd,
    validate_density_matrix,
)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation; ``failures`` lists each failed check.

    When stacks of matrices were checked, ``index`` is the first failing
    stack member over all checks (C order), else None.
    """

    failures: tuple[str, ...] = ()
    index: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def __add__(self, other: ValidationReport) -> ValidationReport:
        indices = [i for i in (self.index, other.index) if i is not None]
        return ValidationReport(self.failures + other.failures, min(indices, default=None))

    def require(self) -> None:
        """Raise :class:`InvalidMeasurement` naming every failed check."""
        if self.failures:
            raise InvalidMeasurement("; ".join(self.failures), index=self.index)


def _check_correlation_matrix(mat: np.ndarray, name: str) -> ValidationReport:
    """Checks shared by entanglement and Gram matrices, or stacks of them.

    Both must be Hermitian, PSD and unit-diagonal; unit diagonal plus PSD
    already bounds every off-diagonal modulus by one, but the bound is
    reported separately because it is the first thing that breaks when a
    matrix is edited by hand. A matrix with a non-finite entry is not
    Hermitian. PSD is checked only on the members that are Hermitian. Each
    failure names the first stack member that fails it.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return ValidationReport((f"{name} must be square, got shape {m.shape}",))
    failures: list[str] = []
    first: list[tuple[int, ...]] = []

    def check(bad: np.ndarray, message) -> None:
        i = _first(bad)
        if i is not None:
            failures.append(message(i))
            first.append(i)

    not_herm = ~(_hermitian_deviation(m) <= TAU_HERM)
    check(not_herm, lambda i: f"{name}{_label(i)} is not Hermitian within {TAU_HERM:.1e}")
    if not not_herm.all():
        checked = np.where(not_herm[..., None, None], np.eye(m.shape[-1]), m)
        w = np.linalg.eigvalsh(_hermitian_part(checked))
        check(
            (w[..., 0] < -TAU_PSD) & ~not_herm,
            lambda i: f"{name}{_label(i)} is not PSD: eigenvalue {w[i][0]:.3e}",
        )
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    check(
        np.max(np.abs(diag - 1.0), axis=-1) > TAU_TRACE,
        lambda i: f"{name}{_label(i)} diagonal is not identically 1",
    )
    check(
        np.max(np.abs(m), axis=(-2, -1)) > 1.0 + TAU_TRACE,
        lambda i: f"{name}{_label(i)} has an entry with modulus > 1",
    )
    index = min(first, default=()) or None
    return ValidationReport(tuple(failures), index)


@dataclass(frozen=True)
class SoftMeasurement:
    """Soft measurement with entanglement matrix and meter Gram matrix."""

    entanglement: np.ndarray
    gram: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entanglement", np.asarray(self.entanglement, dtype=complex))
        object.__setattr__(self, "gram", np.asarray(self.gram, dtype=complex))

    @property
    def dim(self) -> int:
        return int(np.asarray(self.entanglement).shape[0])


def validate_soft(measurement: SoftMeasurement) -> ValidationReport:
    """Validate a soft measurement, returning a report of failed checks."""
    report = _check_correlation_matrix(measurement.entanglement, "entanglement")
    report += _check_correlation_matrix(measurement.gram, "gram")
    r, q = np.asarray(measurement.entanglement), np.asarray(measurement.gram)
    if r.shape != q.shape:
        report += ValidationReport((f"entanglement shape {r.shape} != gram shape {q.shape}",))
    return report


def meter_states_from_gram(gram: np.ndarray) -> np.ndarray:
    """Synthesize unit vectors realizing a given Gram matrix.

    Returns a ``D x D`` matrix whose column ``i`` is the i-th meter state;
    the columns satisfy ``<v_k|v_l> = gram[k, l]``. The principal square
    root fixes the otherwise free global phases. A ``(..., D, D)`` stack of
    Gram matrices gives the stack of their meter-state matrices.
    """
    q = np.asarray(gram, dtype=complex)
    _check_correlation_matrix(q, "gram").require()
    return matrix_sqrt_psd(q)


def apply_soft(
    measurement: SoftMeasurement, rho: np.ndarray, validate: bool = True
) -> np.ndarray:
    """Apply a soft measurement to an object state.

    Returns the joint object-meter density matrix on ``H_A (x) H_B`` with
    entries ``entanglement[k,l] * rho[k,l]`` on the ``|k><l| (x) |v_k><v_l|``
    components, where ``v_k`` are the synthesized meter states. Tracing out
    the meter leaves ``entanglement[k,l] * conj(gram[k,l]) * rho[k,l]``; for
    real Gram matrices that conjugate is invisible.

    The measurement and ``rho`` are checked once, by :func:`validate_soft`
    and :func:`validate_density_matrix`. ``validate=False`` skips both
    structural checks of the entanglement and Gram matrices alike; the
    square root that synthesizes the meter states still refuses a Gram
    matrix that is not Hermitian or not PSD.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_soft(measurement).require()
        validate_density_matrix(rho)
    d = measurement.dim
    if rho.shape != (d, d):
        raise DimensionMismatch(f"rho has shape {rho.shape}, measurement dim is {d}")
    vecs = matrix_sqrt_psd(measurement.gram)
    weights = measurement.entanglement * rho
    joint = np.einsum("kl,ak,bl->kalb", weights, vecs, vecs.conj())
    return joint.reshape(d * d, d * d)


def apply_entangling(
    entanglement: np.ndarray, rho: np.ndarray, validate: bool = True
) -> np.ndarray:
    """Entangling measurement: soft measurement with orthogonal meter states."""
    d = np.asarray(entanglement).shape[0]
    return apply_soft(
        SoftMeasurement(entanglement, np.eye(d)), rho, validate=validate
    )


@dataclass(frozen=True)
class GeneralMeasurement:
    """Nondemolition measurement with arbitrary meter blocks.

    ``blocks[k, l]`` is the ``meter_dim x meter_dim`` operator attached to
    the object component ``|k><l|``. The assembled block operator must be
    Hermitian PSD with unit-trace diagonal blocks.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=complex))

    @property
    def dim(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def meter_dim(self) -> int:
        return int(self.blocks.shape[2])

    def assembled(self) -> np.ndarray:
        """The blocks as one ``(dim * meter_dim)``-square matrix."""
        d, m = self.dim, self.meter_dim
        return self.blocks.transpose(0, 2, 1, 3).reshape(d * m, d * m)


def validate_general(measurement: GeneralMeasurement) -> ValidationReport:
    failures = []
    b = measurement.blocks
    if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
        return ValidationReport((f"blocks must have shape (D, D, m, m), got {b.shape}",))
    big = measurement.assembled()
    if not _hermitian_deviation(big) <= TAU_HERM:
        failures.append("assembled block operator is not Hermitian")
    else:
        w = np.linalg.eigvalsh(_hermitian_part(big))
        if w[0] < -TAU_PSD:
            failures.append(f"assembled block operator is not PSD: eigenvalue {w[0]:.3e}")
    for k in range(measurement.dim):
        tr = complex(np.trace(b[k, k]))
        if abs(tr - 1.0) > TAU_TRACE:
            failures.append(f"diagonal block {k} has trace {tr:.12g}, expected 1")
    return ValidationReport(tuple(failures))


def apply_general(
    measurement: GeneralMeasurement, rho: np.ndarray, validate: bool = True
) -> np.ndarray:
    """Apply a general nondemolition measurement.

    Output on ``H_A (x) H_B`` is ``sum_kl rho[k,l] |k><l| (x) blocks[k,l]``;
    the object populations ``rho[k,k]`` survive unchanged in the reduced
    object state.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_general(measurement).require()
        validate_density_matrix(rho)
    d, m = measurement.dim, measurement.meter_dim
    if rho.shape != (d, d):
        raise DimensionMismatch(f"rho has shape {rho.shape}, measurement dim is {d}")
    joint = np.einsum("kl,klab->kalb", rho, measurement.blocks)
    return joint.reshape(d * m, d * m)


@dataclass(frozen=True)
class TwoLevelMeterParams:
    """Two-state meter set: opening angle ``theta``, common phase ``phi``
    (no observable may depend on it) and differential phase ``chi``."""

    theta: float
    phi: float = 0.0
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise OutOfRange(f"theta must lie in [0, pi], got {self.theta}")
        for name in ("phi", "chi"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"{name} must be finite, got {getattr(self, name)}")


def two_level_meter_states(params: TwoLevelMeterParams) -> np.ndarray:
    """Explicit two-level meter states, one per column.

    State 0 is the first basis vector; state 1 is tilted by ``theta`` with
    phases ``chi`` (global) and ``phi`` (relative).
    """
    half = params.theta / 2.0
    second = np.exp(1j * params.chi) * np.array(
        [math.cos(half), np.exp(1j * params.phi) * math.sin(half)]
    )
    return np.column_stack([np.array([1.0, 0.0], dtype=complex), second])


def two_level_gram(params: TwoLevelMeterParams) -> np.ndarray:
    """Gram matrix of the two-level meter set; off-diagonal
    ``exp(i*chi) * cos(theta/2)`` regardless of ``phi``."""
    off = np.exp(1j * params.chi) * math.cos(params.theta / 2.0)
    return np.array([[1.0, off], [np.conj(off), 1.0]])


@dataclass(frozen=True)
class GeneratorRates:
    """Angular rates driving an infinitesimal two-level measurement step."""

    theta_dot: float
    chi_dot: float
    hbar: float = 1.0


def generator_two_level(rates: GeneratorRates) -> tuple[np.ndarray, np.ndarray]:
    """Meter Hamiltonians generating the infinitesimal two-level measurement.

    The generator attached to object state 0 vanishes; the one attached to
    state 1 is ``hbar * [[-2*chi_dot, i*theta_dot], [-i*theta_dot, 0]]``.
    """
    eps0 = np.zeros((2, 2), dtype=complex)
    eps1 = rates.hbar * np.array(
        [[-2.0 * rates.chi_dot, 1j * rates.theta_dot], [-1j * rates.theta_dot, 0.0]]
    )
    return eps0, eps1


def generator_general(
    delta_states: Sequence[np.ndarray], dt: float, hbar: float = 1.0
) -> list[np.ndarray]:
    """Meter Hamiltonians from first-order meter-state displacements.

    ``delta_states[k]`` is the displacement of meter state ``k`` away from
    the reference state (the first basis vector) accumulated over ``dt``.
    Each generator is ``i * (hbar/dt) * (|delta_k><0| - |0><delta_k|)``,
    i.e. the ``i * (a - a^dagger)`` form, Hermitian by construction.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        rule = "positive" if math.isfinite(dt) else "finite and positive"
        raise ZeroDt(f"dt must be {rule}, got {dt}")
    generators = []
    for delta in delta_states:
        d = np.asarray(delta, dtype=complex)
        e0 = np.zeros_like(d)
        e0[0] = 1.0
        ladder = np.outer(d, e0)
        generators.append(1j * (hbar / dt) * (ladder - ladder.conj().T))
    return generators
