"""Repeated soft measurements and their continuous diffusion limit.

Repeating a soft measurement ``n`` times with a fresh meter copy per step
multiplies the entanglement matrix entrywise (``R -> R**n``) and raises the
meter Gram matrix to the elementwise n-th power. Although the accumulated
meter lives in an n-fold tensor space, only a ``D``-dimensional collective
subspace is ever populated, so all joint states here are expressed in that
fixed basis.

For a two-level meter the elementwise Gram powers admit closed forms, and
letting the per-step angle shrink as the step count grows produces a
diffusion limit governed by a decay rate ``kappa`` (off-diagonal Gram
modulus ``exp(-kappa*t)``), a phase drift ``chi_dot`` and a complex external
dephasing rate ``r_dot``.

Index layout: ``joint_dm_repeated`` orders factors meter (x) object, while
``joint_dm_continuous`` orders them object (x) meter, matching the closed
4x4 form it implements. Both document this in their docstrings; the partial
trace helper in :mod:`softmeas.matcore` handles either layout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidMeasurement, InvalidParams
from .matcore import (
    RANK_TOL,
    _dagger,
    _entrywise,
    _first,
    _label,
    _member,
    inv_sqrt_psd,
    matrix_sqrt_psd,
    validate_density_matrix,
)
from .measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    _check_correlation_matrix,
    validate_soft,
)


def _counts(n: int | np.ndarray, what: str = "repetition count") -> int | np.ndarray:
    """``n`` as an ``int``, or an integer array for a stack of counts.

    Raises :class:`InvalidParams` unless every count is at least 1, naming
    the first failing member of an array.
    """
    if np.ndim(n) == 0:
        if int(n) < 1:
            raise InvalidParams(f"{what} must be >= 1, got {n}")
        return int(n)
    counts = np.asarray(n)
    if counts.dtype.kind not in "iu":
        raise InvalidParams(f"{what}s must be integers, got dtype {counts.dtype}")
    i = _first(counts < 1)
    if i is not None:
        raise InvalidParams(f"{what}{_label(i)} must be >= 1, got {counts[i]}", index=i)
    return counts.astype(np.int64)


@dataclass(frozen=True)
class RepeatedMeasurement:
    """A base soft measurement applied ``n`` times with result accumulation.

    ``n`` may be an integer array: the object then stands for one repeated
    measurement per count, and the functions below return stacks.
    """

    base: SoftMeasurement
    n: int | np.ndarray = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _counts(self.n))


@dataclass(frozen=True)
class CollectiveRepresentation:
    """Collective-basis description of ``n`` accumulated meter copies.

    ``gram_n`` is the elementwise n-th Gram power; column ``i`` of
    ``meter_vectors`` holds the collective-basis coordinates of the i-th
    accumulated meter state (``meter_vectors^dagger @ meter_vectors ==
    gram_n``); row ``k`` of ``basis_coeffs`` expands the k-th orthonormal
    collective basis vector over the accumulated meter states. For
    linearly dependent meter sets the expansion is restricted to the range
    of ``gram_n`` (eigenvalues above ``rank_tol`` times the largest) and
    ``active_dim`` may be smaller than the meter count.

    ``basis_coeffs`` and ``active_dim`` are computed when first read. For
    an array of counts every field is stacked, one member per count.
    """

    gram_n: np.ndarray
    meter_vectors: np.ndarray
    rank_tol: float = RANK_TOL

    @cached_property
    def basis_coeffs(self) -> np.ndarray:
        return inv_sqrt_psd(self.gram_n, rank_tol=self.rank_tol).conj()

    @cached_property
    def active_dim(self) -> int | np.ndarray:
        eigs = np.linalg.eigvalsh(self.gram_n)
        active = np.sum(eigs > self.rank_tol * np.maximum(eigs[..., -1:], 0.0), axis=-1)
        return int(active) if active.ndim == 0 else active


def gram_power(gram: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """Elementwise n-th power of a Gram matrix; an array of counts gives the
    stack of powers, one member per count.

    The Schur product of PSD matrices is PSD and the diagonal stays 1, so
    the result is again a valid Gram matrix.
    """
    n = _counts(n, "power")
    gram = np.asarray(gram, dtype=complex)
    if np.ndim(n) == 0:
        return gram**n
    powers = gram ** n[..., None, None]
    # ``gram**2`` takes numpy's square loop, which can differ from the power
    # loop in the last ulp for complex entries; match the single-count call.
    powers[n == 2] = np.square(gram)
    return powers


def collective_representation(
    gram: np.ndarray, n: int | np.ndarray, rank_tol: float = RANK_TOL
) -> CollectiveRepresentation:
    """Collective-basis data for ``n`` repeated measurements; an array of
    counts gives stacked data from one stacked square root."""
    _check_correlation_matrix(np.asarray(gram, dtype=complex), "gram").require()
    gram_n = gram_power(gram, n)
    return CollectiveRepresentation(gram_n, matrix_sqrt_psd(gram_n), rank_tol)


def _meter_vectors(
    representation: CollectiveRepresentation | None, gram: np.ndarray, n: int | np.ndarray
) -> np.ndarray:
    """Collective meter vectors for ``n`` steps of ``gram``, taken from the
    caller's representation when one is given and matches."""
    if representation is None:
        return collective_representation(gram, n).meter_vectors
    _check_correlation_matrix(np.asarray(gram, dtype=complex), "gram").require()
    if not np.array_equal(representation.gram_n, gram_power(gram, n)):
        raise InvalidMeasurement("representation is not that of this Gram matrix and count")
    return representation.meter_vectors


def joint_dm_repeated(
    rho: np.ndarray,
    repeated: RepeatedMeasurement,
    validate: bool = True,
    representation: CollectiveRepresentation | None = None,
) -> np.ndarray:
    """Joint meter-object state after ``n`` accumulated measurements.

    Factor order is meter (x) object (row index ``k * D + i`` with ``k``
    collective-meter, ``i`` object). Entry ``((k,i),(l,j))`` is
    ``R[i,j]**n * rho[i,j] * V[k,i] * conj(V[l,j])`` with ``V`` the
    collective meter vectors. An array of counts gives one joint state per
    count. ``representation`` lets a caller pass the
    :func:`collective_representation` of the base Gram matrix for the same
    counts, for instance to share one with :func:`meter_dm_repeated`.
    """
    rho = np.asarray(rho, dtype=complex)
    base = repeated.base
    if validate:
        validate_soft(base).require()
        validate_density_matrix(rho)
    d = base.dim
    if rho.shape != (d, d):
        raise InvalidMeasurement(f"rho has shape {rho.shape}, measurement dim is {d}")
    weights = gram_power(base.entanglement, repeated.n) * rho
    vectors = _meter_vectors(representation, base.gram, repeated.n)
    joint = np.einsum("...ij,...ki,...lj->...kilj", weights, vectors, vectors.conj())
    return joint.reshape(joint.shape[:-4] + (d * d, d * d))


def meter_dm_repeated(
    rho: np.ndarray,
    gram: np.ndarray,
    n: int | np.ndarray,
    representation: CollectiveRepresentation | None = None,
) -> np.ndarray:
    """Reduced meter state after ``n`` measurements, in the collective basis.

    Depends only on the object populations (the entanglement matrix drops
    out entirely): ``V @ diag(rho_kk) @ V^dagger``. An array of counts gives
    one state per count; ``representation`` is as in
    :func:`joint_dm_repeated`.
    """
    rho = np.asarray(rho, dtype=complex)
    vectors = _meter_vectors(representation, gram, n)
    populations = np.diagonal(rho, axis1=-2, axis2=-1).real
    return (vectors * populations[..., None, :]) @ _dagger(vectors)


def _two_level_matrix(diag, upper, lower) -> np.ndarray:
    """The stack of ``[[diag, upper], [lower, diag]]`` over the broadcast entries."""
    shape = np.broadcast_shapes(np.shape(diag), np.shape(upper), np.shape(lower))
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = diag
    out[..., 0, 1], out[..., 1, 0] = upper, lower
    return out


def _two_level_root(c: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``[[s_plus, phase*s_minus], [conj(phase)*s_minus, s_plus]]`` with
    ``s_pm = (sqrt(1 + c) +- sqrt(1 - c)) / 2``, per entry: the principal
    square root of the two-level Gram matrix with off-diagonal ``phase*c``."""
    plus = 0.5 * (np.sqrt(1.0 + c) + np.sqrt(1.0 - c))
    minus = 0.5 * (np.sqrt(1.0 + c) - np.sqrt(1.0 - c))
    return _two_level_matrix(plus, phase * minus, np.conj(phase) * minus)


def two_level_gram_sqrt(params: TwoLevelMeterParams, n: int | np.ndarray) -> np.ndarray:
    """Closed form of the principal square root of the two-level Gram power.

    With ``c = cos(theta/2)**n`` the diagonal is
    ``(sqrt(1+c) + sqrt(1-c)) / 2`` and the off-diagonal carries the
    accumulated phase ``exp(i*n*chi)`` times ``(sqrt(1+c) - sqrt(1-c)) / 2``.
    An integer array of counts gives the ``(..., 2, 2)`` stack, one member
    per count. The power, cosine and sine come from libm, one count at a
    time, so each member holds the floats of the scalar ``math``/``cmath``
    formula.
    """
    n = np.asarray(_counts(n))
    c = _entrywise(pow, math.cos(params.theta / 2.0), n)
    # ``cmath.exp(1j*n*chi)`` is libm's cosine and sine of ``n*chi``.
    angle = n * params.chi
    phase = np.empty(n.shape, dtype=complex)
    phase.real, phase.imag = _entrywise(math.cos, angle), _entrywise(math.sin, angle)
    return _two_level_root(c, phase)


@dataclass(frozen=True)
class ContinuousLimitParams:
    """Rates and elapsed time of the continuous measurement limit.

    ``kappa`` is the Gram decay rate (off-diagonal modulus ``exp(-kappa*t)``),
    ``chi_dot`` the phase drift, ``r_dot`` the complex external dephasing
    rate and ``t`` the elapsed time. ``t`` may be an array: the functions
    below then return stacks, one member per time, and a failing check on
    ``t`` names its first failing member.
    """

    kappa: float
    t: float | np.ndarray
    chi_dot: float = 0.0
    r_dot: complex = 0j

    def __post_init__(self) -> None:
        for name in ("kappa", "chi_dot", "r_dot"):
            if not cmath.isfinite(complex(getattr(self, name))):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0.0:
            raise InvalidParams(f"kappa must be >= 0, got {self.kappa}")
        if complex(self.r_dot).real < 0.0:
            raise InvalidParams(f"Re(r_dot) must be >= 0, got {self.r_dot}")
        t = np.asarray(self.t, dtype=float)
        for bad, rule in ((~np.isfinite(t), "finite"), (t < 0.0, ">= 0")):
            i = _first(bad)
            if i is not None:
                raise InvalidParams(f"t must be {rule}, got {t[i]}{_member(i)}", index=i or None)
        if t.ndim:
            object.__setattr__(self, "t", t)


def continuous_gram_sqrt(params: ContinuousLimitParams) -> np.ndarray:
    """Collective meter vectors of the continuous limit.

    ``[[s_plus, e^{i chi_dot t} s_minus], [e^{-i chi_dot t} s_minus, s_plus]]``
    with ``s_pm = (sqrt(1 + e^{-kappa t}) +- sqrt(1 - e^{-kappa t})) / 2``;
    ``s_plus**2 + s_minus**2 == 1`` and the square of the matrix has
    off-diagonal ``exp(-kappa*t + i*chi_dot*t)``. An array of times gives
    the stack; the exponentials come from :mod:`math` and :mod:`cmath`.
    """
    c = _entrywise(math.exp, -params.kappa * params.t)
    phase = _entrywise(lambda t: cmath.exp(1j * params.chi_dot * t), params.t, dtype=complex)
    return _two_level_root(c, phase)


def asymptotic_gram_sqrt(params: ContinuousLimitParams) -> np.ndarray:
    """Long-time expansion of :func:`continuous_gram_sqrt`.

    Valid for large ``kappa*t`` only: diagonal ``1 - exp(-2*kappa*t)/8``,
    off-diagonal ``exp(-kappa*t +- i*chi_dot*t)/2``. An array of times
    gives the stack.
    """
    kappa, chi_dot = params.kappa, params.chi_dot
    diag = 1.0 - _entrywise(math.exp, -2.0 * (kappa * params.t)) / 8.0
    off = 0.5 * _entrywise(
        lambda t: cmath.exp(-(kappa * t) + 1j * chi_dot * t), params.t, dtype=complex
    )
    return _two_level_matrix(diag, off, np.conj(off))


def meter_dm_continuous(
    rho: np.ndarray, params: ContinuousLimitParams, validate: bool = True
) -> np.ndarray:
    """Reduced meter state of the continuous measurement, collective basis.

    Starts at the pure state with coordinates ``(1/sqrt2, 1/sqrt2)`` at
    ``t = 0`` and diagonalizes onto the object populations as
    ``kappa * t -> inf``. Off-diagonal is
    ``exp(-kappa*t + i*chi_dot*t) / 2``. An array of times gives one state
    per time.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_density_matrix(rho)
    if rho.shape != (2, 2):
        raise InvalidParams(f"continuous limit is two-level, rho has shape {rho.shape}")
    vectors = continuous_gram_sqrt(params)
    return (vectors * np.diag(rho).real) @ _dagger(vectors)


def _dephasing_matrix(params: ContinuousLimitParams) -> np.ndarray:
    """``[[1, off], [conj(off), 1]]`` with ``off = exp(-r_dot*t)``, per time."""
    r_dot = complex(params.r_dot)
    off = _entrywise(lambda t: cmath.exp(-r_dot * t), params.t, dtype=complex)
    return _two_level_matrix(1.0, off, np.conj(off))


def joint_dm_continuous(
    rho: np.ndarray, params: ContinuousLimitParams, validate: bool = True
) -> np.ndarray:
    """Joint object-meter state of the continuous measurement, as a 4x4.

    Factor order is object (x) meter: the ``(i, j)`` object block equals
    ``rho[i,j]`` times the external dephasing factor ``exp(-r_dot*t)`` (on
    off-diagonal blocks) times the meter component ``V[:,i] V[:,j]^dagger``
    built from :func:`continuous_gram_sqrt`. At ``t = 0`` this is
    ``rho (x) |u><u|`` with ``u = (1/sqrt2, 1/sqrt2)``. An array of times
    gives the stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_density_matrix(rho)
    if rho.shape != (2, 2):
        raise InvalidParams(f"continuous limit is two-level, rho has shape {rho.shape}")
    vectors = continuous_gram_sqrt(params)
    weights = _dephasing_matrix(params) * rho
    joint = np.einsum("...ij,...ki,...lj->...ikjl", weights, vectors, vectors.conj())
    return joint.reshape(joint.shape[:-4] + (4, 4))


# The kappa conventions: step-angle factor f (theta**2 = f*kappa*dt) and
# overlap-rate factor g (meter overlap exp(-g*kappa*t)).
_CONVENTIONS = {"gram": (8.0, 1.0), "paper": (4.0, 2.0)}


def _convention(name: str) -> tuple[float, float]:
    """The factors of the named convention; :class:`InvalidParams` for another name."""
    if name not in _CONVENTIONS:
        expected = " or ".join(map(repr, _CONVENTIONS))
        raise InvalidParams(f"unknown convention {name!r}, expected {expected}")
    return _CONVENTIONS[name]


def discrete_step_params(
    kappa: float,
    chi_dot: float,
    r_dot: complex,
    dt: float,
    convention: str = "gram",
) -> tuple[TwoLevelMeterParams, complex]:
    """Per-step parameters whose n-fold repetition approaches the limit.

    Returns the two-level meter angles and the off-diagonal entanglement
    entry for one step of length ``dt``. Under the default ``gram``
    convention the step angle satisfies ``theta**2 = 8*kappa*dt`` so that
    the accumulated Gram off-diagonal decays as ``exp(-kappa*t)``; the
    alternative ``paper`` convention uses ``theta**2 = 4*kappa*dt`` (decay
    ``exp(-kappa*t/2)``). ``chi_dot`` and ``r_dot`` are checked as in
    :class:`ContinuousLimitParams`.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise InvalidParams(f"kappa must be finite and >= 0, got {kappa}")
    for name, rate in (("chi_dot", chi_dot), ("r_dot", r_dot)):
        if not cmath.isfinite(complex(rate)):
            raise InvalidParams(f"{name} must be finite, got {rate}")
    if complex(r_dot).real < 0.0:
        raise InvalidParams(f"Re(r_dot) must be >= 0, got {r_dot}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParams(f"dt must be finite and positive, got {dt}")
    angle_factor, _ = _convention(convention)
    params = TwoLevelMeterParams(theta=math.sqrt(angle_factor * kappa * dt), chi=chi_dot * dt)
    return params, 1.0 - complex(r_dot) * dt
