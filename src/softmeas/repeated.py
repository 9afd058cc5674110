"""Repeated soft measurements and their continuous diffusion limit.

Repeating a soft measurement ``n`` times with a fresh meter copy per step
multiplies the entanglement matrix entrywise (``R -> R**n``) and raises the
meter Gram matrix to the elementwise n-th power. Although the accumulated
meter lives in an n-fold tensor space, only a ``D``-dimensional collective
subspace is ever populated, so all joint states here are expressed in that
fixed basis. A :class:`RepeatedMeasurement` is fixed by its base
measurement and ``n``: it derives both powers and the collective meter
vectors once, when it is built, and the functions that take one read them.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .matcore import (
    StateLike,
    _entrywise,
    _first,
    _state,
    _unchecked_sqrt,
)
from .measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    _meter_mix,
    _single_dim,
)


def _counts(n: int | np.ndarray) -> int | np.ndarray:
    """``n`` as an ``int``, or an ``int64`` array for a stack of counts.

    Raises :class:`InvalidParams` unless every count is an integer of at
    least 1, naming the first failing member of an array. A scalar is
    checked as a 0-d array, so ``2.5`` is rejected as ``[2.5]`` is.
    """
    counts = np.asarray(n)
    if counts.dtype.kind not in "iu":
        raise InvalidParams(f"repetition counts must be integers, got dtype {counts.dtype}")
    i = _first(counts < 1)
    if i is not None:
        raise InvalidParams(f"repetition count must be >= 1, got {counts[i]}", index=i)
    return int(counts) if counts.ndim == 0 else counts.astype(np.int64)


def _schur_power(matrix: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """Elementwise n-th power of ``matrix`` for counts already checked by
    :func:`_counts`, each entry's modulus capped at 1; an array of counts
    gives the stack of powers."""
    if np.ndim(n) == 0:
        powers = matrix**n
    else:
        powers = matrix ** n[..., None, None]
        # ``matrix**2`` takes numpy's square loop, which can differ from the
        # power loop in the last ulp for complex entries; match the
        # single-count call.
        powers[n == 2] = np.square(matrix)
    # No power of a correlation entry exceeds modulus 1, but an entry whose
    # float modulus is 1 plus an ulp grows to about e^100 at counts near
    # 1e18; such powers are scaled back to modulus 1. Every other power
    # keeps its bits, the sign of a zero included.
    modulus = np.abs(powers)
    big = modulus > 1.0
    powers[big] /= modulus[big]
    return powers


@dataclass(frozen=True, eq=False)
class RepeatedMeasurement:
    """A base soft measurement applied ``n`` times with result accumulation.

    Everything the repetition derives from ``(base, n)`` is computed once,
    when it is built: ``entanglement_n`` (``R**n`` entrywise), ``gram_n``
    (``Q**n`` entrywise) and the collective meter vectors
    ``meter_vectors``, the principal square root of ``gram_n``. The base
    was checked when it was built and must be one ``D x D`` pair;
    :class:`DimensionMismatch` names the shape of a stacked one. ``gram_n``
    is PSD by construction and is not checked again: its rounding grows
    with ``n``, so a base that passed its own check could fail one here.

    ``n`` may be an integer array: the object then stands for one repeated
    measurement per count, and every derived field and the functions below
    give stacks, one member per count.
    """

    base: SoftMeasurement
    n: int | np.ndarray = 1
    entanglement_n: np.ndarray = field(init=False, repr=False)
    gram_n: np.ndarray = field(init=False, repr=False)
    meter_vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = _counts(self.n)
        _single_dim(self.base, "base measurement")
        gram_n = _schur_power(self.base.gram, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entanglement_n", _schur_power(self.base.entanglement, n))
        object.__setattr__(self, "gram_n", gram_n)
        object.__setattr__(self, "meter_vectors", _unchecked_sqrt(gram_n))

    @property
    def multiplier(self) -> np.ndarray:
        """``entanglement_n * conj(gram_n)`` entrywise (``R**n * conj(Q**n)``):
        the Hadamard multiplier of the object-output channel of ``n`` steps,
        which is what tracing the meter out of :func:`joint_dm_repeated`
        leaves."""
        return self.entanglement_n * self.gram_n.conj()


def collective_representation(gram: np.ndarray, n: int | np.ndarray) -> RepeatedMeasurement:
    """``n`` repetitions of the Gram matrix ``gram`` with identity
    entanglement: its ``gram_n`` and collective ``meter_vectors`` are those
    of every measurement with this Gram matrix. Kept for the benchmark's
    layer trace, which counts its calls by name."""
    return RepeatedMeasurement(SoftMeasurement(np.eye(np.atleast_1d(gram).shape[-1]), gram), n)


def joint_dm_repeated(rho: StateLike, repeated: RepeatedMeasurement) -> np.ndarray:
    """Joint meter-object state after ``n`` accumulated measurements.

    Factor order is meter (x) object (row index ``k * D + i`` with ``k``
    collective-meter, ``i`` object). Entry ``((k,i),(l,j))`` is
    ``R[i,j]**n * rho[i,j] * V[k,i] * conj(V[l,j])`` with ``V`` the
    collective meter vectors that ``repeated`` holds. An array of counts
    gives one joint state per count. ``rho`` must be one ``D x D`` state of
    the measured object.
    """
    d = repeated.base.dim
    weights = repeated.entanglement_n * _state(rho, d).matrix
    vectors = repeated.meter_vectors
    joint = np.einsum("...ij,...ki,...lj->...kilj", weights, vectors, vectors.conj())
    return joint.reshape(joint.shape[:-4] + (d * d, d * d))


def meter_dm_repeated(rho: StateLike, repeated: RepeatedMeasurement) -> np.ndarray:
    """Reduced meter state after ``n`` measurements, in the collective basis.

    Depends only on the object populations (the entanglement matrix drops
    out entirely): ``V @ diag(rho_kk) @ V^dagger`` with ``V`` the collective
    meter vectors that ``repeated`` holds. ``rho`` is checked as in
    :func:`joint_dm_repeated`. An array of counts gives one state per count.
    """
    rho = _state(rho, repeated.base.dim).matrix
    return _meter_mix(repeated.meter_vectors, np.diagonal(rho).real)


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


def _check_phase(name: str, rate: float, times: float | np.ndarray, decay: float = 0.0) -> None:
    """Raise :class:`InvalidParams` naming the phase ``name`` and the first
    member of ``times`` (counts or times) at which the accumulated phase
    ``rate * time`` overflows, which ``math.cos``, ``math.sin`` and
    ``cmath.exp`` reject. A member at which the decay exponent
    ``decay * time`` overflows too is exactly 0 whatever its phase, and
    passes."""
    with np.errstate(over="ignore"):
        i = _first(np.isinf(np.multiply(rate, times)) & ~np.isinf(np.multiply(decay, times)))
    if i is not None:
        raise InvalidParams(f"accumulated phase {name} is not finite", index=i)


def two_level_gram_sqrt(params: TwoLevelMeterParams, n: int | np.ndarray) -> np.ndarray:
    """Closed form of the principal square root of the two-level Gram power.

    With ``c = cos(theta/2)**n`` the diagonal is
    ``(sqrt(1+c) + sqrt(1-c)) / 2`` and the off-diagonal carries the
    accumulated phase ``exp(i*n*chi)`` times ``(sqrt(1+c) - sqrt(1-c)) / 2``.
    An integer array of counts gives the ``(..., 2, 2)`` stack, one member
    per count. The power, cosine and sine come from libm, one count at a
    time, so each member holds the floats of the scalar ``math``/``cmath``
    formula. :class:`InvalidParams` names the first count whose phase
    ``n*chi`` overflows.
    """
    n = np.asarray(_counts(n))
    c = _entrywise(pow, math.cos(params.theta / 2.0), n)
    _check_phase("n*chi", params.chi, n)
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
                raise InvalidParams(f"t must be {rule}, got {t[i]}", index=i)
        if t.ndim:
            object.__setattr__(self, "t", t)


def continuous_gram_sqrt(params: ContinuousLimitParams) -> np.ndarray:
    """Collective meter vectors of the continuous limit.

    ``[[s_plus, e^{i chi_dot t} s_minus], [e^{-i chi_dot t} s_minus, s_plus]]``
    with ``s_pm = (sqrt(1 + e^{-kappa t}) +- sqrt(1 - e^{-kappa t})) / 2``;
    ``s_plus**2 + s_minus**2 == 1`` and the square of the matrix has
    off-diagonal ``exp(-kappa*t + i*chi_dot*t)``. An array of times gives
    the stack; the exponentials come from :mod:`math` and :mod:`cmath`.
    :class:`InvalidParams` names the first time whose phase ``chi_dot*t``
    overflows.
    """
    _check_phase("chi_dot*t", params.chi_dot, params.t)
    c = _entrywise(lambda t: math.exp(-params.kappa * t), params.t)
    phase = _entrywise(lambda t: cmath.exp(1j * params.chi_dot * t), params.t, dtype=complex)
    return _two_level_root(c, phase)


def meter_dm_continuous(rho: StateLike, params: ContinuousLimitParams) -> np.ndarray:
    """Reduced meter state of the continuous measurement, collective basis.

    Starts at the pure state with coordinates ``(1/sqrt2, 1/sqrt2)`` at
    ``t = 0`` and diagonalizes onto the object populations as
    ``kappa * t -> inf``. Off-diagonal is
    ``exp(-kappa*t + i*chi_dot*t) / 2``. An array of times gives one state
    per time. ``rho`` must be one two-level state.
    """
    rho = _state(rho, 2).matrix
    return _meter_mix(continuous_gram_sqrt(params), np.diag(rho).real)


def _dephasing_matrix(params: ContinuousLimitParams) -> np.ndarray:
    """``[[1, off], [conj(off), 1]]`` with ``off = exp(-r_dot*t)``, per time;
    :class:`InvalidParams` names the first time whose phase ``Im(r_dot)*t``
    overflows while its decay ``Re(r_dot)*t`` does not."""
    r_dot = complex(params.r_dot)
    _check_phase("Im(r_dot)*t", r_dot.imag, params.t, r_dot.real)
    off = _entrywise(lambda t: cmath.exp(-r_dot * t), params.t, dtype=complex)
    return _two_level_matrix(1.0, off, np.conj(off))


def joint_dm_continuous(rho: StateLike, params: ContinuousLimitParams) -> np.ndarray:
    """Joint object-meter state of the continuous measurement, as a 4x4.

    Factor order is object (x) meter: the ``(i, j)`` object block equals
    ``rho[i,j]`` times the external dephasing factor ``exp(-r_dot*t)`` (on
    off-diagonal blocks) times the meter component ``V[:,i] V[:,j]^dagger``
    built from :func:`continuous_gram_sqrt`. At ``t = 0`` this is
    ``rho (x) |u><u|`` with ``u = (1/sqrt2, 1/sqrt2)``. An array of times
    gives the stack. ``rho`` must be one two-level state.
    """
    return _continuous_joint(_state(rho, 2).matrix, params, continuous_gram_sqrt(params))


def _continuous_joint(
    rho: np.ndarray, params: ContinuousLimitParams, vectors: np.ndarray
) -> np.ndarray:
    """:func:`joint_dm_continuous` of a checked two-level ``rho`` from the
    meter vectors of :func:`continuous_gram_sqrt`."""
    weights = _dephasing_matrix(params) * rho
    joint = np.einsum("...ij,...ki,...lj->...ikjl", weights, vectors, vectors.conj())
    return joint.reshape(joint.shape[:-4] + (4, 4))


# The kappa conventions, each one overlap rate: the meter overlap decays as
# exp(-rate*kappa*t), reached by steps of angle theta**2 = 8*rate*kappa*dt.
_CONVENTIONS = {"gram": 1.0, "paper": 0.5}


def _convention(name: str) -> float:
    """The overlap rate of the named convention; :class:`InvalidParams` for another name."""
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
    ``exp(-kappa*t/2)``). ``dt`` must be finite and positive; ``kappa``,
    ``chi_dot`` and ``r_dot`` are checked by :class:`ContinuousLimitParams`.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParams(f"dt must be finite and positive, got {dt}")
    ContinuousLimitParams(kappa=kappa, t=dt, chi_dot=chi_dot, r_dot=r_dot)
    rate = _convention(convention)
    params = TwoLevelMeterParams(theta=math.sqrt(8.0 * rate * kappa * dt), chi=chi_dot * dt)
    return params, 1.0 - complex(r_dot) * dt
