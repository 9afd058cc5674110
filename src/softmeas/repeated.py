"""Repeated soft measurements and their continuous diffusion limit.

Repeating a soft measurement ``n`` times with a fresh meter copy per step
multiplies the entanglement matrix entrywise (``R -> R**n``) and raises the
meter Gram matrix to the elementwise n-th power. Although the accumulated
meter lives in an n-fold tensor space, only a ``D``-dimensional collective
subspace is ever populated, so all joint states here are expressed in that
fixed basis. The ``n`` repetitions thus act on the object as one soft
measurement: :func:`repeat_soft` returns it as a
:class:`~softmeas.measurement.SoftMeasurement` holding both powers, whose
meter states are the collective meter vectors, so every function that takes
a single measurement takes one repeated a scalar number of times too. An
array of counts gives a stacked measurement, one member per count, which
:func:`~softmeas.measurement.apply_soft`,
:func:`~softmeas.measurement.meter_state` and
:func:`~softmeas.information.coherent_info_soft` take whole.

For a two-level meter the elementwise Gram powers admit closed forms, and
letting the per-step angle shrink as the step count grows produces a
diffusion limit governed by a decay rate ``kappa`` (off-diagonal Gram
modulus ``exp(-kappa*t)``), a phase drift ``chi_dot`` and a complex external
dephasing rate ``r_dot``. At each time ``t`` the limit is again a soft
measurement: :func:`continuous_soft` returns it, with entanglement
off-diagonal ``exp(-r_dot*t)``, Gram off-diagonal
``exp(-kappa*t + i*chi_dot*t)`` and the closed-form root as its meter
states; an array of times gives the stacked measurement. So the limit's
joint state is ``apply_soft(continuous_soft(params), rho)`` and its meter
state ``meter_state(continuous_soft(params), rho)``.
:func:`discrete_step` returns one step of length ``dt`` whose ``n``-fold
repetition approaches the limit.

Index layout: :func:`~softmeas.measurement.apply_soft` is the one joint-state
route, for single, repeated and continuous measurements alike, and its
object (x) meter layout the one layout; the joint state of ``n``
repetitions is ``apply_soft(repeat_soft(base, n), rho)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .matcore import (
    _cast,
    _entrywise,
    _refuse,
    _unchecked,
)
from .measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    _single_dim,
    two_level_gram,
)


def _counts(n: int | np.ndarray) -> np.ndarray:
    """``n`` as an ``int64`` array: 0-d for a scalar count, else the stack.

    Raises :class:`InvalidParams` unless every count is an integer from 1 to
    ``2**63 - 1``, naming the first failing member of an array. A scalar is
    checked as a 0-d array, so ``2.5`` is rejected as ``[2.5]`` is. An input
    with no entries, ``[]`` as much as an empty integer array, holds no
    count to refuse and gives the empty stack.
    """
    counts = np.asarray(n)
    if not counts.size:
        return np.zeros(counts.shape, np.int64)
    if counts.dtype.kind not in "iu":
        raise InvalidParams(f"repetition counts must be integers, got dtype {counts.dtype}")
    for bad, rule in ((counts < 1, ">= 1"), (counts > 2**63 - 1, "<= 2**63 - 1")):
        _refuse(bad, InvalidParams, "repetition count must be {}, got {}", rule, counts)
    return counts.astype(np.int64)


def _schur_power(matrix: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Elementwise n-th power of ``matrix`` for counts already checked by
    :func:`_counts`, each entry's modulus capped at 1; an array of counts
    gives the stack of powers, a 0-d one a single power."""
    powers = matrix ** n[..., None, None]
    # A count of 2 takes numpy's square loop, as ``matrix**2`` does for a
    # scalar 2; the power loop can differ from it in the last ulp for
    # complex entries.
    powers[n == 2] = np.square(matrix)
    # No power of a correlation entry exceeds modulus 1, but an entry whose
    # float modulus is 1 plus an ulp grows to about e^100 at counts near
    # 1e18; such powers are scaled back to modulus 1. Every other power
    # keeps its bits, the sign of a zero included.
    modulus = np.abs(powers)
    big = modulus > 1.0
    powers[big] /= modulus[big]
    return powers


def repeat_soft(base: SoftMeasurement, n: int | np.ndarray) -> SoftMeasurement:
    """The soft measurement that ``n`` repetitions of ``base`` make: its
    entanglement matrix is ``R**n`` and its Gram matrix ``Q**n``
    (entrywise), and its meter states span the ``D``-dimensional collective
    subspace.

    ``base`` was checked when it was built and must be one ``D x D`` pair;
    :class:`DimensionMismatch` names the shape of a stacked one. The powers
    are correlation matrices by construction and are not checked again:
    their rounding grows with ``n``, so a base that passed its own check
    could fail one here. An integer array of counts gives the stacked
    measurement, one member per count.
    """
    n = _counts(n)
    _single_dim(base, "base measurement")
    return _unchecked(
        SoftMeasurement,
        entanglement=_schur_power(base.entanglement, n),
        gram=_schur_power(base.gram, n),
    )


def collective_representation(gram: np.ndarray, n: int | np.ndarray) -> SoftMeasurement:
    """:func:`repeat_soft` of ``n`` repetitions of the Gram matrix ``gram``
    with identity entanglement: its ``gram`` and ``meter_vectors`` are those
    of every repetition of a measurement with this Gram matrix. Kept for the
    benchmark's layer trace, which counts its calls by name."""
    return repeat_soft(SoftMeasurement(np.eye(np.atleast_1d(gram).shape[-1]), gram), n)


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
    passes. Both products are taken in float64, where the libm calls take
    them, so a ``longdouble`` rate whose product is past float64's range
    is refused too."""
    with np.errstate(over="ignore"):
        bad = np.isinf(np.multiply(rate, times, dtype=float))
        bad &= ~np.isinf(np.multiply(decay, times, dtype=float))
    _refuse(bad, InvalidParams, "accumulated phase {} is not finite", name)


def two_level_gram_sqrt(params: TwoLevelMeterParams, n: int | np.ndarray) -> np.ndarray:
    """Closed form of the principal square root of the two-level Gram power.

    With ``c = cos(theta/2)**n`` the diagonal is
    ``(sqrt(1+c) + sqrt(1-c)) / 2`` and the off-diagonal carries the
    accumulated phase ``exp(i*n*chi)`` times ``(sqrt(1+c) - sqrt(1-c)) / 2``.
    An integer array of counts gives the ``(..., 2, 2)`` stack, one member
    per count. The power is libm's ``pow`` through ``np.float_power``, and
    the cosine and sine come from libm one count at a time, so each member
    holds the floats of the scalar ``math``/``cmath`` formula.
    :class:`InvalidParams` names the first count whose phase ``n*chi``
    overflows.
    """
    n = _counts(n)
    c = np.float_power(math.cos(params.theta / 2.0), n)
    _check_phase("n*chi", params.chi, n)
    # ``cmath.exp(1j*n*chi)`` is libm's cosine and sine of ``n*chi``.
    angle = n * params.chi
    phase = np.empty(n.shape, dtype=complex)
    phase.real, phase.imag = _entrywise(math.cos, angle), _entrywise(math.sin, angle)
    return _two_level_root(c, phase)


@dataclass(frozen=True)
class ContinuousLimitParams:
    """Rates and elapsed time of the continuous measurement limit.

    ``kappa`` is the Gram decay rate (off-diagonal modulus ``exp(-kappa*t)``;
    the paper's rate is twice it), ``chi_dot`` the phase drift, ``r_dot``
    the complex external dephasing rate and ``t`` the elapsed time. The
    rates are scalars, ``kappa`` and ``chi_dot`` real ones. ``t`` may be a
    real array: the functions below then return stacks, one member per
    time, and a failing check on ``t`` names its first failing member.
    """

    kappa: float
    t: float | np.ndarray
    chi_dot: float = 0.0
    r_dot: complex = 0j

    def __post_init__(self) -> None:
        for name, kind in (("kappa", "real"), ("chi_dot", "real"), ("r_dot", "complex")):
            value = getattr(self, name)
            if np.ndim(value) or kind == "real" and np.iscomplexobj(value):
                raise InvalidParams(f"{name} must be a {kind} scalar, got {value!r}")
            if not cmath.isfinite(complex(value)):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if self.kappa < 0.0:
            raise InvalidParams(f"kappa must be >= 0, got {self.kappa}")
        if complex(self.r_dot).real < 0.0:
            raise InvalidParams(f"Re(r_dot) must be >= 0, got {self.r_dot}")
        if np.iscomplexobj(self.t):
            raise InvalidParams(f"t must be real, got {self.t!r}")
        t = _cast(self.t, float)
        for bad, rule in ((~np.isfinite(t), "finite"), (t < 0.0, ">= 0")):
            _refuse(bad, InvalidParams, "t must be {}, got {}", rule, t)
        if t.ndim:
            object.__setattr__(self, "t", t)


def _dephasing_matrix(params: ContinuousLimitParams) -> np.ndarray:
    """``[[1, off], [conj(off), 1]]`` with ``off = exp(-r_dot*t)``, per time;
    :class:`InvalidParams` names the first time whose phase ``Im(r_dot)*t``
    overflows while its decay ``Re(r_dot)*t`` does not."""
    r_dot = complex(params.r_dot)
    _check_phase("Im(r_dot)*t", r_dot.imag, params.t, r_dot.real)
    off = _entrywise(lambda t: cmath.exp(-r_dot * t), params.t, dtype=complex)
    return _two_level_matrix(1.0, off, np.conj(off))


def continuous_soft(params: ContinuousLimitParams) -> SoftMeasurement:
    """The soft measurement that the continuous limit makes by time ``t``.

    Its entanglement matrix has off-diagonal ``exp(-r_dot*t)`` and its Gram
    matrix ``exp(-kappa*t + i*chi_dot*t)``. Its meter states are preset to
    the closed-form principal root
    ``[[s_plus, e^{i chi_dot t} s_minus], [e^{-i chi_dot t} s_minus, s_plus]]``
    with ``s_pm = (sqrt(1 + e^{-kappa t}) +- sqrt(1 - e^{-kappa t})) / 2``,
    so no eigensolve runs. The exponentials come from :mod:`math` and
    :mod:`cmath`, one time at a time. An array of times gives the stacked
    measurement, one member per time. The measurement is derived from
    checked parameters and is not checked again. :class:`InvalidParams`
    names the first time whose phase ``chi_dot*t``, or ``Im(r_dot)*t``,
    overflows.
    """
    _check_phase("chi_dot*t", params.chi_dot, params.t)
    c = _entrywise(lambda t: math.exp(-params.kappa * t), params.t)
    phase = _entrywise(lambda t: cmath.exp(1j * params.chi_dot * t), params.t, dtype=complex)
    off = c * phase
    return _unchecked(
        SoftMeasurement,
        entanglement=_dephasing_matrix(params),
        gram=_two_level_matrix(1.0, off, np.conj(off)),
        meter_vectors=_two_level_root(c, phase),
    )


def discrete_step(kappa: float, chi_dot: float, r_dot: complex, dt: float) -> SoftMeasurement:
    """One step of length ``dt`` whose n-fold repetition approaches the limit.

    A two-level soft measurement: its Gram matrix is that of the meter angle
    ``theta`` with ``theta**2 = 8*kappa*dt`` and differential phase
    ``chi_dot*dt``, so that the accumulated Gram off-diagonal decays as
    ``exp(-kappa*t)``: ``kappa`` is the Gram decay rate of
    :class:`ContinuousLimitParams`, and the paper's rate, whose steps have
    ``theta**2 = 4*kappa*dt``, is twice it. Its entanglement matrix is the
    limit's dephasing at ``t = dt``, the exact per-step ``exp(-r_dot*dt)``:
    its modulus ``exp(-Re(r_dot)*dt)`` is at most 1 for every accepted
    ``r_dot``, and its ``n``-th power is the limit's ``exp(-r_dot*t)``; an
    accumulated phase ``Im(r_dot)*dt`` that overflows raises
    :class:`InvalidParams`. ``dt`` must be a finite and positive real
    scalar; ``kappa``, ``chi_dot`` and ``r_dot`` are checked by
    :class:`ContinuousLimitParams`, and the angle by
    :class:`TwoLevelMeterParams`. The step is derived from checked
    parameters and is not checked again.
    """
    if not (np.ndim(dt) == 0 and np.isrealobj(dt) and math.isfinite(dt) and dt > 0.0):
        raise InvalidParams(f"dt must be finite and positive, got {dt}")
    step = ContinuousLimitParams(kappa=kappa, t=dt, chi_dot=chi_dot, r_dot=r_dot)
    # A numpy scalar product that overflows warns; TwoLevelMeterParams refuses its inf.
    with np.errstate(over="ignore"):
        params = TwoLevelMeterParams(theta=math.sqrt(8.0 * kappa * dt), chi=chi_dot * dt)
    return _unchecked(
        SoftMeasurement, entanglement=_dephasing_matrix(step), gram=two_level_gram(params)
    )
