"""Soft nondemolition measurement channels.

A soft measurement couples an object in a fixed orthogonal basis to a meter
whose readout states may be mutually nonorthogonal. It is parameterized by
two Hermitian PSD unit-diagonal matrices:

* ``entanglement`` -- residual phase correlations between measured basis
  states (identity = projective readout, all-ones = fully coherent copy);
* ``gram`` -- scalar products of the meter states (identity = perfectly
  distinguishable outcomes, all-ones = a single meter state, no measurement).

A :class:`SoftMeasurement` or :class:`GeneralMeasurement` is checked once,
when it is built, and raises :class:`InvalidMeasurement` naming every failed
check; the functions that take one never check its matrices again. A
state is checked the same way: the functions here take a raw density
matrix, which they check, or a :class:`~softmeas.matcore.DensityMatrix`,
checked when it was built. An entanglement or Gram matrix enters the
library only through a :class:`SoftMeasurement`; no function here takes a
bare one.

Meter states are synthesized minimally in a space of the object's dimension
as the columns of the principal square root of the Gram matrix, which fixes
all global phases and makes outputs reproducible.

Joint states returned by the ``apply_*`` functions live on
``H_object (x) H_meter`` with the object index major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidMeasurement, OutOfRange
from .matcore import (
    TAU_HERM,
    TAU_PSD,
    TAU_TRACE,
    StateLike,
    _dagger,
    _finite_hermitian_part,
    _first,
    _hermitian_deviation,
    _matmul,
    _state,
    _unchecked_sqrt,
)


def _check_correlation_matrix(mats: dict[str, np.ndarray], *more: str) -> None:
    """Raise :class:`InvalidMeasurement` unless every named matrix, or stack
    of matrices, is a correlation matrix and ``more`` lists no failure.

    Entanglement and Gram matrices must be Hermitian, PSD and unit-diagonal;
    unit diagonal plus PSD already bounds every off-diagonal modulus by one,
    but the bound is reported separately because it is the first thing that
    breaks when a matrix is edited by hand. A matrix with a non-finite entry
    is not Hermitian. PSD is checked only on the members that are Hermitian
    and whose Hermitian part is finite.
    The message joins with ``"; "`` the failures at the first failing member
    (C order) over all checks, the matrices' in the order given and then
    ``more``; that member is the exception's ``index``. So a stack names the
    failures of one member, and a single matrix (or a shape failure, or
    ``more``, which concern no member) every failure of its own.
    """
    found: list[tuple[tuple[int, ...], str]] = []
    for name, mat in mats.items():
        m = np.asarray(mat, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not m.shape[-1]:
            found.append(((), f"{name} must be square of side >= 1, got shape {m.shape}"))
            continue
        not_herm = ~(_hermitian_deviation(m) <= TAU_HERM)
        # An entry near the largest float overflows the Hermitian part to
        # inf, on which the eigensolver may not converge. Such members, and
        # those that are not Hermitian, take the PSD check as identities; the
        # modulus bound below names the former.
        h, finite = _finite_hermitian_part(m)
        skipped = (not_herm | ~finite)[..., None, None]
        w = np.linalg.eigvalsh(np.where(skipped, np.eye(m.shape[-1]), h))
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        for bad, failure in (
            (not_herm, f"is not Hermitian within {TAU_HERM:.1e}"),
            (w[..., 0] < -TAU_PSD, "is not PSD: eigenvalue {:.3e}"),
            (np.max(np.abs(diag - 1.0), axis=-1) > TAU_TRACE, "diagonal is not identically 1"),
            (np.max(np.abs(m), axis=(-2, -1)) > 1.0 + TAU_TRACE, "has an entry with modulus > 1"),
        ):
            i = _first(bad)
            if i is not None:
                found.append((i, f"{name} {failure.format(w[i][0])}"))
    found += [((), failure) for failure in more]
    if found:
        index = min(i for i, _ in found)
        failures = [failure for i, failure in found if i == index]
        raise InvalidMeasurement("; ".join(failures), index=index)


@dataclass(frozen=True, eq=False)
class SoftMeasurement:
    """Soft measurement with entanglement matrix and meter Gram matrix.

    Both matrices are checked when the measurement is built: each must be
    Hermitian, PSD and unit-diagonal, and their shapes must match;
    otherwise :class:`InvalidMeasurement` names every failed check. One
    derived from checked parts (:func:`~softmeas.repeated.repeat_soft`,
    :func:`~softmeas.repeated.continuous_soft`,
    :func:`~softmeas.repeated.discrete_step`) is built without the checks.
    The meter states (``meter_vectors``) are synthesized on first use and
    kept; ``continuous_soft`` presets them to their closed form.
    """

    entanglement: np.ndarray
    gram: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.entanglement, dtype=complex)
        q = np.asarray(self.gram, dtype=complex)
        object.__setattr__(self, "entanglement", r)
        object.__setattr__(self, "gram", q)
        mismatch = (
            [f"entanglement shape {r.shape} != gram shape {q.shape}"] if r.shape != q.shape else []
        )
        _check_correlation_matrix({"entanglement": r, "gram": q}, *mismatch)

    @property
    def dim(self) -> int:
        return int(self.entanglement.shape[-1])

    @property
    def multiplier(self) -> np.ndarray:
        """``entanglement * conj(gram)`` entrywise: the Hadamard multiplier
        that the object-output channel applies to the input state, which is
        what tracing the meter out of :func:`apply_soft`'s output leaves."""
        return self.entanglement * self.gram.conj()

    @cached_property
    def meter_vectors(self) -> np.ndarray:
        """The meter states, one per column: the principal square root of
        ``gram``, taken on first use and kept: column ``i`` is the i-th
        meter state, ``<v_k|v_l> == gram[k, l]``, and the principal root
        fixes the otherwise free global phases. A stacked measurement gives
        the stack of roots. ``gram`` passed its checks when the measurement
        was built, so the root is the unchecked one: the floats of
        :func:`~softmeas.matcore.matrix_sqrt_psd`, without its checks."""
        return _unchecked_sqrt(self.gram)


def _single_dim(measurement: SoftMeasurement, name: str = "measurement") -> int:
    """The dimension of a measurement that must be one ``D x D`` pair;
    raise :class:`DimensionMismatch` naming the shape of a stacked one."""
    shape = measurement.entanglement.shape
    if len(shape) != 2:
        raise DimensionMismatch(
            f"{name} must be a single D x D measurement, got a stack of shape {shape}"
        )
    return measurement.dim


def _meter_mix(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``V @ diag(weights) @ V^dagger``: the meter states ``V`` (one per
    column) mixed with the object populations ``weights``. Both may carry
    stack axes in front, which broadcast against each other; meter states
    shared by many weights meet them in one product."""
    return _matmul(vectors * weights[..., None, :], _dagger(vectors))


def apply_soft(measurement: SoftMeasurement, rho: StateLike) -> np.ndarray:
    """Apply a soft measurement to an object state.

    Returns the joint object-meter density matrix on ``H_A (x) H_B`` with
    entries ``entanglement[k,l] * rho[k,l]`` on the ``|k><l| (x) |v_k><v_l|``
    components, where ``v_k`` are the synthesized meter states; row index
    ``k * D + a`` with ``a`` the meter index. Tracing out the meter leaves
    ``entanglement[k,l] * conj(gram[k,l]) * rho[k,l]``; for real Gram
    matrices that conjugate is invisible.

    This is the one joint-state route for single, repeated and
    continuous measurements: a stacked measurement (an array of counts or of
    times) gives one joint state per member. ``rho`` must be one ``D x D``
    state.
    """
    d = measurement.dim
    weights = measurement.entanglement * _state(rho, d).matrix
    vectors = measurement.meter_vectors
    joint = np.einsum("...kl,...ak,...bl->...kalb", weights, vectors, vectors.conj())
    return joint.reshape(joint.shape[:-4] + (d * d, d * d))


@dataclass(frozen=True, eq=False)
class GeneralMeasurement:
    """Nondemolition measurement with arbitrary meter blocks.

    ``blocks[k, l]`` is the ``meter_dim x meter_dim`` operator attached to
    the object component ``|k><l|``. The assembled block operator must be
    Hermitian PSD with unit-trace diagonal blocks; it is checked when the
    measurement is built, and :class:`InvalidMeasurement` names every
    failed check.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.blocks, dtype=complex)
        object.__setattr__(self, "blocks", b)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3] or not b.size:
            message = f"blocks must have shape (D, D, m, m) with D, m >= 1, got {b.shape}"
            raise InvalidMeasurement(message)
        failures = []
        big = self.assembled()
        h, finite = _finite_hermitian_part(big)
        if not _hermitian_deviation(big) <= TAU_HERM:
            failures.append("assembled block operator is not Hermitian")
        elif not finite:
            failures.append("assembled block operator has an entry that overflows")
        else:
            w = np.linalg.eigvalsh(h)
            if w[0] < -TAU_PSD:
                failures.append(f"assembled block operator is not PSD: eigenvalue {w[0]:.3e}")
        for k in range(self.dim):
            with np.errstate(over="ignore"):
                tr = complex(np.trace(b[k, k]))
            if abs(tr - 1.0) > TAU_TRACE:
                failures.append(f"diagonal block {k} has trace {tr:.12g}, expected 1")
        if failures:
            raise InvalidMeasurement("; ".join(failures))

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


def apply_general(measurement: GeneralMeasurement, rho: StateLike) -> np.ndarray:
    """Apply a general nondemolition measurement.

    Output on ``H_A (x) H_B`` is ``sum_kl rho[k,l] |k><l| (x) blocks[k,l]``;
    the object populations ``rho[k,k]`` survive unchanged in the reduced
    object state.
    """
    d, m = measurement.dim, measurement.meter_dim
    joint = np.einsum("kl,klab->kalb", _state(rho, d).matrix, measurement.blocks)
    return joint.reshape(d * m, d * m)


@dataclass(frozen=True)
class TwoLevelMeterParams:
    """Two-state meter set: opening angle ``theta``, common phase ``phi``
    (no observable may depend on it) and differential phase ``chi``, each a
    real scalar."""

    theta: float
    phi: float = 0.0
    chi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "chi"):
            value = getattr(self, name)
            if np.ndim(value) or np.iscomplexobj(value):
                raise OutOfRange(f"{name} must be a real scalar, got {value!r}")
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
