"""Information quantities of soft measurement channels.

Coherent information of a channel is the output entropy minus the exchange
entropy computed on a purification of the input; it may be negative and is
never clamped here. For the object-output channel of a soft measurement
(entrywise multiplication of the input by ``entanglement * conj(gram)``) both
terms collapse to entropies of small Hadamard products, and for two-level
systems to a closed form in the softness parameter ``q``, the population
``p`` and the coherence modulus ``mu``.

Semiclassical (Holevo) information quantifies the classical yield of a
labeled state ensemble; helpers here build the post-measurement meter
ensembles, including the eavesdropper-versus-receiver arrangement where a
dephasing in one basis competes with a soft projection in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidMeasurement,
    InvalidParams,
    InvalidState,
)
from .matcore import (
    TAU_RECON,
    DensityMatrix,
    StateLike,
    _cast,
    _cexp,
    _checked_density,
    _dagger,
    _entropy,
    _entrywise,
    _hermitian_part,
    _integer,
    _matmul,
    _refuse,
    _state,
    _unchecked,
    _unchecked_entropy,
    herm_eig,
)
from .measurement import (
    SoftMeasurement,
    _check_correlation_matrix,
    _meter_mix,
    _single_dim,
)
from .repeated import ContinuousLimitParams, _decay

# Eigenvalues of a Choi matrix below this (relative) threshold are treated
# as numerically zero when extracting Kraus operators.
CHOI_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Every operator maps the input space to the output space; trace
    preservation requires ``sum_a K_a^dagger K_a == identity``.
    """

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(_cast(k, complex) for k in self.kraus_ops)
        if not ops:
            raise InvalidChannel("channel needs at least one Kraus operator")
        if any(k.ndim != 2 or k.shape != ops[0].shape or not k.size for k in ops):
            raise InvalidChannel("all Kraus operators must share one 2-D shape of sides >= 1")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def in_dim(self) -> int:
        return int(self.kraus_ops[0].shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.kraus_ops[0].shape[0])

    def validate(self) -> None:
        """Raise :class:`InvalidChannel` unless ``sum K^dagger K`` is the
        identity within ``TAU_RECON`` (a non-finite operator fails, and so
        does one whose product overflows)."""
        with np.errstate(invalid="ignore", over="ignore"):
            total = sum(k.conj().T @ k for k in self.kraus_ops)
            dev = float(np.max(np.abs(total - np.eye(self.in_dim))))
        if not dev <= TAU_RECON:
            raise InvalidChannel(
                f"sum K^dagger K deviates from identity by {dev:.3e} > {TAU_RECON:.1e}"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The output state of the ``in_dim x in_dim`` state ``rho``; a
        non-finite entry raises :class:`InvalidState` before any product."""
        rho = _cast(rho, complex)
        if rho.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch(
                f"rho has shape {rho.shape}, channel input dim is {self.in_dim}"
            )
        if not np.isfinite(rho).all():
            raise InvalidState("rho has a non-finite entry")
        return sum(k @ rho @ k.conj().T for k in self.kraus_ops)


def kraus_from_choi(choi: np.ndarray, in_dim: int, out_dim: int) -> KrausChannel:
    """Extract Kraus operators from a Choi matrix (output (x) input order).

    The Choi matrix is ``sum_a vec(K_a) vec(K_a)^dagger`` with ``vec(K)``
    the row-major flattening of ``K``. Eigenvectors with eigenvalue above
    ``CHOI_RANK_TOL`` times the largest one become operators
    ``sqrt(eig) * vec`` reshaped to ``out_dim x in_dim``, ordered by
    descending eigenvalue for determinism. The Choi matrix must be one
    matrix of side ``in_dim * out_dim``, both dimensions integers (or floats
    of integral value) of at least 1.
    """
    in_dim, out_dim = _integer(in_dim, "in_dim"), _integer(out_dim, "out_dim")
    if min(in_dim, out_dim) < 1 or np.shape(choi) != (in_dim * out_dim,) * 2:
        raise DimensionMismatch(f"choi must have side {in_dim} * {out_dim}, got {np.shape(choi)}")
    w, v = herm_eig(choi)
    wmax = max(float(w[-1]), 0.0)
    ops = []
    for idx in range(len(w) - 1, -1, -1):
        if w[idx] > CHOI_RANK_TOL * wmax and w[idx] > 0.0:
            ops.append(math.sqrt(float(w[idx])) * v[:, idx].reshape(out_dim, in_dim))
    if not ops:
        raise InvalidChannel("Choi matrix has no eigenvalue above the rank tolerance")
    return KrausChannel(tuple(ops))


def soft_object_channel(measurement: SoftMeasurement) -> KrausChannel:
    """Object-output channel of a soft measurement, as Kraus operators.

    The channel multiplies the input entrywise by the measurement's
    ``multiplier`` (``entanglement * conj(gram)``). Its Kraus operators are
    obtained by eigendecomposing the corresponding Choi matrix (they come
    out diagonal). The measurement must be one ``D x D`` pair.
    """
    d = _single_dim(measurement)
    m = measurement.multiplier
    choi = np.zeros((d, d, d, d), dtype=complex)
    rows, cols = np.indices((d, d))
    choi[rows, rows, cols, cols] = m
    return kraus_from_choi(choi.reshape(d * d, d * d), d, d)


def coherent_info_channel(channel: KrausChannel, rho: StateLike) -> float:
    """Coherent information preserved by ``channel`` on input ``rho``, bits.

    The input is purified in its eigenbasis (descending eigenvalues, those
    that are not positive omitted from the reference system), the channel
    acts on the input half, and the result is output entropy minus joint
    entropy. The value may be negative. A :class:`DensityMatrix` input is
    decomposed once more, since the purification needs its eigenvectors.
    """
    rho = rho.matrix if isinstance(rho, DensityMatrix) else _cast(rho, complex)
    channel.validate()
    w, v = _checked_density(rho, "rho", vectors=True)
    output = channel.apply(rho)  # raises DimensionMismatch for a rho of the wrong shape
    order = [i for i in range(len(w) - 1, -1, -1) if w[i] > 0.0]
    amps = v[:, order] * np.sqrt(w[order])  # in_dim x rank, column i = sqrt(l_i) v_i
    rank = amps.shape[1]
    joint = np.zeros((channel.out_dim * rank, channel.out_dim * rank), dtype=complex)
    for k in channel.kraus_ops:
        vec = (k @ amps).reshape(-1)
        joint += np.outer(vec, vec.conj())
    return _unchecked_entropy(output) - _unchecked_entropy(joint)


def coherent_info_soft(rho: StateLike, measurement: SoftMeasurement) -> float:
    """Coherent information kept in the object by a soft measurement, bits.

    Closed form: with the measurement's multiplier ``m`` (``R * conj(Q)``
    entrywise; ``R**n * conj(Q**n)`` for the measurement that
    :func:`~softmeas.repeated.repeat_soft` derives) the value is
    ``S[m * rho] - S[sqrt(rho_kk) m_kl sqrt(rho_ll)]`` (entrywise products).
    A raw ``rho`` is checked where it enters, a :class:`DensityMatrix` was
    checked when it was built, and so was the measurement. Both entropy
    arguments are then density matrices by construction (Schur products of
    PSD matrices), so they are not checked again: each entropy takes one
    eigensolve of its argument's Hermitian part.

    ``rho`` and the measurement may be ``(..., D, D)`` stacks (a repeated
    measurement with an array of counts is one); the stacks broadcast
    against each other and the result is one value per member.
    """
    rho = _state(rho).matrix
    m = measurement.multiplier
    if m.shape[-2:] != rho.shape[-2:]:
        raise DimensionMismatch(f"rho shape {rho.shape} != measurement shape {m.shape}")
    root = np.sqrt(np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None))
    exchange = root[..., :, None] * root[..., None, :] * m
    return _unchecked_entropy(m * rho) - _unchecked_entropy(exchange)


def _check_unit_interval(**values: float | np.ndarray) -> list[np.ndarray]:
    """The values as float arrays; :class:`InvalidParams` unless each is real
    and every entry of the broadcast arrays lies in ``[0, 1]``.

    A complex value is named before any is converted. Names the first
    failing broadcast member in C order and, at that member, the first
    failing argument, as a loop over the members would. Each array is
    compared in its own shape; only when one fails are they broadcast and
    stacked, to find that member. Shapes that do not broadcast raise
    numpy's ``ValueError`` either way.
    """
    for name, value in values.items():
        if np.iscomplexobj(value):
            raise InvalidParams(f"{name} must be real, got {value!r}")
    values = {name: _cast(value, float) for name, value in values.items()}
    np.broadcast_shapes(*(a.shape for a in values.values()))
    if not all(((0.0 <= a) & (a <= 1.0)).all() for a in values.values()):
        arrays = np.stack(np.broadcast_arrays(*values.values()))
        bad = ~((0.0 <= arrays) & (arrays <= 1.0))
        first = np.argmax(bad, axis=0)  # each member's first failing argument
        names, value = np.array(list(values))[first], np.choose(first, arrays)
        _refuse(InvalidParams, (bad.any(axis=0), "{} must lie in [0, 1], got {}", names, value))
    return list(values.values())


def _g(x: float | np.ndarray) -> np.ndarray:
    """``(1-x)log2(1-x) + (1+x)log2(1+x)`` with the 0*log(0) = 0 convention,
    entrywise; ``x`` is clamped to ``[0, 1]``.

    The logarithms come from :func:`math.log2`, which numpy's ``log2`` does
    not match in every last ulp.
    """
    x = np.clip(x, 0.0, 1.0)
    lo = (1.0 - x) * _entrywise(math.log2, np.where(x < 1.0, 1.0 - x, 1.0))
    return lo + (1.0 + x) * _entrywise(math.log2, 1.0 + x)


def coherent_info_two_level(
    q: float | np.ndarray, p: float | np.ndarray, mu: float | np.ndarray
) -> float | np.ndarray:
    """Two-level closed form of :func:`coherent_info_soft`, bits.

    ``q`` is the softness parameter (modulus of the combined off-diagonal
    multiplier), ``p`` the first population, ``mu`` the coherence modulus of
    the input. All three must lie in ``[0, 1]``.

    Arrays broadcast against each other and give one value per member;
    scalars give a ``float``. A member's value is the float the scalar call
    gives.
    """
    q, p, mu = _check_unit_interval(q=q, p=p, mu=mu)
    spread = 4.0 * p * (1.0 - p)
    x1 = np.sqrt(np.maximum(1.0 - spread * (1.0 - q * q), 0.0))
    # The square is libm's ``pow``, which ``v * v`` and ``np.square`` do not match
    # in every last ulp; numpy's ``float_power`` loop calls that ``pow``.
    x2 = np.sqrt(np.maximum(1.0 - spread * (1.0 - np.float_power(q * mu, 2.0)), 0.0))
    info = 0.5 * (_g(x1) - _g(x2)) + 0.0
    return float(info) if info.ndim == 0 else info


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """Ensemble of density matrices with prior probabilities.

    Each state may also be a ``(..., D, D)`` stack, all of one shape: the
    object then holds one ensemble per stack member, sharing ``probs``.
    ``spectra`` holds the ascending eigenvalues of each state that the
    density check computed, so that :func:`holevo_info` does not decompose
    the states again.

    An ensemble is checked when it is built from its fields. The
    ensembles that :func:`meter_ensemble` and :func:`eve_bob_semiclassical`
    derive from checked parts hold states by construction and are not
    checked again; their spectra are the ``eigvalsh`` of the Hermitian part,
    as in the check, so they hold the same floats.
    """

    probs: np.ndarray
    states: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.probs):
            raise InvalidParams(f"probabilities must be real, got {self.probs!r}")
        probs = _cast(self.probs, float)
        states = tuple(_cast(s, complex) for s in self.states)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        if probs.ndim != 1 or len(states) != probs.size:
            raise InvalidParams("need exactly one probability per state")
        if not np.all(np.isfinite(probs)):
            raise InvalidParams(f"probabilities must be finite, got {probs}")
        if np.any(probs < 0.0):
            raise InvalidParams("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise InvalidParams(f"probabilities sum to {probs.sum():.15g}, expected 1")
        dims = {s.shape for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"ensemble states have mixed shapes {dims}")
        checked = (DensityMatrix(s, f"ensemble state {i}") for i, s in enumerate(states))
        object.__setattr__(self, "spectra", tuple(state.eigenvalues for state in checked))

    @property
    def dim(self) -> int:
        return int(self.states[0].shape[-1])


def _derived_ensemble(probs: np.ndarray, states: tuple[np.ndarray, ...]) -> StateEnsemble:
    """The :class:`StateEnsemble` of checked ``probs`` and of complex
    ``states`` that library code derived from checked parts, built without
    its checks; the spectra are the ``eigvalsh`` of the Hermitian part, as
    in the density check, so they hold the same floats."""
    spectra = tuple(np.linalg.eigvalsh(_hermitian_part(s)) for s in states)
    return _unchecked(StateEnsemble, probs=probs, states=states, spectra=spectra)


def meter_ensemble(ensemble: StateEnsemble, measurement: SoftMeasurement) -> StateEnsemble:
    """Meter-side ensemble induced by measuring each ensemble member.

    Each output state mixes the measurement's meter states ``V`` (its kept
    ``meter_vectors``) with the input's populations:
    ``V @ diag(rho_kk) @ V^dagger``. Only the Gram matrix enters; a stacked
    measurement gives one meter ensemble per member.
    """
    if measurement.dim != ensemble.dim:
        raise DimensionMismatch(
            f"measurement dim {measurement.dim} != ensemble dim {ensemble.dim}"
        )
    vectors = measurement.meter_vectors
    states = tuple(
        _meter_mix(vectors, np.diagonal(s, axis1=-2, axis2=-1).real) for s in ensemble.states
    )
    return _derived_ensemble(ensemble.probs, states)


def holevo_info(ensemble: StateEnsemble) -> float | np.ndarray:
    """Holevo (semiclassical) information of an ensemble, bits.

    ``S[sum_k p_k rho_k] - sum_k p_k S[rho_k]``; nonnegative and at most
    ``log2(dim)``. An ensemble of stacked states gives one value per member.
    """
    average = sum(p * s for p, s in zip(ensemble.probs, ensemble.states))
    return _holevo(ensemble.probs, np.linalg.eigvalsh(_hermitian_part(average)), ensemble.spectra)


def _holevo(
    probs: np.ndarray, average: np.ndarray, spectra: Iterable[np.ndarray]
) -> float | np.ndarray:
    """``H(average) - sum_k p_k H(spectra[k])`` in bits, from the spectrum
    of the ensemble's average state and those of its members; a member of
    zero prior adds ``0 * H``, an exact zero. Each spectrum is ascending
    or, when ``D <= 2`` and it has no negative entry, in any order: its
    entropy is then one addition of two terms."""
    conditional = sum(p * _entropy(w) for p, w in zip(probs, spectra))
    info = np.asarray(_entropy(average) - conditional) + 0.0
    return float(info) if info.ndim == 0 else info


def _binary_entropy(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    out = 0.0
    for value in (p, 1.0 - p):
        if value > 0.0:
            out -= value * math.log2(value)
    return out


def semiclassical_info_continuous(kappa: float, t: float | np.ndarray) -> float | np.ndarray:
    """Holevo information accumulated by the continuous measurement, bits.

    For two equiprobable measured states the value is the binary entropy
    ``H((1 + c) / 2)`` of the residual meter overlap ``c = exp(-kappa*t)``,
    the overlap of the continuous meter state at the Gram decay rate
    ``kappa`` (the paper's rate is twice it). Monotone from 0 at ``t = 0``
    toward 1. ``kappa`` and ``t`` are checked as in
    :class:`ContinuousLimitParams`; an array of times gives one value per
    time.
    """
    t = ContinuousLimitParams(kappa=kappa, t=t).t
    overlap = _decay(kappa, t)
    info = _entrywise(_binary_entropy, (1.0 + overlap) / 2.0)
    return float(info) if info.ndim == 0 else info


def compete_coherent(
    rho: StateLike, eve: SoftMeasurement, bob: SoftMeasurement
) -> tuple[float, float]:
    """Coherent information retrieved by each of two sequential receivers.

    Both values share the first term (entropy of the object dephased by
    both receivers' entanglement and Gram matrices); the second term omits
    the respective receiver's own Gram matrix:

    ``I_eve = S[rho*RE*RB*conj(QE*QB)] - S[rho*RE*RB*conj(QB)]`` and
    symmetrically for the other receiver (all products entrywise; each Gram
    matrix enters conjugated, as in a receiver's ``multiplier``). Equal when
    both receivers use the same parameters. The receivers were checked when they were
    built; :class:`DimensionMismatch` names their dimensions when they
    differ.
    """
    if eve.dim != bob.dim:
        raise DimensionMismatch(f"eve dim {eve.dim} != bob dim {bob.dim}")
    rho = _state(rho, eve.dim).matrix
    shared = rho * eve.entanglement * bob.entanglement
    eve_gram, bob_gram = eve.gram.conj(), bob.gram.conj()
    s_common = _unchecked_entropy(shared * eve_gram * bob_gram)
    info_eve = s_common - _unchecked_entropy(shared * bob_gram)
    info_bob = s_common - _unchecked_entropy(shared * eve_gram)
    return info_eve, info_bob


def compete_two_level(
    q_eve: float | np.ndarray, q_bob: float | np.ndarray, mu: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Closed two-level form of :func:`compete_coherent` for balanced
    populations (``p = 1/2``) and unit entanglement matrices.

    ``q_eve`` and ``q_bob`` are the two receivers' softness parameters and
    ``mu`` the input's coherence modulus; all three must lie in ``[0, 1]``.
    Substitutes ``(q_bob*mu, q_eve)`` respectively ``(q_eve*mu, q_bob)``
    into the single-measurement closed form at ``p = 1/2``. Arrays
    broadcast against each other and give arrays of their broadcast shape.

    Exchanging the receivers exchanges the values:
    ``compete_two_level(a, b, mu)[1]`` equals ``compete_two_level(b, a,
    mu)[0]`` bit for bit, in the same shape. Both are the one elementwise
    call ``coherent_info_two_level(a * mu, 0.5, b)``, and each of its steps,
    IEEE arithmetic and libm's ``pow`` and ``log2``, acts on one entry at a
    time, so an entry's value depends only on its own arguments. On a square
    grid of equal axes, Bob's surface is therefore the transpose of Eve's.
    """
    q_eve, q_bob, mu = _check_unit_interval(q_eve=q_eve, q_bob=q_bob, mu=mu)
    info_eve = coherent_info_two_level(q_bob * mu, 0.5, q_eve)
    info_bob = coherent_info_two_level(q_eve * mu, 0.5, q_bob)
    return info_eve, info_bob


def _y_rotations(angles: np.ndarray) -> np.ndarray:
    """The float64 stack of y-rotations ``[[cos(a/2), -sin(a/2)],
    [sin(a/2), cos(a/2)]]``, one per entry of the finite ``angles``. The
    cosines and sines are the parts of libm's ``cexp(i*a/2)`` through
    :func:`_cexp`, which are libm's own, so a stack holds exactly the
    matrices the single-angle :mod:`math` calls give."""
    half = _cexp(0.0, angles / 2.0)
    cos, sin = half.real, half.imag
    return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)


def _bloch_y_rotation(theta: float | np.ndarray) -> np.ndarray:
    """Two-level basis change rotating the Bloch sphere by ``theta`` about y.

    The complex :func:`_y_rotations` of ``theta``; an array of angles gives
    the ``(..., 2, 2)`` stack of rotations. Raises :class:`InvalidParams` for
    an angle that is not finite.
    """
    angles = _cast(theta, float)
    _refuse(InvalidParams, (~np.isfinite(angles), "rotation angle must be finite, got {}", angles))
    return _y_rotations(angles).astype(complex)


def _rotated_populations(
    unitary: np.ndarray, dephase: np.ndarray, states: Iterable[np.ndarray]
) -> list[np.ndarray]:
    """The populations, clipped at 0, of each state rotated into the basis
    of ``unitary``, dephased entrywise by ``dephase`` and rotated back, in
    the dtype of the factors: float64 for float factors, else complex."""
    populations = []
    for state in states:
        in_eve = _dagger(unitary) @ state @ unitary
        # The rotation back is shared by every dephasing matrix it meets.
        back = _matmul(_matmul(unitary, dephase * in_eve), _dagger(unitary))
        populations.append(np.clip(np.diagonal(back, axis1=-2, axis2=-1).real, 0.0, None))
    return populations


def _rigid_holevo(
    probs: np.ndarray, unitary: np.ndarray, dephase: np.ndarray, states: Iterable[np.ndarray]
) -> float | np.ndarray:
    """``fig3``'s two-level kernel: the Holevo information that a rigid
    receiver (meter states exactly the basis vectors) reads from the
    populations ``w_k`` that the states keep after the rotate, dephase and
    rotate-back chain of ``unitary`` and ``dephase``, for the priors
    ``probs``. The factors must be ``2 x 2``; the caller checked them, or
    derived them from checked parts, and they are not checked here.

    Each output state is ``diag(w_k)`` and the average's diagonal is the
    same sum of ``p_k * w_k``, so the value is
    ``H(sum_k p_k w_k) - sum_k p_k H(w_k)``, taken from the populations
    unsorted: LAPACK's spectrum of a ``2 x 2`` diagonal state is its two
    populations, and an entropy of two terms is one addition, which does
    not depend on their order. These are the floats of
    :func:`eve_bob_semiclassical`'s matrix route (see
    :mod:`~softmeas.matcore`)."""
    populations = _rotated_populations(unitary, dephase, states)
    average = sum(p * w for p, w in zip(probs, populations))
    return _holevo(probs, average, populations)


def eve_bob_semiclassical(
    ensemble: StateEnsemble,
    eve_basis: float | np.ndarray,
    dephase: np.ndarray,
    bob: SoftMeasurement,
) -> float | np.ndarray:
    """Holevo information left for the receiver after an intercepting
    measurement in a rotated basis.

    Each ensemble state (given in the receiver's basis) is transformed to
    the interceptor's basis, multiplied entrywise by the combined dephasing
    matrix ``dephase``, transformed back, and fed through the receiver's
    soft projection (populations in the receiver's basis spread over its
    meter states). Returns the Holevo information of the resulting
    ensemble.

    The chain runs in complex, on the factors as given, and every
    receiver's output states are built as matrices and decomposed. The
    ``fig3`` sweep's receiver is rigid and two-level, and that sweep runs
    the same chain on float64 factors through ``_rigid_holevo``, its
    two-level kernel, with the floats of this route.

    ``eve_basis`` is either a rotation angle on the Bloch sphere's y-axis
    (two-level only; any real 0-d value, numpy scalars and 0-d arrays
    included) or an explicit unitary basis change. A ``(..., D, D)``
    stack of unitaries (for instance the y-rotations of an array of
    angles) and a stack of dephasing matrices broadcast against each
    other, giving one value per member; the ensemble and the receiver are
    shared by all members and were checked when they were built.
    """
    dim = ensemble.dim
    if np.ndim(eve_basis) == 0 and np.isrealobj(eve_basis):
        if dim != 2:
            raise DimensionMismatch("angle parameterization is two-level only")
        unitary = _bloch_y_rotation(float(eve_basis))
    else:
        unitary = _cast(eve_basis, complex)
        if unitary.shape[-2:] != (dim, dim):
            raise DimensionMismatch(
                f"basis unitary shape {unitary.shape} does not match dim {dim}"
            )
        # A non-finite entry gives a NaN deviation, which fails the check.
        with np.errstate(invalid="ignore", over="ignore"):
            deviation = np.max(np.abs(_dagger(unitary) @ unitary - np.eye(dim)), axis=(-2, -1))
        _refuse(InvalidMeasurement, (~(deviation <= TAU_RECON), "eve_basis is not unitary"))
    dephase = _cast(dephase, complex)
    if dephase.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"dephase shape {dephase.shape} does not match dim {dim}")
    _check_correlation_matrix({"dephase": dephase})
    if _single_dim(bob, "bob") != dim:
        raise DimensionMismatch(f"bob dim {bob.dim} != ensemble dim {dim}")
    populations = _rotated_populations(unitary, dephase, ensemble.states)
    out_states = tuple(_meter_mix(bob.meter_vectors, w) for w in populations)
    return holevo_info(_derived_ensemble(ensemble.probs, out_states))
