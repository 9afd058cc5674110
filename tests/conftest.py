"""Shared helpers for the test suite (imported, not fixtures)."""

from __future__ import annotations

import cmath
import math

import numpy as np


def rand_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix with complex coherences."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T + 1e-3 * np.eye(dim)
    return m / np.trace(m).real


def rand_density_of_rank(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random density matrix of rank ``rank`` with complex coherences."""
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def rand_correlation(
    rng: np.random.Generator, dim: int, real: bool = False, rank: int | None = None
) -> np.ndarray:
    """Random Hermitian PSD matrix with exactly unit diagonal.

    Built as the Gram matrix of random unit vectors, which also bounds
    every off-diagonal modulus by one; with ``rank``, of ``dim`` vectors in
    a space of that dimension, so the rank is at most ``rank``.
    """
    rows = dim if rank is None else rank
    a = rng.normal(size=(rows, dim))
    if not real:
        a = a + 1j * rng.normal(size=(rows, dim))
    a = a / np.linalg.norm(a, axis=0, keepdims=True)
    m = a.conj().T @ a
    np.fill_diagonal(m, 1.0)
    return m


def meter_states(gram: np.ndarray) -> np.ndarray:
    """The meter states of the Gram matrix, or stack, ``gram``, one per
    column: the ``meter_vectors`` of the measurement with that Gram matrix
    and identity entanglement (which does not enter them)."""
    from softmeas.measurement import SoftMeasurement

    eye = np.broadcast_to(np.eye(np.shape(gram)[-1]), np.shape(gram))
    return SoftMeasurement(eye, gram).meter_vectors


def count_eigvalsh(monkeypatch) -> list:
    """Wrap ``numpy.linalg.eigvalsh`` for the rest of the test; the returned
    list gains the input shape of every call."""
    original = np.linalg.eigvalsh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def count_eigensolves(monkeypatch) -> list:
    """Wrap ``numpy.linalg.eigvalsh`` and ``numpy.linalg.eigh`` for the rest
    of the test; the returned list gains ``(name, input shape)`` for every
    call of either."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def spy_correlation_checks(monkeypatch) -> list:
    """Record, for the rest of the test, the name of every matrix that a
    correlation-matrix check of the library is given."""
    from softmeas import information, measurement

    original = measurement._check_correlation_matrix
    names = []

    def spied(mats, *more):
        names.extend(mats)
        return original(mats, *more)

    for module in (information, measurement):
        monkeypatch.setattr(module, "_check_correlation_matrix", spied)
    return names


def forbid_meter_matrices(monkeypatch) -> None:
    """Make the semiclassical information's meter-matrix route (mixing the
    meter states, then decomposing the derived states) raise for the rest of
    the test, so that only a route without meter matrices can pass."""
    from softmeas import information

    def forbidden(*args):
        raise AssertionError("meter matrices built")

    for name in ("_meter_mix", "_derived_ensemble"):
        monkeypatch.setattr(information, name, forbidden)


def forbid_sorting(monkeypatch) -> None:
    """Make ``numpy.sort`` raise for the rest of the test, so that only a
    route that sorts nothing can pass."""

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.sort called")

    monkeypatch.setattr(np, "sort", forbidden)


def rand_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def swap_factors(matrix: np.ndarray, dim_first: int, dim_second: int) -> np.ndarray:
    """Reorder a bipartite operator from A(x)B to B(x)A."""
    m = matrix.reshape(dim_first, dim_second, dim_first, dim_second)
    return m.transpose(1, 0, 3, 2).reshape(
        dim_first * dim_second, dim_first * dim_second
    )


def binary_entropy(p: float) -> float:
    total = 0.0
    for value in (p, 1.0 - p):
        if value > 0.0:
            total -= value * math.log2(value)
    return total


# Scalar references: the per-point ``math`` code that the whole-array closed
# forms replaced, kept as it was, so that the array forms are compared with
# an independent implementation rather than with themselves.


def scalar_g(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    lo = 0.0 if x >= 1.0 else (1.0 - x) * math.log2(1.0 - x)
    return lo + (1.0 + x) * math.log2(1.0 + x)


def scalar_coherent_info_two_level(q: float, p: float, mu: float) -> float:
    spread = 4.0 * p * (1.0 - p)
    x1 = math.sqrt(max(1.0 - spread * (1.0 - q * q), 0.0))
    x2 = math.sqrt(max(1.0 - spread * (1.0 - (q * mu) ** 2), 0.0))
    return 0.5 * (scalar_g(x1) - scalar_g(x2)) + 0.0


def scalar_compete_two_level(q_eve: float, q_bob: float, mu: float) -> tuple[float, float]:
    return (
        scalar_coherent_info_two_level(q_bob * mu, 0.5, q_eve),
        scalar_coherent_info_two_level(q_eve * mu, 0.5, q_bob),
    )


def scalar_two_level_gram_sqrt(theta: float, chi: float, n: int) -> np.ndarray:
    c = math.cos(theta / 2.0) ** int(n)
    plus = 0.5 * (math.sqrt(1.0 + c) + math.sqrt(1.0 - c))
    minus = 0.5 * (math.sqrt(1.0 + c) - math.sqrt(1.0 - c))
    phase = cmath.exp(1j * int(n) * chi)
    return np.array([[plus, phase * minus], [np.conj(phase) * minus, plus]])


def scalar_continuous_gram_sqrt(kappa: float, t: float, chi_dot: float) -> np.ndarray:
    decay = math.exp(-kappa * t)
    s_plus = 0.5 * (math.sqrt(1.0 + decay) + math.sqrt(1.0 - decay))
    s_minus = 0.5 * (math.sqrt(1.0 + decay) - math.sqrt(1.0 - decay))
    phase = cmath.exp(1j * chi_dot * t)
    return np.array([[s_plus, phase * s_minus], [np.conj(phase) * s_minus, s_plus]])


def scalar_dephasing_matrix(r_dot: complex, t: float) -> np.ndarray:
    off = cmath.exp(-complex(r_dot) * t)
    return np.array([[1.0, off], [np.conj(off), 1.0]])


def fig3_closed_form(q: float, theta: float) -> float:
    """``I_s`` of the ``fig3`` surface in closed form. The interceptor keeps
    the Bloch component along its axis ``(sin theta, 0, cos theta)`` and
    scales the perpendicular one by ``q``, so the basis states reach the
    rigid receiver with ``z = +-a``, ``a = cos(theta)**2 + q*sin(theta)**2``;
    their average is maximally mixed, so ``I_s = 1 - H2((1 + a)/2) = g(|a|)/2``."""
    a = math.cos(theta) ** 2 + q * math.sin(theta) ** 2
    return scalar_g(abs(a)) / 2.0


def scalar_semiclassical_info_continuous(kappa: float, t: float, convention: str) -> float:
    if convention == "gram":
        overlap = math.exp(-kappa * t)
    elif convention == "paper":
        overlap = math.exp(-kappa * t / 2.0)
    else:
        raise ValueError(convention)
    return binary_entropy((1.0 + overlap) / 2.0)
