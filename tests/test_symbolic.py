"""Symbolic proofs of the two-level closed forms that the library relies on.

The other tests check these closed forms at sampled floats. Here sympy
proves each identity for every value in its domain, and the domain is
stated as assumptions on the symbols: a value in ``[0, 1]`` is a
nonnegative symbol ``x`` whose complement ``1 - x`` is a second nonnegative
symbol, tied to it by substitution where the algebra needs the tie. Each
test names the function whose formula it proves and then evaluates that
function against the proved formula at a few points, so the proof is about
the code as it stands.
"""

import math

import numpy as np
import sympy as sp

from softmeas import cli
from softmeas.information import (
    StateEnsemble,
    _binary_entropy,
    _bloch_y_rotation,
    _g,
    _rotated_populations,
    coherent_info_two_level,
    eve_bob_semiclassical,
)
from softmeas.measurement import SoftMeasurement, meter_state
from softmeas.repeated import _two_level_matrix, _two_level_root, discrete_step

LAM = sp.Symbol("lambda")


def charpoly(matrix: sp.Matrix) -> sp.Expr:
    return matrix.charpoly(LAM).as_expr()


def vanishes(expr: sp.Expr) -> bool:
    """Whether a trigonometric expression is identically 0: written in
    exponentials, it expands to 0."""
    return sp.expand(expr.rewrite(sp.exp)) == 0


def test_two_level_root_is_the_principal_root_of_the_gram_matrix():
    """``repeated._two_level_root(c, e^{i phi})``, the meter states that
    ``continuous_soft`` presets and ``meter_state`` reads, is for ``c`` in
    ``[0, 1]`` and real ``phi`` Hermitian with eigenvalues ``sqrt(1 + c)``
    and ``sqrt(1 - c)``, so PSD, and squares to the Gram matrix of
    off-diagonal ``c e^{i phi}``: it is that matrix's principal root."""
    c, rest = sp.symbols("c rest", nonnegative=True)  # rest = 1 - c
    phi = sp.Symbol("phi", real=True)
    phase = sp.exp(sp.I * phi)
    plus = (sp.sqrt(1 + c) + sp.sqrt(rest)) / 2
    minus = (sp.sqrt(1 + c) - sp.sqrt(rest)) / 2
    root = sp.Matrix([[plus, phase * minus], [sp.conjugate(phase) * minus, plus]])
    gram = sp.Matrix([[1, c * phase], [c * sp.conjugate(phase), 1]])

    assert (root**2 - gram).subs(rest, 1 - c).applyfunc(sp.expand) == sp.zeros(2)
    assert root.H == root
    eigenvalues = (sp.sqrt(1 + c), sp.sqrt(rest))
    assert sp.expand(charpoly(root) - (LAM - eigenvalues[0]) * (LAM - eigenvalues[1])) == 0
    assert all(value.is_nonnegative for value in eigenvalues)

    formula = sp.lambdify((c, phi), root.subs(rest, 1 - c), "numpy")
    values, angles = np.array([0.0, 0.3, 0.999, 1.0]), np.array([0.0, 1.1, -2.5, 3.0])
    expected = np.stack([formula(v, a) for v, a in zip(values, angles)])
    got = _two_level_root(values, np.exp(1j * angles))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


def test_meter_state_has_the_spectrum_of_the_schur_product():
    """``measurement.meter_state`` is ``V diag(p) V^dagger``, with ``V`` the
    meter states and ``p`` the populations. At D = 2 it has the
    characteristic polynomial of ``P * Q`` (entrywise), where
    ``P[k, l] = sqrt(p_k p_l)`` and ``Q = V^dagger V`` is the Gram matrix,
    for every complex ``V`` and nonnegative ``p``. So the meter entropy is
    the entropy of that Schur product."""
    parts = sp.symbols("a:4 b:4", real=True)
    v = sp.Matrix(2, 2, [parts[k] + sp.I * parts[4 + k] for k in range(4)])
    p = sp.symbols("p:2", nonnegative=True)
    gram = v.H * v
    weights = sp.Matrix(2, 2, lambda k, l: sp.sqrt(p[k] * p[l]))
    meter = v * sp.diag(*p) * v.H

    assert sp.expand(charpoly(meter) - charpoly(weights.multiply_elementwise(gram))) == 0

    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    gram = np.array([[1.0, 0.4 * np.exp(0.9j)], [0.4 * np.exp(-0.9j), 1.0]])
    root = np.sqrt(np.diagonal(rho).real)
    schur = np.outer(root, root) * gram
    state = meter_state(SoftMeasurement(np.eye(2), gram), rho)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(state), np.linalg.eigvalsh(schur), rtol=0.0, atol=1e-15
    )


def test_two_level_output_spectrum_is_one_plus_minus_x2_over_two():
    """``information.coherent_info_two_level`` (which ``compete_two_level``
    calls twice) takes the spectrum of ``m * rho`` as ``(1 +- x2) / 2`` with
    ``x2 = sqrt(1 - 4 p (1 - p) (1 - (q mu)**2))``. Here ``m`` has unit
    diagonal and off-diagonal ``q e^{i alpha}``, and ``rho`` has populations
    ``p`` and ``1 - p`` and coherence ``mu sqrt(p (1 - p)) e^{i beta}``. This
    holds for ``p`` in ``[0, 1]``, any nonnegative ``q`` and ``mu``, and real
    phases. On that domain ``x2**2`` is ``(2p - 1)**2 + 4 p (1 - p) (q mu)**2``,
    which is nonnegative, so ``x2`` is real. The exchange term is the same
    matrix at ``mu = 1``, which gives ``x1``."""
    p, rest, q, mu = sp.symbols("p rest q mu", nonnegative=True)  # rest = 1 - p
    alpha, beta = sp.symbols("alpha beta", real=True)
    m = sp.Matrix([[1, q * sp.exp(sp.I * alpha)], [q * sp.exp(-sp.I * alpha), 1]])
    coherence = mu * sp.sqrt(p * rest) * sp.exp(sp.I * beta)
    rho = sp.Matrix([[p, coherence], [sp.conjugate(coherence), rest]])
    x2 = sp.sqrt(1 - 4 * p * rest * (1 - (q * mu) ** 2))
    roots = ((1 + x2) / 2, (1 - x2) / 2)

    product = charpoly(m.multiply_elementwise(rho)) - (LAM - roots[0]) * (LAM - roots[1])
    assert sp.expand(product.subs(rest, 1 - p)) == 0
    square = (p - rest) ** 2 + 4 * p * rest * (q * mu) ** 2
    assert sp.expand((x2**2 - square).subs(rest, 1 - p)) == 0
    assert square.is_nonnegative

    def entropy(root):
        return -sum(float(w) * np.log2(float(w)) for w in (root, 1 - root) if w > 0)

    for values in [(0.5, 0.3, 0.9), (0.0, 0.7, 1.0), (1.0, 0.25, 0.4), (0.6, 0.5, 0.0)]:
        point = dict(zip((q, p, mu), map(sp.Rational, values)))
        point[rest] = 1 - point[p]
        output = entropy(roots[0].subs(point))
        exchange = entropy(roots[0].subs({**point, mu: 1}))
        assert abs(coherent_info_two_level(*values) - (output - exchange)) <= 1e-12


def test_rotated_dephased_populations_are_one_plus_minus_a_over_two():
    """``information.eve_bob_semiclassical`` on the ``fig3`` surface rotates
    each basis state ``|k><k|`` by ``theta`` about y, dephases it entrywise
    by ``[[1, q], [q, 1]]`` and rotates it back; the populations are
    ``(1 +- a) / 2`` with ``a = cos(theta)**2 + q sin(theta)**2``, the upper
    sign first for ``k = 0`` and last for ``k = 1``. This holds for every
    real ``q`` and ``theta``. On ``fig3``'s domain, ``q`` in ``[-1, 1]`` and any finite
    ``theta``, both populations are nonnegative, so the clip at 0 that the
    code applies moves no exact value."""
    theta, q = sp.symbols("theta q", real=True)
    up, down = sp.symbols("up down", nonnegative=True)  # up = 1 + q, down = 1 - q
    half_cos, half_sin = sp.cos(theta / 2), sp.sin(theta / 2)
    rotation = sp.Matrix([[half_cos, -half_sin], [half_sin, half_cos]])
    dephase = sp.Matrix([[1, q], [q, 1]])
    a = sp.cos(theta) ** 2 + q * sp.sin(theta) ** 2
    for k, signs in enumerate([(1, -1), (-1, 1)]):
        ket = sp.zeros(2)
        ket[k, k] = 1
        back = rotation * dephase.multiply_elementwise(rotation.H * ket * rotation) * rotation.H
        for i, sign in enumerate(signs):
            assert vanishes(back[i, i] - (1 + sign * a) / 2)

    plus = 2 * sp.cos(theta) ** 2 + up * sp.sin(theta) ** 2
    minus = down * sp.sin(theta) ** 2
    assert vanishes(plus.subs(up, 1 + q) - (1 + a))
    assert vanishes(minus.subs(down, 1 - q) - (1 - a))
    assert plus.is_nonnegative and minus.is_nonnegative
    fig3 = cli._COMMANDS["fig3"].params
    assert (fig3["q"].domain.rule, fig3["theta"].domain.rule) == ("lie in [-1, 1]", "be finite")

    qs, thetas = np.array([-1.0, -0.4, 0.0, 0.7, 1.0]), np.array([0.0, 0.3, 1.2, math.pi / 2.0])
    dephasings = _two_level_matrix(1.0, qs[:, None], qs[:, None])
    basis = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    populations = _rotated_populations(_bloch_y_rotation(thetas), dephasings, basis)
    formula = sp.lambdify((q, theta), a, "numpy")
    a_values = formula(qs[:, None], thetas)
    np.testing.assert_allclose(populations[0][..., 0], (1 + a_values) / 2, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(populations[1][..., 0], (1 - a_values) / 2, rtol=0.0, atol=1e-15)
    # The receiver reads those populations: I_s = 1 - H2((1 + a) / 2).
    info = eve_bob_semiclassical(
        StateEnsemble(np.array([0.5, 0.5]), basis),
        _bloch_y_rotation(thetas),
        dephasings,
        cli._RIGID_BOB,
    )
    p = np.clip((1 + a_values) / 2, 0.0, 1.0)
    terms = [x * np.log2(np.where(x > 0, x, 1.0)) for x in (p, 1 - p)]
    np.testing.assert_allclose(info, 1 + terms[0] + terms[1], rtol=0.0, atol=1e-12)


def test_binary_entropy_of_one_plus_x_over_two_is_one_minus_half_g():
    """``information._binary_entropy((1 + x) / 2)``, the continuous ``I_s``,
    is ``1 - _g(x) / 2``, where ``_g(x) = (1-x)log2(1-x) + (1+x)log2(1+x)``
    is the function of ``coherent_info_two_level``'s two entropies: the two
    definitions name one entropy. This holds for ``x`` in ``[0, 1)``, where
    ``1 - x`` is a positive symbol, and at ``x = 1`` in the limit, which is
    the ``0 log 0 = 0`` convention both functions take. Both clamp their
    argument to that domain (``_g`` takes ``x`` in ``[0, 1]``,
    ``_binary_entropy`` a probability)."""
    x = sp.Symbol("x", nonnegative=True)
    rest = sp.Symbol("rest", positive=True)  # rest = 1 - x

    def binary_entropy(a, b):  # a + b = 1
        return -(a * sp.log(a) + b * sp.log(b)) / sp.log(2)

    g = (rest * sp.log(rest) + (1 + x) * sp.log(1 + x)) / sp.log(2)
    difference = binary_entropy((1 + x) / 2, rest / 2) - (1 - g / 2)
    assert sp.simplify(sp.expand_log(sp.expand(difference))).subs(rest, 1 - x) == 0
    assert sp.limit(difference.subs(x, 1), rest, 0, "+") == 0

    formula = sp.lambdify(x, (1 - g / 2).subs(rest, 1 - x), "math")
    for value in [0.0, 0.3, 0.75, 0.999]:
        assert abs(_binary_entropy((1.0 + value) / 2.0) - formula(value)) <= 1e-15
        assert abs(_binary_entropy((1.0 + value) / 2.0) - (1.0 - _g(value) / 2.0)) <= 1e-15
    assert _binary_entropy(1.0) == 1.0 - _g(1.0) / 2.0 == 0.0


def test_discrete_steps_decay_as_exp_minus_kappa_t():
    """``repeated.discrete_step(kappa, 0, 0, h)`` has the Gram off-diagonal
    ``cos(theta/2)`` with ``theta**2 = 8 kappa h``, and ``t/h`` steps give
    ``cos(sqrt(8 kappa h)/2)**(t/h)``, which tends to ``exp(-kappa t)`` as
    ``h -> 0``: the limit's Gram decay at rate ``kappa``. The paper's
    ``theta**2 = 4 kappa h`` tends to ``exp(-kappa t / 2)`` instead, which is
    why its rate is twice ``kappa``. This holds for positive ``kappa`` and
    ``t``; at ``kappa = 0`` or ``t = 0`` both sides are 1. ``continuous``
    takes ``kappa`` and ``t`` in that domain, ``>= 0``."""
    kappa, t, h = sp.symbols("kappa t h", positive=True)
    for factor, rate in ((8, kappa), (4, kappa / 2)):
        exponent = (t / h) * sp.log(sp.cos(sp.sqrt(factor * kappa * h) / 2))
        assert sp.limit(exponent, h, 0, "+") == -rate * t
    params = cli._COMMANDS["continuous"].params
    assert params["kappa"].domain.rule == params["t"].domain.rule == "be >= 0"

    off_diagonal = sp.lambdify((kappa, h), sp.cos(sp.sqrt(8 * kappa * h) / 2), "math")
    for rate, time, step in [(0.7, 2.0, 1e-6), (1.0, 5.0, 1e-7), (3.0, 0.5, 1e-5)]:
        gram = discrete_step(rate, 0.0, 0j, step).gram
        assert abs(gram[0, 1] - off_diagonal(rate, step)) <= 1e-15
        decay = gram[0, 1].real ** round(time / step)
        assert abs(decay - math.exp(-rate * time)) <= rate**2 * time * step
