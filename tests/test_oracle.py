"""Accuracy oracles: emitted columns against their exact values.

A column's exact value is its closed form evaluated in mpmath at 50 digits
on the grid floats that the sweep used, so the error it measures is the
sweep's own, not that of another float64 route.
"""

import decimal
import functools
import hashlib
import math

import mpmath
import numpy as np

from softmeas import cli
from softmeas.cli import main, run_sweep
from softmeas.information import coherent_info_two_level

CORRECTLY_ROUNDED = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def fig3_exact(q: float, theta: float) -> mpmath.mpf:
    """``I_s = g(|a|)/2`` with ``a = cos(theta)**2 + q*sin(theta)**2`` and
    ``g(x) = (1-x)log2(1-x) + (1+x)log2(1+x)``, at the working precision.
    The logarithms are taken as ``log1p(-a)`` and ``log1p(a)``: for small
    ``a`` the two terms are ``-+a`` and cancel to ``a**2/ln(2)``, which
    ``1 +- a`` rounded to 50 digits would lose below ``a = 1e-25``."""
    q, theta = mpmath.mpf(q), mpmath.mpf(theta)
    a = abs(mpmath.cos(theta) ** 2 + q * mpmath.sin(theta) ** 2)
    lo = 0 if a == 1 else (1 - a) * mpmath.log1p(-a)
    return (lo + (1 + a) * mpmath.log1p(a)) / (2 * mpmath.log(2))


# The default fig3 CSV's bytes depend on the BLAS kernel set: the kernels
# with FMA (SkylakeX, Haswell, Zen) emit the pinned CSV, those without
# (Sandybridge, Nehalem, Prescott) another, whose row 46 is correctly
# rounded. Each pattern, by the sha256 of the CSV, with the bound on its
# worst absolute error and the rows whose strings are not the correctly
# rounded 12-digit value. The worst error is 2.33e-15 and 3.11e-15, both at
# row 2583 (q = 1, theta = 1.0367), where the exact value is 1.
FIG3_ACCURACY = {
    "cef30c0993c238792cd09230ed5cd4fa4cb01532846733648284a484c088edcb": (
        2.5e-15,
        [46, 48, 49, 50, 734],
    ),
    "803ef95ddd65ecef28398c59c0f896317a952e52b8556a3b0a7f2cd3d7712b3e": (
        3.2e-15,
        [48, 49, 50, 734],
    ),
}


def test_fig3_default_surface_against_its_exact_values(tmp_path):
    """The default ``fig3`` floats are within the bound of their byte
    pattern of the exact surface, worst at row 2583, and only the listed
    CSV strings are not correctly rounded: rows 46 (pinned pattern only),
    48, 49 and 50, near ``theta = pi/2`` at ``q = 0``, where ``I_s`` is a
    small difference of O(1) entropies, and row 734. Row 754, whose exact
    value is 0.089608170362849997986..., is correctly rounded."""
    _, table, _ = run_sweep("fig3", cli._COMMANDS["fig3"].defaults)
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest in FIG3_ACCURACY, f"a kernel set with new fig3 bytes: {digest}"
    bound, expected = FIG3_ACCURACY[digest]
    strings = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert len(strings) == len(table) == 2601
    errors, misrounded = [], []
    with mpmath.workdps(50):
        for row, (q, theta, emitted) in enumerate(table):
            exact = fig3_exact(q, theta)
            errors.append(float(abs(mpmath.mpf(emitted) - exact)))
            rounded = CORRECTLY_ROUNDED.plus(decimal.Decimal(mpmath.nstr(exact, 50)))
            if decimal.Decimal(strings[row]) != rounded:
                misrounded.append(row)
        assert mpmath.nstr(fig3_exact(*table[754, :2]), 20) == "0.089608170362849997986"
    assert max(errors) <= bound
    assert int(np.argmax(errors)) == 2583
    assert misrounded == expected


@functools.lru_cache(maxsize=None)
def two_level_exact(q: float, p: float, mu: float) -> mpmath.mpf:
    """``coherent_info_two_level(q, p, mu) = (g(x1) - g(x2)) / 2`` at 50
    digits, with ``x1 = sqrt(1 - s (1 - q**2))``,
    ``x2 = sqrt(1 - s (1 - (q mu)**2))`` and ``s = 4 p (1 - p)``. Each
    ``1 - x`` is taken as ``(1 - x**2) / (1 + x)``, so that an ``x`` within
    1e-50 of 1 keeps its digits."""
    with mpmath.workdps(50):
        q, p, mu = mpmath.mpf(q), mpmath.mpf(p), mpmath.mpf(mu)
        spread = 4 * p * (1 - p)
        g = []
        for v in (q, q * mu):
            deficit = spread * (1 - v * v)  # 1 - x**2
            x = mpmath.sqrt(1 - deficit)
            rest = deficit / (1 + x)
            lo = 0 if rest == 0 else rest * mpmath.log(rest)
            g.append((lo + (1 + x) * mpmath.log1p(x)) / mpmath.log(2))
        return (g[0] - g[1]) / 2


def two_level_errors(points, values) -> tuple[np.ndarray, np.ndarray]:
    """Per value, the exact value at its point (``two_level_exact``, as a
    float) and the value's absolute error against it."""
    exact = [two_level_exact(*map(float, point)) for point in points]
    errors = [abs(mpmath.mpf(float(v)) - e) for v, e in zip(values, exact)]
    return np.array(exact, dtype=float), np.array(errors, dtype=float)


def test_fig2a_and_fig2b_default_columns_against_their_exact_values():
    """The default ``fig2a`` column ``I_c`` and ``fig2b`` columns ``I_c_E``
    and ``I_c_B`` are ``coherent_info_two_level`` at ``p = 1/2``: ``fig2a``
    at ``(q, mu)``, ``fig2b`` at ``(q_B mu, q_E)`` and ``(q_E mu, q_B)``,
    whose default ``mu = 1`` leaves those products exact. The grids hold the
    ``q = 1`` and ``mu = 1`` edges. The exact value is 0 at ``q = 0`` and at
    ``mu = 1`` (101 points per column), and every one of those floats is
    exactly 0. Elsewhere the worst error is 16,422 ulps, at
    ``(q, mu) = (0.02, 0.96)``: ``I_c`` there is 2.3e-5, a difference of two
    entropies of about 5.6e-4, each a sum of two terms of about 0.029 that
    cancel, so an absolute error of 5.6e-17 is that many ulps."""
    defaults = {command: cli._COMMANDS[command].defaults for command in ("fig2a", "fig2b")}
    _, fig2a, _ = run_sweep("fig2a", defaults["fig2a"])
    _, fig2b, _ = run_sweep("fig2b", defaults["fig2b"])
    mu = float(defaults["fig2b"]["mu"])
    columns = {
        "I_c": (fig2a, [(q, 0.5, m) for q, m in fig2a[:, :2]], 2, (0.02, 0.96)),
        "I_c_E": (fig2b, [(q_b * mu, 0.5, q_e) for q_e, q_b in fig2b[:, :2]], 2, (0.96, 0.02)),
        "I_c_B": (fig2b, [(q_e * mu, 0.5, q_b) for q_e, q_b in fig2b[:, :2]], 3, (0.02, 0.96)),
    }
    for column, (table, points, j, worst) in columns.items():
        exact, errors = two_level_errors(points, table[:, j])
        zero = exact == 0.0
        assert np.count_nonzero(zero) == 101, column
        assert (errors[zero] == 0.0).all(), column
        ulps = np.zeros_like(errors)
        ulps[~zero] = errors[~zero] / [math.ulp(e) for e in exact[~zero]]
        assert 16_422 < ulps.max() < 16_423, column
        assert tuple(table[np.argmax(ulps), :2]) == worst, column


def test_two_level_closed_form_near_q_and_mu_one():
    """``coherent_info_two_level`` at ``q`` and ``mu`` in ``1 - 2**-k``
    (``k`` from 1 to 53), 0, 1/2 and 1, at ``fig2``'s ``p = 1/2`` and at
    ``p = 0.3``. Near ``mu = 1`` the value is a difference of two entropies
    of order 1 that tends to 0, so its error is absolute: at most 8.2e-16 at
    ``p = 1/2`` and 2.6e-15 at ``p = 0.3``, where an ulp of the exact value
    is far smaller. At ``mu = 1 - 2**-52``, ``q = 1/2`` the float is even
    negative, -2.8e-17, where the exact value is 8.8e-17. Where the exact
    value is 0 (``q = 0`` or ``mu = 1``) every float is exactly 0."""
    edge = np.array([1.0 - 2.0**-k for k in range(1, 54)] + [0.0, 0.5, 1.0])
    q, mu = np.meshgrid(edge, edge, indexing="ij")
    for p, bound in ((0.5, 8.2e-16), (0.3, 2.6e-15)):
        values = coherent_info_two_level(q, p, mu).ravel()
        exact, errors = two_level_errors(zip(q.ravel(), [p] * q.size, mu.ravel()), values)
        assert np.count_nonzero(exact == 0.0) == 111
        assert (errors[exact == 0.0] == 0.0).all()
        assert errors.max() <= bound
    assert coherent_info_two_level(0.5, 0.5, 1.0 - 2.0**-52) == -2.7755575615628914e-17


def repeat_psi_exact(theta: float, chi: float, n: int) -> list[mpmath.mpf]:
    """``repeat``'s ``psi_00``, ``psi_01_re``, ``psi_01_im`` and ``psi_11``,
    the closed-form root of ``two_level_gram_sqrt``, at 50 digits:
    ``[s_plus, Re(phase) s_minus, Im(phase) s_minus, s_plus]`` with
    ``c = cos(theta/2)**n``, ``s_pm = (sqrt(1 + c) +- sqrt(1 - c)) / 2`` and
    ``phase = exp(i*n*chi)``, ``n*chi`` taken exactly. ``s_minus`` is taken
    as ``c / (2 s_plus)``, their difference of square roots without the
    cancellation, which at 50 digits would leave 0 for ``c`` below 1e-50."""
    with mpmath.workdps(50):
        c = mpmath.cos(mpmath.mpf(theta) / 2) ** n
        plus = (mpmath.sqrt(1 + c) + mpmath.sqrt(1 - c)) / 2
        minus = c / (2 * plus)
        phase = mpmath.expj(n * mpmath.mpf(chi))
        return [plus, minus * phase.real, minus * phase.imag, plus]


# Per psi column of repeat: the bound on its worst error in ulps of the exact
# value, and on its worst absolute error, over the grid of the test below.
# 2**53 ulps is the error of a float 0 where the exact value is not.
REPEAT_PSI_ACCURACY = {
    "psi_00": (2.61e8, 2.9e-8),
    "psi_01_re": (2.0**53, 2.9e-8),
    "psi_01_im": (2.0**53, 2.9e-8),
    "psi_11": (2.61e8, 2.9e-8),
}


def test_repeat_psi_columns_against_their_exact_values():
    """The ``psi_*`` columns of ``repeat`` against their closed form, over
    ``theta`` from 1e-7 to pi, counts from 1 to 20,000 (99, 100 and 101
    among them) and phase rates up to 1e4, so accumulated phases up to 2e8.
    Where the exact value is 0 (``psi_01_im`` at ``chi = 0``), every float
    is exactly 0. Elsewhere the errors have three sources:

    - ``c = cos(theta/2)**n`` raises the rounded cosine to the count, so
      ``c`` carries ``n`` times its relative rounding error, and ``1 - c``,
      about ``n theta**2 / 8`` for small angles, carries it as an absolute
      one. At ``theta = 1e-7`` and ``n = 20,000`` that is 2.6e8 ulps of
      ``psi_00`` and ``psi_11``, an absolute error of 2.9e-8, the worst of
      every column (9.3e4 ulps at ``theta = 1e-5``, 18 at 0.1, below 1
      from ``theta = 1`` on);
    - ``s_minus`` is a difference of two square roots near 1, so where it
      is below about 1e-16 (``theta`` of 1 or more, counts of some
      hundreds, where ``c`` is tiny) the float is 0 or of the order of an
      ulp of 1: up to 2**53 ulps of ``psi_01_re`` and ``psi_01_im``, an
      absolute error near 1e-16, in 5,391 of the 28,560 values;
    - ``n*chi`` is rounded before its cosine and sine are taken, an error of
      up to half an ulp of the accumulated phase.

    The absolute error of ``psi_01_re`` and ``psi_01_im`` is at most 2.9e-8
    too, at ``theta = 1e-7``.
    """
    defaults = cli._COMMANDS["repeat"].defaults
    ulps = {column: [] for column in REPEAT_PSI_ACCURACY}
    errors = {column: [] for column in REPEAT_PSI_ACCURACY}
    zeros = 0
    for theta in (1e-7, 1e-5, 1e-3, 0.1, 1.0, math.pi / 3.0, math.pi):
        for chi in (0.0, 0.05, -1.7, 123.4, 1e4):
            for counts in ("1:20000:201", "99:101:3"):
                config = {**defaults, "theta": repr(theta), "chi": repr(chi), "n": counts}
                columns, table, _ = run_sweep("repeat", config)
                for row in table:
                    exact = repeat_psi_exact(theta, chi, int(row[0]))
                    for j, column in enumerate(columns[1:5]):
                        # psi_01_im is exactly 0 where chi is.
                        error = abs(mpmath.mpf(float(row[1 + j])) - exact[j])
                        errors[column].append(float(error))
                        if exact[j] == 0:
                            assert error == 0, (column, theta, chi, row[0])
                            zeros += 1
                            continue
                        ulps[column].append(float(error) / math.ulp(float(exact[j])))
    assert zeros == 7 * 204
    for column, (ulp_bound, abs_bound) in REPEAT_PSI_ACCURACY.items():
        assert max(ulps[column]) <= ulp_bound, column
        assert max(errors[column]) <= abs_bound, column
    assert max(ulps["psi_00"]) > 2.6e8 and max(errors["psi_00"]) > 2.89e-8
