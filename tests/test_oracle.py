"""Accuracy oracles: emitted columns against their exact values.

A column's exact value is its closed form evaluated in mpmath at 50 digits
on the grid floats that the sweep used, so the error it measures is the
sweep's own, not that of another float64 route.
"""

import decimal
import hashlib

import mpmath
import numpy as np

from softmeas import cli
from softmeas.cli import main, run_sweep

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
