"""Linear-algebra kernel tests."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_eigvalsh, rand_density, rand_unitary

from softmeas.errors import (
    DimensionMismatch,
    InvalidState,
    NotHermitian,
    InvalidParams,
    NotPSD,
)
from softmeas.information import _binary_entropy, _y_rotations, semiclassical_info_continuous
from softmeas.matcore import (
    ENTROPY_CLAMP,
    TAU_RECON,
    _cexp,
    _entropy,
    _matmul,
    _unchecked_entropy,
    herm_eig,
    matrix_sqrt_psd,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from softmeas.measurement import TwoLevelMeterParams
from softmeas.repeated import (
    ContinuousLimitParams,
    _dephasing_matrix,
    _schur_power,
    _two_level_root,
    continuous_soft,
    two_level_gram_sqrt,
)

LARGEST = float(np.finfo(np.float64).max)


def rand_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def rand_psd(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a @ a.conj().T


# Eigenvalues as an entropy may meet them: zeros of either sign, subnormals,
# negatives within the clamp, values repeated so that members have ties.
ENTROPY_ENTRIES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-12, -ENTROPY_CLAMP, 0.1, 0.25, 0.5, 1.0]
    ),
    st.floats(0.0, 1.0),
)


class TestHermEig:
    def test_diagonal(self):
        w, v = herm_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14, rtol=0.0)

    def test_pauli_x(self):
        w, v = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14, rtol=0.0)

    def test_complex_offdiagonal(self):
        # characteristic polynomial (1 - x)^2 = 1/4 has roots 1/2 and 3/2
        w, v = herm_eig(np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
        np.testing.assert_allclose(w, [0.5, 1.5], atol=1e-14, rtol=0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 6):
            for _ in range(10):
                h = rand_hermitian(rng, dim)
                w, v = herm_eig(h)
                assert np.all(np.diff(w) >= 0.0)
                np.testing.assert_allclose(
                    (v * w) @ v.conj().T, h, atol=TAU_RECON * max(1.0, np.abs(h).max()), rtol=0.0
                )
                np.testing.assert_allclose(
                    v.conj().T @ v, np.eye(dim), atol=1e-12, rtol=0.0
                )


class TestMatrixSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13, rtol=0.0
        )

    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-13, rtol=0.0)

    def test_rank_one_all_ones(self):
        ones = np.ones((2, 2))
        np.testing.assert_allclose(
            matrix_sqrt_psd(ones), ones / math.sqrt(2.0), atol=1e-13, rtol=0.0
        )

    def test_rank_deficient_root_keeps_the_rank(self):
        # The zero eigenvalues come out of the decomposition as rounding
        # noise of order eps; their roots, of order sqrt(eps), must not
        # count as directions.
        rng = np.random.default_rng(14)
        for dim in range(2, 7):
            for rank in range(1, dim):
                a = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
                a /= np.linalg.norm(a, axis=0)
                for m, expected in ((a.conj().T @ a, rank), (np.ones((dim, dim)), 1)):
                    root = matrix_sqrt_psd(m)
                    assert np.linalg.matrix_rank(root, tol=1e-10) == expected, (dim, rank)
                    np.testing.assert_allclose(root @ root, m, atol=1e-12, rtol=0.0)

    def test_squares_back(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3, 5):
            m = rand_psd(rng, dim)
            s = matrix_sqrt_psd(m)
            np.testing.assert_allclose(s @ s, m, atol=TAU_RECON * np.abs(m).max(), rtol=0.0)

    def test_commutes_with_unitary_conjugation(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            m = rand_psd(rng, dim)
            u = rand_unitary(rng, dim)
            lhs = matrix_sqrt_psd(u @ m @ u.conj().T)
            rhs = u @ matrix_sqrt_psd(m) @ u.conj().T
            np.testing.assert_allclose(lhs, rhs, atol=TAU_RECON * np.abs(m).max(), rtol=0.0)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(15)
        rho_a = rand_density(rng, 2)
        rho_b = rand_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(
            partial_trace(joint, [2, 3], keep=0), rho_a, atol=1e-13, rtol=0.0
        )
        np.testing.assert_allclose(
            partial_trace(joint, [2, 3], keep=1), rho_b, atol=1e-13, rtol=0.0
        )

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        joint = np.outer(bell, bell.conj())
        np.testing.assert_allclose(
            partial_trace(joint, [2, 2], keep=0), np.eye(2) / 2.0, atol=1e-14, rtol=0.0
        )

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(16)
        rho = rand_density(rng, 12)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            reduced = partial_trace(rho, [2, 3, 2], keep=keep)
            assert abs(np.trace(reduced).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(reduced).min() > -1e-12
            validate_density_matrix(reduced)

    def test_keep_order_preserved(self):
        rng = np.random.default_rng(17)
        rho_a, rho_b, rho_c = (rand_density(rng, 2) for _ in range(3))
        joint = np.kron(np.kron(rho_a, rho_b), rho_c)
        np.testing.assert_allclose(
            partial_trace(joint, [2, 2, 2], keep=[0, 2]),
            np.kron(rho_a, rho_c),
            atol=1e-13, rtol=0.0,
        )

    def test_dimension_mismatch(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, [2, 3], keep=0)
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, [2, 2], keep=[])
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, [2, 2], keep=5)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
@pytest.mark.parametrize(
    "fn",
    [herm_eig, matrix_sqrt_psd, validate_density_matrix, von_neumann_entropy, _unchecked_entropy],
)
def test_side_zero_refused(fn, shape):
    """Every matrix the library takes has side >= 1."""
    message = f"must be square of side >= 1, got shape {shape}"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        fn(np.zeros(shape))


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_pure_state_is_zero(self):
        rng = np.random.default_rng(18)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        value = von_neumann_entropy(np.outer(v, v.conj()))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, value) > 0  # never -0.0

    def test_known_diagonal(self):
        expected = 2.0 - 0.75 * math.log2(3.0)
        assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
            expected, abs=1e-14
        )

    def test_additive_on_products(self):
        rng = np.random.default_rng(19)
        rho_a = rand_density(rng, 2)
        rho_b = rand_density(rng, 3)
        total = von_neumann_entropy(np.kron(rho_a, rho_b))
        parts = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
        assert total == pytest.approx(parts, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(20)
        rho = rand_density(rng, 4)
        u = rand_unitary(rng, 4)
        assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_sums_positive_terms_only(self, dim):
        # Zero terms would regroup numpy's pairwise sum from eight terms on.
        rng = np.random.default_rng(21 + dim)
        stack = []
        for _ in range(40):
            weights = rng.random(dim) * (rng.random(dim) < 0.6)
            weights[0] += 0.1
            u = rand_unitary(rng, dim)
            stack.append((u * (weights / weights.sum())) @ u.conj().T)
        stack = np.array(stack)
        entropies = _unchecked_entropy(stack)
        for k, rho in enumerate(stack):
            w = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0), 0.0, 1.0)
            positive = w[w > 0.0]
            expected = float(-(positive * np.log2(positive)).sum()) + 0.0
            assert _unchecked_entropy(rho) == expected
            assert entropies[k] == expected

    @settings(deadline=None, max_examples=300)
    @given(
        dim=st.integers(1, 12),
        stack=st.lists(st.integers(1, 4), max_size=2),
        ascending=st.booleans(),
        data=st.data(),
    )
    def test_entropy_has_the_floats_of_numpys_sum(self, dim, stack, ascending, data):
        """``_entropy`` equals, bit for bit, numpy's ``terms.sum(axis=-1)``
        of each member's terms (from eight terms on, of its positive ones):
        eigenvalues with zeros of either sign, ties, subnormals and
        negatives within the clamp, ascending or in any order, one member
        or a stack."""
        size = math.prod(stack) * dim
        values = data.draw(st.lists(ENTROPY_ENTRIES, min_size=size, max_size=size))
        w = np.array(values).reshape(*stack, dim)
        if ascending:
            w = np.sort(w, axis=-1)
        clipped = np.clip(w, 0.0, 1.0)
        terms = clipped * np.log2(np.where(clipped > 0.0, clipped, 1.0))
        expected = np.asarray(-terms.sum(axis=-1) + 0.0)
        if dim >= 8:
            for i in map(tuple, np.argwhere(np.any(clipped == 0.0, axis=-1))):
                positive = clipped[i][clipped[i] > 0.0]
                expected[i] = -(positive * np.log2(positive)).sum() + 0.0
        entropy = _entropy(w)
        assert isinstance(entropy, float) == (not stack)
        assert np.asarray(entropy).tobytes() == expected.tobytes()

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidState):
            von_neumann_entropy(np.eye(2))  # trace 2
        with pytest.raises(InvalidState):
            von_neumann_entropy(np.diag([1.2, -0.2]))
        with pytest.raises(InvalidState):
            _unchecked_entropy(np.diag([1.2, -0.2]))


class TestValidateDensityMatrix:
    def test_names_failed_invariant(self):
        with pytest.raises(InvalidState, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(InvalidState, match="trace"):
            validate_density_matrix(np.eye(2))
        with pytest.raises(InvalidState, match="PSD"):
            validate_density_matrix(np.diag([1.5, -0.5]))


def rand_density_stack(rng, shape, dim):
    return np.array([rand_density(rng, dim) for _ in range(math.prod(shape))]).reshape(
        shape + (dim, dim)
    )


STACK = (3, 4)
BAD = (2, 1)


def assert_names_member(excinfo, index):
    assert excinfo.value.index == index
    label = f" (stack member [{', '.join(map(str, index))}])"
    assert str(excinfo.value).endswith(label)
    assert str(excinfo.value).count("stack member") == 1


class TestStackedKernels:
    """A stack gives, member by member, the floats of the per-matrix calls,
    and a check that fails names the first failing member."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_herm_eig(self, dim):
        rng = np.random.default_rng(100 + dim)
        stack = np.array([rand_hermitian(rng, dim) for _ in range(12)]).reshape(STACK + (dim, dim))
        w, v = herm_eig(stack)
        for index in np.ndindex(STACK):
            single_w, single_v = herm_eig(stack[index])
            assert np.array_equal(w[index], single_w)
            assert np.array_equal(v[index], single_v)
        stack[BAD + (0, 1)] += 1.0
        with pytest.raises(NotHermitian) as excinfo:
            herm_eig(stack)
        assert_names_member(excinfo, BAD)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matrix_sqrt_psd(self, dim):
        rng = np.random.default_rng(110 + dim)
        stack = np.array([rand_psd(rng, dim) for _ in range(12)]).reshape(STACK + (dim, dim))
        roots = matrix_sqrt_psd(stack)
        for index in np.ndindex(STACK):
            assert np.array_equal(roots[index], matrix_sqrt_psd(stack[index]))
        stack[BAD] = -np.eye(dim)
        with pytest.raises(NotPSD) as excinfo:
            matrix_sqrt_psd(stack)
        assert_names_member(excinfo, BAD)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_von_neumann_entropy(self, dim):
        rng = np.random.default_rng(130 + dim)
        stack = rand_density_stack(rng, STACK, dim)
        stack[0, 0] = np.eye(dim) / dim
        stack[0, 1] = np.diag([1.0] + [0.0] * (dim - 1))
        entropies = von_neumann_entropy(stack)
        assert entropies.shape == STACK
        for index in np.ndindex(STACK):
            single = von_neumann_entropy(stack[index])
            assert isinstance(single, float)
            assert entropies[index] == single
        assert entropies[0, 1] == 0.0 and math.copysign(1.0, entropies[0, 1]) > 0
        stack[BAD] = np.diag([1.2] + [-0.2] + [0.0] * (dim - 2))
        with pytest.raises(InvalidState) as excinfo:
            _unchecked_entropy(stack)
        assert_names_member(excinfo, BAD)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize(
        "invariant, corrupt",
        [
            ("Hermitian", lambda m: m + np.triu(np.ones_like(m), 1)),
            ("trace", lambda m: 2.0 * m),
            ("PSD", lambda m: np.diag([1.5, -0.5] + [0.0] * (m.shape[0] - 2))),
            ("Hermitian", lambda m: np.full_like(m, np.nan)),
        ],
    )
    def test_validate_density_matrix(self, dim, invariant, corrupt):
        rng = np.random.default_rng(140 + dim)
        stack = rand_density_stack(rng, STACK, dim)
        validate_density_matrix(stack)
        for index in np.ndindex(STACK):
            validate_density_matrix(stack[index])
        stack[BAD] = corrupt(stack[BAD])
        stack[BAD[0], BAD[1] + 1] = corrupt(stack[BAD[0], BAD[1] + 1])
        with pytest.raises(InvalidState, match=invariant) as excinfo:
            validate_density_matrix(stack, name="state")
        assert_names_member(excinfo, BAD)
        assert str(excinfo.value).startswith("state ")

    def test_single_matrix_errors_carry_no_index(self):
        with pytest.raises(InvalidState) as excinfo:
            validate_density_matrix(np.diag([1.5, -0.5]))
        assert excinfo.value.index is None
        assert str(excinfo.value).startswith("rho not PSD")


def rank_deficient_stack(rng, count, dim):
    """Random density matrices of dimension ``dim``, about 40 % of their
    eigenvalues exactly zero."""
    stack = []
    for _ in range(count):
        weights = rng.random(dim) * (rng.random(dim) < 0.6)
        weights[0] += 0.1
        u = rand_unitary(rng, dim)
        stack.append((u * (weights / weights.sum())) @ u.conj().T)
    return np.array(stack)


class TestOneSpectrumPerCheck:
    """A validated entropy decomposes its matrix once, and the density
    check hands out the spectrum it computed."""

    def test_validated_entropy_makes_one_eigensolve(self, monkeypatch):
        stack = rand_density_stack(np.random.default_rng(170), STACK, 3)
        calls = count_eigvalsh(monkeypatch)
        von_neumann_entropy(stack)
        assert calls == [STACK + (3, 3)]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_check_returns_the_spectrum(self, dim):
        stack = rand_density_stack(np.random.default_rng(171 + dim), STACK, dim)
        stack = stack + 1e-13j * np.triu(np.ones((dim, dim)), 1)  # Hermitian within tolerance
        expected = np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2.0)
        assert np.array_equal(validate_density_matrix(stack), expected)
        assert np.array_equal(validate_density_matrix(stack[1, 2]), expected[1, 2])

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_validated_and_unvalidated_entropies_are_equal(self, dim):
        rng = np.random.default_rng(180 + dim)
        stack = np.concatenate(
            [rank_deficient_stack(rng, 20, dim), rand_density_stack(rng, (20,), dim)]
        )
        checked = von_neumann_entropy(stack)
        assert np.array_equal(checked, _unchecked_entropy(stack))
        for k, rho in enumerate(stack):
            assert von_neumann_entropy(rho) == _unchecked_entropy(rho)
            assert von_neumann_entropy(rho) == checked[k]


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def matrix_stack(rng, stack, dim, layout):
    """A complex ``stack + (dim, dim)`` array laid out in memory as named:
    C order, each matrix transposed, every other row and column of a larger
    array, or the matrix axes first with the stack axes moved behind them."""
    if layout == "transposed":
        return complex_normal(rng, stack + (dim, dim)).swapaxes(-1, -2)
    if layout == "strided":
        return complex_normal(rng, stack + (2 * dim, 2 * dim))[..., ::2, ::2]
    if layout == "matrix-first":
        return np.moveaxis(complex_normal(rng, (dim, dim) + stack), (0, 1), (-2, -1))
    return complex_normal(rng, stack + (dim, dim))


# How ``b`` meets one stack axis of ``a``: with the same length, with length
# 1 (``b`` is shared along it), or with ``a``'s length 1 (``a`` is shared).
AXIS_PATTERNS = ("same", "b-one", "a-one")


@pytest.mark.skylakex_only
@settings(deadline=None, max_examples=300)
@given(
    dim=st.integers(2, 6),
    axes=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(AXIS_PATTERNS)), max_size=3),
    dropped=st.integers(0, 3),
    layout=st.sampled_from(["contiguous", "transposed", "strided", "matrix-first"]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    dim=2, axes=[(3, "b-one"), (0, "same")], dropped=0, layout="contiguous", real=False, seed=1
)
@example(dim=3, axes=[(0, "b-one"), (4, "b-one")], dropped=1, layout="strided", real=False, seed=2)
@example(
    dim=2, axes=[(5, "b-one"), (4, "same")], dropped=0, layout="transposed", real=False, seed=3
)
@example(
    dim=4, axes=[(3, "a-one"), (4, "b-one")], dropped=0, layout="matrix-first", real=False, seed=4
)
@example(dim=2, axes=[(3, "b-one"), (4, "b-one")], dropped=2, layout="strided", real=False, seed=5)
@example(dim=2, axes=[(5, "a-one"), (4, "same")], dropped=0, layout="contiguous", real=True, seed=6)
@example(
    dim=2, axes=[(5, "a-one"), (4, "same")], dropped=0, layout="contiguous", real=False, seed=6
)
@example(dim=3, axes=[(4, "a-one"), (3, "a-one")], dropped=1, layout="strided", real=True, seed=7)
@example(dim=3, axes=[(4, "a-one"), (3, "a-one")], dropped=1, layout="strided", real=False, seed=7)
def test_matmul_is_matmul_bit_for_bit(dim, axes, dropped, layout, real, seed):
    """``_matmul`` joins the stack axes along which ``b`` is shared into
    one tall product; each entry is still the same dot product, so the
    result is ``a @ b`` to the last bit, for complex entries, any broadcast
    pattern (a 2-D ``b`` included), zero-length axes and any layout of
    ``a``. On a BLAS that rounds a tall product differently this fails
    rather than letting the sweep outputs move.

    The ``==`` equality is verified per BLAS kernel set, not in general: it
    holds on the SkylakeX (AVX-512) kernels that OpenBLAS selects on the
    development machine. Under ``OPENBLAS_CORETYPE=Haswell`` a complex tall
    product differs in bits from the per-member products for D = 4, 5, 7
    and 8 (the ``dim=4`` example below fails), while D <= 3 and D = 6
    agree, the sweeps' D = 2 among them.

    Where ``a`` is shared instead, a real ``a`` (a float array) is made the
    shared right factor of the transposed product, which equals ``a @ b``
    under ``==`` (only the sign of an exact zero may differ); a complex
    ``a`` keeps the plain product, bit for bit, signs of zeros included."""
    rng = np.random.default_rng(seed)
    a_stack = tuple(1 if kind == "a-one" else n for n, kind in axes)
    b_stack = tuple(1 if kind == "b-one" else n for n, kind in axes)[dropped:]
    a = matrix_stack(rng, a_stack, dim, layout)
    if real:
        a = a.real
    b = complex_normal(rng, b_stack + (dim, dim))
    out, expected = _matmul(a, b), a @ b
    if real:
        assert np.array_equal(out, expected)
    else:
        bits = [np.ascontiguousarray(x).view(np.int64) for x in (out, expected)]
        assert np.array_equal(*bits)


# Bases of the two-level closed forms, which lie in [0, 1], with the values
# where a power's rounding is most likely to part from libm's drawn often:
# 0, 1, the smallest subnormal, the float one ulp below 1 and subnormals.
POWER_BASES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0)]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.2250738585072014e-308),
)
POWER_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 2**53, 2**53 + 1, 2**63 - 1]), st.integers(1, 2**63 - 1)
)


def libm_bits(values):
    return np.array(values, dtype=float).view(np.int64)


@settings(deadline=None, max_examples=200)
@given(
    bases=st.lists(POWER_BASES, min_size=1, max_size=64),
    counts=st.lists(POWER_COUNTS, min_size=1, max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
@example(bases=[0.42672114373024106], counts=[1], seed=0)
def test_float_power_is_libm_pow_bit_for_bit(bases, counts, seed):
    """``np.float_power`` gives, entry by entry, the float of Python's
    ``pow``, which is libm's: its ``dd->d`` loop calls libm's ``pow`` and has
    no SIMD variant, where ``np.power`` with an array exponent, ``np.square``
    and ``x * x`` part from libm in the last ulp for some entries. The two
    call sites rely on this for their bits:
    ``information.coherent_info_two_level`` squares ``q*mu`` (exponent
    2.0), and ``repeated.two_level_gram_sqrt`` raises ``cos(theta/2)`` to
    an ``int64`` array of counts from 1 to ``2**63 - 1``, which
    ``float_power`` casts to float as ``pow`` casts a Python int.

    Uniform bases join the drawn ones, since about 1 in 1,200 of them has a
    square ``x * x`` that parts from libm's: 0.42672114373024106 is one."""
    x = np.concatenate([bases, np.random.default_rng(seed).uniform(0.0, 1.0, 1024)])
    bases = x.tolist()
    squares = np.float_power(x, 2.0)
    assert np.array_equal(squares.view(np.int64), libm_bits([pow(v, 2) for v in bases]))
    powers = np.float_power(x[:, None], np.array(counts, dtype=np.int64))
    expected = libm_bits([[pow(v, k) for k in counts] for v in bases])
    assert np.array_equal(powers.view(np.int64), expected)


def bits(values) -> np.ndarray:
    """The floats of ``values``, real or complex, as ``int64`` bit patterns."""
    return np.ascontiguousarray(values).view(np.int64)


def numpy_schur_power(matrix, n):
    """``_schur_power``'s formula as numpy states it: ``matrix ** n``, a
    count of 2 squared by ``np.square``, and each modulus above 1 scaled back
    to 1. Where a power overflows this gives NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = matrix ** n[..., None, None]
        powers[n == 2] = np.square(matrix)
        modulus = np.abs(powers)
        big = modulus > 1.0
        powers[big] /= modulus[big]
    return powers


ONE_PLUS_ULP = math.nextafter(1.0, 2.0)
# Entries of a correlation matrix, with those where a power's route matters
# drawn often: signed zeros, the real and imaginary units, unit moduli, and
# moduli of 1 plus an ulp, whose powers overflow from about 2**62 on.
SCHUR_ENTRIES = st.one_of(
    st.sampled_from(
        [
            0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, complex(1.0, -0.0),
            -1.0, 1j, -1j, 0.6 + 0.8j, 0.6 + 0.8000000000000002j, ONE_PLUS_ULP,
            complex(ONE_PLUS_ULP, 0.0) * cmath.exp(0.3j), math.nextafter(1.0, 0.0),
        ]
    ),
    st.floats(-1.0, 1.0),
    st.complex_numbers(max_magnitude=1.0),
    st.floats(-math.pi, math.pi).map(lambda a: cmath.exp(1j * a)),
)
SCHUR_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 99, 100, 101, 2**40, 2**62, 10**18, 2**63 - 1]),
    st.integers(1, 20_000),
    st.integers(1, 2**63 - 1),
)


@settings(deadline=None, max_examples=300)
@given(
    matrix=st.integers(2, 5).flatmap(
        lambda d: st.lists(SCHUR_ENTRIES, min_size=d * d, max_size=d * d).map(
            lambda e: np.array(e, dtype=complex).reshape(d, d)
        )
    ),
    counts=st.lists(SCHUR_COUNTS, min_size=1, max_size=16),
    scalar=st.booleans(),
)
@example(
    matrix=np.array([[complex(1.0, -0.0), 0.6 + 0.8j], [0.6 - 0.8j, complex(1.0, -0.0)]]),
    counts=[99, 100, 101, 2**63 - 1],
    scalar=False,
)
@example(matrix=np.array([[1.0, -0.3j], [0.3j, 1.0]]), counts=[2**63 - 1], scalar=True)
def test_schur_power_is_numpy_power_bit_for_bit(matrix, counts, scalar):
    """``repeated._schur_power`` gives numpy's power bit for bit, signs of
    zeros included, on three premises: numpy's complex power multiplies an
    integer exponent below 100 out, which ``_schur_power`` leaves to it; from
    100 on it calls libm's ``cpow``, which glibc computes as
    ``cexp(n * clog(z))``; and numpy's complex ``exp`` and ``log`` loops are
    libm's ``cexp`` and ``clog``, so ``exp(n * log(z))`` with the logarithm
    taken once per entry gives ``cpow``'s floats. Where numpy's power
    overflows (a modulus of 1 plus an ulp from about ``2**62`` on), the power
    is the unit-modulus phase ``exp(i*n*arg z)`` instead of NaN."""
    n = np.array(counts[:1] if scalar else counts, dtype=np.int64).reshape(() if scalar else -1)
    out = _schur_power(matrix, n)
    expected = numpy_schur_power(matrix, n)
    finite = np.isfinite(expected)
    assert np.array_equal(bits(out[finite]), bits(expected[finite]))
    angles = (n[..., None, None] * np.angle(matrix))[~finite].tolist()
    phases = [complex(math.cos(a), math.sin(a)) for a in angles]
    assert np.array_equal(bits(out[~finite]), bits(np.array(phases, complex)))


# Angles as the phase sites take them: any finite float, which is
# _check_phase's limit, with zeros, subnormals and the largest floats.
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, LARGEST, -LARGEST]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e4, 1e4),
)
# Exponents of a decay: x <= 0, with the band from -745 to -708 where exp(x)
# is subnormal or rounds to 0, and an overflowed product, -inf.
DECAYS = st.one_of(
    st.sampled_from([0.0, -0.0, -math.inf, -708.0, -745.0, -745.2]),
    st.floats(-745.2, -708.0),
    st.floats(-800.0, 0.0),
    st.floats(max_value=0.0, allow_nan=False),
)


@settings(deadline=None, max_examples=200)
@given(angles=st.lists(ANGLES, min_size=1, max_size=64), seed=st.integers(0, 2**32 - 1))
def test_cexp_phase_is_libm_cos_and_sin_bit_for_bit(angles, seed):
    """``matcore._cexp(0.0, a)`` holds ``(math.cos(a), math.sin(a))`` bit for
    bit: numpy's complex ``exp`` loop is libm's ``cexp``, which takes libm's
    ``cos`` and ``sin`` of the imaginary part. The phases of
    ``two_level_gram_sqrt`` and ``continuous_soft`` and the rotations of
    ``information._y_rotations`` rest on this."""
    a = np.concatenate([angles, np.random.default_rng(seed).uniform(-1e3, 1e3, 1024)])
    phase = _cexp(0.0, a)
    assert np.array_equal(phase.real.view(np.int64), bits([math.cos(v) for v in a.tolist()]))
    assert np.array_equal(phase.imag.view(np.int64), bits([math.sin(v) for v in a.tolist()]))


@settings(deadline=None, max_examples=200)
@given(xs=st.lists(DECAYS, min_size=1, max_size=64), seed=st.integers(0, 2**32 - 1))
def test_cexp_decay_is_libm_exp_bit_for_bit(xs, seed):
    """``matcore._cexp(x).real`` holds ``math.exp(x)`` bit for bit for every
    ``x <= 0``, the subnormal band and ``-inf`` included: libm's ``cexp`` of a
    real argument is ``exp(x)`` times a cosine of exactly 1. The decays of
    ``continuous_soft`` and ``semiclassical_info_continuous`` rest on this."""
    x = np.concatenate([xs, np.random.default_rng(seed).uniform(-800.0, 0.0, 1024)])
    assert np.array_equal(_cexp(x).real.view(np.int64), bits([math.exp(v) for v in x.tolist()]))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(DECAYS, ANGLES), min_size=1, max_size=64))
def test_cexp_is_cmath_exp_bit_for_bit(points):
    """``matcore._cexp(x, y)`` holds ``cmath.exp(complex(x, y))`` bit for bit
    for a finite angle and ``x <= 0``, an overflowed ``-inf`` included."""
    x, y = np.array(points).T
    expected = np.array([cmath.exp(complex(*p)) for p in points])
    assert np.array_equal(bits(_cexp(x, y)), bits(expected))


def test_cexp_signs_the_zero_where_cmath_does_not():
    """Where a decay and a phase both overflow, ``-inf - inf*1j``, libm's
    ``cexp`` gives ``-0`` for the imaginary part and ``cmath.exp`` ``+0``.
    So ``repeated._dephasing_matrix``, whose ``-r_dot*t`` is that for a
    large ``r_dot`` and ``t``, keeps ``cmath.exp`` one time at a time."""
    z = complex(-math.inf, -math.inf)
    assert math.copysign(1.0, _cexp(z.real, z.imag).imag) == -1.0
    assert math.copysign(1.0, cmath.exp(z).imag) == 1.0
    off = _dephasing_matrix(ContinuousLimitParams(1.0, 1e10, r_dot=1e300 + 1e300j))[0, 1]
    assert math.copysign(1.0, off.imag) == 1.0


@settings(deadline=None, max_examples=200)
@given(
    theta=st.floats(0.0, math.pi),
    chi=ANGLES,
    counts=st.lists(SCHUR_COUNTS, min_size=1, max_size=16),
    angles=st.lists(ANGLES, min_size=1, max_size=16),
)
def test_phase_sites_hold_their_libm_floats(theta, chi, counts, angles):
    """``two_level_gram_sqrt`` and ``information._y_rotations`` hold the
    floats of their per-entry ``math.cos`` and ``math.sin`` formulas over
    every count, angle and phase rate they accept."""
    n = np.array(counts, dtype=np.int64)
    params = TwoLevelMeterParams(theta, chi=chi)
    with np.errstate(over="ignore"):
        angle = n * chi
    if not np.isfinite(angle).all():
        with pytest.raises(InvalidParams):
            two_level_gram_sqrt(params, n)
    else:
        phase = np.array([complex(math.cos(a), math.sin(a)) for a in angle.tolist()])
        expected = _two_level_root(np.float_power(math.cos(theta / 2.0), n), phase)
        assert np.array_equal(bits(two_level_gram_sqrt(params, n)), bits(expected))
    a = np.array(angles)
    cos, sin = (np.array([f(v) for v in (a / 2.0).tolist()]) for f in (math.cos, math.sin))
    expected = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    assert np.array_equal(bits(_y_rotations(a)), bits(expected))


@settings(deadline=None, max_examples=200)
@given(
    kappa=st.one_of(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0.0, 1e6)),
    chi_dot=st.one_of(st.sampled_from([0.0, -0.0, 1e300]), st.floats(-1e6, 1e6)),
    times=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1e10]), st.floats(0.0, 1e3)), min_size=1, max_size=16
    ),
)
def test_continuous_sites_hold_their_libm_floats(kappa, chi_dot, times):
    """``continuous_soft``'s Gram matrix and meter root, and
    ``semiclassical_info_continuous``, hold the floats of their per-time
    ``math.exp(-kappa*t)`` and ``cmath.exp(1j*chi_dot*t)``, over decays in
    the subnormal band and past overflow, and signed zero rates and times."""
    t = np.array(times)
    params = ContinuousLimitParams(kappa, t, chi_dot=chi_dot)
    with np.errstate(over="ignore"):
        phase_overflows = not np.isfinite(chi_dot * t).all()
    if phase_overflows:
        with pytest.raises(InvalidParams):
            continuous_soft(params)
        return
    c = np.array([math.exp(-kappa * v) for v in times])
    phase = np.array([cmath.exp(1j * chi_dot * v) for v in times])
    off = c * phase
    measurement = continuous_soft(params)
    for got, expected in (
        (measurement.gram[..., 0, 1], off),
        (measurement.meter_vectors, _two_level_root(c, phase)),
    ):
        assert np.array_equal(bits(got), bits(expected))
    info = [_binary_entropy((1.0 + v) / 2.0) for v in c.tolist()]
    assert np.array_equal(bits(semiclassical_info_continuous(kappa, t)), bits(info))
