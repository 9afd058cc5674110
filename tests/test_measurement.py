"""Soft / entangling / general measurement channel tests."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    binary_entropy,
    count_eigensolves,
    meter_states,
    rand_correlation,
    rand_density,
    spy_correlation_checks,
)

from softmeas import matcore
from softmeas import measurement as measurement_module
from softmeas.errors import DimensionMismatch, InvalidMeasurement, InvalidState, OutOfRange
from softmeas.matcore import (
    matrix_sqrt_psd,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from softmeas.measurement import (
    GeneralMeasurement,
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_general,
    apply_soft,
    two_level_gram,
    two_level_meter_states,
)


class TestValidateSoft:
    """The checks a soft measurement runs when it is built."""

    def test_projective_is_valid(self):
        m = SoftMeasurement(np.eye(2), np.eye(2))
        assert m.entanglement.dtype == m.gram.dtype == complex and m.dim == 2

    def test_overlarge_offdiagonal_fails_psd(self):
        # 2x2 determinant 1 - |r|^2 < 0 for |r| > 1
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(InvalidMeasurement, match="entanglement is not PSD"):
            SoftMeasurement(bad, np.eye(2))

    def test_pure_phase_entanglement_is_valid(self):
        rng = np.random.default_rng(21)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        z = np.exp(1j * phases)
        r = np.outer(z, z.conj())
        np.fill_diagonal(r, 1.0)
        assert SoftMeasurement(r, np.eye(4)).dim == 4

    def test_every_failure_is_listed(self):
        non_herm = np.array([[1.0, 0.5], [0.2, 1.0]])
        bad_diag = np.array([[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMeasurement) as excinfo:
            SoftMeasurement(non_herm, bad_diag)
        assert str(excinfo.value) == (
            "entanglement is not Hermitian within 1.0e-10; gram diagonal is not identically 1"
        )


# Invalid (entanglement, gram) pairs with the exact message and ``index``
# each must raise. The texts are pinned literally, so a change to the wording
# or order of any check shows here.
NOT_PSD = [[1.0, 1.5], [1.5, 1.0]]
NON_HERM = [[1.0, 0.5], [0.2, 1.0]]
BAD_DIAG = np.diag([0.5, 1.0])


def _stack(shape, bad):
    """A stack of valid 2x2 correlation matrices with the members ``bad`` replaced."""
    out = np.broadcast_to(np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex), shape + (2, 2)).copy()
    for index, mat in bad.items():
        out[index] = mat
    return out


INVALID_SOFT = {
    "non-hermitian": (
        NON_HERM, np.eye(2), "entanglement is not Hermitian within 1.0e-10", None
    ),
    "non-hermitian-complex": (
        np.eye(2), [[1.0, 0.5j], [0.5j, 1.0]], "gram is not Hermitian within 1.0e-10", None
    ),
    "non-psd": (
        np.eye(2),
        NOT_PSD,
        "gram is not PSD: eigenvalue -5.000e-01; gram has an entry with modulus > 1",
        None,
    ),
    "non-psd-only": (
        np.eye(3),
        np.full((3, 3), -0.6) + 1.6 * np.eye(3),
        "gram is not PSD: eigenvalue -2.000e-01",
        None,
    ),
    "bad-diagonal": (np.eye(2), BAD_DIAG, "gram diagonal is not identically 1", None),
    "modulus": (
        [[2.0, 1.5], [1.5, 2.0]],
        np.eye(2),
        "entanglement diagonal is not identically 1; entanglement has an entry with modulus > 1",
        None,
    ),
    "nan": (
        np.eye(2), [[1.0, np.nan], [np.nan, 1.0]], "gram is not Hermitian within 1.0e-10", None
    ),
    "inf": (
        [[1.0, np.inf], [np.inf, 1.0]],
        np.eye(2),
        "entanglement is not Hermitian within 1.0e-10; "
        "entanglement has an entry with modulus > 1",
        None,
    ),
    "nan-diagonal": (
        [[np.nan, 0.0], [0.0, 1.0]],
        np.eye(2),
        "entanglement is not Hermitian within 1.0e-10",
        None,
    ),
    "shapes": (np.eye(2), np.eye(3), "entanglement shape (2, 2) != gram shape (3, 3)", None),
    "not-square": (
        np.ones((2, 3)),
        np.eye(2),
        "entanglement must be square of side >= 1, got shape (2, 3); "
        "entanglement shape (2, 3) != gram shape (2, 2)",
        None,
    ),
    "empty": (
        np.zeros((0, 0)),
        np.zeros((0, 0)),
        "entanglement must be square of side >= 1, got shape (0, 0); "
        "gram must be square of side >= 1, got shape (0, 0)",
        None,
    ),
    "empty-stack": (
        np.zeros((3, 0, 0)),
        np.eye(2),
        "entanglement must be square of side >= 1, got shape (3, 0, 0); "
        "entanglement shape (3, 0, 0) != gram shape (2, 2)",
        None,
    ),
    "several": (
        NON_HERM,
        np.diag([0.5, 1.0, 1.0]),
        "entanglement is not Hermitian within 1.0e-10; gram diagonal is not identically 1; "
        "entanglement shape (2, 2) != gram shape (3, 3)",
        None,
    ),
    "stacked": (
        _stack((2, 3), {(1, 2): NOT_PSD}),
        _stack((2, 3), {(0, 1): NON_HERM, (1, 0): BAD_DIAG}),
        "gram is not Hermitian within 1.0e-10 (stack member [0, 1])",
        (0, 1),
    ),
    "stacked-one-member": (
        _stack((2, 3), {(0, 2): NOT_PSD}),
        _stack((2, 3), {(0, 2): BAD_DIAG, (1, 0): NON_HERM}),
        "entanglement is not PSD: eigenvalue -5.000e-01; "
        "entanglement has an entry with modulus > 1; "
        "gram diagonal is not identically 1 (stack member [0, 2])",
        (0, 2),
    ),
    "stack-and-single": (
        NOT_PSD,
        _stack((3,), {2: BAD_DIAG}),
        "entanglement is not PSD: eigenvalue -5.000e-01; "
        "entanglement has an entry with modulus > 1; "
        "entanglement shape (2, 2) != gram shape (3, 2, 2)",
        None,
    ),
}


@pytest.mark.parametrize("case", INVALID_SOFT)
def test_soft_measurement_raises_each_failure_when_built(case):
    entanglement, gram, message, index = INVALID_SOFT[case]
    with pytest.raises(InvalidMeasurement) as excinfo:
        SoftMeasurement(entanglement, gram)
    assert str(excinfo.value) == message
    assert excinfo.value.index == index


def _blocks(b00=None, b11=None, b01=None):
    """2x2 blocks of 2x2 meter operators: maximally mixed diagonal blocks
    unless given, and ``b01`` in the (0, 0) entries of the two off-diagonal
    blocks."""
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    out[0, 0] = np.eye(2) / 2.0 if b00 is None else b00
    out[1, 1] = np.eye(2) / 2.0 if b11 is None else b11
    if b01 is not None:
        out[0, 1, 0, 0], out[1, 0, 0, 0] = b01
    return out


INVALID_GENERAL = {
    "ndim": (
        np.zeros((2, 2, 2)), "blocks must have shape (D, D, m, m) with D, m >= 1, got (2, 2, 2)"
    ),
    "not-square": (
        np.zeros((2, 3, 2, 2)),
        "blocks must have shape (D, D, m, m) with D, m >= 1, got (2, 3, 2, 2)",
    ),
    "empty": (
        np.zeros((0, 0, 0, 0)),
        "blocks must have shape (D, D, m, m) with D, m >= 1, got (0, 0, 0, 0)",
    ),
    "empty-meter": (
        np.zeros((2, 2, 0, 0)),
        "blocks must have shape (D, D, m, m) with D, m >= 1, got (2, 2, 0, 0)",
    ),
    "non-hermitian": (_blocks(b01=(1.0, 0.0)), "assembled block operator is not Hermitian"),
    "nan": (_blocks(b01=(np.nan, np.nan)), "assembled block operator is not Hermitian"),
    "inf": (_blocks(b01=(np.inf, np.inf)), "assembled block operator is not Hermitian"),
    "non-psd": (
        _blocks(b00=np.diag([2.0, -1.0])),
        "assembled block operator is not PSD: eigenvalue -1.000e+00",
    ),
    "bad-trace": (_blocks(b00=np.eye(2)), "diagonal block 0 has trace 2+0j, expected 1"),
    "non-psd-and-trace": (
        _blocks(b00=np.diag([3.0, -1.0]), b11=np.diag([0.25, 0.25])),
        "assembled block operator is not PSD: eigenvalue -1.000e+00; "
        "diagonal block 0 has trace 2+0j, expected 1; "
        "diagonal block 1 has trace 0.5+0j, expected 1",
    ),
    "non-hermitian-and-trace": (
        _blocks(b11=np.eye(2), b01=(1.0, 0.0)),
        "assembled block operator is not Hermitian; diagonal block 1 has trace 2+0j, expected 1",
    ),
}


@pytest.mark.parametrize("case", INVALID_GENERAL)
def test_general_measurement_raises_each_failure_when_built(case):
    blocks, message = INVALID_GENERAL[case]
    with pytest.raises(InvalidMeasurement) as excinfo:
        GeneralMeasurement(blocks)
    assert str(excinfo.value) == message
    assert excinfo.value.index is None


class TestMeterStatesFromGram:
    """The meter states a Gram matrix gives a measurement."""

    def test_identity_gives_standard_basis(self):
        np.testing.assert_allclose(meter_states(np.eye(3)), np.eye(3), atol=1e-13, rtol=0.0)

    def test_all_ones_gives_equal_vectors(self):
        vecs = meter_states(np.ones((2, 2)))
        expected = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(vecs[:, 0], expected, atol=1e-13, rtol=0.0)
        np.testing.assert_allclose(vecs[:, 1], expected, atol=1e-13, rtol=0.0)

    def test_two_level_overlap(self):
        q = two_level_gram(TwoLevelMeterParams(theta=math.pi / 2.0))
        vecs = meter_states(q)
        overlap = vecs[:, 0].conj() @ vecs[:, 1]
        assert overlap == pytest.approx(math.cos(math.pi / 4.0), abs=1e-12)

    def test_reproduces_gram_and_norms(self):
        rng = np.random.default_rng(22)
        for dim in (2, 3, 4):
            gram = rand_correlation(rng, dim)
            vecs = meter_states(gram)
            np.testing.assert_allclose(vecs.conj().T @ vecs, gram, atol=1e-10, rtol=0.0)
            np.testing.assert_allclose(
                np.linalg.norm(vecs, axis=0), np.ones(dim), atol=1e-10, rtol=0.0
            )

    def test_invalid_gram_rejected(self):
        with pytest.raises(InvalidMeasurement):
            meter_states(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestMeterVectors:
    """``SoftMeasurement.meter_vectors``: the root of the Gram matrix, taken
    on first use and kept."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_is_the_root_of_the_gram_matrix(self, dim):
        rng = np.random.default_rng(230 + dim)
        gram = rand_correlation(rng, dim)
        measurement = SoftMeasurement(rand_correlation(rng, dim), gram)
        assert np.array_equal(measurement.meter_vectors, matrix_sqrt_psd(gram))

    def test_stacked_measurement_gives_the_stack_of_roots(self):
        rng = np.random.default_rng(235)
        grams = np.array([rand_correlation(rng, 3) for _ in range(4)])
        measurement = SoftMeasurement(np.broadcast_to(np.eye(3), grams.shape), grams)
        assert np.array_equal(measurement.meter_vectors, matrix_sqrt_psd(grams))

    def test_taken_on_first_use_and_kept(self, monkeypatch):
        rng = np.random.default_rng(236)
        calls = count_eigensolves(monkeypatch)
        measurement = SoftMeasurement(rand_correlation(rng, 3), rand_correlation(rng, 3))
        built = len(calls)
        vectors = measurement.meter_vectors
        assert calls[built:] == [("eigh", (3, 3))]
        assert measurement.meter_vectors is vectors
        apply_soft(measurement, rand_density(rng, 3))
        # The second read and apply_soft reuse the root; only rho is checked.
        assert calls[built + 1 :] == [("eigvalsh", (3, 3))]

    def test_root_checks_the_gram_matrix_no_more(self, monkeypatch):
        """The Gram matrix was checked when the measurement was built, so
        taking its root runs no Hermiticity check."""
        measurement = SoftMeasurement(np.eye(2), np.array([[1.0, 0.3], [0.3, 1.0]]))
        checked = []
        for module in (matcore, measurement_module):
            original = module._hermitian_deviation

            def counted(m, _original=original):
                checked.append(np.shape(m))
                return _original(m)

            monkeypatch.setattr(module, "_hermitian_deviation", counted)
        measurement.meter_vectors
        assert checked == []

    def test_is_read_only(self):
        measurement = SoftMeasurement(np.eye(2), np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            measurement.meter_vectors = np.zeros((2, 2))


def projective_expected(rho):
    d = rho.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        out[k * d + k, k * d + k] = rho[k, k]
    return out


class TestApplySoft:
    def test_projective_outcome(self):
        rng = np.random.default_rng(23)
        rho = rand_density(rng, 3)
        m = SoftMeasurement(np.eye(3), np.eye(3))
        np.testing.assert_allclose(
            apply_soft(m, rho), projective_expected(rho), atol=1e-13, rtol=0.0
        )

    def test_trivial_meter_leaves_object_untouched(self):
        rng = np.random.default_rng(24)
        rho = rand_density(rng, 2)
        m = SoftMeasurement(np.ones((2, 2)), np.ones((2, 2)))
        joint = apply_soft(m, rho)
        u = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(joint, np.kron(rho, np.outer(u, u)), atol=1e-13, rtol=0.0)
        np.testing.assert_allclose(partial_trace(joint, [2, 2], keep=0), rho, atol=1e-13, rtol=0.0)

    def test_diagonal_input_yields_population_entropy(self):
        rng = np.random.default_rng(25)
        p = 0.3
        rho = np.diag([p, 1.0 - p]).astype(complex)
        m = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        joint = apply_soft(m, rho)
        assert von_neumann_entropy(joint) == pytest.approx(binary_entropy(p), abs=1e-10)

    def test_output_is_valid_and_nondemolition(self):
        rng = np.random.default_rng(26)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = rand_density(rng, dim)
                m = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
                joint = apply_soft(m, rho)
                validate_density_matrix(joint)
                assert abs(np.trace(joint) - 1.0) < 1e-9
                reduced = partial_trace(joint, [dim, dim], keep=0)
                np.testing.assert_allclose(
                    np.diag(reduced), np.diag(rho), atol=1e-10, rtol=0.0
                )

    def test_entropy_transfer_at_full_coherence(self):
        rng = np.random.default_rng(27)
        for dim in (2, 3):
            rho = rand_density(rng, dim)
            m = SoftMeasurement(np.ones((dim, dim)), rand_correlation(rng, dim))
            assert von_neumann_entropy(apply_soft(m, rho)) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )

    def test_reduced_object_multiplier(self):
        rng = np.random.default_rng(28)
        for dim in (2, 3):
            rho = rand_density(rng, dim)
            ent = rand_correlation(rng, dim)
            gram = rand_correlation(rng, dim)
            joint = apply_soft(SoftMeasurement(ent, gram), rho)
            reduced = partial_trace(joint, [dim, dim], keep=0)
            np.testing.assert_allclose(reduced, ent * gram.conj() * rho, atol=1e-12, rtol=0.0)
            # with a real Gram matrix this is the plain entrywise product
            real_gram = rand_correlation(rng, dim, real=True)
            joint = apply_soft(SoftMeasurement(ent, real_gram), rho)
            reduced = partial_trace(joint, [dim, dim], keep=0)
            np.testing.assert_allclose(reduced, ent * real_gram * rho, atol=1e-12, rtol=0.0)

    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_multiplier_is_the_traced_object_output(self, dim, seed):
        """Tracing the meter out of the joint state leaves ``multiplier *
        rho``, for complex R, Q and rho: the object output that
        ``coherent_info_soft`` and ``soft_object_channel`` read is the one
        the joint state holds. A repeated measurement takes this route too
        (``TestRepeatedThroughSingleRoutes``)."""
        rng = np.random.default_rng(seed)
        rho = rand_density(rng, dim)
        m = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        reduced = partial_trace(apply_soft(m, rho), [dim, dim], keep=0)
        np.testing.assert_allclose(reduced, m.multiplier * rho, atol=1e-12, rtol=0.0)

    def test_matches_entangling_for_orthogonal_meter(self):
        rng = np.random.default_rng(29)
        rho = rand_density(rng, 3)
        ent = rand_correlation(rng, 3)
        # Orthogonal meter states: ent[k,l] * rho[k,l] on |k k><l l|.
        expected = np.zeros((9, 9), dtype=complex)
        expected[::4, ::4] = ent * rho
        np.testing.assert_allclose(
            apply_soft(SoftMeasurement(ent, np.eye(3)), rho), expected, atol=1e-14, rtol=0.0
        )

    def test_basis_outcomes_are_orthogonal_projectors(self):
        rng = np.random.default_rng(30)
        dim = 3
        m = SoftMeasurement(np.ones((dim, dim)), rand_correlation(rng, dim))
        outputs = []
        for k in range(dim):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[k, k] = 1.0
            out = apply_soft(m, rho)
            # rank one
            eigs = np.linalg.eigvalsh(out)
            assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.abs(eigs[:-1]).max() < 1e-10
            outputs.append(out)
        for k in range(dim):
            for l in range(dim):
                overlap = np.trace(outputs[k].conj().T @ outputs[l]).real
                assert overlap == pytest.approx(1.0 if k == l else 0.0, abs=1e-10)

    def test_rejects_bad_inputs(self):
        m = SoftMeasurement(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            apply_soft(m, np.eye(3) / 3.0)
        with pytest.raises(InvalidState):
            apply_soft(m, np.eye(2))

    @pytest.mark.parametrize("members", [2, 3])
    def test_stacked_measurement_gives_the_member_joint_states(self, members):
        """A stack of measurements (a measurement repeated an array of counts,
        or the continuous limit at an array of times) gives one joint state
        per member: the floats of the calls on the members."""
        rng = np.random.default_rng(240 + members)
        ent = np.array([rand_correlation(rng, 3) for _ in range(members)])
        gram = np.array([rand_correlation(rng, 3) for _ in range(members)])
        rho = rand_density(rng, 3)
        m = SoftMeasurement(ent, gram)
        assert m.dim == 3
        stack = apply_soft(m, rho)
        assert stack.shape == (members, 9, 9)
        singles = [apply_soft(SoftMeasurement(e, g), rho) for e, g in zip(ent, gram)]
        assert np.array_equal(stack, singles)
        with pytest.raises(DimensionMismatch):
            apply_soft(m, np.eye(2) / 2.0)

    def test_bad_gram_checked_once(self, monkeypatch):
        message = "gram is not PSD: eigenvalue -5.000e-01; gram has an entry with modulus > 1"
        with pytest.raises(InvalidMeasurement, match=f"^{re.escape(message)}$"):
            SoftMeasurement(np.eye(2), np.array([[1.0, 1.5], [1.5, 1.0]]))
        checked = spy_correlation_checks(monkeypatch)
        m = SoftMeasurement(np.eye(2), [[1.0, 0.5], [0.5, 1.0]])
        assert checked == ["entanglement", "gram"]
        apply_soft(m, np.eye(2) / 2.0)
        assert checked == ["entanglement", "gram"]


class TestApplyEntangling:
    def test_premeasurement_clones_basis(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        rho = np.outer(c, c.conj())
        joint = apply_soft(SoftMeasurement(np.ones((3, 3)), np.eye(3)), rho)
        cloned = np.zeros(9, dtype=complex)
        for k in range(3):
            cloned[k * 3 + k] = c[k]
        np.testing.assert_allclose(joint, np.outer(cloned, cloned.conj()), atol=1e-13, rtol=0.0)

    def test_projective_at_identity(self):
        rng = np.random.default_rng(32)
        rho = rand_density(rng, 2)
        np.testing.assert_allclose(
            apply_soft(SoftMeasurement(np.eye(2), np.eye(2)), rho),
            projective_expected(rho),
            atol=1e-13, rtol=0.0,
        )

    def test_offdiagonal_placement(self):
        r = 0.6 + 0.2j
        c = 0.11 - 0.07j
        rho = np.array([[0.5, c], [np.conj(c), 0.5]])
        ent = np.array([[1.0, r], [np.conj(r), 1.0]])
        joint = apply_soft(SoftMeasurement(ent, np.eye(2)), rho)
        assert joint[0, 3] == pytest.approx(r * c, abs=1e-14)


class TestApplyGeneral:
    def test_constant_blocks_perform_no_measurement(self):
        rng = np.random.default_rng(33)
        rho = rand_density(rng, 2)
        rho_meter = rand_density(rng, 3)
        blocks = np.empty((2, 2, 3, 3), dtype=complex)
        blocks[:, :] = rho_meter
        joint = apply_general(GeneralMeasurement(blocks), rho)
        np.testing.assert_allclose(joint, np.kron(rho, rho_meter), atol=1e-13, rtol=0.0)

    def test_projector_blocks_reproduce_entangling(self):
        rng = np.random.default_rng(34)
        dim = 3
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        blocks = np.zeros((dim, dim, dim, dim), dtype=complex)
        for k in range(dim):
            for l in range(dim):
                blocks[k, l, k, l] = ent[k, l]
        np.testing.assert_allclose(
            apply_general(GeneralMeasurement(blocks), rho),
            apply_soft(SoftMeasurement(ent, np.eye(dim)), rho),
            atol=1e-13, rtol=0.0,
        )

    @settings(deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    @example(dim=3, seed=35)
    def test_soft_blocks_reproduce_apply_soft(self, dim, seed):
        """The block route with ``R_kl v_k v_l^dagger`` is an independent
        reference for ``apply_soft``, for complex R, Q and rho."""
        rng = np.random.default_rng(seed)
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        gram = rand_correlation(rng, dim)
        vecs = meter_states(gram)
        blocks = ent[:, :, None, None] * np.einsum("ak,bl->klab", vecs, vecs.conj())
        np.testing.assert_allclose(
            apply_general(GeneralMeasurement(blocks), rho),
            apply_soft(SoftMeasurement(ent, gram), rho),
            atol=1e-13, rtol=0.0,
        )

    def test_object_populations_preserved(self):
        rng = np.random.default_rng(36)
        rho = rand_density(rng, 2)
        rho_meter = rand_density(rng, 2)
        blocks = np.empty((2, 2, 2, 2), dtype=complex)
        blocks[:, :] = rho_meter
        joint = apply_general(GeneralMeasurement(blocks), rho)
        reduced = partial_trace(joint, [2, 2], keep=0)
        np.testing.assert_allclose(np.diag(reduced), np.diag(rho), atol=1e-12, rtol=0.0)

    def test_invalid_blocks_rejected(self):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = np.diag([2.0, -1.0])  # trace 1 but not PSD
        blocks[1, 1] = np.eye(2) / 2.0
        with pytest.raises(InvalidMeasurement, match="not PSD"):
            GeneralMeasurement(blocks)

    @pytest.mark.parametrize("upper, lower", [(np.nan, np.nan), (np.inf, np.inf), (1.0, 0.0)])
    def test_non_hermitian_blocks_rejected(self, upper, lower):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = blocks[1, 1] = np.eye(2) / 2.0
        blocks[0, 1, 0, 0], blocks[1, 0, 0, 0] = upper, lower
        with pytest.raises(InvalidMeasurement) as excinfo:
            GeneralMeasurement(blocks)
        assert str(excinfo.value) == "assembled block operator is not Hermitian"


class TestTwoLevelMeter:
    def test_gram_matches_state_overlap(self):
        params = TwoLevelMeterParams(theta=1.1, phi=0.4, chi=-0.7)
        states = two_level_meter_states(params)
        overlap = states[:, 0].conj() @ states[:, 1]
        assert overlap == pytest.approx(two_level_gram(params)[0, 1], abs=1e-14)

    def test_gram_is_phi_independent(self):
        a = two_level_gram(TwoLevelMeterParams(theta=0.8, phi=0.0, chi=0.3))
        b = two_level_gram(TwoLevelMeterParams(theta=0.8, phi=2.1, chi=0.3))
        np.testing.assert_array_equal(a, b)

    def test_theta_range_enforced(self):
        with pytest.raises(OutOfRange):
            TwoLevelMeterParams(theta=-0.1)
        with pytest.raises(OutOfRange):
            TwoLevelMeterParams(theta=math.pi + 0.1)

    @pytest.mark.parametrize("kwargs", [{"chi": math.inf}, {"chi": math.nan}, {"phi": -math.inf}])
    def test_non_finite_phase_rejected(self, kwargs):
        with pytest.raises(OutOfRange, match="must be finite"):
            TwoLevelMeterParams(theta=1.0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"theta": 1j}, "theta must be a real scalar, got 1j"),
            ({"theta": np.complex128(1.0)}, "theta must be a real scalar, got np.complex128(1+0j)"),
            ({"phi": 0.5j}, "phi must be a real scalar, got 0.5j"),
            ({"chi": np.complex128(0.3)}, "chi must be a real scalar, got np.complex128(0.3+0j)"),
            ({"chi": np.array([0.1, 0.2])}, "chi must be a real scalar, got array([0.1, 0.2])"),
        ],
    )
    def test_angle_of_another_kind_rejected(self, kwargs, message):
        """A complex angle or an array of angles is refused, not handed to a
        comparison that raises ``TypeError`` or warns."""
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            TwoLevelMeterParams(**{"theta": 1.0, **kwargs})


class TestStackedCorrelationCheck:
    """The correlation-matrix check runs once over a stack of Gram matrices."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_matches_members_and_names_first_failure(self, dim):
        rng = np.random.default_rng(150 + dim)
        stack = np.array([rand_correlation(rng, dim) for _ in range(10)]).reshape(2, 5, dim, dim)
        vectors = meter_states(stack)
        for index in np.ndindex(2, 5):
            assert np.array_equal(vectors[index], meter_states(stack[index]))
        stack[1, 3] = np.full((dim, dim), 1.5) - 0.5 * np.eye(dim)  # unit diagonal, not PSD
        stack[1, 4, 0, 1] = 2.0  # later member: not Hermitian
        with pytest.raises(InvalidMeasurement) as excinfo:
            meter_states(stack)
        assert excinfo.value.index == (1, 3)
        assert str(excinfo.value) == (
            "gram is not PSD: eigenvalue -5.000e-01; gram has an entry with modulus > 1 "
            "(stack member [1, 3])"
        )

    def test_non_finite_entry_is_not_hermitian(self):
        gram = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidMeasurement) as excinfo:
            SoftMeasurement(np.eye(2), gram)
        assert str(excinfo.value) == "gram is not Hermitian within 1.0e-10"
        assert excinfo.value.index is None
