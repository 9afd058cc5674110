"""The public surface of ``softmeas``: what it exports and what it does not."""

import importlib
import inspect

import numpy as np
import pytest

import softmeas

PUBLIC = [
    "ConfigError",
    "ContinuousLimitParams",
    "DensityMatrix",
    "DimensionMismatch",
    "GeneralMeasurement",
    "InvalidChannel",
    "InvalidMeasurement",
    "InvalidParams",
    "InvalidState",
    "KrausChannel",
    "SoftMeasError",
    "SoftMeasurement",
    "StateEnsemble",
    "TAU_HERM",
    "TAU_PSD",
    "TAU_RECON",
    "TAU_TRACE",
    "TwoLevelMeterParams",
    "apply_general",
    "apply_soft",
    "coherent_info_channel",
    "coherent_info_soft",
    "coherent_info_two_level",
    "collective_representation",
    "compete_coherent",
    "compete_two_level",
    "continuous_soft",
    "discrete_step",
    "eve_bob_semiclassical",
    "herm_eig",
    "holevo_info",
    "kraus_from_choi",
    "matrix_sqrt_psd",
    "meter_ensemble",
    "meter_state",
    "partial_trace",
    "repeat_soft",
    "semiclassical_info_continuous",
    "soft_object_channel",
    "two_level_gram",
    "two_level_gram_sqrt",
    "two_level_meter_states",
    "validate_density_matrix",
    "von_neumann_entropy",
]

# Names that were public once and are gone on purpose: nothing in the
# package's quantities or reference routes used them, or another name does
# their work.
REMOVED = [
    "CollectiveRepresentation",
    "CompetitionParams",
    "GeneratorRates",
    "NotHermitian",
    "NotPSD",
    "OutOfRange",
    "RANK_TOL",
    "RepeatedMeasurement",
    "Spectrum",
    "ZeroDt",
    "ValidationReport",
    "ZeroMatrix",
    "_continuous_joint",
    "_joint",
    "_meter_vectors",
    "apply_entangling",
    "asymptotic_gram_sqrt",
    "choi_matrix",
    "continuous_gram_sqrt",
    "discrete_step_params",
    "generator_general",
    "generator_two_level",
    "gram_power",
    "inv_sqrt_psd",
    "joint_dm_continuous",
    "joint_dm_repeated",
    "meter_dm_continuous",
    "meter_dm_repeated",
    "meter_states_from_gram",
    "validate_general",
    "validate_soft",
]

MODULES = ["errors", "matcore", "measurement", "repeated", "information", "cli"]


def test_all_is_the_expected_sorted_list():
    assert softmeas.__all__ == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in softmeas.__all__:
        assert getattr(softmeas, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    for module in ["softmeas"] + [f"softmeas.{m}" for m in MODULES]:
        assert not hasattr(importlib.import_module(module), name), module


def public_callables():
    """Every public function and every method defined on a public class."""
    callables = []
    for name in softmeas.__all__:
        obj = getattr(softmeas, name)
        if inspect.isclass(obj):
            callables += [m for m in vars(obj).values() if inspect.isfunction(m)]
        elif callable(obj):
            callables.append(obj)
    return callables


def test_no_public_signature_takes_a_tolerance():
    for fn in public_callables():
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "tol" in p], fn.__qualname__


def test_no_public_signature_takes_a_validate_switch():
    # Measurements are checked when built and raw arrays where they enter,
    # and a repeated measurement derives its powers itself: no caller can
    # switch a check off or hand in derived data to be trusted.
    for fn in public_callables():
        params = inspect.signature(fn).parameters
        assert not {"validate", "representation"} & set(params), fn.__qualname__


# One way to build each checked value whose fields are arrays; each call
# builds a new value equal to the last.
ARRAY_VALUES = {
    "SoftMeasurement": lambda: softmeas.SoftMeasurement(np.eye(2), np.eye(2)),
    "GeneralMeasurement": lambda: softmeas.GeneralMeasurement(
        np.einsum("kl,ab->klab", np.eye(2), np.eye(2) / 2.0)
    ),
    "DensityMatrix": lambda: softmeas.DensityMatrix(np.eye(2) / 2.0),
    "StateEnsemble": lambda: softmeas.StateEnsemble(np.array([1.0]), (np.eye(2) / 2.0,)),
    "KrausChannel": lambda: softmeas.KrausChannel((np.eye(2),)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_VALUES))
def test_array_values_compare_by_identity(name):
    """Values whose fields are arrays are equal only to themselves, and
    hash; comparing two of them never asks an array for its truth value."""
    a, b = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != b
    assert a in {a}
    assert b not in {a}
