"""Soft (fuzzy) quantum nondemolition measurement channels.

Single, repeated and continuous-limit soft measurements on finite
dimensional systems, together with the coherent and semiclassical
information they transmit, plus a CLI (``softmeas``) that runs parameter
sweeps to CSV/JSON.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidChannel,
    InvalidMeasurement,
    InvalidParams,
    InvalidState,
    NotHermitian,
    NotPSD,
    OutOfRange,
    SoftMeasError,
)
from .matcore import (
    TAU_HERM,
    TAU_PSD,
    TAU_RECON,
    TAU_TRACE,
    DensityMatrix,
    herm_eig,
    matrix_sqrt_psd,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from .measurement import (
    GeneralMeasurement,
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_general,
    apply_soft,
    meter_state,
    two_level_gram,
    two_level_meter_states,
)
from .repeated import (
    ContinuousLimitParams,
    collective_representation,
    continuous_soft,
    discrete_step,
    repeat_soft,
    two_level_gram_sqrt,
)
from .information import (
    KrausChannel,
    StateEnsemble,
    coherent_info_channel,
    coherent_info_soft,
    coherent_info_two_level,
    compete_coherent,
    compete_two_level,
    eve_bob_semiclassical,
    holevo_info,
    kraus_from_choi,
    meter_ensemble,
    semiclassical_info_continuous,
    soft_object_channel,
)

__version__ = "0.1.0"

__all__ = [
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
    "NotHermitian",
    "NotPSD",
    "OutOfRange",
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
