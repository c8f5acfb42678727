"""Dielectric loss extraction for superconducting microwave resonators.

Extracts the TLS loss of a thin-film dielectric from measurements of
three resonator designs: complex transmission sweeps are fitted to the
inverse-transmission circle model, per-power losses are fitted to the
saturable TLS curve, and the participation-weighted losses of a PPC
device, an IDC device and a CPW proxy are solved for the inductor loss
and the capacitor dielectric loss. A systematic-error map shows where
the single-measurement shortcut remains trustworthy.
"""

__version__ = "0.1.0"

from .circuit import (
    DesignKind,
    DeviceCircuitModel,
    DeviceRecord,
    LcFit,
    capacitance_from_frequency,
    fit_lc,
    resonance_frequency,
)
from .error_analysis import (
    AXIS_INDUCTOR_LOSS,
    AXIS_PARTICIPATION,
    ErrorMap,
    error_map,
    log_grid,
    participation_asymptote,
    systematic_error,
)
from .errors import (
    FitFailureError,
    GridRangeError,
    IllConditionedFitError,
    InconsistentInputsError,
    InfeasibleGeometryError,
    InvalidModelError,
    NonphysicalFitError,
    OutOfSpanError,
    ReslossError,
    UnderdeterminedError,
)
from .extraction import ExtractionInput, ExtractionResult, extract
from .s21 import (
    ComplexSweep,
    ResonatorFitResult,
    calibrate_and_fit,
    fit_circle,
    fit_resonance,
    inverse_s21_model,
    photon_number,
)
from .synth import (
    GroundTruth,
    generate_power_sweep,
    generate_s21_sweep,
    resonator_state,
)
from .tls import (
    PowerSweepPoint,
    TlsFitResult,
    TlsLossParams,
    fit_power_sweep,
    thermal_factor,
    tls_loss,
    total_loss,
)

__all__ = [
    "__version__",
    # circuit
    "DesignKind",
    "DeviceCircuitModel",
    "DeviceRecord",
    "LcFit",
    "capacitance_from_frequency",
    "fit_lc",
    "resonance_frequency",
    # s21
    "ComplexSweep",
    "ResonatorFitResult",
    "calibrate_and_fit",
    "fit_circle",
    "fit_resonance",
    "inverse_s21_model",
    "photon_number",
    # tls
    "PowerSweepPoint",
    "TlsFitResult",
    "TlsLossParams",
    "fit_power_sweep",
    "thermal_factor",
    "tls_loss",
    "total_loss",
    # extraction
    "ExtractionInput",
    "ExtractionResult",
    "extract",
    # error analysis
    "AXIS_INDUCTOR_LOSS",
    "AXIS_PARTICIPATION",
    "ErrorMap",
    "error_map",
    "log_grid",
    "participation_asymptote",
    "systematic_error",
    # synth
    "GroundTruth",
    "generate_power_sweep",
    "generate_s21_sweep",
    "resonator_state",
    # errors
    "ReslossError",
    "InvalidModelError",
    "InfeasibleGeometryError",
    "UnderdeterminedError",
    "NonphysicalFitError",
    "FitFailureError",
    "OutOfSpanError",
    "IllConditionedFitError",
    "InconsistentInputsError",
    "GridRangeError",
]
