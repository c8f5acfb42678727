"""Dielectric loss extraction for superconducting microwave resonators.

Extracts the TLS loss of a thin-film dielectric from measurements of
three resonator designs: complex transmission sweeps are fitted to the
inverse-transmission circle model, per-power losses are fitted to the
saturable TLS curve, and the participation-weighted losses of a PPC
device, an IDC device and a CPW proxy are solved for the inductor loss
and the capacitor dielectric loss. A systematic-error map shows where
the single-measurement shortcut remains trustworthy.

Submodules and exported names load on first access (PEP 562), so a
command imports only the stages it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports; the one table behind __all__ and __getattr__
_EXPORTS = {
    "circuit": ("DesignKind", "DeviceCircuitModel", "DeviceRecord", "LcFit",
                "capacitance_from_frequency", "fit_lc", "resonance_frequency"),
    "s21": ("ComplexSweep", "ResonatorFitResult", "calibrate_and_fit", "fit_circle",
            "inverse_s21_model", "photon_number"),
    "tls": ("PowerSweepPoint", "TlsFitResult", "TlsLossParams", "fit_power_sweep",
            "thermal_factor", "tls_loss", "total_loss"),
    "extraction": ("AXIS_INDUCTOR_LOSS", "AXIS_PARTICIPATION", "ExtractionInput",
                   "ExtractionResult", "extract"),
    "error_analysis": ("ErrorMap", "error_map", "log_grid", "participation_asymptote",
                       "systematic_error"),
    "synth": ("GroundTruth", "generate_power_sweep", "generate_s21_sweep", "resonator_state"),
    "errors": ("ReslossError", "InvalidModelError", "InfeasibleGeometryError",
               "UnderdeterminedError", "NonphysicalFitError", "FitFailureError",
               "OutOfSpanError", "IllConditionedFitError", "InconsistentInputsError",
               "GridRangeError"),
    "fileio": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
