"""Three-device dielectric loss extraction.

A lumped-element resonator's zero-power TLS loss is the participation-
weighted sum of its capacitor loss and its inductor loss. Measuring three
devices sharing the same inductor design separates the two:

  * the CPW resonator, built with the gap and width of the IDC fingers,
    stands in for the IDC finger loss;
  * the IDC resonator then yields the inductor loss;
  * the PPC resonator finally yields the dielectric loss of the parallel
    plate capacitor (whose filling factor is 1).

The "single measurement" shortcut assigns the PPC resonator's entire
measured loss to the capacitor; it is returned alongside for comparison.
All solves are affine, so measurement uncertainties propagate exactly to
first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import DeviceCircuitModel
from .errors import InconsistentInputsError


@dataclass(frozen=True)
class ExtractionInput:
    """Measured losses and circuit models of the three devices."""

    ppc_resonator_loss: float  # total loss of the PPC lumped-element device
    idc_resonator_loss: float  # total loss of the IDC lumped-element device
    cpw_loss: float  # loss of the CPW proxy resonator
    ppc_circuit: DeviceCircuitModel
    idc_circuit: DeviceCircuitModel
    ppc_resonator_loss_err: float = 0.0
    idc_resonator_loss_err: float = 0.0
    cpw_loss_err: float = 0.0

    def __post_init__(self):
        for name in ("ppc_resonator_loss", "idc_resonator_loss", "cpw_loss"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be > 0, got {value}")
        for name in ("ppc_resonator_loss_err", "idc_resonator_loss_err", "cpw_loss_err"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.ppc_circuit == self.idc_circuit:
            raise ValueError("PPC and IDC devices must carry distinct circuit models")


@dataclass(frozen=True)
class ExtractionResult:
    """Extracted losses plus the single-measurement comparison."""

    idc_loss_proxy: float  # CPW loss standing in for the IDC finger loss
    inductor_loss: float
    ppc_loss: float  # extracted dielectric loss of the parallel plate capacitor
    single_measurement: float  # PPC resonator loss taken at face value
    fractional_difference: float  # (extracted - single) / single
    inductor_loss_err: float = 0.0
    ppc_loss_err: float = 0.0
    single_measurement_err: float = 0.0

    def __post_init__(self):
        for name in ("idc_loss_proxy", "inductor_loss", "ppc_loss", "single_measurement"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0; negative solves are errors")


def solve_inductor_loss(
    idc_resonator_loss: float,
    idc_capacitance: float,
    stray_capacitance: float,
    idc_loss: float,
) -> float:
    """Inductor loss from the IDC resonator's participation-weighted total.

    Solves total = (C_idc * idc_loss + C_stray * inductor_loss) / C_total
    for the inductor term.
    """
    if idc_capacitance <= 0.0 or stray_capacitance <= 0.0:
        raise ValueError("capacitances must be > 0")
    if idc_resonator_loss <= 0.0 or idc_loss <= 0.0:
        raise ValueError("losses must be > 0")
    total_c = idc_capacitance + stray_capacitance
    value = (total_c * idc_resonator_loss - idc_capacitance * idc_loss) / stray_capacitance
    if value < 0.0:
        raise InconsistentInputsError(
            f"inductor loss solve is negative ({value:.4g}): the IDC proxy loss "
            f"{idc_loss:.4g} exceeds what the IDC resonator total "
            f"{idc_resonator_loss:.4g} permits",
            stage="inductor_loss",
        )
    return value


def solve_ppc_loss(
    ppc_resonator_loss: float,
    cap_capacitance: float,
    stray_capacitance: float,
    inductor_loss: float,
) -> float:
    """PPC dielectric loss once the inductor loss is known (filling factor 1)."""
    if cap_capacitance <= 0.0 or stray_capacitance <= 0.0:
        raise ValueError("capacitances must be > 0")
    if ppc_resonator_loss <= 0.0 or inductor_loss < 0.0:
        raise ValueError("resonator loss must be > 0 and inductor loss >= 0")
    total_c = cap_capacitance + stray_capacitance
    value = (total_c * ppc_resonator_loss - stray_capacitance * inductor_loss) / cap_capacitance
    if value < 0.0:
        raise InconsistentInputsError(
            f"capacitor loss solve is negative ({value:.4g}): the inductor loss "
            f"{inductor_loss:.4g} exceeds what the PPC resonator total "
            f"{ppc_resonator_loss:.4g} permits",
            stage="ppc_loss",
        )
    return value


def extract(inputs: ExtractionInput) -> ExtractionResult:
    """Run the full three-device solve and the single-measurement estimate."""
    idc = inputs.idc_circuit
    inductor = solve_inductor_loss(
        inputs.idc_resonator_loss, idc.cap_capacitance, idc.stray_capacitance,
        inputs.cpw_loss,
    )
    ppc = inputs.ppc_circuit
    cap_loss = solve_ppc_loss(
        inputs.ppc_resonator_loss, ppc.cap_capacitance, ppc.stray_capacitance, inductor
    )
    single = inputs.ppc_resonator_loss
    fractional = (cap_loss - single) / single

    # The solves are affine in the measured losses, so first-order
    # propagation of the quoted uncertainties is exact.
    c_b = idc.total_capacitance
    inductor_err = math.hypot(
        (c_b / idc.stray_capacitance) * inputs.idc_resonator_loss_err,
        (idc.cap_capacitance / idc.stray_capacitance) * inputs.cpw_loss_err,
    )
    c_a = ppc.total_capacitance
    cap_loss_err = math.hypot(
        (c_a / ppc.cap_capacitance) * inputs.ppc_resonator_loss_err,
        (ppc.stray_capacitance / ppc.cap_capacitance) * inductor_err,
    )

    return ExtractionResult(
        idc_loss_proxy=inputs.cpw_loss,
        inductor_loss=inductor,
        ppc_loss=cap_loss,
        single_measurement=single,
        fractional_difference=fractional,
        inductor_loss_err=inductor_err,
        ppc_loss_err=cap_loss_err,
        single_measurement_err=inputs.ppc_resonator_loss_err,
    )
