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
measured loss to the capacitor; its fractional difference from the
extracted capacitor loss is returned alongside for comparison.
Both stages solve the same participation-weighted equation, each for a
different element. The solves are affine, so measurement uncertainties
propagate exactly to first order.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InconsistentInputsError, Record

# What the curves of a single-measurement error map enumerate: inductor
# losses at a fixed participation, or participations at a fixed inductor loss.
AXIS_INDUCTOR_LOSS = "inductor_loss"
AXIS_PARTICIPATION = "participation"


class ExtractionInput(Record, namedtuple("ExtractionInput", [
    "ppc_resonator_loss",  # total loss of the PPC lumped-element device
    "idc_resonator_loss",  # total loss of the IDC lumped-element device
    "cpw_loss",  # loss of the CPW proxy resonator
    "ppc_circuit", "idc_circuit",  # their DeviceCircuitModel
    "ppc_resonator_loss_err", "idc_resonator_loss_err", "cpw_loss_err",
], defaults=(0.0, 0.0, 0.0))):
    """Measured losses and circuit models of the three devices."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("ppc_resonator_loss", "idc_resonator_loss", "cpw_loss"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be > 0, got {value}")
        for name in ("ppc_resonator_loss_err", "idc_resonator_loss_err", "cpw_loss_err"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for device, circuit in (("PPC", self.ppc_circuit), ("IDC", self.idc_circuit)):
            if circuit is None:
                raise ValueError(f"{device} device: no circuit model given")
            if not circuit.stray_capacitance > 0.0:
                raise ValueError(f"{device} device: stray capacitance must be > 0, "
                                 f"got {circuit.stray_capacitance}")
        ppc, idc = ((c.inductance, c.cap_capacitance, c.stray_capacitance)
                    for c in (self.ppc_circuit, self.idc_circuit))
        if ppc == idc:  # the element values, whatever the labels
            raise ValueError("PPC and IDC devices must carry distinct circuit models")
        return self


class ExtractionResult(namedtuple("ExtractionResult", [
    "inductor_loss",
    "ppc_loss",  # extracted dielectric loss of the parallel plate capacitor
    "fractional_difference",  # (extracted - single) / single
    "inductor_loss_err", "ppc_loss_err",
], defaults=(0.0, 0.0))):
    """Extracted losses plus the single-measurement comparison."""

    __slots__ = ()


def _solve_element(
    stage: str,
    c_total: float,
    c_self: float,
    c_other: float,
    total: tuple[float, float],
    other: tuple[float, float],
    names: tuple[str, str],
) -> tuple[float, float]:
    """Solve c_total*total = c_self*x + c_other*other for one element's loss x.

    ``total`` (the resonator's loss) and ``other`` (the other element's
    loss) are (value, one-sigma error) pairs; returns x and its one-sigma
    error. The solve is affine in both losses, so first-order propagation
    of their errors is exact. A negative x raises InconsistentInputsError
    carrying ``stage``; ``names`` are the other loss and the device, for
    its message.
    """
    (t, t_err), (o, o_err) = total, other
    x = (c_total * t - c_other * o) / c_self
    if x < 0.0:
        raise InconsistentInputsError(
            f"{stage} solve is negative ({x:.4g}): the {names[0]} {o:.4g} exceeds "
            f"what the {names[1]} resonator total {t:.4g} permits",
            stage=stage,
        )
    return x, math.hypot((c_total / c_self) * t_err, (c_other / c_self) * o_err)


def extract(inputs: ExtractionInput) -> ExtractionResult:
    """Run the full three-device solve and compare it with the single measurement."""
    idc, ppc = inputs.idc_circuit, inputs.ppc_circuit
    inductor, inductor_err = _solve_element(
        "inductor_loss",
        idc.total_capacitance, idc.stray_capacitance, idc.cap_capacitance,
        (inputs.idc_resonator_loss, inputs.idc_resonator_loss_err),
        (inputs.cpw_loss, inputs.cpw_loss_err),
        ("IDC proxy loss", "IDC"),
    )
    cap_loss, cap_loss_err = _solve_element(
        "ppc_loss",
        ppc.total_capacitance, ppc.cap_capacitance, ppc.stray_capacitance,
        (inputs.ppc_resonator_loss, inputs.ppc_resonator_loss_err),
        (inductor, inductor_err),
        ("inductor loss", "PPC"),
    )
    single = inputs.ppc_resonator_loss
    return ExtractionResult(
        inductor_loss=inductor,
        ppc_loss=cap_loss,
        fractional_difference=(cap_loss - single) / single,
        inductor_loss_err=inductor_err,
        ppc_loss_err=cap_loss_err,
    )
