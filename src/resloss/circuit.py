"""Lumped-element circuit model for loss-extraction resonators.

Covers the series-inductor / parallel-capacitor resonance frequency, the
capacitive participation ratios that weight each element's TLS loss, and
linear regression of (C, f0) simulation tables to recover the inductor's L
and stray capacitance.

All quantities are SI (hertz, farads, henries). File interfaces carrying
GHz/fF/nH are converted at the boundary (see fileio).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    InfeasibleGeometryError,
    InvalidModelError,
    NonphysicalFitError,
    UnderdeterminedError,
)

TWO_PI = 2.0 * math.pi


class DesignKind(str, enum.Enum):
    """Resonator geometry of a measured device."""

    LE_PPC = "LE_PPC"
    LE_IDC = "LE_IDC"
    CPW = "CPW"


@dataclass(frozen=True)
class DeviceCircuitModel:
    """Lumped RLC description of one resonator.

    ``cap_capacitance`` is the lumped capacitor under test (PPC or IDC);
    ``stray_capacitance`` is the parasitic capacitance carried by the
    inductor. Only capacitive elements host TLS loss, so these two numbers
    set the loss participation of each element.
    """

    inductance: float  # H
    cap_capacitance: float  # F
    stray_capacitance: float  # F
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.inductance) and self.inductance > 0.0):
            raise InvalidModelError(f"inductance must be > 0, got {self.inductance}")
        if not (math.isfinite(self.cap_capacitance) and self.cap_capacitance > 0.0):
            raise InvalidModelError(
                f"cap_capacitance must be > 0, got {self.cap_capacitance}"
            )
        if not (math.isfinite(self.stray_capacitance) and self.stray_capacitance >= 0.0):
            raise InvalidModelError(
                f"stray_capacitance must be >= 0, got {self.stray_capacitance}"
            )

    @property
    def total_capacitance(self) -> float:
        return self.cap_capacitance + self.stray_capacitance

    @property
    def capacitor_participation(self) -> float:
        return self.cap_capacitance / self.total_capacitance

    @property
    def inductor_participation(self) -> float:
        return self.stray_capacitance / self.total_capacitance


@dataclass(frozen=True)
class DeviceRecord:
    """One row of a measured-device table.

    CPW devices carry no lumped circuit model (their table cells are
    empty); ``loss`` is the measured zero-power TLS loss when the table
    provides it.
    """

    label: str
    design: DesignKind
    material: str
    f0: float  # Hz, measured
    circuit: DeviceCircuitModel | None = None
    loss: float | None = None
    loss_err: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.f0) and self.f0 > 0.0):
            raise InvalidModelError(f"f0 must be > 0, got {self.f0}")
        if self.design is DesignKind.CPW and self.circuit is not None:
            raise InvalidModelError("CPW records carry no circuit model")


def resonance_frequency(model: DeviceCircuitModel) -> float:
    """Resonance frequency 1 / (2*pi*sqrt(L*(C_cap + C_stray))) in Hz."""
    return 1.0 / (TWO_PI * math.sqrt(model.inductance * model.total_capacitance))


def capacitance_from_frequency(f0: float, inductance: float, stray_capacitance: float) -> float:
    """Capacitor value implied by a measured resonance frequency.

    Inverts the resonance formula for the capacitor: the total capacitance
    is 1/(L*(2*pi*f0)^2) and the stray part is subtracted off. Raises
    InfeasibleGeometryError when the implied total capacitance does not
    exceed the stray capacitance.
    """
    if not (math.isfinite(f0) and f0 > 0.0):
        raise InvalidModelError(f"f0 must be > 0, got {f0}")
    if not (math.isfinite(inductance) and inductance > 0.0):
        raise InvalidModelError(f"inductance must be > 0, got {inductance}")
    if stray_capacitance < 0.0:
        raise InvalidModelError(f"stray_capacitance must be >= 0, got {stray_capacitance}")
    total = 1.0 / (inductance * (TWO_PI * f0) ** 2)
    cap = total - stray_capacitance
    if cap <= 0.0:
        raise InfeasibleGeometryError(
            f"total capacitance {total:.6g} F does not exceed the stray "
            f"capacitance {stray_capacitance:.6g} F"
        )
    return cap


@dataclass(frozen=True)
class LcFit:
    """Result of the (C, f0) table regression."""

    inductance: float  # H
    stray_capacitance: float  # F
    residual_rms: float  # RMS misfit of 1/(2*pi*f0)^2, in s^2


def fit_lc(points: Iterable[tuple[float, float]]) -> LcFit:
    """Recover (L, C_stray) from simulated or measured (C_cap, f0) pairs.

    In the transformed variable y = 1/(2*pi*f0)^2 the resonance model is
    exactly linear, y = L*C_cap + L*C_stray, so an ordinary linear least
    squares on (C_cap, y) gives L as the slope and L*C_stray as the
    intercept.
    """
    pts = [(float(c), float(f)) for c, f in points]
    if len(pts) < 2:
        raise UnderdeterminedError("need at least 2 (C, f0) points")
    cap = np.array([p[0] for p in pts])
    f0 = np.array([p[1] for p in pts])
    if np.any(~np.isfinite(cap)) or np.any(~np.isfinite(f0)) or np.any(f0 <= 0.0):
        raise InvalidModelError("all capacitances must be finite and all f0 > 0")
    if np.unique(cap).size < 2:
        raise UnderdeterminedError("need at least 2 distinct C values")

    y = 1.0 / (TWO_PI * f0) ** 2
    # Scale both axes to O(1) before solving; raw farad/second^2 magnitudes
    # are ~1e-13 and ~1e-21.
    cs = cap.max()
    ys = y.max()
    design = np.column_stack([cap / cs, np.ones_like(cap)])
    sol, *_ = np.linalg.lstsq(design, y / ys, rcond=None)
    slope = sol[0] * ys / cs
    intercept = sol[1] * ys

    inductance = slope
    if inductance <= 0.0:
        raise NonphysicalFitError(f"fitted inductance {inductance:.6g} H is not positive")
    stray = intercept / slope
    if stray < 0.0:
        # Tolerate rounding-level negatives from exact zero-stray data.
        if stray > -1e-12 * cs:
            stray = 0.0
        else:
            raise NonphysicalFitError(f"fitted stray capacitance {stray:.6g} F is negative")

    resid = y - (slope * cap + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return LcFit(inductance=float(inductance), stray_capacitance=float(stray), residual_rms=rms)
