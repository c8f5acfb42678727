"""Lumped-element circuit model for loss-extraction resonators.

Covers the series-inductor / parallel-capacitor resonance frequency, the
capacitive participation ratios that weight each element's TLS loss, linear
regression of (C, f0) simulation tables to recover the inductor's L and
stray capacitance, and the affine scaling of both with the number of
inductor arm pairs.

All quantities are SI (hertz, farads, henries). File interfaces carrying
GHz/fF/nH are converted at the boundary (see fileio).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
class ArmScalingModel:
    """Affine dependence of L and stray C on the number of arm pairs N."""

    inductance_offset: float  # H
    inductance_per_arm: float  # H per arm pair
    stray_offset: float  # F
    stray_per_arm: float  # F per arm pair


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
    arm_pairs: int | None = None
    coupling_gap: float | None = None  # m, design metadata only
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


def arm_scaling_eval(scaling: ArmScalingModel, arm_pairs: int) -> tuple[float, float]:
    """(L, C_stray) of an inductor with the given number of arm pairs."""
    if arm_pairs < 0:
        raise InvalidModelError(f"arm_pairs must be >= 0, got {arm_pairs}")
    inductance = scaling.inductance_offset + scaling.inductance_per_arm * arm_pairs
    stray = scaling.stray_offset + scaling.stray_per_arm * arm_pairs
    if inductance <= 0.0:
        raise NonphysicalFitError(
            f"scaling gives non-positive inductance {inductance:.6g} H at N={arm_pairs}"
        )
    if stray < 0.0:
        raise NonphysicalFitError(
            f"scaling gives negative stray capacitance {stray:.6g} F at N={arm_pairs}"
        )
    return inductance, stray


def fit_arm_scaling(rows: Sequence[tuple[int, float, float]]) -> ArmScalingModel:
    """Fit the per-arm scaling from (N, L, C_stray) rows.

    Two independent linear fits (L vs N and C_stray vs N); any residual
    N-dependent correction from the simulated geometry is absorbed into
    the per-arm slopes.
    """
    if len(rows) < 2:
        raise UnderdeterminedError("need at least 2 (N, L, C_stray) rows")
    n = np.array([float(r[0]) for r in rows])
    if np.unique(n).size < 2:
        raise UnderdeterminedError("need at least 2 distinct N values")
    inductance = np.array([float(r[1]) for r in rows])
    stray = np.array([float(r[2]) for r in rows])

    design = np.column_stack([n, np.ones_like(n)])
    l_slope, l_off = np.linalg.lstsq(design, inductance, rcond=None)[0]
    c_slope, c_off = np.linalg.lstsq(design, stray, rcond=None)[0]

    scaling = ArmScalingModel(
        inductance_offset=float(l_off),
        inductance_per_arm=float(l_slope),
        stray_offset=float(c_off),
        stray_per_arm=float(c_slope),
    )
    # The fitted range must stay physical.
    for n_val in (int(n.min()), int(n.max())):
        arm_scaling_eval(scaling, n_val)
    return scaling
