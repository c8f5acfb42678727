"""Systematic error of the single-measurement technique.

Assigning a resonator's entire loss to its capacitor overshoots or
undershoots the true capacitor loss by

    err = p * (loss_L - loss_C) / ((1 - p) * loss_C + p * loss_L)

where p is the inductor's capacitive participation. The signed value is
kept (its sign tells which element is lossier); regime maps sweep the
capacitor loss and tabulate the error per curve parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridRangeError
from .extraction import AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION


def systematic_error(capacitor_loss, inductor_loss, participation):
    """Signed fractional error of the single-measurement estimate.

    Zero exactly when the two losses match; positive when the inductor is
    the lossier element. Accepts scalars or arrays.
    """
    c = np.asarray(capacitor_loss, dtype=float)
    l = np.asarray(inductor_loss, dtype=float)
    p = np.asarray(participation, dtype=float)
    if np.any(c <= 0.0) or np.any(l <= 0.0):
        raise ValueError("losses must be > 0")
    if np.any(p < 0.0) or np.any(p >= 1.0):
        raise ValueError("participation must satisfy 0 <= p < 1")
    total = (1.0 - p) * c + p * l
    out = p * (l - c) / total
    if np.isscalar(capacitor_loss) and np.isscalar(inductor_loss) and np.isscalar(participation):
        return float(out)
    return out


def participation_asymptote(participation: float) -> float:
    """Limit of |error| for a capacitor much lossier than the inductor."""
    if not 0.0 <= participation < 1.0:
        raise ValueError("participation must satisfy 0 <= p < 1")
    return participation / (1.0 - participation)


@dataclass(frozen=True)
class ErrorMap:
    """Error over a capacitor-loss grid, one curve per swept parameter.

    ``axis`` names what the curves enumerate: inductor loss values at a
    fixed participation, or participation values at a fixed inductor
    loss. ``signed`` has shape (len(grid), len(curves)).
    """

    axis: str
    capacitor_loss_grid: np.ndarray
    curves: tuple[float, ...]
    fixed_value: float  # participation or inductor loss, per axis
    signed: np.ndarray
    threshold: float

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.signed)

    @property
    def measurable_mask(self) -> np.ndarray:
        return self.magnitude <= self.threshold

    def asymptotes(self) -> tuple[float, ...]:
        """High-capacitor-loss magnitude limit of each curve."""
        if self.axis == AXIS_PARTICIPATION:
            return tuple(participation_asymptote(p) for p in self.curves)
        return tuple(participation_asymptote(self.fixed_value) for _ in self.curves)


def log_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    """Log-spaced grid with validated bounds."""
    if not (0.0 < lo < hi < np.inf):
        raise GridRangeError(f"grid bounds must be finite with 0 < lo < hi, got [{lo}, {hi}]")
    if n_points < 2:
        raise GridRangeError(f"grid needs at least 2 points, got {n_points}")
    return np.geomspace(lo, hi, n_points)


def error_map(
    axis: str,
    capacitor_loss_grid: Sequence[float] | np.ndarray,
    curves: Sequence[float],
    fixed_value: float,
    threshold: float = 0.1,
) -> ErrorMap:
    """Tabulate the single-measurement error over a capacitor-loss grid.

    ``axis=AXIS_INDUCTOR_LOSS``: each curve is an inductor loss,
    ``fixed_value`` is the participation. ``axis=AXIS_PARTICIPATION``:
    each curve is a participation, ``fixed_value`` is the inductor loss.
    """
    if axis not in (AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION):
        raise ValueError(f"unknown axis {axis!r}")
    grid = np.asarray(capacitor_loss_grid, dtype=float)
    if grid.size < 1 or np.any(grid <= 0.0):
        raise GridRangeError("capacitor loss grid must be non-empty and positive")
    if len(curves) == 0:
        raise ValueError("need at least one curve value")
    if not np.all(np.isfinite([fixed_value, threshold, *curves])):
        raise ValueError("fixed value, curves and threshold must be finite")
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")

    signed = np.empty((grid.size, len(curves)))
    for j, curve in enumerate(curves):
        if axis == AXIS_PARTICIPATION:
            signed[:, j] = systematic_error(grid, fixed_value, curve)
        else:
            signed[:, j] = systematic_error(grid, curve, fixed_value)
    signed.setflags(write=False)
    grid = grid.copy()
    grid.setflags(write=False)
    return ErrorMap(
        axis=axis,
        capacitor_loss_grid=grid,
        curves=tuple(float(c) for c in curves),
        fixed_value=float(fixed_value),
        signed=signed,
        threshold=float(threshold),
    )
