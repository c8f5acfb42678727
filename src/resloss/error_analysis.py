"""Systematic error of the single-measurement technique.

Assigning a resonator's entire loss to its capacitor overshoots or
undershoots the true capacitor loss by

    err = p * (loss_L - loss_C) / ((1 - p) * loss_C + p * loss_L)

where p is the inductor's capacitive participation. The signed value is
kept (its sign tells which element is lossier); regime maps sweep the
capacitor loss and tabulate the error per curve parameter.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Sequence

from .errors import GridRangeError
from .extraction import AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION

if TYPE_CHECKING:
    import numpy as np


def systematic_error(capacitor_loss, inductor_loss, participation):
    """Signed fractional error of the single-measurement estimate.

    Zero exactly when the two losses match; positive when the inductor is
    the lossier element. Three Python numbers give a float, computed
    without numpy; an array among them gives an array.
    """
    args = (capacitor_loss, inductor_loss, participation)
    if all(isinstance(x, (int, float)) for x in args):
        c, l, p = map(float, args)
        anywhere = bool
    else:
        import numpy as np

        c, l, p = (np.asarray(x, dtype=float) for x in args)
        anywhere = np.any
    if anywhere(c <= 0.0) or anywhere(l <= 0.0):
        raise ValueError("losses must be > 0")
    if anywhere(p < 0.0) or anywhere(p >= 1.0):
        raise ValueError("participation must satisfy 0 <= p < 1")
    return p * (l - c) / ((1.0 - p) * c + p * l)


def participation_asymptote(participation: float) -> float:
    """Limit of |error| for a capacitor much lossier than the inductor."""
    if not 0.0 <= participation < 1.0:
        raise ValueError("participation must satisfy 0 <= p < 1")
    return participation / (1.0 - participation)


class ErrorMap(namedtuple("ErrorMap", [
    "axis", "capacitor_loss_grid", "curves",
    "fixed_value",  # participation or inductor loss, per axis
    "signed", "threshold",
])):
    """Error over a capacitor-loss grid, one curve per swept parameter.

    ``axis`` names what the curves enumerate: inductor loss values at a
    fixed participation, or participation values at a fixed inductor
    loss. ``signed`` has shape (len(grid), len(curves)).
    """

    __slots__ = ()

    @property
    def magnitude(self) -> np.ndarray:
        return abs(self.signed)

    @property
    def measurable_mask(self) -> np.ndarray:
        return self.magnitude <= self.threshold

    def asymptotes(self) -> tuple[float, ...]:
        """High-capacitor-loss magnitude limit of each curve."""
        if self.axis == AXIS_PARTICIPATION:
            return tuple(participation_asymptote(p) for p in self.curves)
        return tuple(participation_asymptote(self.fixed_value) for _ in self.curves)


def log_grid(lo: float, hi: float, n_points: int) -> list[float]:
    """Log-spaced grid with validated bounds.

    The ends are lo and hi exactly. Point i between them is
    ``10.0 ** (log10(lo) + i * step)``, with step = (log10(hi) -
    log10(lo)) / (n_points - 1), by the C library's ``pow``. Every
    integral decade of the default grids (1e-7:1e-1:61) is the double
    nearest it: ``log_grid(1e-7, 1e-1, 61)[20] == 1e-5``.
    """
    if not (0.0 < lo < hi < math.inf):
        raise GridRangeError(f"grid bounds must be finite with 0 < lo < hi, got [{lo}, {hi}]")
    if n_points < 2:
        raise GridRangeError(f"grid needs at least 2 points, got {n_points}")
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (n_points - 1)
    return [lo, *(10.0 ** (start + i * step) for i in range(1, n_points - 1)), hi]


def _check_map(axis, grid: Sequence[float], curves, fixed_value, threshold) -> None:
    """Refuse a map that cannot be tabulated; ``grid`` is a sequence of floats."""
    if axis not in (AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION):
        raise ValueError(f"unknown axis {axis!r}")
    if len(grid) < 1 or any(c <= 0.0 for c in grid):
        raise GridRangeError("capacitor loss grid must be non-empty and positive")
    if len(curves) == 0:
        raise ValueError("need at least one curve value")
    if not all(math.isfinite(x) for x in (fixed_value, threshold, *curves)):
        raise ValueError("fixed value, curves and threshold must be finite")
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")


def _losses(axis, capacitor_loss, curve, fixed_value):
    """``systematic_error``'s (capacitor loss, inductor loss, participation) on a curve."""
    return ((capacitor_loss, fixed_value, curve) if axis == AXIS_PARTICIPATION
            else (capacitor_loss, curve, fixed_value))


def error_rows(axis: str, capacitor_loss_grid: Sequence[float], curves: Sequence[float],
               fixed_value: float, threshold: float = 0.1) -> list[list[float]]:
    """``error_map``'s cells in plain floats, without numpy: a row [c, each
    curve's error] per grid value c, the same bits from the same checks."""
    _check_map(axis, capacitor_loss_grid, curves, fixed_value, threshold)
    return [[c, *(systematic_error(*_losses(axis, c, curve, fixed_value)) for curve in curves)]
            for c in capacitor_loss_grid]


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
    import numpy as np

    grid = np.array(capacitor_loss_grid, dtype=float)
    _check_map(axis, grid.tolist(), curves, fixed_value, threshold)
    signed = np.empty((grid.size, len(curves)))
    for j, curve in enumerate(curves):
        signed[:, j] = systematic_error(*_losses(axis, grid, curve, fixed_value))
    signed.setflags(write=False)
    grid.setflags(write=False)
    return ErrorMap(
        axis=axis,
        capacitor_loss_grid=grid,
        curves=tuple(float(c) for c in curves),
        fixed_value=float(fixed_value),
        signed=signed,
        threshold=float(threshold),
    )
