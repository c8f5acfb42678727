"""Exception types shared across the toolkit."""


class ReslossError(Exception):
    """Base class for all toolkit errors."""


class InvalidModelError(ReslossError):
    """Circuit parameters violate a physical constraint (e.g. L <= 0)."""


class InfeasibleGeometryError(ReslossError):
    """Requested frequency and inductance imply a non-positive capacitance."""


class UnderdeterminedError(ReslossError):
    """Not enough independent points to determine the fit parameters."""


class NonphysicalFitError(ReslossError):
    """A fit converged to parameters outside the physical domain."""


class FitFailureError(ReslossError):
    """A nonlinear fit did not converge."""


class OutOfSpanError(ReslossError):
    """The fitted resonance lies outside the swept frequency range."""


class IllConditionedFitError(ReslossError):
    """The data cannot constrain the model; names the missing regime."""

    def __init__(self, message, missing_regime=None):
        super().__init__(message)
        self.missing_regime = missing_regime


class InconsistentInputsError(ReslossError):
    """A loss solve went negative; ``stage`` names the failing step."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class GridRangeError(ReslossError):
    """Invalid bounds for a grid evaluation."""
