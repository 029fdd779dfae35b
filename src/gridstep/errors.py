"""Exception and warning types shared across the toolkit."""


class GridStepError(Exception):
    """Base class for all toolkit errors."""


class ModelError(GridStepError):
    """Network description is invalid or cannot be reduced to a swing model."""


class DimensionError(GridStepError):
    """Vector or matrix argument has the wrong length/shape."""


class InputFormatError(GridStepError):
    """An input document is not of its format: its JSON is nested too deeply
    to read, or it breaks its schema (the text is ``where: message``)."""


class DegenerateSpectrumError(GridStepError):
    """A zero or negative modal frequency: the closed-form orbit machinery
    needs every frequency above zero (repeated frequencies are fine)."""


class NoSwitchOpportunityError(GridStepError):
    """The switching function has no root in the search window."""

    def __init__(self, message, min_abs_h=None):
        super().__init__(message)
        self.min_abs_h = min_abs_h


class ScheduleError(GridStepError):
    """Control stages overlap or fall outside the simulation window."""


class StiffnessError(GridStepError):
    """Numeric integrator failed (step-size underflow)."""


class OptimizationError(GridStepError):
    """All optimizer starts diverged."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class ReachabilityWarning(UserWarning):
    """Requested equilibrium shift is not fully reachable through the
    controllable components; carries the least-squares residual norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MaxWindowWarning(UserWarning):
    """The oscillation-energy rate rises through zero nowhere before the
    window end, so no energy minimum was found; the window end time was
    returned instead."""
