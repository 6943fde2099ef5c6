"""Exception hierarchy for g2flow."""


class G2FlowError(Exception):
    """Base class for all g2flow errors."""


class DomainError(G2FlowError):
    """A state left the admissible (stable-form / principal-orbit) locus."""


class ConstraintError(G2FlowError):
    """Seed-family parameters violate their defining constraint."""


class SeedError(G2FlowError):
    """An integration seed is inadmissible."""


class StiffnessError(G2FlowError):
    """Step size underflowed before any registered stop event."""

    def __init__(self, message, last_param=None, last_state=None):
        super().__init__(message)
        self.last_param = last_param
        self.last_state = last_state


class ResonanceError(G2FlowError):
    """A series recurrence hit a resonant multi-index with no repair rule."""

    def __init__(self, message, index=None, obstruction=None):
        super().__init__(message)
        self.index = index
        self.obstruction = obstruction


class NonAnalyticError(G2FlowError):
    """A right-hand side could not be Taylor-expanded at the base point."""


class ConvergenceError(G2FlowError):
    """An asymptotic estimator failed to converge within budget."""


class BracketError(G2FlowError):
    """Shooting found no sign change, or its bracket did not shrink to the tolerance."""

    def __init__(self, message, scan_table=None):
        super().__init__(message)
        self.scan_table = scan_table or []


class RegionExitError(G2FlowError):
    """A backward AC run left its invariant region mid-flight."""


class ClosureError(G2FlowError):
    """A trajectory does not close smoothly on the singular orbit."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class ConfigError(G2FlowError):
    """Invalid run configuration."""
