"""Exception hierarchy shared across the solver modules."""

__all__ = [
    "VortexlabError",
    "ConfigError",
    "NoSolutionExpected",
    "ConvergenceFailure",
    "PathStalled",
    "AssumptionNotSatisfied",
]


class VortexlabError(Exception):
    """Base class for all package errors."""


class ConfigError(VortexlabError):
    """Invalid configuration, parameter range, or precondition (exit code 2)."""


class NoSolutionExpected(ConfigError):
    """The solvability condition for the requested problem is violated."""


class ConvergenceFailure(VortexlabError):
    """An iterative solve stagnated (exit code 3).

    Carries the residual history so failures are diagnosable from logs.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class PathStalled(ConvergenceFailure):
    """Continuation could not proceed past ``last_good_alpha`` after maximal
    step refinement."""

    def __init__(self, message, last_good_alpha, history):
        super().__init__(message, history)
        self.last_good_alpha = last_good_alpha


class AssumptionNotSatisfied(VortexlabError):
    """A per-singularity inequality of the admissibility checker fails
    (exit code 4).  Carries the report for the refusal message."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
