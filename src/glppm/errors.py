"""Exception types shared across the package.

The command line tool maps these onto exit codes, so library code should
raise the most specific type that applies rather than bare ValueError.
"""

from __future__ import annotations


class GlppmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GlppmError):
    """Invalid configuration: bad link kind, a stopping rule that is never met, ..."""


class DataError(GlppmError):
    """Malformed input data (CSV parse failures, unsorted times, bad marks)."""


class DomainError(GlppmError):
    """Evaluation outside the valid domain (lag outside [0, horizon],
    linear-link predictor below -d)."""

    def __init__(self, message: str, at: float | None = None, value: float | None = None):
        super().__init__(message)
        self.at = at
        self.value = value


class InfeasibleError(GlppmError):
    """The model cannot explain the data (zero intensity at an observed event,
    at-risk indicator zero at an event)."""


class SolverError(GlppmError):
    """An iterative routine failed: line search could not bracket a step,
    Newton solve broke down, or a simulation hit its explosion cap."""
