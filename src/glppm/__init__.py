"""Penalized likelihood estimation of filter functions for generalized
linear point processes.

A counting process N with at-risk process Y and driver processes Z is
modelled through the intensity

    lambda_s = Y_s * phi( sum_j int_0^(s-) g_j(s - u) dZ_j(u) ),

where phi is a monotone link and the filter g lives coordinate-wise in an
order-m Sobolev space.  The package estimates g by minimizing the penalized
minus-log-likelihood: exactly in a finite representer basis for the linear
link (``fit_linear``), and by descent over a growing dictionary driven by
gradient atoms for the exponential and softplus links (``fit_descent``).
"""

from .data import AtRiskProcess, DatasetManifest, DriverSeries, EventSeries, load_events, save_events
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    GlppmError,
    InfeasibleError,
    SolverError,
)
from .filters import Atom, FilterFunction
from .kernel import SobolevKernel
from .likelihood import (
    LinkSpec,
    Objective,
    QuadratureConfig,
    build_f_atoms,
    build_h_atoms,
    compensator,
    exponential_link,
    intensity,
    linear_link,
    linear_predictor,
    neg_log_lik,
    objective_value,
    softplus_link,
)
from .optimizer import FitResult, fit_descent, fit_linear
from .simulator import SimSpec, simulate, time_rescale

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtRiskProcess",
    "ConfigError",
    "DataError",
    "DatasetManifest",
    "DomainError",
    "DriverSeries",
    "EventSeries",
    "FilterFunction",
    "FitResult",
    "GlppmError",
    "InfeasibleError",
    "LinkSpec",
    "Objective",
    "QuadratureConfig",
    "SimSpec",
    "SobolevKernel",
    "SolverError",
    "build_f_atoms",
    "build_h_atoms",
    "compensator",
    "exponential_link",
    "fit_descent",
    "fit_linear",
    "intensity",
    "linear_link",
    "linear_predictor",
    "load_events",
    "neg_log_lik",
    "objective_value",
    "save_events",
    "simulate",
    "softplus_link",
    "time_rescale",
]
