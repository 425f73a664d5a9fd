"""Shared fixtures: a small hand-built dataset, and a simulated Hawkes run
with its filter."""

import numpy as np
import pytest

from glppm.data import DriverChannel, DriverSeries, EventSeries
from glppm.kernel import SobolevKernel
from glppm.likelihood import linear_link
from glppm.simulator import SimSpec, simulate

from oracles import interpolated


@pytest.fixture
def tiny():
    """Two-channel dataset small enough to check against hand sums.

    Exogenous driver "z" with three marked jumps plus the self-exciting
    target channel, horizon 8.
    """
    events = EventSeries(8.0, np.array([1.5, 3.0, 6.5]))
    drivers = DriverSeries(
        8.0,
        (
            DriverChannel("z", np.array([0.5, 2.0, 5.0]), np.array([1.0, 0.5, 2.0])),
            DriverChannel("target", events.times, np.ones(3)),
        ),
    )
    return events, drivers


@pytest.fixture(scope="session")
def hawkes50_filter():
    """The filter of ``hawkes50``: 0.3 exp(-u) interpolated at m = 1 on knots
    1e-3 apart (``oracles.interpolated``), within 4e-8 of the closed form."""
    return interpolated(SobolevKernel(m=1, horizon=50.0), lambda u: 0.3 * np.exp(-u))


@pytest.fixture(scope="session")
def hawkes50(hawkes50_filter):
    """Linear self-exciting run: baseline 0.5, filter ``hawkes50_filter``, horizon 50."""
    spec = SimSpec(link=linear_link(0.5), filters=hawkes50_filter, horizon=50.0)
    return simulate(spec, seed=0)
