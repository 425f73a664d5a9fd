"""Maps of the data that change the penalized objective F only by a known
constant: a permutation of the channels with their filters, an extra
channel with no jumps, a change of time unit on the exponential and the
linear link, and one common rescaling of every channel's marks.  They are
checked on F of a fixed filter, and, but for the linear link's time unit,
on ``fit_descent``'s fits at m = 1, whose F and filter must follow the map
to the fits' tolerance.

The data are drawn by a seeded generator: an exogenous driver with marks
in [0.5, 2] and the self-exciting target, with an at-risk process that
steps twice.  The filter is a few R1 sections and polynomials per channel,
small enough that F stays of order 10."""

import math
from functools import lru_cache

import numpy as np
import pytest

from glppm.data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from glppm.filters import FilterFunction, h0_poly
from glppm.kernel import SobolevKernel
from glppm.likelihood import Objective, exponential_link, linear_link, objective_value, softplus_link
from glppm.optimizer import fit_descent

from oracles import kernel_section, same_bits

HORIZON = 8.0
BREAKS, LEVELS = np.array([3.0, 5.5]), np.array([1.0, 0.5, 2.0])
LINKS = {"exp": exponential_link(-0.5), "softplus": softplus_link(-0.5)}


def draw(seed: int):
    """(events, channels, filter spec): event times; per channel its jump
    times and marks; and per atom (channel, lag or None for a polynomial,
    its index k, coefficient)."""
    rng = np.random.default_rng(seed)
    events = np.sort(rng.uniform(0.2, HORIZON, 12))
    z = np.sort(rng.uniform(0.0, HORIZON, 6))
    channels = [(z, rng.uniform(0.5, 2.0, z.size)), (events, np.ones(events.size))]
    spec = []
    for ch in range(2):
        spec += [(ch, float(lag), 0, rng.normal(scale=0.02)) for lag in rng.uniform(0.2, 4.0, 3)]
        spec += [(ch, None, k, rng.normal(scale=0.1 / HORIZON ** (k - 1))) for k in (1, 2)]
    return events, channels, spec


def objective(link, m: int, lam: float, events, channels, c: float = 1.0):
    """(kernel, objective) at time unit c: the times, breakpoints and
    horizon times c."""
    drivers = DriverSeries(c * HORIZON, tuple(
        DriverChannel(f"ch{j}", c * t, s) for j, (t, s) in enumerate(channels)
    ))
    obj = Objective(
        link, lam, EventSeries(c * HORIZON, c * events), drivers, at_risk=AtRiskProcess(c * BREAKS, LEVELS)
    )
    return SobolevKernel(m, c * HORIZON), obj


def build(link, m: int, lam: float, events, channels, spec, c: float = 1.0):
    """F at time unit c (``objective``) of the filter g~(u) = g(u / c): an
    R1 section at c * lag takes its weight over c^(2m-1), and phi_k its
    coefficient over c^(k-1)."""
    kernel, obj = objective(link, m, lam, events, channels, c)
    atoms, coeffs = [], []
    for ch, lag, k, w in spec:
        if lag is not None:
            atoms.append(kernel_section(kernel, ch, c * lag))
            coeffs.append(w / c ** (2 * m - 1))
        elif k <= m:
            atoms.append(h0_poly(kernel, ch, k))
            coeffs.append(w / c ** (k - 1))
    g = FilterFunction(kernel, len(channels), tuple(atoms), np.array(coeffs))
    return objective_value(g, obj)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("link", sorted(LINKS))
class TestObjectiveSymmetries:
    def test_swapping_two_channels_with_their_filters_keeps_every_bit(self, link, m):
        events, channels, spec = draw(7)
        f = build(LINKS[link], m, 2.0, events, channels, spec)
        swapped = [(1 - ch, lag, k, w) for ch, lag, k, w in spec]
        assert 1.0 < abs(f) < 1e3
        assert same_bits(build(LINKS[link], m, 2.0, events, channels[::-1], swapped), f)

    def test_a_channel_with_no_jumps_keeps_every_bit(self, link, m):
        events, channels, spec = draw(8)
        f = build(LINKS[link], m, 2.0, events, channels, spec)
        for where in range(3):
            more = channels[:where] + [(np.empty(0), np.empty(0))] + channels[where:]
            moved = [(ch + (ch >= where), lag, k, w) for ch, lag, k, w in spec]
            assert same_bits(build(LINKS[link], m, 2.0, events, more, moved), f), where

    @pytest.mark.parametrize("c", [0.1, 3.0])
    def test_a_common_scale_of_the_marks_keeps_the_value(self, link, m, c):
        # marks times c with g / c leave every predictor, and c^2 lambda
        # the penalty
        events, channels, spec = draw(9)
        f = build(LINKS[link], m, 2.0, events, channels, spec)
        scaled = [(t, c * s) for t, s in channels]
        f_c = build(LINKS[link], m, c * c * 2.0, events, scaled, [(ch, lag, k, w / c) for ch, lag, k, w in spec])
        assert abs(f_c - f) <= 1e-12 * abs(f)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("c", [0.1, 3.0])
def test_a_time_unit_shifts_the_exp_objective_by_n_log_c(m, c):
    # d - log c divides every intensity by c, which the compensator's
    # longer time undoes and each event's log adds; c^(2m-1) lambda keeps
    # the penalty of g(u / c)
    events, channels, spec = draw(10)
    f = build(exponential_link(-0.5), m, 2.0, events, channels, spec)
    f_c = build(exponential_link(-0.5 - math.log(c)), m, c ** (2 * m - 1) * 2.0, events, channels, spec, c)
    assert 1.0 < abs(f) < 1e3
    assert abs(f_c - events.size * math.log(c) - f) <= 1e-12 * abs(f)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("c", [0.1, 3.0])
def test_a_time_unit_shifts_the_linear_objective_by_n_log_c(m, c):
    # g~(c u) = g(u) / c and d / c divide every intensity by c, which the
    # compensator's longer time undoes and each event's log adds;
    # c^(2m+1) lambda keeps the penalty of g(u / c) / c
    events, channels, spec = draw(10)
    f = build(linear_link(1.0), m, 2.0, events, channels, spec)
    scaled = [(ch, lag, k, w / c) for ch, lag, k, w in spec]
    f_c = build(linear_link(1.0 / c), m, c ** (2 * m + 1) * 2.0, events, channels, scaled, c)
    assert 1.0 < abs(f) < 1e3
    assert abs(f_c - events.size * math.log(c) - f) <= 1e-12 * abs(f)


# the fits' half: fit_descent at m = 1 and lambda = 1 on six drawn
# datasets; m = 2 is left out, as its fits end apart between time units
FIT_SEEDS = range(6)
GRID = np.linspace(0.0, HORIZON, 81)


@lru_cache(maxsize=None)
def fitted(link: str, seed: int, variant: str = "base", c: float = 1.0):
    """The fit of ``draw(seed)``'s data under a map: "base", "swap" (the
    two channels in reverse order), "empty" (a channel with no jumps
    between them), "unit" (time unit c on the exp link, with d - log c
    and c lambda) or "marks" (every channel's marks times c, with
    c^2 lambda)."""
    events, channels, _ = draw(seed)
    spec, lam, unit = LINKS[link], 1.0, 1.0
    if variant == "swap":
        channels = channels[::-1]
    elif variant == "empty":
        channels = [channels[0], (np.empty(0), np.empty(0)), channels[1]]
    elif variant == "unit":
        # lambda = 1, times c^(2m - 1) = c in time unit c
        spec, lam, unit = exponential_link(spec.d - math.log(c)), c, c
    elif variant == "marks":
        channels, lam = [(t, c * s) for t, s in channels], c * c
    return fit_descent(*objective(spec, 1, lam, events, channels, unit))


def converged_pairs(link: str, variant: str, c: float = 1.0):
    """(seed, base fit, mapped fit) for each seed where both fits
    converge; at least two thirds of the seeds must, so that the checks
    cannot pass on none."""
    fits = [(seed, fitted(link, seed), fitted(link, seed, variant, c)) for seed in FIT_SEEDS]
    both = [(seed, a, b) for seed, a, b in fits if a.converged and b.converged]
    assert 3 * len(both) >= 2 * len(fits)
    return both


@pytest.mark.parametrize("variant, moved", [("swap", (1, 0)), ("empty", (0, 2))])
@pytest.mark.parametrize("link", sorted(LINKS))
def test_a_fit_follows_its_channels(link, variant, moved):
    # each channel's filter lands where its channel went, with the same F
    for _, a, b in converged_pairs(link, variant):
        assert abs(b.objective - a.objective) <= 1e-7 * abs(a.objective)
        for j, k in enumerate(moved):
            assert np.abs(b.g_hat.evaluate(k, GRID) - a.g_hat.evaluate(j, GRID)).max() <= 1e-4
        if variant == "empty":
            assert not b.g_hat.evaluate(1, GRID).any()


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_an_exp_fit_follows_the_time_unit(c):
    # F~ - N log c = F, and g~(c u) = g(u)
    for seed, a, b in converged_pairs("exp", "unit", c):
        n = draw(seed)[0].size
        assert abs(b.objective - n * math.log(c) - a.objective) <= 1e-7 * abs(a.objective)
        for j in range(2):
            assert np.abs(b.g_hat.evaluate(j, c * GRID) - a.g_hat.evaluate(j, GRID)).max() <= 1e-4


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("link", sorted(LINKS))
def test_a_fit_follows_a_common_scale_of_the_marks(link, c):
    # F~ = F, and c g~ = g
    for _, a, b in converged_pairs(link, "marks", c):
        assert abs(b.objective - a.objective) <= 1e-7 * abs(a.objective)
        for j in range(2):
            assert np.abs(c * b.g_hat.evaluate(j, GRID) - a.g_hat.evaluate(j, GRID)).max() <= 1e-4
