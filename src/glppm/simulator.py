"""Simulation by thinning and goodness-of-fit time rescaling.

Events are drawn by Ogata's (1981) modified thinning.  Each channel's
filter gets a nonincreasing upper envelope, g_ch(u) <= env_ch(u) =
max(0, max_{v >= u} g_ch(v)) times a small safety margin, taken once per
spec on a dense lag grid.  On a window where the at-risk level is constant
and no exogenous jump occurs, the intensity after the current time t is
bounded by Y * phi(sum_ch sum_{sigma <= t} dZ * env_ch(t - sigma)), the
envelope read at the grid point at or below each lag: until the next event,
jump or breakpoint the lags only grow, so the envelope terms only fall.  A
candidate is drawn at that rate and accepted with probability
lambda/bound; the bound is recomputed at every step, so it decays with the
age of the past jumps instead of holding the sup of g for every one of them.
The next window edge, the at-risk level and each driver's count of jumps
so far change only at an edge, and are kept until the next one.  Each
channel's envelope sum keeps its first jump within reach, as candidates
only move forward, and searches only the grid.  Each candidate reads the
filter once per channel at the lags of the past jumps, through
``SimSpec.filter_values``, which calls a function bound once: for a
FilterFunction, its ``_readers``, which hold its normal forms' prefix
tables and skip the domain check, as every lag lies in [0, horizon] by
construction.  The link is read on Python floats.  So a candidate costs
one grid search of the lags in reach, one filter read per channel (a
search of the lags with a multiply-add per kernel term), two link reads,
and two draws: an exponential gap, and the acceptance uniform as
``Generator.random()``, the double that ``uniform()`` returns after its
argument handling, from the same one 64-bit draw.  The envelope sum's
cut and the bound's finiteness check are Python float arithmetic.  The
envelope itself is built once per spec, and at m = 1 reads the filter
only up to its last lag (``SimSpec.envelopes``).

``time_rescale`` maps observed events through the fitted compensator; under
a correct model the rescaled gaps are unit exponentials.  It is the
difference of one array call of ``likelihood.compensator`` at the event
times: exact for the linear link with a filter built from kernel atoms,
composite Gauss-Legendre quadrature between consecutive jumps, at-risk
breakpoints and events for any other combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from .errors import ConfigError, SolverError
from .filters import FilterFunction
from .likelihood import LinkSpec, _partition, compensator

__all__ = ["SimSpec", "simulate", "time_rescale"]

_BOUND_GRID = 10_000
_BOUND_MARGIN = 1.01


@dataclass(frozen=True)
class SimSpec:
    """What to simulate.

    ``filters`` is either a FilterFunction or one callable per channel
    (vectorized lag -> value).  Channel order is: the exogenous driver
    channels of ``drivers`` first, then, when ``self_exciting``, the target
    itself with unit jumps as the last channel.

    The automatic dominating rate is the envelope bound of the module
    docstring, read from ``envelopes``.  It assumes nonnegative jump sizes
    and a nondecreasing link; drivers with negative jumps need an explicit
    ``bound`` on the intensity, otherwise thinning would silently bias the
    law.  A grid envelope too tight for a narrow peak of g between grid
    points raises ``SolverError`` (bound exceeded) at the first candidate
    that meets it.  The envelope is computed on first use and kept, so the
    filters must not change after the spec is built.
    """

    link: LinkSpec
    filters: FilterFunction | Sequence[Callable]
    horizon: float
    self_exciting: bool = True
    drivers: DriverSeries | None = None
    at_risk: AtRiskProcess = field(default_factory=AtRiskProcess.unit)
    max_events: int = 1_000_000
    target_name: str = "target"
    bound: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon!r}")
        if self.bound is not None and (not np.isfinite(self.bound) or self.bound <= 0):
            raise ConfigError(f"bound must be positive, got {self.bound!r}")
        if self.bound is None and self.drivers is not None:
            if any(np.any(ch.sizes < 0) for ch in self.drivers.channels):
                raise ConfigError(
                    "negative jump sizes break the automatic thinning bound; "
                    "supply an explicit intensity bound"
                )
        if not self.self_exciting and self.drivers is None:
            raise ConfigError("need drivers or self_exciting=True")
        if self.drivers is not None and self.drivers.horizon != self.horizon:
            raise ConfigError("drivers horizon does not match the simulation horizon")
        n = self.n_channels
        if isinstance(self.filters, FilterFunction):
            if self.filters.n_channels != n:
                raise ConfigError(
                    f"filter has {self.filters.n_channels} channels, expected {n}"
                )
            if self.filters.kernel.horizon < self.horizon:
                raise ConfigError("filter kernel horizon shorter than the simulation")
        elif len(self.filters) != n:
            raise ConfigError(f"expected {n} filter callables, got {len(self.filters)}")
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")

    @property
    def n_channels(self) -> int:
        return (self.drivers.n_channels if self.drivers else 0) + int(self.self_exciting)

    def filter_values(self, channel: int, lags: np.ndarray) -> np.ndarray:
        """g_channel at an array of lags in [0, horizon].

        The envelope grid and every thinning candidate read the filter
        here, through the function ``_readers`` bound for the channel.
        """
        return self._readers[channel](lags)

    @cached_property
    def _readers(self) -> tuple[Callable, ...]:
        """One function of a lag array per channel, bound once.

        A FilterFunction is read through its own ``_readers``, from its
        normal forms' prefix tables with no domain check: candidates lie
        below the horizon, driver and event times are >= 0, and
        ``__post_init__`` rejects a kernel whose horizon is shorter than the
        simulation, so every lag is in the kernel's domain.  A callable's
        values are taken as a float array.
        """
        if isinstance(self.filters, FilterFunction):
            return self.filters._readers
        return tuple(lambda lags, f=f: np.asarray(f(lags), dtype=float) for f in self.filters)

    @cached_property
    def envelopes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lag grid, one nonincreasing upper envelope per channel on it,
        and each channel's reach; computed once per spec.

        ``env[ch, i] = max(0, max_{j >= i} g_ch(grid[j])) * _BOUND_MARGIN``,
        so ``env[ch, i]`` bounds g_ch at every lag from ``grid[i]`` on.  Read
        at the grid point at or below a lag, it stays valid while that lag
        grows.  ``reach[ch]`` is the first lag from which the envelope is 0:
        jumps older than that add nothing to the bound.

        A FilterFunction at m = 1 is read only up to the first grid point
        past the last section lag or segment node of the channel's normal
        form, and the envelope there stands for the rest of the grid.  This
        is exact: past its last lag every low-branch term of the kernel sums
        (``kernel._family_sums``) is the full prefix sum, with no power of
        the lag, and every high-branch term is its coefficient times the
        empty suffix sum, +0.0, times a power of the lag, a zero whose sign
        the lag does not change; the polynomial part is the constant h0[0].
        So every grid point from the last one read on gets the same float,
        and so does the envelope there.  At m >= 2 the tail is a polynomial
        in the lag, and a callable is opaque: both are read on the whole
        grid.
        """
        grid = np.linspace(0.0, self.horizon, _BOUND_GRID)
        env = np.empty((self.n_channels, grid.size))
        reach = np.full(self.n_channels, np.inf)
        flat_tail = isinstance(self.filters, FilterFunction) and self.filters.kernel.m == 1
        for ch in range(self.n_channels):
            stop = grid.size
            if flat_tail:
                form = self.filters.normal_forms[ch]
                last = max((a[-1] for a in (form.sec_lags, form.seg_nodes) if a.size), default=-np.inf)
                stop = min(int(grid.searchsorted(last, side="right")) + 1, grid.size)
            vals = np.maximum(self.filter_values(ch, grid[:stop]), 0.0)
            env[ch, :stop] = np.maximum.accumulate(vals[::-1])[::-1] * _BOUND_MARGIN
            env[ch, stop:] = env[ch, stop - 1]
            if env[ch, -1] == 0.0:
                reach[ch] = grid[int(np.argmin(env[ch] > 0.0))]
        return grid, env, reach


def _envelope_sum(grid, env, reach, sizes):
    """One channel's envelope sum as a function of (times, end, t): the sum
    over its jumps ``times[:end]``, those at or before t, of
    dZ * env(t - sigma), env read at the grid point at or below each lag;
    ``sizes`` None means unit jumps.  t must not decrease from call to
    call: a jump older than the reach then never comes back into it, so
    the first jump within reach is kept between calls instead of searched
    for, and one search of the lags in the grid is left.  ``reach`` is
    kept as a Python float, so each call's cut ``t - reach`` is float
    arithmetic, not that of a NumPy scalar."""
    if env[0] == 0.0:  # a nonincreasing envelope that starts at 0 is 0
        return lambda times, end, t: 0.0
    shifted = np.concatenate([env[-1:], env])  # shifted[i] is env[i - 1]
    reach = float(reach)
    start = 0

    def envelope_sum(times, end: int, t: float) -> float:
        nonlocal start
        cut = t - reach
        while start < end and times[start] < cut:
            start += 1
        if start == end:
            return 0.0
        vals = shifted.take(grid.searchsorted(t - times[start:end], side="right"))
        return float(np.add.reduce(vals) if sizes is None else sizes[start:end] @ vals)

    return envelope_sum


def simulate(spec: SimSpec, seed=None) -> tuple[EventSeries, DriverSeries]:
    """Draw one realization; returns the events and the full driver series
    (exogenous channels plus, when self-exciting, the target as a driver).
    An explosive process raises SolverError: at more than ``max_events``
    events, or where the thinning bound is not finite."""
    rng = np.random.default_rng(seed)
    horizon = spec.horizon
    exo = list(spec.drivers.channels) if spec.drivers else []
    self_ch = spec.n_channels - 1 if spec.self_exciting else None
    if spec.bound is None:
        grid, env, reach = spec.envelopes
        env_sums = [_envelope_sum(grid, env[j], reach[j], ch.sizes) for j, ch in enumerate(exo)]
        if self_ch is not None:
            env_sums.append(_envelope_sum(grid, env[self_ch], reach[self_ch], None))

    edges = _partition(horizon, spec.at_risk.breakpoints, *(ch.times for ch in exo))

    events = np.empty(64)  # self-exciting event times, events[:n_events] filled
    n_events = 0
    cur = 0.0
    candidate_budget = 50 * spec.max_events + 1_000_000

    def predictor(s: float) -> float:
        x = 0.0
        for j, ch in enumerate(exo):
            n = int(ch.times.searchsorted(s))
            if n:
                x += float(ch.sizes[:n] @ spec.filter_values(j, s - ch.times[:n]))
        if self_ch is not None and n_events:
            x += float(np.add.reduce(spec.filter_values(self_ch, s - events[:n_events])))
        return x

    def x_bound(t: float) -> float:
        x = 0.0
        for j, ch in enumerate(exo):
            x += env_sums[j](ch.times, ends[j], t)
        if self_ch is not None:
            x += env_sums[self_ch](events, n_events, t)
        return x

    nxt = cur
    while cur < horizon:
        if cur == nxt:
            # at a window edge: the next edge, the at-risk level up to it,
            # and how many of each driver's jumps lie at or before it
            nxt = float(edges[edges.searchsorted(cur, side="right")])  # edges[-1] is horizon
            y_val = float(spec.at_risk.at(0.5 * (cur + nxt)))
            ends = [int(ch.times.searchsorted(cur, side="right")) for ch in exo]
        if y_val == 0.0:
            cur = nxt
            continue
        if spec.bound is not None:
            bound = spec.bound
        else:
            bound = y_val * float(spec.link.value(x_bound(cur)))
            if not math.isfinite(bound):
                # candidates would come at rate inf, all at cur
                raise SolverError(
                    f"thinning bound {bound} at t={cur}; the process is explosive under this link"
                )
        if bound <= 0.0:
            cur = nxt
            continue
        candidate_budget -= 1
        if candidate_budget < 0:
            raise SolverError("thinning candidate budget exhausted")
        cand = cur + rng.exponential(1.0 / bound)
        if cand >= nxt:
            cur = nxt
            continue
        lam = y_val * float(spec.link.value(predictor(cand)))
        if lam > bound * (1.0 + 1e-9):
            raise SolverError(
                f"thinning bound {bound} exceeded by intensity {lam} at t={cand}"
            )
        if lam > 0.0 and rng.random() * bound <= lam:
            if n_events == spec.max_events:
                raise SolverError(
                    f"simulation exceeded max_events={spec.max_events}; "
                    "the process may be explosive"
                )
            if n_events == events.size:
                events = np.concatenate([events, np.empty(events.size)])
            events[n_events] = cand
            n_events += 1
        cur = cand

    ev = EventSeries(horizon, events[:n_events].copy())
    channels = list(exo)
    if spec.self_exciting:
        channels.append(DriverChannel(spec.target_name, ev.times.copy(), np.ones(len(ev))))
    return ev, DriverSeries(horizon, tuple(channels))


def time_rescale(
    g,
    link: LinkSpec,
    events: EventSeries,
    drivers: DriverSeries,
    at_risk: AtRiskProcess | None = None,
    nodes_per_interval: int = 8,
) -> np.ndarray:
    """Compensator increments between consecutive events.

    Returns Lambda(tau_i) - Lambda(tau_{i-1}) for every event; unit
    exponential under the data-generating model.  ``g`` is a FilterFunction
    (exact integration for the linear link) or a sequence of per-channel
    callables (quadrature).
    """
    at_risk = at_risk if at_risk is not None else AtRiskProcess.unit()
    vals = compensator(g, link, at_risk, drivers, events.times, nodes_per_interval)
    return np.diff(vals, prepend=0.0)
