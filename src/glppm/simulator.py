"""Simulation by thinning and goodness-of-fit time rescaling.

Events are drawn by Ogata thinning: on each window where the at-risk level
is constant and no exogenous jump occurs, the intensity is bounded by
Y * phi(sum_ch mass_ch * sup g_ch) with the channel sups taken on a dense
lag grid (times a small safety margin), candidates are drawn at that rate
and accepted with probability lambda/bound.  Accepting a self-exciting
event raises the bound, which is recomputed at every step.

``time_rescale`` maps observed events through the fitted compensator; under
a correct model the rescaled gaps are unit exponentials.  It is the
difference of one array call of ``likelihood.compensator`` at the event
times: exact for the linear link with a filter built from kernel atoms,
composite Gauss-Legendre quadrature between consecutive jumps, at-risk
breakpoints and events for any other combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from .errors import ConfigError, SolverError
from .filters import FilterFunction
from .likelihood import LinkSpec, _filter_values, _partition, compensator

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

    The automatic dominating rate assumes nonnegative jump sizes and a
    nondecreasing link; drivers with negative jumps need an explicit
    ``bound`` on the intensity, otherwise thinning would silently bias the
    law.
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
        return _filter_values(self.filters, channel, lags)


def _channel_sups(spec: SimSpec) -> np.ndarray:
    grid = np.linspace(0.0, spec.horizon, _BOUND_GRID)
    sups = np.empty(spec.n_channels)
    for ch in range(spec.n_channels):
        vals = spec.filter_values(ch, grid)
        sups[ch] = max(0.0, float(np.max(vals))) * _BOUND_MARGIN
    return sups


def simulate(spec: SimSpec, seed=None) -> tuple[EventSeries, DriverSeries]:
    """Draw one realization; returns the events and the full driver series
    (exogenous channels plus, when self-exciting, the target as a driver)."""
    rng = np.random.default_rng(seed)
    horizon = spec.horizon
    sups = _channel_sups(spec) if spec.bound is None else np.zeros(spec.n_channels)
    n_exo = spec.drivers.n_channels if spec.drivers else 0
    exo = list(spec.drivers.channels) if spec.drivers else []
    self_ch = spec.n_channels - 1 if spec.self_exciting else None

    edges = _partition(horizon, spec.at_risk.breakpoints, *(ch.times for ch in exo))

    events: list[float] = []
    cur = 0.0
    candidate_budget = 50 * spec.max_events + 1_000_000

    def predictor(s: float) -> float:
        x = 0.0
        for j, ch in enumerate(exo):
            n = int(np.searchsorted(ch.times, s, side="left"))
            if n:
                x += float(ch.sizes[:n] @ spec.filter_values(j, s - ch.times[:n]))
        if self_ch is not None and events:
            past = np.asarray(events)
            x += float(np.sum(spec.filter_values(self_ch, s - past)))
        return x

    while cur < horizon:
        nxt = float(edges[np.searchsorted(edges, cur, side="right")]) if cur < edges[-1] else horizon
        y_val = float(spec.at_risk.at(0.5 * (cur + nxt)))
        if y_val == 0.0:
            cur = nxt
            continue
        if spec.bound is not None:
            bound = spec.bound
        else:
            x_cap = 0.0
            for j, ch in enumerate(exo):
                n = int(np.searchsorted(ch.times, cur, side="right"))
                if n:
                    x_cap += float(np.sum(ch.sizes[:n])) * sups[j]
            if self_ch is not None:
                x_cap += len(events) * sups[self_ch]
            bound = y_val * float(spec.link.value(x_cap))
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
        if lam > 0.0 and rng.uniform() * bound <= lam:
            events.append(cand)
            if len(events) > spec.max_events:
                raise SolverError(
                    f"simulation exceeded max_events={spec.max_events}; "
                    "the process may be explosive"
                )
        cur = cand

    ev = EventSeries(horizon, np.array(events))
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
