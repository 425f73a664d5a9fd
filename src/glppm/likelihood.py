"""Penalized minus-log-likelihood of a generalized linear point process.

For a counting process N with events tau_i, at-risk process Y, drivers Z and
filter g, the intensity is lambda_s = Y_s * phi(X_s-) with linear predictor
X_s- = sum_j sum_{sigma < s} dZ g_j(s - sigma), and

    l_t(g) = int_0^t Y_s phi(X_s-) ds - sum_i log(Y_tau_i phi(X_tau_i-)).

The penalized objective adds lam * ||P g||^2, the squared H1 semi-norm.

The link phi is linear, phi(x) = x + d; exponential (spelled "exponential"
or "exp"), phi(x) = exp(x + d); or softplus, phi(x) = log(1 + exp(x + d)).
The offset d sets the baseline intensity of the zero filter.

Two consistent evaluation regimes are used.  For the linear link the
compensator integral is linear in g and every atom has an exact
antiderivative, so the integral term is closed-form (no quadrature at all).
For general links the integral is discretized by composite Gauss-Legendre
quadrature on a partition split at every event, driver jump and at-risk
breakpoint; the reported gradient is then the exact gradient of the
discretized objective, which keeps line searches and finite-difference
checks sharp in both regimes.

A filter enters through its normal form, one merged atom per channel
(``FilterFunction.normal_forms``): its predictors at the nodes and the
events are one ``Objective.columns`` call over them, and its exact
compensator one antiderivative pass per channel.
``compensator`` evaluates Lambda at one time or at an array of times with
one partition and one cumulative pass, exactly for the linear link and by
the same Gauss-Legendre rule otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .data import AtRiskProcess, DriverSeries, EventSeries
from .errors import ConfigError, DomainError, InfeasibleError
from .filters import Atom, FilterFunction, _flatten, _merge_starts, _merged_atom, _ro, integrated_segments
from .kernel import SobolevKernel, _family_sums, _h0_stack, _prefix_table

__all__ = [
    "LinkSpec",
    "Objective",
    "QuadratureConfig",
    "build_f_atoms",
    "build_h_atoms",
    "compensator",
    "exponential_link",
    "intensity",
    "linear_link",
    "linear_predictor",
    "neg_log_lik",
    "objective_value",
    "softplus_link",
]

# entries of each temporary of ``Objective.columns`` (a prefix table or the
# values at the pair lags, one row per atom), which evaluates a channel's
# atoms in chunks that keep within it.  Fits on 20 events ran their history
# block about a fifth faster in chunks of 2**15 entries than in one chunk of
# 2**20: fresh pages of large temporaries fault on first touch.
_HISTORY_BLOCK = 1 << 15


# -- link functions -----------------------------------------------------------


# accepted spellings of each link family
_LINK_FAMILIES = {
    "linear": "linear",
    "exponential": "exponential",
    "exp": "exponential",
    "softplus": "softplus",
}


@dataclass(frozen=True)
class LinkSpec:
    """Monotone link phi mapping the linear predictor to an intensity scale.

    ``kind`` is "linear", "exponential" (also spelled "exp") or "softplus";
    the spelling given is kept, so serialized configs echo it.  ``d`` is an
    offset on the predictor in every family:

        linear       phi(x) = x + d            (d >= 0)
        exponential  phi(x) = exp(x + d)
        softplus     phi(x) = log(1 + exp(x + d))

    so exp(d) and log(1 + e^d) are the baselines of the zero filter.
    """

    kind: str
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in _LINK_FAMILIES:
            raise ConfigError(f"unknown link kind {self.kind!r}")
        if not np.isfinite(self.d):
            raise ConfigError(f"link offset d must be finite, got {self.d!r}")
        if self.kind == "linear" and self.d < 0:
            raise ConfigError(f"linear link offset d must be >= 0, got {self.d!r}")

    @property
    def family(self) -> str:
        """Canonical name of the link family, whatever the spelling."""
        return _LINK_FAMILIES[self.kind]

    @property
    def domain_min(self) -> float:
        """Lower edge of the predictor domain (inclusive)."""
        return -self.d if self.kind == "linear" else -np.inf

    def value(self, x):
        """phi(x), elementwise.  A Python float, as the thinning simulator
        passes twice per candidate, skips ``np.asarray``: it adds d in
        float arithmetic and goes through the same ufunc, which gives the
        bits of the array path (``math.exp`` does not on every host)."""
        if isinstance(x, float):
            x += self.d
        else:
            x = np.asarray(x, dtype=float) + self.d
        family = _LINK_FAMILIES[self.kind]
        if family == "linear":
            return x
        if family == "exponential":
            return np.exp(x)
        return np.logaddexp(0.0, x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float) + self.d
        if self.family == "linear":
            return np.ones(x.shape)
        if self.family == "exponential":
            return np.exp(x)
        return expit(x)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float) + self.d
        if self.family == "linear":
            return np.zeros(x.shape)
        if self.family == "exponential":
            return np.exp(x)
        sig = expit(x)
        return sig * (1.0 - sig)


def linear_link(d: float) -> LinkSpec:
    return LinkSpec("linear", float(d))


def exponential_link(d: float = 0.0) -> LinkSpec:
    return LinkSpec("exponential", float(d))


def softplus_link(d: float = 0.0) -> LinkSpec:
    return LinkSpec("softplus", float(d))


# -- quadrature ----------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule: this many nodes per partition interval."""

    nodes_per_interval: int = 8

    def __post_init__(self):
        n = self.nodes_per_interval
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigError(f"nodes_per_interval must be an integer >= 2, got {n!r}")


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _partition(end: float, *cuts) -> np.ndarray:
    """Sorted edges of [0, end], split at every time in ``cuts`` inside it."""
    edges = np.unique(np.concatenate([[0.0, end], *cuts]))
    return edges[(edges >= 0.0) & (edges <= end)]


def _gauss_nodes(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on each interval [a_i, b_i], interval-major."""
    x, w = _leggauss(n)
    width = b - a
    nodes = (a[:, None] + (x[None, :] + 1.0) * width[:, None] / 2.0).ravel()
    weights = (w[None, :] * width[:, None] / 2.0).ravel()
    return nodes, weights


def _history_pairs(eval_times: np.ndarray, times: np.ndarray, sizes: np.ndarray):
    """Flatten all (evaluation point, strictly earlier jump) pairs into
    (evaluation index, jump index, lag, jump size), evaluation-major."""
    counts = np.searchsorted(times, eval_times, side="left")
    total = int(counts.sum())
    eval_idx = np.repeat(np.arange(eval_times.size), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    jump_idx = np.arange(total) - offsets
    lags = eval_times[eval_idx] - times[jump_idx]
    return eval_idx, jump_idx, lags, sizes[jump_idx]


def _lag_segments(a: np.ndarray, b: np.ndarray, levels: np.ndarray, times: np.ndarray, sizes: np.ndarray):
    """Lag segments carrying int Y_s X_s-(.) ds over each interval.

    Over (a_k, b_k], where Y = levels[k], a jump at sigma < b_k contributes
    the lag interval (max(a_k - sigma, 0), b_k - sigma] with weight Y * dZ.
    Returns (k, lo, hi, weight), interval-major, with the intervals where
    Y = 0 left out.
    """
    k, j, hi, dz = _history_pairs(b, times, sizes)
    keep = levels[k] != 0.0
    k, j = k[keep], j[keep]
    return k, np.maximum(a[k] - times[j], 0.0), hi[keep], levels[k] * dz[keep]


@dataclass(frozen=True)
class _NodeLagIndex:
    """A channel's node-pair lags as every integral atom of node weights
    holds them: in a stable sort, merged.
    ``lags`` are the merged lags, read-only and shared by the atoms, which
    take them as they are; ``group``, ``node`` and ``dz`` give the merge
    group, quadrature node and jump size of each sorted pair, so that an
    atom's section weights are one ``bincount``; ``pos`` holds the search
    position in ``lags`` of each node-pair lag and then each event-pair
    lag, in the pairs' own order.  The lags lie in the kernel's domain by
    construction, so a fit's workspace takes their h0 stack once, unchecked,
    and each atom's polynomial content is one product with it
    (``_Workspace.add_integral_atoms``)."""

    lags: np.ndarray
    group: np.ndarray
    node: np.ndarray
    dz: np.ndarray
    pos: np.ndarray


def _check_channels(g, drivers: DriverSeries) -> None:
    """Reject a filter whose channel count differs from the data's; ``g`` is
    a FilterFunction or a sequence of callables, one per channel."""
    n = g.n_channels if isinstance(g, FilterFunction) else len(g)
    if n != drivers.n_channels:
        raise ConfigError(f"filter has {n} channels, data has {drivers.n_channels}")


def _filter_values(g, channel: int, lags: np.ndarray) -> np.ndarray:
    """Channel ``channel`` of a FilterFunction or of per-channel callables."""
    if isinstance(g, FilterFunction):
        return np.asarray(g.evaluate(channel, lags), dtype=float)
    return np.asarray(g[channel](lags), dtype=float)


def _smooth_values(m: int, atoms, lags: np.ndarray):
    """(start, values): the smooth parts of atoms on one channel at its pair
    lags, one row per atom from ``atoms[start]`` on, as ``Atom.h1_value``
    sums them.  A family's sums over another atom's lags add zeros, which
    keep its bits, and atoms with no sections or segments, as polynomials,
    have zeros."""
    if len(atoms) == 1 and (atoms[0].sec_lags.size or atoms[0].seg_nodes.size):
        # sorted and merged already: ``h1_value`` reads its kept tables
        yield 0, atoms[0].h1_value(lags)[None, :]
        return
    flat, parts = _flatten(atoms), []
    for p, (a_lags, a_w, owner) in ((m, flat[:3]), (m + 1, flat[3:])):
        if a_lags.size:  # one stable sort by lag and one search per kind
            order = np.argsort(a_lags, kind="stable")
            a_lags, a_w, owner = a_lags[order], a_w[order], owner[order]
            parts.append((p, a_lags, a_w, owner, np.searchsorted(a_lags, lags, side="right")))
    step = max(1, _HISTORY_BLOCK // (sum(part[1].size for part in parts) + 1 + lags.size))
    for start in range(0, len(atoms), step):
        k, h1 = min(step, len(atoms) - start), None
        for p, a_lags, a_w, owner, a_pos in parts:
            mine = np.flatnonzero((owner >= start) & (owner < start + k))
            weights = np.zeros((k, a_lags.size))
            weights[owner[mine] - start, mine] = a_w[mine]
            vals = _family_sums(_prefix_table(p, m, a_lags, weights), a_pos, lags)
            h1 = vals if h1 is None else np.add(h1, vals, out=h1)
        yield start, np.zeros((k, lags.size)) if h1 is None else h1


# -- the objective -------------------------------------------------------------


class Objective:
    """Data, link, penalty weight and quadrature bundled for repeated evaluation.

    Precomputes the quadrature grid, the lag segments of the exact
    compensator and, for every driver channel, one store of the (evaluation
    point, earlier jump) pairs: the pairs of the quadrature nodes, then those
    of the event times, each as its lag, point and jump size.
    ``_node_pairs`` and ``_event_pairs`` view its two halves.  ``columns``
    turns any block of atoms into predictor columns from this store, and
    ``predictors`` gives a filter's from one call over its normal forms.
    """

    def __init__(
        self,
        link: LinkSpec,
        penalty_weight: float,
        events: EventSeries,
        drivers: DriverSeries,
        at_risk: AtRiskProcess | None = None,
        quadrature: QuadratureConfig | None = None,
    ):
        if not np.isfinite(penalty_weight) or penalty_weight < 0:
            raise ConfigError(f"penalty weight must be >= 0, got {penalty_weight!r}")
        if events.horizon != drivers.horizon:
            raise ConfigError("events and drivers disagree on the horizon")
        self.link = link
        self.penalty_weight = float(penalty_weight)
        self.events = events
        self.drivers = drivers
        self.at_risk = at_risk if at_risk is not None else AtRiskProcess.unit()
        self.quadrature = quadrature if quadrature is not None else QuadratureConfig()
        self.horizon = float(events.horizon)
        self.n_channels = drivers.n_channels

        edges = _partition(
            self.horizon, events.times, self.at_risk.breakpoints,
            *(ch.times for ch in drivers.channels),
        )
        self.nodes, self.weights = _gauss_nodes(
            edges[:-1], edges[1:], self.quadrature.nodes_per_interval
        )
        self.y_nodes = self.at_risk.at(self.nodes)
        self.y_events = self.at_risk.at(events.times)
        self.int_y = self.at_risk.integral(self.horizon)
        self.pieces = self.at_risk.pieces(self.horizon)

        if len(events) and self.y_events.min() <= 0.0:
            i = int(np.argmin(self.y_events))
            raise InfeasibleError(
                f"at-risk process is zero at observed event t={events.times[i]}"
            )

        # per channel (point, lag, jump size) of every pair, node pairs first;
        # an event's point is its index after the nodes
        self._pairs, self._node_pairs, self._event_pairs = [], [], []
        for ch in drivers.channels:
            node, event = (_history_pairs(t, ch.times, ch.sizes) for t in (self.nodes, events.times))
            point, jump, lags, dz = (np.concatenate(arrs) for arrs in zip(node, event))
            k = node[2].size
            point[k:] += self.nodes.size
            self._pairs.append((point, lags, dz))
            self._node_pairs.append((point[:k], jump[:k], lags[:k], dz[:k]))
            self._event_pairs.append((event[0], jump[k:], lags[k:], dz[k:]))
        self._node_index: list[_NodeLagIndex | None] = [None] * self.n_channels
        # lag segments over the constancy pieces of Y
        a, b, levels = np.array(self.pieces).T
        self._segment_support = [
            _lag_segments(a, b, levels, ch.times, ch.sizes)[1:] for ch in drivers.channels
        ]

    def _check_kernel(self, kernel: SobolevKernel) -> None:
        """ConfigError unless the kernel's domain is the data's lag range."""
        if kernel.horizon != self.horizon:
            raise ConfigError("filter kernel horizon does not match the data horizon")

    def node_lag_index(self, channel: int) -> _NodeLagIndex:
        """The channel's ``_NodeLagIndex``, built on first use."""
        index = self._node_index[channel]
        if index is None:
            node, _, lags, dz = self._node_pairs[channel]
            order = np.argsort(lags, kind="stable")
            starts = _merge_starts(lags[order])
            merged = lags[order][starts]
            merged.setflags(write=False)
            group = np.cumsum(starts) - 1
            # a node-pair lag lies at or above its group's first lag and
            # below the next group's, so its position is its group + 1
            e_lags = self._event_pairs[channel][2]
            pos = np.empty(lags.size + e_lags.size, dtype=np.intp)
            pos[order] = group + 1
            pos[lags.size :] = np.searchsorted(merged, e_lags, side="right")
            index = self._node_index[channel] = _NodeLagIndex(
                merged, group, node[order], dz[order], pos
            )
        return index

    # -- predictor columns ---------------------------------------------------

    def columns(self, kernel: SobolevKernel, atoms) -> np.ndarray:
        """The predictors of a block of atoms at the quadrature nodes, then
        the events (strict left limits), one column per atom.  Per channel,
        the block's sections and its segments each form one prefix table
        with a row per atom (K[m,m], K[m+1,m]), and each pair lag is searched
        once; a block of one atom reads its own tables.
        ``_family_sums`` gives the smooth parts in chunks of
        ``_HISTORY_BLOCK`` entries, an atom with polynomial content (a
        polynomial or a normal form) adds it per half, and one ``bincount``
        per chunk sums each (point, atom) bin in pair order: the bits of
        ``atom.value`` at the pair lags times the jump sizes."""
        self._check_kernel(kernel)
        m, n_pts = kernel.m, self.nodes.size + len(self.events)
        xt = np.empty((len(atoms), n_pts))
        for ch in sorted({a.channel for a in atoms}):
            cols = [c for c, a in enumerate(atoms) if a.channel == ch]
            point, lags, dz = self._pairs[ch]
            n_node, phi = self._node_pairs[ch][2].size, None
            for start, vals in _smooth_values(m, [atoms[c] for c in cols], lags):
                chunk = cols[start : start + len(vals)]
                for i, c in enumerate(chunk):
                    if np.count_nonzero(atoms[c].h0):
                        h0 = atoms[c].h0[None, :]
                        phi = phi or (_h0_stack(lags[:n_node], m), _h0_stack(lags[n_node:], m))
                        vals[i, :n_node] += np.dot(h0, phi[0])[0]
                        vals[i, n_node:] += np.dot(h0, phi[1])[0]
                rows = slice(chunk[0], chunk[-1] + 1) if len(cols) == len(atoms) else chunk
                bins = point if len(chunk) == 1 else (point + n_pts * np.arange(len(chunk))[:, None])
                size, scaled = n_pts * len(chunk), np.multiply(vals, dz, out=vals)
                xt[rows] = np.bincount(bins.ravel(), scaled.ravel(), size).reshape(-1, n_pts)
        return xt.T

    def integral_column(self, atom: Atom) -> np.ndarray:
        """``columns`` of a nonzero part "r1" integral atom of node weights
        alone, as a (points, 1) array: its sections are the merged node
        lags, so each search position is read from the index.  It keeps no
        prefix table in the atom, which a fit's result holds."""
        point, lags, dz = self._pairs[atom.channel]
        table = _prefix_table(atom.m, atom.m, atom.sec_lags, atom.sec_weights)
        h1 = _family_sums(table, self.node_lag_index(atom.channel).pos, lags)
        return np.bincount(point, h1 * dz, self.nodes.size + len(self.events)).reshape(-1, 1)

    def node_column(self, kernel: SobolevKernel, atom: Atom) -> np.ndarray:
        """Predictor of the atom at all quadrature nodes."""
        return self.columns(kernel, [atom])[: self.nodes.size, 0]

    def event_column(self, kernel: SobolevKernel, atom: Atom) -> np.ndarray:
        """Predictor of the atom at all event times (strict left limits)."""
        return self.columns(kernel, [atom])[self.nodes.size :, 0]

    def comp_row(self, kernel: SobolevKernel, atom: Atom) -> float:
        """Exact int_0^t Y_s X_s-(atom) ds via atom antiderivatives."""
        lo, hi, w = self._segment_support[atom.channel]
        if w.size == 0:
            return 0.0
        vals = atom.antiderivative(kernel, hi) - atom.antiderivative(kernel, lo)
        return float(w @ vals)

    # -- predictors of a full filter -------------------------------------------

    def predictors(self, g: FilterFunction) -> tuple[np.ndarray, np.ndarray]:
        """X(g) at all quadrature nodes and at all event times (strict left
        limits): one ``columns`` call over the normal forms, whose columns
        are summed in channel order."""
        _check_channels(g, self.drivers)
        x = self.columns(g.kernel, g.normal_forms)
        x = sum(x[:, ch] for ch in range(g.n_channels))
        return x[: self.nodes.size], x[self.nodes.size :]


# -- public operations ----------------------------------------------------------


def linear_predictor(g, drivers: DriverSeries, s) -> np.ndarray:
    """X_s-(g) = sum_j sum_{sigma < s} dZ g_j(s - sigma) at the given times.

    ``g`` is a FilterFunction or one vectorized callable per channel.
    """
    _check_channels(g, drivers)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s_arr >= 0.0) & (s_arr <= drivers.horizon)):  # NaN fails too
        raise DomainError("evaluation times must lie in [0, horizon]")
    out = np.zeros(s_arr.shape)
    for j, ch in enumerate(drivers.channels):
        eval_idx, _, lags, dz = _history_pairs(s_arr, ch.times, ch.sizes)
        if lags.size:
            vals = _filter_values(g, j, lags) * dz
            out += np.bincount(eval_idx, weights=vals, minlength=s_arr.size)
    return float(out[0]) if np.isscalar(s) or np.ndim(s) == 0 else out


def _boundary_slack(d: float) -> float:
    """Numerical slack on the linear-link domain boundary X >= -d.  The
    linear fitter's multiplier iteration leaves a residual violation of
    about (inner gradient tolerance) / penalty weight, which floors near
    1e-8 on unit-scale problems; a fit it accepts within this slack must
    evaluate cleanly in the likelihood and ``intensity``."""
    return 1e-7 * max(1.0, d)


def _check_domain(link: LinkSpec, x: np.ndarray, s: np.ndarray) -> None:
    """DomainError where the linear-link predictor x at the times s lies
    below the domain minimum by more than the boundary slack."""
    if link.kind != "linear" or not x.size:
        return
    if x.min() < link.domain_min - _boundary_slack(link.d):
        i = int(np.argmin(x))
        raise DomainError(
            f"predictor {x[i]} below domain minimum {link.domain_min} at s={s[i]}",
            at=float(s[i]),
            value=float(x[i]),
        )


def intensity(g: FilterFunction, link: LinkSpec, at_risk: AtRiskProcess, drivers: DriverSeries, s):
    """lambda_s = Y_s phi(X_s-) at the given times."""
    x = linear_predictor(g, drivers, s)
    _check_domain(
        link, np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    y = at_risk.at(s)
    out = y * link.value(x)
    if link.kind == "linear":
        out = np.maximum(out, 0.0)  # clip hairline boundary rounding
    return float(out) if np.ndim(out) == 0 else out


def _event_phi(obj: Objective, x: np.ndarray) -> np.ndarray:
    """phi(X) at the events, given X there; InfeasibleError where the
    intensity is not positive."""
    phi = obj.link.value(x)
    lam = obj.y_events * phi
    if lam.size and lam.min() <= 0.0:
        i = int(np.argmin(lam))
        raise InfeasibleError(
            f"non-positive intensity {lam[i]} at event t={obj.events.times[i]}"
        )
    return phi


def neg_log_lik(g: FilterFunction, obj: Objective) -> float:
    """Minus log-likelihood; exact compensator for the linear link."""
    x_nodes, x_events = obj.predictors(g)
    phi_events = _event_phi(obj, x_events)
    if obj.link.kind == "linear":
        _check_domain(obj.link, x_nodes, obj.nodes)
        comp = obj.link.d * obj.int_y + sum(obj.comp_row(g.kernel, f) for f in g.normal_forms)
    else:
        comp = float(obj.weights @ (obj.y_nodes * obj.link.value(x_nodes)))
    event_term = float(np.sum(np.log(obj.y_events * phi_events))) if phi_events.size else 0.0
    return comp - event_term


def objective_value(g: FilterFunction, obj: Objective) -> float:
    """Penalized objective l_t(g) + lam ||P g||^2."""
    return neg_log_lik(g, obj) + obj.penalty_weight * g.h1_seminorm_sq()


# -- representer atoms ----------------------------------------------------------


def build_h_atoms(kernel: SobolevKernel, obj: Objective, part: str = "r1", points=None) -> list[Atom]:
    """History atoms of points, point-major then channel-minor.

    A point indexes the objective's pair store: a quadrature node, or an
    event after the nodes; by default every event.  Atom (p, j), the
    representer of the predictor at s_p on channel j, is sum_{sigma < s_p}
    dZ_j R^part(s_p - sigma, .); zero (empty) when no jump precedes the
    point there.  A channel's atoms come from one pass: its points' pair
    lags, in the kernel's domain once ``_check_kernel`` passes, are sorted
    once by point and then lag, stably, and merged with one ``bincount``,
    which sums each atom's sections in the order that ``_merge_sorted``
    does.  The atoms' sections are read-only slices of the merged arrays.
    """
    obj._check_kernel(kernel)
    n_nodes, n_ch = obj.nodes.size, obj.n_channels
    points = np.arange(n_nodes, n_nodes + len(obj.events)) if points is None else np.asarray(points, dtype=int)
    atoms: list = [None] * (points.size * n_ch)
    for j, (point, lags, dz) in enumerate(obj._pairs):
        # each point's pairs are one run of the store, which is point-major
        lo, hi = point.searchsorted(points), point.searchsorted(points, side="right")
        owner = np.repeat(np.arange(points.size), hi - lo)
        pairs = np.arange(owner.size) + (hi - np.cumsum(hi - lo))[owner]
        lags, dz = lags[pairs], dz[pairs]
        order = np.lexsort((lags, owner))
        owner, lags = owner[order], lags[order]
        starts = _merge_starts(lags, owner)
        merged_lags, merged_owner = _ro(lags[starts]), owner[starts]
        merged_w = _ro(np.bincount(np.cumsum(starts) - 1, weights=dz[order]))
        bounds = np.searchsorted(merged_owner, np.arange(points.size + 1))
        for i in range(points.size):
            cut = slice(bounds[i], bounds[i + 1])
            atoms[i * n_ch + j] = _merged_atom(kernel, j, "section", part, merged_lags[cut], merged_w[cut])
    return atoms


def build_f_atoms(
    kernel: SobolevKernel,
    obj: Objective,
    part: str = "r1",
    link_weights: np.ndarray | None = None,
) -> list[Atom]:
    """Integral atoms, one per channel.

    Without ``link_weights`` the compensator weight Y_s is piecewise constant
    and the atom is an exact integrated-segment atom.  With ``link_weights``
    (one value per quadrature node, e.g. w_q Y_q phi'(X_q)) the atom is the
    pointwise sum over (node, jump) pairs, the exact gradient of the
    quadrature-discretized compensator; its sections are the channel's
    merged node-pair lags (``Objective.node_lag_index``), in the domain by
    construction and shared by every such atom, weights summed by ``bincount``.
    """
    atoms = []
    if link_weights is None:
        for j in range(obj.n_channels):
            lo, hi, w = obj._segment_support[j]
            atoms.append(integrated_segments(kernel, j, lo, hi, w, part=part))
    else:
        link_weights = np.asarray(link_weights, dtype=float)
        if link_weights.shape != obj.nodes.shape:
            raise ConfigError("need one link weight per quadrature node")
        obj._check_kernel(kernel)
        for j in range(obj.n_channels):
            index = obj.node_lag_index(j)
            weights = _ro(np.bincount(
                index.group, weights=link_weights[index.node] * index.dz,
                minlength=index.lags.size,
            ))
            atoms.append(_merged_atom(kernel, j, "integrated", part, index.lags, weights))
    return atoms


def compensator(
    g,
    link: LinkSpec,
    at_risk: AtRiskProcess,
    drivers: DriverSeries,
    s,
    nodes_per_interval: int = 8,
):
    """Lambda(s) = int_0^s Y phi(X) du at one time or an array of times.

    ``g`` is a FilterFunction or one vectorized callable per channel.  One
    partition of [0, max s] at every driver jump and at-risk breakpoint, and
    one cumulative pass over its intervals; an s strictly inside an interval
    adds the piece from the interval's left end to s.  So each Lambda(s)
    depends on s alone, not on the other times asked for.  A linear link
    with a FilterFunction integrates exactly: antiderivatives of the normal
    forms over the lag segments of each interval.  Anything else uses
    composite Gauss-Legendre quadrature with this many nodes per interval,
    which ``QuadratureConfig`` validates on either route.
    """
    _check_channels(g, drivers)
    QuadratureConfig(nodes_per_interval)
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr >= 0.0) & (s_arr <= drivers.horizon)):
        raise DomainError(f"compensator endpoint {s} outside [0, horizon]")
    q = s_arr.ravel()
    edges = _partition(
        float(q.max()) if q.size else 0.0, at_risk.breakpoints,
        *(ch.times for ch in drivers.channels),
    )
    k = np.searchsorted(edges, q, side="right") - 1
    inside = q > edges[k]
    # every interval of the partition, then (edges[k], s] for each s inside one
    a = np.concatenate([edges[:-1], edges[k[inside]]])
    b = np.concatenate([edges[1:], q[inside]])
    if isinstance(g, FilterFunction) and link.kind == "linear":
        levels = at_risk.at(0.5 * (a + b))
        inc = link.d * levels * (b - a)
        for ch, form in zip(drivers.channels, g.normal_forms):
            idx, lo, hi, w = _lag_segments(a, b, levels, ch.times, ch.sizes)
            if w.size:
                vals = form.antiderivative(g.kernel, hi) - form.antiderivative(g.kernel, lo)
                inc += np.bincount(idx, weights=w * vals, minlength=inc.size)
    else:
        nodes, weights = _gauss_nodes(a, b, nodes_per_interval)
        lam = at_risk.at(nodes) * link.value(linear_predictor(g, drivers, nodes))
        inc = (weights * lam).reshape(-1, nodes_per_interval).sum(axis=1)
    n_full = edges.size - 1
    cum = np.concatenate(([0.0], np.cumsum(inc[:n_full])))
    out = cum[k]
    out[inside] += inc[n_full:]
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)
