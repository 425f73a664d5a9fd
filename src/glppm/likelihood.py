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
antiderivative, so the integral term is closed-form (no quadrature at all),
from one routine for every caller (``_segment_integrals``).
For general links the integral is discretized by composite Gauss-Legendre
quadrature on a partition split at every event, driver jump and at-risk
breakpoint; the reported gradient is then the exact gradient of the
discretized objective, which keeps line searches and finite-difference
checks sharp in both regimes.

A filter enters through its normal form, one merged atom per channel
(``FilterFunction.normal_forms``): its predictor at any times is
``linear_predictor``, which reads the forms' prefix tables once bound
(``FilterFunction.evaluate``), and its exact compensator one
``_segment_integrals`` pass per channel over them.
``compensator`` evaluates Lambda at one time or at an array of times with
one partition and one cumulative pass, exactly for the linear link and by
the same Gauss-Legendre rule otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import expit

from .data import AtRiskProcess, DriverSeries, EventSeries
from .errors import ConfigError, DomainError, InfeasibleError
from .filters import Atom, FilterFunction, _flatten, _merge, _merged_atom, _ro, integrated_segments
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
    """The linear link phi(x) = x + d, d >= 0: its family's public constructor."""
    return LinkSpec("linear", float(d))


def exponential_link(d: float = 0.0) -> LinkSpec:
    """The exponential link phi(x) = exp(x + d): its family's public constructor."""
    return LinkSpec("exponential", float(d))


def softplus_link(d: float = 0.0) -> LinkSpec:
    """The softplus link phi(x) = log(1 + exp(x + d)): its family's public constructor."""
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
    return np.polynomial.legendre.leggauss(n)


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
    holds them: sorted and merged by ``filters._merge``.
    ``lags`` are the merged lags, read-only and shared by the atoms, which
    take them as they are; ``order`` is the sort of the node pairs and
    ``group`` the merge group of each sorted pair, so that an atom's
    section weights are one ``bincount`` of per-pair weights taken in
    ``order``; ``pos`` holds the search position in ``lags`` of each
    node-pair lag and then each event-pair lag, in the pairs' own order."""

    lags: np.ndarray
    order: np.ndarray
    group: np.ndarray
    pos: np.ndarray


def _check_channels(g, n: int) -> None:
    """Reject a filter that is not a FilterFunction, or whose channel count
    is not n, the data's or a simulation's."""
    if not isinstance(g, FilterFunction):
        raise ConfigError(f"a filter must be a FilterFunction, got {type(g).__name__}")
    if g.n_channels != n:
        raise ConfigError(f"filter has {g.n_channels} channels, expected {n}")


def _smooth_values(m: int, q: int, atoms, lags: np.ndarray):
    """(start, values): the smooth parts of atoms on one channel at its pair
    lags, one row per atom from ``atoms[start]`` on (q = m), or their
    antiderivatives at these points (q = m + 1), each the sum that
    ``filters.h1_inner_row`` takes of its atom at the same q.  Every block,
    one atom included, takes this one path: a family's sums over another
    atom's lags add zeros, which keep its bits, and atoms with no sections
    or segments, as polynomials, have zeros."""
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
            vals = _family_sums(_prefix_table(p, q, a_lags, weights), a_pos, lags)
            h1 = vals if h1 is None else np.add(h1, vals, out=h1)
        yield start, np.zeros((k, lags.size)) if h1 is None else h1


def _segment_integrals(kernel: SobolevKernel, atoms, lo: np.ndarray, hi: np.ndarray):
    """(start, values): the exact int_lo^hi of atoms on one channel over
    each lag segment, a row per atom from ``atoms[start]`` on: one domain
    check of the ends, the smooth parts' antiderivatives there from one
    prefix table per kind (``_smooth_values``, q = m + 1), and each atom's
    polynomial antiderivative added at each end before they are subtracted."""
    kernel._check_domain(hi, lo)
    n, poly = hi.size, None
    for start, vals in _smooth_values(kernel.m, kernel.m + 1, atoms, np.concatenate([hi, lo])):
        for a, v in zip(atoms[start:], vals):
            if np.any(a.h0):
                poly = poly or (kernel.h0_antiderivative(hi), kernel.h0_antiderivative(lo))
                v[:n] += np.tensordot(a.h0, poly[0], axes=(0, 0))
                v[n:] += np.tensordot(a.h0, poly[1], axes=(0, 0))
        yield start, vals[:, :n] - vals[:, n:]


# -- the objective -------------------------------------------------------------


class Objective:
    """Data, link, penalty weight and quadrature bundled for repeated evaluation.

    Precomputes the quadrature grid and, for every driver channel, one
    store of the (evaluation point, earlier jump) pairs from one
    ``_history_pairs`` call over ``points``, the quadrature nodes and then
    the event times: each pair as its point's index there, its lag and
    its jump size, point-major.  The lag segments of the exact compensator
    (``_segment_support``), which only the linear link's compensator and
    exact integral atoms read, are built on first use.
    ``_node_pairs`` and ``_event_pairs`` view its two halves.  ``columns``
    turns any block of atoms into predictor columns from this store.
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
        self.points = np.concatenate([self.nodes, events.times])
        self._pairs, self._node_pairs, self._event_pairs = [], [], []
        for ch in drivers.channels:
            point, jump, lags, dz = _history_pairs(self.points, ch.times, ch.sizes)
            k = int(point.searchsorted(self.nodes.size))
            self._pairs.append((point, lags, dz))
            self._node_pairs.append((point[:k], jump[:k], lags[:k], dz[:k]))
            self._event_pairs.append((point[k:] - self.nodes.size, jump[k:], lags[k:], dz[k:]))
        self._node_index: list[_NodeLagIndex | None] = [None] * self.n_channels

    @cached_property
    def _segment_support(self) -> list:
        """Per channel, the (lo, hi, weight) lag segments over the constancy
        pieces of Y (``_lag_segments``)."""
        a, b, levels = np.array(self.pieces).T
        return [_lag_segments(a, b, levels, ch.times, ch.sizes)[1:] for ch in self.drivers.channels]

    def _check_kernel(self, kernel: SobolevKernel) -> None:
        """ConfigError unless the kernel's domain is the data's lag range."""
        if kernel.horizon != self.horizon:
            raise ConfigError("filter kernel horizon does not match the data horizon")

    def node_lag_index(self, channel: int) -> _NodeLagIndex:
        """The channel's ``_NodeLagIndex``, built on first use from one
        ``_merge`` of its node-pair lags."""
        index = self._node_index[channel]
        if index is None:
            lags = self._node_pairs[channel][2]
            order, starts, group = _merge(lags)
            merged = _ro(lags[order][starts])
            # a node-pair lag lies at or above its group's first lag and
            # below the next group's, so its position is its group + 1
            e_lags = self._event_pairs[channel][2]
            pos = np.empty(lags.size + e_lags.size, dtype=np.intp)
            pos[order] = group + 1
            pos[lags.size :] = np.searchsorted(merged, e_lags, side="right")
            index = self._node_index[channel] = _NodeLagIndex(merged, order, group, pos)
        return index

    # -- predictor columns ---------------------------------------------------

    def columns(self, kernel: SobolevKernel, atoms) -> np.ndarray:
        """The predictors of a block of atoms at the quadrature nodes, then
        the events (strict left limits), one column per atom.  Per channel,
        the block's sections and its segments each form one prefix table
        with a row per atom (K[m,m], K[m+1,m]), and each pair lag is searched
        once.
        ``_family_sums`` gives the smooth parts in chunks of
        ``_HISTORY_BLOCK`` entries, an atom with polynomial content, as the
        polynomials, adds it per half, and one ``bincount`` per chunk sums
        each (point, atom) bin in pair order: the bits of
        the atom's value (``Atom._bound_value``) at the pair lags times the
        jump sizes."""
        self._check_kernel(kernel)
        m, n_pts = kernel.m, self.nodes.size + len(self.events)
        xt = np.empty((len(atoms), n_pts))
        for ch in sorted({a.channel for a in atoms}):
            cols = [c for c, a in enumerate(atoms) if a.channel == ch]
            point, lags, dz = self._pairs[ch]
            n_node, phi = self._node_pairs[ch][2].size, None
            for start, vals in _smooth_values(m, m, [atoms[c] for c in cols], lags):
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
        lags, so each search position is read from the index."""
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

    def comp_row(self, kernel: SobolevKernel, atoms) -> np.ndarray:
        """Exact int_0^t Y_s X_s-(a) ds of each atom a of a block: per
        channel, one ``_segment_integrals`` pass over its lag segments, and
        each atom's entry its own ``w @ vals``, as one atom's exact
        compensator is."""
        row = np.zeros(len(atoms))
        for ch in sorted({a.channel for a in atoms}):
            lo, hi, w = self._segment_support[ch]
            if w.size == 0:
                continue
            cols = [c for c, a in enumerate(atoms) if a.channel == ch]
            for start, vals in _segment_integrals(kernel, [atoms[c] for c in cols], lo, hi):
                for c, v in zip(cols[start:], vals):
                    row[c] = w @ v
        return row


# -- public operations ----------------------------------------------------------


def _check_times(s: np.ndarray, horizon: float, what: str) -> None:
    """DomainError naming the first time s outside [0, horizon] or NaN, as ``at``."""
    outside = ~((s >= 0.0) & (s <= horizon))
    if outside.any():
        at = float(s.flat[np.argmax(outside)])
        raise DomainError(f"{what} {at} outside [0, {horizon}]", at=at)


def linear_predictor(g: FilterFunction, drivers: DriverSeries, s) -> np.ndarray:
    """X_s-(g) = sum_j sum_{sigma < s} dZ g_j(s - sigma) at the given times.

    A time outside [0, horizon] raises ``_check_times``' DomainError.
    """
    _check_channels(g, drivers.n_channels)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    _check_times(s_arr, drivers.horizon, "evaluation time")
    out = np.zeros(s_arr.shape)
    for j, ch in enumerate(drivers.channels):
        eval_idx, _, lags, dz = _history_pairs(s_arr, ch.times, ch.sizes)
        if lags.size:
            vals = g.evaluate(j, lags) * dz
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


@dataclass(frozen=True)
class _QuadratureCompensator:
    """psi_q(x) = w_q y_q phi(x) at node predictors x: the compensator of
    ``neg_log_lik`` and of the descent fitter on the non-linear links."""

    obj: Objective
    mu = None  # no multiplier passes

    def value(self, x: np.ndarray) -> float:
        return float(self.obj.weights @ (self.obj.y_nodes * self.obj.link.value(x)))

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return self.obj.weights * self.obj.y_nodes * self.obj.link.deriv(x)

    def deriv2(self, x: np.ndarray) -> np.ndarray:
        return self.obj.weights * self.obj.y_nodes * self.obj.link.deriv2(x)


def neg_log_lik(g: FilterFunction, obj: Objective) -> float:
    """Minus log-likelihood; exact compensator for the linear link."""
    x = linear_predictor(g, obj.drivers, obj.points)
    x_nodes, x_events = x[: obj.nodes.size], x[obj.nodes.size :]
    phi_events = _event_phi(obj, x_events)
    if obj.link.kind == "linear":
        _check_domain(obj.link, x_nodes, obj.nodes)
        comp = obj.link.d * obj.int_y + sum(obj.comp_row(g.kernel, g.normal_forms).tolist())
    else:
        comp = _QuadratureCompensator(obj).value(x_nodes)
    event_term = float(np.sum(np.log(obj.y_events * phi_events))) if phi_events.size else 0.0
    return comp - event_term


def objective_value(g: FilterFunction, obj: Objective) -> float:
    """Penalized objective l_t(g) + lam ||P g||^2."""
    return neg_log_lik(g, obj) + obj.penalty_weight * g.h1_seminorm_sq()


# -- representer atoms ----------------------------------------------------------


def build_h_atoms(kernel: SobolevKernel, obj: Objective, points=None) -> list[Atom]:
    """H1 (part "r1") history atoms of points, point-major then channel-minor.

    A point is an index into ``obj.points``: a quadrature node, or an
    event after the nodes; by default every event.  A point that is not an
    integer in [0, len(obj.points)) raises ConfigError.  Atom (p, j), the
    H1 part of the representer of the predictor at s_p on channel j, is
    sum_{sigma < s_p} dZ_j R1(s_p - sigma, .), whose polynomial part is the
    fitters' phi_k coordinates; zero (empty) when no jump precedes the
    point there.  A channel's atoms come from one pass: its points' pairs,
    generated as the store's are (``_history_pairs``) and in the kernel's
    domain once ``_check_kernel`` passes, are merged within each point by
    one ``_merge`` and one ``bincount``, which sum each atom's sections as
    ``_merge_sorted`` does.  The atoms' sections are read-only slices of
    the merged arrays.
    """
    obj._check_kernel(kernel)
    n, n_ch = obj.points.size, obj.n_channels
    points = np.arange(obj.nodes.size, n) if points is None else np.asarray(points)
    if points.ndim != 1 or points.size and not (
        np.issubdtype(points.dtype, np.integer) and 0 <= points.min() and points.max() < n
    ):
        raise ConfigError(f"history atom points must be integer indices in [0, {n})")
    atoms: list = [None] * (points.size * n_ch)
    for j, ch in enumerate(obj.drivers.channels):
        owner, _, lags, dz = _history_pairs(obj.points[points.astype(int)], ch.times, ch.sizes)
        order, starts, group = _merge(lags, owner)
        merged_lags, merged_owner = _ro(lags[order][starts]), owner[order][starts]
        merged_w = _ro(np.bincount(group, weights=dz[order]))
        bounds = np.searchsorted(merged_owner, np.arange(points.size + 1))
        for i in range(points.size):
            cut = slice(bounds[i], bounds[i + 1])
            atoms[i * n_ch + j] = _merged_atom(kernel, j, "section", "r1", merged_lags[cut], merged_w[cut])
    return atoms


def build_f_atoms(kernel: SobolevKernel, obj: Objective, link_weights: np.ndarray | None = None) -> list[Atom]:
    """H1 (part "r1") integral atoms, one per channel.

    Without ``link_weights`` the compensator weight Y_s is piecewise constant
    and the atom is an exact integrated-segment atom.  With ``link_weights``
    (one value per quadrature node, e.g. w_q Y_q phi'(X_q)) the atom is the
    pointwise sum over (node, jump) pairs, the exact gradient of the
    quadrature-discretized compensator; its sections are the channel's
    merged node-pair lags (``Objective.node_lag_index``), in the domain by
    construction and shared by every such atom, and its weights are one
    ``bincount`` over the index's groups of w[node] * dZ in its order.
    The representer's polynomial part is the fitters' phi_k coordinates.
    """
    atoms = []
    if link_weights is None:
        for j in range(obj.n_channels):
            lo, hi, w = obj._segment_support[j]
            atoms.append(integrated_segments(kernel, j, lo, hi, w))
    else:
        link_weights = np.asarray(link_weights, dtype=float)
        if link_weights.shape != obj.nodes.shape:
            raise ConfigError("need one link weight per quadrature node")
        obj._check_kernel(kernel)
        for j in range(obj.n_channels):
            node, _, _, dz = obj._node_pairs[j]
            index = obj.node_lag_index(j)
            weights = _ro(np.bincount(index.group, (link_weights[node] * dz)[index.order], index.lags.size))
            atoms.append(_merged_atom(kernel, j, "integrated", "r1", index.lags, weights))
    return atoms


def compensator(g: FilterFunction, link: LinkSpec, at_risk: AtRiskProcess, drivers: DriverSeries, s):
    """Lambda(s) = int_0^s Y phi(X) du at one time or an array of times.

    One partition of [0, max s] at every driver jump and at-risk breakpoint,
    and one cumulative pass over its intervals; an s strictly inside an
    interval adds the piece from the interval's left end to s.  So each
    Lambda(s) depends on s alone, not on the other times asked for.  The
    linear link integrates exactly: one ``_segment_integrals`` pass per
    channel over its normal form and the lag segments of every interval,
    summed by interval.  The exp and softplus links use ``QuadratureConfig``'s
    default composite Gauss-Legendre rule.  An s outside [0, horizon] raises
    ``_check_times``' DomainError.
    """
    _check_channels(g, drivers.n_channels)
    s_arr = np.asarray(s, dtype=float)
    _check_times(s_arr, drivers.horizon, "compensator endpoint")
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
    if link.kind == "linear":
        levels = at_risk.at(0.5 * (a + b))
        inc = link.d * levels * (b - a)
        for ch, form in zip(drivers.channels, g.normal_forms):
            idx, lo, hi, w = _lag_segments(a, b, levels, ch.times, ch.sizes)
            if w.size:
                for _, vals in _segment_integrals(g.kernel, [form], lo, hi):
                    inc += np.bincount(idx, weights=w * vals[0], minlength=inc.size)
    else:
        n = QuadratureConfig().nodes_per_interval
        nodes, weights = _gauss_nodes(a, b, n)
        lam = at_risk.at(nodes) * link.value(linear_predictor(g, drivers, nodes))
        inc = (weights * lam).reshape(-1, n).sum(axis=1)
    n_full = edges.size - 1
    cum = np.concatenate(([0.0], np.cumsum(inc[:n_full])))
    out = cum[k]
    out[inside] += inc[n_full:]
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)
