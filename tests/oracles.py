"""Reference implementations the tests check the library against.

The kernel functions evaluate R0, R1, R = R0 + R1 and the once- and
twice-integrated R1 pointwise, from the closed forms of ``glppm.kernel``'s
docstring, with no prefix sums.  The Gram oracles build H1 and full Sobolev
Grams row by row from ``h1_inner_row``, outside the solvers' workspace.
The fitting oracles work on whole filter functions, independently of the
solvers' dictionary workspace: ``gradient`` builds the gradient of the
penalized objective as one filter from the likelihood's atom builders, and
the others use it with ``objective_value`` and the predictor columns.
The atom builders construct the history and integral atoms one at a time
as ``section_sum`` and ``integrated_points`` atoms, sums of kernel slices
made here through the filters' normal-form constructor, and
``solve_spd_cho_factor`` solves a Newton
system through ``scipy.linalg``'s Cholesky wrappers, as references for the
library's bulk builders and direct LAPACK calls.  ``atom_columns`` builds
predictor columns atom by atom from ``checked_value``, the kernel's domain
check and then the atom's unchecked ``Atom._bound_value``, and from
``smooth_value``, an atom's smooth part through ``_cross_weighted_sum``
with no prefix table, the reference for ``Objective.columns``;
``atom_antiderivative`` integrates an atom from 0 with no prefix table
(``_cross_weighted_sum``), independently of the likelihood's one exact
integral, ``_segment_integrals``: ``exact_compensator`` integrates one atom
at a time through it, the reference for ``Objective.comp_row``, and
``segment_integrals_one_by_one`` the atoms of a block, the reference for
``compensator``'s linear route.  ``full_kernel`` gives the library's H1
atoms their polynomial content (part "r"), as the paper's representers
of the full kernel R, and ``kernel_section`` builds one R1 or R slice.
Filter algebra that only tests use lives here too: ``combine`` forms a
linear combination of filters as one filter over their atoms,
``project`` the H1 part of a filter from its normal forms, and
``inner_product`` the full Sobolev inner product from ``full_inner_row``
over the normal forms.
``ascending_ladder`` finds a damped Newton direction by a climb from the
bottom of the damping ladder, the reference for ``_Core.direction``'s
resumed search, and
``sorted_normal_forms`` merges every section of a filter in one stable
sort, the reference for ``FilterFunction.normal_forms``.
``thinning_reference`` runs the thinning loop with every candidate's
envelope sum, filter read and link read done afresh, the reference for
``simulate``'s kept positions and bound tables, and counts its filter reads;
the read is ``reference_read`` (``unchecked_value``, through
``_cross_weighted_sum``) unless another of its shape, such as
``fresh_value``, is passed.  Its envelope, ``reference_envelopes``, reads
every filter on the whole lag grid, the reference for
``SimSpec.envelopes``' shorter reads at m = 1.  The simulator takes only a
filter of kernel atoms, so a closed form is simulated as its
``piecewise_linear`` interpolant at m = 1, exact in the kernel's own atoms;
``interpolated`` builds one such filter from a closed form per channel.
"""

from math import factorial

import numpy as np
import scipy.linalg

from glppm import optimizer, simulator
from glppm.errors import DomainError, InfeasibleError, SolverError
from glppm.filters import (
    FilterFunction,
    _flatten,
    _merge_sorted,
    _merged_atom,
    _normal_form_atom,
    full_inner_row,
    h0_poly,
    h1_inner_row,
)
from glppm.kernel import SobolevKernel, _branch_coeffs, _cross_weighted_sum, _h0_stack
from glppm.likelihood import (
    Objective,
    _check_domain,
    _event_phi,
    _partition,
    build_f_atoms,
    build_h_atoms,
    linear_predictor,
    objective_value,
)
from glppm.optimizer import _solve_spd, _weak_wolfe_search
from glppm.simulator import SimSpec


def cross_eval(p: int, q: int, x, y):
    """K[p,q](x, y) with numpy broadcasting, branch by branch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    low, high = _branch_coeffs(p, q)
    shape = np.broadcast_shapes(x.shape, y.shape)
    below = np.zeros(shape)
    for j, cj in enumerate(low):
        below = below + cj * x ** (p + j) * y ** (q - 1 - j)
    above = np.zeros(shape)
    for i, ci in enumerate(high):
        above = above + ci * x ** (p - 1 - i) * y ** (q + i)
    return np.where(x <= y, below, above)


def r0(kernel: SobolevKernel, s, r):
    """Kernel of the polynomial part H0."""
    kernel._check_domain(s, r)
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.zeros(np.broadcast_shapes(s.shape, r.shape))
    for k in range(kernel.m):
        fk = factorial(k)
        out = out + (s**k / fk) * (r**k / fk)
    return out


def r1(kernel: SobolevKernel, s, r):
    """Kernel of the smooth part H1: s ^ r for m = 1, the piecewise cubic
    for m = 2, the expanded two-branch polynomial otherwise."""
    kernel._check_domain(s, r)
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if kernel.m == 1:
        return np.minimum(s, r)
    if kernel.m == 2:
        w = np.minimum(s, r)
        return s * r * w - (s + r) * w**2 / 2.0 + w**3 / 3.0
    return cross_eval(kernel.m, kernel.m, s, r)


def r_full(kernel: SobolevKernel, s, r):
    """Full reproducing kernel R = R0 + R1."""
    return r0(kernel, s, r) + r1(kernel, s, r)


def r1_time_integral(kernel: SobolevKernel, a, r):
    """int_0^a R1(s, r) ds: for m = 2 the two-branch quartic
        a < r:   a^3 r / 6 - a^4 / 24
        a >= r:  r^4 / 24 + r^2 a^2 / 4 - r^3 a / 6
    and in general the cross-order kernel K[m+1, m](a, r)."""
    kernel._check_domain(a, r)
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if kernel.m == 2:
        below = a**3 * r / 6.0 - a**4 / 24.0
        above = r**4 / 24.0 + r**2 * a**2 / 4.0 - r**3 * a / 6.0
        return np.where(a < r, below, above)
    return cross_eval(kernel.m + 1, kernel.m, a, r)


def r1_double_integral(kernel: SobolevKernel, a, b):
    """int_0^a int_0^b R1(s, r) dr ds = K[m+1, m+1](a, b)."""
    kernel._check_domain(a, b)
    return cross_eval(kernel.m + 1, kernel.m + 1, a, b)


def prefix_sum_reference(p: int, q: int, lags, weights, queries):
    """sum_l weights[l] K[p,q](lags[l], query) by prefix sums, every term
    built and applied in one pass, with ``queries ** e`` for every
    exponent: the reference for ``_cross_weighted_sum`` bit for bit."""
    lags = np.asarray(lags, dtype=float)
    weights = np.asarray(weights, dtype=float)
    queries = np.asarray(queries, dtype=float)
    low, high = _branch_coeffs(p, q)
    pos = np.searchsorted(lags, queries, side="right")
    out = np.zeros(queries.shape)
    for j, cj in enumerate(low):
        pre = np.concatenate(([0.0], np.cumsum(weights * lags ** (p + j))))
        out += cj * pre[pos] * queries ** (q - 1 - j)
    for i, ci in enumerate(high):
        pre = np.concatenate(([0.0], np.cumsum(weights * lags ** (p - 1 - i))))
        out += ci * (pre[-1] - pre[pos]) * queries ** (q + i)
    return out


def smooth_value(atom, u):
    """An atom's smooth part at lag(s) u, unchecked and with no prefix
    table: K[m,m] over its sections plus K[m+1,m] over its segments, each
    sum built for the call (``_cross_weighted_sum``)."""
    m = atom.m
    out = _cross_weighted_sum(m, m, atom.sec_lags, atom.sec_weights, u)
    if atom.seg_nodes.size:
        out = out + _cross_weighted_sum(m + 1, m, atom.seg_nodes, atom.seg_weights, u)
    return out


def fresh_value(g: FilterFunction, channel: int, u):
    """g_channel(u) from the normal form with no prefix table: its
    ``smooth_value``, and the polynomial part ``np.tensordot`` over
    ``kernel.h0_basis``."""
    f, k = g.normal_forms[channel], g.kernel
    k._check_domain(u)
    out = smooth_value(f, u)
    if np.any(f.h0):
        out = out + np.tensordot(f.h0, k.h0_basis(u), axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


def atom_antiderivative(kernel: SobolevKernel, atom, x):
    """int_0^x atom(v) dv, exactly, like ``fresh_value``: no prefix table,
    and the polynomial part ``np.tensordot`` over ``kernel.h0_antiderivative``."""
    m = kernel.m
    kernel._check_domain(x)
    out = _cross_weighted_sum(m, m + 1, atom.sec_lags, atom.sec_weights, x)
    if atom.seg_nodes.size:
        out = out + _cross_weighted_sum(m + 1, m + 1, atom.seg_nodes, atom.seg_weights, x)
    if np.any(atom.h0):
        out = out + np.tensordot(atom.h0, kernel.h0_antiderivative(x), axes=(0, 0))
    return out


def fresh_antiderivative(g: FilterFunction, channel: int, x):
    """int_0^x g_channel: the ``atom_antiderivative`` of its normal form."""
    return atom_antiderivative(g.kernel, g.normal_forms[channel], x)


def segment_integrals_one_by_one(kernel: SobolevKernel, atoms, lo, hi):
    """``likelihood._segment_integrals`` atom by atom, in one chunk: the
    difference of each atom's ``atom_antiderivative`` at the segment ends."""
    yield 0, np.array([atom_antiderivative(kernel, a, hi) - atom_antiderivative(kernel, a, lo) for a in atoms])


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, NaN equals NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def full_kernel(kernel: SobolevKernel, atoms) -> list:
    """Each H1 (part "r1") atom with the polynomial content of its sections
    and segments (part "r"): R1 slices made R slices."""
    return [
        _merged_atom(kernel, a.channel, a.kind, "r", a.sec_lags, a.sec_weights, a.seg_nodes, a.seg_weights)
        for a in atoms
    ]


def combine(*terms) -> FilterFunction:
    """sum_i c_i g_i over (c_i, g_i) pairs of filters on one kernel and
    channel count: one filter over their atoms laid end to end, each
    coefficient scaled by its filter's c_i."""
    g = terms[0][1]
    return FilterFunction(
        g.kernel,
        g.n_channels,
        sum((h.atoms for _, h in terms), ()),
        np.concatenate([c * h.coefficients for c, h in terms]),
    )


def project(g: FilterFunction) -> FilterFunction:
    """The projection of g onto H1: its normal forms without their
    polynomial part (``Atom.projected``)."""
    forms = tuple(f.projected() for f in g.normal_forms)
    return FilterFunction(g.kernel, g.n_channels, forms, np.ones(len(forms)))


def inner_product(f: FilterFunction, g: FilterFunction) -> float:
    """The full Sobolev inner product <f, g>: ``full_inner_row`` of each
    channel's normal forms, summed over the channels."""
    return sum(float(full_inner_row(a, [b])[0]) for a, b in zip(f.normal_forms, g.normal_forms))


def section_sum(kernel: SobolevKernel, channel: int, lags, weights, part: str = "r1"):
    """The "section" atom sum_l w_l R^part(lag_l, .): an event's history
    atom, with one coefficient for all its slices."""
    lags, weights = np.asarray(lags, dtype=float), np.asarray(weights, dtype=float)
    return _normal_form_atom(kernel, channel, "section", part, lags, weights, np.empty(0), np.empty(0))


def kernel_section(kernel: SobolevKernel, channel: int, lag: float, part: str = "r1"):
    """The kernel slice R1(lag, .) (part "r1") or R(lag, .) (part "r") at
    one lag: the ``section_sum`` of one slice."""
    return section_sum(kernel, channel, [float(lag)], [1.0], part)


def piecewise_linear(kernel: SobolevKernel, channel: int, knots, values):
    """(atoms, coeffs) of the linear interpolant through (knots, values) at
    m = 1, flat past the last knot; knots rise from 0.  It is
    values[0] phi_1 + sum_k w_k R1(knot_k, .) with w_k = s_k - s_{k+1},
    s_k the slope into knot k and s_{K+1} = 0: on each interval the slope
    of sum_k w_k min(knot_k, u) is the sum of the w_k of the knots past it."""
    knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
    assert kernel.m == 1 and knots[0] == 0.0
    slopes = np.append(np.diff(values) / np.diff(knots), 0.0)
    weights = slopes[:-1] - slopes[1:]
    return [h0_poly(kernel, channel, 1), section_sum(kernel, channel, knots[1:], weights)], [values[0], 1.0]


def interpolated(kernel: SobolevKernel, *closed_forms, step: float = 1e-3) -> FilterFunction:
    """A filter at m = 1 whose channel ch is the ``piecewise_linear``
    interpolant of the vectorized ``closed_forms[ch]`` on the knots 0,
    step, ..., horizon; a closed form None makes the channel zero."""
    knots = np.linspace(0.0, kernel.horizon, int(round(kernel.horizon / step)) + 1)
    atoms, coeffs = [], []
    for ch, f in enumerate(closed_forms):
        if f is not None:
            a, c = piecewise_linear(kernel, ch, knots, f(knots))
            atoms += a
            coeffs += c
    return FilterFunction(kernel, len(closed_forms), tuple(atoms), np.array(coeffs))


def integrated_points(kernel: SobolevKernel, channel: int, lags, weights, part: str = "r1"):
    """The "integrated" atom sum_l w_l R^part(lag_l, .): a time-integrated
    kernel slice as a quadrature sum of pointwise slices."""
    lags, weights = np.asarray(lags, dtype=float), np.asarray(weights, dtype=float)
    return _normal_form_atom(kernel, channel, "integrated", part, lags, weights, np.empty(0), np.empty(0))


def history_atoms_one_by_one(kernel: SobolevKernel, events, drivers, part: str):
    """``build_h_atoms`` atom by atom: the ``section_sum`` of each event's
    strictly earlier jumps on each channel, event-major."""
    atoms = []
    for t in events.times:
        for j, ch in enumerate(drivers.channels):
            n = int(np.searchsorted(ch.times, t, side="left"))
            atoms.append(section_sum(kernel, j, t - ch.times[:n], ch.sizes[:n], part=part))
    return atoms


def integral_atoms_one_by_one(kernel: SobolevKernel, obj: Objective, link_weights, part: str):
    """``build_f_atoms(link_weights=...)`` atom by atom: the
    ``integrated_points`` of each channel's node pairs, their lags in a
    stable sort."""
    atoms = []
    for j in range(obj.n_channels):
        node, _, lags, dz = obj._node_pairs[j]
        order = np.argsort(lags, kind="stable")
        atoms.append(integrated_points(
            kernel, j, lags[order], link_weights[node[order]] * dz[order], part=part
        ))
    return atoms


def checked_value(kernel: SobolevKernel, atom, u):
    """An atom's value at lag(s) u in [0, horizon]: the kernel's domain
    check, then the atom's unchecked reader (``Atom._bound_value``)."""
    kernel._check_domain(u)
    return atom._bound_value()(np.asarray(u, dtype=float))


def atom_columns(kernel: SobolevKernel, obj: Objective, atoms):
    """(X, X1) as ``Objective.columns`` gives them: each atom's value (and
    smooth-part value) at each half's pair lags times the jump sizes, summed
    per node and per event by one ``bincount`` per half, stacked nodes
    first."""
    halves = ((obj._node_pairs, obj.nodes.size), (obj._event_pairs, len(obj.events)))
    out = []
    for value in (lambda a, u: checked_value(kernel, a, u), smooth_value):
        cols = []
        for a in atoms:
            col = []
            for pairs, size in halves:
                idx, _, lags, dz = pairs[a.channel]
                if lags.size == 0:
                    col.append(np.zeros(size))
                else:
                    col.append(np.bincount(idx, weights=value(a, lags) * dz, minlength=size))
            cols.append(np.concatenate(col))
        out.append(np.column_stack(cols))
    return tuple(out)


def exact_compensator(kernel: SobolevKernel, obj: Objective, atom) -> float:
    """An atom's exact int_0^t Y_s X_s-(atom) ds on its own: the weighted
    difference of its antiderivatives at the ends of its channel's lag
    segments."""
    lo, hi, w = obj._segment_support[atom.channel]
    if w.size == 0:
        return 0.0
    return float(w @ (atom_antiderivative(kernel, atom, hi) - atom_antiderivative(kernel, atom, lo)))


def solve_spd_cho_factor(H: np.ndarray, rhs: np.ndarray):
    """``_solve_spd`` of a finite system through ``scipy.linalg.cho_factor``
    / ``cho_solve``: Jacobi scaling, then Cholesky, a tiny ridge, and least
    squares; a zero diagonal entry is scaled by 1.  Returns (x, ridge_used)."""
    s = np.sqrt(np.maximum(np.diag(H), 1e-300))
    s[np.diag(H) == 0.0] = 1.0
    Hs = H / np.outer(s, s)
    rs = rhs / s
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(Hs), rs) / s, False
    except (np.linalg.LinAlgError, ValueError):
        pass
    ridge = 1e-10 * max(np.trace(Hs) / Hs.shape[0], 1.0)
    Hr = Hs + ridge * np.eye(Hs.shape[0])
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(Hr), rs) / s, True
    except (np.linalg.LinAlgError, ValueError):
        return np.linalg.lstsq(Hr, rs, rcond=None)[0] / s, True


def h1_gram(atoms) -> np.ndarray:
    """Matrix of H1 inner products <P a_i, P a_j> over a list of atoms."""
    atoms = list(atoms)
    G = np.zeros((len(atoms), len(atoms)))
    for row, a in zip(G, atoms):
        row[:] = h1_inner_row(a, atoms)
    return 0.5 * (G + G.T)


def full_gram(atoms) -> np.ndarray:
    """Matrix of full Sobolev inner products (H0 part plus H1 part)."""
    atoms = list(atoms)
    G = h1_gram(atoms)
    if not atoms:
        return G
    h0 = np.stack([a.h0 for a in atoms])
    channels = np.array([a.channel for a in atoms])
    same = channels[:, None] == channels[None, :]
    return G + (h0 @ h0.T) * same


def gradient(g: FilterFunction, obj: Objective) -> FilterFunction:
    """Gradient of the penalized objective as a filter function.

    Consists of one integral atom per channel, one full-kernel history atom
    per event with coefficient -phi'/phi(X_tau-), and the penalty part
    2 lam P g as one projected normal form per channel.
    """
    x = linear_predictor(g, obj.drivers, obj.points)
    x_nodes, x_events = x[: obj.nodes.size], x[obj.nodes.size :]
    phi_events = _event_phi(obj, x_events)
    _check_domain(obj.link, x_nodes, obj.nodes)
    rho = obj.link.deriv(x_events) / phi_events if phi_events.size else np.empty(0)

    # integral atoms: exact segments for the linear link, whose weight Y_s is
    # piecewise constant; pointwise quadrature weights Y phi'(X) otherwise,
    # the exact gradient of the discretized compensator
    link_weights = None
    if obj.link.kind != "linear":
        link_weights = obj.weights * obj.y_nodes * obj.link.deriv(x_nodes)
    h_atoms = full_kernel(g.kernel, build_h_atoms(g.kernel, obj))
    terms = [(a, 1.0) for a in full_kernel(g.kernel, build_f_atoms(g.kernel, obj, link_weights=link_weights))]
    terms += [(a, -rho[pos // obj.n_channels]) for pos, a in enumerate(h_atoms)]
    if obj.penalty_weight != 0.0:
        terms += [(a, 2.0 * obj.penalty_weight) for a in project(g).atoms]
    terms = [(a, c) for a, c in terms if not a.is_zero]
    return FilterFunction(
        g.kernel, obj.n_channels, tuple(a for a, _ in terms), np.array([c for _, c in terms])
    )


def hessian_coords(g: FilterFunction, obj: Objective, basis_atoms, kernel=None) -> np.ndarray:
    """Hessian of the penalized objective restricted to span(basis_atoms).

    H_ab = int Y phi''(X) X(a) X(b) ds
         - sum_i (phi'' phi - phi'^2)/phi^2 (X_tau-) X_tau-(a) X_tau-(b)
         + 2 lam <P a, P b>,
    with the integral on the objective's quadrature nodes.
    """
    basis_atoms = list(basis_atoms)
    kernel = kernel if kernel is not None else g.kernel
    n = len(basis_atoms)
    if n == 0:
        return np.zeros((0, 0))
    x = linear_predictor(g, obj.drivers, obj.points)
    x_nodes, x_events = x[: obj.nodes.size], x[obj.nodes.size :]
    phi_events = obj.link.value(x_events)

    U = np.column_stack([obj.node_column(kernel, a) for a in basis_atoms])
    E = (
        np.column_stack([obj.event_column(kernel, a) for a in basis_atoms])
        if len(obj.events)
        else np.zeros((0, n))
    )
    w_nodes = obj.weights * obj.y_nodes * obj.link.deriv2(x_nodes)
    H = U.T @ (w_nodes[:, None] * U)
    if len(obj.events):
        dphi = obj.link.deriv(x_events)
        b_ev = (obj.link.deriv2(x_events) * phi_events - dphi**2) / phi_events**2
        H -= E.T @ (b_ev[:, None] * E)
    H += 2.0 * obj.penalty_weight * h1_gram(basis_atoms)
    return 0.5 * (H + H.T)


def wolfe_angle_step(
    g: FilterFunction,
    direction: FilterFunction,
    obj: Objective,
) -> tuple[FilterFunction, dict]:
    """One safeguarded line search step along a filter-space direction,
    through the library's weak Wolfe search.

    Verifies the angle condition against the gradient at ``g``, then finds a
    weak Wolfe step alpha and returns (g + alpha * direction, stats).  The
    stats record alpha, the cosine, the directional derivatives and the full
    trial log.  Raises SolverError for non-descent directions, angle
    failures or exhausted trials (reporting the last bracket).  The
    constants are the library's, read at each call.
    """
    grad = gradient(g, obj)
    gn = np.sqrt(max(inner_product(grad, grad), 0.0))
    dn = np.sqrt(max(inner_product(direction, direction), 0.0))
    if dn == 0.0:
        raise SolverError("line search direction is zero")
    d0 = inner_product(grad, direction)
    if d0 >= 0.0:
        raise SolverError(f"not a descent direction: directional derivative {d0}")
    cosine = -d0 / (gn * dn) if gn > 0 else 1.0
    if cosine < optimizer.DELTA:
        raise SolverError(f"angle condition failed: cos {cosine:.3g} < delta {optimizer.DELTA}")
    f0 = objective_value(g, obj)

    def trial(alpha: float):
        g_a = combine((1.0, g), (alpha, direction))
        try:
            f_a = objective_value(g_a, obj)
            grad_a = gradient(g_a, obj)
        except (InfeasibleError, DomainError):
            return False, np.nan, np.nan
        return True, f_a, inner_product(grad_a, direction)

    alpha, f_a, d_a, log, ok = _weak_wolfe_search(trial, f0, d0)
    if not ok:
        raise SolverError(
            f"no weak Wolfe step within {len(log)} trials; "
            f"last bracket near alpha={log[-1]['alpha']:.3g}"
        )
    stats = {
        "alpha": float(alpha),
        "cosine": float(cosine),
        "value": float(f_a),
        "deriv": float(d_a),
        "deriv0": float(d0),
        "trials": log,
    }
    return combine((1.0, g), (alpha, direction)), stats


def ascending_ladder(core, H: np.ndarray, grad_c: np.ndarray, gam: np.ndarray, gn: float):
    """``_Core.direction`` by a climb from the bottom of the damping ladder:
    Newton, then sigma = 1e-6 tr(H) / tr(G), both traces over the
    coordinates where H's diagonal is nonzero, rising tenfold by repeated
    ``10.0 * sigma`` over 14 rungs, the first that passes the angle test,
    else steepest descent.  Returns (delta, slope, cosine, kind, sigma),
    sigma None for steepest descent, and leaves the core as it was."""
    ws = core.ws
    free = np.diag(ws.G) > 0.0
    live = np.diag(H) != 0.0

    def cosine(slope: float, norm2: float) -> float:
        return -slope / max(gn * np.sqrt(max(norm2, 0.0)), 1e-300)

    sigma = 0.0
    for _ in range(15):
        delta = np.zeros(len(ws))
        M = H + sigma * ws.G
        delta[free] = _solve_spd(M[np.ix_(free, free)], -grad_c[free])[0]
        d0 = float(grad_c @ delta)
        dn2 = float(delta @ ws.G @ delta)
        cos = cosine(d0, dn2)
        if d0 < 0.0 and dn2 > 0.0 and cos >= optimizer.DELTA:
            return delta, d0, cos, "damped_newton" if sigma else "newton", sigma
        sigma = 10.0 * sigma if sigma else 1e-6 * float(np.trace(H) / np.trace(ws.G[np.ix_(live, live)]))
    d0 = -float(grad_c @ gam)
    return -gam, d0, cosine(d0, float(gam @ ws.G @ gam)), "steepest", None


def sorted_normal_forms(g: FilterFunction):
    """Per channel, (sec_lags, sec_weights, seg_nodes, seg_weights, h0) of
    the normal form: the sections and segments of every atom with a nonzero
    coefficient, weighted by it, laid end to end and merged by one stable
    sort and ``bincount`` each (``_merge_sorted``)."""
    forms = []
    for ch in range(g.n_channels):
        on = [i for i, a in enumerate(g.atoms) if a.channel == ch and g.coefficients[i] != 0.0]
        c = g.coefficients[on]
        sec_lags, sec_w, sec_owner, seg_nodes, seg_w, seg_owner = _flatten([g.atoms[i] for i in on])
        h0 = c @ np.array([g.atoms[i].h0 for i in on]).reshape(-1, g.kernel.m)
        forms.append((
            *_merge_sorted(sec_lags, c[sec_owner] * sec_w),
            *_merge_sorted(seg_nodes, c[seg_owner] * seg_w),
            h0,
        ))
    return forms


def unchecked_value(form, u):
    """A normal form's value at lags u, unchecked, as ``Atom._value`` gave it
    before its arithmetic moved into ``filters._atom_value``: its
    ``smooth_value``, then the polynomial part."""
    out = smooth_value(form, u)
    if form.m == 1:
        return out + form.h0[0] if form.h0[0] else out
    if not form.h0.any():
        return out
    u = np.asarray(u, dtype=float)
    basis = _h0_stack(u, form.m).reshape(form.m, u.size)
    return out + np.dot(form.h0.reshape(1, form.m), basis).reshape(u.shape)


def reference_read(g: FilterFunction, channel: int, lags):
    """The default filter read of ``thinning_reference``: the
    ``unchecked_value`` of the channel's normal form.  ``fresh_value`` is
    a read of the same shape."""
    return unchecked_value(g.normal_forms[channel], lags)


def reference_envelopes(spec: SimSpec, read=reference_read):
    """``SimSpec.envelopes`` with every filter read by ``read(filters,
    channel, lags)`` on the whole lag grid: the grid, the envelopes and
    the reaches."""
    grid = np.linspace(0.0, spec.horizon, simulator._BOUND_GRID)
    env = np.empty((spec.n_channels, grid.size))
    reach = np.full(spec.n_channels, np.inf)
    for ch in range(spec.n_channels):
        vals = np.maximum(read(spec.filters, ch, grid), 0.0)
        env[ch] = np.maximum.accumulate(vals[::-1])[::-1] * simulator._BOUND_MARGIN
        if env[ch, -1] == 0.0:
            reach[ch] = grid[int(np.argmin(env[ch] > 0.0))]
    return grid, env, reach


def thinning_reference(spec: SimSpec, seed, read=reference_read):
    """The thinning loop of ``simulate`` with every candidate read afresh:
    the envelope is read on the whole grid (``reference_envelopes``), the
    envelope sum searches the grid, the start and the end of the jumps
    in reach anew at each call, the link is read on arrays, the filter
    through ``read(filters, channel, lags)``, and the acceptance draw is
    ``uniform()``.  Returns the event times and the number of filter
    reads, the envelope grid's included: the ``SimSpec.filter_values``
    calls of a ``simulate`` on a spec whose envelope is not built yet."""
    calls = 0

    def counted(g, channel, lags):
        nonlocal calls
        calls += 1
        return read(g, channel, lags)

    def filter_values(channel, lags):
        return counted(spec.filters, channel, lags)

    def link_value(x):
        return float(spec.link.value(np.asarray(x)))

    def envelope_sum(grid, env, reach, times, sizes, t):
        if env[0] == 0.0:
            return 0.0
        lo = times.searchsorted(t - reach)
        hi = times.searchsorted(t, side="right")
        if lo == hi:
            return 0.0
        vals = env[grid.searchsorted(t - times[lo:hi], side="right") - 1]
        return float(vals.sum() if sizes is None else sizes[lo:hi] @ vals)

    rng = np.random.default_rng(seed)
    horizon = spec.horizon
    if spec.bound is None:
        grid, env, reach = reference_envelopes(spec, counted)
    exo = list(spec.drivers.channels) if spec.drivers else []
    self_ch = spec.n_channels - 1 if spec.self_exciting else None
    edges = _partition(horizon, spec.at_risk.breakpoints, *(ch.times for ch in exo))
    events = []
    cur = 0.0
    candidate_budget = 50 * spec.max_events + 1_000_000

    def predictor(s):
        x = 0.0
        for j, ch in enumerate(exo):
            n = int(ch.times.searchsorted(s))
            if n:
                x += float(ch.sizes[:n] @ filter_values(j, s - ch.times[:n]))
        if self_ch is not None and events:
            x += float(filter_values(self_ch, s - np.array(events)).sum())
        return x

    def x_bound(t):
        x = 0.0
        for j, ch in enumerate(exo):
            x += envelope_sum(grid, env[j], reach[j], ch.times, ch.sizes, t)
        if self_ch is not None:
            x += envelope_sum(grid, env[self_ch], reach[self_ch], np.array(events), None, t)
        return x

    nxt = cur
    while cur < horizon:
        if cur == nxt:
            nxt = float(edges[edges.searchsorted(cur, side="right")])
            y_val = float(spec.at_risk.at(0.5 * (cur + nxt)))
        if y_val == 0.0:
            cur = nxt
            continue
        if spec.bound is not None:
            bound = spec.bound
        else:
            bound = y_val * link_value(x_bound(cur))
            if not np.isfinite(bound):
                raise SolverError(f"thinning bound {bound} at t={cur}")
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
        lam = y_val * link_value(predictor(cand))
        if lam > bound * (1.0 + 1e-9):
            raise SolverError(f"thinning bound {bound} exceeded by intensity {lam} at t={cand}")
        if lam > 0.0 and rng.uniform() * bound <= lam:
            if len(events) == spec.max_events:
                raise SolverError(f"simulation exceeded max_events={spec.max_events}")
            events.append(cand)
        cur = cand
    return np.array(events, dtype=float), calls
