"""Solvers for the penalized likelihood: one per kind of link.

* ``fit_linear``: for the linear link the minimizer lies in the finite
  representer basis, so a damped Newton iteration on the coefficients is
  exact (closed-form compensator, no quadrature).  Nonnegativity of the
  intensity between events is restored, when violated, by a few passes of a
  quadratically-penalized hinge on the quadrature-node predictors.

* ``fit_descent``: for the exponential and softplus links, descent over a
  growing atom dictionary.  The gradient of the objective is itself a
  finite combination of kernel atoms (event history atoms, one integral
  atom per channel, and the penalty part), so each iteration appends
  integral atoms for the change of the link weights since the last
  iteration, forms the exact gradient coordinates on the dictionary, takes
  a subspace Newton step (steepest descent when that fails the angle test)
  and moves along it with a weak Wolfe line search.  Its history and
  integral atoms are the Riesz representers of data functionals: eta_i of
  the predictor at event i, f_w of sum_q w_q X(s_q) over the quadrature
  nodes.  So <P a, P eta_i> = E1(a)_i and <P a, P f_w> = w . U1(a), with
  U1 and E1 the H1 parts of a's predictor columns, and the dictionary's
  Gram rows come from the columns it computes anyway (Wahba 1990, ch. 1).

Both report convergence in the function-space gradient norm
||grad Lambda(g)|| <= tol * max(1, ||grad Lambda(g_0)||), where g_0 is the
solver's default start; when ``fit_descent`` is given an ``init``, g_0 is the
zero filter instead, so that the start cannot set its own stopping scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ConfigError, DomainError, InfeasibleError, SolverError
from .filters import (
    Atom,
    FilterFunction,
    full_inner_row,
    h0_poly,
    h1_inner_row,
)
from .kernel import SobolevKernel
from .likelihood import Objective, _BOUNDARY_SLACK, gradient, objective_value
from .representer import RepresenterBasis, build_f_atoms, build_h_atoms

__all__ = [
    "FitResult",
    "LineSearchConfig",
    "fit_descent",
    "fit_linear",
    "wolfe_angle_step",
]

# numerical slack on node feasibility: the multiplier iteration leaves a
# residual violation of about (inner gradient tolerance) / penalty weight,
# which floors near 1e-8 on unit-scale problems.  Shared with the likelihood
# domain checks so converged fits always evaluate cleanly.
_FEAS_SLACK = _BOUNDARY_SLACK


@dataclass(frozen=True)
class LineSearchConfig:
    """Weak Wolfe line search with an angle safeguard on the direction.

    Accepts a step alpha with
        f(alpha) <= f(0) + c1 alpha f'(0)      (sufficient decrease)
        f'(alpha) >= c2 f'(0)                  (weak curvature)
    after checking once per direction that
        cos(direction, -gradient) >= delta.
    """

    c1: float = 1e-4
    c2: float = 0.4
    delta: float = 0.1
    max_step_trials: int = 60

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ConfigError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"need 0 < delta < 1, got delta={self.delta}")
        if self.max_step_trials < 1:
            raise ConfigError("max_step_trials must be >= 1")


@dataclass
class FitResult:
    """Outcome of a fit: estimate, traces and solver diagnostics."""

    g_hat: FilterFunction
    status: str  # "converged" | "max_iter" | "stalled"
    n_iter: int
    objective: float
    grad_norm: float
    objective_trace: np.ndarray
    grad_norm_trace: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _check_stopping(tol: float, max_iter: int) -> None:
    """Reject a stopping rule that can never be met or never runs."""
    if not (np.isfinite(tol) and tol > 0.0) or max_iter < 1:
        raise ConfigError(
            f"need a finite tol > 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}"
        )


def _weak_wolfe_search(trial, f0: float, d0: float, cfg: LineSearchConfig):
    """Bracketing weak Wolfe search along a descent direction.

    ``trial(alpha) -> (feasible, value, deriv)``; infeasible trials shrink
    the bracket like Armijo failures.  Returns (alpha, value, deriv, log,
    ok); the log records every trial with its test outcomes.
    """
    lo, hi = 0.0, np.inf
    alpha = 1.0
    log = []
    for _ in range(cfg.max_step_trials):
        feasible, f_a, d_a = trial(alpha)
        armijo = feasible and f_a <= f0 + cfg.c1 * alpha * d0
        curvature = feasible and d_a >= cfg.c2 * d0
        log.append(
            {
                "alpha": alpha,
                "value": f_a if feasible else np.nan,
                "deriv": d_a if feasible else np.nan,
                "feasible": feasible,
                "armijo": bool(armijo),
                "curvature": bool(curvature),
            }
        )
        if armijo and curvature:
            return alpha, f_a, d_a, log, True
        if not armijo:
            hi = alpha
        else:
            lo = alpha
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)
    return alpha, np.nan, np.nan, log, False


def wolfe_angle_step(
    g: FilterFunction,
    direction: FilterFunction,
    obj: Objective,
    config: LineSearchConfig | None = None,
) -> tuple[FilterFunction, dict]:
    """One safeguarded line search step along a filter-space direction.

    Verifies the angle condition against the gradient at ``g``, then finds a
    weak Wolfe step alpha and returns (g + alpha * direction, stats).  The
    stats record alpha, the cosine, the directional derivatives and the full
    trial log.  Raises SolverError for non-descent directions, angle
    failures or exhausted trials (reporting the last bracket).
    """
    cfg = config if config is not None else LineSearchConfig()
    grad = gradient(g, obj)
    gn = np.sqrt(max(grad.inner_product(grad), 0.0))
    dn = np.sqrt(max(direction.inner_product(direction), 0.0))
    if dn == 0.0:
        raise SolverError("line search direction is zero")
    d0 = grad.inner_product(direction)
    if d0 >= 0.0:
        raise SolverError(f"not a descent direction: directional derivative {d0}")
    cosine = -d0 / (gn * dn) if gn > 0 else 1.0
    if cosine < cfg.delta:
        raise SolverError(
            f"angle condition failed: cos {cosine:.3g} < delta {cfg.delta}"
        )
    f0 = objective_value(g, obj)

    def trial(alpha: float):
        g_a = g + direction.scale(alpha)
        try:
            f_a = objective_value(g_a, obj)
            grad_a = gradient(g_a, obj)
        except (InfeasibleError, DomainError):
            return False, np.nan, np.nan
        return True, f_a, grad_a.inner_product(direction)

    alpha, f_a, d_a, log, ok = _weak_wolfe_search(trial, f0, d0, cfg)
    if not ok:
        raise SolverError(
            f"no weak Wolfe step within {cfg.max_step_trials} trials; "
            f"last bracket near alpha={log[-1]['alpha']:.3g}"
        )
    stats = {
        "alpha": float(alpha),
        "cosine": float(cosine),
        "value": float(f_a),
        "deriv": float(d_a),
        "deriv0": float(d0),
        "wolfe_log": log,
    }
    return g + direction.scale(alpha), stats


# -- linear link: Newton in the representer basis -------------------------------


def _solve_spd(H: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve H x = rhs for symmetric positive semidefinite H.

    Jacobi-scales the system first (kernel Grams over long horizons are
    badly conditioned), then tries Cholesky, a tiny ridge, and least
    squares in that order.  Returns (x, ridge_used).
    """
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise SolverError(
            "non-finite values in the Newton system; the objective may be "
            "unbounded (zero penalty weight?)"
        )
    s = np.sqrt(np.maximum(np.diag(H), 1e-300))
    Hs = H / np.outer(s, s)
    rs = rhs / s
    try:
        c, low = scipy.linalg.cho_factor(Hs)
        return scipy.linalg.cho_solve((c, low), rs) / s, False
    except (np.linalg.LinAlgError, ValueError):
        pass
    ridge = 1e-10 * max(np.trace(Hs) / Hs.shape[0], 1.0)
    Hr = Hs + ridge * np.eye(Hs.shape[0])
    try:
        c, low = scipy.linalg.cho_factor(Hr)
        return scipy.linalg.cho_solve((c, low), rs) / s, True
    except (np.linalg.LinAlgError, ValueError):
        return np.linalg.lstsq(Hr, rs, rcond=None)[0] / s, True


def fit_linear(
    basis: RepresenterBasis,
    obj: Objective,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> FitResult:
    """Exact penalized fit for the linear link in the representer basis.

    Damped Newton on the coefficients with backtracking that keeps every
    event intensity positive.  If the minimizer would let the predictor dip
    below -d between events, hinge-squared penalties on the violating
    quadrature nodes push it back.  The penalties are warm-started with
    multiplier estimates updated after every pass (an augmented Lagrangian),
    so the penalty weight stays bounded and the passes converge to exact
    node feasibility.  Each pass also grows the basis by one kernel atom
    per newly forced node and channel: an active node constraint
    contributes its own representer to the solution, so the constrained
    optimum lies in this enlarged span rather than in the unconstrained
    representer span.
    """
    _check_stopping(tol, max_iter)
    if obj.link.kind != "linear":
        raise ConfigError("fit_linear requires the linear link")
    lam = obj.penalty_weight
    d = obj.link.d
    kernel = basis.kernel
    n_ch = basis.n_channels
    h_sl = basis.h_slice
    f_sl = basis.f_slice

    ws = _Workspace(kernel, obj)
    active: list[bool] = []
    for atom, zero in zip(basis.atoms, basis.zero_mask):
        ws.add(atom)
        active.append(not zero)
    phi_cols = {
        (a.channel, a.k): i for i, a in enumerate(basis.atoms) if a.kind == "h0"
    }
    completions = np.stack([a.sections_h0(kernel) for a in basis.atoms])
    hinge_cols: list[int] = []
    hinge_nodes: list[int] = []
    node_added = np.zeros(obj.nodes.size, dtype=bool)
    y_mult = np.zeros(obj.nodes.size)
    mu = 1.0

    def force_weights(c: np.ndarray) -> np.ndarray:
        """Augmented-Lagrangian force on each node, max(0, y - 2 mu gap)."""
        return np.maximum(0.0, y_mult - 2.0 * mu * node_gap(c))

    def add_node_atoms(c: np.ndarray, nodes_new: np.ndarray) -> np.ndarray:
        nonlocal completions
        onehot = np.zeros(obj.nodes.size)
        for q in nodes_new:
            node_added[q] = True
            onehot[q] = 1.0
            for atom in build_f_atoms(kernel, obj, part="r", link_weights=onehot):
                if atom.is_zero:
                    continue
                hinge_nodes.append(int(q))
                hinge_cols.append(ws.add(atom))
                active.append(True)
                completions = np.vstack([completions, atom.sections_h0(kernel)])
            onehot[q] = 0.0
        return np.append(c, np.zeros(len(ws) - c.size))

    def node_gap(c: np.ndarray) -> np.ndarray:
        return ws.U @ c + d

    def worst_violation(c: np.ndarray) -> float:
        if not ws.U.size:
            return 0.0
        return float(max(0.0, -node_gap(c).min()))

    def grad_coords(c: np.ndarray, rho: np.ndarray, mu: float) -> np.ndarray:
        """Function-space gradient of the current objective in atom
        coordinates; exact once every forced node carries an atom."""
        n = len(ws)
        gam = np.zeros(n)
        comp_coeff = np.zeros(n)
        if rho.size:
            gam[h_sl] -= np.repeat(rho, n_ch)
            comp_coeff[h_sl] -= np.repeat(rho, n_ch)
        gam[f_sl] += 1.0
        comp_coeff[f_sl] += 1.0
        gam += 2.0 * lam * np.where(ws.non_poly, c, 0.0)
        if mu > 0.0 and hinge_cols:
            w = force_weights(c)
            if w.any():
                np.subtract.at(
                    gam, np.asarray(hinge_cols), w[np.asarray(hinge_nodes)]
                )
        # completion of the H1-pure gradient atoms onto the phi columns, and
        # the polynomial strip of the penalty for atoms storing h0 content
        for (ch, k), col in phi_cols.items():
            mask = ws.non_poly & (ws.channel == ch)
            gam[col] += float(comp_coeff[mask] @ completions[mask, k - 1])
            gam[col] -= 2.0 * lam * float(c[mask] @ ws.h0_mat[mask, k - 1])
        return gam

    def current_gn(c: np.ndarray, rho: np.ndarray, mu: float) -> float:
        """Norm of the gradient of the current objective, with corrections
        for forced nodes that do not have a basis atom yet."""
        gam = grad_coords(c, rho, mu)
        gn2 = float(gam @ ws.G @ gam)
        if mu > 0.0:
            w_rem = np.where(node_added, 0.0, force_weights(c))
            if w_rem.any():
                gn2 -= 2.0 * float(w_rem @ (ws.U @ gam))
                for atom in build_f_atoms(kernel, obj, part="r", link_weights=w_rem):
                    gn2 += float(full_inner_row(atom, [atom])[0])
        return float(np.sqrt(max(gn2, 0.0)))

    def value(c: np.ndarray, mu: float) -> float:
        phi = ws.E @ c + d
        if phi.size and phi.min() <= 0.0:
            return np.inf
        val = ws.comp @ c + d * obj.int_y + lam * c @ ws.Gp @ c
        if phi.size:
            val -= float(np.sum(np.log(obj.y_events * phi)))
        if mu > 0.0:
            w = force_weights(c)
            if w.any() or y_mult.any():
                val += float(np.sum(w**2 - y_mult**2)) / (4.0 * mu)
        return float(val)

    c = np.zeros(len(ws))
    if d == 0.0 and len(obj.events):
        for ch in range(n_ch):
            c[phi_cols[(ch, 1)]] = 1.0
        if (ws.E @ c).min() <= 0.0:
            i = int(np.argmin(ws.E @ c))
            raise InfeasibleError(
                f"event t={obj.events.times[i]} has no driver history and d=0"
            )

    def newton_pass(c: np.ndarray, mu: float):
        """Minimize the (possibly hinged) objective from c.

        Returns (c, reason), reason one of "grad" (function-space gradient
        test met), "stationary" (Newton decrement at rounding level),
        "stall" (no backtracking decrease) or "max_iter".
        """
        nonlocal ridge_used, newton_iters, gn0
        idx_active = np.flatnonzero(active)
        for _ in range(max_iter):
            phi = ws.E @ c + d
            if phi.size and phi.min() <= 0.0:
                raise InfeasibleError("event intensity vanished during Newton")
            rho = 1.0 / phi if phi.size else np.empty(0)
            grad_c = ws.comp + 2.0 * lam * (ws.Gp @ c)
            if phi.size:
                grad_c -= ws.E.T @ rho
            if mu > 0.0:
                w = force_weights(c)
                if w.any():
                    grad_c -= ws.U.T @ w

            gn = current_gn(c, rho, mu)
            obj_trace.append(value(c, mu))
            gn_trace.append(gn)
            if gn0 is None:
                gn0 = gn
            if gn <= tol * max(1.0, gn0):
                return c, "grad"

            H = 2.0 * lam * ws.Gp.copy()
            if phi.size:
                H += (ws.E * (rho**2)[:, None]).T @ ws.E
            if mu > 0.0:
                act = (y_mult - 2.0 * mu * node_gap(c)) > 0.0
                if act.any():
                    Ua = ws.U[act]
                    H += 2.0 * mu * Ua.T @ Ua
            step = np.zeros(len(ws))
            sol, used = _solve_spd(
                H[np.ix_(idx_active, idx_active)], -grad_c[idx_active]
            )
            ridge_used = ridge_used or used
            step[idx_active] = sol
            slope = float(grad_c @ step)
            if slope >= 0.0:
                step[idx_active] = -grad_c[idx_active]
                slope = float(grad_c @ step)
            f_here = value(c, mu)
            if slope >= 0.0 or -slope <= 1e-14 * max(1.0, abs(f_here)):
                return c, "stationary"
            t = 1.0
            accepted = False
            for _ in range(60):
                f_trial = value(c + t * step, mu)
                if f_trial <= f_here + 1e-4 * t * slope:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                return c, "stall"
            c = c + t * step
            newton_iters += 1
        return c, "max_iter"

    obj_trace: list[float] = []
    gn_trace: list[float] = []
    pass_starts: list[int] = [0]
    ridge_used = False
    newton_iters = 0
    gn0 = None

    slack = _FEAS_SLACK * max(1.0, d)
    hinge_passes = 0
    viol_prev = np.inf
    while True:
        c, reason = newton_pass(c, mu)
        hinge_passes += 1
        v = worst_violation(c)
        w = force_weights(c)
        y_top = float(w.max()) if w.size else 0.0
        gaps = np.maximum(node_gap(c), 0.0)
        comp = float(np.max(np.minimum(w, gaps))) if w.size else 0.0
        kkt_ok = (
            v <= slack
            and comp <= 1e-6 * max(1.0, y_top)
            and reason in ("grad", "stationary")
        )
        if kkt_ok or hinge_passes >= 20:
            break
        grow = np.flatnonzero((w > 0.0) & ~node_added)
        if grow.size:
            c = add_node_atoms(c, grow)
        y_mult = w
        if v > slack and v > 0.25 * viol_prev and mu < 1e4:
            mu *= 10.0
        if v > 0.0:
            viol_prev = v
        pass_starts.append(len(obj_trace))
    status = "converged" if kkt_ok else "max_iter"

    phi = ws.E @ c + d
    rho = 1.0 / phi if phi.size else np.empty(0)
    gam = grad_coords(c, rho, 0.0)
    gn = float(np.sqrt(max(gam @ ws.G @ gam, 0.0)))
    final_val = value(c, 0.0)
    obj_trace.append(final_val)
    gn_trace.append(gn)
    g_hat = FilterFunction(kernel, n_ch, tuple(ws.atoms), c)
    return FitResult(
        g_hat=g_hat,
        status=status,
        n_iter=newton_iters,
        objective=float(final_val),
        grad_norm=gn,
        objective_trace=np.array(obj_trace),
        grad_norm_trace=np.array(gn_trace),
        diagnostics={
            "ridge_used": ridge_used,
            "hinge_passes": hinge_passes,
            "hinge_mu": mu,
            "pass_starts": pass_starts,
            "max_node_violation": worst_violation(c),
            "newton_exit": reason,
            "coefficients": c,
            "kkt_residual": current_gn(c, rho, mu),
            "n_node_atoms": len(hinge_cols),
            "n_atoms": len(ws),
            "unpenalized": lam == 0.0,
        },
    )


# -- exponential and softplus links: dictionary descent ------------------------


class _Workspace:
    """Growing dictionary with cached predictor columns and Gram matrices.

    ``U`` and ``E`` hold each atom's predictor at the quadrature nodes and at
    the events, ``G`` and ``Gp`` its full and H1 inner products with every
    atom, all in buffers that double in capacity as the dictionary grows.
    ``comp`` holds the exact compensator row of each atom on the linear link,
    the only one whose compensator is linear in the coefficients; on the
    other links it is None.

    An atom added by ``add_history_atoms`` or ``add_integral_atoms`` is the
    Riesz representer of a data functional on the H1 parts of predictor
    columns: the history atom of event i and channel j represents the
    predictor at event i, and the integral atom of node weights w
    represents sum_q w_q X(s_q).  For any atom a on channel j, then,

        <P a, P eta_i> = E1(a)_i,    <P a, P f_w> = w . U1(a),

    where U1 and E1 are the H1 parts of a's columns.  Each added atom is
    evaluated once, at every node-pair and event-pair lag of its channel,
    and that one evaluation gives U, E, U1 and E1; its Gram row against a
    represented atom is one dot product.  Only pairs of atoms that represent
    nothing (polynomials, warm starts, ``fit_linear``'s basis) take
    ``h1_inner_row``.
    """

    def __init__(self, kernel: SobolevKernel, obj: Objective):
        self.kernel = kernel
        self.obj = obj
        self.atoms: list[Atom] = []
        self._n_nodes = obj.nodes.size
        self._n_points = obj.nodes.size + len(obj.events)
        # per channel, the node-pair and event-pair lags end to end, and the
        # polynomial basis at each half (as the predictor columns build it)
        self._pairs = []
        for (n_idx, _, n_lags, n_dz), (e_idx, _, e_lags, e_dz) in zip(
            obj._node_pairs, obj._event_pairs
        ):
            self._pairs.append((
                np.concatenate([n_lags, e_lags]), n_idx, n_dz, e_idx, e_dz,
                kernel.h0_basis(n_lags), kernel.h0_basis(e_lags),
            ))
        self._reserve(32)
        self._expose()

    def _reserve(self, cap: int) -> None:
        """Buffers for ``cap`` atoms, keeping the rows and columns in use:
        predictor columns X (nodes, then events) and their H1 parts X1, the
        functional weights F of each atom over the same points (a zero row
        when it represents none), and the per-atom attributes."""
        n, p, m = len(self.atoms), self._n_points, self.kernel.m
        old = getattr(self, "_buf", None)
        buf = {
            "X": np.zeros((p, cap)), "X1": np.zeros((p, cap)), "F": np.zeros((cap, p)),
            "G": np.zeros((cap, cap)), "Gp": np.zeros((cap, cap)),
            "h0": np.zeros((cap, m)), "comp": np.zeros(cap),
            "channel": np.zeros(cap, dtype=int), "non_poly": np.zeros(cap, dtype=bool),
            "rep": np.zeros(cap, dtype=bool),
        }
        if old is not None:
            for key in ("X", "X1"):
                buf[key][:, :n] = old[key][:, :n]
            for key in ("G", "Gp"):
                buf[key][:n, :n] = old[key][:n, :n]
            for key in ("F", "h0", "comp", "channel", "non_poly", "rep"):
                buf[key][:n] = old[key][:n]
        self._buf = buf

    def __len__(self) -> int:
        return len(self.atoms)

    def _expose(self) -> None:
        """Point the public arrays at the buffers' rows and columns in use."""
        n, b, q = len(self.atoms), self._buf, self._n_nodes
        self.U, self.E = b["X"][:q, :n], b["X"][q:, :n]
        self.G, self.Gp = b["G"][:n, :n], b["Gp"][:n, :n]
        self.comp = b["comp"][:n] if self.obj.link.kind == "linear" else None
        self.h0_mat, self.channel = b["h0"][:n], b["channel"][:n]
        self.non_poly = b["non_poly"][:n]

    def add(self, atom: Atom) -> int:
        """Append an atom that represents no functional; returns its column."""
        return self._add(atom, None)

    def add_history_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Append the full-kernel history atom of every (event, channel)
        with earlier jumps, each representing its event's predictor.
        Returns the event index and the column of each."""
        events, cols = [], []
        n_ch = self.obj.n_channels
        atoms = build_h_atoms(self.kernel, self.obj.events, self.obj.drivers, part="r")
        for pos, atom in enumerate(atoms):
            if not atom.is_zero:
                functional = np.zeros(self._n_points)
                functional[self._n_nodes + pos // n_ch] = 1.0
                events.append(pos // n_ch)
                cols.append(self._add(atom, functional))
        return np.array(events, dtype=int), np.array(cols, dtype=int)

    def add_integral_atoms(self, link_weights: np.ndarray) -> list[int]:
        """Append the nonzero smooth-part integral atoms of these node
        weights, each representing sum_q w_q X(s_q) on its channel.
        Returns their columns."""
        functional = np.zeros(self._n_points)
        functional[: self._n_nodes] = link_weights
        return [
            self._add(atom, functional)
            for atom in build_f_atoms(self.kernel, self.obj, part="r1", link_weights=link_weights)
            if not atom.is_zero
        ]

    def _columns(self, atom: Atom) -> tuple[np.ndarray, np.ndarray]:
        """The atom's predictor at the nodes and then at the events, and its
        H1 part, from one evaluation of its smooth part.  The predictor is
        bit-identical to ``Objective.node_column`` / ``event_column``."""
        lags, n_idx, n_dz, e_idx, e_dz, phi_n, phi_e = self._pairs[atom.channel]
        n_ev = self._n_points - self._n_nodes
        h1 = atom.h1_value(lags)
        h1_n, h1_e = h1[: n_idx.size], h1[n_idx.size :]
        x1 = np.concatenate([
            np.bincount(n_idx, weights=h1_n * n_dz, minlength=self._n_nodes),
            np.bincount(e_idx, weights=h1_e * e_dz, minlength=n_ev),
        ])
        if not np.any(atom.h0):
            return x1, x1
        vals_n = h1_n + np.tensordot(atom.h0, phi_n, axes=(0, 0))
        vals_e = h1_e + np.tensordot(atom.h0, phi_e, axes=(0, 0))
        x = np.concatenate([
            np.bincount(n_idx, weights=vals_n * n_dz, minlength=self._n_nodes),
            np.bincount(e_idx, weights=vals_e * e_dz, minlength=n_ev),
        ])
        return x, x1

    def _add(self, atom: Atom, functional: np.ndarray | None) -> int:
        n = len(self.atoms)
        k = n + 1
        if k > self._buf["G"].shape[0]:
            self._reserve(2 * self._buf["G"].shape[0])
        b = self._buf
        x, x1 = self._columns(atom)
        b["X"][:, n] = x
        b["X1"][:, n] = x1
        if functional is not None:
            b["F"][n] = functional
        b["rep"][n] = functional is not None
        b["h0"][n] = atom.h0
        b["channel"][n] = atom.channel
        b["non_poly"][n] = atom.kind != "h0"
        if self.obj.link.kind == "linear":
            b["comp"][n] = self.obj.comp_row(self.kernel, atom)
        self.atoms.append(atom)

        # H1 row: a represented b gives b's functional of the new atom's
        # columns, a represented new atom its functional of b's; pairs that
        # represent nothing take h1_inner_row
        rep = b["rep"][:k]
        row_p = np.zeros(k)
        if rep.any():
            row_p[rep] = b["F"][:k][rep] @ x1
        if rep[n]:
            row_p[~rep] = b["F"][n] @ b["X1"][:, :k][:, ~rep]
        else:
            others = np.flatnonzero(~rep)
            row_p[others] = h1_inner_row(atom, [self.atoms[i] for i in others])
        same = b["channel"][:k] == atom.channel
        row_p[~same] = 0.0
        # the full row is the H1 row plus the same-channel h0 term, with the
        # arithmetic of full_inner_row
        row_f = row_p.copy()
        if np.any(atom.h0):
            row_f += same * (b["h0"][:k] @ atom.h0)
        b["G"][n, :k] = row_f
        b["G"][:k, n] = row_f
        b["Gp"][n, :k] = row_p
        b["Gp"][:k, n] = row_p
        self._expose()
        return n


def fit_descent(
    kernel: SobolevKernel,
    obj: Objective,
    init: FilterFunction | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
    max_atoms: int = 200,
    line_search: LineSearchConfig | None = None,
) -> FitResult:
    """Dictionary descent for the exponential and softplus links.

    The linear link is solved exactly in the representer basis by
    ``fit_linear``; passing it here raises ConfigError.

    The dictionary holds the polynomial atoms, one full-kernel history atom
    per (event, channel), and a growing family of smooth-part integral atoms
    produced by the gradient: the weights Y phi'(X) at the start, followed
    by one difference atom per iteration for the change of those weights
    since the previous one.  The gradient's integral atom is then the sum
    of all integral atoms, with coordinate +1 on each; adding the weights
    themselves instead would leave nearly collinear atoms whose Newton
    systems are singular to working precision near the optimum.  Each
    iteration expresses the exact gradient in dictionary coordinates,
    solves the subspace Newton system, falls back to steepest descent when
    the Newton direction fails the descent or angle test, and moves by a
    weak Wolfe step whose trials and reference value f(0) share one
    expression.

    The default start is f_0 scaled by a one-dimensional minimization of the
    objective along it; pass ``init`` to start elsewhere.  The stopping
    scale ||grad Lambda(g_0)|| is taken at the default start, or at the zero
    filter when ``init`` is given, so a poor start cannot loosen the test.
    A fit whose dictionary has no room left for the next integral atom
    stops as "stalled" with ``atom_cap_reached``, reporting the norm of the
    gradient filter at its result.
    """
    cfg = line_search if line_search is not None else LineSearchConfig()
    _check_stopping(tol, max_iter)
    link = obj.link
    if link.kind == "linear":
        raise ConfigError("fit_descent serves the non-linear links; use fit_linear")
    lam = obj.penalty_weight
    ws = _Workspace(kernel, obj)

    phi_cols = np.zeros((obj.n_channels, kernel.m), dtype=int)
    for ch in range(obj.n_channels):
        for k in range(1, kernel.m + 1):
            phi_cols[ch, k - 1] = ws.add(h0_poly(kernel, ch, k))

    eta_events_arr, eta_cols_arr = ws.add_history_atoms()

    # integral atoms are kept as their smooth parts; completions[i] is the
    # polynomial content that, added on the phi columns, restores the
    # full-kernel gradient atom
    def add_f_atoms(link_weights):
        cols = ws.add_integral_atoms(link_weights)
        chans = [ws.atoms[c].channel for c in cols]
        comps = [ws.atoms[c].sections_h0(kernel) for c in cols]
        return cols, chans, comps

    gamma = np.zeros(len(ws))

    def pad(vec: np.ndarray) -> np.ndarray:
        return np.append(vec, np.zeros(len(ws) - vec.size))

    last_f_weights = obj.weights * obj.y_nodes * link.deriv(np.zeros(obj.nodes.size))
    f_cols, f_chans, f_comps = add_f_atoms(last_f_weights)
    gamma = pad(gamma)
    if len(ws) + obj.n_channels > max_atoms:
        raise ConfigError(
            f"max_atoms={max_atoms} cannot hold the initial dictionary "
            f"({len(ws)} atoms) plus one integral atom per channel"
        )

    def event_terms(x_events: np.ndarray):
        phi_e = link.value(x_events)
        lam_e = obj.y_events * phi_e
        if lam_e.size and lam_e.min() <= 0.0:
            i = int(np.argmin(lam_e))
            raise InfeasibleError(
                f"non-positive intensity {lam_e[i]} at event t={obj.events.times[i]}"
            )
        return phi_e

    log_y = float(np.sum(np.log(obj.y_events))) if len(obj.events) else 0.0

    def value_at(gam_vec: np.ndarray) -> float:
        """Objective at dictionary coefficients; +inf when infeasible."""
        xe = ws.E @ gam_vec
        phi_e = link.value(xe)
        if phi_e.size and (obj.y_events * phi_e).min() <= 0.0:
            return np.inf
        pen = lam * float(gam_vec @ ws.Gp @ gam_vec)
        xn = ws.U @ gam_vec
        val = float(obj.weights @ (obj.y_nodes * link.value(xn))) + pen
        if phi_e.size:
            val -= float(np.sum(np.log(phi_e))) + log_y
        return val

    gn0 = None
    if init is not None:
        if init.kernel != kernel or init.n_channels != obj.n_channels:
            raise ConfigError("init filter does not match the kernel/data")
        for atom, coeff in zip(init.atoms, init.coefficients):
            if coeff != 0.0:
                idx = ws.add(atom)
                gamma = pad(gamma)
                gamma[idx] = coeff
        grad0 = gradient(FilterFunction.zero(kernel, obj.n_channels), obj)
        gn0 = float(np.sqrt(max(grad0.inner_product(grad0), 0.0)))
    elif f_cols:
        # default start: f_0 scaled by a 1-D minimization of the objective
        direction = np.zeros(len(ws))
        direction[f_cols] = 1.0
        u_dir, e_dir = ws.U @ direction, ws.E @ direction
        pen_dir = lam * float(direction @ ws.Gp @ direction)

        def along_all(a: np.ndarray) -> np.ndarray:
            """Objective at a * direction for every a; +inf when infeasible."""
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                val = link.value(np.multiply.outer(a, u_dir)) @ (obj.weights * obj.y_nodes)
                val += a**2 * pen_dir
                if e_dir.size:
                    phi_e = link.value(np.multiply.outer(a, e_dir))
                    val -= np.log(phi_e).sum(axis=1) + log_y
                    val[(obj.y_events * phi_e).min(axis=1) <= 0.0] = np.inf
            return val

        def along(a: float) -> float:
            return float(along_all(np.array([a]))[0])

        grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 33), -np.geomspace(1e-4, 1e4, 33)])
        vals = along_all(grid)
        # the first smallest value, as a scan that keeps strict improvements
        best = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
        best_a, best_f = float(grid[best]), float(vals[best])
        if best_a != 0.0:
            lo, hi = sorted((best_a / 8.0, best_a * 8.0))
            res = scipy.optimize.minimize_scalar(along, bounds=(lo, hi), method="bounded")
            if np.isfinite(res.fun) and res.fun < best_f:
                best_a = float(res.x)
        gamma = best_a * direction

    obj_trace: list[float] = []
    gn_trace: list[float] = []
    wolfe_log: list[dict] = []
    dict_size_trace: list[int] = []
    status = "max_iter"
    ridge_used = False
    cap_reached = False
    n_iter = 0

    while True:
        Xn = ws.U @ gamma
        Xe = ws.E @ gamma
        phi_e = event_terms(Xe)
        rho = link.deriv(Xe) / phi_e if phi_e.size else np.empty(0)

        # integral atoms of the gradient at the current iterate: the atom for
        # the weights Y phi'(X) is the sum of all integral atoms so far, the
        # newest one carrying only the change of weights since the last
        w_link = obj.weights * obj.y_nodes * link.deriv(Xn)
        if not np.array_equal(w_link, last_f_weights):
            if len(ws) + obj.n_channels > max_atoms:
                # no room for the integral atom of the new weights: the
                # dictionary no longer spans the gradient, and its
                # coordinates would measure a stale one.  Stop, and
                # report the norm of the true gradient.
                cap_reached = True
                status = "stalled"
                val = value_at(gamma)
                grad = gradient(
                    FilterFunction(kernel, obj.n_channels, tuple(ws.atoms), gamma), obj
                )
                gn = float(np.sqrt(max(grad.inner_product(grad), 0.0)))
                obj_trace.append(val)
                gn_trace.append(gn)
                dict_size_trace.append(len(ws))
                break
            cols, chans, comps = add_f_atoms(w_link - last_f_weights)
            f_cols, f_chans, f_comps = f_cols + cols, f_chans + chans, f_comps + comps
            gamma = pad(gamma)
            Xn = ws.U @ gamma
            Xe = ws.E @ gamma
            last_f_weights = w_link

        # structural coordinates of grad Lambda on the dictionary
        gam_grad = np.zeros(len(ws))
        if rho.size and eta_cols_arr.size:
            gam_grad[eta_cols_arr] -= rho[eta_events_arr]
        for col, ch, comp_vec in zip(f_cols, f_chans, f_comps):
            gam_grad[col] += 1.0
            gam_grad[phi_cols[ch]] += comp_vec
        if lam != 0.0:
            gam_grad += 2.0 * lam * np.where(ws.non_poly, gamma, 0.0)
            # the penalty gradient is 2 lam P g: strip the polynomial content
            # that full-kernel atoms carry
            for ch in range(obj.n_channels):
                mask = ws.non_poly & (ws.channel == ch)
                if mask.any():
                    gam_grad[phi_cols[ch]] -= 2.0 * lam * (
                        ws.h0_mat[mask].T @ gamma[mask]
                    )

        gn = float(np.sqrt(max(gam_grad @ ws.G @ gam_grad, 0.0)))
        val = value_at(gamma)
        obj_trace.append(val)
        gn_trace.append(gn)
        dict_size_trace.append(len(ws))
        if gn0 is None:
            gn0 = gn

        if gn <= tol * max(1.0, gn0):
            status = "converged"
            break
        if n_iter >= max_iter:
            break

        # coordinate gradient of the objective
        wq = obj.weights * obj.y_nodes * link.deriv(Xn)
        d_vec = ws.U.T @ wq + 2.0 * lam * (ws.Gp @ gamma)
        if rho.size:
            d_vec -= ws.E.T @ rho

        wq2 = obj.weights * obj.y_nodes * link.deriv2(Xn)
        H = (ws.U * wq2[:, None]).T @ ws.U + 2.0 * lam * ws.Gp
        if phi_e.size:
            dphi = link.deriv(Xe)
            b_ev = (link.deriv2(Xe) * phi_e - dphi**2) / phi_e**2
            H -= (ws.E * b_ev[:, None]).T @ ws.E
        H = 0.5 * (H + H.T)

        def _dir_cosine(slope: float, norm2: float) -> float:
            return -slope / max(gn * np.sqrt(max(norm2, 0.0)), 1e-300)

        delta, used = _solve_spd(H, -d_vec)
        ridge_used = ridge_used or used
        d0 = float(d_vec @ delta)
        dn2 = float(delta @ ws.G @ delta)
        direction_kind = "newton"
        cosine = _dir_cosine(d0, dn2)
        good_dir = d0 < 0.0 and dn2 > 0.0 and cosine >= cfg.delta
        if not good_dir:
            # Levenberg damping in the function-space metric: sigma sweeps
            # the direction from Newton toward the best in-span descent
            # direction, which raises the angle with -grad without growing
            # the dictionary
            sigma = 1e-6 * max(float(np.trace(H)) / max(len(ws), 1), 1.0)
            for _ in range(14):
                delta_t, used = _solve_spd(H + sigma * ws.G, -d_vec)
                d0_t = float(d_vec @ delta_t)
                dn2_t = float(delta_t @ ws.G @ delta_t)
                cos_t = _dir_cosine(d0_t, dn2_t)
                if d0_t < 0.0 and dn2_t > 0.0 and cos_t >= cfg.delta:
                    delta, d0, dn2, cosine = delta_t, d0_t, dn2_t, cos_t
                    direction_kind = "damped_newton"
                    ridge_used = ridge_used or used
                    good_dir = True
                    break
                sigma *= 10.0
        if not good_dir:
            direction_kind = "steepest"
            delta = -gam_grad
            d0 = -float(gn**2)
            cosine = -d0 / max(gn, 1e-300) / max(
                float(np.sqrt(max(delta @ ws.G @ delta, 0.0))), 1e-300
            )

        Ud = ws.U @ delta
        Ed = ws.E @ delta
        Gp_d = ws.Gp @ delta
        g_gp_d = float(gamma @ Gp_d)
        # Gp is positive semidefinite, but along a direction in its near
        # null space rounding can give negative curvature, which the line
        # search would follow to an unbounded step
        d_gp_d = max(float(delta @ Gp_d), 0.0)
        g_gp_g = float(gamma @ (ws.Gp @ gamma))

        def trial(alpha: float):
            xe = Xe + alpha * Ed
            phi_a = link.value(xe)
            if phi_a.size and (obj.y_events * phi_a).min() <= 0.0:
                return False, np.nan, np.nan
            pen = lam * (g_gp_g + 2.0 * alpha * g_gp_d + alpha**2 * d_gp_d)
            pen_d = 2.0 * lam * (g_gp_d + alpha * d_gp_d)
            xn = Xn + alpha * Ud
            f_a = float(obj.weights @ (obj.y_nodes * link.value(xn))) + pen
            df = float((obj.weights * obj.y_nodes * link.deriv(xn)) @ Ud) + pen_d
            if phi_a.size:
                f_a -= float(np.sum(np.log(phi_a))) + log_y
                df -= float((link.deriv(xe) / phi_a) @ Ed)
            return True, f_a, df

        # compare trials with the same expression at alpha = 0: value_at sums
        # in another order, and near the optimum that rounding gap can exceed
        # the decrease still available
        f0 = trial(0.0)[1]
        alpha, f_a, d_a, log, ok = _weak_wolfe_search(trial, f0, d0, cfg)
        wolfe_log.append(
            {
                "iteration": n_iter,
                "direction": direction_kind,
                "cosine": float(cosine),
                "f0": f0,
                "deriv0": d0,
                "grad_norm": gn,
                "step_norm": float(np.sqrt(max(delta @ ws.G @ delta, 0.0))),
                "accepted_alpha": float(alpha) if ok else None,
                "n_trials": len(log),
                "trials": log,
            }
        )
        if not ok:
            best = None
            for entry in log:
                if entry["feasible"] and entry["value"] < f0:
                    if best is None or entry["value"] < best["value"]:
                        best = entry
            if best is None:
                status = "stalled"
                break
            alpha = best["alpha"]
        gamma = gamma + alpha * delta
        n_iter += 1

    g_hat = FilterFunction(kernel, obj.n_channels, tuple(ws.atoms), gamma)
    return FitResult(
        g_hat=g_hat,
        status=status,
        n_iter=n_iter,
        objective=float(val),
        grad_norm=float(gn_trace[-1]),
        objective_trace=np.array(obj_trace),
        grad_norm_trace=np.array(gn_trace),
        diagnostics={
            "ridge_used": ridge_used,
            "atom_cap_reached": cap_reached,
            "n_atoms": len(ws),
            "dict_size_trace": dict_size_trace,
            "wolfe_log": wolfe_log,
            "unpenalized": lam == 0.0,
        },
    )
