"""Solvers for the penalized likelihood: one Newton core, two dictionaries.

Both fitters minimize, over the coefficients c of an atom dictionary,

    F(c) = sum_q psi_q((U c)_q) + r . c + lam c' Gp c
           - sum_i log(y_i phi((E c)_i)) + const,

with U and E each atom's predictor at the quadrature nodes and at the
events, and Gp the dictionary's H1 Gram.  Only psi, r and the atoms differ:

* ``fit_descent`` (exponential and softplus links): psi_q = w_q y_q phi,
  the quadrature compensator, and r = 0, over polynomials, history atoms
  and integral atoms that grow with the gradient.
* ``fit_linear`` (linear link): r is the exact compensator row, const =
  d int Y, and psi_q(x) = (max(0, y_q - 2 mu (x + d))^2 - y_q^2) / (4 mu)
  is the augmented-Lagrangian hinge of the node constraint x + d >= 0 with
  multipliers y_q, over the representer basis (``_Workspace.add_representers``)
  and one atom per forced node.

The gradient of F is a sum of data atoms: -phi'/phi(X) times an event's
history atom, the integral atom, and psi' times a node's atom.  The
workspace records each atom's role as it appends it; the core reads them.

The core (``_Core.run``) forms the coordinate gradient and Hessian of F,
takes a direction that passes the angle test cos(direction, -gradient) >=
DELTA (Newton, else Levenberg-damped in the function-space metric G on a
ladder of sigma rising tenfold from 1e-6 tr(H) / tr(G), searched from one
rung below the rung it last accepted, else function-space steepest
descent), and moves by a weak Wolfe step (C1, C2, at most MAX_STEP_TRIALS
trials) on F's closed form along it; Zoutendijk's argument needs both
conditions (Nocedal & Wright 2006, ch. 3).
It stops with a reason: "grad" when ||grad F|| <= tol * max(1, ||grad
F(g_0)||), "noise_floor" when the squared gradient norm rounds below
zero, "stationary" when no trial decreases F and the directional
derivative is at rounding level, "stall" when no trial decreases F
otherwise, and "max_iter" at the step budget.  Only "grad" gives the
status "converged", on the linear link only with feasible nodes.
g_0 is the solver's start: the zero filter, or phi_1 = 1 for ``fit_linear``
when d = 0.  ``fit_descent`` takes it at the zero filter also when given an
``init``, so that a warm start cannot set its own stopping scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, SolverError
from .filters import Atom, FilterFunction, full_inner_row, h0_poly, h1_inner_row
from .kernel import SobolevKernel
from .likelihood import LinkSpec, Objective, _boundary_slack, _event_phi, build_f_atoms, build_h_atoms

__all__ = [
    "STEP_FIELDS",
    "FitResult",
    "fit_descent",
    "fit_linear",
]

# the fields of each record in diagnostics["iterations"] that trace.csv
# writes besides its iteration, objective and gradient norm; each record
# also holds its damping sigma and lists its line search trials
STEP_FIELDS = (
    "pass", "mu", "direction", "cosine", "accepted_alpha",
    "n_trials", "deriv0", "step_norm", "n_atoms",
)

# an atom's role in the gradient of F (``_Workspace.role``), whose
# coefficient there is 0 (free), -phi'/phi(X) at its event (history), 1
# (integral) or psi' at its quadrature node (node)
FREE, HISTORY, INTEGRAL, NODE = range(4)


# the line search's constants (Nocedal & Wright 2006, ch. 3): a step alpha
# along a direction with slope f'(0) < 0 passes the weak Wolfe conditions
#     f(alpha) <= f(0) + C1 alpha f'(0)      (sufficient decrease)
#     f'(alpha) >= C2 f'(0)                  (weak curvature)
# within MAX_STEP_TRIALS trials, and the direction first passes the angle
# test cos(direction, -gradient) >= DELTA
C1, C2, DELTA, MAX_STEP_TRIALS = 1e-4, 0.4, 0.1, 60


@dataclass
class FitResult:
    """Outcome of a fit: estimate, stop reason, traces and diagnostics.

    ``diagnostics["iterations"]`` holds one record per line search: the
    iteration (the trace row it starts from), the fields in
    ``STEP_FIELDS``, the damping ``sigma`` of its direction (0.0 for Newton,
    None for steepest descent), the objective and gradient norm there, and
    its trials.
    """

    g_hat: FilterFunction
    status: str  # "converged" | "max_iter" | "stalled"
    reason: str  # "grad" | "noise_floor" | "stationary" | "stall" | "max_iter"
    n_iter: int
    objective: float
    grad_norm: float
    objective_trace: np.ndarray
    grad_norm_trace: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _weak_wolfe_search(trial, f0: float, d0: float):
    """Bracketing weak Wolfe search (C1, C2, MAX_STEP_TRIALS) along a
    descent direction.

    ``trial(alpha) -> (feasible, value, deriv)``; infeasible trials shrink
    the bracket like Armijo failures.  Returns (alpha, value, deriv, log,
    ok); the log records every trial with its test outcomes.
    """
    lo, hi = 0.0, np.inf
    alpha = 1.0
    log = []
    for _ in range(MAX_STEP_TRIALS):
        feasible, f_a, d_a = trial(alpha)
        armijo = feasible and f_a <= f0 + C1 * alpha * d0
        curvature = feasible and d_a >= C2 * d0
        log.append({
            "alpha": alpha, "value": f_a if feasible else np.nan, "deriv": d_a if feasible else np.nan,
            "feasible": feasible, "armijo": bool(armijo), "curvature": bool(curvature),
        })
        if armijo and curvature:
            return alpha, f_a, d_a, log, True
        lo, hi = (alpha, hi) if armijo else (lo, alpha)
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)
    return alpha, np.nan, np.nan, log, False


def _solve_spd(H: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve H x = rhs for symmetric positive semidefinite H.

    Jacobi-scales the system first (kernel Grams over long horizons are
    badly conditioned), then tries Cholesky (LAPACK's ``dpotrf`` on the
    upper triangle and ``dpotrs``, as ``scipy.linalg.cho_factor`` /
    ``cho_solve`` call them, without their checks), a tiny ridge, and least
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
    for ridge_used in (False, True):
        if ridge_used:
            Hs = Hs + 1e-10 * max(np.trace(Hs) / Hs.shape[0], 1.0) * np.eye(Hs.shape[0])
        c, info = scipy.linalg.lapack.dpotrf(Hs, lower=0, clean=0)
        if info == 0:
            x, info = scipy.linalg.lapack.dpotrs(c, rs, lower=0)
            if info == 0:
                return x / s, ridge_used
    return np.linalg.lstsq(Hs, rs, rcond=None)[0] / s, True


class _Workspace:
    """Growing dictionary with cached predictor columns and Gram matrices.

    ``U`` and ``E`` hold each atom's predictor at the quadrature nodes and at
    the events, ``G`` and ``Gp`` its full and H1 inner products with every
    atom, all in buffers that double in capacity as the dictionary grows.
    ``comp`` holds the exact compensator row of each atom on the linear link,
    the only one whose compensator is linear in the coefficients; on the
    other links it is None.

    Each atom also records its ``role`` in the gradient of F: ``HISTORY`` of
    event ``datum``, ``INTEGRAL``, ``NODE`` of quadrature node ``datum``, or
    ``FREE`` (polynomials, warm starts); and, as ``completion``, the
    polynomial content ``Atom.sections_h0`` that a part "r1" atom lacks
    against its full-kernel version, zero for the other parts.

    An atom added by ``add_history_atoms`` or ``add_integral_atoms`` is the
    Riesz representer of a data functional on the H1 parts of predictor
    columns: the history atom of event i and channel j represents the
    predictor at event i, and the integral atom of node weights w
    represents sum_q w_q X(s_q).  For any atom a on channel j, then,

        <P a, P eta_i> = E1(a)_i,    <P a, P f_w> = w . U1(a),

    where U1 and E1 are the H1 parts of a's columns.  Atoms join in blocks:
    one ``Objective.columns`` call gives a block's U, E, U1 and E1, and
    ``_append`` its Gram entries, which against represented atoms are
    products of functionals with columns.  ``add`` and ``add_node_atoms``
    append blocks of one, ``add_history_atoms`` and ``add_representers``
    each kind of data atom as one block, and ``add_integral_atoms`` each
    integral atom as a block of one whose column is
    ``Objective.integral_column``.  Every column and Gram entry has the bits
    of appending the atoms one at a time.  Only pairs of atoms that
    represent no functional (polynomials, warm starts, node atoms, the
    representer basis of ``add_representers``) take ``h1_inner_row``.
    """

    def __init__(self, kernel: SobolevKernel, obj: Objective):
        self.kernel = kernel
        self.obj = obj
        self.atoms: list[Atom] = []
        self._n_nodes = obj.nodes.size
        self._n_points = obj.nodes.size + len(obj.events)
        self._n_rep = 0
        self._reserve(32)
        self._expose()

    def _reserve(self, cap: int) -> None:
        """Buffers for ``cap`` atoms, keeping the rows and columns in use:
        predictor columns X (nodes, then events) and their H1 parts X1, the
        functional weights F over the same points of the atoms that
        represent one, in column order, and the per-atom attributes."""
        n, p, m = len(self.atoms), self._n_points, self.kernel.m
        old = getattr(self, "_buf", None)
        buf = {
            "X": np.zeros((p, cap)), "X1": np.zeros((p, cap)), "F": np.zeros((cap, p)),
            "G": np.zeros((cap, cap)), "Gp": np.zeros((cap, cap)),
            "h0": np.zeros((cap, m)), "completion": np.zeros((cap, m)), "comp": np.zeros(cap),
            "channel": np.zeros(cap, dtype=int), "non_poly": np.zeros(cap, dtype=bool),
            "rep": np.zeros(cap, dtype=bool), "role": np.zeros(cap, dtype=int),
            "datum": np.zeros(cap, dtype=int),
        }
        if old is not None:
            for key, arr in buf.items():
                kept = (np.s_[:, :n] if key in ("X", "X1")
                        else np.s_[:n, :n] if key in ("G", "Gp") else np.s_[:n])
                arr[kept] = old[key][kept]
        self._buf = buf

    def __len__(self) -> int:
        return len(self.atoms)

    def _expose(self) -> None:
        """Point the public arrays at the buffers' rows and columns in use."""
        n, b, q = len(self.atoms), self._buf, self._n_nodes
        self.U, self.E = b["X"][:q, :n], b["X"][q:, :n]
        self.G, self.Gp = b["G"][:n, :n], b["Gp"][:n, :n]
        self.comp = b["comp"][:n] if self.obj.link.kind == "linear" else None
        self.h0_mat, self.channel, self.non_poly = b["h0"][:n], b["channel"][:n], b["non_poly"][:n]
        self.role, self.datum, self.completion = b["role"][:n], b["datum"][:n], b["completion"][:n]
        self._rows = None  # ``channel_rows`` builds them on its next call

    def channel_rows(self) -> list[tuple]:
        """Per channel, its non-polynomial columns with their completion and
        h0 rows, built once per dictionary size."""
        if self._rows is None:
            chs = range(self.obj.n_channels)
            cols = [np.flatnonzero(self.non_poly & (self.channel == ch)) for ch in chs]
            self._rows = [(idx, self.completion[idx], self.h0_mat[idx]) for idx in cols]
        return self._rows

    def add_polynomials(self) -> None:
        """Append phi_1..phi_m of every channel, channel-major, where
        ``_Core.phi_cols`` expects them."""
        for ch in range(self.obj.n_channels):
            for k in range(1, self.kernel.m + 1):
                self.add(h0_poly(self.kernel, ch, k))

    def add_representers(self) -> tuple[slice, slice]:
        """Append the finite representer basis of the linear link, in which
        the minimizer of the penalized objective lies.  Per channel it is
        spanned by

        * the m polynomials phi_1..phi_m (``add_polynomials``),
        * one history atom per event:
          h_i(u) = sum_{sigma < tau_i} dZ R1(tau_i - sigma, u),
        * one integral atom:
          f(u) = int_0^t Y_s sum_{sigma < s} dZ R1(s - sigma, u) ds,

        d(m + N + 1) atoms in all for N events, in that order: polynomials
        channel-major, then history atoms event-major with the channels
        side by side, then one integral atom per channel.  The h and f atoms
        are the smooth parts of the event and compensator design
        functionals.  An event with no strictly earlier jump on a channel
        gives an identically zero atom, which is kept in place so that the
        indexing stays uniform; it has no row in any Gram, but keeps its
        role.  Returns the columns of the history atoms and of the integral
        atoms, each kind appended as one block."""
        self.add_polynomials()
        h_atoms = build_h_atoms(self.kernel, self.obj, part="r1")
        n0, n1 = len(self), len(self) + len(h_atoms)
        events = np.arange(len(h_atoms)) // self.obj.n_channels
        self._append(h_atoms, *self.obj.columns(self.kernel, h_atoms), role=HISTORY, datum=events)
        f_atoms = build_f_atoms(self.kernel, self.obj, part="r1")
        self._append(f_atoms, *self.obj.columns(self.kernel, f_atoms), role=INTEGRAL)
        return slice(n0, n1), slice(n1, len(self))

    def add_history_atoms(self) -> None:
        """Append the full-kernel history atom of every (event, channel)
        with earlier jumps, each representing its event's predictor, as one
        block."""
        atoms = build_h_atoms(self.kernel, self.obj, part="r")
        keep = [pos for pos, atom in enumerate(atoms) if not atom.is_zero]
        block = [atoms[pos] for pos in keep]
        events = np.array(keep, dtype=int) // self.obj.n_channels
        functionals = np.zeros((len(block), self._n_points))
        functionals[np.arange(len(block)), self._n_nodes + events] = 1.0
        self._append(block, *self.obj.columns(self.kernel, block), functionals, HISTORY, events)

    def add_integral_atoms(self, link_weights: np.ndarray) -> None:
        """Append the nonzero smooth-part integral atoms of these node
        weights, each representing sum_q w_q X(s_q) on its channel."""
        functional = np.zeros((1, self._n_points))
        functional[0, : self._n_nodes] = link_weights
        for atom in build_f_atoms(self.kernel, self.obj, part="r1", link_weights=link_weights):
            if not atom.is_zero:
                x = self.obj.integral_column(atom)
                self._append([atom], x, x, functional, INTEGRAL)

    def add_node_atoms(self, nodes) -> None:
        """Append, node by node, the full-kernel integral atoms of each
        node's one-hot weights: on each channel, the representer of the
        predictor at that quadrature node, skipped when no jump precedes the
        node there and so all its section weights are zero."""
        onehot = np.zeros(self._n_nodes)
        for q in nodes:
            onehot[q] = 1.0
            for atom in build_f_atoms(self.kernel, self.obj, part="r", link_weights=onehot):
                if atom.sec_weights.any():
                    self._append([atom], *self.obj.columns(self.kernel, [atom]), role=NODE, datum=q)
            onehot[q] = 0.0

    def add(self, atom: Atom) -> None:
        """Append an atom that represents no functional and carries no
        gradient weight."""
        self._append([atom], *self.obj.columns(self.kernel, [atom]))

    def _append(self, atoms: list[Atom], x, x1, functionals=None, role=FREE, datum=0) -> None:
        """Append a block of atoms with their predictor columns x and H1
        parts x1, the weights of the functionals they represent (one row per
        atom), if any, and their gradient role and datum (one for the block,
        or one datum per atom).

        The one Gram rule: for atoms i <= a, <P i, P a> is i's functional of
        a's H1 columns when i represents one, else a's functional of i's
        when a does, else ``h1_inner_row``; 0 across channels.  The full
        Gram adds the same-channel h0 term with the arithmetic of
        ``full_inner_row``.  A block takes its atoms' entries against every
        atom in one product and keeps, within the block, the upper
        triangle: each atom's entries against itself and the atoms before
        it.  One-hot functionals, as the history atoms have, make every
        product exact, so such a block stores the bits that appending its
        atoms one at a time stores."""
        n0, k = len(self.atoms), len(atoms)
        n = n0 + k
        cap = self._buf["G"].shape[0]
        while cap < n:
            cap *= 2
        if cap > self._buf["G"].shape[0]:
            self._reserve(cap)
        b = self._buf
        b["X"][:, n0:n] = x
        b["X1"][:, n0:n] = x1
        if functionals is not None:
            b["F"][self._n_rep : self._n_rep + k] = functionals
            self._n_rep += k
        b["rep"][n0:n] = functionals is not None
        b["role"][n0:n], b["datum"][n0:n] = role, datum
        for i, atom in enumerate(atoms, start=n0):
            b["h0"][i] = atom.h0
            if atom.part == "r1":
                b["completion"][i] = atom.sections_h0(self.kernel)
            b["channel"][i] = atom.channel
            b["non_poly"][i] = atom.kind != "h0"
            if self.obj.link.kind == "linear":
                b["comp"][i] = self.obj.comp_row(self.kernel, atom)
        self.atoms.extend(atoms)
        with_h0 = [i for i, atom in enumerate(atoms, start=n0) if atom.h0.any()]

        rep, channel = b["rep"][:n], b["channel"][:n]
        rows_p = np.zeros((n, k))
        if self._n_rep:
            rows_p[rep] = b["F"][: self._n_rep] @ x1
        if functionals is not None:
            rows_p[~rep] = (functionals @ b["X1"][:, :n][:, ~rep]).T
        else:
            for a, atom in enumerate(atoms):
                others = np.flatnonzero(~rep[: n0 + a + 1])
                rows_p[others, a] = h1_inner_row(atom, [self.atoms[i] for i in others])
        same = channel[:, None] == channel[n0:]
        rows_p[~same] = 0.0
        rows_f = rows_p.copy() if with_h0 else rows_p
        for i in with_h0:
            rows_f[: i + 1, i - n0] += same[: i + 1, i - n0] * (b["h0"][: i + 1] @ b["h0"][i])
        for key, rows in (("G", rows_f), ("Gp", rows_p)):
            if k > 1:
                rows[n0:] = np.where(np.tri(k, dtype=bool).T, rows[n0:], rows[n0:].T)
            b[key][:n, n0:n] = rows
            b[key][n0:n, :n] = rows.T
        self._expose()


@dataclass(frozen=True)
class _QuadratureCompensator:
    """psi_q(x) = w_q y_q phi(x): the quadrature compensator of a link."""

    obj: Objective
    mu = None  # no multiplier passes

    def value(self, x: np.ndarray) -> float:
        return float(self.obj.weights @ (self.obj.y_nodes * self.obj.link.value(x)))

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return self.obj.weights * self.obj.y_nodes * self.obj.link.deriv(x)

    def deriv2(self, x: np.ndarray) -> np.ndarray:
        return self.obj.weights * self.obj.y_nodes * self.obj.link.deriv2(x)


@dataclass(frozen=True)
class _Hinge:
    """psi_q(x) = (max(0, y_q - 2 mu phi(x))^2 - y_q^2) / (4 mu): the
    augmented-Lagrangian term of the node constraint phi(x) = x + d >= 0,
    with multipliers y.  -psi' is the force max(0, y - 2 mu phi) on each
    node."""

    y: np.ndarray
    mu: float
    link: LinkSpec

    def force(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.y - 2.0 * self.mu * self.link.value(x))

    def value(self, x: np.ndarray) -> float:
        return float(np.sum(self.force(x) ** 2 - self.y**2)) / (4.0 * self.mu)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return -self.force(x)

    def deriv2(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.mu * (self.force(x) > 0.0)


class _Core:
    """Safeguarded Newton descent on F over a workspace dictionary.

    The dictionary starts with the polynomial atoms phi_1..phi_m of every
    channel, channel-major.  The gradient's data atoms and their weights
    are the ones the workspace records (``_Workspace.role``); a data atom
    stored as its smooth part stands for its full-kernel version, whose
    polynomial content (``_Workspace.completion``) goes on the phi columns.

    One core serves all passes of a fit and keeps their traces, step
    records and iteration count.
    """

    def __init__(self, ws: "_Workspace", tol: float, max_iter: int):
        # one check of the stopping rule for both fitters: reject one that
        # can never be met or never runs
        if not (np.isfinite(tol) and tol > 0.0) or max_iter < 1:
            raise ConfigError(
                f"need a finite tol > 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}"
            )
        self.ws, self.tol, self.max_iter = ws, tol, max_iter
        obj = ws.obj
        self.link, self.lam = obj.link, obj.penalty_weight
        self.phi_cols = np.arange(obj.n_channels * ws.kernel.m).reshape(obj.n_channels, -1)
        self.log_y = float(np.sum(np.log(obj.y_events))) if len(obj.events) else 0.0
        self.const = obj.link.d * obj.int_y if ws.comp is not None else 0.0
        self.gn0: float | None = None
        self.objective_trace: list[float] = []
        self.grad_norm_trace: list[float] = []
        self.records: list[dict] = []
        self.n_iter = self.passes = 0
        self.ridge_used = False
        self._rung = 0  # the last damped rung that direction accepted

    def event_terms(self, xe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, phi'/phi) at the events; raises when an intensity is not
        positive."""
        phi_e = _event_phi(self.ws.obj, xe)
        rho = self.link.deriv(xe) / phi_e if phi_e.size else np.empty(0)
        return phi_e, rho

    def line(
        self, psi, gamma: np.ndarray, delta: np.ndarray, xn: np.ndarray, xe: np.ndarray, g_gp_g: float
    ):
        """F and its derivative along gamma + alpha delta in closed form, as
        ``trial(alpha) -> (feasible, value, deriv)``, from the predictors xn
        and xe and the penalty form g_gp_g at gamma; infeasible where an
        intensity is not positive."""
        ws, obj, link, lam = self.ws, self.ws.obj, self.link, self.lam
        Ud, Ed, Gp_d = ws.U @ delta, ws.E @ delta, ws.Gp @ delta
        g_gp_d = float(gamma @ Gp_d)
        # Gp is positive semidefinite, but along a direction in its near
        # null space rounding can give negative curvature, which the line
        # search would follow to an unbounded step
        d_gp_d = max(float(delta @ Gp_d), 0.0)
        r_g = r_d = 0.0
        if ws.comp is not None:
            r_g, r_d = float(ws.comp @ gamma) + self.const, float(ws.comp @ delta)

        def trial(alpha: float):
            xe_a = xe + alpha * Ed
            phi_a = link.value(xe_a)
            if phi_a.size and (obj.y_events * phi_a).min() <= 0.0:
                return False, np.nan, np.nan
            xn_a = xn + alpha * Ud
            f_a = psi.value(xn_a) + lam * (g_gp_g + 2.0 * alpha * g_gp_d + alpha**2 * d_gp_d)
            f_a += r_g + alpha * r_d
            df = float(psi.deriv(xn_a) @ Ud) + 2.0 * lam * (g_gp_d + alpha * d_gp_d) + r_d
            if phi_a.size:
                f_a -= float(np.sum(np.log(phi_a))) + self.log_y
                df -= float((link.deriv(xe_a) / phi_a) @ Ed)
            return True, f_a, df

        return trial

    def gradient_coords(self, gamma: np.ndarray, rho: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
        """Function-space gradient of F in dictionary coordinates: the data
        atoms' coefficients, their completions onto the phi columns, and
        the penalty 2 lam P g less the polynomial content that full-kernel
        atoms carry.  Exact when the dictionary spans the gradient."""
        ws, lam = self.ws, self.lam
        history, node = ws.role == HISTORY, ws.role == NODE
        coeff = np.zeros(len(ws))
        coeff[history] -= rho[ws.datum[history]]
        coeff[ws.role == INTEGRAL] += 1.0
        coeff[node] += dpsi[ws.datum[node]]
        gam = coeff.copy()
        if lam != 0.0:
            gam += 2.0 * lam * np.where(ws.non_poly, gamma, 0.0)
        for cols, (idx, completion, h0) in zip(self.phi_cols, ws.channel_rows()):
            if idx.size:
                gam[cols] += completion.T @ coeff[idx]
                if lam != 0.0:
                    gam[cols] -= 2.0 * lam * (h0.T @ gamma[idx])
        return gam

    def hessian(self, psi, xn: np.ndarray, xe: np.ndarray, phi_e: np.ndarray) -> np.ndarray:
        """Coordinate Hessian of F at predictors xn (nodes) and xe (events)."""
        ws, link = self.ws, self.link
        H = (ws.U * psi.deriv2(xn)[:, None]).T @ ws.U + 2.0 * self.lam * ws.Gp
        if phi_e.size:
            dphi = link.deriv(xe)
            b_ev = (link.deriv2(xe) * phi_e - dphi**2) / phi_e**2
            H -= (ws.E * b_ev[:, None]).T @ ws.E
        return 0.5 * (H + H.T)

    def direction(self, H: np.ndarray, grad_c: np.ndarray, gam: np.ndarray, gn: float):
        """A descent direction that passes the angle test, given the
        coordinate Hessian H and gradient grad_c of F, and the gradient's
        coordinates gam and norm gn.  Returns (delta, grad_c . delta,
        cosine, kind, sigma), sigma None for steepest descent."""
        ws = self.ws
        # identically zero atoms (kept in place in the representer basis)
        # have no row in any Gram; solve on the others
        free = np.diag(ws.G) > 0.0
        free = slice(None) if free.all() else free
        H_free, G_free = H[free][:, free], ws.G[free][:, free]

        def cosine(slope: float, norm2: float) -> float:
            return -slope / max(gn * np.sqrt(max(norm2, 0.0)), 1e-300)

        def attempt(sigma: float):
            delta = np.zeros(len(ws))
            delta[free], used = _solve_spd(H_free + sigma * G_free, -grad_c[free])
            d0, dn2 = float(grad_c @ delta), float(delta @ ws.G @ delta)
            cos = cosine(d0, dn2)
            return (delta, d0, cos, used, sigma) if d0 < 0.0 and dn2 > 0.0 and cos >= DELTA else None

        # Newton (sigma = 0), then Levenberg damping in the function-space
        # metric G, which turns the direction toward the best in-span descent
        # direction without growing the dictionary.  1e-6 tr(H) / tr(G) stays
        # put when all atoms are scaled alike; a start in units of H alone can
        # lie past the whole spectrum, where every rung is steepest descent.
        # Resumed one rung below the last accepted rung, the search steps down
        # while rungs pass and up while they fail: the rung a climb from the
        # bottom finds, when passing is monotone in sigma
        found, kind = attempt(0.0), "newton"
        if found is None:
            ladder = [1e-6 * float(np.trace(H) / np.trace(ws.G))]
            while len(ladder) < 14:
                ladder.append(10.0 * ladder[-1])
            r, kind = max(self._rung - 1, 0), "damped_newton"
            found = attempt(ladder[r])
            while found is not None and r > 0 and (lower := attempt(ladder[r - 1])) is not None:
                r, found = r - 1, lower
            while found is None and r + 1 < len(ladder):
                r += 1
                found = attempt(ladder[r])
            self._rung = r if found is not None else self._rung
        if found is None:
            d0 = -float(grad_c @ gam)
            return -gam, d0, cosine(d0, float(gam @ ws.G @ gam)), "steepest", None
        delta, d0, cos, used, sigma = found
        self.ridge_used = self.ridge_used or used
        return delta, d0, cos, kind, sigma

    def unrepresented(self, gam: np.ndarray, w: np.ndarray) -> float:
        """The squared-norm terms of the gradient's integral mass that the
        dictionary lacks: with f_w the full-kernel integral atom of node
        weights w, ||gam + f_w||^2 - gam'G gam = 2 w.(U gam) + ||f_w||^2,
        as f_w represents sum_q w_q X(s_q)."""
        if not w.any():
            return 0.0
        out = 2.0 * float(w @ (self.ws.U @ gam))
        for atom in build_f_atoms(self.ws.kernel, self.ws.obj, part="r", link_weights=w):
            out += float(full_inner_row(atom, [atom])[0])
        return out

    def run(self, gamma, psi, grow=None):
        """Descend from gamma, as the next pass of the fit, for at most
        ``max_iter`` steps.

        ``grow(psi')`` may append atoms before each iterate is measured.  It
        returns the node weights of the gradient's integral mass that the
        dictionary still lacks (None for none), whose atom ``unrepresented``
        adds to the measured norm.  Returns (gamma, reason).
        """
        ws, lam = self.ws, self.lam
        self.passes += 1
        steps = 0
        while True:
            # coefficients of atoms added since gamma was set start at 0
            gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
            xn, xe = ws.U @ gamma, ws.E @ gamma
            phi_e, rho = self.event_terms(xe)
            dpsi = psi.deriv(xn)
            lacking = grow(dpsi) if grow is not None else None
            phi = phi_e
            if len(ws) > gamma.size:
                # products over the grown dictionary can round apart from
                # the first ones; F takes phi at these predictors
                gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
                xn, xe = ws.U @ gamma, ws.E @ gamma
                dpsi, phi = psi.deriv(xn), self.link.value(xe)
            gam = self.gradient_coords(gamma, rho, dpsi)
            gn2 = float(gam @ ws.G @ gam)
            if lacking is not None:
                gn2 += self.unrepresented(gam, lacking)
            gn = float(np.sqrt(max(gn2, 0.0)))
            gp_g = ws.Gp @ gamma
            g_gp_g = float(gamma @ gp_g)
            # F at gamma, in the order of operations of ``line``'s trials
            f0 = psi.value(xn) + lam * g_gp_g
            if ws.comp is not None:
                f0 += float(ws.comp @ gamma) + self.const
            if phi.size:
                f0 -= float(np.sum(np.log(phi))) + self.log_y
            self.objective_trace.append(f0)
            self.grad_norm_trace.append(gn)
            if self.gn0 is None:
                self.gn0 = gn
            if gn2 < 0.0:
                # only rounding makes a squared norm negative; an exact 0
                # can be a true one, as zero atoms stay in the dictionary
                return gamma, "noise_floor"
            if gn <= self.tol * max(1.0, self.gn0):
                return gamma, "grad"
            if steps >= self.max_iter:
                return gamma, "max_iter"

            grad_c = ws.U.T @ dpsi + 2.0 * lam * gp_g
            if ws.comp is not None:
                grad_c += ws.comp
            if rho.size:
                grad_c -= ws.E.T @ rho
            delta, d0, cos, direction_kind, sigma = self.direction(
                self.hessian(psi, xn, xe, phi_e), grad_c, gam, gn
            )
            if not d0 < 0.0:
                return gamma, "stationary"

            alpha, f_a, d_a, log, ok = _weak_wolfe_search(
                self.line(psi, gamma, delta, xn, xe, g_gp_g), f0, d0
            )
            self.records.append({
                "iteration": len(self.objective_trace) - 1,
                "pass": self.passes - 1,
                "mu": psi.mu,
                "direction": direction_kind,
                "sigma": sigma,
                "cosine": float(cos),
                "accepted_alpha": float(alpha) if ok else None,
                "n_trials": len(log),
                "objective": f0,
                "deriv0": d0,
                "grad_norm": gn,
                "step_norm": float(np.sqrt(max(delta @ ws.G @ delta, 0.0))),
                "n_atoms": len(ws),
                "trials": log,
            })
            if not ok:
                # fall back on the best trial that decreased F
                lower = [e for e in log if e["feasible"] and e["value"] < f0]
                if not lower:
                    # a directional derivative at rounding level explains
                    # why no trial decreases F
                    if -d0 <= 1e-14 * max(1.0, abs(f0)):
                        return gamma, "stationary"
                    return gamma, "stall"
                alpha = min(lower, key=lambda e: e["value"])["alpha"]
            gamma = gamma + alpha * delta
            self.n_iter += 1
            steps += 1

    def result(self, gamma: np.ndarray, reason: str, feasible: bool = True, **diagnostics) -> FitResult:
        """The fit at gamma, stopped for ``reason``; objective and gradient
        norm are the traces' last entries, and ``grad_norm_scale`` is the
        stopping scale ||grad F(g_0)||.  The one status rule: only the
        gradient test converges, and an infeasible fit ran out of passes."""
        ws = self.ws
        status = {"grad": "converged", "max_iter": "max_iter"}.get(reason, "stalled") if feasible else "max_iter"
        return FitResult(
            g_hat=FilterFunction(ws.kernel, ws.obj.n_channels, tuple(ws.atoms), gamma),
            status=status,
            reason=reason,
            n_iter=self.n_iter,
            objective=float(self.objective_trace[-1]),
            grad_norm=float(self.grad_norm_trace[-1]),
            objective_trace=np.array(self.objective_trace),
            grad_norm_trace=np.array(self.grad_norm_trace),
            diagnostics={
                "ridge_used": self.ridge_used,
                "n_atoms": len(ws),
                "grad_norm_scale": self.gn0,
                "iterations": self.records,
                "unpenalized": self.lam == 0.0,
                **diagnostics,
            },
        )


def fit_linear(
    kernel: SobolevKernel,
    obj: Objective,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> FitResult:
    """Exact penalized fit for the linear link in the representer basis.

    Builds the d(m + N + 1) atoms of the finite representer basis, in which
    the unconstrained minimizer lies (``_Workspace.add_representers``), and
    runs the Newton core on them, with at most ``max_iter`` steps per pass.
    If the minimizer would let the predictor dip below -d between events,
    hinge-squared penalties on the violating quadrature nodes push it back.
    The penalties are warm-started with multiplier estimates updated after
    every pass (an augmented Lagrangian), so the penalty weight stays
    bounded and the passes converge to exact node feasibility.  Each pass
    also grows the basis by one kernel atom per newly forced node and
    channel: an active node constraint contributes its own representer to
    the solution, so the constrained optimum lies in this enlarged span
    rather than in the unconstrained representer span.

    The fit converges when a pass ends on the gradient test of its KKT
    residual with the nodes feasible and complementary.  Steps use the
    line search constants C1, C2, DELTA and MAX_STEP_TRIALS.
    """
    if obj.link.kind != "linear":
        raise ConfigError("fit_linear requires the linear link")
    obj._check_kernel(kernel)
    d = obj.link.d

    ws = _Workspace(kernel, obj)
    core = _Core(ws, tol, max_iter)
    ws.add_representers()
    node_added = np.zeros(obj.nodes.size, dtype=bool)

    # with d = 0 start at phi_1 = 1, positive at every event with some
    # driver history; the core rejects an event with none
    c = np.zeros(len(ws))
    if d == 0.0 and len(obj.events):
        c[core.phi_cols[:, 0]] = 1.0

    y_mult, mu, slack, viol_prev = np.zeros(obj.nodes.size), 1.0, _boundary_slack(d), np.inf
    while True:
        hinge = _Hinge(y_mult, mu, obj.link)
        # the forces on nodes with no atom yet are gradient mass the basis lacks
        c, reason = core.run(c, hinge, grow=lambda dpsi: np.where(node_added, 0.0, dpsi))
        xn = ws.U @ c
        gaps = obj.link.value(xn)
        v = float(max(0.0, -gaps.min())) if gaps.size else 0.0
        w = hinge.force(xn)
        y_top = float(w.max()) if w.size else 0.0
        comp = float(np.max(np.minimum(w, np.maximum(gaps, 0.0)))) if w.size else 0.0
        feasible = v <= slack and comp <= 1e-6 * max(1.0, y_top)
        if (feasible and reason in ("grad", "noise_floor", "stationary")) or core.passes >= 20:
            break
        nodes_new = np.flatnonzero((w > 0.0) & ~node_added)
        node_added[nodes_new] = True
        ws.add_node_atoms(nodes_new)
        y_mult = w
        if v > slack and v > 0.25 * viol_prev and mu < 1e4:
            mu *= 10.0
        if v > 0.0:
            viol_prev = v
    kkt = core.grad_norm_trace[-1]

    # the fit reports the plain objective and gradient, without the hinge
    _, rho = core.event_terms(ws.E @ c)
    gam = core.gradient_coords(c, rho, np.zeros(obj.nodes.size))
    core.objective_trace.append(core.objective_trace[-1] - hinge.value(xn))
    core.grad_norm_trace.append(float(np.sqrt(max(gam @ ws.G @ gam, 0.0))))
    return core.result(
        c, reason, feasible, hinge_passes=core.passes, hinge_mu=mu, max_node_violation=v,
        kkt_residual=kkt, n_node_atoms=int(np.count_nonzero(ws.role == NODE)),
    )


def fit_descent(
    kernel: SobolevKernel,
    obj: Objective,
    init: FilterFunction | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
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
    systems are singular to working precision near the optimum.  The Newton
    core runs on this dictionary, growing it before each iterate.

    Each iterate adds at most one integral atom per channel, so for d
    channels and N events the dictionary holds at most
    d (m + N + max_iter + 2) atoms, plus the atoms of ``init``: ``max_iter``
    bounds the fit's memory as well as its steps.

    The fit starts at the zero filter, or at ``init``.  The stopping scale
    ||grad F(0)|| is taken at the zero filter either way, so a poor start
    cannot loosen the test.  Steps use the line search constants C1, C2,
    DELTA and MAX_STEP_TRIALS.
    """
    if obj.link.kind == "linear":
        raise ConfigError("fit_descent serves the non-linear links; use fit_linear")
    obj._check_kernel(kernel)
    ws = _Workspace(kernel, obj)
    core = _Core(ws, tol, max_iter)
    ws.add_polynomials()
    ws.add_history_atoms()
    psi = _QuadratureCompensator(obj)

    last_f_weights = psi.deriv(np.zeros(obj.nodes.size))
    ws.add_integral_atoms(last_f_weights)
    gamma = np.zeros(len(ws))

    if init is not None:
        if init.kernel != kernel or init.n_channels != obj.n_channels:
            raise ConfigError("init filter does not match the kernel/data")
        # the initial dictionary spans the gradient at the zero filter
        _, rho0 = core.event_terms(np.zeros(len(obj.events)))
        gam0 = core.gradient_coords(gamma, rho0, last_f_weights)
        core.gn0 = float(np.sqrt(max(float(gam0 @ ws.G @ gam0), 0.0)))
        for atom, coeff in zip(init.atoms, init.coefficients):
            if atom.kind == "h0":
                # a polynomial is already spanned by the phi columns; a
                # second copy would leave the Newton systems singular
                gamma[core.phi_cols[atom.channel]] += coeff * atom.h0
            elif coeff != 0.0:
                ws.add(atom)
                gamma = np.append(gamma, coeff)

    def grow(w_link: np.ndarray) -> None:
        """Integral atom of the gradient at the current iterate: the atom
        for the weights Y phi'(X) is the sum of all integral atoms so far,
        the newest one carrying only the change of weights since the last,
        so the dictionary lacks none of the gradient."""
        nonlocal last_f_weights
        if not np.array_equal(w_link, last_f_weights):
            ws.add_integral_atoms(w_link - last_f_weights)
            last_f_weights = w_link

    return core.result(*core.run(gamma, psi, grow=grow))
