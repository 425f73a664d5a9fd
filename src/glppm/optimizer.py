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
  and the history atom of each node whose hinge force has turned on.

The gradient of F is a sum of data atoms: the integral atom, and the
history atom of each point, the representer of X there, with weight psi' at
a quadrature node and -phi'/phi(X) at an event.  Both fitters build their
dictionary from two kinds of atom: each channel's polynomials
phi_1..phi_m, and H1 (part "r1") atoms, each the H1 part of a data atom
that declares the functional it represents.  The phi_k are orthonormal in
H0 and orthogonal to H1 (Wahba 1990, ch. 1), so the gradient's phi_k
coordinate is dF/dc_k.  The workspace records each atom's role as it
appends it; the core reads them.  Each fitter grows its dictionary before
it measures an iterate, so that it spans the gradient there.

The core (``_Core.run``) forms the coordinate gradient and Hessian of F,
takes a direction that passes the angle test cos(direction, -gradient) >=
DELTA (Newton, else Levenberg-damped in the function-space metric G on a
ladder of sigma rising tenfold from 1e-6 tr(H) / tr(G), the traces over the
coordinates where H's diagonal is nonzero, searched from one rung below
the rung it last accepted, else function-space steepest
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
when d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, SolverError
# ``full_inner_row`` and ``h1_inner_row`` stay importable here, as the
# benchmark's tracer hooks them
from .filters import Atom, FilterFunction, full_inner_row, h0_poly, h1_inner_row  # noqa: F401
from .kernel import SobolevKernel
from .likelihood import (
    LinkSpec, Objective, _boundary_slack, _event_phi, _QuadratureCompensator, build_f_atoms, build_h_atoms,
    linear_predictor,
)

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
# coefficient there is 0 (free: the polynomials), psi' at its quadrature
# node or -phi'/phi(X) at its event (point), or 1 (integral)
FREE, POINT, INTEGRAL = range(3)


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
    tol: float  # the stopping tolerance of the gradient test
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def stationarity_residual(self) -> float:
        """The KKT residual if the fit reports one (at a boundary-active optimum
        the plain gradient equals the constraint force), else the gradient
        norm, over max(1, ``diagnostics["grad_norm_scale"]``)."""
        residual = float(self.diagnostics.get("kkt_residual", self.grad_norm))
        return residual / max(1.0, self.diagnostics["grad_norm_scale"])


def _check_stopping(tol: float | None = None, max_iter: int | None = None) -> None:
    """The one check of a stopping rule, for both fitters and for a config
    that sets part of one: reject a rule that can never be met or never
    runs.  None is a value left to the fitter's default."""
    if (tol is not None and not (np.isfinite(tol) and tol > 0.0)) or (max_iter is not None and max_iter < 1):
        raise ConfigError(f"need a finite tol > 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}")


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

    A coordinate whose row of H and entry of rhs are both exactly 0 takes a
    zero step, and the rest of the system is solved on its own: such a
    coordinate, as a phi column of a channel with no nonzero jump is, has
    no data and no penalty, and a ridge there would bend the whole step.
    Jacobi-scales the system first (kernel Grams over long horizons are
    badly conditioned).  A coordinate left whose diagonal entry is 0 has a
    nonzero row or rhs, and is scaled by 1: a scale of sqrt(1e-300) would
    blow its ridge step up to inf.  Then it tries Cholesky (LAPACK's
    ``dpotrf`` on the upper triangle and ``dpotrs``, as
    ``scipy.linalg.cho_factor`` / ``cho_solve`` call them, without their
    checks), a tiny ridge, and least squares in that order.  Returns (x,
    ridge_used).
    """
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise SolverError("non-finite values in the Newton system")
    diag = np.diag(H)
    if not diag.all():
        # a zero row of a semidefinite H has a zero diagonal entry
        live = (diag != 0.0) | (rhs != 0.0)
        live[~live] = H[~live].any(axis=1)
        if not live.all():
            x, used = np.zeros(rhs.shape), False
            if live.any():
                x[live], used = _solve_spd(H[np.ix_(live, live)], rhs[live])
            return x, used
    s = np.sqrt(np.maximum(diag, 1e-300))
    s[diag == 0.0] = 1.0
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

    The dictionary holds each channel's polynomials phi_1..phi_m, its
    first block, and H1 (part "r1") atoms, none of them the zero function.
    ``U`` and ``E`` hold each atom's predictor at the quadrature nodes and at
    the events, and ``Gp`` its H1 inner products with every atom, in buffers
    that double in capacity as the dictionary grows.  The full Gram ``G`` is
    ``Gp`` plus 1 on the polynomials' diagonal: they are orthonormal in H0
    and orthogonal to H1.  Exactly on the linear link, the only one whose
    compensator is linear in the coefficients, the predictor buffer holds
    one more row, each atom's exact compensator, which ``comp`` views; else
    ``comp`` is None.

    Each atom also records its ``role`` in the gradient of F: ``POINT`` of
    point ``datum`` (a pair-store index: the nodes, then the events),
    ``INTEGRAL``, or ``FREE`` (the polynomials, so ``role != FREE`` marks
    the H1 atoms).

    Every H1 atom declares the functional it represents, as weights over
    the rows of the predictor buffer.  The history atom of point p
    (``add_point_atoms``) represents the predictor at p on its channel, the
    integral atom of node weights w (``add_integral_atoms``) sum_q w_q
    X(s_q), and the exact integral atom f of the linear link
    (``add_representers``) the compensator: for any H1 atom a there,

        <a, eta_p> = X(a)_p,    <a, f_w> = w . U(a),    <a, f> = comp(a).

    Atoms join in blocks: one ``Objective.columns`` call gives a block's U
    and E (``Objective.integral_column`` an integral atom's), and
    ``_append`` its Gram entries, products of functionals with columns.
    Every column and Gram entry has the bits of appending the atoms one at
    a time.
    """

    def __init__(self, kernel: SobolevKernel, obj: Objective):
        obj._check_kernel(kernel)  # before any atom is built
        self.kernel = kernel
        self.obj = obj
        self.atoms: list[Atom] = []
        self._n_nodes = obj.nodes.size
        self._n_points = obj.nodes.size + len(obj.events)
        # the rows of the predictor buffer: the points, then the compensator
        self._n_rows = self._n_points + (obj.link.kind == "linear")
        self._n_rep = 0  # H1 atoms, the rows of F
        self._reserve(32)
        # phi_1..phi_m of every channel, channel-major, where
        # ``_Core.phi_cols`` expects them; they represent no functional
        polys = [h0_poly(kernel, ch, k) for ch in range(obj.n_channels) for k in range(1, kernel.m + 1)]
        self._append(polys, obj.columns(kernel, polys), np.empty((0, self._n_rows)), FREE)

    def _reserve(self, cap: int) -> None:
        """Buffers for ``cap`` atoms, keeping the rows and columns in use:
        predictor columns X, the functional weights F over the same rows of
        the H1 atoms, in column order, the H1 Gram and the per-atom
        attributes."""
        n, r = len(self.atoms), self._n_rows
        old = getattr(self, "_buf", None)
        buf = {
            "X": np.zeros((r, cap)), "F": np.zeros((cap, r)), "Gp": np.zeros((cap, cap)),
            "channel": np.zeros(cap, dtype=int), "role": np.zeros(cap, dtype=int),
            "datum": np.zeros(cap, dtype=int),
        }
        if old is not None:
            for key, arr in buf.items():
                kept = np.s_[:, :n] if key == "X" else np.s_[:n, :n] if key == "Gp" else np.s_[:n]
                arr[kept] = old[key][kept]
        self._buf = buf

    def __len__(self) -> int:
        return len(self.atoms)

    def _expose(self) -> None:
        """Point the public arrays at the buffers' rows and columns in use,
        and form G."""
        n, b, q, p = len(self.atoms), self._buf, self._n_nodes, self._n_points
        self.U, self.E = b["X"][:q, :n], b["X"][q:p, :n]
        self.Gp = b["Gp"][:n, :n]
        self.G = self.Gp.copy()
        poly = np.arange(self.obj.n_channels * self.kernel.m)
        self.G[poly, poly] += 1.0
        self.comp = b["X"][p, :n] if self._n_rows > p else None
        self.role, self.datum = b["role"][:n], b["datum"][:n]

    def add_representers(self) -> None:
        """Append the finite representer basis of the linear link, in which
        the minimizer of the penalized objective lies.  Per channel it is
        spanned by

        * the m polynomials phi_1..phi_m, which the workspace starts with,
        * one history atom per event with an earlier jump there
          (``add_point_atoms``):
          h_i(u) = sum_{sigma < tau_i} dZ R1(tau_i - sigma, u),
        * one exact integral atom, which represents the compensator:
          f(u) = int_0^t Y_s sum_{sigma < s} dZ R1(s - sigma, u) ds,

        in that order: polynomials channel-major, then history atoms
        event-major with the channels side by side, then the integral atoms.
        The h and f atoms are the smooth parts of the event and compensator
        design functionals; one that is the zero function is left out.  f's
        functional reads the compensator row, so the objective is on the
        linear link, though the basis does not depend on the link.  Each kind
        is one block, told apart by its atoms' ``role``."""
        self.add_point_atoms()
        f_atoms = [a for a in build_f_atoms(self.kernel, self.obj) if not a.is_zero]
        functionals = np.zeros((len(f_atoms), self._n_rows))
        functionals[:, self._n_points] = 1.0
        self._append(f_atoms, self.obj.columns(self.kernel, f_atoms), functionals, INTEGRAL)

    def add_point_atoms(self, points=None) -> None:
        """Append the H1 history atom of each of these points (pair-store
        indices: nodes first, then events; by default every event) on every
        channel with a nonzero earlier jump, point-major, as one block: each
        represents its point's predictor on its channel."""
        points = np.arange(self._n_nodes, self._n_points) if points is None else np.asarray(points, dtype=int)
        atoms = build_h_atoms(self.kernel, self.obj, points)
        keep = [pos for pos, atom in enumerate(atoms) if not atom.is_zero]
        block = [atoms[pos] for pos in keep]
        datum = points[np.array(keep, dtype=int) // self.obj.n_channels]
        functionals = np.zeros((len(block), self._n_rows))
        functionals[np.arange(len(block)), datum] = 1.0
        self._append(block, self.obj.columns(self.kernel, block), functionals, POINT, datum)

    def add_integral_atoms(self, link_weights: np.ndarray) -> None:
        """Append the nonzero H1 integral atoms of these node weights, each
        representing sum_q w_q X(s_q) on its channel.  An atom's sections
        are its channel's merged node lags (``Objective.node_lag_index``), so
        its column reads the index (``Objective.integral_column``)."""
        functional = np.zeros((1, self._n_rows))
        functional[0, : self._n_nodes] = link_weights
        for atom in build_f_atoms(self.kernel, self.obj, link_weights=link_weights):
            if not atom.is_zero:
                self._append([atom], self.obj.integral_column(atom), functional, INTEGRAL)

    def _append(self, atoms: list[Atom], x, functionals, role, datum=0) -> None:
        """Append a block of atoms of one role and datum (or one datum per
        atom) with their predictor columns x, to which the compensator row
        adds each atom's exact compensator, and the weights of the
        functionals that its H1 atoms represent (none for the polynomials).

        The one Gram rule: a polynomial's H1 products are 0.  For H1 atoms
        i <= a, <i, a> is i's functional of a's column; 0 across channels.
        A block takes its atoms' entries against every H1 atom in one
        product and keeps, within the block, the upper triangle: each atom's
        entries against itself and the atoms before it.  One-hot
        functionals, as the point atoms have, make every product exact, so
        such a block stores the bits that appending its atoms one at a time
        stores."""
        if not atoms:
            return
        n0, k = len(self.atoms), len(atoms)
        n = n0 + k
        cap = self._buf["Gp"].shape[0]
        while cap < n:
            cap *= 2
        if cap > self._buf["Gp"].shape[0]:
            self._reserve(cap)
        b = self._buf
        if self._n_rows > self._n_points:
            x = np.vstack([x, self.obj.comp_row(self.kernel, atoms)])
        b["X"][:, n0:n] = x
        b["role"][n0:n], b["datum"][n0:n] = role, datum
        channel = b["channel"][:n]
        channel[n0:] = [atom.channel for atom in atoms]
        self.atoms.extend(atoms)

        b["F"][self._n_rep : self._n_rep + len(functionals)] = functionals
        self._n_rep += len(functionals)
        rows = np.zeros((n, k))
        rows[b["role"][:n] != FREE] = b["F"][: self._n_rep] @ x
        if self.obj.n_channels > 1:
            rows[channel[:, None] != channel[n0:]] = 0.0
        if k > 1:
            rows[n0:] = np.where(np.tri(k, dtype=bool).T, rows[n0:], rows[n0:].T)
        b["Gp"][:n, n0:n] = rows
        b["Gp"][n0:n, :n] = rows.T
        self._expose()


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

    F has one closed form (``objective``), which every traced iterate and
    every line search trial takes.  The gradient of F has two forms
    (``gradient``): its coordinate gradient grad_c = dF/dc, which the
    Newton system and the line search take, and its coordinates gam in the
    dictionary, which the norm and steepest descent take.

    One core serves all passes of a fit and keeps their traces, step
    records and iteration count.
    """

    def __init__(self, ws: "_Workspace", tol: float, max_iter: int):
        _check_stopping(tol, max_iter)
        self.ws, self.tol, self.max_iter = ws, tol, max_iter
        obj = ws.obj
        self.link, self.lam = obj.link, obj.penalty_weight
        self.phi_cols = np.arange(obj.n_channels * ws.kernel.m).reshape(obj.n_channels, -1)
        self.log_y = float(np.sum(np.log(obj.y_events))) if len(obj.events) else 0.0
        self.const = obj.link.d * obj.int_y if ws.comp is not None else 0.0
        self.objective_trace: list[float] = []
        self.grad_norm_trace: list[float] = []
        self.records: list[dict] = []
        self.n_iter = self.passes = 0
        self.ridge_used = False
        self._rung = 4  # the last damped rung that direction accepted; 4 at first

    def event_terms(self, xe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, phi'/phi) at the events; raises when an intensity is not
        positive."""
        phi_e = _event_phi(self.ws.obj, xe)
        rho = self.link.deriv(xe) / phi_e if phi_e.size else np.empty(0)
        return phi_e, rho

    def objective(self, psi, xn: np.ndarray, phi: np.ndarray, pen: float, r: float) -> float:
        """F in closed form, from the predictors xn at the nodes, the
        intensities phi at the events, the penalty form pen = c' Gp c and
        the compensator-row term r (comp . c + d int Y, 0 without a row)."""
        f = psi.value(xn) + self.lam * pen + r
        if phi.size:
            f -= float(np.sum(np.log(phi))) + self.log_y
        return f

    def line(
        self, psi, gamma: np.ndarray, delta: np.ndarray, xn: np.ndarray, xe: np.ndarray, g_gp_g: float, r_g: float
    ):
        """F and its derivative along gamma + alpha delta in closed form, as
        ``trial(alpha) -> (feasible, value, deriv)``, from the predictors xn
        and xe, the penalty form g_gp_g and the compensator-row term r_g at
        gamma; infeasible where an intensity is not positive."""
        ws, obj, link, lam = self.ws, self.ws.obj, self.link, self.lam
        Ud, Ed, Gp_d = ws.U @ delta, ws.E @ delta, ws.Gp @ delta
        g_gp_d = float(gamma @ Gp_d)
        # Gp is positive semidefinite, but along a direction in its near
        # null space rounding can give negative curvature, which the line
        # search would follow to an unbounded step
        d_gp_d = max(float(delta @ Gp_d), 0.0)
        r_d = float(ws.comp @ delta) if ws.comp is not None else 0.0

        def trial(alpha: float):
            xe_a = xe + alpha * Ed
            phi_a = link.value(xe_a)
            if phi_a.size and (obj.y_events * phi_a).min() <= 0.0:
                return False, np.nan, np.nan
            xn_a = xn + alpha * Ud
            pen = g_gp_g + 2.0 * alpha * g_gp_d + alpha**2 * d_gp_d
            f_a = self.objective(psi, xn_a, phi_a, pen, r_g + alpha * r_d)
            df = float(psi.deriv(xn_a) @ Ud) + 2.0 * lam * (g_gp_d + alpha * d_gp_d) + r_d
            if phi_a.size:
                df -= float((link.deriv(xe_a) / phi_a) @ Ed)
            return True, f_a, df

        return trial

    def gradient(self, gamma: np.ndarray, rho: np.ndarray, dpsi: np.ndarray):
        """The gradient of F at gamma as (grad_c, gam): the coordinate
        gradient dF/dc, from psi' = dpsi at the nodes and phi'/phi = rho at
        the events, and the gradient's coordinates in the dictionary, exact
        when the dictionary spans it.  On the H1 atoms gam holds the data
        atoms' coefficients (each point atom's read from one vector over the
        points, dpsi and then -rho; 1 on each integral atom) and the penalty
        2 lam P g, which is 2 lam times their coefficients.  On the
        polynomials it is grad_c, as each phi_k is a unit vector of G."""
        ws, lam = self.ws, self.lam
        grad_c = ws.U.T @ dpsi + 2.0 * lam * (ws.Gp @ gamma)
        if ws.comp is not None:
            grad_c += ws.comp
        if rho.size:
            grad_c -= ws.E.T @ rho
        gam = np.where(ws.role == POINT, np.concatenate([dpsi, -rho])[ws.datum], 0.0)
        gam[ws.role == INTEGRAL] = 1.0
        if lam != 0.0:
            gam += 2.0 * lam * np.where(ws.role != FREE, gamma, 0.0)
        gam[: self.phi_cols.size] = grad_c[: self.phi_cols.size]
        return grad_c, gam

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

        def cosine(slope: float, norm2: float) -> float:
            return -slope / max(gn * np.sqrt(max(norm2, 0.0)), 1e-300)

        def attempt(sigma: float):
            try:
                delta, used = _solve_spd(H + sigma * ws.G, -grad_c)
            except SolverError as exc:
                unbounded = "; without a penalty the objective may be unbounded" if self.lam == 0.0 else ""
                raise SolverError(f"{exc} at penalty weight {self.lam!r}{unbounded}") from None
            d0, dn2 = float(grad_c @ delta), float(delta @ ws.G @ delta)
            cos = cosine(d0, dn2)
            return (delta, d0, cos, used, sigma) if d0 < 0.0 and dn2 > 0.0 and cos >= DELTA else None

        # Newton (sigma = 0), then Levenberg damping in the function-space
        # metric G, which turns the direction toward the best in-span descent
        # direction without growing the dictionary.  1e-6 tr(H) / tr(G) stays
        # put when all atoms are scaled alike; a start in units of H alone can
        # lie past the whole spectrum, where every rung is steepest descent.
        # Resumed one rung below the last accepted rung (rung 3 at first, as a
        # fit's first accepted rung mostly lies 1-4 above the bottom), the
        # search steps down while rungs pass and up while they fail: the rung
        # a climb from the bottom finds, when passing is monotone in sigma
        found, kind = attempt(0.0), "newton"
        if found is None:
            # tr(G) over the live coordinates, those with a nonzero diagonal
            # of H: the phi columns of a channel with no nonzero jump have
            # neither data nor penalty, and must not set the scale
            live = np.diag(H) != 0.0
            ladder = [1e-6 * float(np.trace(H) / max(np.diag(ws.G)[live].sum(), 1e-300))]
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

    def run(self, gamma, psi, grow=None):
        """Descend from gamma, as the next pass of the fit, for at most
        ``max_iter`` steps.

        ``grow(psi')`` appends, before each iterate is measured, the atoms
        that the gradient of F there needs and the dictionary lacks, so that
        the norm is measured in a span that holds the gradient.  Returns
        (gamma, reason).
        """
        ws = self.ws
        self.passes += 1
        steps = 0
        while True:
            # coefficients of atoms added since gamma was set start at 0
            gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
            xn, xe = ws.U @ gamma, ws.E @ gamma
            phi_e, rho = self.event_terms(xe)
            dpsi = psi.deriv(xn)
            if grow is not None:
                grow(dpsi)
            phi = phi_e
            if len(ws) > gamma.size:
                # products over the grown dictionary can round apart from
                # the first ones; F takes phi at these predictors
                gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
                xn, xe = ws.U @ gamma, ws.E @ gamma
                dpsi, phi = psi.deriv(xn), self.link.value(xe)
            grad_c, gam = self.gradient(gamma, rho, dpsi)
            gn2 = float(gam @ ws.G @ gam)
            gn = float(np.sqrt(max(gn2, 0.0)))
            g_gp_g = float(gamma @ (ws.Gp @ gamma))
            r_g = float(ws.comp @ gamma) + self.const if ws.comp is not None else 0.0
            f0 = self.objective(psi, xn, phi, g_gp_g, r_g)
            self.objective_trace.append(f0)
            self.grad_norm_trace.append(gn)
            if gn2 < 0.0:
                # only rounding makes a squared norm negative; an exact 0
                # can be a true one, as on data with no jumps
                return gamma, "noise_floor"
            if gn <= self.tol * max(1.0, self.grad_norm_trace[0]):
                return gamma, "grad"
            if steps >= self.max_iter:
                return gamma, "max_iter"

            delta, d0, cos, direction_kind, sigma = self.direction(
                self.hessian(psi, xn, xe, phi_e), grad_c, gam, gn
            )
            if not d0 < 0.0:
                return gamma, "stationary"

            alpha, f_a, d_a, log, ok = _weak_wolfe_search(
                self.line(psi, gamma, delta, xn, xe, g_gp_g, r_g), f0, d0
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
            tol=self.tol,
            diagnostics={
                "ridge_used": self.ridge_used,
                "n_atoms": len(ws),
                "grad_norm_scale": self.grad_norm_trace[0],
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

    Builds the finite representer basis, in which the unconstrained
    minimizer lies (``_Workspace.add_representers``), and runs the Newton
    core on it, with at most ``max_iter`` steps per pass.  If the minimizer
    would let the predictor dip below -d between events, hinge-squared
    penalties on the violating quadrature nodes push it back.  The
    penalties are warm-started with multiplier estimates updated after
    every pass (an augmented Lagrangian), so the penalty weight stays
    bounded and the passes converge to exact node feasibility.  An active
    node constraint adds its node's history atom, the representer of X
    there, to the span of the solution: it joins the dictionary
    (``_Workspace.add_point_atoms``) before the first iterate at which the
    node's hinge force is on is measured.

    The fit converges when a pass ends on the gradient test of its KKT
    residual with the nodes feasible and complementary, feasible also by
    the returned filter's own node predictor, which ``objective_value``
    reads and ``max_node_violation`` reports.  Steps use the line search
    constants C1, C2, DELTA and MAX_STEP_TRIALS.
    """
    if obj.link.kind != "linear":
        raise ConfigError("fit_linear requires the linear link")
    d = obj.link.d

    ws = _Workspace(kernel, obj)
    core = _Core(ws, tol, max_iter)
    ws.add_representers()
    joined = np.zeros(obj.nodes.size, dtype=bool)  # nodes whose atoms joined

    def grow(dpsi: np.ndarray) -> None:
        new = np.flatnonzero((dpsi != 0.0) & ~joined)
        if new.size:
            joined[new] = True
            ws.add_point_atoms(new)

    def filter_violation() -> float:
        """The largest violation of X + d >= 0 at the nodes by the predictor
        of the filter at c, which ``objective_value`` reads: with large
        single terms it can part from U c by about the slack."""
        g = FilterFunction(kernel, obj.n_channels, tuple(ws.atoms), c)
        gaps = obj.link.value(linear_predictor(g, obj.drivers, obj.nodes))
        return float(max(0.0, -gaps.min())) if gaps.size else 0.0

    # with d = 0 start at phi_1 = 1, positive at every event with some
    # driver history; the core rejects an event with none
    c = np.zeros(len(ws))
    if d == 0.0 and len(obj.events):
        c[core.phi_cols[:, 0]] = 1.0

    y_mult, mu, slack, viol_prev = np.zeros(obj.nodes.size), 1.0, _boundary_slack(d), np.inf
    while True:
        hinge = _Hinge(y_mult, mu, obj.link)
        c, reason = core.run(c, hinge, grow)
        xn = ws.U @ c
        gaps = obj.link.value(xn)
        v = float(max(0.0, -gaps.min())) if gaps.size else 0.0
        w = hinge.force(xn)
        y_top = float(w.max()) if w.size else 0.0
        comp = float(np.max(np.minimum(w, np.maximum(gaps, 0.0)))) if w.size else 0.0
        feasible = v <= slack and comp <= 1e-6 * max(1.0, y_top) and filter_violation() <= slack
        if (feasible and reason in ("grad", "noise_floor", "stationary")) or core.passes >= 20:
            break
        y_mult = w
        if v > slack and v > 0.25 * viol_prev and mu < 1e4:
            mu *= 10.0
        if v > 0.0:
            viol_prev = v
    kkt = core.grad_norm_trace[-1]

    # the fit reports the plain objective and gradient, without the hinge
    _, rho = core.event_terms(ws.E @ c)
    gam = core.gradient(c, rho, np.zeros(obj.nodes.size))[1]
    core.objective_trace.append(core.objective_trace[-1] - hinge.value(xn))
    core.grad_norm_trace.append(float(np.sqrt(max(gam @ ws.G @ gam, 0.0))))
    return core.result(
        c, reason, feasible, hinge_passes=core.passes, hinge_mu=mu, max_node_violation=filter_violation(),
        kkt_residual=kkt, n_node_atoms=int(np.count_nonzero(ws.datum[ws.role == POINT] < obj.nodes.size)),
    )


def fit_descent(
    kernel: SobolevKernel,
    obj: Objective,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> FitResult:
    """Dictionary descent for the exponential and softplus links.

    The linear link is solved exactly in the representer basis by
    ``fit_linear``; passing it here raises ConfigError.

    The dictionary holds the polynomial atoms, one H1 history atom per
    (event, channel) with earlier jumps, and a growing family of H1 integral atoms
    that ``grow`` adds before each iterate: the weights Y phi'(X) at the zero
    filter, then one difference atom per iteration for the change of those
    weights since the previous one.  The gradient's integral atom is the sum
    of all integral atoms, with coordinate +1 on each; adding the weights
    themselves instead would leave nearly collinear atoms whose Newton
    systems are singular to working precision near the optimum.  The Newton
    core runs on this dictionary from the zero filter, growing it before
    each iterate.

    Each iterate adds at most one integral atom per channel, so for d
    channels and N events the dictionary holds at most
    d (m + N + max_iter + 2) atoms: ``max_iter`` bounds the fit's memory as
    well as its steps.  Steps use the line search constants C1, C2, DELTA
    and MAX_STEP_TRIALS.
    """
    if obj.link.kind == "linear":
        raise ConfigError("fit_descent serves the non-linear links; use fit_linear")
    ws = _Workspace(kernel, obj)
    core = _Core(ws, tol, max_iter)
    ws.add_point_atoms()
    psi = _QuadratureCompensator(obj)

    last_f_weights = np.zeros(obj.nodes.size)

    def grow(w_link: np.ndarray) -> None:
        """Integral atom of the gradient at the current iterate: the atom
        for the weights Y phi'(X) is the sum of all integral atoms so far,
        the newest one carrying only the change of weights since the last
        (zero before the first), so the dictionary lacks none of the gradient."""
        nonlocal last_f_weights
        if not np.array_equal(w_link, last_f_weights):
            ws.add_integral_atoms(w_link - last_f_weights)
            last_f_weights = w_link

    return core.result(*core.run(np.zeros(len(ws)), psi, grow=grow))
