"""Reference implementations the tests check the library against.

They work on whole filter functions through the public operations
(``gradient``, ``objective_value``, predictor columns), independently of
the solvers' dictionary workspace.
"""

import numpy as np

from glppm.errors import DomainError, InfeasibleError, SolverError
from glppm.filters import FilterFunction, h1_gram
from glppm.likelihood import Objective, gradient, objective_value
from glppm.optimizer import LineSearchConfig, _weak_wolfe_search


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
    x_events = obj.predictor_events(g)
    phi_events = obj.link.value(x_events)
    x_nodes = obj.predictor_nodes(g)

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
    config: LineSearchConfig | None = None,
) -> tuple[FilterFunction, dict]:
    """One safeguarded line search step along a filter-space direction,
    through the library's weak Wolfe search.

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
        raise SolverError(f"angle condition failed: cos {cosine:.3g} < delta {cfg.delta}")
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
        "trials": log,
    }
    return g + direction.scale(alpha), stats
