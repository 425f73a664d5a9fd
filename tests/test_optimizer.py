"""Fitters: line search safeguards, Newton route, dictionary descent."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from glppm import filters, likelihood, optimizer
from glppm import kernel as kernel_module
from glppm.data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from glppm.errors import ConfigError, DomainError, InfeasibleError, SolverError
from glppm.filters import (
    Atom,
    FilterFunction,
    h0_poly,
)
from glppm.kernel import SobolevKernel
from glppm.likelihood import (
    Objective,
    build_f_atoms,
    build_h_atoms,
    exponential_link,
    linear_link,
    linear_predictor,
    objective_value,
    softplus_link,
)
from glppm.optimizer import (
    FREE,
    INTEGRAL,
    POINT,
    STEP_FIELDS,
    FitResult,
    _Core,
    _Hinge,
    _QuadratureCompensator,
    _Workspace,
    _solve_spd,
    fit_descent,
    fit_linear,
)

from oracles import (
    ascending_ladder,
    atom_columns,
    combine,
    exact_compensator,
    full_gram,
    full_kernel,
    gradient,
    h1_gram,
    hessian_coords,
    history_atoms_one_by_one,
    inner_product,
    integral_atoms_one_by_one,
    kernel_section,
    same_bits,
    section_sum,
    smooth_value,
    solve_spd_cho_factor,
    sorted_normal_forms,
    wolfe_angle_step,
)

C1, C2, DELTA = 1e-4, 0.4, 0.1


def dense_objective(lam=5.0, link=None, m=2):
    """Evenly spread events: the penalized MLE stays inside the domain."""
    times = np.arange(0.5, 8.0, 0.5)
    events = EventSeries(8.0, times)
    drivers = DriverSeries(8.0, (DriverChannel("target", times, np.ones(times.size)),))
    link = link if link is not None else linear_link(0.5)
    obj = Objective(link, lam, events, drivers)
    return SobolevKernel(m=m, horizon=8.0), obj


def two_channel_objective(lam=5.0):
    times = np.arange(0.5, 8.0, 0.5)
    events = EventSeries(8.0, times)
    z = DriverChannel("z", np.array([0.25, 2.25, 4.25, 6.25]), np.array([1.0, 0.5, 1.5, 1.0]))
    tgt = DriverChannel("target", times, np.ones(times.size))
    drivers = DriverSeries(8.0, (z, tgt))
    return events, z, tgt, lam


def history_objective(m: int, quiet_channel: bool = False):
    """An exogenous driver and the self-exciting target, with an at-risk
    process that is zero on (3.2, 3.6].  The first event has no earlier
    jump on either channel.  The driver holds an exact tie, and three jumps
    within 1e-12 whose sections merge; their sizes sum to different bits in
    the order of the jumps and in the order of the lags.  A quiet third
    channel has no jumps, so no node pairs."""
    events = EventSeries(8.0, np.array([0.3, 1.5, 2.0, 3.0, 4.1, 5.5, 6.5, 7.25]))
    z = DriverChannel(
        "z", np.array([0.5, 1.0, 1.0, 2.5, 2.5 + 5e-13, 2.5 + 9e-13, 5.0]),
        np.array([1.0, 0.5, 2.0, 1.0, 1e-16, 1e-16, 2.0]),
    )
    channels = (z, DriverChannel("target", events.times, np.ones(events.times.size)))
    if quiet_channel:
        channels += (DriverChannel("quiet", np.empty(0), np.empty(0)),)
    obj = Objective(
        exponential_link(-0.5), 2.0, events, DriverSeries(8.0, channels),
        at_risk=AtRiskProcess([3.2, 3.6], [1.0, 0.0, 2.0]),
    )
    return SobolevKernel(m=m, horizon=8.0), obj


WORKSPACE_BUFFERS = ("X", "F", "Gp", "channel", "role", "datum")


def append_one(ws, atom, role, datum=0, *, functional):
    """Append one H1 atom with its gradient role and datum, and the weights
    of the functional it represents over the rows of the predictor buffer:
    the reference for the bulk builders, which record them per block."""
    ws._append([atom], ws.obj.columns(ws.kernel, [atom]), functional[None, :], role, datum)


def fit_with_workspace(monkeypatch, fit, *args, **kwargs):
    """A fit and the workspace it ends with, caught at ``_Core.result``."""
    spaces, real = [], _Core.result

    def result(core, *a, **kw):
        spaces.append(core.ws)
        return real(core, *a, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(_Core, "result", result)
        res = fit(*args, **kwargs)
    return res, spaces[-1]


def first_history_atoms(kernel, obj, count):
    """A workspace of the polynomials and the history atoms of the first
    ``count`` events that have an earlier jump, all on one channel."""
    ws = _Workspace(kernel, obj)
    ws.add_point_atoms(ws._n_nodes + np.arange(1, count + 1))
    return ws


def assert_same_workspace(ws, ref):
    """Every buffer and every atom's arrays equal, bit for bit."""
    assert len(ws) == len(ref)
    for key in WORKSPACE_BUFFERS:
        assert same_bits(ws._buf[key], ref._buf[key]), key
    for a, b in zip(ws.atoms, ref.atoms):
        assert (a.channel, a.kind, a.part, a.m, a.k) == (b.channel, b.kind, b.part, b.m, b.k)
        for name in ("sec_lags", "sec_weights", "seg_nodes", "seg_weights", "h0"):
            assert same_bits(getattr(a, name), getattr(b, name)), name


class TestWolfeAngleStep:
    def test_steepest_descent_step(self):
        k, obj = dense_objective(lam=5.0, m=1)
        g0 = FilterFunction(k, 1, (), np.empty(0))
        grad = gradient(g0, obj)
        g1, stats = wolfe_angle_step(g0, combine((-1.0, grad)), obj)
        f0 = objective_value(g0, obj)
        f1 = objective_value(g1, obj)
        gn2 = inner_product(grad, grad)
        # steepest descent is perfectly aligned and must make progress
        assert stats["cosine"] == pytest.approx(1.0, abs=1e-12)
        assert stats["deriv0"] == pytest.approx(-gn2, rel=1e-12)
        assert f1 <= f0 + C1 * stats["alpha"] * stats["deriv0"]
        assert stats["deriv"] >= C2 * stats["deriv0"]
        assert f1 < f0

    def test_non_descent_direction_rejected(self):
        k, obj = dense_objective(lam=5.0, m=1)
        g0 = FilterFunction(k, 1, (), np.empty(0))
        grad = gradient(g0, obj)
        with pytest.raises(SolverError):
            wolfe_angle_step(g0, grad, obj)

    def test_zero_direction_rejected(self):
        k, obj = dense_objective(lam=5.0, m=1)
        g0 = FilterFunction(k, 1, (), np.empty(0))
        with pytest.raises(SolverError):
            wolfe_angle_step(g0, FilterFunction(k, 1, (), np.empty(0)), obj)

    def test_angle_condition_enforced(self):
        k, obj = dense_objective(lam=5.0, m=1)
        g0 = FilterFunction(k, 1, (), np.empty(0))
        grad = gradient(g0, obj)
        gn2 = inner_product(grad, grad)
        h = FilterFunction(
            k, 1, (kernel_section(k, 0, 3.0), h0_poly(k, 0, 1)), np.array([1.0, 0.3])
        )
        # strip the gradient component, then add a whisper of descent: the
        # direction descends but is almost orthogonal to the gradient
        ortho = combine((1.0, h), (-inner_product(grad, h) / gn2, grad))
        direction = combine((100.0, ortho), (-0.01, grad))
        with pytest.raises(SolverError) as err:
            wolfe_angle_step(g0, direction, obj)
        assert "angle" in str(err.value)


class TestFitLinear:
    def test_interior_optimum_is_stationary(self):
        k, obj = dense_objective(lam=5.0)
        res = fit_linear(k, obj)
        assert res.converged
        assert res.status == "converged"
        # no node constraint active at this penalty level
        assert res.diagnostics["n_node_atoms"] == 0
        assert res.diagnostics["max_node_violation"] == 0.0
        # independent stationarity check through the gradient operator
        grad = gradient(res.g_hat, obj)
        gn = float(np.sqrt(max(inner_product(grad, grad), 0.0)))
        gn0 = res.grad_norm_trace[0]
        assert gn <= 2e-6 * max(1.0, gn0)
        assert res.grad_norm <= 2e-6 * max(1.0, gn0)
        assert_allclose(res.objective, objective_value(res.g_hat, obj), rtol=1e-12)

    def test_boundary_active_fit_is_feasible_and_complementary(self):
        # small penalty: the zero-intensity constraint binds on the gaps
        k, obj = dense_objective(lam=1.0, m=1)
        res = fit_linear(k, obj)
        assert res.converged
        d = res.diagnostics
        assert d["n_node_atoms"] > 0
        assert d["max_node_violation"] <= 1e-7 * max(1.0, 0.5)
        # the KKT residual is tiny even though the plain gradient is not
        assert d["kkt_residual"] <= 1e-6 * max(1.0, res.grad_norm_trace[0])
        assert res.grad_norm > 1.0
        # the reported plain gradient norm matches an independent recompute
        grad = gradient(res.g_hat, obj)
        gn_indep = float(np.sqrt(max(inner_product(grad, grad), 0.0)))
        assert_allclose(res.grad_norm, gn_indep, rtol=1e-6)
        # fitted intensity stays nonnegative on the quadrature grid
        x_nodes = linear_predictor(res.g_hat, obj.drivers, obj.nodes)
        assert float(x_nodes.min()) >= -0.5 - 1e-7

    def test_penalty_limit_flattens_the_fit(self):
        k, obj1 = dense_objective(lam=1.0)
        _, obj6 = dense_objective(lam=1e6)
        r1 = fit_linear(k, obj1)
        r6 = fit_linear(k, obj6)
        s1 = r1.g_hat.h1_seminorm_sq()
        s6 = r6.g_hat.h1_seminorm_sq()
        assert s6 <= 1e-6 * s1

    def test_unpenalized_flagged(self):
        k, obj = dense_objective(lam=0.0)
        res = fit_linear(k, obj)
        assert res.diagnostics["unpenalized"] is True
        k, obj = dense_objective(lam=5.0)
        res = fit_linear(k, obj)
        assert res.diagnostics["unpenalized"] is False

    def test_reports_its_dictionary_size(self):
        kernel, obj = dense_objective(m=1)
        res = fit_linear(kernel, obj)
        # the representer basis holds the m polynomials, a history atom per
        # event after the first (which has no earlier jump) and the
        # integral atom
        dim = kernel.m + (len(obj.events) - 1) + 1
        assert res.diagnostics["n_atoms"] == len(res.g_hat.atoms)
        assert res.diagnostics["n_atoms"] == dim + res.diagnostics["n_node_atoms"]

    @pytest.mark.parametrize("link", [linear_link(0.5), exponential_link(-0.5)], ids=["linear", "exp"])
    def test_every_gram_entry_is_a_functional_of_a_column(self, link, monkeypatch):
        # every H1 atom declares the functional it represents, so neither
        # fitter takes a pairwise H1 inner product; the Grams of the fit's
        # dictionary are the direct ones, the exact integral atoms of the
        # linear link included, whose H1 norm is their own compensator
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(link, lam, events, DriverSeries(8.0, (z, tgt)))
        calls, real = [], optimizer.h1_inner_row

        def spy(atom, atoms):
            calls.append(atom)
            return real(atom, atoms)

        monkeypatch.setattr(optimizer, "h1_inner_row", spy)
        k = SobolevKernel(m=2, horizon=8.0)
        fit = fit_linear if link.kind == "linear" else fit_descent
        res, ws = fit_with_workspace(monkeypatch, fit, k, obj)
        assert res.converged and calls == []
        assert_allclose(ws.G, full_gram(ws.atoms), rtol=1e-12, atol=1e-12)
        assert_allclose(ws.Gp, h1_gram(ws.atoms), rtol=1e-12, atol=1e-12)
        if link.kind == "linear":
            exact = np.flatnonzero(ws.role == INTEGRAL)
            assert res.diagnostics["n_node_atoms"] > 0
            assert [(ws.atoms[f].kind, ws.atoms[f].channel) for f in exact] == [
                ("integrated", 0), ("integrated", 1)
            ]
            for f in exact:
                assert ws.Gp[f, f] == pytest.approx(exact_compensator(k, obj, ws.atoms[f]), rel=1e-12)
        assert not any(a.h0.any() for a in res.g_hat.atoms if a.kind != "h0")

    def test_empty_data_returns_zero_filter(self):
        events = EventSeries(6.0, np.empty(0))
        drivers = DriverSeries(6.0, (DriverChannel("target", np.empty(0), np.empty(0)),))
        obj = Objective(linear_link(0.3), 1.0, events, drivers)
        k = SobolevKernel(m=2, horizon=6.0)
        res = fit_linear(k, obj)
        assert res.converged
        assert_allclose(res.objective, 0.3 * 6.0, rtol=1e-12)
        u = np.linspace(0, 6, 13)
        assert_allclose(res.g_hat.evaluate(0, u), np.zeros_like(u), atol=1e-9)

    def test_zero_baseline_without_history_infeasible(self):
        events = EventSeries(6.0, np.array([1.0]))
        drivers = DriverSeries(6.0, (DriverChannel("target", np.array([1.0]), np.ones(1)),))
        obj = Objective(linear_link(0.0), 1.0, events, drivers)
        k = SobolevKernel(m=1, horizon=6.0)
        with pytest.raises(InfeasibleError):
            fit_linear(k, obj)

    def test_node_atoms_are_the_history_atoms_of_their_nodes(self, monkeypatch):
        # a forced node's atom comes from the pair store, as an event's
        # does: no integral atom of node weights and no index column, and
        # sections that are the node's own pair lags, every weight nonzero
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(linear_link(0.5), 1.0, events, DriverSeries(8.0, (z, tgt)))
        calls, real_f, real_column = [], optimizer.build_f_atoms, Objective.integral_column

        def f_spy(*args, **kwargs):
            calls.append(("build_f_atoms", kwargs.get("link_weights")))
            return real_f(*args, **kwargs)

        def column_spy(self, atom):
            calls.append(("integral_column", None))
            return real_column(self, atom)

        monkeypatch.setattr(optimizer, "build_f_atoms", f_spy)
        monkeypatch.setattr(Objective, "integral_column", column_spy)
        res = fit_linear(SobolevKernel(m=1, horizon=8.0), obj)
        assert res.converged and res.diagnostics["n_node_atoms"] > 0
        # the exact integral atoms of the representer basis, once
        assert calls == [("build_f_atoms", None)]
        n_node = res.diagnostics["n_node_atoms"]
        for a in res.g_hat.atoms[len(res.g_hat.atoms) - n_node :]:
            ch = obj.drivers.channels[a.channel]
            own = []
            for s_q in obj.nodes:
                earlier = ch.times < s_q
                order = np.argsort(s_q - ch.times[earlier])
                own.append(((s_q - ch.times[earlier])[order], ch.sizes[earlier][order]))
            assert any(same_bits(a.sec_lags, lags) and same_bits(a.sec_weights, w) for lags, w in own)
            assert a.kind == "section" and a.sec_weights.all()

    def test_every_measured_gradient_norm_is_the_full_gradients(self, monkeypatch):
        # the oracle's gradient of the plain objective plus the hinge's,
        # sum_q psi'_q times the full-kernel representer of X at node q
        # (the integral atom of the weights psi'): the dictionary spans it
        # at every measured iterate, so the traced norm is its norm, to 1e-8
        # relative above a rounding floor: near convergence both sums
        # cancel to about 1e-13 of the starting norm.  The hinge iterates
        # may cross the boundary that it penalizes, so the oracle's domain
        # check is off
        import oracles

        monkeypatch.setattr(oracles, "_check_domain", lambda *args: None)
        k, obj = dense_objective(lam=1.0, m=1)
        states, real = [], _Core.gradient

        def spy(core, gamma, rho, dpsi):
            states.append((tuple(core.ws.atoms), gamma.copy(), dpsi.copy()))
            return real(core, gamma, rho, dpsi)

        monkeypatch.setattr(_Core, "gradient", spy)
        res = fit_linear(k, obj)
        assert res.converged and res.diagnostics["n_node_atoms"] > 0
        assert len(states) == res.grad_norm_trace.size
        assert any(dpsi.any() for _, _, dpsi in states)
        floor = 1e-12 * res.grad_norm_trace[0]
        for (atoms, gamma, dpsi), traced in zip(states, res.grad_norm_trace):
            grad = gradient(FilterFunction(k, 1, atoms, gamma), obj)
            if dpsi.any():
                grad = combine((1.0, grad), (1.0, FilterFunction(
                    k, 1, tuple(full_kernel(k, build_f_atoms(k, obj, link_weights=dpsi))), np.ones(1)
                )))
            assert_allclose(traced, np.sqrt(inner_product(grad, grad)), rtol=1e-8, atol=floor)

    def test_a_converged_fit_is_feasible_on_its_returned_filter(self, monkeypatch):
        # large cancelling terms can leave the returned filter's own
        # predictor at a node below -d by more than the slack while U c is
        # feasible; here its predictor at the lowest node is pushed 6e-7
        # below -d.  The fit measures its violation there, so it does not
        # converge, and a converged fit always evaluates
        k, obj = dense_objective(lam=1.0, m=1)
        real = likelihood.linear_predictor

        def lowered(g, drivers, s):
            # the fit reads its nodes, and neg_log_lik the nodes and then the events
            x = real(g, drivers, s).copy()
            i = int(np.argmin(x[: obj.nodes.size]))
            x[i] = min(x[i], -0.5 - 6e-7)
            return x

        assert fit_linear(k, obj).converged
        for module in (optimizer, likelihood):
            monkeypatch.setattr(module, "linear_predictor", lowered)
        res = fit_linear(k, obj)
        assert not res.converged and res.diagnostics["hinge_passes"] == 20
        assert res.diagnostics["max_node_violation"] == pytest.approx(6e-7, rel=1e-6)
        with pytest.raises(DomainError):
            objective_value(res.g_hat, obj)

    def test_channel_order_invariance(self):
        events, z, tgt, lam = two_channel_objective()
        k = SobolevKernel(m=2, horizon=8.0)
        fits = {}
        for order in (("z", "tgt"), ("tgt", "z")):
            chans = tuple(z if n == "z" else tgt for n in order)
            drivers = DriverSeries(8.0, chans)
            obj = Objective(linear_link(0.5), lam, events, drivers)
            res = fit_linear(k, obj)
            assert res.converged
            fits[order] = (res, drivers)
        u = np.linspace(0, 8, 81)
        res_a, dr_a = fits[("z", "tgt")]
        res_b, dr_b = fits[("tgt", "z")]
        for name in ("z", "target"):
            ia = [c.name for c in dr_a.channels].index(name)
            ib = [c.name for c in dr_b.channels].index(name)
            assert_allclose(
                res_a.g_hat.evaluate(ia, u),
                res_b.g_hat.evaluate(ib, u),
                atol=1e-6,
            )


class TestFitDescent:
    def test_no_decreasing_trial_stalls(self, monkeypatch):
        # with one trial per line search the first step, alpha = 1 from the
        # zero filter, overshoots: no trial decreases F, at a slope far from
        # rounding level; the default budget converges in 5 iterations
        k, obj = dense_objective(lam=5.0, link=exponential_link(-1.0), m=1)
        res = fit_descent(k, obj)
        assert (res.status, res.reason, res.n_iter) == ("converged", "grad", 5)
        monkeypatch.setattr(optimizer, "MAX_STEP_TRIALS", 1)
        res = fit_descent(k, obj)
        assert (res.status, res.reason, res.n_iter) == ("stalled", "stall", 0)
        [step] = res.diagnostics["iterations"]
        [trial] = step["trials"]
        assert step["accepted_alpha"] is None and trial["alpha"] == 1.0
        assert trial["feasible"] and not trial["armijo"]
        assert trial["value"] > step["objective"] == res.objective
        assert -step["deriv0"] > 1e-14 * max(1.0, abs(step["objective"]))

    def test_linear_link_rejected(self):
        # the linear link has its own exact solver
        k, obj = dense_objective(lam=5.0)
        with pytest.raises(ConfigError, match="fit_linear"):
            fit_descent(k, obj)

    @pytest.mark.parametrize("fitter", ["descent", "linear"])
    def test_every_accepted_step_verifies_wolfe_conditions(self, fitter):
        # on the linear link the node constraint binds at lam=1, so the
        # steps also run on the hinge term
        if fitter == "descent":
            k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
            res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        else:
            k, obj = dense_objective(lam=1.0, m=1)
            res = fit_linear(k, obj)
            assert res.diagnostics["n_node_atoms"] > 0
            assert max(e["pass"] for e in res.diagnostics["iterations"]) > 0
        assert res.converged
        entries = [e for e in res.diagnostics["iterations"] if e["accepted_alpha"] is not None]
        assert entries
        for e in entries:
            a = e["accepted_alpha"]
            tri = [t for t in e["trials"] if t["alpha"] == a][-1]
            assert tri["feasible"]
            assert tri["value"] <= e["objective"] + C1 * a * e["deriv0"]
            assert tri["deriv"] >= C2 * e["deriv0"]
            assert e["cosine"] >= DELTA
            assert tri["value"] < e["objective"]

    def test_objective_trace_non_increasing(self):
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        tr = res.objective_trace
        assert np.all(np.diff(tr) <= 1e-10)
        assert tr[-1] < tr[0]

    def test_decrement_bound(self):
        # steps of a curvature-safeguarded Wolfe descent satisfy
        # sum ||grad||^2 <= (f0 - fmin) C / (c1 (1 - c2) delta)
        # with C read off the observed gradient Lipschitz ratios
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        entries = [e for e in res.diagnostics["iterations"] if e["accepted_alpha"] is not None]
        gns = [e["grad_norm"] for e in entries]
        steps = [e["accepted_alpha"] * e["step_norm"] for e in entries]
        ratios = [
            abs(gns[i + 1] - gns[i]) / steps[i]
            for i in range(len(gns) - 1)
            if steps[i] > 0
        ]
        assert ratios
        C = max(ratios)
        lhs = sum(g * g for g in gns)
        rhs = (res.objective_trace[0] - res.objective) * C / (C1 * (1 - C2) * DELTA)
        assert lhs <= rhs

    def test_gradient_norm_drops_by_tolerance_factor(self):
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        gn0 = res.grad_norm_trace[0]
        assert res.grad_norm <= 1e-6 * max(1.0, gn0)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_gradient_filter_norm_matches_the_fit(self, tol):
        # near the optimum the gradient is a filter of many cancelling atoms;
        # its norm must agree with the one the fit measured in coordinates
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        res = fit_descent(k, obj, tol=tol, max_iter=300)
        assert res.converged
        grad = gradient(res.g_hat, obj)
        gn = float(np.sqrt(max(inner_product(grad, grad), 0.0)))
        assert gn == pytest.approx(res.grad_norm, rel=0.01)

    @pytest.mark.parametrize("link", [exponential_link(), softplus_link()], ids=["exp", "softplus"])
    def test_cold_start_is_the_zero_filter(self, link):
        # the fit starts at the zero filter: its first trace entries are the
        # objective and the gradient norm there, and that norm is the
        # stopping scale
        k, obj = dense_objective(lam=2.0, link=link, m=1)
        res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        zero = FilterFunction(k, 1, (), np.empty(0))
        grad = gradient(zero, obj)
        assert res.objective_trace[0] == pytest.approx(objective_value(zero, obj), rel=1e-12)
        assert res.grad_norm_trace[0] == pytest.approx(
            np.sqrt(inner_product(grad, grad)), rel=1e-8
        )
        assert res.diagnostics["grad_norm_scale"] == res.grad_norm_trace[0]

    def test_max_iter_bounds_the_dictionary(self):
        # 260 events after one driver jump: a history atom each, so the
        # initial dictionary holds 262 atoms, and the step budget bounds
        # the rest, at most d (m + N + max_iter + 2) atoms in all
        times = np.arange(0.5, 130.5, 0.5)
        drivers = DriverSeries(131.0, (DriverChannel("z", np.zeros(1), np.ones(1)),))
        obj = Objective(exponential_link(), 1.0, EventSeries(131.0, times), drivers)
        res = fit_descent(SobolevKernel(m=1, horizon=131.0), obj, max_iter=2)
        assert (res.status, res.reason, res.n_iter) == ("max_iter", "max_iter", 2)
        assert 262 < res.diagnostics["n_atoms"] <= 1 + times.size + 2 + 2

    def test_unpenalized_flagged(self):
        k, obj = dense_objective(lam=0.0, link=softplus_link(), m=1)
        res = fit_descent(k, obj, tol=1e-4, max_iter=30)
        assert res.diagnostics["unpenalized"] is True

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unbounded_problem_raises_typed_error(self):
        # without any penalty the exponential-link likelihood is unbounded
        # on clustered data; the solver must fail with its own error type
        k, obj = dense_objective(lam=0.0, link=exponential_link(), m=1)
        try:
            res = fit_descent(k, obj, tol=1e-4, max_iter=60)
        except SolverError as exc:
            # the error names the weight it ran at
            assert "at penalty weight 0.0; without a penalty the objective may be unbounded" in str(exc)
            return
        assert not res.converged or res.diagnostics["unpenalized"]


class TestZeroMarkDriver:
    """A driver whose marks are all 0 adds nothing to any predictor: its
    history and integral atoms are the zero function, which no dictionary
    takes, and each fit reaches the objective of the same data without
    that driver.  Its jumps fall on event times, so the quadrature is the
    same with and without it.  At m = 2 its polynomials have no data and
    no penalty, so their rows of the Hessian are 0; the Newton solve gives
    them a zero step without a ridge, and they do not set the scale of the
    damping ladder."""

    @staticmethod
    def objectives(link):
        times = np.arange(0.5, 8.0, 0.5)
        events = EventSeries(8.0, times)
        tgt = DriverChannel("target", times, np.ones(times.size))
        mute = DriverChannel("mute", np.array([1.0, 2.5, 4.5, 6.0]), np.zeros(4))
        return [Objective(link, 1.0, events, DriverSeries(8.0, chans)) for chans in ((mute, tgt), (tgt,))]

    def test_fit_linear(self):
        obj, ref = self.objectives(linear_link(0.5))
        k = SobolevKernel(m=1, horizon=8.0)
        ws = _Workspace(k, obj)
        ws.add_representers()
        assert np.diag(ws.G).min() > 0.0
        assert [a.channel for a in ws.atoms if a.kind != "h0"] == [1] * (len(obj.events) - 1 + 1)
        res, want = fit_linear(k, obj, tol=1e-9), fit_linear(k, ref, tol=1e-9)
        assert res.converged and want.converged
        assert res.objective == pytest.approx(want.objective, rel=1e-9)

    def test_fit_descent(self, monkeypatch):
        obj, ref = self.objectives(exponential_link(-0.5))
        real, first = _Core.run, []

        def run(core, gamma, psi, grow=None):
            def spy(w_link):
                grow(w_link)
                if not first:  # the dictionary after fit_descent's first grow
                    first.append([a.channel for a in core.ws.atoms if a.kind != "h0"])
                    assert np.diag(core.ws.G).min() > 0.0

            return real(core, gamma, psi, spy)

        monkeypatch.setattr(_Core, "run", run)
        for m, tol in ((1, 1e-9), (2, 1e-6), (2, 1e-9)):
            k = SobolevKernel(m=m, horizon=8.0)
            del first[:]
            res, want = fit_descent(k, obj, tol=tol), fit_descent(k, ref, tol=tol)
            # the target's history atoms and its integral atom only
            assert first[0] == [1] * (len(obj.events) - 1 + 1)
            assert res.converged and want.converged
            assert res.objective == pytest.approx(want.objective, rel=1e-9)
            assert abs(res.n_iter - want.n_iter) <= 2
            assert not res.diagnostics["ridge_used"]
            assert all(a.channel == 1 for a in res.g_hat.atoms if a.kind != "h0")


    def test_the_damping_ladder_starts_as_without_the_driver(self):
        # at m = 2 the driver's polynomials are zero rows of H, and tr(G)
        # over the other coordinates gives the first damped sigma of the fit
        # without the driver
        k = SobolevKernel(m=2, horizon=8.0)
        first = [
            next(r["sigma"] for r in fit_descent(k, obj, tol=1e-9).diagnostics["iterations"] if r["sigma"])
            for obj in self.objectives(exponential_link(-0.5))
        ]
        assert first[0] == pytest.approx(first[1], rel=1e-9)


class TestWorkspace:
    @pytest.mark.parametrize("link", [linear_link(0.5), exponential_link(-0.5)])
    def test_grown_grams_and_compensator_rows_match_direct_ones(self, link):
        # two channels and every kind of atom the fitters add: polynomials,
        # history atoms of events and of nodes, integral atoms of node
        # weights and, on the linear link, the exact integral atoms
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(link, lam, events, DriverSeries(8.0, (z, tgt)))
        kernel = SobolevKernel(m=2, horizon=8.0)
        ws = _Workspace(kernel, obj)
        if link.kind == "linear":
            ws.add_representers()
        else:
            ws.add_point_atoms()
        ws.add_integral_atoms(np.random.default_rng(16).uniform(0.1, 1.0, obj.nodes.size))
        ws.add_point_atoms([8, 40])
        atoms = ws.atoms
        assert {a.kind for a in atoms} >= {"h0", "section", "integrated"}
        assert_allclose(ws.G, full_gram(atoms), rtol=1e-12, atol=1e-12)
        assert_allclose(ws.Gp, h1_gram(atoms), rtol=1e-12, atol=1e-12)
        X = atom_columns(kernel, obj, atoms)[0]
        assert np.array_equal(ws.U, X[: obj.nodes.size])
        assert np.array_equal(ws.E, X[obj.nodes.size :])
        if link.kind == "linear":
            assert ws.comp.tolist() == [exact_compensator(kernel, obj, a) for a in atoms]
        else:
            # only the linear link's compensator is linear in the coefficients
            assert ws.comp is None

    @pytest.mark.parametrize("link", [linear_link(0.5), exponential_link(-0.5)])
    def test_representers_and_plain_atoms_mixed(self, link):
        # m=2, two channels: after the polynomials, which represent no
        # functional and which every workspace starts with, atoms that
        # represent one (integral atoms of random node weights, history
        # atoms of events and nodes, the exact integral atoms) in mixed order
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(link, lam, events, DriverSeries(8.0, (z, tgt)))
        kernel = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(17)
        ws = _Workspace(kernel, obj)
        ws.add_integral_atoms(rng.uniform(0.1, 1.0, obj.nodes.size))
        if link.kind == "linear":
            ws.add_representers()
        else:
            ws.add_point_atoms()
        ws.add_point_atoms([5, 40])
        ws.add_integral_atoms(rng.uniform(-1.0, 1.0, obj.nodes.size))
        atoms = ws.atoms
        assert len(atoms) > 32  # past the first capacity of the buffers
        assert ws.role.tolist()[:5] == [FREE] * 4 + [INTEGRAL] and (ws.role[4:] != FREE).all()
        assert_allclose(ws.G, full_gram(atoms), rtol=1e-12, atol=1e-12)
        assert_allclose(ws.Gp, h1_gram(atoms), rtol=1e-12, atol=1e-12)
        X = atom_columns(kernel, obj, atoms)[0]
        assert np.array_equal(ws.U, X[: obj.nodes.size])
        assert np.array_equal(ws.E, X[obj.nodes.size :])


    @pytest.mark.parametrize("link", [linear_link(0.5), exponential_link(-0.5)])
    def test_g_is_gp_plus_the_identity_on_the_polynomials(self, link):
        # the polynomials are orthonormal in H0 and orthogonal to H1: their
        # rows and columns of Gp are +0.0, and G is Gp plus the identity on
        # their block, bit for bit, in an array of its own
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(link, lam, events, DriverSeries(8.0, (z, tgt)))
        kernel = SobolevKernel(m=2, horizon=8.0)
        ws = _Workspace(kernel, obj)
        if link.kind == "linear":
            ws.add_representers()
        else:
            ws.add_point_atoms()
        ws.add_integral_atoms(np.random.default_rng(18).uniform(-1.0, 1.0, obj.nodes.size))
        ws.add_point_atoms([5, 40])
        n_poly = obj.n_channels * kernel.m
        assert len(ws) > 32 and ws.role.tolist()[: n_poly + 1] == [FREE] * n_poly + [POINT]
        for block in (ws.Gp[:n_poly], ws.Gp[:, :n_poly]):
            assert same_bits(block, np.zeros(block.shape))
        want = ws.Gp.copy()
        want[:n_poly, :n_poly] += np.eye(n_poly)
        assert same_bits(ws.G, want)
        assert not np.shares_memory(ws.G, ws._buf["Gp"])


class TestGradientRoles:
    """Each atom records its role in the gradient, with its point (a node,
    or an event after the nodes); ``_Core`` reads the gradient's H1
    coordinates from these records alone, and its polynomial coordinates
    from the coordinate gradient."""

    def test_a_linear_dictionary_records_every_role(self):
        # the representer basis (polynomials, a history atom per event and
        # channel with an earlier jump there, an integral atom per channel),
        # then the point atoms of three nodes in the order asked for, one
        # per channel with an earlier jump: node 8 follows z's first jump
        # but no event, node 0 precedes every jump
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(linear_link(0.5), lam, events, DriverSeries(8.0, (z, tgt)))
        k = SobolevKernel(m=2, horizon=8.0)
        ws = _Workspace(k, obj)
        ws.add_representers()
        n_h0, n_h = np.count_nonzero(ws.role == FREE), np.count_nonzero(ws.role == POINT)
        h_cols, f_cols = slice(n_h0, n_h0 + n_h), slice(n_h0 + n_h, len(ws))
        ws.add_point_atoms([8, 0, 40])
        history = [pos for pos, a in enumerate(build_h_atoms(k, obj)) if not a.is_zero]
        # the first event has no earlier jump on the target, so that atom is left out
        assert len(history) == 2 * len(events) - 1
        assert ws.role[: h_cols.start].tolist() == [FREE] * (2 * k.m)
        assert ws.role[h_cols].tolist() == [POINT] * len(history)
        assert ws.datum[h_cols].tolist() == [obj.nodes.size + pos // 2 for pos in history]
        assert ws.role[f_cols].tolist() == [INTEGRAL] * 2
        nodes = []
        for q in (8, 0, 40):
            nodes += [q for ch in obj.drivers.channels if (ch.times < obj.nodes[q]).any()]
        assert ws.role[f_cols.stop :].tolist() == [POINT] * len(nodes)
        assert ws.datum[f_cols.stop :].tolist() == nodes == [8, 40, 40]
        # a node's atom is its history atom: the node's pair lags with their
        # jump sizes, on its channel
        for a, q in zip(ws.atoms[f_cols.stop :], nodes):
            ch = obj.drivers.channels[a.channel]
            lags = obj.nodes[q] - ch.times[ch.times < obj.nodes[q]]
            order = np.argsort(lags)
            assert same_bits(a.sec_lags, lags[order])
            assert same_bits(a.sec_weights, ch.sizes[: lags.size][order])
        # the polynomials phi_1..phi_m of each channel, channel-major, come
        # first; every other atom is an H1 atom, with no polynomial content
        for pos, a in enumerate(ws.atoms):
            if pos < 2 * k.m:
                assert (a.kind, a.channel, a.k) == ("h0", pos // k.m, pos % k.m + 1)
            else:
                assert a.part == "r1" and not a.h0.any()

    def test_a_node_with_no_earlier_jump_adds_no_atom(self):
        # node 0 lies before every jump of both channels: its history atoms
        # are empty, dead columns that the dictionary does not take
        events, z, tgt, lam = two_channel_objective()
        obj = Objective(linear_link(0.5), lam, events, DriverSeries(8.0, (z, tgt)))
        k = SobolevKernel(m=2, horizon=8.0)
        ws = _Workspace(k, obj)
        ws.add_representers()
        n = len(ws)
        ws.add_point_atoms([0])
        assert len(ws) == n
        ws.add_point_atoms([5, 40])
        node = np.flatnonzero((ws.role == POINT) & (ws.datum < obj.nodes.size))
        assert node.size > 0
        assert (np.diag(ws.G)[node] > 0.0).all()

    @pytest.mark.parametrize("m", [1, 2])
    def test_gradient_coords_are_the_gradient(self, m):
        # history atoms weighted -phi'/phi, the integral atom of the current
        # node weights and the penalty on the H1 atoms, and the coordinate
        # gradient on the polynomials, give the oracle's gradient as a
        # function: on the descent's dictionary, and on the linear link's
        # representer basis with the node atoms of hinge weights
        kernel, obj = history_objective(m)
        rng = np.random.default_rng(5)
        ws = _Workspace(kernel, obj)
        ws.add_point_atoms()
        gamma = 0.05 * rng.normal(size=len(ws))
        psi = _QuadratureCompensator(obj)
        ws.add_integral_atoms(psi.deriv(ws.U @ gamma))
        gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
        core = _Core(ws, 1e-6, 1)
        _, rho = core.event_terms(ws.E @ gamma)
        grad_c, gam = core.gradient(gamma, rho, psi.deriv(ws.U @ gamma))
        grad = gradient(FilterFunction(kernel, obj.n_channels, tuple(ws.atoms), gamma), obj)
        diff = combine((1.0, FilterFunction(kernel, obj.n_channels, tuple(ws.atoms), gam)), (-1.0, grad))
        assert inner_product(diff, diff) <= 1e-20 * inner_product(grad, grad)
        # the coordinate gradient is G gam, the gradient's products with
        # the atoms, when the dictionary spans the gradient
        assert_allclose(grad_c, ws.G @ gam, rtol=1e-10, atol=1e-12 * np.abs(grad_c).max())

        linear = Objective(linear_link(0.5), 2.0, obj.events, obj.drivers, at_risk=obj.at_risk)
        ws = _Workspace(kernel, linear)
        ws.add_representers()
        # phi_1 = 1 on every channel and small history coefficients,
        # feasible at the events, with multipliers that turn the force on at
        # about half of the nodes
        gamma = np.where(ws.role == POINT, 1e-3 * rng.normal(size=len(ws)), 0.0)
        gamma[np.arange(linear.n_channels) * kernel.m] = 1.0
        y = np.maximum(2.0 * linear.link.value(ws.U @ gamma) + rng.uniform(-1.0, 1.0, linear.nodes.size), 0.0)
        hinge = _Hinge(y, 1.0, linear.link)
        dpsi = hinge.deriv(ws.U @ gamma)
        ws.add_point_atoms(np.flatnonzero(dpsi))
        gamma = np.append(gamma, np.zeros(len(ws) - gamma.size))
        dpsi = hinge.deriv(ws.U @ gamma)
        assert (ws.datum[ws.role == POINT] < linear.nodes.size).any()
        core = _Core(ws, 1e-6, 1)
        _, rho = core.event_terms(ws.E @ gamma)
        gam = core.gradient(gamma, rho, dpsi)[1]
        g = FilterFunction(kernel, linear.n_channels, tuple(ws.atoms), gamma)
        hinge_atoms = tuple(full_kernel(kernel, build_f_atoms(kernel, linear, link_weights=dpsi)))
        hinge_part = FilterFunction(kernel, linear.n_channels, hinge_atoms, np.ones(len(hinge_atoms)))
        grad = combine((1.0, gradient(g, linear)), (1.0, hinge_part))
        diff = combine((1.0, FilterFunction(kernel, linear.n_channels, tuple(ws.atoms), gam)), (-1.0, grad))
        assert inner_product(diff, diff) <= 1e-20 * inner_product(grad, grad)
        # the compensator row's share of the polynomial coordinates is the
        # polynomial content of the oracle's compensator atoms
        compensator = full_kernel(kernel, build_f_atoms(kernel, linear))
        want = np.concatenate([a.h0 for a in sorted(compensator, key=lambda a: a.channel)])
        assert_allclose(ws.comp[: linear.n_channels * kernel.m], want, rtol=1e-12, atol=1e-14)


class TestBulkDictionary:
    """The bulk builders give the bits of atoms added one at a time."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("block", [None, 1, 2000], ids=["one-chunk", "atom-chunks", "chunks"])
    def test_history_block_equals_atoms_added_one_at_a_time(self, m, block, monkeypatch):
        if block is not None:
            # 1 entry leaves one atom per chunk, 2000 a few
            monkeypatch.setattr(likelihood, "_HISTORY_BLOCK", block)
        kernel, obj = history_objective(m)
        ws = _Workspace(kernel, obj)
        ws.add_point_atoms()

        ref = _Workspace(kernel, obj)
        atoms = history_atoms_one_by_one(kernel, obj.events, obj.drivers, part="r1")
        n_ch = obj.n_channels
        want_events = []
        for pos, atom in enumerate(atoms):
            if not atom.is_zero:
                functional = np.zeros(ref._n_rows)
                functional[ref._n_nodes + pos // n_ch] = 1.0
                want_events.append(obj.nodes.size + pos // n_ch)
                append_one(ref, atom, POINT, ref._n_nodes + pos // n_ch, functional=functional)
        # the first event has no history, so its atoms are skipped; each
        # atom's datum is its event's point, after the nodes
        assert obj.nodes.size not in want_events and len(want_events) < len(atoms)
        history = ws.role == POINT
        assert ws.datum[history].tolist() == want_events and np.flatnonzero(~history).size == n_ch * m
        assert_same_workspace(ws, ref)
        # event 3 (t = 3.0) has six jumps on z before it in three groups
        z_atom = [ws.atoms[c] for c in np.flatnonzero(history & (ws.datum == obj.nodes.size + 3))][0]
        assert z_atom.channel == 0 and z_atom.sec_lags.size == 3

    def test_history_chunks_split_the_atoms(self, monkeypatch):
        # 2000 entries split each channel's atoms into several chunks, as
        # the test above assumes
        kernel, obj = history_objective(1)
        sizes = []
        real = likelihood._family_sums

        def spy(table, pos, queries):
            out = real(table, pos, queries)
            sizes.append(out.shape[0])
            return out

        monkeypatch.setattr(likelihood, "_family_sums", spy)
        monkeypatch.setattr(likelihood, "_HISTORY_BLOCK", 2000)
        ws = _Workspace(kernel, obj)
        ws.add_point_atoms()
        # the polynomials, which every workspace starts with, have no
        # sections to sum
        assert len(sizes) > obj.n_channels and sum(sizes) == np.count_nonzero(ws.role == POINT)

    @pytest.mark.parametrize("m", [1, 2])
    def test_representer_basis_equals_atoms_added_one_at_a_time(self, m):
        # fit_linear's basis: the history atoms of fit_descent, then the
        # exact integral atoms, each with its functional: the compensator,
        # the last row of the predictors
        kernel, obj = history_objective(m)
        obj = Objective(linear_link(0.5), 2.0, obj.events, obj.drivers, at_risk=obj.at_risk)
        ws = _Workspace(kernel, obj)
        ws.add_representers()
        ref = _Workspace(kernel, obj)
        n_ch = obj.n_channels
        for pos, atom in enumerate(history_atoms_one_by_one(kernel, obj.events, obj.drivers, part="r1")):
            if not atom.is_zero:
                functional = np.zeros(ref._n_rows)
                functional[ref._n_nodes + pos // n_ch] = 1.0
                append_one(ref, atom, POINT, ref._n_nodes + pos // n_ch, functional=functional)
        compensator = np.zeros(ref._n_rows)
        compensator[-1] = 1.0
        for atom in build_f_atoms(kernel, obj):
            append_one(ref, atom, INTEGRAL, functional=compensator)
        assert_same_workspace(ws, ref)

    @pytest.mark.parametrize("m", [1, 2])
    def test_integral_atoms_from_the_index_equal_atoms_added_one_at_a_time(self, m):
        kernel, obj = history_objective(m, quiet_channel=True)
        rng = np.random.default_rng(23)
        steps = [
            rng.uniform(0.1, 1.0, obj.nodes.size),
            np.zeros(obj.nodes.size),
            rng.uniform(-1.0, 1.0, obj.nodes.size),
            np.where(rng.uniform(size=obj.nodes.size) < 0.5, 0.0, 1.0),
        ]
        ws, ref = _Workspace(kernel, obj), _Workspace(kernel, obj)
        for w in (ws, ref):
            w.add_point_atoms()
        for weights in steps:
            n = len(ws)
            ws.add_integral_atoms(weights)
            functional = np.zeros(ref._n_rows)
            functional[: ref._n_nodes] = weights
            for atom in integral_atoms_one_by_one(kernel, obj, weights, "r1"):
                if not atom.is_zero:
                    append_one(ref, atom, INTEGRAL, functional=functional)
            # the quiet channel has no node pairs, so no integral atom, and
            # zero weights give the zero function, which is left out
            assert len(ws) - n == (obj.n_channels - 1) * weights.any() and len(ws) == len(ref)
        assert_same_workspace(ws, ref)
        u = np.linspace(0.0, 8.0, 41)
        for a, b in zip(ws.atoms, ref.atoms):
            if a.kind != "integrated":
                continue
            # every integral atom of a channel shares its read-only lags
            assert a.sec_lags is obj.node_lag_index(a.channel).lags
            assert not a.sec_lags.flags.writeable
            assert same_bits(a.sections_h0(kernel), b.sections_h0(kernel))
            assert same_bits(smooth_value(a, u), smooth_value(b, u))
            # the index's search positions of the pair lags give the bits
            # of the search
            assert same_bits(obj.integral_column(a), obj.columns(kernel, [b]))
        # the full-kernel atoms carry the same polynomial content
        for a, b in zip(
            full_kernel(kernel, build_f_atoms(kernel, obj, link_weights=steps[2])),
            integral_atoms_one_by_one(kernel, obj, steps[2], "r"),
        ):
            assert same_bits(a.h0, b.h0) and same_bits(a.sec_weights, b.sec_weights)


class TestPairStore:
    """The pair store and the history atoms against a brute force per
    point that reads nothing of the store: the jumps strictly before the
    point, as (point, jump, t - times[:n], sizes[:n])."""

    @staticmethod
    def no_events():
        z = DriverChannel("z", np.array([0.5, 2.0, 2.0, 5.0]), np.array([1.0, 0.5, 2.0, 1.5]))
        return Objective(exponential_link(), 1.0, EventSeries(8.0, np.empty(0)), DriverSeries(8.0, (z,)))

    @staticmethod
    def brute_force(at, times, sizes):
        parts = [[np.empty(0, dtype=np.intp)] * 2 + [np.empty(0)] * 2]
        for q, t in enumerate(at):
            n = int(np.count_nonzero(times < t))
            parts.append([np.full(n, q, dtype=np.intp), np.arange(n), t - times[:n], sizes[:n]])
        return [np.concatenate(arrs) for arrs in zip(*parts)]

    @pytest.mark.parametrize("case", ["history", "no-events"])
    def test_each_half_is_the_brute_force_pairs(self, case):
        obj = history_objective(1, quiet_channel=True)[1] if case == "history" else self.no_events()
        total = 0
        for j, ch in enumerate(obj.drivers.channels):
            for half, at in ((obj._node_pairs, obj.nodes), (obj._event_pairs, obj.events.times)):
                for name, got, want in zip(("point", "jump", "lag", "size"), half[j], self.brute_force(at, ch.times, ch.sizes)):
                    assert same_bits(got, want), (j, name)
                total += half[j][2].size
        assert total > 0 and same_bits(obj.points, np.concatenate([obj.nodes, obj.events.times]))

    def test_history_atoms_of_any_points_are_their_section_sums(self):
        # nodes and events, out of order and repeated
        kernel, obj = history_objective(2, quiet_channel=True)
        n_nodes, at = obj.nodes.size, np.concatenate([obj.nodes, obj.events.times])
        points = np.array([n_nodes + 4, 3, n_nodes + 4, 0, n_nodes + 7, n_nodes - 1])
        atoms = build_h_atoms(kernel, obj, points)
        assert len(atoms) == points.size * obj.n_channels
        for i, p in enumerate(points):
            for j, ch in enumerate(obj.drivers.channels):
                n = int(np.count_nonzero(ch.times < at[p]))
                want = section_sum(kernel, j, at[p] - ch.times[:n], ch.sizes[:n])
                for name in ("sec_lags", "sec_weights"):
                    assert same_bits(getattr(atoms[i * obj.n_channels + j], name), getattr(want, name)), (p, j)
        assert build_h_atoms(kernel, obj, []) == []

    @pytest.mark.parametrize("points", [[-1], "n", [1.7], [True], [[0]]], ids=["negative", "n", "float", "bool", "2-d"])
    def test_history_atoms_refuse_points_outside_the_store(self, points):
        kernel, obj = history_objective(1)
        n = obj.nodes.size + len(obj.events)
        with pytest.raises(ConfigError, match="integer indices"):
            build_h_atoms(kernel, obj, [n] if points == "n" else points)


class TestColumns:
    """``Objective.columns`` is the one route from atoms to predictor
    columns, save the integral atom of node weights, whose column
    ``Objective.integral_column`` reads from the pair-lag index; both give
    the columns of ``oracles.checked_value`` atom by atom."""

    @staticmethod
    def mixed_block(kernel, obj):
        """Per channel: a polynomial, part "r" history atoms, the
        segment-only integral atom, the normal form of a compacted filter
        (sections, segments and h0), a kernel section and integral atoms of
        node weights; the quiet channel has no pairs at all."""
        rng = np.random.default_rng(31)
        h_atoms = [
            a for a in full_kernel(kernel, build_h_atoms(kernel, obj)) if not a.is_zero
        ]
        segments = build_f_atoms(kernel, obj)
        weights = rng.uniform(0.1, 1.0, obj.nodes.size)
        integral = build_f_atoms(kernel, obj, link_weights=weights)
        mix = h_atoms[:4] + segments + [h0_poly(kernel, ch, kernel.m) for ch in range(2)]
        forms = FilterFunction(
            kernel, obj.n_channels, tuple(mix), rng.normal(size=len(mix))
        ).compact().normal_forms
        block = []
        for ch in range(obj.n_channels):
            block += [h0_poly(kernel, ch, 1)]
            block += [a for a in h_atoms if a.channel == ch][:3]
            block += [segments[ch], forms[ch], kernel_section(kernel, ch, 2.5, part="r")]
            block += [integral[ch]]
        for f in forms[:2]:
            assert f.sec_lags.size and f.seg_nodes.size and f.h0.any()
        assert segments[0].seg_nodes.size and not segments[0].sec_lags.size
        return block, integral

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("block_size", [None, 1, 2000], ids=["one-chunk", "atom-chunks", "chunks"])
    def test_mixed_block_equals_the_atoms_one_by_one(self, m, block_size, monkeypatch):
        if block_size is not None:
            monkeypatch.setattr(likelihood, "_HISTORY_BLOCK", block_size)
        kernel, obj = history_objective(m, quiet_channel=True)
        block, integral = self.mixed_block(kernel, obj)
        X, X1 = obj.columns(kernel, block), atom_columns(kernel, obj, block)[1]
        assert same_bits(X, atom_columns(kernel, obj, block)[0])
        q = obj.nodes.size
        for a in block:
            want = atom_columns(kernel, obj, [a])
            assert same_bits(obj.columns(kernel, [a]), want[0])
            # node_column and event_column are the two halves
            assert same_bits(obj.node_column(kernel, a), want[0][:q, 0])
            assert same_bits(obj.event_column(kernel, a), want[0][q:, 0])
        # the quiet channel's integral atom is zero, which the workspace
        # never appends
        for a in (a for a in integral if not a.is_zero):
            x, x1 = atom_columns(kernel, obj, [a])
            assert same_bits(obj.integral_column(a), x) and same_bits(x, x1)
        # a block's smooth part drops each atom's polynomial part, and only
        # that: the full-kernel atoms differ from their smooth parts
        assert not same_bits(X, X1)
        assert same_bits(obj.columns(kernel, [a.projected() for a in block]), X1)

    def test_every_column_goes_through_objective_columns(self, monkeypatch):
        kernel, obj = history_objective(2, quiet_channel=True)
        calls = []
        real = Objective.columns

        def spy(self, kernel, atoms):
            calls.append((len(atoms), False))
            return real(self, kernel, atoms)

        real_integral = Objective.integral_column

        def integral_spy(self, atom):
            calls.append((1, True))
            return real_integral(self, atom)

        monkeypatch.setattr(Objective, "columns", spy)
        monkeypatch.setattr(Objective, "integral_column", integral_spy)
        ws = _Workspace(kernel, obj)
        # every channel's polynomials as one block, which the workspace
        # starts with
        n_poly = obj.n_channels * kernel.m
        assert calls == [(n_poly, False)]
        del calls[:]
        ws.add_point_atoms()
        n_history = int(np.sum(ws.role == POINT))
        assert calls == [(n_history, False)]
        del calls[:]
        ws.add_integral_atoms(np.ones(obj.nodes.size))
        assert np.sum(ws.role == INTEGRAL) == 2 and calls == [(1, True)] * 2
        del calls[:]
        obj.node_column(kernel, ws.atoms[-1])
        obj.event_column(kernel, ws.atoms[-1])
        assert calls == [(1, False)] * 2
        del calls[:]
        # the representer basis, which needs the compensator row of the
        # linear link: its history and integral atoms as one block each; the
        # quiet channel has no integral atom
        linear = Objective(linear_link(0.0), obj.penalty_weight, obj.events, obj.drivers, at_risk=obj.at_risk)
        _Workspace(kernel, linear).add_representers()
        assert calls == [(n_poly, False), (n_history, False), (obj.n_channels - 1, False)]


class TestGrowthCost:
    """Growing the dictionary costs its arithmetic: an H1 atom joins with
    its column and its functional, and the gradient's polynomial
    coordinates come from the coordinate gradient, so growth takes no h0
    stack, no ``SobolevKernel.h0_basis`` and no domain check.  The
    workspace once completed each H1 atom with h0 stacks, at most one per
    history block and one per channel and fit for the integral atoms; the
    tests keep those bounds' names and now hold the growth to none."""

    @staticmethod
    def spy(monkeypatch, calls, per_call, grown):
        """Count ``h0_basis``, ``_check_domain`` and every ``_h0_stack`` in
        ``calls``, and append to ``per_call`` the counts that each call of
        the ``_Workspace`` methods named in ``grown`` takes."""
        assert not hasattr(optimizer, "_h0_stack")
        for owner, name in (
            (SobolevKernel, "h0_basis"), (SobolevKernel, "_check_domain"),
            (kernel_module, "_h0_stack"), (filters, "_h0_stack"), (likelihood, "_h0_stack"),
        ):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for name in grown:

            def grow(ws, *args, _real=getattr(_Workspace, name), **kwargs):
                before = dict(calls)
                _real(ws, *args, **kwargs)
                per_call.append({key: n - before.get(key, 0) for key, n in calls.items()})

            monkeypatch.setattr(_Workspace, name, grow)

    @pytest.mark.parametrize("m", [1, 2])
    def test_integral_atoms_take_one_h0_stack_per_channel_and_fit(self, m, monkeypatch):
        # the descent's integral atoms: no call at all, on any channel
        kernel, obj = history_objective(m, quiet_channel=True)
        calls, per_call = {}, []
        self.spy(monkeypatch, calls, per_call, ["add_integral_atoms"])
        res = fit_descent(kernel, obj, tol=1e-6)
        assert res.converged and len(per_call) > 3
        assert all(not any(counts.values()) for counts in per_call)

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_history_block_takes_one_h0_stack(self, m, monkeypatch):
        kernel, obj = history_objective(m, quiet_channel=True)
        calls, per_call = {}, []
        self.spy(monkeypatch, calls, per_call, ["add_point_atoms"])
        # one block holds the atoms of both channels with jumps, and takes
        # no call at all
        ws = _Workspace(kernel, obj)
        ws.add_point_atoms()
        assert {ws.atoms[c].channel for c in np.flatnonzero(ws.role == POINT)} == {0, 1}
        assert len(per_call) == 1 and not any(per_call[0].values())
        # so does the descent's history block
        del per_call[:]
        res = fit_descent(kernel, obj, tol=1e-6)
        assert res.converged and len(per_call) == 1 and not any(per_call[0].values())
        # the linear link's history block and the node atoms that join as
        # their hinge forces turn on: only ``Objective.comp_row``'s domain
        # checks of its interval ends
        del per_call[:]
        linear = Objective(linear_link(0.5), 1.0, obj.events, obj.drivers, at_risk=obj.at_risk)
        res = fit_linear(kernel, linear)
        assert res.diagnostics["n_node_atoms"] > 0 and len(per_call) >= 2
        for counts in per_call:
            assert counts.get("_check_domain", 0) > 0
            assert not any(n for key, n in counts.items() if key != "_check_domain")

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_finished_fit_holds_no_integral_prefix_table(self, m):
        # ``Objective.integral_column`` reads an integral atom's prefix
        # table once, so the result does not carry the tables: an atom
        # holds its fields and nothing else
        kernel, obj = history_objective(m, quiet_channel=True)
        res = fit_descent(kernel, obj, tol=1e-6)
        integral = [a for a in res.g_hat.atoms if a.kind == "integrated"]
        assert res.converged and len(integral) > 3
        fields = {f.name for f in dataclasses.fields(Atom)}
        assert all(vars(a).keys() == fields for a in integral)

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_block_takes_its_compensator_row_from_one_table_per_channel(self, m, monkeypatch):
        # the linear link's compensator row of a block: per channel one
        # domain check and one prefix table per kind (sections, segments),
        # and each atom's entry with the
        # bits of its own exact compensator, polynomial content included
        kernel, obj = history_objective(m, quiet_channel=True)
        linear = Objective(linear_link(0.5), 1.0, obj.events, obj.drivers, at_risk=obj.at_risk)
        atoms = [h0_poly(kernel, ch, k) for ch in range(3) for k in range(1, m + 1)]
        atoms += full_kernel(kernel, build_h_atoms(kernel, linear) + build_f_atoms(kernel, linear))
        atoms += build_f_atoms(kernel, linear, link_weights=np.linspace(0.0, 1.0, linear.nodes.size))
        want = [exact_compensator(kernel, linear, a) for a in atoms]
        calls = {}
        for owner, name in (
            (SobolevKernel, "_check_domain"), (likelihood, "_prefix_table"),
        ):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        row = linear.comp_row(kernel, atoms)
        assert row.tolist() == want and np.count_nonzero(row) > len(atoms) // 2
        # two channels with jumps, each with sections and segments; the
        # polynomials' h0 antiderivatives check the domain once per end
        assert calls == {"_check_domain": 2 * 3, "_prefix_table": 2 * 2}
        # the workspace's row is the block's
        ws = _Workspace(kernel, linear)
        ws.add_representers()
        assert ws.comp.tolist() == [exact_compensator(kernel, linear, a) for a in ws.atoms]

class TestKernelHorizon:
    """A kernel whose horizon is not the data's is a ConfigError, raised
    before any atom is built: a longer one would fit and then fail to
    evaluate, and a shorter one cannot hold the data's lags."""

    @staticmethod
    def objective(link, monkeypatch=None):
        times = np.array([0.4, 1.1, 1.5, 2.6, 3.0, 3.9, 4.7, 5.5])
        events = EventSeries(6.0, times)
        drivers = DriverSeries(6.0, (DriverChannel("target", times, np.ones(times.size)),))
        if monkeypatch is not None:
            def no_atoms(*args, **kwargs):
                raise AssertionError("an atom or a column was built")

            for name in ("build_h_atoms", "build_f_atoms", "h0_poly"):
                monkeypatch.setattr(optimizer, name, no_atoms)
            monkeypatch.setattr(Objective, "columns", no_atoms)
        return Objective(link, 2.0, events, drivers)

    @pytest.mark.parametrize("horizon", [12.0, 3.0])
    def test_fit_linear_rejects(self, horizon, monkeypatch):
        obj = self.objective(linear_link(0.5), monkeypatch)
        with pytest.raises(ConfigError, match="horizon"):
            fit_linear(SobolevKernel(1, horizon), obj)

    @pytest.mark.parametrize("horizon", [12.0, 3.0])
    def test_fit_descent_rejects(self, horizon, monkeypatch):
        obj = self.objective(exponential_link(-0.5), monkeypatch)
        with pytest.raises(ConfigError, match="horizon"):
            fit_descent(SobolevKernel(1, horizon), obj)

    @pytest.mark.parametrize("horizon", [12.0, 3.0])
    def test_columns_reject(self, horizon):
        obj = self.objective(exponential_link(-0.5))
        kernel = SobolevKernel(1, horizon)
        with pytest.raises(ConfigError, match="horizon"):
            obj.columns(kernel, [h0_poly(kernel, 0, 1)])


class TestSolveSpd:
    @pytest.mark.parametrize("kind, ridge", [("spd", False), ("singular", True), ("indefinite", True)])
    def test_matches_cho_factor_bit_for_bit(self, kind, ridge):
        rng = np.random.default_rng(29)
        A = rng.standard_normal((12, 12))
        if kind == "spd":
            H = A @ A.T + 0.1 * np.eye(12)
        elif kind == "singular":
            B = A[:, :7]
            B[5] = B[2]
            H = B @ B.T
        else:
            H = A + A.T
        rhs = rng.standard_normal(12)
        x, used = _solve_spd(H, rhs)
        want, want_used = solve_spd_cho_factor(H, rhs)
        assert used == want_used == ridge
        assert same_bits(x, want)

    @pytest.mark.parametrize("kind", ["spd", "singular"])
    def test_a_dead_coordinate_takes_a_zero_step(self, kind):
        # a zero row of H with a zero right-hand side, as the phi columns of
        # a channel with no nonzero jump give, leaves the solve of the live
        # block as it is, with no ridge for the dead coordinates' sake
        rng = np.random.default_rng(31)
        A = rng.standard_normal((10, 10 if kind == "spd" else 6))
        live_H = A @ A.T + (0.1 * np.eye(10) if kind == "spd" else 0.0)
        live_rhs = rng.standard_normal(10)
        live = np.ones(12, dtype=bool)
        live[[3, 8]] = False
        H, rhs = np.zeros((12, 12)), np.zeros(12)
        H[np.ix_(live, live)], rhs[live] = live_H, live_rhs
        rhs[8] = -0.0
        x, used = _solve_spd(H, rhs)
        want, want_used = _solve_spd(live_H, live_rhs)
        assert used == want_used == (kind == "singular")
        assert same_bits(x[live], want) and same_bits(x[~live], np.zeros(2))
        # a zero row with a nonzero right-hand side is no dead coordinate:
        # the system has no solution, and the ridge stands in
        rhs[3] = 1.0
        assert _solve_spd(H, rhs)[1]

    @pytest.mark.filterwarnings("error")
    def test_a_live_zero_diagonal_takes_a_finite_step(self):
        # a coordinate whose diagonal is 0 but whose right-hand side is not
        # is scaled by 1, not by a square root of a tiny floor, so that its
        # ridge step is 1 / ridge, not an overflow to inf
        x, used = _solve_spd(np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]))
        assert used and np.isfinite(x).all()
        assert_allclose(x, [1e10, 0.5], rtol=1e-9)

    def test_non_finite_system_raises(self):
        H = np.eye(3)
        H[0, 1] = np.nan
        with pytest.raises(SolverError):
            _solve_spd(H, np.ones(3))


class TestCoreHessian:
    @pytest.mark.parametrize("link", [exponential_link(), softplus_link()], ids=["exp", "softplus"])
    def test_matches_the_oracle_on_a_fitted_dictionary(self, link, monkeypatch):
        k, obj = dense_objective(lam=2.0, link=link, m=1)
        res, ws = fit_with_workspace(monkeypatch, fit_descent, k, obj, tol=1e-6, max_iter=300)
        assert res.converged
        gamma = res.g_hat.coefficients
        xn, xe = ws.U @ gamma, ws.E @ gamma
        core = _Core(ws, 1e-6, 1)
        H = core.hessian(_QuadratureCompensator(obj), xn, xe, link.value(xe))
        want = hessian_coords(res.g_hat, obj, res.g_hat.atoms)
        assert H.shape == (len(res.g_hat.atoms),) * 2
        assert_allclose(H, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


class TestCoreDirection:
    def test_damped_direction_does_not_depend_on_the_atoms_scale(self):
        # scaling every atom by s scales G and H by s^2; the damping ladder
        # must then give the same function-space direction, as Newton does.
        # s times an H1 atom represents s times its functional, so its Gram
        # entries scale by s^2; a workspace starts with unit polynomials, so
        # the G that the direction reads is scaled as a whole
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        ws1 = first_history_atoms(k, obj, 5)
        atoms = ws1.atoms
        s = 1e3
        ws2, functionals = _Workspace(k, obj), iter(ws1._buf["F"])
        for a, role, datum in zip(atoms[1:], ws1.role[1:], ws1.datum[1:]):
            scaled = dataclasses.replace(a, sec_weights=s * a.sec_weights, seg_weights=s * a.seg_weights)
            append_one(ws2, scaled, role, datum, functional=s * next(functionals))
        assert_allclose(ws2.Gp, s * s * ws1.Gp, rtol=1e-12)
        ws2.G = s * s * ws1.G
        # a Hessian whose eigenvalues relative to G span 1e-4..1e4, and a
        # gradient mostly along the stiffest of them: Newton fails the
        # angle test
        rng = np.random.default_rng(0)
        w, V = np.linalg.eigh(ws1.G)
        L = V * np.sqrt(w)
        Q, _ = np.linalg.qr(rng.standard_normal((len(atoms),) * 2))
        H = L @ Q @ np.diag(np.logspace(-4, 4, len(atoms))) @ Q.T @ L.T
        H = 0.5 * (H + H.T)
        e = np.zeros(len(atoms))
        e[0], e[-1] = 0.01, 1.0
        gam = V @ ((Q @ e) / np.sqrt(w))
        gn = float(np.sqrt(gam @ ws1.G @ gam))
        d1, d0_1, cos1, kind1, sigma1 = _Core(ws1, 1e-6, 1).direction(H, ws1.G @ gam, gam, gn)
        d2, d0_2, cos2, kind2, sigma2 = _Core(ws2, 1e-6, 1).direction(
            s * s * H, s * (ws1.G @ gam), gam / s, gn
        )
        assert kind1 == kind2 == "damped_newton"
        assert cos1 >= DELTA
        assert cos2 == pytest.approx(cos1, rel=1e-9)
        assert d0_2 == pytest.approx(d0_1, rel=1e-9)
        assert sigma2 == pytest.approx(sigma1, rel=1e-9) and sigma1 > 0.0
        assert_allclose(s * d2, d1, rtol=0, atol=1e-9 * np.abs(d1).max())


class TestResumedLadder:
    """``_Core.direction`` resumes the damping ladder one rung below the
    rung it last accepted and steps down while rungs pass, up while they
    fail.  Where passing is monotone in sigma, that is the rung a climb from
    the bottom finds, with the same direction, slope, cosine and sigma."""

    @staticmethod
    def assert_same_direction(got, want):
        assert same_bits(got[0], want[0])
        assert same_bits(np.array(got[1:3]), np.array(want[1:3]))
        assert got[3] == want[3]
        assert (got[4] is None and want[4] is None) or same_bits(np.float64(got[4]), np.float64(want[4]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_fit_directions_equal_the_ascending_ladder(self, m, monkeypatch):
        k, obj = dense_objective(lam=1.0, link=exponential_link(), m=m)
        real, seen = _Core.direction, []

        def checked(core, H, grad_c, gam, gn):
            want = ascending_ladder(core, H, grad_c, gam, gn)
            start = max(core._rung - 1, 0)
            got = real(core, H, grad_c, gam, gn)
            self.assert_same_direction(got, want)
            seen.append((got[3], start, core._rung))
            return got

        monkeypatch.setattr(_Core, "direction", checked)
        res = fit_descent(k, obj, tol=1e-6, max_iter=300)
        assert res.converged
        damped = [(start, rung) for kind, start, rung in seen if kind == "damped_newton"]
        # some damped steps resume above the bottom of the ladder, where the
        # climb would have solved every rung below
        assert len(damped) >= 3 and any(start > 0 for start, _ in damped)
        # each record carries the sigma of its direction, which trace.csv
        # does not write
        records = res.diagnostics["iterations"]
        assert len(records) == len(seen) and "sigma" not in STEP_FIELDS
        for r in records:
            assert (r["sigma"] == 0.0) == (r["direction"] == "newton")
            assert r["direction"] == "newton" or r["sigma"] > 0.0

    def test_a_fit_starts_its_first_damped_search_mid_ladder(self, monkeypatch):
        # on the benchmark's exp-link datasets the first accepted rung of a
        # fit mostly lies 1-4 above the bottom: a first search resumed as if
        # from rung 4 solves fewer systems than a climb from the bottom, and
        # finds the same sigma at every step
        path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
        spec = importlib.util.spec_from_file_location("bench_generate", path)
        generate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
        horizon = generate.window_for(20)
        real_solve, real_init, calls = optimizer._solve_spd, _Core.__init__, [0]

        def counted(H, rhs):
            calls[0] += 1
            return real_solve(H, rhs)

        def fits():
            calls[0], sigmas = 0, []
            for i in range(10):
                times = generate.hawkes_exactly_n(generate.dataset_rng(401, i), 20, horizon)
                drivers = DriverSeries(horizon, (DriverChannel("target", times, np.ones(times.size)),))
                obj = Objective(exponential_link(), 5.0, EventSeries(horizon, times), drivers)
                res = fit_descent(SobolevKernel(m=1, horizon=horizon), obj)
                sigmas.append([r["sigma"] for r in res.diagnostics["iterations"]])
            return calls[0], sigmas

        def from_the_bottom(core, *args):
            real_init(core, *args)
            core._rung = 0

        monkeypatch.setattr(optimizer, "_solve_spd", counted)
        mid, sigmas = fits()
        monkeypatch.setattr(_Core, "__init__", from_the_bottom)
        bottom, want = fits()
        assert mid < bottom
        assert sigmas == want
        assert any(sigma for run in sigmas for sigma in run)

    def test_a_rung_two_below_the_last_is_found_by_stepping_down(self):
        # Hessians whose eigenvalues relative to G span 10^-a..10^a, with
        # the gradient mostly along the stiffest: the spread and the weight
        # e0 on the softest set the rung that passes the angle test
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        ws = first_history_atoms(k, obj, 5)
        n = len(ws)
        w, V = np.linalg.eigh(ws.G)
        L = V * np.sqrt(w)
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
        core, rungs = _Core(ws, 1e-6, 1), []
        for a, e0 in [(3, 0.01), (3, 0.1), (1, 0.01), (3, 0.01), (3, 0.001), (4, 0.1)]:
            H = L @ Q @ np.diag(np.logspace(-a, a, n)) @ Q.T @ L.T
            H = 0.5 * (H + H.T)
            e = np.zeros(n)
            e[0], e[-1] = e0, 1.0
            gam = V @ ((Q @ e) / np.sqrt(w))
            gn = float(np.sqrt(gam @ ws.G @ gam))
            want = ascending_ladder(core, H, ws.G @ gam, gam, gn)
            got = core.direction(H, ws.G @ gam, gam, gn)
            self.assert_same_direction(got, want)
            rungs.append(core._rung if got[3] == "damped_newton" else got[3])
        # 4 -> 2 starts at 3 and steps down to 2, below which 1 fails; a
        # Newton step keeps the rung; 2 -> 4 climbs from 1; 4 -> 3 stops
        # when 2 fails; 3 -> 2 starts at 2 and stops when 1 fails
        assert rungs == [4, 2, "newton", 4, 3, 2]


class TestCoreValue:
    @pytest.mark.parametrize("link", [exponential_link(), softplus_link(), linear_link(0.5)])
    def test_value_is_the_line_at_alpha_zero(self, link, monkeypatch):
        # F at gamma, as ``run`` traces it, has the bits of the line's trial
        # at alpha = 0 along delta = 0 and along any direction, and is the
        # library's objective plus, on the linear link, the hinge term; a
        # zero gamma of either sign is where a -0.0 could part them
        k, obj = dense_objective(lam=2.0, link=link, m=2)
        if link.kind == "linear":
            fit, ws = fit_with_workspace(monkeypatch, fit_linear, k, obj)
            psi = _Hinge(np.full(obj.nodes.size, 0.5), 10.0, link)
        else:
            fit, ws = fit_with_workspace(monkeypatch, fit_descent, k, obj, tol=1e-6, max_iter=300)
            psi = _QuadratureCompensator(obj)
        # every iterate passes the gradient test, so ``run`` stops where it
        # starts, with F there as its last traced objective
        core = _Core(ws, 1e300, 1)
        c = fit.g_hat.coefficients
        delta = np.random.default_rng(3).normal(size=c.size)
        for gamma in (np.zeros(c.size), -np.zeros(c.size), c, 0.9 * c):
            assert core.run(gamma, psi)[1] == "grad"
            f0 = core.objective_trace[-1]
            xn, xe = ws.U @ gamma, ws.E @ gamma
            g_gp_g = float(gamma @ (ws.Gp @ gamma))
            r_g = float(ws.comp @ gamma) + core.const if ws.comp is not None else 0.0
            for direction in (np.zeros(c.size), delta):
                feasible, at0, _ = core.line(psi, gamma, direction, xn, xe, g_gp_g, r_g)(0.0)
                assert feasible and same_bits(np.float64(at0), np.float64(f0))
            hinge = psi.value(xn) if link.kind == "linear" else 0.0
            g = FilterFunction(k, 1, tuple(ws.atoms), gamma)
            assert_allclose(f0, objective_value(g, obj) + hinge, rtol=1e-10)


    @pytest.mark.parametrize("fit", [fit_descent, fit_linear])
    def test_every_traced_and_trial_value_is_the_one_objective(self, fit, monkeypatch):
        # F has one home, ``_Core.objective``: the values it returns, in
        # order, are each traced iterate's objective followed by the values
        # of the feasible trials of the step taken from it; after them
        # ``fit_linear`` traces one more entry, its objective without the
        # hinge
        link = linear_link(0.5) if fit is fit_linear else exponential_link()
        k, obj = dense_objective(lam=2.0, link=link, m=2)
        values, real = [], _Core.objective

        def spy(core, *args):
            values.append(real(core, *args))
            return values[-1]

        monkeypatch.setattr(_Core, "objective", spy)
        res = fit(k, obj)
        steps = {rec["iteration"]: rec["trials"] for rec in res.diagnostics["iterations"]}
        traced = res.objective_trace[:-1] if fit is fit_linear else res.objective_trace
        want = []
        for i, f in enumerate(traced):
            want += [f] + [t["value"] for t in steps.get(i, []) if t["feasible"]]
        assert res.converged and len(steps) > 3 and len(want) > len(traced)
        assert same_bits(np.array(values), np.array(want))


class TestLeanIntegralAtoms:
    @pytest.mark.parametrize("m", [1, 2])
    def test_lean_route_equals_the_block_path(self, m):
        # the integral atom's column from the pair-lag index and its Gram
        # entries leave U, E, G and Gp as appending it through
        # ``Objective.columns`` does
        kernel, obj = history_objective(m, quiet_channel=True)
        rng = np.random.default_rng(43)
        ws, ref = _Workspace(kernel, obj), _Workspace(kernel, obj)
        for w in (ws, ref):
            w.add_point_atoms()
        for weights in (rng.uniform(0.1, 1.0, obj.nodes.size), rng.uniform(-1.0, 1.0, obj.nodes.size)):
            n = len(ws)
            ws.add_integral_atoms(weights)
            functional = np.zeros(ref._n_rows)
            functional[: ref._n_nodes] = weights
            for a in build_f_atoms(kernel, obj, link_weights=weights):
                if not a.is_zero:
                    append_one(ref, a, INTEGRAL, functional=functional)
            assert len(ws) - n == 2
            for name in ("U", "E", "G", "Gp"):
                assert same_bits(getattr(ws, name), getattr(ref, name)), name
        assert_same_workspace(ws, ref)


class TestNormalForms:
    """``FilterFunction.normal_forms`` has the bits of one stable sort and
    ``bincount`` of every section (``sorted_normal_forms``), also where
    atoms share one sections array, as a fit's integral atoms share their
    node lags."""

    @staticmethod
    def merged_sizes(monkeypatch):
        sizes, real = [], filters._merge

        def spy(lags, owner=None):
            sizes.append(lags.size)
            return real(lags, owner)

        monkeypatch.setattr(filters, "_merge", spy)
        return sizes

    @staticmethod
    def assert_forms(g, forms=None):
        for form, want in zip(forms or g.normal_forms, sorted_normal_forms(g)):
            for name, arr in zip(("sec_lags", "sec_weights", "seg_nodes", "seg_weights", "h0"), want):
                assert same_bits(getattr(form, name), arr), name

    @staticmethod
    def dictionary(kernel, obj, rng, n_integral=4):
        """Polynomials, part "r" history atoms and integral atoms of random
        node weights on two channels, the segment-only integral atom on one."""
        atoms = [h0_poly(kernel, ch, k) for ch in range(2) for k in range(1, kernel.m + 1)]
        atoms += [a for a in full_kernel(kernel, build_h_atoms(kernel, obj)) if not a.is_zero]
        atoms.append(build_f_atoms(kernel, obj)[1])
        for _ in range(n_integral):
            weights = rng.uniform(-1.0, 1.0, obj.nodes.size)
            atoms += build_f_atoms(kernel, obj, link_weights=weights)
        return atoms

    @staticmethod
    def objective(m):
        """A driver and the target, whose event-pair lags keep clear of
        their node-pair lags."""
        events, z, tgt, _ = two_channel_objective()
        obj = Objective(exponential_link(-0.5), 2.0, events, DriverSeries(8.0, (z, tgt)))
        return SobolevKernel(m=m, horizon=8.0), obj

    @pytest.mark.parametrize("m", [1, 2])
    def test_shared_lags_merge_with_the_bits_of_one_sort(self, m):
        kernel, obj = self.objective(m)
        rng = np.random.default_rng(41)
        atoms = self.dictionary(kernel, obj, rng)
        self.assert_forms(FilterFunction(kernel, 2, tuple(atoms), rng.normal(size=len(atoms))))

    @pytest.mark.parametrize("m", [1, 2])
    def test_lags_within_the_tolerance_take_the_sort(self, m, monkeypatch):
        kernel, obj = self.objective(m)
        rng = np.random.default_rng(47)
        atoms = self.dictionary(kernel, obj, rng)
        # a warm start's normal form holds the node lags themselves, in an
        # array of its own; a section 5e-13 above a node lag joins it
        warm = FilterFunction(kernel, 2, tuple(atoms), rng.normal(size=len(atoms))).compact()
        lag = float(obj.node_lag_index(0).lags[7])
        for extra in (list(warm.atoms), [kernel_section(kernel, 0, lag + 5e-13)]):
            mixed = atoms + extra
            g = FilterFunction(kernel, 2, tuple(mixed), rng.normal(size=len(mixed)))
            sizes = self.merged_sizes(monkeypatch)
            forms, sorted_sizes = g.normal_forms, list(sizes)
            self.assert_forms(g, forms)
            # the sort of every copy, on channel 0 at least
            assert max(sorted_sizes) >= 4 * obj.node_lag_index(0).lags.size
        # history lags within 1e-14 of node lags, and node lags that merge
        kernel, obj = history_objective(m)
        atoms = self.dictionary(kernel, obj, rng)
        self.assert_forms(FilterFunction(kernel, 2, tuple(atoms), rng.normal(size=len(atoms))))

    def test_a_fit_beside_its_compacted_form(self):
        # a fit's dictionary, and the same beside its own compacted form,
        # which holds the integral atoms' node lags in an array of its own
        k, obj = dense_objective(lam=1.0, link=exponential_link(), m=2)
        fit = fit_descent(k, obj, tol=1e-6, max_iter=300).g_hat
        compact = fit.compact()
        self.assert_forms(FilterFunction(k, 1, fit.atoms, fit.coefficients))
        both = fit.atoms + compact.atoms
        self.assert_forms(FilterFunction(k, 1, both, np.concatenate([fit.coefficients, -compact.coefficients])))


class TestCoreNoiseFloor:
    def test_a_norm_that_rounds_below_zero_stops_the_core(self, monkeypatch):
        # a gam'G gam that rounds below zero must not read as a zero norm
        # and pass the gradient test
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        ws = fit_with_workspace(monkeypatch, fit_descent, k, obj, tol=1e-6, max_iter=300)[1]
        psi = _QuadratureCompensator(obj)
        gamma = np.full(len(ws), 0.01)
        core = _Core(ws, 1e-6, 50)
        _, rho = core.event_terms(ws.E @ gamma)
        gam = core.gradient(gamma, rho, psi.deriv(ws.U @ gamma))[1]
        gn2 = gam @ ws.G @ gam
        assert gam.any() and gn2 > 0.0
        # a Gram that takes a hair more than gam'G gam off along gam
        u = gam / (gam @ gam)
        ws.G[...] -= gn2 * (1.0 + 1e-9) * np.outer(u, u)
        assert gam @ ws.G @ gam < 0.0

        gamma_out, reason = core.run(gamma, psi)
        res = core.result(gamma_out, reason)
        assert reason == "noise_floor"
        assert res.status == "stalled" and not res.converged
        assert res.n_iter == 0 and res.grad_norm == 0.0
        assert np.array_equal(res.g_hat.coefficients, gamma)


class TestFitResult:
    def test_converged_property(self):
        k, obj = dense_objective(lam=5.0)
        res = fit_linear(k, obj)
        assert isinstance(res, FitResult)
        assert res.converged == (res.status == "converged")
        assert len(res.objective_trace) == len(res.grad_norm_trace)
        assert res.objective == res.objective_trace[-1]
        assert res.diagnostics["grad_norm_scale"] == res.grad_norm_trace[0]

    @pytest.mark.parametrize("tol", [1e-13, 1e-15])
    @pytest.mark.parametrize("fitter", ["descent", "linear"])
    def test_converged_only_within_tolerance(self, fitter, tol):
        # one status rule for both fitters: "converged" exactly when the
        # stopping quantity (the KKT residual on the linear link) meets
        # tol, with feasible nodes; a fit that ends above it has not
        if fitter == "descent":
            k, obj = dense_objective(lam=5.0, link=exponential_link(), m=2)
            res = fit_descent(k, obj, tol=tol)
            residual, feasible = res.grad_norm, True
        else:
            k, obj = dense_objective(lam=5.0, m=2)
            res = fit_linear(k, obj, tol=tol)
            residual = res.diagnostics["kkt_residual"]
            feasible = res.diagnostics["max_node_violation"] <= 1e-7
        met = residual <= tol * max(1.0, res.grad_norm_trace[0]) and feasible
        assert res.converged == met
        assert res.converged == (res.reason == "grad")

    def test_iteration_budget_respected(self):
        k, obj = dense_objective(lam=1.0, link=exponential_link(), m=1)
        res = fit_descent(k, obj, tol=1e-12, max_iter=5)
        assert res.n_iter <= 5
        assert not res.converged


BAD_STOPPING = [(0.0, 100), (-1.0, 100), (np.nan, 100), (np.inf, 100), (1e-6, 0)]


class TestStoppingArguments:
    """Both fitters share one check of tol and max_iter."""

    @pytest.mark.parametrize("tol, max_iter", BAD_STOPPING)
    def test_fit_linear_rejects(self, tol, max_iter):
        k, obj = dense_objective(lam=5.0)
        with pytest.raises(ConfigError):
            fit_linear(k, obj, tol=tol, max_iter=max_iter)

    @pytest.mark.parametrize("tol, max_iter", BAD_STOPPING)
    def test_fit_descent_rejects(self, tol, max_iter):
        k, obj = dense_objective(lam=2.0, link=exponential_link(), m=1)
        with pytest.raises(ConfigError):
            fit_descent(k, obj, tol=tol, max_iter=max_iter)
