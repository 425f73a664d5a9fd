"""Likelihood pieces: predictor, intensity, objective, gradient, compensator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from glppm.data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from glppm.errors import ConfigError, DomainError, InfeasibleError
from glppm import likelihood
from glppm.filters import FilterFunction, h0_poly, integrated_segments
from glppm.kernel import SobolevKernel
from glppm.likelihood import (
    LinkSpec,
    Objective,
    QuadratureConfig,
    compensator,
    exponential_link,
    intensity,
    linear_link,
    linear_predictor,
    neg_log_lik,
    objective_value,
    softplus_link,
)

from oracles import (
    atom_columns,
    combine,
    gradient,
    hessian_coords,
    inner_product,
    kernel_section,
    project,
    same_bits,
    section_sum,
    segment_integrals_one_by_one,
)


def small_filter(kernel, rng, n_channels, scale=0.01):
    """Small random filter, safe for the linear link on unit-size data."""
    atoms = []
    for ch in range(n_channels):
        atoms.append(h0_poly(kernel, ch, 1))
        atoms.append(kernel_section(kernel, ch, rng.uniform(0.5, kernel.horizon / 2)))
        atoms.append(
            section_sum(kernel, ch, rng.uniform(0, kernel.horizon / 2, 2), rng.normal(size=2))
        )
    coeffs = scale * rng.normal(size=len(atoms))
    return FilterFunction(kernel, n_channels, tuple(atoms), coeffs)


def riemann_nll(g, link, events, drivers, n=200_000):
    """Midpoint-rule oracle for the negative log-likelihood, unit at-risk."""
    t = events.horizon
    mid = (np.arange(n) + 0.5) * (t / n)
    x = linear_predictor(g, drivers, mid)
    integral = float(np.sum(link.value(x))) * (t / n)
    xe = linear_predictor(g, drivers, events.times)
    return integral - float(np.sum(np.log(link.value(xe))))


class TestLinearPredictor:
    def test_single_jump_identity_filter(self):
        # one jump of size 1 at 0.5 with g(u) = u
        k = SobolevKernel(m=2, horizon=4.0)
        g = FilterFunction(k, 1, (h0_poly(k, 0, 2),), np.ones(1))
        drivers = DriverSeries(4.0, (DriverChannel("z", np.array([0.5]), np.ones(1)),))
        assert linear_predictor(g, drivers, 1.5) == 1.0
        # the sum is over the strict past, so the jump at s itself is excluded
        assert linear_predictor(g, drivers, 0.5) == 0.0
        assert linear_predictor(g, drivers, 0.4) == 0.0

    def test_marks_weight_the_sum(self):
        k = SobolevKernel(m=1, horizon=4.0)
        g = FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.ones(1))
        drivers = DriverSeries(
            4.0, (DriverChannel("z", np.array([0.2, 0.4]), np.array([1.0, 2.0])),)
        )
        assert linear_predictor(g, drivers, 1.0) == 3.0

    def test_channels_add(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (h0_poly(k, 0, 1), h0_poly(k, 1, 1)), np.array([1.0, 10.0]))
        # at s=4: z jumps 0.5, 2.0 (sizes 1, 0.5) and events 1.5, 3.0
        assert linear_predictor(g, drivers, 4.0) == 1.5 + 10.0 * 2.0

    def test_vectorized_matches_scalar(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(0)
        g = small_filter(k, rng, 2)
        s = rng.uniform(0, 8, 40)
        vec = linear_predictor(g, drivers, s)
        for i, si in enumerate(s):
            assert_allclose(vec[i], linear_predictor(g, drivers, float(si)), rtol=1e-13)

    def test_out_of_window(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        with pytest.raises(DomainError):
            linear_predictor(g, drivers, 9.0)

    def test_nan_time_rejected(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        with pytest.raises(DomainError):
            linear_predictor(g, drivers, float("nan"))
        with pytest.raises(DomainError):
            intensity(g, linear_link(1.0), AtRiskProcess.unit(), drivers, [2.0, float("nan")])


class TestLinkSpec:
    def test_exp_spelling_is_the_exponential_link_with_offset(self):
        x = np.linspace(-3.0, 2.0, 11)
        d = math.log(0.5)
        short, long = LinkSpec("exp", d), LinkSpec("exponential", d)
        assert short.kind == "exp"
        for method in ("value", "deriv", "deriv2"):
            got = getattr(short, method)(x)
            assert_allclose(got, getattr(long, method)(x), rtol=0.0, atol=0.0)
            assert_allclose(got, np.exp(x + d), rtol=1e-15)

    def test_softplus_offset(self):
        x = np.linspace(-3.0, 2.0, 11)
        link = softplus_link(0.3)
        assert_allclose(link.value(x), np.log1p(np.exp(x + 0.3)), rtol=1e-14)
        sig = 1.0 / (1.0 + np.exp(-(x + 0.3)))
        assert_allclose(link.deriv(x), sig, rtol=1e-14)
        assert_allclose(link.deriv2(x), sig * (1.0 - sig), rtol=1e-13)

    @pytest.mark.parametrize("kind, d", [("linear", 0.5), ("exp", math.log(0.5)), ("softplus", -0.5)])
    def test_value_on_a_float_has_the_bits_of_the_array_path(self, kind, d):
        # the simulator reads the link on Python floats; math.exp in place
        # of np.exp differs in the last bit on part of these draws on some
        # hosts (AVX-512), and exp overflows to inf beyond about 709
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0.0, 3.0, 100_000), rng.uniform(-800.0, 800.0, 100_000)])
        special = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for link, xs in ((LinkSpec(kind, d), x.tolist() + special), (LinkSpec(kind), special)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = [link.value(v) for v in xs]
                want = [link.value(np.array([v]))[0] for v in xs]
            assert same_bits(np.array(got, dtype=float), np.array(want)), link

    @pytest.mark.parametrize("kind", ["linear", "exponential", "exp", "softplus"])
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, kind, d):
        with pytest.raises(ConfigError):
            LinkSpec(kind, d)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec("logistic")

    def test_offset_changes_exponential_objective(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        g = small_filter(k, np.random.default_rng(5), 2)
        f0 = objective_value(g, Objective(exponential_link(), 1.0, events, drivers))
        fd = objective_value(
            g, Objective(exponential_link(math.log(0.5)), 1.0, events, drivers)
        )
        assert abs(fd - f0) > 1e-3
        # with no events the zero filter's compensator is the baseline e^d t
        empty = EventSeries(8.0, np.empty(0))
        no_drivers = DriverSeries(8.0, (DriverChannel("target", np.empty(0), np.empty(0)),))
        obj = Objective(LinkSpec("exp", math.log(0.5)), 1.0, empty, no_drivers)
        assert_allclose(objective_value(FilterFunction(k, 1, (), np.empty(0)), obj), 4.0, rtol=1e-14)


class TestIntensity:
    def test_baseline_only(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        y = AtRiskProcess.unit()
        assert intensity(g, linear_link(0.7), y, drivers, 3.3) == 0.7
        assert intensity(g, exponential_link(), y, drivers, 3.3) == 1.0
        assert intensity(g, exponential_link(math.log(0.5)), y, drivers, 3.3) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_at_risk_zero_gives_zero(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        y = AtRiskProcess([7.0], [1.0, 0.0])
        assert intensity(g, linear_link(0.5), y, drivers, 7.5) == 0.0

    def test_domain_error_reports_location(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        # a negative constant pushes the predictor below -d once history exists
        g = FilterFunction(k, 2, (h0_poly(k, 0, 1),), np.array([-2.0]))
        y = AtRiskProcess.unit()
        with pytest.raises(DomainError) as err:
            intensity(g, linear_link(0.5), y, drivers, 4.0)
        assert err.value.at == 4.0
        assert err.value.value < -0.5

    def test_softplus_always_defined(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (h0_poly(k, 0, 1),), np.array([-2.0]))
        y = AtRiskProcess.unit()
        val = intensity(g, softplus_link(), y, drivers, 4.0)
        assert val == pytest.approx(math.log1p(math.exp(-3.0)), rel=1e-12)


class TestNegLogLik:
    def test_no_events_exact(self):
        k = SobolevKernel(m=1, horizon=10.0)
        events = EventSeries(10.0, np.empty(0))
        drivers = DriverSeries(10.0, (DriverChannel("target", np.empty(0), np.empty(0)),))
        obj = Objective(linear_link(0.4), 1.0, events, drivers)
        g = FilterFunction(k, 1, (), np.empty(0))
        assert neg_log_lik(g, obj) == 0.4 * 10.0

    def test_single_event_exact(self):
        k = SobolevKernel(m=1, horizon=10.0)
        events = EventSeries(10.0, np.array([3.7]))
        drivers = DriverSeries(10.0, (DriverChannel("target", np.array([3.7]), np.ones(1)),))
        obj = Objective(linear_link(0.4), 1.0, events, drivers)
        g = FilterFunction(k, 1, (), np.empty(0))
        assert neg_log_lik(g, obj) == 0.4 * 10.0 - math.log(0.4)

    @pytest.mark.parametrize("link_name", ["linear", "exponential", "softplus"])
    def test_against_dense_riemann(self, tiny, link_name):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(42)
        g = small_filter(k, rng, 2)
        link = {
            "linear": linear_link(1.0),
            "exponential": exponential_link(),
            "softplus": softplus_link(),
        }[link_name]
        obj = Objective(link, 0.0, events, drivers)
        assert_allclose(neg_log_lik(g, obj), riemann_nll(g, link, events, drivers), rtol=1e-6)

    def test_zero_intensity_at_event_infeasible(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        obj = Objective(linear_link(0.0), 1.0, events, drivers)
        g = FilterFunction(k, 2, (), np.empty(0))
        with pytest.raises(InfeasibleError):
            neg_log_lik(g, obj)

    def test_event_while_not_at_risk_rejected(self, tiny):
        events, drivers = tiny
        # the window (2.5, 4) is not at risk but contains the event at 3.0
        y = AtRiskProcess([2.5, 4.0], [1.0, 0.0, 1.0])
        with pytest.raises(InfeasibleError):
            Objective(linear_link(0.5), 1.0, events, drivers, at_risk=y)

    def test_mark_scaling_invariance(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(7)
        g = small_filter(k, rng, 2)
        doubled = DriverSeries(
            8.0,
            tuple(
                DriverChannel(c.name, c.times, 2.0 * c.sizes) for c in drivers.channels
            ),
        )
        obj1 = Objective(exponential_link(), 0.0, events, drivers)
        obj2 = Objective(exponential_link(), 0.0, events, doubled)
        assert neg_log_lik(g, obj1) == neg_log_lik(combine((0.5, g)), obj2)


class TestObjective:
    def test_penalty_identity(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(3)
        g = small_filter(k, rng, 2)
        lam = 2.5
        obj = Objective(linear_link(1.0), lam, events, drivers)
        want = neg_log_lik(g, obj) + lam * g.h1_seminorm_sq()
        assert_allclose(objective_value(g, obj), want, rtol=1e-15)
        obj0 = Objective(linear_link(1.0), 0.0, events, drivers)
        assert objective_value(g, obj0) == neg_log_lik(g, obj0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_the_predictor_has_the_bits_of_the_per_form_columns(self, tiny, m, monkeypatch):
        # the predictor at the nodes and the events reads the normal forms,
        # each channel's column summed in channel order as the per-form
        # oracle sums them; the likelihood reads it, with no columns call
        events, drivers = tiny
        k = SobolevKernel(m=m, horizon=8.0)
        g = small_filter(k, np.random.default_rng(4 + m), 2)
        obj = Objective(exponential_link(0.1), 1.0, events, drivers)
        x = linear_predictor(g, drivers, obj.points)
        assert all(f.h0.any() for f in g.normal_forms)
        want = sum(atom_columns(k, obj, [f])[0][:, 0] for f in g.normal_forms)
        q = obj.nodes.size
        assert same_bits(x, want)
        assert same_bits(x[:q], sum(obj.node_column(k, f) for f in g.normal_forms))
        assert same_bits(x[q:], sum(obj.event_column(k, f) for f in g.normal_forms))

        calls = []
        columns = Objective.columns

        def counting(self, kernel, atoms):
            calls.append(len(atoms))
            return columns(self, kernel, atoms)

        monkeypatch.setattr(Objective, "columns", counting)
        for link in (exponential_link(0.1), linear_link(1.0)):
            neg_log_lik(g, Objective(link, 1.0, events, drivers))
        assert calls == []

    def test_horizon_mismatch(self, tiny):
        events, drivers = tiny
        bad = DriverSeries(9.0, drivers.channels)
        with pytest.raises(ConfigError):
            Objective(linear_link(1.0), 1.0, EventSeries(9.0, events.times), drivers)
        with pytest.raises(ConfigError):
            Objective(linear_link(1.0), 1.0, events, bad)

    def test_quadrature_config_validation(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(nodes_per_interval=1)
        QuadratureConfig(nodes_per_interval=2)

    def test_convexity_linear_link(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(11)
        obj = Objective(linear_link(1.0), 0.7, events, drivers)
        for _ in range(5):
            g1 = small_filter(k, rng, 2)
            g2 = small_filter(k, rng, 2)
            f1 = objective_value(g1, obj)
            f2 = objective_value(g2, obj)
            for a in (0.25, 0.5, 0.75):
                mix = combine((a, g1), (1 - a, g2))
                assert objective_value(mix, obj) <= a * f1 + (1 - a) * f2 + 1e-9

    def test_quadrature_refinement_stable(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(13)
        g = small_filter(k, rng, 2)
        vals = []
        for n in (16, 32):
            obj = Objective(
                exponential_link(), 0.0, events, drivers,
                quadrature=QuadratureConfig(nodes_per_interval=n),
            )
            vals.append(neg_log_lik(g, obj))
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_linear_link_exact_path_ignores_quadrature(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(14)
        g = small_filter(k, rng, 2)
        vals = []
        for n in (8, 20):
            obj = Objective(
                linear_link(1.0), 0.0, events, drivers,
                quadrature=QuadratureConfig(nodes_per_interval=n),
            )
            vals.append(neg_log_lik(g, obj))
        assert_allclose(vals[0], vals[1], rtol=1e-13)


class TestGradient:
    @pytest.mark.parametrize("link_name", ["linear", "exponential", "softplus"])
    def test_directional_derivative(self, tiny, link_name):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(21)
        link = {
            "linear": linear_link(1.0),
            "exponential": exponential_link(),
            "softplus": softplus_link(),
        }[link_name]
        obj = Objective(link, 0.8, events, drivers)
        eps = 1e-5
        for _ in range(4):
            g = small_filter(k, rng, 2)
            h = small_filter(k, rng, 2)
            grad = gradient(g, obj)
            got = inner_product(grad, h)
            fd = (
                objective_value(combine((1.0, g), (eps, h)), obj)
                - objective_value(combine((1.0, g), (-eps, h)), obj)
            ) / (2 * eps)
            assert_allclose(got, fd, rtol=1e-5, atol=1e-9)

    def test_zero_filter_no_events_gradient_is_integrated_atom(self):
        events = EventSeries(6.0, np.empty(0))
        drivers = DriverSeries(
            6.0, (DriverChannel("target", np.array([2.0]), np.ones(1)),)
        )
        k = SobolevKernel(m=1, horizon=6.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        grad = gradient(FilterFunction(k, 1, (), np.empty(0)), obj)
        # no event terms and no penalty terms survive: only the compensator part
        assert all(a.kind == "integrated" for a in grad.atoms)
        # its pairing with any h equals int_0^t h(s - 2) ds over the window
        probe = FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.ones(1))
        assert_allclose(inner_product(grad, probe), 4.0, rtol=1e-12)

    def test_penalty_term_included(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(23)
        g = small_filter(k, rng, 2)
        obj0 = Objective(linear_link(1.0), 0.0, events, drivers)
        obj1 = Objective(linear_link(1.0), 3.0, events, drivers)
        g0 = gradient(g, obj0)
        g1 = gradient(g, obj1)
        h = small_filter(k, rng, 2)
        # the difference of the two gradients is 2 lambda <Pg, Ph>
        want = 2.0 * 3.0 * inner_product(project(g), project(h))
        assert_allclose(inner_product(g1, h) - inner_product(g0, h), want, rtol=1e-9, atol=1e-12)


class TestHessian:
    def test_matches_gradient_differences(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(31)
        g = small_filter(k, rng, 2)
        atoms = list(g.atoms)
        obj = Objective(exponential_link(), 0.5, events, drivers)
        H = hessian_coords(g, obj, atoms, kernel=k)
        n = len(atoms)
        assert H.shape == (n, n)
        assert_allclose(H, H.T, atol=1e-10)
        eps = 1e-4
        probes = [FilterFunction(k, 2, (a,), np.ones(1)) for a in atoms]
        for j in range(n):
            cp = np.array(g.coefficients)
            cp[j] += eps
            cm = np.array(g.coefficients)
            cm[j] -= eps
            gp = gradient(FilterFunction(k, 2, g.atoms, cp), obj)
            gm = gradient(FilterFunction(k, 2, g.atoms, cm), obj)
            for i in range(n):
                fd = (inner_product(gp, probes[i]) - inner_product(gm, probes[i])) / (2 * eps)
                assert_allclose(H[i, j], fd, rtol=1e-4, atol=1e-7)

    def test_linear_link_hessian_psd(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(32)
        g = small_filter(k, rng, 2)
        obj = Objective(linear_link(1.0), 1.0, events, drivers)
        H = hessian_coords(g, obj, list(g.atoms), kernel=k)
        assert np.linalg.eigvalsh(H).min() >= -1e-9

    def test_empty_basis(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        obj = Objective(linear_link(1.0), 1.0, events, drivers)
        H = hessian_coords(FilterFunction(k, 2, (), np.empty(0)), obj, [], kernel=k)
        assert H.shape == (0, 0)


class TestCompensator:
    def test_baseline_is_linear_in_time(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        y = AtRiskProcess.unit()
        for s in (0.0, 1.7, 8.0):
            assert compensator(g, linear_link(0.4), y, drivers, s) == pytest.approx(0.4 * s, abs=1e-14)

    def test_against_dense_riemann(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(41)
        g = small_filter(k, rng, 2)
        y = AtRiskProcess.unit()
        for link in (linear_link(1.0), exponential_link()):
            s = 6.3
            n = 200_000
            mid = (np.arange(n) + 0.5) * (s / n)
            lam = intensity(g, link, y, drivers, mid)
            want = float(np.sum(lam)) * (s / n)
            got = compensator(g, link, y, drivers, s)
            assert_allclose(got, want, rtol=1e-6)

    def test_monotone_and_continuous(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(43)
        g = small_filter(k, rng, 2)
        y = AtRiskProcess.unit()
        link = exponential_link()
        s_grid = np.linspace(0, 8, 17)
        vals = [compensator(g, link, y, drivers, float(s)) for s in s_grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # continuity across a driver jump
        before = compensator(g, link, y, drivers, 2.0 - 1e-8)
        at = compensator(g, link, y, drivers, 2.0)
        assert abs(at - before) <= 1e-6

    def test_additive_over_subintervals(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(44)
        g = small_filter(k, rng, 2)
        y = AtRiskProcess.unit()
        link = linear_link(1.0)
        total = compensator(g, link, y, drivers, 8.0)
        parts = 0.0
        cuts = [0.0, 1.1, 2.0, 4.9, 8.0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            parts += compensator(g, link, y, drivers, b) - compensator(g, link, y, drivers, a)
        assert_allclose(parts, total, rtol=0, atol=1e-10)

    def test_out_of_window(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (), np.empty(0))
        with pytest.raises(DomainError):
            compensator(g, linear_link(1.0), AtRiskProcess.unit(), drivers, 8.5)

    @pytest.mark.parametrize("bad", [11.0, -0.5, float("nan")])
    @pytest.mark.parametrize("route", ["compensator", "linear_predictor"])
    def test_a_bad_time_in_a_long_array_is_named(self, tiny, route, bad):
        # numpy's repr of 5000 times elides the middle; the error names the
        # first bad time and the horizon, and carries that time as ``at``
        events, drivers = tiny
        g = FilterFunction(SobolevKernel(m=1, horizon=8.0), 2, (), np.empty(0))
        s = np.linspace(0.0, 8.0, 5000)
        s[[3001, 4000]] = bad, 9.0
        with pytest.raises(DomainError) as err:
            if route == "compensator":
                compensator(g, exponential_link(0.0), AtRiskProcess.unit(), drivers, s)
            else:
                linear_predictor(g, drivers, s)
        assert f"{bad} outside [0, 8.0]" in str(err.value)
        assert same_bits(err.value.at, bad)

    @pytest.mark.parametrize("m", [1, 2])
    def test_the_linear_route_integrates_each_channel_in_one_pass(self, tiny, m, monkeypatch):
        # per channel one domain check of the segment ends, one prefix table
        # per kind (sections, segments) and the normal form's polynomial
        # antiderivative at each end, with no per-atom antiderivative; the
        # values have the bits of integrating each normal form from 0 to
        # each end through the independent oracle
        events, drivers = tiny
        k = SobolevKernel(m=m, horizon=8.0)
        rng = np.random.default_rng(47)
        segments = tuple(integrated_segments(k, ch, [0.5, 1.0], [2.0, 4.5], [0.3, -0.2]) for ch in range(2))
        smooth = small_filter(k, rng, 2, scale=0.05)
        g = combine((1.0, smooth), (1.0, FilterFunction(k, 2, segments, np.full(2, 0.05))))
        for f in g.normal_forms:
            assert f.sec_lags.size and f.seg_nodes.size and f.h0.any()
        y = AtRiskProcess([4.0], [1.0, 0.5])
        s = np.array([0.0, 0.7, 2.0, 3.0, 5.5, 8.0])
        link = linear_link(1.0)
        with monkeypatch.context() as patch:
            patch.setattr(likelihood, "_segment_integrals", segment_integrals_one_by_one)
            want = compensator(g, link, y, drivers, s)
        calls = {}
        for owner, name in (
            (SobolevKernel, "_check_domain"), (likelihood, "_prefix_table"),
            (likelihood, "_segment_integrals"),
        ):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        got = compensator(g, link, y, drivers, s)
        assert same_bits(got, want) and got[-1] > 0.0
        assert calls == {"_segment_integrals": 2, "_check_domain": 2 * 3, "_prefix_table": 2 * 2}

    @pytest.mark.parametrize("link", [linear_link(1.0), exponential_link()])
    def test_array_call_matches_scalar_calls(self, tiny, link):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        g = small_filter(k, np.random.default_rng(45), 2)
        y = AtRiskProcess([4.0], [1.0, 0.5])
        s = np.array([0.0, 0.7, 2.0, 2.0, 3.0, 5.5, 8.0])
        got = compensator(g, link, y, drivers, s)
        want = [compensator(g, link, y, drivers, float(t)) for t in s]
        assert got.shape == s.shape
        assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("link", [linear_link(1.0), exponential_link()])
    def test_a_numpy_integer_order_is_accepted(self, tiny, link):
        events, drivers = tiny
        g = small_filter(SobolevKernel(m=2, horizon=8.0), np.random.default_rng(46), 2)
        assert QuadratureConfig(np.int64(8)).nodes_per_interval == 8
        quad = Objective(link, 1.0, events, drivers, quadrature=QuadratureConfig(np.int64(8)))
        assert neg_log_lik(g, quad) == neg_log_lik(g, Objective(link, 1.0, events, drivers))

    @pytest.mark.parametrize("link", [linear_link(1.0), exponential_link()])
    def test_channel_count_must_match_the_data(self, tiny, link):
        from glppm.simulator import time_rescale

        events, drivers = tiny
        one = DriverSeries(8.0, drivers.channels[1:])
        k = SobolevKernel(m=1, horizon=8.0)
        g = FilterFunction(k, 2, (kernel_section(k, 1, 1.0),), np.array([0.1]))
        y = AtRiskProcess.unit()
        with pytest.raises(ConfigError):
            time_rescale(g, link, events, one)
        with pytest.raises(ConfigError):
            intensity(g, link, y, one, 3.0)
        with pytest.raises(ConfigError):
            compensator(g, link, y, one, 3.0)

    @pytest.mark.parametrize(
        "route", ["SimSpec", "linear_predictor", "compensator", "time_rescale", "intensity"]
    )
    def test_a_filter_that_is_not_a_filter_function_is_refused(self, tiny, route):
        # every filter the program builds, fits, writes or reads is a
        # FilterFunction; one vectorized callable per channel is refused
        from glppm.simulator import SimSpec, time_rescale

        events, drivers = tiny
        g = [lambda u: 0.1 * np.exp(-u), lambda u: 0.2 * np.exp(-u)]
        link, y = linear_link(1.0), AtRiskProcess.unit()
        call = {
            "SimSpec": lambda: SimSpec(link=link, filters=g[:1], horizon=8.0),
            "linear_predictor": lambda: linear_predictor(g, drivers, 3.0),
            "compensator": lambda: compensator(g, link, y, drivers, 3.0),
            "time_rescale": lambda: time_rescale(g, link, events, drivers),
            "intensity": lambda: intensity(g, link, y, drivers, 3.0),
        }[route]
        with pytest.raises(ConfigError, match="a filter must be a FilterFunction, got list"):
            call()
