"""Thinning simulator and time-rescaling transform."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import kstest

import glppm.filters
import glppm.simulator
from glppm.data import AtRiskProcess, DriverChannel, DriverSeries, EventSeries
from glppm.errors import ConfigError, SolverError
from glppm.filters import FilterFunction, h0_poly, integrated_segments
from glppm.kernel import SobolevKernel
from glppm.likelihood import Objective, exponential_link, linear_link, softplus_link
from glppm.optimizer import fit_descent
from glppm.simulator import SimSpec, simulate, time_rescale

from oracles import (
    fresh_antiderivative,
    fresh_value,
    interpolated,
    kernel_section,
    piecewise_linear,
    reference_envelopes,
    same_bits,
    thinning_reference,
)


def zero(horizon: float, n_channels: int = 1) -> FilterFunction:
    """The zero filter on n_channels channels, m = 1."""
    return FilterFunction(SobolevKernel(m=1, horizon=horizon), n_channels, (), np.empty(0))


def exp_decay(a: float, b: float):
    """The closed form u -> a exp(-b u)."""
    return lambda u: a * np.exp(-b * u)


class TestSpecValidation:
    def test_filter_count_must_match_channels(self):
        with pytest.raises(ConfigError, match="filter has 2 channels, expected 1"):
            SimSpec(link=linear_link(1.0), filters=zero(5.0, 2), horizon=5.0)

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            SimSpec(link=linear_link(1.0), filters=zero(5.0), horizon=0.0)

    def test_needs_some_channel(self):
        with pytest.raises(ConfigError):
            SimSpec(
                link=linear_link(1.0),
                filters=zero(5.0),
                horizon=5.0,
                self_exciting=False,
            )

    def test_bound_must_be_positive(self):
        with pytest.raises(ConfigError):
            SimSpec(
                link=linear_link(1.0),
                filters=zero(5.0),
                horizon=5.0,
                bound=-1.0,
            )

    def test_negative_jump_sizes_need_explicit_bound(self):
        drivers = DriverSeries(
            5.0, (DriverChannel("z", np.array([1.0]), np.array([-1.0])),)
        )
        with pytest.raises(ConfigError):
            SimSpec(
                link=linear_link(1.0),
                filters=zero(5.0, 2),
                horizon=5.0,
                drivers=drivers,
            )
        spec = SimSpec(
            link=linear_link(1.0),
            filters=interpolated(SobolevKernel(m=1, horizon=5.0), exp_decay(1.0, 1.0), None),
            horizon=5.0,
            drivers=drivers,
            bound=2.0,
        )
        ev, dr = simulate(spec, seed=0)
        assert ev.horizon == 5.0

    def test_filter_kernel_shorter_than_the_simulation(self):
        # the thinning predictor reads a FilterFunction without a domain
        # check, so a lag beyond the kernel's horizon must be ruled out here
        k = SobolevKernel(m=1, horizon=10.0)
        g = FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.array([0.1]))
        with pytest.raises(ConfigError, match="horizon shorter"):
            SimSpec(link=linear_link(1.0), filters=g, horizon=10.5)
        for horizon in (10.0, 4.0):
            assert SimSpec(link=linear_link(1.0), filters=g, horizon=horizon).horizon == horizon

    def test_max_events_validation(self):
        with pytest.raises(ConfigError):
            SimSpec(
                link=linear_link(1.0),
                filters=zero(5.0),
                horizon=5.0,
                max_events=0,
            )


class TestSimulate:
    def test_seed_determinism(self):
        spec = SimSpec(
            link=linear_link(0.5),
            filters=interpolated(SobolevKernel(m=1, horizon=30.0), exp_decay(0.3, 1.0)),
            horizon=30.0,
        )
        ev1, dr1 = simulate(spec, seed=7)
        ev2, dr2 = simulate(spec, seed=7)
        assert np.array_equal(ev1.times, ev2.times)
        assert np.array_equal(dr1.channels[0].times, dr2.channels[0].times)
        ev3, _ = simulate(spec, seed=8)
        assert not np.array_equal(ev1.times, ev3.times)

    def test_output_feeds_objective_directly(self, hawkes50):
        events, drivers = hawkes50
        assert drivers.channels[0].name == "target"
        assert np.array_equal(drivers.channels[0].times, events.times)
        assert np.all(events.times > 0) and np.all(events.times <= 50.0)

    def test_homogeneous_poisson_counts(self):
        # zero filter: unit-rate Poisson process, check the mean count
        t, n_seeds = 200.0, 40
        spec = SimSpec(link=linear_link(1.0), filters=zero(t), horizon=t)
        counts = [len(simulate(spec, seed=s)[0].times) for s in range(n_seeds)]
        assert abs(np.mean(counts) - t) <= 4 * np.sqrt(t / n_seeds)

    def test_exponential_link_baseline(self):
        # exp(0) = 1: same unit-rate Poisson law
        t, n_seeds = 200.0, 40
        spec = SimSpec(link=exponential_link(), filters=zero(t), horizon=t)
        counts = [len(simulate(spec, seed=100 + s)[0].times) for s in range(n_seeds)]
        assert abs(np.mean(counts) - t) <= 4 * np.sqrt(t / n_seeds)

    def test_hawkes_mean_rate(self):
        # stationary rate d / (1 - int g), about 0.5 / 0.75 = 2/3 for the
        # interpolant of 0.5 exp(-2 u)
        g = interpolated(SobolevKernel(m=1, horizon=600.0), exp_decay(0.5, 2.0))
        spec = SimSpec(link=linear_link(0.5), filters=g, horizon=600.0)
        rate = 0.5 / (1.0 - fresh_antiderivative(g, 0, 600.0))
        rates = [len(simulate(spec, seed=s)[0].times) / 600.0 for s in range(4)]
        assert abs(np.mean(rates) - rate) <= 0.1 * rate

    @pytest.mark.parametrize("horizon", [100.0, 400.0])
    def test_candidates_per_event_do_not_grow_with_horizon(self, horizon, monkeypatch):
        # every candidate reads the filter once through SimSpec.filter_values
        # (plus one read for the bound envelope); a bound that ignores how
        # old past events are draws more candidates per event the longer
        # the run
        calls, filter_values = 0, SimSpec.filter_values

        def counting(spec, channel, lags):
            nonlocal calls
            calls += 1
            return filter_values(spec, channel, lags)

        monkeypatch.setattr(SimSpec, "filter_values", counting)
        g = interpolated(SobolevKernel(m=1, horizon=horizon), exp_decay(0.5, 2.0))
        spec = SimSpec(link=linear_link(0.5), filters=g, horizon=horizon)
        n_events = sum(len(simulate(spec, seed=s)[0].times) for s in range(3))
        assert n_events > 0.5 * horizon
        assert calls <= 3 * n_events

    def test_exogenous_driver_mean_count(self):
        # zero self filter: Poisson with rate d + sum_k z_k g(s - sigma_k),
        # g the interpolant of exp(-u)
        d, t, n_seeds = 0.5, 20.0, 40
        sigma, z = np.array([2.0, 5.0, 9.0, 15.0]), np.array([1.0, 2.0, 0.5, 3.0])
        drivers = DriverSeries(t, (DriverChannel("z", sigma, z),))
        g = interpolated(SobolevKernel(m=1, horizon=t), exp_decay(1.0, 1.0), None)
        spec = SimSpec(link=linear_link(d), filters=g, horizon=t, drivers=drivers)
        counts = [len(simulate(spec, seed=200 + s)[0].times) for s in range(n_seeds)]
        mean = d * t + float(z @ fresh_antiderivative(g, 0, t - sigma))
        assert abs(np.mean(counts) - mean) <= 4 * np.sqrt(mean / n_seeds)

    def test_explosive_process_raises(self):
        spec = SimSpec(
            link=linear_link(1.0),
            filters=interpolated(SobolevKernel(m=1, horizon=400.0), exp_decay(1.5, 0.1)),
            horizon=400.0,
            max_events=500,
        )
        with pytest.raises(SolverError):
            simulate(spec, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bound_that_overflows_raises_at_once(self):
        # g is 0 up to lag 1 and rises to 800 at lag 1.001, flat after it:
        # the envelope at lag 0 is 1.01 * 800, and exp(808) overflows to
        # inf: every candidate would land on t = 0, where the intensity is
        # exp(0), until the candidate budget ran out
        drivers = DriverSeries(10.0, (DriverChannel("z", np.zeros(1), np.ones(1)),))
        k = SobolevKernel(m=1, horizon=10.0)
        atoms, coeffs = piecewise_linear(k, 0, [0.0, 1.0, 1.001], [0.0, 0.0, 800.0])
        spec = SimSpec(
            link=exponential_link(),
            filters=FilterFunction(k, 1, tuple(atoms), np.array(coeffs)),
            horizon=10.0,
            self_exciting=False,
            drivers=drivers,
            max_events=10,
        )
        with pytest.raises(SolverError, match=r"bound inf at t=0\.0; the process is explosive"):
            simulate(spec, seed=0)

    def test_supplied_bound_enforced(self):
        # a bound below the true intensity must be reported, not ignored
        spec = SimSpec(
            link=linear_link(2.0),
            filters=zero(50.0),
            horizon=50.0,
            bound=1.0,
        )
        with pytest.raises(SolverError):
            simulate(spec, seed=3)

    def test_at_risk_gates_events(self):
        y = AtRiskProcess([10.0, 20.0], [1.0, 0.0, 1.0])
        spec = SimSpec(
            link=linear_link(1.0),
            filters=zero(30.0),
            horizon=30.0,
            at_risk=y,
        )
        ev, _ = simulate(spec, seed=5)
        inside = (ev.times > 10.0) & (ev.times <= 20.0)
        assert not inside.any()
        assert len(ev.times) > 5

    def test_zero_bound_window_has_no_candidate(self):
        # linear link with d = 0: before the driver's first jump the
        # predictor and its envelope bound are 0, so the window is skipped
        drivers = DriverSeries(
            20.0, (DriverChannel("z", np.array([6.0, 9.0]), np.array([1.0, 2.0])),)
        )
        spec = SimSpec(
            link=linear_link(0.0),
            filters=interpolated(SobolevKernel(m=1, horizon=20.0), exp_decay(2.0, 1.0), exp_decay(0.2, 1.0)),
            horizon=20.0,
            drivers=drivers,
        )
        for seed in range(5):
            ev, _ = simulate(spec, seed=seed)
            assert len(ev) > 0 and ev.times.min() > 6.0

    def test_exogenous_drivers_carried_through(self):
        drivers = DriverSeries(
            20.0, (DriverChannel("z", np.array([2.0, 9.0]), np.array([1.0, 2.0])),)
        )
        spec = SimSpec(
            link=linear_link(0.3),
            filters=interpolated(SobolevKernel(m=1, horizon=20.0), exp_decay(1.0, 1.0), exp_decay(0.2, 1.0)),
            horizon=20.0,
            drivers=drivers,
        )
        ev, dr = simulate(spec, seed=11)
        names = [c.name for c in dr.channels]
        assert names == ["z", "target"]
        assert np.array_equal(dr.channels[0].times, drivers.channels[0].times)
        assert np.array_equal(dr.channels[1].times, ev.times)


class TestFilterSpec:
    def test_draws_the_events_of_fresh_evaluations(self, monkeypatch):
        # the predictor evaluates the filter from the prefix tables it binds
        # for its normal forms, unchecked; the reference thinning loop with
        # reads that build every kernel sum afresh must draw the same
        # events, bit for bit.
        # g_ch falls from h at lag 0 to 0 at lag s and stays there:
        # h - (h/s) R1(s, .) = h (1 - u/s)+ at m = 1, and at m = 2
        # h - (3h/s) phi_2 + (6h/s^3) R1(s, .) = h ((1 - u/s)+)^3
        z = DriverChannel("z", np.array([3.0, 11.0, 12.5, 30.0]), np.array([1.0, 2.0, 0.5, 1.5]))

        def spec(filters):
            return SimSpec(
                link=linear_link(0.5),
                filters=filters,
                horizon=40.0,
                drivers=DriverSeries(40.0, (z,)),
                at_risk=AtRiskProcess([15.0, 20.0], [1.0, 0.0, 1.0]),
            )

        built, real = [], glppm.filters._prefix_table  # the tables the filter binds

        def counting(p, q, lags, weights):
            built.append((p, q))
            return real(p, q, lags, weights)

        monkeypatch.setattr(glppm.filters, "_prefix_table", counting)
        for m in (1, 2):
            del built[:]
            k = SobolevKernel(m=m, horizon=40.0)
            atoms = (
                h0_poly(k, 0, 1), kernel_section(k, 0, 1.5),
                h0_poly(k, 1, 1), kernel_section(k, 1, 1.0),
            )
            coeffs = [0.4, -0.4 / 1.5, 0.5, -0.5]
            if m == 2:
                atoms += (h0_poly(k, 0, 2), h0_poly(k, 1, 2))
                coeffs = [0.4, 2.4 / 1.5**3, 0.5, 3.0, -1.2 / 1.5, -1.5]
            g = FilterFunction(k, 2, atoms, np.array(coeffs))
            for seed in range(5):
                ev, _ = simulate(spec(g), seed=seed)
                want, _ = thinning_reference(spec(g), seed, read=fresh_value)
                assert len(ev) > (10 if m == 1 else 5)
                assert same_bits(ev.times, want), (m, seed)
            assert all(f.h0.any() for f in g.normal_forms)
            # the forms have no segments: K[m,m] only, once per channel
            assert built == [(m, m)] * 2

    def test_self_exciting_filter_draws_the_events_of_fresh_evaluations(self):
        # the benchmark's simulations: self-exciting only, m = 1, and the
        # triangle 0.5 phi_1 - 0.5 R1(1, .), whose h0 is not zero
        k = SobolevKernel(m=1, horizon=60.0)
        g = FilterFunction(
            k, 1, (h0_poly(k, 0, 1), kernel_section(k, 0, 1.0)), np.array([0.5, -0.5])
        )
        assert g.normal_forms[0].h0[0] == 0.5
        spec = SimSpec(link=linear_link(0.5), filters=g, horizon=60.0)
        for seed in range(5):
            ev, _ = simulate(spec, seed=seed)
            assert len(ev) > 30
            assert same_bits(ev.times, thinning_reference(spec, seed, read=fresh_value)[0])

    def test_candidates_skip_the_domain_check(self, monkeypatch):
        # each candidate reads every channel's filter once through
        # SimSpec.filter_values, and the kernel's domain check never runs,
        # however many candidates there are
        checks, values, links = [], [], []
        check, filter_values, link_value = (
            SobolevKernel._check_domain, SimSpec.filter_values, type(linear_link(0.5)).value
        )

        def counting_check(kernel, *points):
            checks.append(len(points))
            return check(kernel, *points)

        def counting_values(spec, channel, lags):
            values.append(np.array(lags, dtype=float))
            return filter_values(spec, channel, lags)

        def counting_link(link, x):
            links.append(x)
            return link_value(link, x)

        monkeypatch.setattr(SobolevKernel, "_check_domain", counting_check)
        monkeypatch.setattr(SimSpec, "filter_values", counting_values)
        monkeypatch.setattr(type(linear_link(0.5)), "value", counting_link)
        k = SobolevKernel(m=1, horizon=50.0)
        atoms = (h0_poly(k, 0, 1), kernel_section(k, 0, 1.0), h0_poly(k, 1, 1))
        g = FilterFunction(k, 2, atoms, np.array([0.3, -0.3, 0.2]))
        z = DriverChannel("z", np.array([0.0, 7.0, 20.0]), np.ones(3))
        w = DriverChannel("w", np.array([0.0, 35.0]), np.ones(2))

        # with an explicit bound the link is read once per candidate, at
        # its predictor; both drivers jump at 0, so every candidate has a
        # past jump on each channel
        spec = SimSpec(
            link=linear_link(0.5), filters=g, horizon=50.0,
            self_exciting=False, drivers=DriverSeries(50.0, (z, w)), bound=5.0,
        )
        checks.clear()
        simulate(spec, seed=0)
        assert len(links) > 100
        assert len(values) == 2 * len(links)
        # none at all: the filter checked its atoms when it was built, and
        # its normal forms take them unchecked
        assert checks == []

        # with the automatic bound, the envelope grid adds one call per
        # channel and still no check; the envelope's reads are the ones of
        # a start of the lag grid, which no candidate's lags are, as each
        # candidate lies past the drivers' jumps at 0
        g = FilterFunction(k, 3, atoms + (h0_poly(k, 2, 1),), np.array([0.3, -0.3, 0.2, 0.1]))
        spec = SimSpec(
            link=linear_link(0.5), filters=g, horizon=50.0, drivers=DriverSeries(50.0, (z, w)),
        )
        checks.clear(), values.clear()
        ev, _ = simulate(spec, seed=0)
        full = np.linspace(0.0, 50.0, glppm.simulator._BOUND_GRID)
        grid = [lags for lags in values if same_bits(lags, full[: lags.size])]
        assert len(grid) == 3 and len(ev) > 20
        assert len(values) - len(grid) >= 3 * len(ev) - 1
        assert checks == []


def hat(k: SobolevKernel, channel: int, height: float):
    """Atoms and coefficients of height * max(0, 1 - u) at m = 1."""
    return [h0_poly(k, channel, 1), kernel_section(k, channel, 1.0)], [height, -height]


def reference_spec(case: str) -> SimSpec:
    """A spec that exercises one branch of the thinning loop."""
    k = SobolevKernel(m=1, horizon=60.0)
    atoms, coeffs = hat(k, 0, 0.5)
    self_hat = FilterFunction(k, 1, tuple(atoms), np.array(coeffs))
    if case in ("linear", "exp", "softplus"):
        link = {"linear": linear_link(0.5), "exp": exponential_link(np.log(0.5)),
                "softplus": softplus_link(-0.5)}[case]
        return SimSpec(link=link, filters=self_hat, horizon=60.0)
    if case == "driver":
        z = DriverChannel("z", np.array([3.0, 11.0, 12.5, 30.0]), np.array([1.0, 2.0, 0.5, 1.5]))
        a0, c0 = hat(k, 0, 0.8)
        a1, c1 = hat(k, 1, 0.4)
        g = FilterFunction(k, 2, tuple(a0 + a1), np.array(c0 + c1))
        return SimSpec(
            link=linear_link(0.5), filters=g, horizon=60.0, drivers=DriverSeries(60.0, (z,))
        )
    if case == "at_risk":
        return SimSpec(
            link=linear_link(0.5), filters=self_hat, horizon=60.0,
            at_risk=AtRiskProcess([15.0, 20.0], [1.0, 0.0, 1.0]),
        )
    if case == "bound":
        return SimSpec(link=linear_link(0.5), filters=self_hat, horizon=60.0, bound=3.0)
    if case == "m2":
        # 0.5 ((1 - u)+)^3 = 0.5 phi_1 - 1.5 phi_2 + 3 R1(1, .) at m = 2
        k2 = SobolevKernel(m=2, horizon=60.0)
        atoms = (h0_poly(k2, 0, 1), h0_poly(k2, 0, 2), kernel_section(k2, 0, 1.0))
        g = FilterFunction(k2, 1, atoms, np.array([0.5, -1.5, 3.0]))
        return SimSpec(link=linear_link(0.5), filters=g, horizon=60.0)
    assert case == "fitted", case
    # an exp-link filter fitted by fit_descent to the exp-link hat process;
    # on a longer window the fit rises towards its end, and the envelope,
    # which holds g's sup over the later lags, makes thinning slow
    link = exponential_link(np.log(0.5))
    k = SobolevKernel(m=1, horizon=30.0)
    atoms, coeffs = hat(k, 0, 0.5)
    g = FilterFunction(k, 1, tuple(atoms), np.array(coeffs))
    events, drivers = simulate(SimSpec(link=link, filters=g, horizon=30.0), seed=4)
    res = fit_descent(k, Objective(link, 5.0, events, drivers))
    assert res.converged and len(res.g_hat.atoms) > 10
    return SimSpec(link=link, filters=res.g_hat, horizon=30.0)


class TestThinningReference:
    @pytest.mark.parametrize(
        "case",
        ["linear", "exp", "softplus", "driver", "at_risk", "bound", "m2", "fitted"],
    )
    def test_draws_the_reference_events(self, case):
        # simulate keeps its envelope positions, binds the filter's prefix
        # tables once per spec and reads the link on floats; the reference
        # searches, evaluates and converts anew at every candidate, and must
        # draw the same events, bit for bit
        spec = reference_spec(case)
        total = 0
        for seed in range(3):
            ev, _ = simulate(spec, seed=seed)
            want, _ = thinning_reference(spec, seed)
            assert same_bits(ev.times, want), (case, seed)
            total += len(want)
        assert total > 30


def envelope_spec(case: str) -> SimSpec:
    """A spec at m = 1 whose envelope exercises one shape of normal form."""
    if case in ("hat", "driver", "fitted"):
        return reference_spec({"hat": "linear"}.get(case, case))
    k = SobolevKernel(m=1, horizon=20.0)
    if case == "segment":
        # a section, and integrated slices whose last node, 4, is the
        # filter's last lag
        atoms = (
            h0_poly(k, 0, 1), kernel_section(k, 0, 1.5),
            integrated_segments(k, 0, [0.5, 1.0], [2.0, 4.0], [1.0, -0.5]),
        )
        coeffs = [0.3, -0.2, -0.1]
    elif case == "horizon":
        # a section at the horizon: the last lag is the grid's last point
        atoms, coeffs = (h0_poly(k, 0, 1), kernel_section(k, 0, 20.0)), [0.05, 0.01]
    else:
        assert case == "polynomial", case
        atoms, coeffs = (h0_poly(k, 0, 1),), [0.4]
    g = FilterFunction(k, 1, atoms, np.array(coeffs))
    return SimSpec(link=linear_link(0.5), filters=g, horizon=20.0)


def envelope_reads(spec: SimSpec, monkeypatch) -> tuple:
    """``spec.envelopes``, and the lag arrays that building it read the
    filter at, through ``SimSpec.filter_values``."""
    reads, filter_values = [], SimSpec.filter_values

    def recording(self, channel, lags):
        reads.append((channel, np.array(lags, dtype=float)))
        return filter_values(self, channel, lags)

    monkeypatch.setattr(SimSpec, "filter_values", recording)
    return spec.envelopes, reads


class TestEnvelopeGrid:
    @pytest.mark.parametrize("case", ["hat", "driver", "segment", "horizon", "polynomial", "fitted"])
    def test_m1_reads_stop_past_the_last_lag(self, case, monkeypatch):
        # at m = 1 a filter is flat past its last section lag or segment
        # node to the bit, so each channel is read up to the first grid
        # point past it, and the envelope and reach equal the whole grid's
        spec = envelope_spec(case)
        (grid, env, reach), reads = envelope_reads(spec, monkeypatch)
        want = reference_envelopes(spec)
        assert same_bits(grid, want[0]) and same_bits(env, want[1]) and same_bits(reach, want[2])
        assert [ch for ch, _ in reads] == list(range(spec.n_channels))
        for ch, lags in reads:
            form = spec.filters.normal_forms[ch]
            last = max(np.concatenate([form.sec_lags, form.seg_nodes]), default=-np.inf)
            assert same_bits(lags, grid[: lags.size]), (case, ch)
            if last < grid[-1]:
                assert lags[-1] > last and (lags.size == 1 or lags[-2] <= last), (case, ch)
        sizes = [lags.size for _, lags in reads]
        if case == "polynomial":
            assert sizes == [1]
        elif case == "horizon":
            assert sizes == [grid.size]
        else:
            assert max(sizes) < grid.size

    @pytest.mark.parametrize("case", ["m2"])
    def test_other_filters_are_read_on_the_whole_grid(self, case, monkeypatch):
        # at m = 2 a filter's tail is a polynomial in the lag: it is read at
        # every grid point
        spec = reference_spec(case)
        (grid, env, reach), reads = envelope_reads(spec, monkeypatch)
        want = reference_envelopes(spec)
        assert same_bits(grid, want[0]) and same_bits(env, want[1]) and same_bits(reach, want[2])
        assert [ch for ch, _ in reads] == list(range(spec.n_channels))
        assert all(same_bits(lags, grid) for _, lags in reads)


class TestThinningLaw:
    def test_matches_bernoulli_grid_discretization(self):
        # compare the law of N_1 against a fine Bernoulli grid scheme that
        # uses the exact exponential-filter recursion for the predictor; the
        # simulated filter, its interpolant on knots 1e-3 apart, lies within
        # 1.2e-7 of the closed form
        a, b, d, t = 0.4, 1.5, 0.5, 1.0
        n_runs, dt = 10_000, 1e-3
        spec = SimSpec(
            link=linear_link(d),
            filters=interpolated(SobolevKernel(m=1, horizon=t), exp_decay(a, b)),
            horizon=t,
        )
        counts_thin = np.array(
            [len(simulate(spec, seed=s)[0].times) for s in range(n_runs)]
        )
        rng = np.random.default_rng(987654)
        n_steps = int(round(t / dt))
        state = np.zeros(n_runs)
        counts_grid = np.zeros(n_runs, dtype=int)
        decay = np.exp(-b * dt)
        for _ in range(n_steps):
            p = np.clip((d + state) * dt, 0.0, 1.0)
            fired = rng.uniform(size=n_runs) < p
            counts_grid += fired
            state = decay * (state + a * fired)
        kmax = int(max(counts_thin.max(), counts_grid.max())) + 1
        p_thin = np.bincount(counts_thin, minlength=kmax) / n_runs
        p_grid = np.bincount(counts_grid, minlength=kmax) / n_runs
        tv = 0.5 * np.abs(p_thin - p_grid).sum()
        assert tv <= 0.05

    def test_rising_then_falling_filter(self):
        # g(u) = a (e^{-b1 u} - e^{-b2 u}) is 0 at lag 0 and peaks later, so
        # the bound envelope differs from g; the grid scheme carries the two
        # exponential states exactly.  The simulated filter is the
        # interpolant on knots 2.5e-4 apart, within 6e-7 of the closed
        # form (9e-6 at 1e-3, as g'' is -72 at lag 0)
        a, b1, b2, d, t = 3.0, 1.0, 5.0, 0.5, 1.0
        n_runs, dt = 10_000, 1e-3
        spec = SimSpec(
            link=linear_link(d),
            filters=interpolated(
                SobolevKernel(m=1, horizon=t), lambda u: a * (np.exp(-b1 * u) - np.exp(-b2 * u)), step=2.5e-4
            ),
            horizon=t,
        )
        counts_thin = np.array(
            [len(simulate(spec, seed=s)[0].times) for s in range(n_runs)]
        )
        rng = np.random.default_rng(24680)
        state = np.zeros((2, n_runs))
        counts_grid = np.zeros(n_runs, dtype=int)
        decay = np.exp(-np.array([[b1], [b2]]) * dt)
        for _ in range(int(round(t / dt))):
            p = np.clip((d + state[0] - state[1]) * dt, 0.0, 1.0)
            fired = rng.uniform(size=n_runs) < p
            counts_grid += fired
            state = decay * (state + a * fired)
        kmax = int(max(counts_thin.max(), counts_grid.max())) + 1
        p_thin = np.bincount(counts_thin, minlength=kmax) / n_runs
        p_grid = np.bincount(counts_grid, minlength=kmax) / n_runs
        tv = 0.5 * np.abs(p_thin - p_grid).sum()
        assert tv <= 0.05


class TestTimeRescale:
    def test_homogeneous_gaps_are_scaled_interarrivals(self):
        times = np.array([1.0, 2.5, 6.0, 7.25])
        events = EventSeries(10.0, times)
        drivers = DriverSeries(10.0, (DriverChannel("target", times, np.ones(4)),))
        k = SobolevKernel(m=1, horizon=10.0)
        g = FilterFunction(k, 1, (), np.empty(0))
        gaps = time_rescale(g, linear_link(2.0), events, drivers)
        want = 2.0 * np.diff(np.concatenate([[0.0], times]))
        assert_allclose(gaps, want, rtol=1e-12)

    def test_empty_events(self):
        events = EventSeries(10.0, np.empty(0))
        drivers = DriverSeries(10.0, (DriverChannel("target", np.empty(0), np.empty(0)),))
        k = SobolevKernel(m=1, horizon=10.0)
        gaps = time_rescale(FilterFunction(k, 1, (), np.empty(0)), linear_link(1.0), events, drivers)
        assert gaps.size == 0

    def test_true_model_rescaling_is_unit_exponential(self, hawkes50, hawkes50_filter):
        events, drivers = hawkes50
        gaps = time_rescale(hawkes50_filter, linear_link(0.5), events, drivers)
        assert gaps.size == len(events.times)
        assert np.all(gaps > 0)
        assert kstest(gaps, "expon").pvalue > 0.01

    def test_the_exact_linear_route_matches_a_quadrature_of_the_filter(self, hawkes50):
        # the partition is split at every event, the one driver's jumps, so
        # each gap is the integral over one interval; the oracle takes it
        # by 16-node Gauss-Legendre quadrature of g.evaluate
        events, drivers = hawkes50
        k = SobolevKernel(m=2, horizon=50.0)
        g = FilterFunction(k, 1, (kernel_section(k, 0, 2.0),), np.array([0.01]))
        gaps = time_rescale(g, linear_link(0.5), events, drivers)
        a = np.concatenate([[0.0], events.times[:-1]])
        width = events.times - a
        x, w = np.polynomial.legendre.leggauss(16)
        nodes = a[:, None] + (x + 1.0) * width[:, None] / 2.0
        lags = nodes[..., None] - events.times
        past = lags > 0.0
        x_nodes = np.zeros(lags.shape)
        x_nodes[past] = g.evaluate(0, lags[past])
        lam = 0.5 + x_nodes.sum(axis=-1)
        assert_allclose(gaps, (lam * w).sum(axis=1) * width / 2.0, rtol=1e-6, atol=1e-9)
