"""The linear link's representer basis, as ``fit_linear`` builds it in its
workspace: event atoms, compensator atoms, design, Gram."""

import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from glppm.data import DriverChannel, DriverSeries, EventSeries
from glppm.filters import FilterFunction
from glppm.kernel import SobolevKernel
from glppm.likelihood import (
    Objective,
    build_f_atoms,
    build_h_atoms,
    linear_link,
    linear_predictor,
)
from glppm.optimizer import FREE, POINT, _Workspace

from oracles import full_gram, full_kernel, h1_gram, inner_product, integrated_points, kernel_section, project


def representer_basis(kernel, obj):
    """The workspace holding the representer basis, and the columns of its
    history and integral atoms, counted from their roles."""
    ws = _Workspace(kernel, obj)
    ws.add_representers()
    n_h0, n_h = np.count_nonzero(ws.role == FREE), np.count_nonzero(ws.role == POINT)
    return ws, slice(n_h0, n_h0 + n_h), slice(n_h0 + n_h, len(ws))


def basis_filter(ws, c):
    return FilterFunction(ws.kernel, ws.obj.n_channels, tuple(ws.atoms), c)


def two_event_objective():
    ev = EventSeries(4.0, np.array([1.0, 3.0]))
    dr = DriverSeries(4.0, (DriverChannel("target", ev.times, np.ones(2)),))
    return ev, dr, Objective(linear_link(0.5), 1.0, ev, dr)


def small_filter(kernel, rng, n_channels, scale=0.05):
    from glppm.filters import h0_poly

    atoms = []
    for ch in range(n_channels):
        atoms.append(h0_poly(kernel, ch, 1))
        atoms.append(kernel_section(kernel, ch, rng.uniform(0.5, kernel.horizon / 2)))
    return FilterFunction(kernel, n_channels, tuple(atoms), scale * rng.normal(size=len(atoms)))


class TestBasisShape:
    def test_single_channel_count(self):
        # order + one section per event with an earlier jump + one
        # compensator atom
        ev, dr, obj = two_event_objective()
        k = SobolevKernel(m=2, horizon=4.0)
        ws, h_cols, f_cols = representer_basis(k, obj)
        assert len(ws) == 2 + 1 + 1
        assert len(ws.atoms) == len(ws)
        assert h_cols == slice(2, 3)
        assert f_cols == slice(3, 4)
        assert ws.E.shape == (2, 4)
        assert ws.comp.shape == (4,)
        assert ws.G.shape == (4, 4)
        assert ws.Gp.shape == (4, 4)

    def test_two_channel_count(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        ws, _, _ = representer_basis(k, obj)
        # per channel: m polynomials, one section per event with an earlier
        # jump (every event on z, all but the first on the target), one
        # compensator
        assert len(ws) == 2 * (2 + 1) + 3 + 2

    def test_no_atom_is_zero(self):
        # the first event has an empty strict history, so it has no atom;
        # every atom has a row in the Grams
        ev, dr, obj = two_event_objective()
        k = SobolevKernel(m=2, horizon=4.0)
        ws, h_cols, _ = representer_basis(k, obj)
        assert not any(a.is_zero for a in ws.atoms)
        # its datum is the point of the second event, after the nodes
        assert ws.datum[h_cols].tolist() == [obj.nodes.size + 1]
        assert np.diag(ws.G).min() > 0.0
        assert_allclose(ws.E[0], np.zeros(4), atol=1e-15)


class TestBuilders:
    def test_the_builders_take_no_part_and_build_h1_atoms(self, tiny):
        # the polynomial content of a representer is the fitters' phi_k
        # coordinates, so the builders build part "r1" only; a full-kernel
        # atom is the tests' to make (``oracles.full_kernel``)
        params = {f: list(inspect.signature(f).parameters) for f in (build_h_atoms, build_f_atoms)}
        assert params == {
            build_h_atoms: ["kernel", "obj", "points"], build_f_atoms: ["kernel", "obj", "link_weights"]
        }
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        weights = np.linspace(0.0, 1.0, obj.nodes.size)
        atoms = build_h_atoms(k, obj) + build_f_atoms(k, obj) + build_f_atoms(k, obj, link_weights=weights)
        assert len(atoms) == 2 * len(events) + 4
        assert all(a.part == "r1" and not a.h0.any() for a in atoms)
        assert all(f.h0.any() for f in full_kernel(k, atoms[-4:]))


class TestEventAtoms:
    def test_knots_are_interdistances(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        atoms = build_h_atoms(k, Objective(linear_link(0.5), 1.0, events, drivers))
        # atoms are grouped per event, channels side by side
        got = {}
        for a in atoms:
            got.setdefault(a.channel, []).append(sorted(a.sec_lags))
        for j, ch in enumerate(drivers.channels):
            for i, tau in enumerate(events.times):
                want = sorted(tau - s for s in ch.times if s < tau)
                assert_allclose(got[j][i], want, atol=1e-15)

    def test_single_jump_section_value(self):
        # driver jump at 0 and an event at 1: the atom is the kernel slice
        # R1(1, .) whose value at 1 is 1/3 for order 2
        ev = EventSeries(2.0, np.array([1.0]))
        dr = DriverSeries(2.0, (DriverChannel("z", np.array([0.0]), np.ones(1)),))
        k = SobolevKernel(m=2, horizon=2.0)
        atoms = build_h_atoms(k, Objective(linear_link(0.5), 1.0, ev, dr))
        assert len(atoms) == 1
        g = FilterFunction(k, 1, (atoms[0],), np.ones(1))
        assert_allclose(g.evaluate(0, 1.0), 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_event_atom_pairing_gives_predictor(self, tiny):
        # the H1 pairing of an event atom with a projected filter recovers
        # the linear predictor of the projected filter at that event
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(1)
        atoms = build_h_atoms(k, Objective(linear_link(0.5), 1.0, events, drivers))
        h = small_filter(k, rng, 2)
        ph = project(h)
        for a in atoms:
            af = FilterFunction(k, 2, (a,), np.ones(1))
            want = sum(
                dz * ph.evaluate(a.channel, float(lag))
                for lag, dz in zip(a.sec_lags, a.sec_weights)
            )
            assert_allclose(inner_product(af, ph), want, rtol=1e-11, atol=1e-12)

    def test_full_sections_reproduce_unprojected_values(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(2)
        h = small_filter(k, rng, 2)
        atoms = full_kernel(k, build_h_atoms(k, Objective(linear_link(0.5), 1.0, events, drivers)))
        for a in atoms:
            af = FilterFunction(k, 2, (a,), np.ones(1))
            want = sum(
                dz * h.evaluate(a.channel, float(lag))
                for lag, dz in zip(a.sec_lags, a.sec_weights)
            )
            assert_allclose(inner_product(af, h), want, rtol=1e-11, atol=1e-12)


class TestCompensatorAtom:
    def test_frozen_time_integral_values(self):
        # jump at 0, window length 2: the atom value at lag 1 is 17/24;
        # jump at 1 leaves an effective window of 1, giving 7/24 at lag 2
        k = SobolevKernel(m=2, horizon=2.0)
        ev = EventSeries(2.0, np.array([1.5]))
        for sigma, r, want in [(0.0, 1.0, 17.0 / 24.0), (1.0, 2.0, 7.0 / 24.0)]:
            dr = DriverSeries(2.0, (DriverChannel("z", np.array([sigma]), np.ones(1)),))
            obj = Objective(linear_link(0.5), 1.0, ev, dr)
            atoms = build_f_atoms(k, obj)
            assert len(atoms) == 1
            g = FilterFunction(k, 1, (atoms[0],), np.ones(1))
            assert_allclose(g.evaluate(0, r), want, rtol=0, atol=1e-14)

    def test_pairing_gives_integrated_predictor(self, tiny):
        # <f, h> equals the time integral of the predictor of h
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(3)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        atoms = build_f_atoms(k, obj)
        h = project(small_filter(k, rng, 2))
        total = sum(
            inner_product(FilterFunction(k, 2, (a,), np.ones(1)), h) for a in atoms
        )
        n = 200_000
        mid = (np.arange(n) + 0.5) * (8.0 / n)
        want = float(np.sum(linear_predictor(h, drivers, mid))) * (8.0 / n)
        assert_allclose(total, want, rtol=1e-6)

    def test_one_hot_weights_give_node_representer(self, tiny):
        # unit weight on one quadrature node gives the evaluation functional
        # of the predictor at that node
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        rng = np.random.default_rng(4)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        h = small_filter(k, rng, 2)
        for q in (0, len(obj.nodes) // 2, len(obj.nodes) - 1):
            w = np.zeros(len(obj.nodes))
            w[q] = 1.0
            atoms = full_kernel(k, build_f_atoms(k, obj, link_weights=w))
            eta = FilterFunction(k, 2, tuple(atoms), np.ones(len(atoms)))
            want = linear_predictor(h, drivers, float(obj.nodes[q]))
            assert_allclose(inner_product(eta, h), want, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("part", ["r1", "r"])
    def test_pointwise_atoms_equal_the_unsorted_construction(self, tiny, part):
        # the objective sorts its node-pair lags once; the atoms built from
        # that order equal, bit for bit, those built from the pairs as drawn
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        w = np.random.default_rng(5).uniform(-1.0, 1.0, obj.nodes.size)
        atoms = build_f_atoms(k, obj, link_weights=w)
        for j, atom in enumerate(atoms if part == "r1" else full_kernel(k, atoms)):
            eval_idx, _, lags, dz = obj._node_pairs[j]
            want = integrated_points(k, j, lags, w[eval_idx] * dz, part=part)
            for name in ("sec_lags", "sec_weights", "h0"):
                assert np.array_equal(getattr(atom, name), getattr(want, name))


class TestDesignAndGram:
    def test_design_matches_direct_prediction(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        ws, _, _ = representer_basis(k, obj)
        rng = np.random.default_rng(5)
        c = rng.normal(size=len(ws))
        g = basis_filter(ws, c)
        for i, tau in enumerate(events.times):
            assert_allclose(
                float(ws.E[i] @ c),
                linear_predictor(g, drivers, float(tau)),
                rtol=1e-11,
                atol=1e-12,
            )

    def test_comp_matches_dense_riemann(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        ws, _, _ = representer_basis(k, obj)
        rng = np.random.default_rng(6)
        c = rng.normal(size=len(ws))
        g = basis_filter(ws, c)
        n = 200_000
        mid = (np.arange(n) + 0.5) * (8.0 / n)
        want = float(np.sum(linear_predictor(g, drivers, mid))) * (8.0 / n)
        assert_allclose(float(ws.comp @ c), want, rtol=1e-6)

    def test_grams_match_filter_helpers(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        ws, _, _ = representer_basis(k, obj)
        assert_allclose(ws.G, full_gram(ws.atoms), rtol=1e-12, atol=1e-13)
        assert_allclose(ws.Gp, h1_gram(ws.atoms), rtol=1e-12, atol=1e-13)

    def test_gram_symmetric_psd(self, tiny):
        events, drivers = tiny
        k = SobolevKernel(m=2, horizon=8.0)
        obj = Objective(linear_link(0.5), 1.0, events, drivers)
        ws, _, _ = representer_basis(k, obj)
        for G in (ws.G, ws.Gp):
            assert_allclose(G, G.T, atol=1e-11)
            assert np.linalg.eigvalsh(G).min() >= -1e-9


def one_sided_second_derivative(f, x, side, h=1e-2):
    """Richardson-extrapolated one-sided second derivative estimate."""
    s = 1.0 if side == "right" else -1.0

    def d2(step):
        return (f(x + 2 * s * step) - 2 * f(x + s * step) + f(x)) / step**2

    return 2.0 * d2(h / 2) - d2(h)


class TestSplineStructure:
    def test_event_atom_second_derivative_continuous(self):
        # order-2 atoms are C2 splines: second derivatives agree across knots
        k = SobolevKernel(m=2, horizon=6.0)
        ev = EventSeries(6.0, np.array([2.0, 4.5]))
        dr = DriverSeries(6.0, (DriverChannel("target", ev.times, np.ones(2)),))
        atoms = build_h_atoms(k, Objective(linear_link(0.5), 1.0, ev, dr))
        atom = atoms[1]
        g = FilterFunction(k, 1, (atom,), np.ones(1))

        def f(u):
            return g.evaluate(0, float(u))

        for knot in atom.sec_lags:
            left = one_sided_second_derivative(f, float(knot), "left")
            right = one_sided_second_derivative(f, float(knot), "right")
            assert abs(left - right) <= 1e-6

    def test_compensator_atom_piecewise_degree(self):
        # with one jump at 1.5 the compensator atom is a quartic up to the
        # remaining window length and affine beyond it
        k = SobolevKernel(m=2, horizon=4.0)
        ev = EventSeries(4.0, np.array([2.0]))
        dr = DriverSeries(4.0, (DriverChannel("z", np.array([1.5]), np.ones(1)),))
        obj = Objective(linear_link(0.5), 1.0, ev, dr)
        atom = build_f_atoms(k, obj)[0]
        g = FilterFunction(k, 1, (atom,), np.ones(1))
        cut = 4.0 - 1.5
        u_in = np.linspace(0.0, cut, 60)
        vals_in = g.evaluate(0, u_in)
        resid4 = np.polyfit(u_in, vals_in, 4, full=True)[1]
        assert (float(resid4[0]) if resid4.size else 0.0) <= 1e-18
        u_out = np.linspace(cut + 1e-9, 4.0, 40)
        vals_out = g.evaluate(0, u_out)
        resid1 = np.polyfit(u_out, vals_out, 1, full=True)[1]
        assert (float(resid1[0]) if resid1.size else 0.0) <= 1e-18
        # degree 3 is NOT enough on the inner branch
        resid3 = np.polyfit(u_in, vals_in, 3, full=True)[1]
        assert (float(resid3[0]) if resid3.size else 0.0) > 1e-10
