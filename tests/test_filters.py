"""Filter atoms: evaluation, inner products, projection, serialization."""

import base64
import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from glppm import filters
from glppm.data import DriverChannel, DriverSeries, _read_json
from glppm.errors import ConfigError, DataError, DomainError
from glppm.filters import (
    FilterFunction,
    _merged_atom,
    _normal_form_atom,
    _ro,
    h0_poly,
    h1_inner_row,
    integrated_segments,
)
from glppm.kernel import SobolevKernel, _cross_weighted_sum, _family_sums, _prefix_table
from glppm.likelihood import _segment_integrals, linear_predictor

from oracles import (
    checked_value,
    combine,
    fresh_antiderivative,
    fresh_value,
    full_gram,
    h1_gram,
    inner_product,
    integrated_points,
    kernel_section,
    prefix_sum_reference,
    project,
    r1,
    r1_double_integral,
    r1_time_integral,
    r_full,
    same_bits,
    section_sum,
    smooth_value,
    sorted_normal_forms,
)


def spell(values, spelling: str):
    """An atom array as a filter payload spells it: a JSON list, or base64
    of little-endian float64 bytes."""
    if spelling == "list":
        return np.asarray(values, dtype=float).tolist()
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


FORM_FIELDS = ("sec_lags", "sec_weights", "seg_nodes", "seg_weights", "h0")


def random_filter(kernel, rng, n_channels=1, scale=1.0):
    """A filter containing one atom of every kind with random coefficients."""
    atoms = []
    for ch in range(n_channels):
        atoms.append(h0_poly(kernel, ch, 1))
        if kernel.m >= 2:
            atoms.append(h0_poly(kernel, ch, 2))
        atoms.append(kernel_section(kernel, ch, rng.uniform(0.5, kernel.horizon)))
        atoms.append(kernel_section(kernel, ch, rng.uniform(0.5, kernel.horizon), part="r"))
        atoms.append(
            section_sum(
                kernel, ch,
                rng.uniform(0, kernel.horizon, 3),
                rng.normal(size=3),
            )
        )
        atoms.append(
            integrated_points(
                kernel, ch,
                rng.uniform(0, kernel.horizon, 4),
                rng.uniform(0.1, 1.0, 4),
                part="r",
            )
        )
        lo = rng.uniform(0, kernel.horizon / 2, 2)
        atoms.append(
            integrated_segments(kernel, ch, lo, lo + rng.uniform(0, 1, 2), rng.normal(size=2))
        )
    coeffs = scale * rng.normal(size=len(atoms))
    return FilterFunction(kernel, n_channels, tuple(atoms), coeffs)


class TestEvaluate:
    def test_section_reproducing_value(self):
        # R1(1, .) at u=1 equals R1(1,1) = 1/3 for order 2
        k = SobolevKernel(m=2, horizon=4.0)
        g = FilterFunction(k, 1, (kernel_section(k, 0, 1.0),), np.ones(1))
        assert_allclose(g.evaluate(0, 1.0), 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_section_matches_kernel(self):
        k = SobolevKernel(m=2, horizon=6.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, r = rng.uniform(0, 6, 2)
            g = FilterFunction(k, 1, (kernel_section(k, 0, s),), np.ones(1))
            assert_allclose(g.evaluate(0, r), r1(k, s, r), rtol=1e-13, atol=1e-14)
            gf = FilterFunction(k, 1, (kernel_section(k, 0, s, part="r"),), np.ones(1))
            assert_allclose(gf.evaluate(0, r), r_full(k, s, r), rtol=1e-13, atol=1e-14)

    def test_poly_values(self):
        k = SobolevKernel(m=3, horizon=5.0)
        u = np.linspace(0, 5, 11)
        g1 = FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.ones(1))
        g2 = FilterFunction(k, 1, (h0_poly(k, 0, 2),), np.ones(1))
        g3 = FilterFunction(k, 1, (h0_poly(k, 0, 3),), np.ones(1))
        assert_allclose(g1.evaluate(0, u), np.ones_like(u))
        assert_allclose(g2.evaluate(0, u), u)
        assert_allclose(g3.evaluate(0, u), u**2 / 2)

    def test_linearity(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(1)
        g = random_filter(k, rng)
        u = np.linspace(0, 5, 23)
        total = np.zeros_like(u)
        for atom, c in zip(g.atoms, g.coefficients):
            single = FilterFunction(k, 1, (atom,), np.ones(1))
            total += c * single.evaluate(0, u)
        assert_allclose(g.evaluate(0, u), total, rtol=1e-12, atol=1e-12)

    def test_channels_separate(self):
        k = SobolevKernel(m=1, horizon=3.0)
        atoms = (h0_poly(k, 0, 1), kernel_section(k, 1, 1.0))
        g = FilterFunction(k, 2, atoms, np.array([2.0, 1.0]))
        assert g.evaluate(0, 0.7) == 2.0
        assert_allclose(g.evaluate(1, 0.5), r1(k, 1.0, 0.5))

    def test_domain_checks(self):
        k = SobolevKernel(m=1, horizon=3.0)
        g = FilterFunction(k, 1, (), np.empty(0))
        with pytest.raises(DomainError):
            g.evaluate(1, 0.5)
        with pytest.raises(DomainError):
            g.evaluate(0, 3.5)
        with pytest.raises(DomainError):
            g.evaluate(0, -0.1)

    def test_segment_atom_is_time_integral(self):
        # one segment [0, t] reproduces the integrated kernel slice
        k = SobolevKernel(m=2, horizon=4.0)
        for t, r, want in [(1.0, 2.0, 7.0 / 24.0), (2.0, 1.0, 17.0 / 24.0)]:
            atom = integrated_segments(k, 0, [0.0], [t], [1.0])
            g = FilterFunction(k, 1, (atom,), np.ones(1))
            assert_allclose(g.evaluate(0, r), want, rtol=0, atol=1e-14)
            assert_allclose(g.evaluate(0, r), r1_time_integral(k, t, r), rtol=0, atol=1e-14)

    def test_integrated_points_match_sections(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(2)
        lags = rng.uniform(0, 5, 4)
        w = rng.normal(size=4)
        a = integrated_points(k, 0, lags, w)
        b = section_sum(k, 0, lags, w)
        u = np.linspace(0, 5, 17)
        ga = FilterFunction(k, 1, (a,), np.ones(1))
        gb = FilterFunction(k, 1, (b,), np.ones(1))
        assert_allclose(ga.evaluate(0, u), gb.evaluate(0, u), rtol=1e-13, atol=1e-14)


class TestPrefixTables:
    """A filter keeps the prefix tables of its normal forms' values, bound
    once per channel (``FilterFunction._readers``); evaluating from them
    gives the same bits as building them per call.  Atoms keep none."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kernel_sums_match_the_one_pass_loop(self, m):
        rng = np.random.default_rng(20 + m)
        lags = np.sort(rng.uniform(0, 5, 9))
        w = rng.normal(size=9)
        queries = [rng.uniform(0, 5, 40), 2.5, lags[3], lags[:4], np.empty(0)]
        for p, q in [(m, m), (m + 1, m), (m, m + 1), (m + 1, m + 1)]:
            for u in queries:
                want = prefix_sum_reference(p, q, lags, w, u)
                assert same_bits(_cross_weighted_sum(p, q, lags, w, u), want)

    def test_family_sums_start_from_zero(self):
        # a sum from 0.0, as a zeros array plus the terms: terms that are all
        # -0.0 sum to +0.0
        table = ((np.array([-0.0, 1.0]), 0), (np.array([-0.0, 2.0]), 1))
        got = _family_sums(table, np.array([0, 1]), np.array([3.0, 3.0]))
        assert same_bits(got, np.array([0.0, 7.0]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cached_evaluation_matches_a_fresh_one(self, m, monkeypatch):
        rng = np.random.default_rng(30 + m)
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, rng, n_channels=2)
        queries = [rng.uniform(0, 5, 40), 1.7, np.array([0.0, 5.0]), np.empty(0)]
        built = []  # the tables that ``_bound_value`` binds

        def counting(p, q, lags, weights):
            built.append((p, q))
            return _prefix_table(p, q, lags, weights)

        monkeypatch.setattr(filters, "_prefix_table", counting)
        for ch, form in enumerate(g.normal_forms):
            assert form.sec_lags.size and form.seg_nodes.size and form.h0.any()
            assert built == ([] if ch == 0 else [(m, m), (m + 1, m)] * 2)
            for call in ("builds", "reads"):
                for u in queries:
                    assert same_bits(g.evaluate(ch, u), fresh_value(g, ch, u)), (ch, call, u)
                    # the exact integral over segments (u / 2, u] reads no
                    # value table
                    hi = np.atleast_1d(u)
                    ((_, got),) = _segment_integrals(k, [form], hi / 2, hi)
                    want = fresh_antiderivative(g, ch, hi) - fresh_antiderivative(g, ch, hi / 2)
                    assert same_bits(got[0], want)
                # the first evaluation binds every channel's value tables
                assert built == [(m, m), (m + 1, m)] * 2

    def test_an_atom_keeps_no_state(self):
        # values, H1 pairings, segment integrals and bound readers leave an
        # atom as it was
        k = SobolevKernel(m=2, horizon=5.0)
        g = random_filter(k, np.random.default_rng(9))
        u = np.linspace(0, 5, 11)
        for atom in g.atoms + g.normal_forms:
            before = copy.deepcopy(vars(atom))
            FilterFunction(k, atom.channel + 1, (atom,), np.ones(1)).evaluate(atom.channel, u)
            h1_inner_row(atom, [atom])
            list(_segment_integrals(k, [atom], u / 2, u))
            atom._bound_value()(u)
            after = vars(atom)
            assert after.keys() == before.keys()
            for key, was in before.items():
                assert same_bits(after[key], was) if isinstance(was, np.ndarray) else after[key] == was, key

    def test_a_hundred_evaluations_build_each_table_once(self, monkeypatch):
        k = SobolevKernel(m=2, horizon=5.0)
        g = random_filter(k, np.random.default_rng(7))
        built = []

        def counting(p, q, lags, weights):
            built.append((p, q))
            return _prefix_table(p, q, lags, weights)

        monkeypatch.setattr(filters, "_prefix_table", counting)
        u = np.linspace(0, 5, 40)
        first = g.evaluate(0, u)
        for _ in range(99):
            assert same_bits(g.evaluate(0, u), first)
        # sections take K[m,m], segments K[m+1,m]
        assert sorted(built) == [(2, 2), (3, 2)]
        assert same_bits(first, fresh_value(g, 0, u))

    def test_domain_and_nan_behaviour_is_unchanged(self):
        k = SobolevKernel(m=2, horizon=5.0)
        g = random_filter(k, np.random.default_rng(8))
        g.evaluate(0, np.linspace(0, 5, 7))
        for bad in ([1.0, -0.1], 5.5):
            with pytest.raises(DomainError) as exc:
                g.evaluate(0, bad)
            with pytest.raises(DomainError) as fresh:
                fresh_value(g, 0, bad)
            assert str(exc.value) == str(fresh.value)
            assert exc.value.at == fresh.value.at
        with pytest.raises(DomainError):
            g.evaluate(1, 1.0)
        # a NaN lag passes the range check and gives a NaN value, as before;
        # the predictor rejects a NaN time
        got = g.evaluate(0, np.array([1.0, np.nan]))
        assert same_bits(got, fresh_value(g, 0, np.array([1.0, np.nan])))
        assert np.isnan(got[1]) and not np.isnan(got[0])
        drivers = DriverSeries(5.0, (DriverChannel("z", np.array([0.5]), np.ones(1)),))
        with pytest.raises(DomainError):
            linear_predictor(g, drivers, float("nan"))

    @pytest.mark.parametrize("bad", [[5.5, np.nan], [np.nan, 5.5], [np.nan, -0.1, 1.0]])
    def test_nan_does_not_hide_an_out_of_range_value(self, bad):
        # min and max of an array with a NaN are NaN, which compares false
        k = SobolevKernel(m=2, horizon=5.0)
        g = random_filter(k, np.random.default_rng(8))
        out = 5.5 if 5.5 in bad else -0.1
        for call in (
            lambda u: g.evaluate(0, u),
            lambda u: list(_segment_integrals(k, g.normal_forms[:1], np.zeros(1), np.atleast_1d(u))),
        ):
            with pytest.raises(DomainError) as exc:
                call(np.array(bad))
            assert exc.value.at == out
            with pytest.raises(DomainError):
                call(out)


class TestUncheckedValue:
    """An atom's value is the domain check, then the unchecked
    ``Atom._bound_value`` that ``evaluate`` and the thinning simulator read
    (``checked_value``); at m = 1 the polynomial part is h0[0], added as
    such."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_value_equals_a_fresh_evaluation(self, m):
        rng = np.random.default_rng(40 + m)
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, rng, n_channels=2)
        # the smooth part is 0.0 at lag 0, where every R1 slice vanishes
        queries = [rng.uniform(0, 5, 40), 1.7, 0.0, np.array([0.0, 5.0]), np.empty(0)]
        for f, has_h0 in ((g, True), (project(g), False)):
            for ch, form in enumerate(f.normal_forms):
                assert bool(form.h0.any()) == has_h0
                for u in queries:
                    want = fresh_value(f, ch, u)
                    assert same_bits(checked_value(k, form, u), want), (m, has_h0, u)
                    unchecked = form._bound_value()(np.asarray(u, dtype=float))
                    assert same_bits(unchecked, want), (m, has_h0, u)
        assert same_bits(checked_value(k, g.normal_forms[0], 0.0), g.normal_forms[0].h0[0])

    def test_a_signed_zero_h0_adds_nothing(self):
        k = SobolevKernel(m=1, horizon=5.0)
        g = FilterFunction(k, 1, (kernel_section(k, 0, 2.0),), np.array([-1.0]))
        form = g.normal_forms[0]
        signed = replace(form, h0=np.array([-0.0]))
        for u in (np.array([0.0, 1.0, 3.0]), 0.0, 3.0):
            assert same_bits(checked_value(k, signed, u), fresh_value(g, 0, u))
            assert same_bits(checked_value(k, signed, u), smooth_value(form, u))

    @pytest.mark.parametrize("m", [1, 2])
    def test_public_evaluations_still_check_the_domain(self, m):
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, np.random.default_rng(50 + m))
        form = g.normal_forms[0]
        for bad in (-0.1, 5.5, np.array([1.0, -1e-12]), np.array([5.0 + 1e-9, 2.0])):
            with pytest.raises(DomainError):
                g.evaluate(0, bad)
            with pytest.raises(DomainError):
                FilterFunction(k, 1, (form,), np.ones(1)).evaluate(0, bad)
        # data on a longer window than the kernel's: a lag of 8.5 > 5
        drivers = DriverSeries(10.0, (DriverChannel("z", np.array([0.5]), np.ones(1)),))
        assert linear_predictor(g, drivers, 5.5) == g.evaluate(0, 5.0)
        with pytest.raises(DomainError):
            linear_predictor(g, drivers, np.array([1.0, 9.0]))


class TestInnerProduct:
    def test_frozen_values(self):
        k = SobolevKernel(m=2, horizon=4.0)
        sec = kernel_section(k, 0, 1.0)
        g_sec = FilterFunction(k, 1, (sec,), np.ones(1))
        assert_allclose(g_sec.h1_seminorm_sq(), 1.0 / 3.0, rtol=0, atol=1e-15)
        assert_allclose(combine((3.0, g_sec)).h1_seminorm_sq(), 3.0, rtol=1e-14)
        p1 = FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.ones(1))
        p2 = FilterFunction(k, 1, (h0_poly(k, 0, 2),), np.ones(1))
        assert p1.h1_seminorm_sq() == 0.0
        assert inner_product(p1, p2) == 0.0
        assert inner_product(p1, p1) == 1.0
        g = combine((1.0, g_sec), (1.0, p1))
        assert_allclose(inner_product(g, g), 1.0 / 3.0 + 1.0, rtol=0, atol=1e-15)

    def test_reproducing_property(self):
        # the inner product of two kernel slices is a kernel value
        rng = np.random.default_rng(4)
        for m in (1, 2, 3):
            k = SobolevKernel(m=m, horizon=5.0)
            for _ in range(10):
                s, r = rng.uniform(0, 5, 2)
                a = FilterFunction(k, 1, (kernel_section(k, 0, s),), np.ones(1))
                b = FilterFunction(k, 1, (kernel_section(k, 0, r),), np.ones(1))
                assert_allclose(inner_product(a, b), r1(k, s, r), rtol=1e-12, atol=1e-13)
                af = FilterFunction(k, 1, (kernel_section(k, 0, s, part="r"),), np.ones(1))
                bf = FilterFunction(k, 1, (kernel_section(k, 0, r, part="r"),), np.ones(1))
                assert_allclose(inner_product(af, bf), r_full(k, s, r), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_h1_pairing_of_segments_is_the_integrated_kernel(self, m):
        # <P a, P b> of two integrated-segment atoms is R1 integrated over
        # both segments, and of a section with a segment atom R1 integrated
        # over the segment at the section's lag, whichever atom leads the row
        k = SobolevKernel(m=m, horizon=5.0)
        a = integrated_segments(k, 0, [0.5, 2.0], [1.5, 4.5], [0.7, -0.3])
        b = integrated_segments(k, 0, [1.0], [3.0], [1.2])
        sec = kernel_section(k, 0, 2.5)

        def double(lo1, hi1, lo2, hi2):
            d = lambda x, y: r1_double_integral(k, x, y)  # noqa: E731
            return d(hi1, hi2) - d(hi1, lo2) - d(lo1, hi2) + d(lo1, lo2)

        def single(lo, hi, lag):
            return r1_time_integral(k, hi, lag) - r1_time_integral(k, lo, lag)

        pairs = [
            (a, b, 1.2 * (0.7 * double(0.5, 1.5, 1.0, 3.0) - 0.3 * double(2.0, 4.5, 1.0, 3.0))),
            (sec, b, 1.2 * single(1.0, 3.0, 2.5)),
            (sec, a, 0.7 * single(0.5, 1.5, 2.5) - 0.3 * single(2.0, 4.5, 2.5)),
        ]
        for x, y, want in pairs:
            assert abs(want) > 1e-3
            assert_allclose(h1_inner_row(x, [y]), [want], rtol=1e-12)
            assert_allclose(h1_inner_row(y, [x]), [want], rtol=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        k = SobolevKernel(m=2, horizon=5.0)
        for trial in range(5):
            a = random_filter(k, rng)
            b = random_filter(k, rng)
            assert_allclose(inner_product(a, b), inner_product(b, a), rtol=1e-11, atol=1e-12)
            assert inner_product(a, a) >= -1e-12
            # Cauchy-Schwarz
            lhs = inner_product(a, b) ** 2
            rhs = inner_product(a, a) * inner_product(b, b)
            assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_different_channels_orthogonal(self):
        k = SobolevKernel(m=1, horizon=3.0)
        a = FilterFunction(k, 2, (kernel_section(k, 0, 1.0),), np.ones(1))
        b = FilterFunction(k, 2, (kernel_section(k, 1, 1.0),), np.ones(1))
        assert inner_product(a, b) == 0.0

    def test_mismatched_spaces_rejected(self):
        # a sum of filters over two kernels is one filter over the atoms of
        # both, which the first kernel refuses
        k1 = SobolevKernel(m=1, horizon=3.0)
        k2 = SobolevKernel(m=2, horizon=3.0)
        a = FilterFunction(k1, 1, (h0_poly(k1, 0, 1),), np.ones(1))
        b = FilterFunction(k2, 1, (h0_poly(k2, 0, 1),), np.ones(1))
        with pytest.raises(ConfigError):
            combine((1.0, a), (1.0, b))


class TestSeminormQuadrature:
    def test_order_two_against_closed_form_derivative(self):
        # for order 2 the r1 slice at lag s has second derivative
        # (s - r) for r < s and 0 beyond, so the seminorm integrand is known
        k = SobolevKernel(m=2, horizon=6.0)
        rng = np.random.default_rng(6)
        for _ in range(5):
            lags = rng.uniform(0.5, 5.5, 3)
            w = rng.normal(size=3)
            atoms = (
                section_sum(k, 0, lags, w),
                h0_poly(k, 0, 1),
                h0_poly(k, 0, 2),
            )
            g = FilterFunction(k, 0 + 1, atoms, np.array([1.0, 0.7, -0.2]))

            def d2(r):
                return sum(wi * max(ui - r, 0.0) for ui, wi in zip(lags, w))

            val, _ = quad(lambda r: d2(r) ** 2, 0, 6.0, points=sorted(lags), limit=200)
            assert_allclose(g.h1_seminorm_sq(), val, rtol=1e-9, atol=1e-12)

    def test_order_one_against_closed_form_derivative(self):
        # for order 1 the slice derivative is an indicator of r < s
        k = SobolevKernel(m=1, horizon=6.0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            lags = rng.uniform(0.5, 5.5, 3)
            w = rng.normal(size=3)
            g = FilterFunction(k, 1, (section_sum(k, 0, lags, w),), np.ones(1))

            def d1(r):
                return sum(wi * (1.0 if r < ui else 0.0) for ui, wi in zip(lags, w))

            val, _ = quad(lambda r: d1(r) ** 2, 0, 6.0, points=sorted(lags), limit=200)
            assert_allclose(g.h1_seminorm_sq(), val, rtol=1e-10, atol=1e-13)

    def test_bilinearity(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(8)
        a = random_filter(k, rng)
        b = random_filter(k, rng)
        c = combine((1.0, a), (2.0, b))
        want = inner_product(a, a) + 4 * inner_product(a, b) + 4 * inner_product(b, b)
        assert_allclose(inner_product(c, c), want, rtol=1e-10, atol=1e-11)


class TestProjection:
    def test_poly_projects_to_zero(self):
        k = SobolevKernel(m=2, horizon=4.0)
        g = FilterFunction(k, 1, (h0_poly(k, 0, 1), h0_poly(k, 0, 2)), np.array([3.0, -1.0]))
        pg = project(g)
        u = np.linspace(0, 4, 9)
        assert_allclose(pg.evaluate(0, u), np.zeros_like(u), atol=1e-15)
        assert pg.h1_seminorm_sq() == 0.0

    def test_full_section_projects_to_r1_section(self):
        k = SobolevKernel(m=2, horizon=4.0)
        full = FilterFunction(k, 1, (kernel_section(k, 0, 1.5, part="r"),), np.ones(1))
        r1 = FilterFunction(k, 1, (kernel_section(k, 0, 1.5, part="r1"),), np.ones(1))
        u = np.linspace(0, 4, 15)
        assert_allclose(project(full).evaluate(0, u), r1.evaluate(0, u), rtol=1e-13, atol=1e-14)

    def test_idempotent_and_seminorm_preserving(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_filter(k, rng)
            pg = project(g)
            ppg = project(pg)
            u = np.linspace(0, 5, 21)
            assert_allclose(pg.evaluate(0, u), ppg.evaluate(0, u), rtol=1e-12, atol=1e-13)
            assert_allclose(pg.h1_seminorm_sq(), g.h1_seminorm_sq(), rtol=1e-11, atol=1e-12)
            # after projection the full norm and the seminorm agree
            assert_allclose(inner_product(pg, pg), pg.h1_seminorm_sq(), rtol=1e-11, atol=1e-12)


class TestGramHelpers:
    def test_grams_match_pairwise_inner_products(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(10)
        g = random_filter(k, rng)
        atoms = list(g.atoms)
        Gh = h1_gram(atoms)
        Gf = full_gram(atoms)
        n = len(atoms)
        assert Gh.shape == (n, n) and Gf.shape == (n, n)
        for i in range(n):
            for j in range(n):
                a = FilterFunction(k, 1, (atoms[i],), np.ones(1))
                b = FilterFunction(k, 1, (atoms[j],), np.ones(1))
                assert_allclose(Gf[i, j], inner_product(a, b), rtol=1e-11, atol=1e-12)
                assert_allclose(
                    Gh[i, j],
                    inner_product(project(a), project(b)),
                    rtol=1e-11,
                    atol=1e-12,
                )

    def test_psd(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(11)
        g = random_filter(k, rng)
        for G in (h1_gram(list(g.atoms)), full_gram(list(g.atoms))):
            assert_allclose(G, G.T, atol=1e-12)
            assert np.linalg.eigvalsh(G).min() >= -1e-9


class TestSerialization:
    def test_json_round_trip_exact(self):
        k = SobolevKernel(m=2, horizon=5.0)
        rng = np.random.default_rng(12)
        g = random_filter(k, rng, n_channels=2)
        g2 = FilterFunction.from_json(g.to_json())
        assert g2.kernel.m == g.kernel.m
        assert g2.kernel.horizon == g.kernel.horizon
        assert g2.n_channels == g.n_channels
        assert np.array_equal(g2.coefficients, g.coefficients)
        u = np.linspace(0, 5, 31)
        for ch in range(2):
            assert np.array_equal(g2.evaluate(ch, u), g.evaluate(ch, u))

    def test_save_load(self, tmp_path):
        k = SobolevKernel(m=1, horizon=3.0)
        rng = np.random.default_rng(13)
        g = random_filter(k, rng)
        p = tmp_path / "g.json"
        p.write_text(g.to_json())
        g2 = FilterFunction.from_dict(_read_json(p, DataError))
        assert np.array_equal(g2.coefficients, g.coefficients)
        u = np.linspace(0, 3, 11)
        assert np.array_equal(g2.evaluate(0, u), g.evaluate(0, u))

    def test_merged_normal_form_is_not_written_lossily(self):
        # the v1 entry of a part="r" atom makes the reader recompute h0 from
        # the sections, which is not the merged h0 of a normal form
        k = SobolevKernel(m=2, horizon=5.0)
        g = random_filter(k, np.random.default_rng(14), n_channels=2)
        merged = FilterFunction(k, 2, g.normal_forms, np.ones(2))
        with pytest.raises(ConfigError):
            merged.to_dict()

    @pytest.mark.parametrize("m", [1, 2])
    def test_compact_keeps_the_normal_forms_bit_for_bit(self, m):
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, np.random.default_rng(15), n_channels=2)
        c = g.compact()
        assert all(
            sum(a.channel == ch for a in c.atoms) <= 1 + m for ch in range(2)
        )
        reread = FilterFunction.from_json(json.dumps(c.to_dict()))
        u = np.linspace(0.0, 5.0, 2001)
        for h in (c, reread):
            for f, f0 in zip(h.normal_forms, g.normal_forms):
                for name in ("sec_lags", "sec_weights", "seg_nodes", "seg_weights", "h0"):
                    assert np.array_equal(getattr(f, name), getattr(f0, name))
            for ch in range(2):
                assert np.array_equal(h.evaluate(ch, u), g.evaluate(ch, u))

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_written_normal_form_is_merged_again_with_the_same_bits(self, m, monkeypatch):
        # every channel of a compact filter and of its payload read back is
        # flattened and merged as any filter's is, with no domain check (the
        # filter checked its atoms when it was built), and gives the bits of
        # the full merge and of the filter it was written from; so does
        # coefficient 2
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, np.random.default_rng(16), n_channels=2)
        calls = []
        for owner, name in ((filters, "_flatten"), (filters, "_merge_sorted"), (SobolevKernel, "_check_domain")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        c = g.compact()
        reread = FilterFunction.from_dict(c.to_dict())
        for h in (c, reread):
            del calls[:]
            forms = h.normal_forms
            assert {"_flatten", "_merge_sorted"} <= set(calls) and "_check_domain" not in calls
            smooth = [a for a in h.atoms if a.kind != "h0"]
            assert len(smooth) == 2 and [a.channel for a in smooth] == [0, 1]
            for form, want, old in zip(forms, sorted_normal_forms(h), g.normal_forms):
                assert (form.kind, form.part, form.k) == ("normal", "r", None)
                for name, arr in zip(FORM_FIELDS, want):
                    assert same_bits(getattr(form, name), arr) and same_bits(arr, getattr(old, name)), name
        # an atom of a longer kernel, under this filter's horizon, is outside
        # its domain: the filter is not built
        short = SobolevKernel(m=m, horizon=float(c.atoms[0].sec_lags[-1]) / 2)
        with pytest.raises(DomainError):
            FilterFunction(short, 2, c.atoms, c.coefficients)
        del calls[:]
        doubled = FilterFunction(k, 2, c.atoms, np.where([a.kind == "h0" for a in c.atoms], c.coefficients, 2.0))
        forms = doubled.normal_forms
        assert {"_flatten", "_merge_sorted"} <= set(calls) and "_check_domain" not in calls
        for form, want in zip(forms, sorted_normal_forms(doubled)):
            for name, arr in zip(FORM_FIELDS, want):
                assert same_bits(getattr(form, name), arr), name

    def test_compact_of_a_polynomial_has_no_r1_atom(self):
        k = SobolevKernel(m=2, horizon=5.0)
        g = FilterFunction(k, 1, (h0_poly(k, 0, 2),), np.array([0.75]))
        c = g.compact()
        assert [a.kind for a in c.atoms] == ["h0"]
        assert c.atoms[0].k == 2 and c.coefficients.tolist() == [0.75]
        assert FilterFunction(k, 2, (), np.empty(0)).compact().atoms == ()

    @staticmethod
    def as_lists(payload) -> dict:
        """The payload with every base64 array spelled as a JSON list."""
        out = json.loads(json.dumps(payload))
        for entry in out["atoms"]:
            for key in ("sections", "segments"):
                for name, raw in entry.get(key, {}).items():
                    entry[key][name] = np.frombuffer(base64.b64decode(raw), "<f8").tolist()
        return out

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_arrays_are_written_as_float64_bytes(self, m):
        # a list-spelled payload loads to the same atoms and normal forms as
        # its bytes-spelled twin, and both to those of the written filter
        k = SobolevKernel(m=m, horizon=5.0)
        g = random_filter(k, np.random.default_rng(16 + m), n_channels=2)
        for h in (g, g.compact()):
            payload = h.to_dict()
            arrays = [
                raw for e in payload["atoms"] for key in ("sections", "segments")
                for raw in e.get(key, {}).values()
            ]
            assert {key for e in payload["atoms"] for key in e} >= {"sections", "segments"}
            assert arrays and all(isinstance(raw, str) for raw in arrays)
            for twin in (payload, self.as_lists(payload)):
                reread = FilterFunction.from_json(json.dumps(twin))
                for a, a0 in zip(reread.atoms + reread.normal_forms, h.atoms + h.normal_forms):
                    for name in FORM_FIELDS:
                        assert same_bits(getattr(a, name), getattr(a0, name))

    @pytest.mark.parametrize("spelling", ["list", "bytes"])
    def test_empty_arrays_load_as_no_entry(self, spelling):
        k = SobolevKernel(m=2, horizon=5.0)
        g = FilterFunction(k, 1, (kernel_section(k, 0, 1.0, part="r"),), np.array([0.5]))
        payload = g.to_dict()
        empty = spell([], spelling)
        payload["atoms"][0]["segments"] = {"nodes": empty, "weights": empty}
        reread = FilterFunction.from_dict(payload)
        (f,), (f0,) = reread.normal_forms, g.normal_forms
        assert all(same_bits(getattr(f, name), getattr(f0, name)) for name in FORM_FIELDS)
        payload["atoms"][0]["sections"] = {"lags": empty, "weights": empty}
        assert FilterFunction.from_dict(payload).atoms[0].is_zero

    def test_extra_keys_ignored(self):
        k = SobolevKernel(m=1, horizon=3.0)
        g = FilterFunction(k, 1, (kernel_section(k, 0, 1.0),), np.array([0.5]))
        payload = json.loads(g.to_json())
        payload["link"] = {"kind": "linear", "d": 0.5}
        g2 = FilterFunction.from_json(json.dumps(payload))
        assert np.array_equal(g2.coefficients, g.coefficients)


# (spelling, points, weights) of a sections or segments entry that does not
# load; bytes always spell a flat array
BAD_ARRAYS = {
    f"{spelling}-{name}": (spelling, points, weights)
    for spelling in ("list", "bytes")
    for name, points, weights in (
        ("points-longer", [1.0, 2.0], [1.0]),
        ("weights-longer", [1.0], [1.0, 2.0]),
        ("nan-point", [np.nan], [1.0]),
        ("inf-weight", [1.0], [np.inf]),
    )
}
BAD_ARRAYS["list-two-dimensional"] = ("list", [[1.0]], [[1.0]])


# (place, value) of a well-typed filter payload field out of range: the
# channel or polynomial index of atom 0 or 1, the part, the kernel order,
# the channel count and a coefficient
OUT_OF_RANGE = {
    "atom-channel": (("atoms", 0, "channel"), 1),
    "k-above-m": (("atoms", 1, "k"), 2),
    "part-x": (("atoms", 0, "part"), "x"),
    "m-zero": (("kernel", "m"), 0),
    "n_channels-zero": (("n_channels",), 0),
    "coefficient-nan": (("atoms", 0, "coefficient"), float("nan")),
}


def out_of_range_payload(place, value) -> dict:
    """A section and a polynomial on one channel at m = 1, one field set to
    ``value``."""
    k = SobolevKernel(m=1, horizon=3.0)
    g = FilterFunction(k, 1, (kernel_section(k, 0, 1.0), h0_poly(k, 0, 1)), np.array([0.5, 0.25]))
    payload = g.to_dict()
    inner = payload
    for key in place[:-1]:
        inner = inner[key]
    inner[place[-1]] = value
    return payload


class TestValidation:
    @pytest.mark.parametrize("place, value", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_payload_raises_data_error(self, place, value):
        # a filter payload that cannot be read is bad data, whether a field
        # is mistyped or well-typed and out of range
        with pytest.raises(DataError):
            FilterFunction.from_dict(out_of_range_payload(place, value))

    @pytest.mark.parametrize("payload", [[], {}, {"format": "glppm.filter.v2"}])
    def test_unknown_format_raises_data_error(self, payload):
        with pytest.raises(DataError, match="unrecognized filter format"):
            FilterFunction.from_dict(payload)

    def test_bad_json_raises_data_error(self):
        with pytest.raises(DataError, match="bad filter JSON"):
            FilterFunction.from_json('{"format": "glppm.filter.v1",')

    def test_coefficient_count(self):
        k = SobolevKernel(m=1, horizon=3.0)
        with pytest.raises(ConfigError):
            FilterFunction(k, 1, (h0_poly(k, 0, 1),), np.array([1.0, 2.0]))

    def test_atom_order_must_match_kernel(self):
        k1 = SobolevKernel(m=1, horizon=3.0)
        k2 = SobolevKernel(m=2, horizon=3.0)
        atom = h0_poly(k2, 0, 1)
        with pytest.raises(ConfigError):
            FilterFunction(k1, 1, (atom,), np.ones(1))

    def test_channel_bounds(self):
        k = SobolevKernel(m=1, horizon=3.0)
        atom = kernel_section(k, 1, 1.0)
        with pytest.raises(ConfigError):
            FilterFunction(k, 1, (atom,), np.ones(1))

    @pytest.mark.parametrize("m", [1, 2])
    def test_an_atom_of_a_longer_kernel_is_refused_when_the_filter_is_built(self, m):
        # a section lag or a segment node beyond the horizon raises at
        # construction, before any normal form is read
        long, short = SobolevKernel(m=m, horizon=10.0), SobolevKernel(m=m, horizon=5.0)
        for atom in (
            kernel_section(long, 0, 7.0),
            section_sum(long, 0, [1.0, 6.0], [1.0, 2.0]),
            integrated_segments(long, 0, [1.0], [6.0], [1.0]),
        ):
            with pytest.raises(DomainError) as exc:
                FilterFunction(short, 1, (h0_poly(short, 0, 1), atom), np.array([1.0, 0.0]))
            assert exc.value.at in (6.0, 7.0)
        # the horizon itself is inside
        at_end = kernel_section(long, 0, 5.0)
        assert FilterFunction(short, 1, (at_end,), np.ones(1)).evaluate(0, 5.0) > 0.0

    def test_a_nan_does_not_hide_an_out_of_range_lag_at_construction(self, monkeypatch):
        # sorted, a NaN comes last, so the last lag is no bound: such an
        # atom takes the kernel's check, which sees past the NaN, whether
        # the NaN is a section lag or a segment node; an atom whose lags
        # end within the horizon takes no check at all
        long, short = SobolevKernel(m=2, horizon=10.0), SobolevKernel(m=2, horizon=5.0)
        nan_last, ones = _ro([1.0, 7.0, np.nan]), _ro(np.ones(3))
        for bad in (
            _merged_atom(long, 0, "section", "r1", nan_last, ones),
            _merged_atom(long, 0, "normal", "r1", _ro([1.0]), _ro([1.0]), _ro([7.0, np.nan]), _ro([1.0, -1.0])),
        ):
            with pytest.raises(DomainError) as exc:
                FilterFunction(short, 1, (bad,), np.ones(1))
            assert exc.value.at == 7.0
        # a NaN beside lags in range evaluates to NaN, as before
        nan_inside = _merged_atom(long, 0, "section", "r1", _ro([1.0, np.nan]), _ro([1.0, 1.0]))
        g = FilterFunction(short, 1, (nan_inside,), np.ones(1))
        assert np.isnan(g.evaluate(0, 2.0))
        calls = []
        real = SobolevKernel._check_domain
        monkeypatch.setattr(SobolevKernel, "_check_domain", lambda *a: calls.append(a) or real(*a))
        inside = random_filter(short, np.random.default_rng(3), n_channels=2)
        calls.clear()
        FilterFunction(short, 2, inside.atoms, inside.coefficients).normal_forms
        assert calls == []

    def test_the_merge_gives_a_nan_a_group_of_its_own(self):
        # a lag starts a group unless it lies within 1e-12 of the one before
        # it, and a NaN lies within no distance: its weight stays on it, and
        # no finite lag takes it
        lags, weights = filters._merge_sorted(np.array([1.0, np.nan, 7.0]), np.array([1.0, 2.0, 4.0]))
        assert same_bits(lags, np.array([1.0, 7.0, np.nan])) and same_bits(weights, np.array([1.0, 4.0, 2.0]))
        lags = np.array([np.nan, 1.0 + 5e-13, 1.0, np.nan, 7.0, np.nan])
        order, starts, group = filters._merge(lags, np.array([0, 0, 0, 0, 1, 1]))
        assert order.tolist() == [2, 1, 0, 3, 4, 5]
        assert starts.tolist() == [True, False, True, True, True, True]
        assert group.tolist() == [0, 0, 1, 2, 3, 4]

    def test_a_nan_lag_node_or_weight_is_refused_before_the_merge(self):
        # an atom's input is checked where it is built: a lag, node or
        # weight that is not finite is refused, before the merge would give
        # it an entry of its own
        k = SobolevKernel(m=2, horizon=10.0)
        nan, none = np.nan, np.empty(0)
        for build in (
            lambda: _normal_form_atom(k, 0, "section", "r1", np.array([nan, 7.0, 1.0]), np.ones(3), none, none),
            lambda: section_sum(k, 0, [nan, 7.0, 1.0], np.ones(3)),
            lambda: integrated_segments(k, 0, [0.5], [nan], [1.0]),
            lambda: integrated_segments(k, 0, [nan], [0.5], [1.0]),
        ):
            with pytest.raises(DomainError, match="finite"):
                build()
        for build in (
            lambda: _normal_form_atom(k, 0, "section", "r1", np.array([1.0, 7.0]), np.array([1.0, nan]), none, none),
            lambda: integrated_segments(k, 0, [0.5], [1.0], [nan]),
            lambda: integrated_segments(k, 0, [0.5], [1.0], [np.inf]),
        ):
            with pytest.raises(ConfigError, match="finite"):
                build()
        # an out-of-range lag beside a NaN is reported as such
        with pytest.raises(DomainError) as exc:
            section_sum(k, 0, [nan, 12.0], np.ones(2))
        assert exc.value.at == 12.0

    def test_poly_index_range(self):
        k = SobolevKernel(m=2, horizon=3.0)
        with pytest.raises(ConfigError):
            h0_poly(k, 0, 3)
        with pytest.raises(ConfigError):
            h0_poly(k, 0, 0)

    def test_segment_bounds(self):
        k = SobolevKernel(m=1, horizon=3.0)
        with pytest.raises(ConfigError):
            integrated_segments(k, 0, [1.0], [0.5], [1.0])

    @pytest.mark.parametrize("key, first", [("sections", "lags"), ("segments", "nodes")])
    @pytest.mark.parametrize(
        "spelling, points, weights", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys()
    )
    def test_malformed_arrays_raise_data_error(self, key, first, spelling, points, weights):
        # read as they stand, a short weight array indexes out of range, a
        # long one loses its tail, and a NaN lag evaluates as no lag at all
        k = SobolevKernel(m=1, horizon=3.0)
        payload = json.loads(FilterFunction(k, 1, (), np.empty(0)).to_json())
        entry = {first: spell(points, spelling), "weights": spell(weights, spelling)}
        payload["atoms"] = [
            {"channel": 0, "kind": "section", "part": "r1", key: entry, "coefficient": 1.0}
        ]
        with pytest.raises(DataError):
            FilterFunction.from_dict(payload)

    def test_cancellation_gives_zero_function(self):
        k = SobolevKernel(m=2, horizon=4.0)
        sec = kernel_section(k, 0, 1.3)
        g = FilterFunction(k, 1, (sec, sec), np.array([1.0, -1.0]))
        u = np.linspace(0, 4, 9)
        assert_allclose(g.evaluate(0, u), np.zeros_like(u), atol=1e-15)
        assert_allclose(g.h1_seminorm_sq(), 0.0, atol=1e-13)
