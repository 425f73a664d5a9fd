"""Event containers, at-risk process, manifest, and CSV round trips."""

import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from glppm.data import (
    AtRiskProcess,
    DatasetManifest,
    DriverChannel,
    DriverSeries,
    EventSeries,
    load_events,
    load_manifest,
    save_events,
)
from glppm.errors import ConfigError, DataError


class TestEventSeries:
    def test_valid(self):
        ev = EventSeries(5.0, np.array([1.0, 2.5, 5.0]))
        assert ev.times.dtype == np.float64
        assert len(ev.times) == 3

    def test_empty_ok(self):
        ev = EventSeries(5.0, np.empty(0))
        assert ev.times.size == 0

    def test_bad_horizon(self):
        with pytest.raises(DataError):
            EventSeries(0.0, np.empty(0))
        with pytest.raises(DataError):
            EventSeries(-1.0, np.empty(0))

    def test_not_increasing(self):
        with pytest.raises(DataError):
            EventSeries(5.0, np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            EventSeries(5.0, np.array([2.0, 1.0]))

    def test_outside_window(self):
        # events live in (0, horizon]: zero and beyond-horizon both rejected
        with pytest.raises(DataError):
            EventSeries(5.0, np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            EventSeries(5.0, np.array([1.0, 5.0 + 1e-9]))

    def test_non_finite(self):
        with pytest.raises(DataError):
            EventSeries(5.0, np.array([1.0, np.nan]))


class TestDriverChannel:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            DriverChannel("z", np.array([1.0]), np.array([1.0, 2.0]))

    def test_decreasing_times(self):
        with pytest.raises(DataError):
            DriverChannel("z", np.array([2.0, 1.0]), np.ones(2))

    def test_ties_allowed(self):
        ch = DriverChannel("z", np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert ch.times.size == 2

    def test_negative_time(self):
        with pytest.raises(DataError):
            DriverChannel("z", np.array([-0.5]), np.ones(1))

    def test_jump_at_zero_allowed(self):
        # exogenous drivers may jump at the window start
        ch = DriverChannel("z", np.array([0.0]), np.ones(1))
        assert ch.times[0] == 0.0


class TestDriverSeries:
    def test_needs_channels(self):
        with pytest.raises(DataError):
            DriverSeries(5.0, ())

    def test_duplicate_names(self):
        a = DriverChannel("z", np.array([1.0]), np.ones(1))
        with pytest.raises(DataError):
            DriverSeries(5.0, (a, a))

    def test_jump_beyond_horizon(self):
        a = DriverChannel("z", np.array([6.0]), np.ones(1))
        with pytest.raises(DataError):
            DriverSeries(5.0, (a,))


class TestAtRiskProcess:
    def test_unit(self):
        y = AtRiskProcess.unit()
        assert y.at(0.3) == 1.0
        assert y.integral(7.0) == 7.0

    def test_left_limit_at_breakpoint(self):
        # value used AT a breakpoint is the value of the interval ending there
        y = AtRiskProcess([2.0], [1.0, 3.0])
        assert y.at(2.0) == 1.0
        assert y.at(2.0 + 1e-12) == 3.0
        assert y.at(0.5) == 1.0
        assert y.at(4.0) == 3.0

    def test_pieces_and_integral(self):
        y = AtRiskProcess([1.0, 3.0], [2.0, 0.0, 1.0])
        assert y.pieces(5.0) == [(0.0, 1.0, 2.0), (1.0, 3.0, 0.0), (3.0, 5.0, 1.0)]
        assert y.integral(5.0) == 2.0 + 0.0 + 2.0
        # horizon inside the first interval drops the later pieces
        assert y.pieces(0.5) == [(0.0, 0.5, 2.0)]
        assert y.integral(0.5) == 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            AtRiskProcess([1.0], [1.0])
        with pytest.raises(DataError):
            AtRiskProcess([2.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(DataError):
            AtRiskProcess([1.0], [1.0, -0.5])

    def test_vector_evaluation(self):
        y = AtRiskProcess([2.0], [1.0, 3.0])
        out = y.at(np.array([0.1, 2.0, 2.5]))
        assert_allclose(out, [1.0, 1.0, 3.0])


class TestManifest:
    def test_driver_names_order(self):
        m = DatasetManifest(10.0, "target", ("a", "b"), self_exciting=True)
        assert m.driver_names() == ["a", "b", "target"]
        m2 = DatasetManifest(10.0, "target", ("a",), self_exciting=False)
        assert m2.driver_names() == ["a"]

    def test_target_listed_as_driver(self):
        with pytest.raises(ConfigError):
            DatasetManifest(10.0, "t", ("t",))

    def test_needs_some_channel(self):
        with pytest.raises(ConfigError):
            DatasetManifest(10.0, "t", (), self_exciting=False)

    # a channel name becomes part of an output file name: every path
    # separator of this system is refused, and NUL
    @pytest.mark.parametrize("char", sorted({"/", "\0", os.sep, os.altsep} - {None}))
    def test_a_name_with_a_path_separator_is_refused(self, char):
        for target, drivers in (("a" + char + "b", ("z",)), ("t", ("z", char + "b"))):
            with pytest.raises(ConfigError, match="path separator"):
                DatasetManifest(10.0, target, drivers)
        DatasetManifest(10.0, "a.b", ("z-1", "c d"))

    def test_manifest_file_round_trip(self, tmp_path):
        import json

        m = DatasetManifest(12.5, "spikes", ("stim",), self_exciting=True, csv="d.csv")
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m.to_dict()))
        m2 = load_manifest(p)
        assert m2 == m

    # a field of the wrong JSON type or value is refused as configuration,
    # before it can fail later as bad data or run under another name
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("csv", 5, "csv must be a path"),
            ("csv", ["events.csv"], "csv must be a path"),
            ("target_channel", None, "target channel must be a name"),
            ("target_channel", 5, "target channel must be a name"),
            ("horizon", -1.0, "horizon must be positive"),
            ("horizon", float("inf"), "horizon must be positive"),
            ("driver_channels", "z", "driver_channels must be a list of names"),
        ],
    )
    def test_a_field_of_the_wrong_type_or_value_is_refused(self, tmp_path, field, value, match):
        import json

        raw = {"horizon": 5.0, "target_channel": "t", "driver_channels": [], "csv": "d.csv", field: value}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=match):
            load_manifest(p)

    def test_manifest_missing_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"horizon": 5.0}')
        with pytest.raises(ConfigError):
            load_manifest(p)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path, tiny):
        events, drivers = tiny
        # awkward floats make sure repr round-tripping is exercised
        events = EventSeries(8.0, events.times + 1e-13)
        m = DatasetManifest(8.0, "target", ("z",))
        p = tmp_path / "d.csv"
        save_events(p, events, drivers, m)
        ev2, dr2 = load_events(p, m)
        assert np.array_equal(ev2.times, events.times)
        assert [c.name for c in dr2.channels] == ["z", "target"]
        z = dr2.channels[0]
        assert np.array_equal(z.times, drivers.channels[0].times)
        assert np.array_equal(z.sizes, drivers.channels[0].sizes)
        tgt = dr2.channels[1]
        assert np.array_equal(tgt.times, events.times)
        assert np.array_equal(tgt.sizes, np.ones(3))

    def test_empty_dataset(self, tmp_path):
        m = DatasetManifest(4.0, "target", ())
        events = EventSeries(4.0, np.empty(0))
        drivers = DriverSeries(4.0, (DriverChannel("target", np.empty(0), np.empty(0)),))
        p = tmp_path / "d.csv"
        save_events(p, events, drivers, m)
        ev2, dr2 = load_events(p, m)
        assert ev2.times.size == 0
        assert dr2.channels[0].times.size == 0

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(1, 12))
            times = np.sort(rng.uniform(0.01, 9.99, n))
            times = np.unique(times)
            ztimes = np.sort(rng.uniform(0.0, 10.0, 4))
            zsizes = rng.uniform(0.1, 3.0, 4)
            events = EventSeries(10.0, times)
            drivers = DriverSeries(
                10.0,
                (
                    DriverChannel("z", ztimes, zsizes),
                    DriverChannel("target", times, np.ones(times.size)),
                ),
            )
            m = DatasetManifest(10.0, "target", ("z",))
            p = tmp_path / f"d{trial}.csv"
            save_events(p, events, drivers, m)
            ev2, dr2 = load_events(p, m)
            assert np.array_equal(ev2.times, times)
            assert np.array_equal(dr2.channels[0].times, ztimes)
            assert np.array_equal(dr2.channels[0].sizes, zsizes)


class TestCsvParsing:
    def _manifest(self):
        return DatasetManifest(10.0, "target", ("z",))

    def _load(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return load_events(p, self._manifest())

    def test_header_required(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "t,chan\n1.0,target\n")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "")

    def test_mark_column_optional(self, tmp_path):
        ev, dr = self._load(tmp_path, "time,channel\n0.5,z\n1.0,target\n")
        assert np.array_equal(dr.channels[0].sizes, [1.0])
        assert np.array_equal(ev.times, [1.0])

    def test_unsorted(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\n2.0,target\n1.0,z\n")

    def test_unknown_channel(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\n1.0,mystery\n")

    def test_duplicate_target_time(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\n1.0,target\n1.0,target\n")

    def test_bad_time(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\noops,target\n")

    def test_bad_mark(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel,mark\n1.0,z,heavy\n")

    def test_event_at_zero(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\n0.0,target\n")

    def test_driver_at_zero_ok(self, tmp_path):
        ev, dr = self._load(tmp_path, "time,channel\n0.0,z\n")
        assert dr.channels[0].times[0] == 0.0

    def test_beyond_horizon(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel\n10.5,target\n")

    def test_target_mark_must_be_one(self, tmp_path):
        with pytest.raises(DataError):
            self._load(tmp_path, "time,channel,mark\n1.0,target,2.0\n")
