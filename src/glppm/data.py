"""Event data containers, CSV/JSON loading and the at-risk process.

Datasets are a CSV of rows ``time,channel[,mark]`` sorted by time plus a JSON
manifest naming the target channel, the driver channels and the horizon.
Target rows are the observed events of the modelled counting process; driver
rows are jumps of the processes feeding the filter.  In self-exciting mode
the target channel is additionally registered as a driver with unit jumps.

Every input file, JSON or CSV, is read by ``_read_text``: one open, its
bytes read whole and decoded as UTF-8, so a file that cannot be opened or
is not UTF-8 is the reader's typed error.  While ``recording_inputs`` is
open, as it is around each CLI command, the reader also records the sha256
of those bytes, so the run manifest pins every input without opening it
again.  Every output file is written by ``_write_text``: its text encoded
once and written through one unbuffered binary open.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "AtRiskProcess",
    "DatasetManifest",
    "DriverChannel",
    "DriverSeries",
    "EventSeries",
    "load_events",
    "load_manifest",
    "save_events",
]


def _as_number(raw, what: str, error=ConfigError, integer: bool = False):
    """``raw`` as a float, or as an int when ``integer``.  A value that is
    not an int, a float or a NumPy real scalar (a bool or a string such as
    "1_0" included), or not integral where an integer is asked for, raises
    ``error``: read as another value, it would run another model silently."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a number, got {raw!r}")
    value = float(raw)
    if not integer:
        return value
    if not value.is_integer():
        raise error(f"{what} must be an integer, got {raw!r}")
    return int(value)


def _as_bool(raw, what: str) -> bool:
    """``raw`` if it is a JSON boolean, else ConfigError: ``bool("false")``
    is true."""
    if not isinstance(raw, bool):
        raise ConfigError(f"{what} must be true or false, got {raw!r}")
    return raw


def _as_float_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only, one-dimensional, finite float array, or
    DataError.  A list or tuple must hold ints, floats or NumPy real
    scalars, and an ndarray must have an integer or float dtype: a bool or
    a string such as "1" would otherwise be read as a number."""
    if isinstance(values, (list, tuple)):
        numbers = all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in values
        )
    else:
        numbers = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    if not numbers:
        raise DataError(f"{name} must be numbers, got {values!r}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional")
    if arr.size and not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EventSeries:
    """Strictly increasing target event times in (0, horizon]."""

    horizon: float
    times: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise DataError(f"horizon must be positive, got {self.horizon!r}")
        times = _as_float_array(self.times, "event times")
        if times.size:
            if np.diff(times).min(initial=np.inf) <= 0:
                raise DataError("event times must be strictly increasing")
            if times[0] <= 0 or times[-1] > self.horizon:
                raise DataError("event times must lie in (0, horizon]")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class DriverChannel:
    """One driver: non-decreasing jump times with nonnegative-by-default marks."""

    name: str
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        times = _as_float_array(self.times, f"driver '{self.name}' times")
        sizes = _as_float_array(self.sizes, f"driver '{self.name}' sizes")
        if times.size != sizes.size:
            raise DataError(f"driver '{self.name}': times and sizes differ in length")
        if times.size:
            if np.diff(times).min(initial=np.inf) < 0:
                raise DataError(f"driver '{self.name}': jump times must be non-decreasing")
            if times[0] < 0:
                raise DataError(f"driver '{self.name}': jump times must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class DriverSeries:
    """All driver channels over a common horizon."""

    horizon: float
    channels: tuple[DriverChannel, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise DataError("at least one driver channel is required")
        names = [c.name for c in channels]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate driver channel names: {names}")
        for c in channels:
            if c.times.size and c.times[-1] > self.horizon:
                raise DataError(f"driver '{c.name}': jump at {c.times[-1]} beyond horizon")
        object.__setattr__(self, "channels", channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)


class AtRiskProcess:
    """Piecewise-constant at-risk (exposure) process.

    Stored right-continuous as ``values[i]`` on the interval between
    ``breakpoints[i-1]`` and ``breakpoints[i]``.  Evaluation uses the
    left-limit convention: the value *used at* time s is the value on the
    interval ending at s, so the process is predictable at its own jumps.
    """

    def __init__(self, breakpoints, values):
        self.breakpoints = _as_float_array(breakpoints, "at-risk breakpoints")
        self.values = _as_float_array(values, "at-risk values")
        if self.values.size != self.breakpoints.size + 1:
            raise DataError("at-risk needs len(values) == len(breakpoints) + 1")
        if self.breakpoints.size and np.diff(self.breakpoints).min(initial=np.inf) <= 0:
            raise DataError("at-risk breakpoints must be strictly increasing")
        if self.values.size and self.values.min() < 0:
            raise DataError("at-risk values must be nonnegative")

    @classmethod
    def unit(cls) -> "AtRiskProcess":
        return cls(np.empty(0), np.ones(1))

    def at(self, s):
        """Value used at time s (left-limit convention at breakpoints)."""
        idx = np.searchsorted(self.breakpoints, np.asarray(s, dtype=float), side="left")
        return self.values[idx]

    def pieces(self, horizon: float) -> list[tuple[float, float, float]]:
        """Constancy intervals (a, b, value) covering [0, horizon]."""
        inner = [float(b) for b in self.breakpoints if 0.0 < b < horizon]
        edges = [0.0] + inner + [float(horizon)]
        return [
            (a, b, float(self.at(0.5 * (a + b))))
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]

    def integral(self, horizon: float) -> float:
        """Exact int_0^horizon Y_s ds."""
        return float(sum(v * (b - a) for a, b, v in self.pieces(horizon)))


@dataclass(frozen=True)
class DatasetManifest:
    """Sidecar description of a dataset CSV."""

    horizon: float
    target_channel: str
    driver_channels: tuple[str, ...] = ()
    self_exciting: bool = True
    csv: str | None = None

    def __post_init__(self):
        # a field of the wrong JSON type would fail later as bad data, or run as "None"
        names = self.driver_channels
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ConfigError(f"driver_channels must be a list of names, got {names!r}")
        object.__setattr__(self, "driver_channels", tuple(names))
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"dataset horizon must be positive and finite, got {self.horizon!r}")
        if not isinstance(self.target_channel, str):
            raise ConfigError(f"target channel must be a name, got {self.target_channel!r}")
        if not isinstance(self.csv, (str, type(None))):
            raise ConfigError(f"dataset csv must be a path or null, got {self.csv!r}")
        # a channel name is part of an output file name (filter_grid_<name>.csv)
        for name in (self.target_channel, *self.driver_channels):
            if {"/", "\0", os.sep, os.altsep} & set(name):
                raise ConfigError(f"channel name {name!r} contains a path separator or NUL")
        if len(set(self.driver_channels)) != len(self.driver_channels):
            raise ConfigError(f"duplicate driver channel names: {list(self.driver_channels)}")
        if self.target_channel in self.driver_channels:
            raise ConfigError(
                "target channel must not be listed among driver_channels; "
                "set self_exciting instead"
            )
        if not self.self_exciting and not self.driver_channels:
            raise ConfigError("need driver_channels or self_exciting=true")

    def driver_names(self) -> list[str]:
        """Driver channel order used everywhere: declared drivers first,
        then the target itself when self-exciting."""
        names = list(self.driver_channels)
        if self.self_exciting:
            names.append(self.target_channel)
        return names

    def to_dict(self) -> dict:
        out = {
            "horizon": self.horizon,
            "target_channel": self.target_channel,
            "driver_channels": list(self.driver_channels),
            "self_exciting": self.self_exciting,
        }
        if self.csv is not None:
            out["csv"] = self.csv
        return out


# the files read while ``recording_inputs`` is open, {absolute path: sha256
# of the bytes read}; None outside
_INPUTS: ContextVar[dict | None] = ContextVar("glppm_inputs", default=None)


@contextmanager
def recording_inputs():
    """A record, for the block's duration, of every file that
    ``_read_text`` reads: the sha256 of its bytes under the path's
    ``os.path.abspath``."""
    record: dict[str, str] = {}
    token = _INPUTS.set(record)
    try:
        yield record
    finally:
        _INPUTS.reset(token)


def _read_text(path, what: str, error) -> str:
    """The file at ``path`` as text: one unbuffered open, its bytes read
    whole and decoded as UTF-8.  A file that cannot be read or is not
    UTF-8 raises ``error``, "cannot read <what> <path>: ...".  Inside
    ``recording_inputs`` the bytes' sha256 is recorded."""
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    record = _INPUTS.get()
    if record is not None:
        record[os.path.abspath(path)] = hashlib.sha256(raw).hexdigest()
    return text


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8: encoded once, then written
    through one unbuffered binary open."""
    view = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0) as fh:
        while view:
            view = view[fh.write(view) :]


def _read_json(path, error=ConfigError) -> dict:
    """The JSON object in the file at ``path`` (``_read_text``); a file
    that cannot be read, is not UTF-8 or JSON, or holds no object at top
    level raises ``error``: ConfigError for a config or dataset manifest,
    DataError for a filter file."""
    path = Path(path)
    text = _read_text(path, "JSON", error)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"cannot read JSON {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object at top level")
    return raw


def load_manifest(path) -> DatasetManifest:
    """The dataset manifest JSON at ``path`` (``_read_json``); a file that
    cannot be read, is not UTF-8, or holds a missing or mistyped field
    raises ConfigError."""
    raw = _read_json(path)
    try:
        return DatasetManifest(
            horizon=_as_number(raw["horizon"], f"dataset manifest {path} horizon"),
            target_channel=raw["target_channel"],
            driver_channels=raw.get("driver_channels", ()),
            self_exciting=_as_bool(
                raw.get("self_exciting", True), f"dataset manifest {path} self_exciting"
            ),
            csv=raw.get("csv"),
        )
    except KeyError as exc:
        raise ConfigError(f"dataset manifest {path} missing key {exc}") from exc


def _parse_rows(path: Path):
    """(line number, time, channel, mark) of each data row of the CSV at
    ``path``, read by ``_read_text`` and split into lines as a file opened
    with ``newline=""`` splits them."""
    text = _read_text(path, "dataset CSV", DataError)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["time", "channel"] or len(cols) > 3 or (
        len(cols) == 3 and cols[2] != "mark"
    ):
        raise DataError(f"{path}: expected header 'time,channel[,mark]', got {header}")
    has_mark = len(cols) == 3
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(cols):
            raise DataError(f"{path} line {lineno}: expected {len(cols)} fields, got {len(row)}")
        try:
            t = float(row[0])
        except ValueError:
            raise DataError(f"{path} line {lineno}: bad time {row[0]!r}") from None
        channel = row[1].strip()
        mark = None
        if has_mark and row[2].strip():
            try:
                mark = float(row[2])
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad mark {row[2]!r}") from None
        yield lineno, t, channel, mark


def load_events(path, manifest: DatasetManifest) -> tuple[EventSeries, DriverSeries]:
    """Load a dataset CSV into (EventSeries, DriverSeries) per the manifest.
    The file is read once (``_read_text``); one that cannot be read, is not
    UTF-8, or holds a bad row raises DataError."""
    path = Path(path)
    target_times: list[float] = []
    driver_rows: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for name in manifest.driver_channels
    }
    last_time = -np.inf
    for lineno, t, channel, mark in _parse_rows(path):
        if t < last_time:
            raise DataError(f"{path} line {lineno}: unsorted time {t} (previous {last_time})")
        last_time = t
        if channel == manifest.target_channel:
            if mark is not None and mark != 1.0:
                raise DataError(
                    f"{path} line {lineno}: target rows must have mark 1 or none, got {mark}"
                )
            if target_times and t == target_times[-1]:
                raise DataError(f"{path} line {lineno}: duplicate target event time {t}")
            if not 0.0 < t <= manifest.horizon:
                raise DataError(f"{path} line {lineno}: event time {t} outside (0, horizon]")
            target_times.append(t)
        elif channel in driver_rows:
            if not 0.0 <= t <= manifest.horizon:
                raise DataError(f"{path} line {lineno}: driver time {t} outside [0, horizon]")
            times, sizes = driver_rows[channel]
            times.append(t)
            sizes.append(1.0 if mark is None else mark)
        else:
            raise DataError(f"{path} line {lineno}: unknown channel {channel!r}")

    events = EventSeries(manifest.horizon, np.array(target_times))
    channels = [
        DriverChannel(name, np.array(driver_rows[name][0]), np.array(driver_rows[name][1]))
        for name in manifest.driver_channels
    ]
    if manifest.self_exciting:
        channels.append(
            DriverChannel(manifest.target_channel, events.times.copy(), np.ones(len(events)))
        )
    drivers = DriverSeries(manifest.horizon, tuple(channels))
    return events, drivers


def save_events(path, events: EventSeries, drivers: DriverSeries, manifest: DatasetManifest) -> None:
    """Write the dataset CSV; float formatting round-trips bit-exactly.  The
    rows are formatted by ``csv.writer`` in memory and written once
    (``_write_text``)."""
    rows: list[tuple[float, str, float | None]] = [(t, manifest.target_channel, None) for t in events.times]
    for ch in drivers.channels:
        if ch.name == manifest.target_channel:
            continue  # self-exciting copy of the target, not separate rows
        rows.extend((t, ch.name, z) for t, z in zip(ch.times, ch.sizes))
    rows.sort(key=lambda r: r[0])
    has_mark = any(r[2] is not None for r in rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["time", "channel", "mark"] if has_mark else ["time", "channel"])
    # without a mark column every mark is None, and its cell is cut off
    writer.writerows(
        [repr(float(t)), name, "" if mark is None else repr(float(mark))][: 2 + has_mark]
        for t, name, mark in rows
    )
    _write_text(path, buf.getvalue())
