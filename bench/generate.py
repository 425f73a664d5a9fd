"""Seeded Hawkes datasets for the benchmark, drawn without ``glppm``.

The fit workloads must not change their inputs when ``glppm.simulate``
changes, so datasets come from the cluster (branching) construction of a
linear Hawkes process instead of from the package's thinning simulator:
immigrants arrive at rate ``MU`` and every event has a Poisson number of
offspring with mean ``BRANCHING`` at exponential delays of rate ``DECAY``.
The intensity is then MU + sum_{s < t} g(t - s) with
g(u) = BRANCHING * DECAY * exp(-DECAY * u) = 0.5 exp(-2u), and the mean
rate is MU / (1 - BRANCHING).

A dataset is written in the CLI's format: ``dataset.json`` (manifest)
next to ``events.csv`` (rows ``time,channel``, floats in ``repr`` form so
they round-trip exactly).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MU = 0.5
BRANCHING = 0.25
DECAY = 2.0
TARGET = "target"


def hawkes_times(rng: np.random.Generator, horizon: float) -> np.ndarray:
    """Sorted event times on (0, horizon) by the cluster construction."""
    gen = rng.uniform(0.0, horizon, rng.poisson(MU * horizon))
    out = [gen]
    while gen.size:
        kids = rng.poisson(BRANCHING, gen.size)
        parents = np.repeat(gen, kids)
        gen = parents + rng.exponential(1.0 / DECAY, parents.size)
        gen = gen[gen < horizon]
        out.append(gen)
    times = np.sort(np.concatenate(out))
    return times[times > 0.0]


def window_for(n: int) -> float:
    """Mean length of the window that holds ``n`` events: n (1 - BRANCHING) / MU."""
    return n * (1.0 - BRANCHING) / MU


def hawkes_exactly_n(rng: np.random.Generator, n: int, horizon: float) -> np.ndarray:
    """A path on (0, horizon) conditioned on holding exactly ``n`` events.

    Paths are drawn from ``rng`` until one holds ``n`` events (about one in
    16 does for n = 20 on the mean window).  Fixing both the count and the
    window gives every dataset of a batch about the same cost: with the
    count alone fixed, the window of 20 events varied by about 30 % and
    fit time followed it (correlation 0.85), so a batch's fit time varied
    by up to 35 % from seed to seed.
    """
    while True:
        times = hawkes_times(rng, horizon)
        if times.size == n:
            return times


def dataset_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for dataset ``index`` of the batch drawn with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def write_dataset(directory, times: np.ndarray, horizon: float) -> Path:
    """Write manifest plus CSV; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["time,channel"] + [f"{float(t)!r},{TARGET}" for t in times]
    (directory / "events.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "horizon": float(horizon),
        "target_channel": TARGET,
        "driver_channels": [],
        "self_exciting": True,
        "csv": "events.csv",
    }
    path = directory / "dataset.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def write_batch(root, seed: int, count: int, n_events: int) -> list[Path]:
    """``count`` datasets of ``n_events`` events on the window
    ``window_for(n_events)``, under ``root/d<i>``.

    Every index drawn is kept: no dataset is skipped for being slow or for
    failing to fit.
    """
    horizon = window_for(n_events)
    return [
        write_dataset(Path(root) / f"d{i}",
                      hawkes_exactly_n(dataset_rng(seed, i), n_events, horizon), horizon)
        for i in range(count)
    ]
