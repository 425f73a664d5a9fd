"""Output checks for each CLI command the benchmark runs, and the
identical-work guard.

Every check returns a list of problems (empty when the output is sound) so
that the runner can report all of them at once.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FIT_EXIT_CODES = (0, 4)  # converged / written but not converged


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_fit(out_dir, rc: int) -> list[str]:
    """Exit code 0 or 4; finite objective not above the first traced value;
    a converged fit meets its own stationarity tolerance."""
    out_dir = Path(out_dir)
    if rc not in FIT_EXIT_CODES:
        return [f"{out_dir.name}: fit exit code {rc}"]
    res = json.loads((out_dir / "fit_result.json").read_text())
    trace = _rows(out_dir / "trace.csv")
    problems = []
    obj = res["objective"]
    if not isinstance(obj, (int, float)) or not math.isfinite(obj):
        problems.append(f"{out_dir.name}: objective {obj!r} is not finite")
    elif not trace or obj > float(trace[0][1]):
        first = trace[0][1] if trace else None
        problems.append(f"{out_dir.name}: objective {obj!r} above first trace value {first}")
    if (rc == 0) != bool(res["converged"]):
        problems.append(f"{out_dir.name}: exit code {rc} but converged={res['converged']}")
    if res["converged"] and not res["stationarity_residual"] <= res["tol"]:
        problems.append(
            f"{out_dir.name}: converged with stationarity residual "
            f"{res['stationarity_residual']!r} > tol {res['tol']!r}"
        )
    return problems


def check_gof(out_dir, rc: int, n_events: int, expected=None) -> list[str]:
    """N finite, positive rescaled gaps and a KS record over N of them; with
    ``expected``, gaps equal to those to 1e-9 (relative)."""
    out_dir = Path(out_dir)
    if rc != 0:
        return [f"{out_dir.parent.name}: gof exit code {rc}"]
    gaps = np.array([float(r[0]) for r in _rows(out_dir / "gaps.csv")])
    ks = json.loads((out_dir / "ks.json").read_text())
    problems = []
    if gaps.size != n_events:
        problems.append(f"{out_dir.parent.name}: {gaps.size} gaps for {n_events} events")
    if not (np.isfinite(gaps).all() and (gaps > 0).all()):
        problems.append(f"{out_dir.parent.name}: gaps not all finite and positive")
    if expected is not None and not (
        gaps.size == len(expected) and np.allclose(gaps, expected, rtol=1e-9, atol=1e-12)
    ):
        problems.append(f"{out_dir.parent.name}: gaps differ from the independent compensator")
    if ks.get("n") != n_events:
        problems.append(f"{out_dir.parent.name}: ks.json n={ks.get('n')} for {n_events} events")
    return problems


def read_events(dataset_dir) -> tuple[np.ndarray, float]:
    """Target event times and horizon of a dataset written by the CLI."""
    dataset_dir = Path(dataset_dir)
    manifest = json.loads((dataset_dir / "dataset.json").read_text())
    times = np.array(
        [float(r[0]) for r in _rows(dataset_dir / manifest.get("csv", "events.csv"))
         if r[1] == manifest["target_channel"]]
    )
    return times, float(manifest["horizon"])


def check_simulated(times: np.ndarray, horizon: float, name: str) -> list[str]:
    """Strictly increasing events inside (0, H)."""
    problems = []
    if times.size and (np.diff(times) <= 0).any():
        problems.append(f"{name}: simulated events not sorted")
    if times.size and (times[0] <= 0.0 or times[-1] >= horizon):
        problems.append(f"{name}: simulated events outside (0, {horizon})")
    return problems


def hat_rescaled_gaps(times: np.ndarray, baseline: float, height: float, width: float) -> np.ndarray:
    """Compensator increments between events of a linear Hawkes process with
    the triangular filter g(u) = height * max(0, 1 - u / width).

    Lambda(t) = baseline t + sum_{s < t} G(t - s), with G the integral of g:
    height (x - x^2 / (2 width)) up to ``width`` and height width / 2 after.
    Computed here, not by ``glppm``, so the check is independent of it.
    """
    lags = np.clip(times[:, None] - times[None, :], 0.0, width)
    big_g = height * (lags - lags**2 / (2.0 * width))
    comp = baseline * times + big_g.sum(axis=1)
    return np.diff(np.concatenate(([0.0], comp)))


def compare_records(first, other, label: str) -> list[str]:
    """Differences between two record lists of the same work."""
    if len(first) != len(other):
        return [f"{label}: {len(other)} records, first run had {len(first)}"]
    problems = []
    for a, b in zip(first, other):
        if a != b:
            problems.append(f"{label}: {b} differs from first run {a}")
    return problems
