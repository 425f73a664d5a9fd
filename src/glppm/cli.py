"""Command line front end: simulate, fit, intensity, gof and basis dumps.

``fit`` writes the fitted filter to ``filter.json`` in its normal form
(``FilterFunction.compact``): per channel, one ``r1`` atom that merges the
smooth part of every dictionary atom, and one ``h0`` atom per nonzero
polynomial coefficient, all in the ``glppm.filter.v1`` schema.  It is the
same function as the fit's full dictionary, so ``gof`` and ``intensity``
give the same numbers from it; ``fit_result.json`` records the dictionary
size as ``diagnostics.n_atoms`` and the solver's stop ``reason``.
The arrays of ``filter.json`` are base64 float64 bytes (see ``filters``),
so the human-readable view of the fit is ``filter_grid_<channel>.csv``:
the fitted filter of each driver channel on an even grid of lags over the
horizon.  ``trace.csv`` has one row per traced iterate, with the fields of
the step taken from it (``optimizer.STEP_FIELDS``).  All JSON outputs are
written compactly.  Fit defaults belong to the fitters: a config passes
only the ``tol`` and ``max_iter`` it sets, ``fit_result.json`` records the
tolerance the fitter used (``FitResult.tol``), and
``FitResult.stationarity_residual`` is written as is.

Every run writes ``run_manifest.json`` into the output directory with the
command name, its inputs, the embedded configuration, the seed, the tool
version, the wall time, the BLAS thread variables the process saw
(``thread_env``), and the numpy and scipy versions with the name and
version of the BLAS numpy was built against (``numeric_env``), which is
enough to reproduce the outputs exactly.  ``inputs`` names every file the
command read, each by its role: ``config`` and ``data`` (the
``--config`` and ``--data`` files), ``data_csv`` (the dataset's CSV),
``filter`` (a filter file that a ``gof``/``intensity`` wrapper or a
``simulate`` config names), and ``drivers`` and ``drivers_csv`` (the
driver dataset of a ``simulate`` config).  Each entry holds the
``os.path.abspath`` of the path as given, with no link resolved, and the
sha256 of the bytes the command read: every input is opened once, and
hashed from those bytes (``data.recording_inputs``), so the hashes are of
what the command used.  Every output is written once, through one
unbuffered binary open (``data._write_text``).

Exit codes: 0 success; 2 a usage error (argparse's, such as a negative
``--grid`` or ``--seed``), bad configuration, a missing or unreadable
config or dataset manifest (one that is not UTF-8 included), a config's
filter that is neither a path nor a payload with a ``format`` field, or an
``--out`` that cannot be made a directory; 3 bad or out-of-domain data,
including a dataset CSV or a filter file that cannot be read or is not
UTF-8; 4 a solver failure: a fit that stops unconverged, whose outputs
are still written, or a ``SolverError`` raised inside a command, which
writes none; 5 infeasible model.

BLAS and OpenMP read ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` once, when numpy loads, and importing this package
loads numpy; so the thread count is set by those variables before Python
starts, as ``bench/run.py`` does.  The commands reach the traced layer
functions through their modules (``data.load_events``,
``optimizer.fit_descent``, ``simulator.time_rescale``, ...), looked up at
each call, so that a tracer or a test can replace them there.  Only ``gof``
imports ``scipy.stats``, inside the command: the import costs most of a
second, which the other commands should not pay.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import expm1

from . import __version__, data, optimizer, simulator
from .data import AtRiskProcess, DatasetManifest, _as_bool, _as_number, _read_json, _write_text
from .errors import ConfigError, DataError, DomainError, InfeasibleError, SolverError
from .filters import FilterFunction
from .kernel import SobolevKernel
from .likelihood import LinkSpec, Objective, QuadratureConfig, intensity, linear_link
from .optimizer import FREE, POINT, STEP_FIELDS, _Workspace
from .simulator import SimSpec

__all__ = ["main"]

# the exit code of each typed error; a fit that stops unconverged exits with
# SolverError's, after writing its outputs
_EXIT_CODES = {ConfigError: 2, DataError: 3, DomainError: 3, SolverError: 4, InfeasibleError: 5}

_GRID_POINTS = 512  # lag grid resolution of the fitted-filter CSV

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- small shared helpers -------------------------------------------------------


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload) + "\n")


def _write_csv(path, header: list[str], rows) -> None:
    """A CSV of rows of cell strings: each line is its cells joined by
    commas and ended by "\r\n", as csv.writer writes cells that need no
    quoting.  Every cell here is a number's repr, a word or empty."""
    _write_text(path, "\r\n".join([",".join(header), *map(",".join, rows), ""]))


def _write_float_csv(path, header: list[str], *columns) -> None:
    """``_write_csv`` of float columns, one cell per value: its repr."""
    cells = (map(repr, np.asarray(c, dtype=float).tolist()) for c in columns)
    _write_csv(path, header, zip(*cells))


def _input(args, role: str, path):
    """``path``, noted as the command's input ``role`` for its run
    manifest."""
    args.inputs[role] = path
    return path


def _check_keys(cfg: dict, allowed: set, what: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")


def _parse_link(raw):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("link must be an object with a 'kind' field")
    _check_keys(raw, {"kind", "d"}, "link")
    return LinkSpec(str(raw["kind"]), _as_number(raw.get("d", 0.0), "link d"))


def _parse_at_risk(raw):
    _check_keys(raw, {"breakpoints", "values"}, "at_risk")
    try:
        return AtRiskProcess(raw.get("breakpoints", ()), raw.get("values", ()))
    except DataError as exc:
        raise ConfigError(f"bad at_risk: {exc}") from exc


def _load_dataset(args, role: str, data_path):
    """Dataset manifest plus the events/drivers from the CSV it names, the
    two files noted as the inputs ``role`` and ``role``_csv."""
    data_path = Path(data_path)
    manifest = data.load_manifest(_input(args, role, data_path))
    # an absolute CSV path replaces the manifest's directory
    csv_path = data_path.parent / (manifest.csv or data_path.with_suffix(".csv").name)
    events, drivers = data.load_events(_input(args, f"{role}_csv", csv_path), manifest)
    return manifest, events, drivers


def _config_filter(args, raw, key: str):
    """The filter payload that the config's ``key`` value names.  A string
    is a path relative to the config's directory, read once as the input
    ``filter``; a file that cannot be read is a DataError, as a bad filter
    payload is.  An object with a ``format`` field is the payload itself,
    and anything else a ConfigError."""
    if isinstance(raw, str):
        return _read_json(_input(args, "filter", Path(args.config).parent / raw), DataError)
    if isinstance(raw, dict) and raw.get("format"):
        return raw
    raise ConfigError(f"{key} must be a filter JSON payload or a path to one")


def _load_filter_bundle(args):
    """Filter JSON plus the link and at-risk process to evaluate it under,
    from the ``--config`` file.

    Accepts the payload written by ``fit`` (a filter with an embedded
    ``link`` key) or a wrapper object {"filter": payload-or-path, "link":
    {...}, "at_risk": {...}}, whose filter ``_config_filter`` reads.
    """
    path = args.config
    raw = _read_json(_input(args, "config", path))
    at_risk = AtRiskProcess.unit()
    if "format" in raw:
        payload = raw
        link_raw = raw.get("link")
    elif "filter" in raw:
        _check_keys(raw, {"filter", "link", "at_risk"}, "filter wrapper")
        payload = _config_filter(args, raw["filter"], "filter")
        link_raw = raw.get("link", payload.get("link"))
        if "at_risk" in raw:
            at_risk = _parse_at_risk(raw["at_risk"])
    else:
        raise ConfigError(f"{path}: neither a filter payload nor a filter wrapper")
    g = FilterFunction.from_dict(payload)
    if link_raw is None:
        raise ConfigError(f"{path}: no link recorded with the filter")
    return g, _parse_link(link_raw), at_risk


def _write_run_manifest(args, command: str, config_obj, seed=None) -> None:
    """``run_manifest.json``: each input the command noted, by its absolute
    path and the sha256 that its one read recorded (``args.digests``)."""
    blas = {key: np.__config__.CONFIG["Build Dependencies"]["blas"].get(key) for key in ("name", "version")}
    inputs = {}
    for role, path in args.inputs.items():
        path = os.path.abspath(path)
        inputs[role] = {"path": path, "sha256": args.digests[path]}
    payload = {
        "command": command,
        "tool_version": __version__,
        "inputs": inputs,
        "config": config_obj,
        "seed": seed,
        "output_dir": os.path.abspath(args.out),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "numeric_env": {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas},
        "wall_time_s": time.perf_counter() - args.t0,
    }
    _write_json(Path(args.out) / "run_manifest.json", payload)


# -- commands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _read_json(_input(args, "config", args.config))
    _check_keys(
        cfg,
        {
            "link",
            "filters",
            "horizon",
            "self_exciting",
            "drivers",
            "at_risk",
            "max_events",
            "bound",
            "target_name",
        },
        "simulate config",
    )
    if "link" not in cfg or "horizon" not in cfg or "filters" not in cfg:
        raise ConfigError("simulate config needs link, horizon and filters")
    link = _parse_link(cfg["link"])

    g = FilterFunction.from_dict(_config_filter(args, cfg["filters"], "filters"))

    drivers = None
    if "drivers" in cfg:
        if not isinstance(cfg["drivers"], str):
            raise ConfigError("drivers must be a path to a dataset manifest")
        _, _, drivers = _load_dataset(args, "drivers", Path(args.config).parent / cfg["drivers"])

    kwargs = {}
    if "at_risk" in cfg:
        kwargs["at_risk"] = _parse_at_risk(cfg["at_risk"])
    if "max_events" in cfg:
        kwargs["max_events"] = _as_number(cfg["max_events"], "max_events", integer=True)
    if "bound" in cfg:
        kwargs["bound"] = _as_number(cfg["bound"], "bound")
    if "target_name" in cfg:
        # the manifest below rejects a name that is not a string
        kwargs["target_name"] = cfg["target_name"]
    spec = SimSpec(
        link=link,
        filters=g,
        horizon=_as_number(cfg["horizon"], "horizon"),
        self_exciting=_as_bool(cfg.get("self_exciting", True), "self_exciting"),
        drivers=drivers,
        **kwargs,
    )

    # the manifest checks the channel names before anything is simulated
    exo_names = tuple(ch.name for ch in drivers.channels) if drivers else ()
    manifest = DatasetManifest(
        horizon=spec.horizon,
        target_channel=spec.target_name,
        driver_channels=exo_names,
        self_exciting=spec.self_exciting,
        csv="events.csv",
    )
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(4), "little")
    events, drv = simulator.simulate(spec, seed=seed)

    out = Path(args.out)
    data.save_events(out / "events.csv", events, drv, manifest)
    _write_json(out / "dataset.json", manifest.to_dict())
    _write_run_manifest(args, "simulate", cfg, seed=seed)
    print(f"simulated {len(events)} events over horizon {spec.horizon}")
    return 0


def _fit_config(cfg):
    """Validated pieces of a fit/basis config, with the model's defaults
    filled in; the stopping rule holds only the ``tol`` and ``max_iter``
    that it sets, checked by the fitters' own rule, so ``basis`` refuses
    what ``fit`` refuses."""
    _check_keys(
        cfg,
        {
            "link",
            "penalty_weight",
            "m",
            "tol",
            "max_iter",
            "quadrature",
            "at_risk",
        },
        "fit config",
    )
    if "link" not in cfg:
        raise ConfigError("fit config needs a link")
    link = _parse_link(cfg["link"])
    lam = _as_number(cfg.get("penalty_weight", 1.0), "penalty_weight")
    m = _as_number(cfg.get("m", 1), "m", integer=True)
    stopping = {"tol": _as_number(cfg["tol"], "tol")} if "tol" in cfg else {}
    if "max_iter" in cfg:
        stopping["max_iter"] = _as_number(cfg["max_iter"], "max_iter", integer=True)
    optimizer._check_stopping(**stopping)

    quad = None
    if "quadrature" in cfg:
        _check_keys(cfg["quadrature"], {"nodes_per_interval"}, "quadrature")
        if "nodes_per_interval" not in cfg["quadrature"]:
            raise ConfigError("quadrature needs nodes_per_interval")
        quad = QuadratureConfig(_as_number(
            cfg["quadrature"]["nodes_per_interval"], "nodes_per_interval", integer=True
        ))

    at_risk = _parse_at_risk(cfg["at_risk"]) if "at_risk" in cfg else None
    return link, lam, m, stopping, quad, at_risk


def cmd_fit(args) -> int:
    cfg = _read_json(_input(args, "config", args.config))
    link, lam, m, stopping, quad, at_risk = _fit_config(cfg)
    manifest, events, drivers = _load_dataset(args, "data", args.data)

    obj = Objective(link, lam, events, drivers, at_risk=at_risk, quadrature=quad)
    kernel = SobolevKernel(m=m, horizon=events.horizon)
    fit = optimizer.fit_linear if link.kind == "linear" else optimizer.fit_descent
    res = fit(kernel, obj, **stopping)

    out = Path(args.out)
    payload = res.g_hat.compact().to_dict()
    payload["link"] = dataclasses.asdict(link)
    _write_json(out / "filter.json", payload)

    lags = np.linspace(0.0, events.horizon, _GRID_POINTS)
    for j, name in enumerate(manifest.driver_names()):
        _write_float_csv(
            out / f"filter_grid_{name}.csv", ["lag", "value"], lags, res.g_hat.evaluate(j, lags)
        )

    # one row per traced iterate; the step taken from it, if any, fills the
    # remaining columns (empty otherwise, as is every None)
    steps = {rec["iteration"]: rec for rec in res.diagnostics["iterations"]}
    _write_csv(
        out / "trace.csv",
        ["iteration", "objective", "grad_norm", *STEP_FIELDS],
        (
            ["" if c is None else str(c)
             for c in (i, float(o), float(gn), *map(steps.get(i, {}).get, STEP_FIELDS))]
            for i, (o, gn) in enumerate(zip(res.objective_trace, res.grad_norm_trace))
        ),
    )

    scalars = {}
    for key, val in res.diagnostics.items():
        if isinstance(val, (bool, int, float, str)):
            scalars[key] = val
        elif isinstance(val, (np.bool_, np.integer, np.floating)):
            scalars[key] = val.item()
    _write_json(
        out / "fit_result.json",
        {
            "status": res.status,
            "reason": res.reason,
            "converged": res.converged,
            "n_iter": res.n_iter,
            "objective": res.objective,
            "grad_norm": res.grad_norm,
            "stationarity_residual": res.stationarity_residual,
            "n_events": len(events),
            "n_channels": drivers.n_channels,
            "link": dataclasses.asdict(link),
            "penalty_weight": lam,
            "m": m,
            "tol": res.tol,
            "diagnostics": scalars,
        },
    )
    _write_run_manifest(args, "fit", cfg)
    print(
        f"fit {res.status}: objective {res.objective:.6f}, "
        f"grad norm {res.grad_norm:.3e}, {res.n_iter} iterations"
    )
    return 0 if res.converged else _EXIT_CODES[SolverError]


def cmd_intensity(args) -> int:
    g, link, at_risk = _load_filter_bundle(args)
    _, events, drivers = _load_dataset(args, "data", args.data)
    grid = np.linspace(0.0, events.horizon, args.grid)
    s_all = np.unique(np.concatenate([grid, events.times]))
    lam = intensity(g, link, at_risk, drivers, s_all)
    _write_float_csv(Path(args.out) / "intensity.csv", ["s", "lambda"], s_all, lam)
    _write_run_manifest(args, "intensity", {"grid": args.grid})
    return 0


def cmd_gof(args) -> int:
    from scipy.stats import kstwo

    g, link, at_risk = _load_filter_bundle(args)
    _, events, drivers = _load_dataset(args, "data", args.data)
    gaps = simulator.time_rescale(g, link, events, drivers, at_risk=at_risk)
    out = Path(args.out)
    _write_float_csv(out / "gaps.csv", ["gap"], gaps)
    if gaps.size:
        # kstest(gaps, "expon")'s exact two-sided test in its arithmetic, less
        # its machinery: expon.cdf is +0.0 up to 0 and its _cdf -expm1(-x) above
        n = gaps.size
        cdf = 0.0 - expm1(np.minimum(-np.sort(gaps), 0.0))
        d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0.0, n) / n).max()
        d = d_plus if d_plus > d_minus else d_minus
        payload = {
            "n": n,
            "statistic": float(d),
            "p_value": float(np.clip(kstwo.sf(d, n), 0.0, 1.0)),
            "undefined": False,
        }
    else:
        payload = {"n": 0, "statistic": None, "p_value": None, "undefined": True}
    _write_json(out / "ks.json", payload)
    _write_run_manifest(args, "gof", None)
    return 0


def cmd_basis(args) -> int:
    cfg = _read_json(_input(args, "config", args.config))
    _, lam, m, _, quad, at_risk = _fit_config(cfg)
    _, events, drivers = _load_dataset(args, "data", args.data)
    # the basis does not depend on the link; the linear link's holds the compensator row
    obj = Objective(linear_link(0.0), lam, events, drivers, at_risk=at_risk, quadrature=quad)
    kernel = SobolevKernel(m=m, horizon=events.horizon)
    ws = _Workspace(kernel, obj)
    ws.add_representers()
    n_h0, n_h = (int(np.count_nonzero(ws.role == role)) for role in (FREE, POINT))
    _write_json(
        Path(args.out) / "basis.json",
        {
            "kernel": {"m": kernel.m, "horizon": kernel.horizon},
            "n_channels": obj.n_channels,
            "atoms": [a.to_dict() for a in ws.atoms],
            "slices": {"h0": [0, n_h0], "h": [n_h0, n_h0 + n_h], "f": [n_h0 + n_h, len(ws)]},
            "design": ws.E.tolist(),
            "compensator": ws.comp.tolist(),
            "gram": ws.G.tolist(),
            "gram_penalty": ws.Gp.tolist(),
        },
    )
    _write_run_manifest(args, "basis", cfg)
    return 0


# -- argument parsing and dispatch ----------------------------------------------


def _nonnegative(text: str) -> int:
    """An integer of 0 or more: ``--grid``, the number of evenly spaced
    evaluation times, and ``--seed``, which NumPy's ``default_rng`` takes
    only when it is not negative.  Anything else is argparse's usage error,
    exit 2, before any command runs."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; each ``parse_args``
    returns a fresh namespace, so commands share nothing through it."""
    parser = argparse.ArgumentParser(
        prog="glppm",
        description="Point-process filter estimation: simulate, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False, config=False, seed=False, grid=False):
        if dataset:
            p.add_argument("--data", required=True, help="dataset manifest JSON")
        if config:
            p.add_argument("--config", required=True, help="configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=_nonnegative, default=None, help="RNG seed, 0 or more")
        if grid:
            p.add_argument("--grid", type=_nonnegative, default=_GRID_POINTS, help="grid points")

    p = sub.add_parser("simulate", help="draw events from a model spec")
    common(p, config=True, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="penalized maximum likelihood fit")
    common(p, dataset=True, config=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("intensity", help="evaluate the fitted intensity on a grid")
    common(p, dataset=True, config=True, grid=True)
    p.set_defaults(func=cmd_intensity)

    p = sub.add_parser("gof", help="time-rescaling goodness of fit")
    common(p, dataset=True, config=True)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("basis", help="dump the representer basis and Grams")
    common(p, dataset=True, config=True)
    p.set_defaults(func=cmd_basis)
    return parser


def main(argv=None) -> int:
    """Run one command.  Its inputs are recorded as it reads them, in a
    record that this call opens and closes: ``args.inputs`` maps each role
    to the path read, ``args.digests`` each absolute path to its sha256."""
    args = _build_parser().parse_args(argv)
    args.t0 = time.perf_counter()
    args.inputs = {}
    try:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {args.out}: {exc}") from exc
        with data.recording_inputs() as args.digests:
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
