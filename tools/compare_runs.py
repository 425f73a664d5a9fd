"""Compare two source trees for bit identity, and run their benchmark in alternating pairs.

    python3 tools/compare_runs.py trees A B
        byte-compares two run trees that ``bench/run.py`` leaves in
        ``bench/.work/<workload>-s<seed>``, file by file, skipping
        ``run_manifest.json`` (wall time and absolute paths) and
        ``result.json`` (timings); a file in one tree only is a difference.

    python3 tools/compare_runs.py bench A.json B.json
        compares the ``fits`` records of every workload of two
        ``BENCH_*.json`` files, record by record.

    python3 tools/compare_runs.py fits SRC_A SRC_B [--datasets 40] [--reference]
        runs one suite of library fits under each source tree (a directory
        that holds the ``glppm`` package, such as ``src``), each in a
        subprocess pinned to one BLAS thread, and compares them fit by fit:
        status, reason, iterations, dictionary size
        (``diagnostics["n_atoms"]``), the objective and gradient-norm
        traces, the coefficients and the bytes of ``compact().to_dict()``.  The
        suite, at penalty weight 5: ``fit_descent`` fits on the
        exponential link (20-event datasets) and the softplus link
        (12-event datasets) at m = 1 and 2, on N = ``--datasets`` datasets
        each of ``bench/generate.py`` at seed 401; and ``fit_linear``
        fits with d = 0.5 at m = 1 and 2 on min(N, 12) 12-event datasets at
        seed 402.  ``suite`` prints the records of this suite, as one JSON
        object, under the ``glppm`` that Python imports.

        With ``--reference`` each fit is also measured against a tight
        reference objective F* of its data and family, computed once under
        SRC_A (``reference`` prints them, as one JSON object): a cold
        ``fit_descent`` at tol 1e-12 with ``max_iter`` 2000, or
        ``fit_linear`` at tol 1e-12 for the linear families.  F* is cached
        in ``tools/.reference``, keyed by the bytes of SRC_A's ``glppm``, of
        ``bench/generate.py`` and of the suite's definition.  Each side's
        records then hold the ``objective_value`` of the compacted filter,
        and after the family table comes one line per family: the
        converged count, the total iterations, and the median and largest
        gap (F - F*) / |F*| of the fits' final objectives on each side.  A
        gap is negative where a fit ended below F*, as a linear fit that
        the hinge leaves slightly infeasible can.  The exit code is then 1
        if a family's largest gap on B exceeds max(10 x A's, 1e-9), or its
        converged count on B is below A's, and 0 otherwise: a change that
        moves bits but leaves no fit farther from its optimum passes.

    python3 tools/compare_runs.py cli SRC_A SRC_B [--datasets 6]
        runs one set of CLI commands under each source tree, each in a
        subprocess pinned to one BLAS thread that writes into a temporary
        directory, and byte-compares the two output trees as ``trees``
        does, skipping ``run_manifest.json``; an exit code that differs is
        a difference too.  The set: ``fit``, then ``gof`` and
        ``intensity`` of the fitted filter, on N = ``--datasets`` 12-event
        datasets of ``bench/generate.py`` at seed 401, for the exponential,
        softplus and linear (d = 0.5) links at m = 1 and 2 and penalty
        weight 5; ``basis`` on the first dataset under the exponential and
        the linear m = 1 configs; three ``simulate`` runs of the benchmark's
        hat process (seeds 0, 1 and 2), each followed by ``gof`` under the
        true filter; and one more at seed 0 (``simfile``) whose config names
        the filter by a file path, followed by ``gof`` through a wrapper that
        names the same file.  The exogenous part: the first min(2, N)
        datasets beside a driver ``z`` of 8 jumps uniform on the window,
        with marks uniform in [0.5, 2], drawn from
        ``np.random.default_rng([403, i])`` for dataset i, each fitted as
        above (``exo-...``) then tested by ``gof`` and ``intensity``; and
        one ``simulate`` at seed 0 (``simexo``) of the hat filter on both
        channels over the first one's driver, which its config names
        through its ``drivers`` key (a dataset read with ``self_exciting``
        false), followed by ``gof`` under the true filter.  ``clirun OUT``
        runs the set into OUT under the ``glppm`` that Python imports and
        prints the exit codes, as one JSON object.

    python3 tools/compare_runs.py pairs A B [--rounds 10]
        runs the benchmark of two checkouts, roots that hold ``src/glppm``,
        ``bench/run.py`` and ``BENCHMARK.json``, by the command, run
        seconds, workloads and end-to-end metrics of B's
        ``BENCHMARK.json``, in N = ``--rounds`` pairs.  In pair i each
        workload runs at seed 601 + i on both sides, A first when i is
        even, each run with ``--trace 0`` from a fresh temporary copy of its
        root's ``src/``, ``bench/`` and ``BENCHMARK.json`` without
        ``bench/.work`` and ``__pycache__`` (runs inside a working checkout
        have read 15-35 % slower).  Per workload and metric it prints the
        ``metric_verdict`` report and verdict, then the pairs whose run
        trees are identical (``trees``) and the files of the first pair
        that differs.  The exit code is 1 if a run fails
        (``_bench_result``) or a verdict is ``worse than bound``, else 0: a
        change that moves fit records has tree differences by design.

``bench`` and ``fits`` follow each fit that differs with its status and
iterations on both sides and the relative difference of its objectives.
After the differences ``fits`` prints a table per family of fits (link and
m): the converged count and the total iterations on each side, the
largest relative objective difference, and the largest gradient-norm
difference relative to the stopping scale max(1, ||grad F(g_0)||), so that a
change that moves only gradient-norm bits shows how far.

``trees``, ``bench``, ``fits`` and ``cli`` print each difference; their
exit code is 1 if there is any, else 0.  Typical use, with the parent
commit checked out in a second directory (``git archive``) and, for
``trees``, one run of the same workload and seed in each:

    python3 tools/compare_runs.py trees ../parent/bench/.work/fit-exp-s401 \\
        bench/.work/fit-exp-s401
    python3 tools/compare_runs.py fits ../parent/src src
    python3 tools/compare_runs.py cli ../parent/src src
    python3 tools/compare_runs.py pairs ../parent .
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = {"run_manifest.json", "result.json"}
BENCH = Path(__file__).resolve().parents[1] / "bench"
# the cache of reference objectives, one JSON file per key
REFERENCE_CACHE = Path(__file__).resolve().parent / ".reference"
# a reference fit's stopping rule, and the gap rule of ``fits --reference``
REFERENCE_STOP = {"tol": 1e-12, "max_iter": 2000}
GAP_GROWTH, GAP_FLOOR = 10.0, 1e-9
# the ``fits`` suite's penalty weight and orders m
SUITE_PENALTY, SUITE_ORDERS = 5.0, (1, 2)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# (name, link kind, d, events per dataset, dataset seed), for each m of SUITE_ORDERS
DESCENT = (("exp", "exponential", 0.0, 20, 401), ("softplus", "softplus", 0.0, 12, 401))
LINEAR = ("linear", "linear", 0.5, 12, 402)
# the ``cli`` set: (name, link config) at m = 1 and 2 on 12-event datasets
# at seed 401, and the seeds of its simulations
CLI_LINKS = (
    ("exp", {"kind": "exponential"}),
    ("softplus", {"kind": "softplus"}),
    ("linear", {"kind": "linear", "d": 0.5}),
)
CLI_SIM_SEEDS = (0, 1, 2)
# the exogenous part of the ``cli`` set: how many datasets, the jumps of
# their driver and the seed of its draws
CLI_EXO_DATASETS, CLI_EXO_JUMPS, CLI_EXO_SEED = 2, 8, 403
# what ``pairs`` needs in each checkout root, and the seed of its first pair
PAIR_FILES = ("src/glppm", "bench/run.py", "BENCHMARK.json")
PAIR_SEED = 601


def tree_differences(a: Path, b: Path) -> list[str]:
    """The relative paths whose bytes differ between two run trees, or that
    only one of them holds, skipping the files named in ``SKIPPED``."""

    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED}

    fa, fb = files(a), files(b)
    out = [f"only in {a}: {p}" for p in sorted(fa - fb)]
    out += [f"only in {b}: {p}" for p in sorted(fb - fa)]
    out += [f"differs: {p}" for p in sorted(fa & fb) if (a / p).read_bytes() != (b / p).read_bytes()]
    return out


def fit_differences(a: Path, b: Path) -> list[str]:
    """Workload by workload, the ``fits`` records of two BENCH files that
    differ, or that only one of them holds."""
    wa, wb = (json.loads(p.read_text())["workloads"] for p in (a, b))
    out = [f"workload only in {a if name in wa else b}: {name}" for name in sorted(set(wa) ^ set(wb))]
    for name in sorted(set(wa) & set(wb)):
        ra = {r["op"]: r for r in wa[name].get("fits", [])}
        rb = {r["op"]: r for r in wb[name].get("fits", [])}
        out += [f"{name}: {op} only in {a if op in ra else b}" for op in sorted(set(ra) ^ set(rb))]
        for op in sorted(set(ra) & set(rb)):
            if ra[op] != rb[op]:
                out += [f"{name}: {op}: {ra[op]} != {rb[op]}", f"{name}: {op}: {fit_summary(ra[op], rb[op])}"]
        if not ra:
            out.append(f"{name}: no fits records")
    return out


def _trace(record: dict, name: str):
    """A ``fits`` record's trace of this name as floats, or None."""
    import numpy as np

    return np.frombuffer(base64.b64decode(record[name]), "<f8") if record.get(name) else None


def _objective(record: dict) -> float:
    """A fit record's final objective: a BENCH record's ``objective``, or
    the last entry of a ``fits`` record's objective trace; NaN for none."""
    if record.get("objective") is not None:
        return float(record["objective"])
    trace = _trace(record, "objective_trace")
    return float("nan") if trace is None else float(trace[-1])


def _relative_difference(ra: dict, rb: dict) -> float:
    """The relative difference of two fit records' objectives; NaN when
    either has none."""
    fa, fb = _objective(ra), _objective(rb)
    return abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)


def _grad_norm_difference(ra: dict, rb: dict) -> float:
    """The largest difference of two fit records' gradient-norm traces,
    over the iterates both hold, relative to the stopping scale max(1, the
    first entry of A's trace); NaN when either has none."""
    ta, tb = _trace(ra, "grad_norm_trace"), _trace(rb, "grad_norm_trace")
    if ta is None or tb is None:
        return float("nan")
    n = min(ta.size, tb.size)
    return float(abs(ta[:n] - tb[:n]).max()) / max(1.0, float(ta[0]))


def fit_summary(ra: dict, rb: dict) -> str:
    """The status and iterations of one fit's two records, and their
    relative objective difference, so that a change that moves last bits
    can be reviewed from the output."""
    return (
        f"status {ra.get('status')} / {rb.get('status')}, n_iter {ra.get('n_iter')} / {rb.get('n_iter')}, "
        f"objective differs by {_relative_difference(ra, rb):.2g} relative"
    )


def _families(ra: dict, rb: dict) -> dict[str, list[str]]:
    """The keys of the fits that both suites hold, by family (link and m: a
    fit's key without its dataset)."""
    families: dict[str, list[str]] = {}
    for key in sorted(set(ra) & set(rb)):
        families.setdefault(re.sub(r"-d\d+", "", key), []).append(key)
    return families


def _counts(ra: dict, rb: dict, keys: list[str]) -> tuple[list[int], list[int]]:
    """The converged count and the total iterations of these fits on each
    side."""
    converged = [sum(r[k].get("status") == "converged" for k in keys) for r in (ra, rb)]
    iterations = [sum(r[k].get("n_iter") or 0 for k in keys) for r in (ra, rb)]
    return converged, iterations


def family_totals(ra: dict, rb: dict) -> list[str]:
    """Per family of the fits that both suites hold (``_families``), the
    fits, the converged count
    and the total iterations on each side, the largest relative
    objective difference over the fits that have an objective on both, and
    the largest gradient-norm difference (``_grad_norm_difference``) over
    the fits that have a gradient-norm trace on both."""
    lines = []
    for name, keys in _families(ra, rb).items():
        converged, iterations = _counts(ra, rb, keys)
        rel, grad = (
            max((x for x in (diff(ra[k], rb[k]) for k in keys) if x == x), default=float("nan"))
            for diff in (_relative_difference, _grad_norm_difference)
        )
        lines.append(
            f"{name}: {len(keys)} fits, converged {converged[0]} / {converged[1]}, "
            f"iterations {iterations[0]} / {iterations[1]}, largest objective difference {rel:.2g} relative, "
            f"largest gradient-norm difference {grad:.2g} of the stopping scale"
        )
    return lines


def _gap(record: dict, ref: dict) -> float:
    """(F - F*) / |F*| of a fit record's final objective F against its
    reference record's F*; NaN when either has none."""
    if "error" in record or ref.get("objective") is None:
        return float("nan")
    star = float(ref["objective"])
    return (_objective(record) - star) / max(abs(star), 1e-300)


def reference_totals(ra: dict, rb: dict, ref: dict) -> tuple[list[str], list[str]]:
    """Per family of the fits that both suites hold, a line with the
    converged count, the total iterations and the median and largest
    ``_gap`` on each side, over the fits that have one; and the families
    that the gap rule flags, each with its reason: a largest gap on B above
    max(GAP_GROWTH x A's, GAP_FLOOR), or fewer converged fits on B."""
    import numpy as np

    lines, flagged = [], []
    for name, keys in _families(ra, rb).items():
        converged, iterations = _counts(ra, rb, keys)
        gaps = [np.array([g for k in keys if (g := _gap(r[k], ref.get(k, {}))) == g]) for r in (ra, rb)]
        median = [float(np.median(g)) if g.size else float("nan") for g in gaps]
        top = [float(g.max()) if g.size else float("nan") for g in gaps]
        lines.append(
            f"{name}: converged {converged[0]} / {converged[1]}, iterations {iterations[0]} / {iterations[1]}, "
            f"median gap {median[0]:.2g} / {median[1]:.2g}, largest gap {top[0]:.2g} / {top[1]:.2g}"
        )
        bound = max(GAP_GROWTH * top[0], GAP_FLOOR) if top[0] == top[0] else GAP_FLOOR
        if top[1] > bound:
            flagged.append(f"{name}: largest gap {top[1]:.2g} on B exceeds max({GAP_GROWTH:g} x {top[0]:.2g}, "
                           f"{GAP_FLOOR:g})")
        if converged[1] < converged[0]:
            flagged.append(f"{name}: {converged[1]} fits converged on B, {converged[0]} on A")
    return lines, flagged


def _fit_record(res) -> dict:
    """What ``fits`` compares of one fit, floats as their bytes."""
    import numpy as np

    def b64(arr) -> str:
        return base64.b64encode(np.asarray(arr, "<f8").tobytes()).decode("ascii")

    return {
        "status": res.status, "reason": res.reason, "n_iter": res.n_iter,
        "n_atoms": res.diagnostics["n_atoms"],
        "objective_trace": b64(res.objective_trace), "grad_norm_trace": b64(res.grad_norm_trace),
        "coefficients": b64(res.g_hat.coefficients),
        "compact": json.dumps(res.g_hat.compact().to_dict(), sort_keys=True),
    }


def _self_exciting(kind: str, d: float, lam: float, times, horizon: float):
    """The ``Objective`` of a self-exciting dataset with these event times,
    as the CLI builds it from a ``bench/generate.py`` dataset."""
    import numpy as np

    import glppm
    from glppm.data import DriverChannel, DriverSeries, EventSeries

    events = EventSeries(horizon, times)
    drivers = DriverSeries(horizon, (DriverChannel("target", times, np.ones(times.size)),))
    return glppm.Objective(glppm.LinkSpec(kind, d), lam, events, drivers)


def _suite(datasets: int):
    """(key, fitter, kernel, objective) of each fit of the ``fits`` suite
    under the ``glppm`` on the path."""
    linear = min(datasets, 12)
    sys.path.insert(0, str(BENCH))
    import generate

    import glppm

    for (name, kind, d, n, seed), count in [(f, datasets) for f in DESCENT] + [(LINEAR, linear)]:
        horizon = generate.window_for(n)
        fit = glppm.fit_linear if kind == "linear" else glppm.fit_descent
        for i in range(count):
            times = generate.hawkes_exactly_n(generate.dataset_rng(seed, i), n, horizon)
            for m in SUITE_ORDERS:
                yield f"{name}-m{m}-d{i}", fit, glppm.SobolevKernel(m, horizon), _self_exciting(
                    kind, d, SUITE_PENALTY, times, horizon
                )


def _value_of(res, obj) -> float | str:
    """``objective_value`` of a fit's compacted filter, or the error it
    raises."""
    import glppm

    try:
        return glppm.objective_value(res.g_hat.compact(), obj)
    except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
        return f"{type(exc).__name__}: {exc}"


def run_suite(datasets: int, values: bool = False, reference: bool = False) -> dict:
    """The records of the ``fits`` suite under the ``glppm`` on the path,
    keyed by fit; a fit that raises records its error.  With ``values``
    each record also holds the ``objective_value`` of its compacted filter.
    With ``reference`` the fits stop by ``REFERENCE_STOP`` instead of their
    defaults, and each record holds the status, reason and iterations, the
    final ``objective`` and that ``objective_value``."""
    import glppm

    out = {"glppm": glppm.__file__}
    for key, fit, kernel, obj in _suite(datasets):
        try:
            res = fit(kernel, obj, **(REFERENCE_STOP if reference else {}))
        except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if reference:
            out[key] = {"status": res.status, "reason": res.reason, "n_iter": res.n_iter, "objective": res.objective}
        else:
            out[key] = _fit_record(res)
        if values or reference:
            out[key]["objective_value"] = _value_of(res, obj)
    return out


def _bench_run():
    """``bench/run.py`` as a module, with ``bench`` on the path."""
    import importlib.util

    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def write_exogenous(dataset: Path, directory: Path, rng) -> Path:
    """The self-exciting dataset of ``bench/generate.py`` at ``dataset``
    with an exogenous driver ``z`` added: ``CLI_EXO_JUMPS`` jumps uniform
    on its window, with marks uniform in [0.5, 2], drawn from ``rng``.
    Writes ``dataset.json`` and ``events.csv`` under ``directory``, and
    ``drivers.json``, the same rows read with ``self_exciting`` false, as
    a ``simulate`` config's drivers; returns the ``dataset.json`` path."""
    import numpy as np

    manifest = json.loads(dataset.read_text())
    horizon, target = manifest["horizon"], manifest["target_channel"]
    times = [float(line.split(",")[0]) for line in (dataset.parent / manifest["csv"]).read_text().split()[1:]]
    jumps = np.sort(rng.uniform(0.0, horizon, CLI_EXO_JUMPS))
    marks = rng.uniform(0.5, 2.0, CLI_EXO_JUMPS)
    rows = [(t, f"{t!r},{target},") for t in times]
    rows = sorted(rows + [(t, f"{t!r},z,{z!r}") for t, z in zip(jumps.tolist(), marks.tolist())])
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "events.csv").write_text("\n".join(["time,channel,mark"] + [row for _, row in rows]) + "\n")
    exo = {**manifest, "driver_channels": ["z"], "csv": "events.csv"}
    (directory / "dataset.json").write_text(json.dumps(exo, indent=2) + "\n")
    (directory / "drivers.json").write_text(json.dumps({**exo, "self_exciting": False}, indent=2) + "\n")
    return directory / "dataset.json"


def run_cli_set(out: Path, datasets: int) -> dict:
    """The ``cli`` set under the ``glppm`` on the path, its inputs and
    outputs written under ``out``: each command's exit code, or the name of
    the exception it raised, keyed by its output directory."""
    bench = _bench_run()
    import generate
    import numpy as np

    import glppm
    import glppm.cli

    codes = {"glppm": glppm.__file__}

    def run(label: str, *argv: str) -> None:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[label] = glppm.cli.main([*argv, "--out", str(out / label)])
        except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
            codes[label] = type(exc).__name__

    inputs = out / "inputs"
    data = [str(d) for d in generate.write_batch(inputs / "data", 401, datasets, 12)]
    sim = bench.sim_config(bench.SIM_HORIZON)
    (inputs / "simulate.json").write_text(json.dumps(sim))
    (inputs / "true_filter.json").write_text(json.dumps({"filter": sim["filters"], "link": sim["link"]}))
    # the same filter read from a file that the configs name
    (inputs / "hat_filter.json").write_text(json.dumps(sim["filters"]))
    (inputs / "simulate_file.json").write_text(json.dumps({**sim, "filters": "hat_filter.json"}))
    (inputs / "true_filter_file.json").write_text(json.dumps({"filter": "hat_filter.json", "link": sim["link"]}))
    # the first datasets beside an exogenous driver, and a simulation of the
    # hat filter on both channels over the first one's driver
    exo = [
        str(write_exogenous(Path(d), inputs / "exo" / f"d{i}", np.random.default_rng([CLI_EXO_SEED, i])))
        for i, d in enumerate(data[:CLI_EXO_DATASETS])
    ]
    horizon = generate.window_for(12)
    hat = {**sim["filters"], "kernel": {"m": 1, "horizon": horizon}, "n_channels": 2,
           "atoms": [{**a, "channel": ch} for ch in (0, 1) for a in sim["filters"]["atoms"]]}
    (inputs / "simulate_exo.json").write_text(json.dumps({
        "link": sim["link"], "horizon": horizon, "filters": hat, "drivers": "exo/d0/drivers.json",
    }))
    (inputs / "true_filter_exo.json").write_text(json.dumps({"filter": hat, "link": sim["link"]}))
    for name, link in CLI_LINKS:
        for m in (1, 2):
            cfg = inputs / f"fit-{name}-m{m}.json"
            cfg.write_text(json.dumps({"link": link, "penalty_weight": 5.0, "m": m}))
            for prefix, sets in (("", data), ("exo-", exo)):
                for i, dataset in enumerate(sets):
                    label = f"{prefix}{name}-m{m}-d{i}"
                    run(label, "fit", "--data", dataset, "--config", str(cfg))
                    fitted = str(out / label / "filter.json")
                    run(f"{label}/gof", "gof", "--data", dataset, "--config", fitted)
                    run(f"{label}/intensity", "intensity", "--data", dataset, "--config", fitted)
    run("basis", "basis", "--data", data[0], "--config", str(inputs / "fit-exp-m1.json"))
    run("basis-linear", "basis", "--data", data[0], "--config", str(inputs / "fit-linear-m1.json"))
    sims = [(f"sim{seed}", seed, "simulate.json", "true_filter.json") for seed in CLI_SIM_SEEDS] + [
        ("simfile", 0, "simulate_file.json", "true_filter_file.json"),
        ("simexo", 0, "simulate_exo.json", "true_filter_exo.json"),
    ]
    for label, seed, config, truth in sims:
        run(label, "simulate", "--config", str(inputs / config), "--seed", str(seed))
        run(f"{label}/gof", "gof", "--data", str(out / label / "dataset.json"), "--config", str(inputs / truth))
    return codes


def cli_differences(a: Path, b: Path, codes_a: dict, codes_b: dict) -> list[str]:
    """The commands whose exit codes differ between two runs of the ``cli``
    set, then the ``tree_differences`` of their output trees."""
    out = [
        f"exit code of {key}: {codes_a.get(key)} / {codes_b.get(key)}"
        for key in sorted(set(codes_a) | set(codes_b))
        if codes_a.get(key) != codes_b.get(key)
    ]
    return out + tree_differences(a, b)


def compare_cli(a: Path, b: Path, datasets: int, root: Path) -> list[str]:
    """``run_cli_set`` under the ``glppm`` of ``a`` into ``root/A`` and of
    ``b`` into ``root/B``, each in a subprocess pinned to one BLAS thread,
    and their ``cli_differences``."""
    codes = [_under(src, "clirun", str(root / side), "--datasets", str(datasets)) for src, side in ((a, "A"), (b, "B"))]
    return cli_differences(root / "A", root / "B", *codes)


def _under(src: Path, kind: str, *args: str) -> dict:
    """The JSON that ``compare_runs.py kind args`` prints under the
    ``glppm`` of ``src``, in a subprocess pinned to one BLAS thread."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
    run = subprocess.run([sys.executable, __file__, kind, *args], env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"{kind} under {src} failed:\n{run.stderr}")
    out = json.loads(run.stdout)
    where = Path(out.pop("glppm")).resolve()
    if Path(src).resolve() not in where.parents:
        raise RuntimeError(f"{kind} under {src} imported glppm from {where}")
    return out


def fit_records(src: Path, datasets: int, values: bool = False) -> dict:
    """``run_suite`` under the ``glppm`` of ``src``, in a subprocess pinned
    to one BLAS thread, with each fit's ``objective_value`` if ``values``."""
    return _under(src, "suite", "--datasets", str(datasets), *["--reference"] * values)


def reference_records(src: Path, datasets: int) -> dict:
    """The reference fits of the suite (``run_suite`` with ``reference``)
    under the ``glppm`` of ``src``, in a subprocess pinned to one BLAS
    thread, read from ``REFERENCE_CACHE`` if they are there and written
    there if not.  The key hashes the bytes of the tree's ``glppm``, of
    ``bench/generate.py``, and of the suite's definition and size."""
    h = hashlib.sha256(repr((DESCENT, LINEAR, SUITE_PENALTY, SUITE_ORDERS, REFERENCE_STOP, datasets)).encode())
    for path in sorted((Path(src) / "glppm").glob("*.py")) + [BENCH / "generate.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    cached = REFERENCE_CACHE / f"{h.hexdigest()[:24]}.json"
    if cached.is_file():
        return json.loads(cached.read_text())
    out = _under(src, "reference", "--datasets", str(datasets))
    REFERENCE_CACHE.mkdir(exist_ok=True)
    cached.write_text(json.dumps(out))
    return out


def _bench_result(run: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    """A benchmark run's result, the JSON object on its last stdout line (or
    {}), and what fails the run: a nonzero exit, no such line, ``correct``
    not true, or ``failed`` not 0."""
    try:
        result = json.loads(run.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    problems = [f"exit {run.returncode}: {' '.join(run.stderr.splitlines()[-1:])}"] * bool(run.returncode)
    if not isinstance(result, dict):
        return {}, problems + ["no JSON result line"]
    problems += ["correct: false"] * (result.get("correct") is not True)
    return result, problems + [f"failed: {result.get('failed')}"] * (result.get("failed") != 0)


def metric_verdict(a: list, b: list, better: str, bound: float) -> tuple[str, str]:
    """One metric's report over the pairs whose runs both hold it, from A's
    and B's values pair by pair: the median and quartiles on each side, the
    pairs B won (ties count for neither) and the relative move of the
    medians; and its verdict, the first that holds of ``worse than bound``
    (B's median worse than A's by more than ``bound`` x |A's median|),
    ``gain`` (B better in at least 9 of 10 pairs, and the medians apart by
    more than A's interquartile distance) and ``unresolved`` (that distance
    above ``bound`` x |A's median|, and not every run of B better than every
    run of A), else ``within bound``."""
    import numpy as np

    both = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not both:
        return "no pair holds it", "no result"
    xa, xb = np.array(both).T
    sign = 1.0 if better == "higher" else -1.0
    (qa1, ma, qa3), (qb1, mb, qb3) = (np.percentile(x, [25, 50, 75]) for x in (xa, xb))
    wins, better_by, limit = int(np.sum(sign * (xb - xa) > 0)), sign * (mb - ma), bound * abs(ma)
    if better_by < -limit:
        verdict = "worse than bound"
    elif wins >= 0.9 * len(both) and better_by > qa3 - qa1:
        verdict = "gain"
    elif qa3 - qa1 > limit and not (sign * xb).min() > (sign * xa).max():
        verdict = "unresolved"
    else:
        verdict = "within bound"
    line = (f"A {ma:.5g} ({qa1:.5g}, {qa3:.5g}), B {mb:.5g} ({qb1:.5g}, {qb3:.5g}), B won {wins}/{len(both)}, "
            f"median {(mb - ma) / max(abs(ma), 1e-300):+.1%}")
    return line, verdict


def compare_pairs(a: Path, b: Path, rounds: int) -> tuple[list[str], int]:
    """The benchmark of checkouts ``a`` and ``b`` in ``rounds`` alternating
    pairs (see ``pairs``): the report's lines, and the exit code."""
    spec = json.loads((b / "BENCHMARK.json").read_text())
    roots, workloads = {"A": a, "B": b}, [w["name"] for w in spec["workloads"]]
    results, trees, problems = {(w, side): [] for w in workloads for side in roots}, {w: [] for w in workloads}, []
    for i, w in ((i, w) for i in range(rounds) for w in workloads):
        seed = PAIR_SEED + i
        with tempfile.TemporaryDirectory() as tmp:
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                copy = Path(tmp) / side
                skip = shutil.ignore_patterns("__pycache__", ".work")
                for name in ("src", "bench"):
                    shutil.copytree(roots[side] / name, copy / name, ignore=skip)
                shutil.copy2(roots[side] / "BENCHMARK.json", copy)
                argv = ["--workload", w, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                run = subprocess.run([*spec["command"], *argv], cwd=copy, capture_output=True, text=True)
                result, bad = _bench_result(run)
                results[w, side].append(result)
                problems += [f"{w} pair {i} (seed {seed}) {side}: {q}" for q in bad]
                print(f"{w} seed {seed} {side}: {'; '.join(bad) or 'ok'}", file=sys.stderr)
            tree = Path("bench", ".work", f"{w}-s{seed}")
            trees[w].append(tree_differences(Path(tmp) / "A" / tree, Path(tmp) / "B" / tree))
    lines, worse = [f"A {a}, first in even pairs", f"B {b}, first in odd pairs"], []
    for w in workloads:
        lines.append(f"{w}: {rounds} pair(s) at seeds {PAIR_SEED}-{PAIR_SEED + rounds - 1}")
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va, vb = ([r.get("metrics", {}).get(name, {}).get("value") for r in results[w, side]] for side in roots)
            line, verdict = metric_verdict(va, vb, better, bound)
            lines.append(f"  {name} ({better} is better, bound {bound:g}): {line}: {verdict}")
            worse += [f"{w} {name}"] * (verdict == "worse than bound")
        lines.append(f"  run trees: {sum(not d for d in trees[w])}/{rounds} pair(s) identical")
        first = next((i for i, d in enumerate(trees[w]) if d), None)
        if first is not None:
            lines += [f"  pair {first} (seed {PAIR_SEED + first}) differs in:"] + [f"    {d}" for d in trees[w][first]]
    lines += problems or [f"all {2 * rounds * len(workloads)} runs correct, 0 failed"]
    lines.append(f"worse than bound: {', '.join(worse)}" if worse else "no metric worse than bound")
    return lines, 1 if problems or worse else 0


def record_differences(ra: dict, rb: dict, a="A", b="B") -> list[str]:
    """Fit by fit, the fits that only one suite holds and, for the others,
    the fields that differ and the ``fit_summary`` of a fit that does."""
    out = [f"{key} only in {a if key in ra else b}" for key in sorted(set(ra) ^ set(rb))]
    for key in sorted(set(ra) & set(rb)):
        fields = sorted(set(ra[key]) | set(rb[key]))
        differs = [f"{key}: {f} differs" for f in fields if ra[key].get(f) != rb[key].get(f)]
        out += differs + [f"{key}: {fit_summary(ra[key], rb[key])}"] * bool(differs)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("kind", choices=("trees", "bench", "fits", "suite", "reference", "cli", "clirun", "pairs"))
    p.add_argument("a", type=Path, nargs="?")
    p.add_argument("b", type=Path, nargs="?")
    p.add_argument("--datasets", type=int, default=None, help="fits: 40 by default; cli: 6")
    p.add_argument("--rounds", type=int, default=10, help="pairs: the number of pairs")
    p.add_argument(
        "--reference", action="store_true", help="fits: measure each fit's gap to a tight reference objective"
    )
    args = p.parse_args(argv)
    if args.reference and args.kind not in ("fits", "suite"):
        p.error(f"--reference serves fits and suite, not {args.kind}")
    suite_size = 40 if args.datasets is None else args.datasets
    cli_size = 6 if args.datasets is None else args.datasets
    if args.kind in ("suite", "reference"):
        print(json.dumps(run_suite(suite_size, values=args.reference, reference=args.kind == "reference")))
        return 0
    if args.kind == "clirun":
        print(json.dumps(run_cli_set(args.a, cli_size)))
        return 0
    for path in (args.a, args.b):
        if path is None or not path.exists():
            p.error(f"{args.kind} needs two existing paths, got {path}")
    if args.kind == "pairs":
        missing = [str(root / name) for root in (args.a, args.b) for name in PAIR_FILES if not (root / name).exists()]
        if missing or args.rounds < 1:
            p.error(f"pairs needs two checkout roots and --rounds >= 1; missing {missing}, --rounds {args.rounds}")
        lines, code = compare_pairs(args.a, args.b, args.rounds)
        print("\n".join(lines))
        return code
    flagged = None
    if args.kind == "fits":
        ra, rb = (fit_records(src, suite_size, args.reference) for src in (args.a, args.b))
        diffs = record_differences(ra, rb, args.a, args.b)
        totals = ["per family, A / B:"] + family_totals(ra, rb)
        if args.reference:
            lines, flagged = reference_totals(ra, rb, reference_records(args.a, suite_size))
            totals += ["per family, gap (F - F*) / |F*| to the reference, A / B:"] + lines + flagged
        print(f"{len(ra)} fits compared", file=sys.stderr)
    elif args.kind == "cli":
        if cli_size < 1:
            p.error(f"cli needs --datasets >= 1, got {cli_size}")
        with tempfile.TemporaryDirectory() as root:
            diffs = compare_cli(args.a, args.b, cli_size, Path(root))
        totals = []
    else:
        diffs = (tree_differences if args.kind == "trees" else fit_differences)(args.a, args.b)
        totals = []
    for line in diffs + totals:
        print(line)
    print(f"{len(diffs)} difference(s)", file=sys.stderr)
    if flagged is not None:
        print(f"{len(flagged)} flag(s) by the gap rule", file=sys.stderr)
        return 1 if flagged else 0
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
