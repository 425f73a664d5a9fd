"""Compare two benchmark runs for bit identity, and time fits and simulations under two source trees.

    python3 tools/compare_runs.py trees A B
        byte-compares two run trees that ``bench/run.py`` leaves in
        ``bench/.work/<workload>-s<seed>``, file by file, skipping
        ``run_manifest.json`` (wall time and resolved paths) and
        ``result.json`` (timings); a file in one tree only is a difference.

    python3 tools/compare_runs.py bench A.json B.json
        compares the ``fits`` records of every workload of two
        ``BENCH_*.json`` files, record by record.

    python3 tools/compare_runs.py fits SRC_A SRC_B [--datasets 40]
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

    python3 tools/compare_runs.py time SRC_A SRC_B [--rounds 5]
        times the benchmark's fit batch and simulations under each source
        tree: the ``fit-exp`` and ``fit-softplus`` datasets of
        ``bench/run.py`` (94 of 20 events and 160 of 12) at seed 401, each
        fitted by ``fit_descent`` at m = 1 and penalty weight 5, as the
        ``fit`` command fits them; then its 22 simulations of
        ``sim_config(SIM_HORIZON)`` at the seeds of its rule for seed 401,
        each spec built as the ``simulate`` command builds it.  Each round
        runs the batch once under each tree, each in a fresh subprocess
        pinned to one BLAS thread after one untimed fit per family and one
        untimed simulation, the trees alternating which goes first.  Per
        family, and for the simulations, it prints the median and
        quartiles of milliseconds per fit (objective and fit, not the
        data) or per simulation (filter, spec and simulation) on each side,
        the rounds each side was the faster, and whether every fit's
        objective, or every simulation's event times, have the same bits on
        both sides.  ``--datasets N`` fits the first N datasets of each
        family only.  ``timing`` prints one such pass, as one JSON object,
        under the ``glppm`` that Python imports.

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
        names the same file.  ``clirun OUT`` runs the set into OUT under the
        ``glppm`` that Python imports and prints the exit codes, as one JSON
        object.

``bench`` and ``fits`` follow each fit that differs with its status and
iterations on both sides and the relative difference of its objectives.
After the differences ``fits`` prints a table per family of fits (link and
m): the converged count and the total iterations on each side, and the
largest relative objective difference.

Each difference is printed; the exit code is 1 if there is any, else 0.
Typical use, with the parent commit checked out in a second directory and
one run of the same workload and seed in each:

    python3 tools/compare_runs.py trees ../parent/bench/.work/fit-exp-s401 \\
        bench/.work/fit-exp-s401
    python3 tools/compare_runs.py fits ../parent/src src
    python3 tools/compare_runs.py cli ../parent/src src
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SKIPPED = {"run_manifest.json", "result.json"}
BENCH = Path(__file__).resolve().parents[1] / "bench"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# (name, link kind, d, events per dataset, dataset seed), for m = 1 and 2
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


def _objective(record: dict) -> float:
    """A fit record's final objective: a BENCH record's ``objective``, or
    the last entry of a ``fits`` record's objective trace; NaN for none."""
    import numpy as np

    if record.get("objective") is not None:
        return float(record["objective"])
    if record.get("objective_trace"):
        return float(np.frombuffer(base64.b64decode(record["objective_trace"]), "<f8")[-1])
    return float("nan")


def _relative_difference(ra: dict, rb: dict) -> float:
    """The relative difference of two fit records' objectives; NaN when
    either has none."""
    fa, fb = _objective(ra), _objective(rb)
    return abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)


def fit_summary(ra: dict, rb: dict) -> str:
    """The status and iterations of one fit's two records, and their
    relative objective difference, so that a change that moves last bits
    can be reviewed from the output."""
    return (
        f"status {ra.get('status')} / {rb.get('status')}, n_iter {ra.get('n_iter')} / {rb.get('n_iter')}, "
        f"objective differs by {_relative_difference(ra, rb):.2g} relative"
    )


def family_totals(ra: dict, rb: dict) -> list[str]:
    """Per family of the fits that both suites hold (link and m: a fit's key
    without its dataset), the fits, the converged count
    and the total iterations on each side, and the largest relative
    objective difference over the fits that have an objective on both."""
    families: dict[str, list[str]] = {}
    for key in sorted(set(ra) & set(rb)):
        families.setdefault(re.sub(r"-d\d+", "", key), []).append(key)
    lines = []
    for name, keys in families.items():
        converged = [sum(r[k].get("status") == "converged" for k in keys) for r in (ra, rb)]
        iterations = [sum(r[k].get("n_iter") or 0 for k in keys) for r in (ra, rb)]
        rel = max((x for x in (_relative_difference(ra[k], rb[k]) for k in keys) if x == x), default=float("nan"))
        lines.append(
            f"{name}: {len(keys)} fits, converged {converged[0]} / {converged[1]}, "
            f"iterations {iterations[0]} / {iterations[1]}, largest objective difference {rel:.2g} relative"
        )
    return lines


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


def run_suite(datasets: int) -> dict:
    """The records of the ``fits`` suite under the ``glppm`` on the path,
    keyed by fit; a fit that raises records its error."""
    linear = min(datasets, 12)
    sys.path.insert(0, str(BENCH))
    import generate

    import glppm

    out = {"glppm": glppm.__file__}
    for (name, kind, d, n, seed), count in [(f, datasets) for f in DESCENT] + [(LINEAR, linear)]:
        horizon = generate.window_for(n)
        fit = glppm.fit_linear if kind == "linear" else glppm.fit_descent
        for i in range(count):
            times = generate.hawkes_exactly_n(generate.dataset_rng(seed, i), n, horizon)
            for m in (1, 2):
                key = f"{name}-m{m}-d{i}"
                try:
                    res = fit(glppm.SobolevKernel(m, horizon), _self_exciting(kind, d, 5.0, times, horizon))
                except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
                    out[key] = {"error": f"{type(exc).__name__}: {exc}"}
                    continue
                out[key] = _fit_record(res)
    return out


def _bench_run():
    """``bench/run.py`` as a module, with ``bench`` on the path."""
    import importlib.util

    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def run_timing(datasets: int | None) -> dict:
    """One timed pass of the benchmark's fit batch and simulations under the
    ``glppm`` on the path: per family, the seconds of its fits and each
    fit's objective as the hex of its float, after one untimed fit; under
    ``sim``, the seconds of the simulations and each one's event times as
    base64 of their bytes, after one untimed simulation.  Each simulation
    builds its filter and spec from ``sim_config`` as ``simulate`` does, so
    it pays for its envelope as the command does."""
    bench = _bench_run()
    import generate
    import numpy as np

    import glppm
    import glppm.cli

    out = {"glppm": glppm.__file__}
    for name, kind, d, _, seed in DESCENT:
        workload = bench.WORKLOADS[f"fit-{name}"]
        n, count = workload["n_events"], workload["datasets"]
        horizon = generate.window_for(n)
        batch = [
            generate.hawkes_exactly_n(generate.dataset_rng(seed, i), n, horizon)
            for i in range(count if datasets is None else min(datasets, count))
        ]

        def fit(times):
            obj = _self_exciting(kind, d, bench.PENALTY, times, horizon)
            return glppm.fit_descent(glppm.SobolevKernel(bench.ORDER, horizon), obj).objective

        fit(batch[0])
        t0 = perf_counter()
        objectives = [fit(times) for times in batch]
        out[name] = {"seconds": perf_counter() - t0, "objectives": [f.hex() for f in objectives]}

    sim = bench.sim_config(bench.SIM_HORIZON)

    def simulate(seed):
        g = glppm.FilterFunction.from_dict(sim["filters"])
        spec = glppm.SimSpec(link=glppm.cli._parse_link(sim["link"]), filters=g, horizon=sim["horizon"])
        return base64.b64encode(glppm.simulate(spec, seed=seed)[0].times.tobytes()).decode("ascii")

    # the seeds of a 25-second benchmark run at seed 401, by bench/run.py's rule
    seeds = [
        int(np.random.SeedSequence([401, 1_000_000 + k]).generate_state(1)[0]) for k in range(bench.SIM_COUNT)
    ]
    simulate(seeds[0])
    t0 = perf_counter()
    events = [simulate(seed) for seed in seeds]
    out["sim"] = {"seconds": perf_counter() - t0, "events": events}
    return out


def run_cli_set(out: Path, datasets: int) -> dict:
    """The ``cli`` set under the ``glppm`` on the path, its inputs and
    outputs written under ``out``: each command's exit code, or the name of
    the exception it raised, keyed by its output directory."""
    bench = _bench_run()
    import generate

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
    for name, link in CLI_LINKS:
        for m in (1, 2):
            cfg = inputs / f"fit-{name}-m{m}.json"
            cfg.write_text(json.dumps({"link": link, "penalty_weight": 5.0, "m": m}))
            for i, dataset in enumerate(data):
                label = f"{name}-m{m}-d{i}"
                run(label, "fit", "--data", dataset, "--config", str(cfg))
                fitted = str(out / label / "filter.json")
                run(f"{label}/gof", "gof", "--data", dataset, "--config", fitted)
                run(f"{label}/intensity", "intensity", "--data", dataset, "--config", fitted)
    run("basis", "basis", "--data", data[0], "--config", str(inputs / "fit-exp-m1.json"))
    run("basis-linear", "basis", "--data", data[0], "--config", str(inputs / "fit-linear-m1.json"))
    sims = [(f"sim{seed}", seed, "simulate.json", "true_filter.json") for seed in CLI_SIM_SEEDS]
    for label, seed, config, truth in sims + [("simfile", 0, "simulate_file.json", "true_filter_file.json")]:
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


def fit_records(src: Path, datasets: int) -> dict:
    """``run_suite`` under the ``glppm`` of ``src``, in a subprocess pinned
    to one BLAS thread."""
    return _under(src, "suite", "--datasets", str(datasets))


def compare_timings(a: Path, b: Path, rounds: int, datasets: int | None) -> list[str]:
    """``run_timing`` under ``a`` and ``b`` for ``rounds`` rounds, the trees
    alternating which goes first; per family of fits, and for the
    simulations, the median and quartiles of milliseconds per operation on
    each side, the rounds each side won, and whether every objective, or
    every simulation's event bytes, matched.  Returns the report's lines,
    the last of them naming each part whose outputs differ."""
    import numpy as np

    passes = {a: [], b: []}
    for r in range(rounds):
        for src in (a, b) if r % 2 == 0 else (b, a):
            args = ["--datasets", str(datasets)] if datasets is not None else []
            passes[src].append(_under(src, "timing", *args))
    lines, differ = [], []
    parts = [(name, "objectives", "fits", "fit") for name, *_ in DESCENT]
    for name, key, plural, unit in parts + [("sim", "events", "simulations", "simulation")]:
        count = len(passes[a][0][name][key])
        ms = {src: np.array([p[name]["seconds"] for p in passes[src]]) * 1e3 / count for src in passes}
        lines.append(f"{name}: {count} {plural} per pass, {rounds} round(s)")
        for src, label in ((a, "A"), (b, "B")):
            q1, med, q3 = np.percentile(ms[src], [25, 50, 75])
            lines.append(f"  {label} {src}: {med:.3f} ms/{unit} (quartiles {q1:.3f}, {q3:.3f})")
        wins = int(np.sum(ms[b] < ms[a]))
        first = passes[a][0][name][key]
        same = all(p[name][key] == first for side in passes.values() for p in side)
        lines.append(f"  B faster in {wins} of {rounds} rounds, A in {rounds - wins}; "
                     f"{key} {'identical' if same else 'DIFFER'}")
        differ += [] if same else [name]
    lines.append(f"outputs differ: {', '.join(differ)}" if differ else "every output matched")
    return lines


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
    p.add_argument("kind", choices=("trees", "bench", "fits", "suite", "time", "timing", "cli", "clirun"))
    p.add_argument("a", type=Path, nargs="?")
    p.add_argument("b", type=Path, nargs="?")
    p.add_argument(
        "--datasets", type=int, default=None, help="fits: 40 by default; cli: 6; time: the whole batch"
    )
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    suite_size = 40 if args.datasets is None else args.datasets
    cli_size = 6 if args.datasets is None else args.datasets
    if args.kind == "suite":
        print(json.dumps(run_suite(suite_size)))
        return 0
    if args.kind == "timing":
        print(json.dumps(run_timing(args.datasets)))
        return 0
    if args.kind == "clirun":
        print(json.dumps(run_cli_set(args.a, cli_size)))
        return 0
    for path in (args.a, args.b):
        if path is None or not path.exists():
            p.error(f"{args.kind} needs two existing paths, got {path}")
    if args.kind == "time":
        if args.rounds < 1 or (args.datasets is not None and args.datasets < 1):
            p.error(f"time needs --rounds and --datasets >= 1, got {args.rounds} and {args.datasets}")
        lines = compare_timings(args.a, args.b, args.rounds, args.datasets)
        print("\n".join(lines))
        return 0 if lines[-1] == "every output matched" else 1
    if args.kind == "fits":
        ra, rb = (fit_records(src, suite_size) for src in (args.a, args.b))
        diffs = record_differences(ra, rb, args.a, args.b)
        totals = ["per family, A / B:"] + family_totals(ra, rb)
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
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
