"""Compare two benchmark runs for bit identity, and time the fit batch under two source trees.

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
        suite, at penalty weight 5: cold ``fit_descent`` fits on the
        exponential link (20-event datasets) and the softplus link
        (12-event datasets) at m = 1 and 2, on N = ``--datasets`` datasets
        each of ``bench/generate.py`` at seed 401; cold ``fit_linear`` fits
        with d = 0.5 at m = 1 and 2 on min(N, 12) 12-event datasets at seed
        402; and, on the first min(N, 30) datasets of each ``fit_descent``
        family, a fit at penalty weight 1 warm-started from the cold fit's
        compacted filter.  ``suite`` prints the records of this suite, as
        one JSON object, under the ``glppm`` that Python imports.

    python3 tools/compare_runs.py time SRC_A SRC_B [--rounds 5]
        times the benchmark's fit batch under each source tree: the
        ``fit-exp`` and ``fit-softplus`` datasets of ``bench/run.py``
        (94 of 20 events and 160 of 12) at seed 401, each fitted by
        ``fit_descent`` at m = 1 and penalty weight 5, as the ``fit``
        command fits them.  Each round runs the batch once under each
        tree, each in a fresh subprocess pinned to one BLAS thread after
        one untimed fit, the trees alternating which goes first.  Per
        family it prints the median and quartiles of milliseconds per fit
        (objective and fit, not the data) on each side, the rounds each
        side was the faster, and whether every fit's objective has the
        same bits on both sides.  ``--datasets N`` fits the first N
        datasets of each family only.  ``timing`` prints one such pass,
        as one JSON object, under the ``glppm`` that Python imports.

``bench`` and ``fits`` follow each fit that differs with its status and
iterations on both sides and the relative difference of its objectives.
After the differences ``fits`` prints a table per family of fits (link and
m, cold or warm): the converged count and the total iterations on each
side, and the largest relative objective difference.

Each difference is printed; the exit code is 1 if there is any, else 0.
Typical use, with the parent commit checked out in a second directory and
one run of the same workload and seed in each:

    python3 tools/compare_runs.py trees ../parent/bench/.work/fit-exp-s401 \\
        bench/.work/fit-exp-s401
    python3 tools/compare_runs.py fits ../parent/src src
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SKIPPED = {"run_manifest.json", "result.json"}
BENCH = Path(__file__).resolve().parents[1] / "bench"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# (name, link kind, d, events per dataset, dataset seed), for m = 1 and 2
DESCENT = (("exp", "exponential", 0.0, 20, 401), ("softplus", "softplus", 0.0, 12, 401))
LINEAR = ("linear", "linear", 0.5, 12, 402)


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
    """Per family of the fits that both suites hold (link and m, cold or
    warm: a fit's key without its dataset), the fits, the converged count
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
    linear, warm = min(datasets, 12), min(datasets, 30)
    sys.path.insert(0, str(BENCH))
    import generate

    import glppm

    def attempt(out, key, fit):
        try:
            res = fit()
        except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
            return None
        out[key] = _fit_record(res)
        return res

    out = {"glppm": glppm.__file__}
    for (name, kind, d, n, seed), count in [(f, datasets) for f in DESCENT] + [(LINEAR, linear)]:
        horizon = generate.window_for(n)
        for i in range(count):
            times = generate.hawkes_exactly_n(generate.dataset_rng(seed, i), n, horizon)
            for m in (1, 2):
                kernel, obj = glppm.SobolevKernel(m, horizon), _self_exciting(kind, d, 5.0, times, horizon)
                if kind == "linear":
                    attempt(out, f"{name}-m{m}-d{i}", lambda: glppm.fit_linear(kernel, obj))
                    continue
                cold = attempt(out, f"{name}-m{m}-d{i}", lambda: glppm.fit_descent(kernel, obj))
                if i < warm and cold is not None:
                    obj1, init = _self_exciting(kind, d, 1.0, times, horizon), cold.g_hat.compact()
                    attempt(out, f"{name}-m{m}-d{i}-warm",
                            lambda: glppm.fit_descent(kernel, obj1, init=init))
    return out


def run_timing(datasets: int | None) -> dict:
    """One timed pass of the benchmark's fit batch under the ``glppm`` on
    the path: per family, the seconds of its fits and each fit's objective
    as the hex of its float, after one untimed fit."""
    import importlib.util

    sys.path.insert(0, str(BENCH))
    import generate

    import glppm

    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
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
    return out


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
    alternating which goes first; per family, the median and quartiles of
    milliseconds per fit on each side, the rounds each side won, and
    whether every objective matched.  Returns the report's lines, the last
    of them naming each family whose objectives differ."""
    import numpy as np

    passes = {a: [], b: []}
    for r in range(rounds):
        for src in (a, b) if r % 2 == 0 else (b, a):
            args = ["--datasets", str(datasets)] if datasets is not None else []
            passes[src].append(_under(src, "timing", *args))
    lines, differ = [], []
    for name, *_ in DESCENT:
        count = len(passes[a][0][name]["objectives"])
        ms = {src: np.array([p[name]["seconds"] for p in passes[src]]) * 1e3 / count for src in passes}
        lines.append(f"{name}: {count} fits per pass, {rounds} round(s)")
        for src, label in ((a, "A"), (b, "B")):
            q1, med, q3 = np.percentile(ms[src], [25, 50, 75])
            lines.append(f"  {label} {src}: {med:.3f} ms/fit (quartiles {q1:.3f}, {q3:.3f})")
        wins = int(np.sum(ms[b] < ms[a]))
        first = passes[a][0][name]["objectives"]
        same = all(p[name]["objectives"] == first for side in passes.values() for p in side)
        lines.append(f"  B faster in {wins} of {rounds} rounds, A in {rounds - wins}; "
                     f"objectives {'identical' if same else 'DIFFER'}")
        differ += [] if same else [name]
    lines.append(f"objectives differ: {', '.join(differ)}" if differ else "every objective matched")
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
    p.add_argument("kind", choices=("trees", "bench", "fits", "suite", "time", "timing"))
    p.add_argument("a", type=Path, nargs="?")
    p.add_argument("b", type=Path, nargs="?")
    p.add_argument("--datasets", type=int, default=None, help="fits: 40 by default; time: the whole batch")
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    suite_size = 40 if args.datasets is None else args.datasets
    if args.kind == "suite":
        print(json.dumps(run_suite(suite_size)))
        return 0
    if args.kind == "timing":
        print(json.dumps(run_timing(args.datasets)))
        return 0
    for path in (args.a, args.b):
        if path is None or not path.exists():
            p.error(f"{args.kind} needs two existing paths, got {path}")
    if args.kind == "time":
        if args.rounds < 1 or (args.datasets is not None and args.datasets < 1):
            p.error(f"time needs --rounds and --datasets >= 1, got {args.rounds} and {args.datasets}")
        lines = compare_timings(args.a, args.b, args.rounds, args.datasets)
        print("\n".join(lines))
        return 0 if lines[-1] == "every objective matched" else 1
    if args.kind == "fits":
        ra, rb = (fit_records(src, suite_size) for src in (args.a, args.b))
        diffs = record_differences(ra, rb, args.a, args.b)
        totals = ["per family, A / B:"] + family_totals(ra, rb)
        print(f"{len(ra)} fits compared", file=sys.stderr)
    else:
        diffs = (tree_differences if args.kind == "trees" else fit_differences)(args.a, args.b)
        totals = []
    for line in diffs + totals:
        print(line)
    print(f"{len(diffs)} difference(s)", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
