"""Compare two benchmark runs for bit identity.

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
import subprocess
import sys
from pathlib import Path

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
        out += [
            f"{name}: {op}: {ra[op]} != {rb[op]}"
            for op in sorted(set(ra) & set(rb)) if ra[op] != rb[op]
        ]
        if not ra:
            out.append(f"{name}: no fits records")
    return out


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


def run_suite(datasets: int) -> dict:
    """The records of the ``fits`` suite under the ``glppm`` on the path,
    keyed by fit; a fit that raises records its error."""
    linear, warm = min(datasets, 12), min(datasets, 30)
    sys.path.insert(0, str(BENCH))
    import generate
    import numpy as np

    import glppm
    from glppm.data import DriverChannel, DriverSeries, EventSeries

    def objective(kind, d, lam, times, horizon):
        events = EventSeries(horizon, times)
        drivers = DriverSeries(horizon, (DriverChannel("target", times, np.ones(times.size)),))
        return glppm.Objective(glppm.LinkSpec(kind, d), lam, events, drivers)

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
                kernel, obj = glppm.SobolevKernel(m, horizon), objective(kind, d, 5.0, times, horizon)
                if kind == "linear":
                    attempt(out, f"{name}-m{m}-d{i}", lambda: glppm.fit_linear(kernel, obj))
                    continue
                cold = attempt(out, f"{name}-m{m}-d{i}", lambda: glppm.fit_descent(kernel, obj))
                if i < warm and cold is not None:
                    obj1, init = objective(kind, d, 1.0, times, horizon), cold.g_hat.compact()
                    attempt(out, f"{name}-m{m}-d{i}-warm",
                            lambda: glppm.fit_descent(kernel, obj1, init=init))
    return out


def fit_records(src: Path, datasets: int) -> dict:
    """``run_suite`` under the ``glppm`` of ``src``, in a subprocess pinned
    to one BLAS thread."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
    argv = [sys.executable, __file__, "suite", "--datasets", str(datasets)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"the suite under {src} failed:\n{run.stderr}")
    out = json.loads(run.stdout)
    where = Path(out.pop("glppm")).resolve()
    if Path(src).resolve() not in where.parents:
        raise RuntimeError(f"the suite under {src} imported glppm from {where}")
    return out


def record_differences(ra: dict, rb: dict, a="A", b="B") -> list[str]:
    """Fit by fit, the fits that only one suite holds and the fields of the
    others that differ."""
    out = [f"{key} only in {a if key in ra else b}" for key in sorted(set(ra) ^ set(rb))]
    for key in sorted(set(ra) & set(rb)):
        fields = sorted(set(ra[key]) | set(rb[key]))
        out += [f"{key}: {f} differs" for f in fields if ra[key].get(f) != rb[key].get(f)]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("kind", choices=("trees", "bench", "fits", "suite"))
    p.add_argument("a", type=Path, nargs="?")
    p.add_argument("b", type=Path, nargs="?")
    p.add_argument("--datasets", type=int, default=40)
    args = p.parse_args(argv)
    if args.kind == "suite":
        print(json.dumps(run_suite(args.datasets)))
        return 0
    for path in (args.a, args.b):
        if path is None or not path.exists():
            p.error(f"{args.kind} needs two existing paths, got {path}")
    if args.kind == "fits":
        ra, rb = (fit_records(src, args.datasets) for src in (args.a, args.b))
        diffs = record_differences(ra, rb, args.a, args.b)
        print(f"{len(ra)} fits compared", file=sys.stderr)
    else:
        diffs = (tree_differences if args.kind == "trees" else fit_differences)(args.a, args.b)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
