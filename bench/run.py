"""Benchmark of the ``glppm`` CLI pipeline simulate -> fit -> gof.

Run from the repository root:

    python3 bench/run.py --workload fit-exp --seed 1 --seconds 25 --trace 0

The benchmark draws its own inputs from ``--seed`` (``generate.py``), calls
``glppm.cli.main`` in this process for every command after a warm-up, and
checks every output (``checks.py``).  A pass runs three stages over a fixed
batch, interleaved so that a slow stretch of the host is shared by all of
them instead of landing on one:

* simulate: CLI ``simulate`` runs of a linear Hawkes process with baseline
  0.5 and the triangular filter 0.5 * max(0, 1 - u) (written as
  0.5 phi_1 - 0.5 R1(1, .) with m = 1, so its integral is 0.25);
* fit: an m = 1 fit with the workload's link of each dataset of
  ``n_events`` events from the cluster generator (not from
  ``glppm.simulate``, so a change to the simulator leaves the fit inputs
  alone);
* gof: ``gof`` of every fit, right after it, and of every simulation under
  the true filter (the linear link's exact compensator), whose rescaled gaps
  must equal the ones the benchmark computes itself.

The batch holds ``datasets`` datasets and ``SIM_COUNT`` simulations for a
run of ``NOMINAL_SECONDS``, and is scaled in proportion to ``--seconds``.
A run times one pass over it, then repeats the first ``GUARD_DATASETS``
datasets (and the simulations scheduled among them) untimed: their
records (fit status, Newton exit, iterations, KKT residual, dictionary
size, objective, simulated event counts) must equal the timed pass's, and
the timed pass's must equal the first run of the same code and seed in
this checkout, or the run is reported incorrect.

Stage times are corrected for host speed.  On a shared 2-vCPU host the
same work runs up to 30 % slower for minutes at a time, with CPU time
rising with wall time, so a slow stretch cannot be told from slow code by
timing the code alone.  After every operation the runner times a fixed
piece of reference work that uses no ``glppm`` code (``reference_work``:
Python integer arithmetic and small numpy operations, the mix ``glppm``
spends its time in), and a stage's time is the sum of its operations' wall
times in the timed pass, scaled by ``REF_SECONDS`` over the run's mean
reference time: the stage's time on the host running at the speed where
the reference work takes ``REF_SECONDS``.  On that host the correction
cut the spread of ``fits_per_min`` and ``gof_s`` over ten seeds from 0.13
as wall time to 0.02 to 0.05.  The wall times, the reference times and the
factor are kept in ``result.json``, and the wall-time metrics are on the
summary line.

The spread between seeds is kept low by the inputs: every dataset has the
same event count and window (``generate.py``), and the batch holds as many
of them as ``--seconds`` allows.

``setup_s`` is the shortest time of ``SETUP_STARTS`` fresh interpreters
started at even steps through the pass, corrected by the same factor.  Their
times are bimodal on a shared host (about 1.1 s, or 1.4 to 1.8 s while it is
busy), and a busy host only ever adds time, so the minimum over starts spread
across the run is the steady figure.  Over five seeds the median of four,
corrected, spread 0.24; uncorrected, the minimum of eight rose by a fifth
between a fast and a slow stretch of the host, and corrected it fell by a
tenth.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
(``tracing.py``) and the tracing overhead (both passes corrected for host
speed), and the traced pass is the guard's repeat.  BLAS and OpenMP are
pinned to one thread before numpy loads.  Outputs go to ``bench/.work``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

PENALTY = 5.0
ORDER = 1
NOMINAL_SECONDS = 25.0
GUARD_DATASETS = 4
SIM_HORIZON = 100.0
SIM_COUNT = 22
SIM_BASELINE = 0.5
HAT_HEIGHT = 0.5  # filter 0.5 * max(0, 1 - u): peak at lag 0, support [0, 1]
SETUP_IMPORTS = "import glppm, glppm.cli, scipy.stats"
SETUP_STARTS = 6
REF_STEPS = 500
# about the mean time of reference_work() on the 2-vCPU host the benchmark
# was tuned on, which moved between 0.003 and 0.005 s from run to run
REF_SECONDS = 0.004

# Why each workload: see BENCHMARK.json.  n_events fixes the size of every
# dataset; datasets is the batch for a run of NOMINAL_SECONDS.  fits_per_min
# counts converged fits, so its spread between seeds follows the number that
# converge.  Exponential-link fits converged 86 % of the time at 15 events
# and 94 % at 20, where their time per fit varied 3 % between seeds; the
# 20-event batch is the steadier for the same run time.  At 25 events they
# took up to 3.7 s and a third did not converge.  Softplus-link fits
# converged 89-98 % at 15 events (a spread of 0.09 in fits_per_min over ten
# seeds), 80-90 % at 20 and 94-99 % at 12.  The linear link is fitted
# by no workload: its converged fits can be negative between the quadrature
# nodes that carry the constraint, so ``gof`` writes negative rescaled gaps
# and the output checks fail.  Its exact compensator still runs, in the
# ``gof`` of every simulation under the true filter.
WORKLOADS = {
    "fit-softplus": {"link": {"kind": "softplus"}, "n_events": 12, "datasets": 160},
    "fit-exp": {"link": {"kind": "exponential"}, "n_events": 20, "datasets": 94},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def code_hash() -> str:
    """Hash of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def start_interpreter() -> float:
    """Wall time of a fresh interpreter importing what every command needs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_IMPORTS], env=env, cwd=ROOT)
    # a blocking wait: subprocess's wait with a timeout polls in steps of up
    # to 0.05 s, which would round the time up to the next step
    timer = threading.Timer(120.0, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, SETUP_IMPORTS)
    return perf_counter() - t0


def reference_work() -> float:
    """Seconds taken by a fixed piece of work that uses no ``glppm`` code.

    A quarter of it runs untimed first, so that the caches the operation
    before it evicted are filled again and do not count.
    """
    import numpy as np

    v = np.linspace(0.1, 1.0, 40)
    a, s = v, 0
    t0 = None
    for i in range(-(REF_STEPS // 4), REF_STEPS):
        if i == 0:
            t0 = perf_counter()
        a = np.exp(-a) * 0.5 + 0.3
        for j in range(60):
            s += (i * j) % 7
    return perf_counter() - t0


def environment(seed: int, sim_seeds: list[int]) -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                threads = int(getattr(ctypes.CDLL(str(lib)), sym)())
                break
            except (OSError, AttributeError):
                continue
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_force": threads,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "dataset_streams": f"SeedSequence([{seed}, i])",
        "simulate_seeds": sim_seeds,
    }


class Runner:
    """Inputs, the CLI calls of one pass, and what they returned."""

    def __init__(self, workload: str, seed: int, run_dir: Path, scale: float):
        import numpy as np

        import generate

        self.spec = WORKLOADS[workload]
        self.dir = run_dir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        inputs = run_dir / "inputs"
        self.datasets = generate.write_batch(
            inputs, seed, max(GUARD_DATASETS, round(scale * self.spec["datasets"])),
            self.spec["n_events"],
        )
        self.n_events = self.spec["n_events"]
        self.fit_cfg = inputs / "fit.json"
        self.fit_cfg.write_text(json.dumps(
            {"link": self.spec["link"], "penalty_weight": PENALTY, "m": ORDER}
        ))
        self.sim_cfg = inputs / "simulate.json"
        self.sim_cfg.write_text(json.dumps(sim_config(SIM_HORIZON)))
        self.true_filter = inputs / "true_filter.json"
        sim = sim_config(SIM_HORIZON)
        self.true_filter.write_text(json.dumps({"filter": sim["filters"], "link": sim["link"]}))
        self.sim_seeds = [
            int(np.random.SeedSequence([seed, 1_000_000 + k]).generate_state(1)[0])
            for k in range(max(2, round(scale * SIM_COUNT)))
        ]

    def cli(self, argv, label):
        """One in-process CLI call: (exit code or None, seconds, stderr)."""
        import glppm.cli

        if self.tracer is not None:
            self.tracer.dataset = label
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = glppm.cli.main(argv)
        except Exception:  # a raising command is a failed operation; go on
            rc = None
            err.write(traceback.format_exc())
        return rc, perf_counter() - t0, err.getvalue()

    def run_pass(self, out_dir: Path, limit: int | None = None, setup: bool = False) -> dict:
        """One pass over the first ``limit`` datasets (all by default) and
        the simulations scheduled among them; with ``setup``, a fresh
        interpreter is timed at ``SETUP_STARTS`` even steps through the pass."""
        import numpy as np

        res = {"records": [], "times": {}, "ref": [], "setup": [], "problems": [],
               "converged": 0, "fits": 0, "gaps": []}
        n_sims, n_data = len(self.sim_seeds), len(self.datasets)
        setup_at = {n_data * q // SETUP_STARTS for q in range(SETUP_STARTS)} if setup else set()
        k = 0
        for i in range(n_data if limit is None else limit):
            if i in setup_at:
                res["setup"].append(start_interpreter())
            while k < n_sims and k * n_data <= i * n_sims:
                self._simulate(res, k, out_dir)
                k += 1
            self._fit_and_gof(res, i, out_dir)
        gaps = res.pop("gaps")
        if limit is None:  # over every simulation: about 1500 gaps, sd of the mean 0.03
            mean_gap = float(np.mean(np.concatenate(gaps)))
            if not abs(mean_gap - 1.0) <= 0.2:
                res["problems"].append(f"simulated gaps rescale to mean {mean_gap}, not ~1")
        return res

    def _note(self, res, label, seconds, rc, err, ok_codes) -> bool:
        res["times"][label] = seconds
        res["ref"].append(reference_work())
        if rc in ok_codes:
            return True
        self.failed += 1
        res["problems"].append(f"{label}: exit {rc}: {err.strip()[-500:]}")
        return False

    def _simulate(self, res, k: int, out_dir: Path) -> None:
        import checks

        label = f"sim{k}"
        d = out_dir / label
        rc, dt, err = self.cli(
            ["simulate", "--config", str(self.sim_cfg), "--seed", str(self.sim_seeds[k]),
             "--out", str(d)], label,
        )
        if not self._note(res, label, dt, rc, err, (0,)):
            return
        times, horizon = checks.read_events(d)
        res["problems"] += checks.check_simulated(times, horizon, label)
        gaps = checks.hat_rescaled_gaps(times, SIM_BASELINE, HAT_HEIGHT, 1.0)
        res["gaps"].append(gaps)
        res["records"].append({"op": label, "events": int(times.size)})
        # under the true filter: the linear link's exact compensator
        self._gof(res, label, d / "dataset.json", self.true_filter, d, times.size, gaps)

    def _fit_and_gof(self, res, i: int, out_dir: Path) -> None:
        import checks

        data = self.datasets[i]
        label = f"fit-d{i}"
        d = out_dir / label
        rc, dt, err = self.cli(
            ["fit", "--data", str(data), "--config", str(self.fit_cfg), "--out", str(d)], label
        )
        if not self._note(res, label, dt, rc, err, checks.FIT_EXIT_CODES):
            return
        res["problems"] += checks.check_fit(d, rc)
        r = json.loads((d / "fit_result.json").read_text())
        diag = r["diagnostics"]
        res["fits"] += 1
        res["converged"] += bool(r["converged"])
        res["records"].append({
            "op": label, "rc": rc, "status": r["status"],
            "newton_exit": diag.get("newton_exit"), "n_iter": r["n_iter"],
            "kkt": repr(diag.get("kkt_residual", r["stationarity_residual"])),
            "dict_size": len(json.loads((d / "filter.json").read_text())["atoms"]),
            "objective": repr(r["objective"]),
        })
        self._gof(res, label, data, d / "filter.json", d, self.n_events)

    def _gof(self, res, label, data, filter_cfg, d: Path, n_events: int, expected=None) -> None:
        import checks

        g = d / "gof"
        label = "gof-" + label
        rc, dt, err = self.cli(
            ["gof", "--data", str(data), "--config", str(filter_cfg), "--out", str(g)], label
        )
        if self._note(res, label, dt, rc, err, (0,)):
            res["problems"] += checks.check_gof(g, rc, n_events, expected)
            ks = json.loads((g / "ks.json").read_text())
            res["records"].append({"op": label, "n": ks["n"], "ks": repr(ks["statistic"])})

    def warm_up(self) -> None:
        """Load lazy imports and fill caches on a small pipeline, untimed and
        unchecked."""
        import generate

        d = self.dir / "warmup"
        cfg, true_filter = d / "simulate.json", d / "true_filter.json"
        data = generate.write_batch(d / "data", 0, 1, 8)[0]
        sim = sim_config(20.0)
        cfg.write_text(json.dumps(sim))
        true_filter.write_text(json.dumps({"filter": sim["filters"], "link": sim["link"]}))
        for argv in (
            ["simulate", "--config", str(cfg), "--seed", "0", "--out", str(d / "sim")],
            ["gof", "--data", str(d / "sim" / "dataset.json"), "--config", str(true_filter),
             "--out", str(d / "sim" / "gof")],
            ["fit", "--data", str(data), "--config", str(self.fit_cfg), "--out", str(d / "fit")],
            ["gof", "--data", str(data), "--config", str(d / "fit" / "filter.json"),
             "--out", str(d / "gof")],
        ):
            self.cli(argv, "warmup")
        self.attempted -= 4


def sim_config(horizon: float) -> dict:
    """CLI simulate config for the triangular-filter linear Hawkes process."""
    return {
        "link": {"kind": "linear", "d": SIM_BASELINE},
        "horizon": horizon,
        "filters": {
            "format": "glppm.filter.v1",
            "kernel": {"m": 1, "horizon": horizon},
            "n_channels": 1,
            "atoms": [
                {"channel": 0, "kind": "h0", "part": "h0", "k": 1, "coefficient": HAT_HEIGHT},
                {"channel": 0, "kind": "section", "part": "r1",
                 "sections": {"lags": [1.0], "weights": [1.0]}, "coefficient": -HAT_HEIGHT},
            ],
        },
    }


def stage_seconds(timed: dict, prefix: str, speed: float = 1.0) -> float:
    """Sum of the stage's operation times in the timed pass, times ``speed``."""
    return speed * sum(t for lab, t in timed["times"].items() if lab.startswith(prefix))


def speed_factor(res: dict) -> float:
    """REF_SECONDS over the pass's mean reference time."""
    return REF_SECONDS / statistics.fmean(res["ref"])


def pass_seconds(res: dict) -> float:
    """All operation times of a pass, corrected for host speed."""
    return sum(res["times"].values()) * speed_factor(res)


def end_to_end(timed: dict, speed: float = 1.0) -> dict:
    """The timed end-to-end metrics, times scaled by ``speed``."""
    events = sum(r["events"] for r in timed["records"] if "events" in r)
    return {
        "setup_s": speed * min(timed["setup"]),
        "fits_per_min": 60.0 * timed["converged"] / stage_seconds(timed, "fit-", speed),
        "gof_s": stage_seconds(timed, "gof-", speed),
        "sim_events_per_s": events / stage_seconds(timed, "sim", speed),
    }


UNITS = {"setup_s": "s", "fits_per_min": "fits/min", "gof_s": "s",
         "sim_events_per_s": "events/s"}


def guard(workload: str, seed: int, timed: dict, repeat: dict) -> list[str]:
    """Identical work: the repeated operations, and the first run of this
    code and seed in this checkout, must give the timed pass's records."""
    import checks

    first = timed["records"]
    problems = checks.compare_records(first[:len(repeat["records"])], repeat["records"], "repeat")
    path = WORK / "guard" / f"{workload}-s{seed}-{code_hash()}.json"
    if path.exists():
        problems += checks.compare_records(json.loads(path.read_text()), first, "run")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first))
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "glppm" / "__init__.py").is_file():
        print(f"error: glppm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    runner = Runner(args.workload, args.seed, run_dir, args.seconds / NOMINAL_SECONDS)
    runner.warm_up()  # also writes the bytecode that the fresh interpreters load

    timed = runner.run_pass(run_dir / "timed", setup=not args.trace)
    if args.trace:
        from tracing import Tracer, layer_metrics

        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            repeat = runner.run_pass(run_dir / "traced")
        finally:
            runner.tracer.uninstall()
    else:
        repeat = runner.run_pass(run_dir / "repeat", limit=GUARD_DATASETS)

    problems = timed["problems"] + repeat["problems"] + guard(args.workload, args.seed, timed, repeat)
    speed = wall = None
    if args.trace:
        problems += [f"trace hook not installed, attribute missing: {m}"
                     for m in runner.tracer.missing]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(runner.tracer).items()}
        metrics["fail_frac"] = {"value": 1.0 - timed["converged"] / max(timed["fits"], 1), "unit": "ratio"}
        metrics["trace.overhead_frac"] = {
            "value": pass_seconds(repeat) / pass_seconds(timed) - 1.0, "unit": "ratio"}
        runner.tracer.write(run_dir / "spans.jsonl")
    else:
        speed = speed_factor(timed)
        wall = end_to_end(timed)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(timed, speed).items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB",
        }

    env = environment(args.seed, runner.sim_seeds)
    (run_dir / "result.json").write_text(json.dumps({
        "environment": env,
        "timed": timed,
        "repeat": repeat,
        "problems": problems,
        "metrics": metrics,
        "wall_metrics": wall,
        "speed_factor": speed,
        "stage_self_times": runner.tracer.stage_self_times() if args.trace else None,
    }, indent=1))
    for q in problems:
        print(f"check failed: {q}", file=sys.stderr)
    print(json.dumps({"environment": env, "fits": timed["fits"], "converged": timed["converged"],
                      "speed_factor": speed, "wall_metrics": wall}))
    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
