"""tools/compare_runs.py: bit identity of two benchmark runs."""

import base64
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_trees_differ_by_bytes_and_by_files_but_not_by_manifests(tmp_path, compare_runs, capsys):
    same = {"timed/fit-d0/trace.csv": "1,2\r\n", "timed/fit-d0/gof/ks.json": "{}"}
    a = write_tree(tmp_path / "a", {**same, "result.json": "1", "timed/fit-d0/run_manifest.json": "a"})
    b = write_tree(tmp_path / "b", {**same, "result.json": "2", "timed/fit-d0/run_manifest.json": "b"})
    assert compare_runs.main(["trees", str(a), str(b)]) == 0
    write_tree(b, {"timed/fit-d0/trace.csv": "1,3\r\n", "timed/sim0/gaps.csv": ""})
    (a / "timed/fit-d0/gof/ks.json").unlink()
    assert compare_runs.tree_differences(a, b) == [
        f"only in {b}: timed/fit-d0/gof/ks.json",
        f"only in {b}: timed/sim0/gaps.csv",
        "differs: timed/fit-d0/trace.csv",
    ]
    assert compare_runs.main(["trees", str(a), str(b)]) == 1
    assert "3 difference(s)" in capsys.readouterr().err


def test_bench_files_compare_their_fit_records(tmp_path, compare_runs):
    fit = {"op": "fit-d0", "rc": 0, "status": "converged", "n_iter": 7, "objective": "22.9"}

    def bench(name, fits, **metrics):
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {"fit-exp": {"metrics": metrics, "fits": fits}}}))
        return path

    a = bench("a.json", [fit], fits_per_min=1.0)
    b = bench("b.json", [fit], fits_per_min=2.0)
    assert compare_runs.fit_differences(a, b) == []
    c = bench("c.json", [dict(fit, objective="22.8"), dict(fit, op="fit-d1")])
    assert compare_runs.fit_differences(a, c) == [
        f"fit-exp: fit-d1 only in {c}",
        f"fit-exp: fit-d0: {fit} != {dict(fit, objective='22.8')}",
        "fit-exp: fit-d0: status converged / converged, n_iter 7 / 7, objective differs by 0.0044 relative",
    ]
    assert compare_runs.main(["bench", str(a), str(c)]) == 1


def test_fit_records_differ_by_fit_and_by_field(compare_runs):
    ra = {"exp-m1-d0": {"status": "converged", "n_iter": 7}, "exp-m2-d0": {"status": "stalled"}}
    rb = {"exp-m1-d0": {"status": "converged", "n_iter": 8}, "linear-m1-d0": {"error": "x"}}
    assert compare_runs.record_differences(ra, ra) == []
    assert compare_runs.record_differences(ra, rb, "a", "b") == [
        "exp-m2-d0 only in a",
        "linear-m1-d0 only in b",
        "exp-m1-d0: n_iter differs",
        "exp-m1-d0: status converged / converged, n_iter 7 / 8, objective differs by nan relative",
    ]
    # a fit whose last bits moved: its summary reads the objective from the
    # last entry of each trace
    import numpy as np

    def trace(*values):
        return base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")

    ra = {"exp-m1-d0": {"status": "converged", "n_iter": 7, "objective_trace": trace(9.0, 4.0)}}
    rb = {"exp-m1-d0": {"status": "stalled", "n_iter": 9, "objective_trace": trace(9.0, 4.0 + 4e-12)}}
    assert compare_runs.record_differences(ra, rb) == [
        "exp-m1-d0: n_iter differs",
        "exp-m1-d0: objective_trace differs",
        "exp-m1-d0: status differs",
        "exp-m1-d0: status converged / stalled, n_iter 7 / 9, objective differs by 1e-12 relative",
    ]


def test_family_totals_sum_each_family_on_both_sides(compare_runs):
    import numpy as np

    def fit(status, n_iter, objective):
        trace = base64.b64encode(np.array([9.0, objective], "<f8").tobytes()).decode("ascii")
        return {"status": status, "n_iter": n_iter, "objective_trace": trace}

    ra = {
        "linear-m1-d0": fit("converged", 20, 4.0), "linear-m1-d1": fit("converged", 30, 8.0),
        "softplus-m2-d0": fit("max_iter", 500, 2.0), "softplus-m2-d1": {"error": "x"},
        "softplus-m2-d2": fit("converged", 9, 1.0),
    }
    rb = {
        "linear-m1-d0": fit("converged", 18, 4.0 + 4e-9), "linear-m1-d1": fit("stalled", 25, 8.0 - 8e-10),
        "softplus-m2-d0": fit("converged", 300, 2.0), "softplus-m2-d1": fit("converged", 7, 3.0),
        "exp-m1-d0": fit("converged", 5, 1.0),
    }
    # a fit in one suite only, and a fit without an objective, count in
    # no difference; a family with no objective on both sides reads nan
    assert compare_runs.family_totals(ra, rb) == [
        "linear-m1: 2 fits, converged 2 / 1, iterations 50 / 43, largest objective difference 1e-09 relative",
        "softplus-m2: 2 fits, converged 0 / 2, iterations 500 / 307, largest objective difference 0 relative",
    ]
    assert compare_runs.family_totals({"exp-m1-d0": {"error": "x"}}, {"exp-m1-d0": {"error": "y"}}) == [
        "exp-m1: 1 fits, converged 0 / 0, iterations 0 / 0, largest objective difference nan relative",
    ]


def test_fits_run_the_suite_under_each_source_tree(tmp_path, compare_runs, capsys):
    src = TOOL.parents[1] / "src"
    small = ["--datasets", "1"]
    assert compare_runs.main(["fits", str(src), str(src), *small]) == 0
    out, err = capsys.readouterr()
    assert "6 fits compared" in err
    # no differences, then one line per family: links by m
    lines = out.splitlines()
    assert lines[0] == "per family, A / B:" and len(lines) == 7
    assert [line.split(":")[0] for line in lines[1:]] == sorted(
        f"{link}-m{m}" for link in ("exp", "softplus", "linear") for m in (1, 2)
    )
    for line in lines[1:]:
        assert re.fullmatch(
            r"[a-z]+-m[12]: 1 fits, converged ([01]) / \1, iterations (\d+) / \2, "
            r"largest objective difference 0 relative", line
        )
    # a tree whose line search asks for more curvature takes other steps
    changed = tmp_path / "src"
    shutil.copytree(src / "glppm", changed / "glppm", ignore=shutil.ignore_patterns("__pycache__"))
    optimizer = changed / "glppm" / "optimizer.py"
    constants = "C1, C2, DELTA, MAX_STEP_TRIALS = 1e-4, {}, 0.1, 60"
    text = optimizer.read_text()
    assert constants.format(0.4) in text
    optimizer.write_text(text.replace(constants.format(0.4), constants.format(0.3)))
    assert compare_runs.main(["fits", str(src), str(changed), *small]) == 1
    out = capsys.readouterr().out.splitlines()
    lines = out[: out.index("per family, A / B:")]
    assert lines and all(" differs" in line for line in lines)
    assert any(line.startswith("exp-m1-d0: objective_trace") for line in lines)


def test_time_runs_the_fit_batch_under_each_source_tree(tmp_path, compare_runs, capsys):
    src = TOOL.parents[1] / "src"
    small = ["--rounds", "1", "--datasets", "2"]
    assert compare_runs.main(["time", str(src), str(src), *small]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("exp", "softplus"):
        at = lines.index(f"{name}: 2 fits per pass, 1 round(s)")
        assert lines[at + 1].startswith(f"  A {src}: ") and " ms/fit (quartiles " in lines[at + 1]
        assert lines[at + 2].startswith(f"  B {src}: ")
        assert re.fullmatch(r"  B faster in [01] of 1 rounds, A in [01]; objectives identical", lines[at + 3])
    # the benchmark's 22 simulations, timed and compared by their events
    at = lines.index("sim: 22 simulations per pass, 1 round(s)")
    assert lines[at + 1].startswith(f"  A {src}: ") and " ms/simulation (quartiles " in lines[at + 1]
    assert lines[at + 2].startswith(f"  B {src}: ")
    assert re.fullmatch(r"  B faster in [01] of 1 rounds, A in [01]; events identical", lines[at + 3])
    assert lines[-1] == "every output matched"
    # a tree whose line search asks for more curvature ends elsewhere
    changed = tmp_path / "src"
    shutil.copytree(src / "glppm", changed / "glppm", ignore=shutil.ignore_patterns("__pycache__"))
    optimizer = changed / "glppm" / "optimizer.py"
    constants = "C1, C2, DELTA, MAX_STEP_TRIALS = 1e-4, {}, 0.1, 60"
    optimizer.write_text(optimizer.read_text().replace(constants.format(0.4), constants.format(0.3)))
    assert compare_runs.main(["time", str(src), str(changed), *small]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("outputs differ: exp")
    # a tree whose thinning bound has a wider margin draws other events,
    # and fits the same
    shutil.copy2(src / "glppm" / "optimizer.py", optimizer)
    simulator = changed / "glppm" / "simulator.py"
    text = simulator.read_text()
    assert "_BOUND_MARGIN = 1.01\n" in text
    simulator.write_text(text.replace("_BOUND_MARGIN = 1.01\n", "_BOUND_MARGIN = 1.02\n"))
    assert compare_runs.main(["time", str(src), str(changed), *small]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("sim: 22 simulations per pass, 1 round(s)")
    assert lines[at + 3].endswith("; events DIFFER")
    assert lines[-1] == "outputs differ: sim"


def test_cli_byte_compares_the_command_outputs_of_each_source_tree(tmp_path, compare_runs, capsys):
    src = TOOL.parents[1] / "src"
    assert compare_runs.compare_cli(src, src, 1, tmp_path) == []
    a, b = tmp_path / "A", tmp_path / "B"
    # every command of the set ran and wrote its outputs
    labels = ("basis", "basis-linear", "sim2/gof", "simfile/gof")
    for label in (*labels, *(f"{link}-m{m}-d0" for link in ("exp", "softplus", "linear") for m in (1, 2))):
        assert (a / label / "run_manifest.json").is_file(), label
    # a filter named by a file path simulates and tests as the one embedded
    for name in ("events.csv", "gof/ks.json"):
        assert (a / "simfile" / name).read_bytes() == (a / "sim0" / name).read_bytes(), name
    assert (b / "exp-m2-d0" / "trace.csv").is_file() and (b / "exp-m2-d0" / "intensity" / "intensity.csv").is_file()
    # a planted byte and a differing exit code are each reported
    trace = b / "exp-m2-d0" / "trace.csv"
    text = trace.read_bytes()
    trace.write_bytes(text[:-3] + bytes([text[-3] ^ 1]) + text[-2:])
    assert compare_runs.cli_differences(a, b, {"fit": 0}, {"fit": 4}) == [
        "exit code of fit: 0 / 4",
        "differs: exp-m2-d0/trace.csv",
    ]
    # run_manifest.json holds wall times and paths, and is not compared
    (b / "basis" / "run_manifest.json").write_text("{}")
    trace.write_bytes(text)
    assert compare_runs.cli_differences(a, b, {}, {}) == []
    with pytest.raises(SystemExit):
        compare_runs.main(["cli", str(src), str(src), "--datasets", "0"])


def test_a_fit_record_holds_the_dictionary_size(compare_runs):
    # ``fits`` shows a change in dictionary size as a field of its own
    import numpy as np

    import glppm
    from glppm.data import DriverChannel, DriverSeries, EventSeries

    times = np.arange(0.5, 8.0, 0.5)
    drivers = DriverSeries(8.0, (DriverChannel("target", times, np.ones(times.size)),))
    obj = glppm.Objective(glppm.LinkSpec("exponential", 0.0), 5.0, EventSeries(8.0, times), drivers)
    res = glppm.fit_descent(glppm.SobolevKernel(1, 8.0), obj)
    record = compare_runs._fit_record(res)
    assert record["n_atoms"] == res.diagnostics["n_atoms"] == len(res.g_hat.atoms)


def test_m1_and_linear_fits_do_not_depend_on_the_blas_thread_count():
    # the ``suite`` records under one and under two BLAS threads: every
    # m = 1 descent fit and every linear fit keeps its bits.  m = 2 descent
    # fits are left out: in the 10-dataset suite exp-m2-d5 takes 74
    # iterations under one thread and 75 under two
    src = TOOL.parents[1] / "src"
    records = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        run = subprocess.run(
            [sys.executable, str(TOOL), "suite", "--datasets", "6"], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        records.append(json.loads(run.stdout))
    keys = [key for key in records[0] if re.fullmatch(r"(exp|softplus)-m1-d\d+|linear-m[12]-d\d+", key)]
    assert len(keys) == 2 * 6 + 2 * 6
    for key in keys:
        assert "error" not in records[0][key], key
        assert records[0][key] == records[1][key], key
