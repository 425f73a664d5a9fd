"""tools/compare_runs.py: bit identity of two benchmark runs."""

import importlib.util
import json
import shutil
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
    ]


def test_fits_run_the_suite_under_each_source_tree(tmp_path, compare_runs, capsys):
    src = TOOL.parents[1] / "src"
    small = ["--datasets", "1"]
    assert compare_runs.main(["fits", str(src), str(src), *small]) == 0
    assert "10 fits compared" in capsys.readouterr().err
    # a tree whose line search asks for more curvature takes other steps
    changed = tmp_path / "src"
    shutil.copytree(src / "glppm", changed / "glppm", ignore=shutil.ignore_patterns("__pycache__"))
    optimizer = changed / "glppm" / "optimizer.py"
    constants = "C1, C2, DELTA, MAX_STEP_TRIALS = 1e-4, {}, 0.1, 60"
    text = optimizer.read_text()
    assert constants.format(0.4) in text
    optimizer.write_text(text.replace(constants.format(0.4), constants.format(0.3)))
    assert compare_runs.main(["fits", str(src), str(changed), *small]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(" differs" in line for line in lines)
    assert any(line.startswith("exp-m1-d0: objective_trace") for line in lines)


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
