"""tools/compare_runs.py: bit identity of two benchmark runs."""

import importlib.util
import json
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
