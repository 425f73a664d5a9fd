"""tools/compare_runs.py: bit identity of two source trees, and benchmark pairs."""

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

    def b64(values):
        return base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")

    def fit(status, n_iter, objective, grad_norms=None):
        record = {"status": status, "n_iter": n_iter, "objective_trace": b64([9.0, objective])}
        return record if grad_norms is None else {**record, "grad_norm_trace": b64(grad_norms)}

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
        "linear-m1: 2 fits, converged 2 / 1, iterations 50 / 43, largest objective difference 1e-09 relative, "
        "largest gradient-norm difference nan of the stopping scale",
        "softplus-m2: 2 fits, converged 0 / 2, iterations 500 / 307, largest objective difference 0 relative, "
        "largest gradient-norm difference nan of the stopping scale",
    ]
    assert compare_runs.family_totals({"exp-m1-d0": {"error": "x"}}, {"exp-m1-d0": {"error": "y"}}) == [
        "exp-m1: 1 fits, converged 0 / 0, iterations 0 / 0, largest objective difference nan relative, "
        "largest gradient-norm difference nan of the stopping scale",
    ]
    # a change that moves only gradient-norm bits reads 0 on the objectives
    # and reports its largest move over the iterates both fits hold, relative
    # to max(1, A's first norm): 3e-12 of 4 here, and 2e-13 absolute below 1
    ra = {
        "exp-m2-d0": fit("converged", 2, 5.0, [4.0, 1e-3, 1e-7]),
        "exp-m2-d1": fit("converged", 1, 6.0, [0.5, 1e-8]),
    }
    rb = {
        "exp-m2-d0": fit("converged", 2, 5.0, [4.0, 1e-3 + 1.2e-11, 1e-7]),
        "exp-m2-d1": fit("converged", 1, 6.0, [0.5, 1e-8 + 2e-13]),
    }
    [line] = compare_runs.family_totals(ra, rb)
    assert line.startswith(
        "exp-m2: 2 fits, converged 2 / 2, iterations 3 / 3, largest objective difference 0 relative, "
        "largest gradient-norm difference 3e-12 of the stopping scale"
    )
    assert compare_runs.record_differences(ra, rb) == [
        "exp-m2-d0: grad_norm_trace differs",
        "exp-m2-d0: status converged / converged, n_iter 2 / 2, objective differs by 0 relative",
        "exp-m2-d1: grad_norm_trace differs",
        "exp-m2-d1: status converged / converged, n_iter 1 / 1, objective differs by 0 relative",
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
            r"largest objective difference 0 relative, largest gradient-norm difference 0 of the stopping scale",
            line,
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


def test_the_reference_gap_flags_an_early_stop_and_not_rounding(tmp_path, compare_runs, monkeypatch, capsys):
    # one real suite fit (exp, m = 1, dataset 0), its tight reference fit,
    # and B's fit of it stopped after two steps: B's gap grows and B
    # converges fewer fits, each flagged; a change of 1e-13 in B's final
    # objective moves its gap by about as much, which is no flag
    key, fit, kernel, obj = next(compare_runs._suite(1))
    assert key == "exp-m1-d0"

    def record(**stop):
        res = fit(kernel, obj, **stop)
        return {**compare_runs._fit_record(res), "objective_value": compare_runs._value_of(res, obj)}

    ra, early = {key: record()}, {key: record(max_iter=2)}
    ref = {key: {"objective": fit(kernel, obj, **compare_runs.REFERENCE_STOP).objective}}
    gap_a, gap_b = (compare_runs._gap(r[key], ref[key]) for r in (ra, early))
    assert 0.0 <= gap_a < 1e-9 < gap_b
    assert abs(ra[key]["objective_value"] - ref[key]["objective"]) < 1e-9 * abs(ref[key]["objective"])
    lines, flagged = compare_runs.reference_totals(ra, early, ref)
    assert lines == [
        f"exp-m1: converged 1 / 0, iterations {ra[key]['n_iter']} / 2, median gap {gap_a:.2g} / {gap_b:.2g}, "
        f"largest gap {gap_a:.2g} / {gap_b:.2g}"
    ]
    assert flagged == [
        f"exp-m1: largest gap {gap_b:.2g} on B exceeds max(10 x {gap_a:.2g}, 1e-09)",
        "exp-m1: 0 fits converged on B, 1 on A",
    ]
    import numpy as np

    trace = np.frombuffer(base64.b64decode(ra[key]["objective_trace"]), "<f8").copy()
    trace[-1] *= 1.0 + 1e-13
    rounded = {key: {**ra[key], "objective_trace": base64.b64encode(trace.tobytes()).decode("ascii")}}
    assert compare_runs.reference_totals(ra, rounded, ref)[1] == []
    # ``fits --reference`` exits by the gap rule, and plain ``fits`` by
    # any difference, as before, printing no gaps
    suites = {"a": ra, "early": early, "rounded": rounded}
    for side in suites:
        (tmp_path / side).mkdir()
    monkeypatch.setattr(compare_runs, "fit_records", lambda src, n, values=False: suites[src.name])
    monkeypatch.setattr(compare_runs, "reference_records", lambda src, n: ref)
    for b, flag, code in [("early", [], 1), ("early", ["--reference"], 1), ("rounded", [], 1),
                          ("rounded", ["--reference"], 0), ("a", ["--reference"], 0)]:
        assert compare_runs.main(["fits", str(tmp_path / "a"), str(tmp_path / b), *flag]) == code, (b, flag)
        out = capsys.readouterr().out.splitlines()
        assert ("per family, gap (F - F*) / |F*| to the reference, A / B:" in out) == bool(flag)
    with pytest.raises(SystemExit):
        compare_runs.main(["trees", str(tmp_path / "a"), str(tmp_path / "a"), "--reference"])


# a stand-in for ``bench/run.py`` that imports no glppm: it logs its root,
# arguments, ``__file__`` and the names beside it, writes the run tree and
# prints the result line that its root's table holds for its workload and seed
STUB = """import argparse, json, sys
from pathlib import Path

ROOT = Path({root!r})
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag, required=True)
args = p.parse_args()
here = Path(__file__).parent
with open(ROOT.parent / "log.jsonl", "a") as log:
    entry = [ROOT.name, args.workload, args.seed, args.seconds, args.trace, __file__]
    log.write(json.dumps(entry + [sorted(q.name for q in here.iterdir())]) + "\\n")
run = json.loads((ROOT / "table.json").read_text())[args.workload + " " + args.seed]
for name, text in run["files"].items():
    path = here / ".work" / (args.workload + "-s" + args.seed) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
print("a summary line")
print(run["line"])
print("boom", file=sys.stderr)
sys.exit(run["rc"])
"""


def checkout(root: Path, workloads, metrics, seconds=3) -> Path:
    """A stub checkout root: ``src/glppm``, the stub ``bench/run.py`` with a
    stale ``bench/.work`` and ``__pycache__`` beside it, and a
    ``BENCHMARK.json`` of these workloads and (name, better, bound)
    metrics."""
    spec = {
        "command": [sys.executable, "bench/run.py"], "run_seconds": seconds, "paths": ["bench"],
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": n, "unit": "x", "better": better, "bound": bound} for n, better, bound in metrics],
    }
    return write_tree(root, {
        "src/glppm/__init__.py": "", "bench/run.py": STUB.format(root=str(root)), "bench/.work/stale": "",
        "bench/__pycache__/run.cpython.pyc": "", "BENCHMARK.json": json.dumps(spec),
    })


def set_runs(root: Path, runs: dict) -> None:
    """The stub's table: per "workload seed", the result line it prints,
    its exit code and the files of its run tree."""
    (root / "table.json").write_text(json.dumps(runs))


def outcome(metrics=None, line=None, rc=0, files=None, **fields) -> dict:
    """One stub run: a result line of these metric values, ``correct`` and
    0 failed unless ``fields`` say otherwise, or the given ``line``."""
    result = {"correct": True, "attempted": 9, "failed": 0, **fields,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in (metrics or {}).items()}}
    return {"line": json.dumps(result) if line is None else line, "rc": rc,
            "files": {"timed/fit.txt": "7", "result.json": line or "r", **(files or {})}}


def pair_roots(tmp_path, workloads, metrics):
    return (checkout(tmp_path / side, workloads, metrics) for side in ("A", "B"))


def test_pairs_alternate_the_first_side_and_run_each_from_a_fresh_copy(tmp_path, compare_runs, capsys):
    a, b = pair_roots(tmp_path, ["w1", "w2"], [("m", "higher", 0.25)])
    runs = {f"{w} {seed}": outcome({"m": 1.0}) for w in ("w1", "w2") for seed in (601, 602)}
    set_runs(a, runs)
    # B's run tree of w2 in pair 1 differs, which is reported and fails nothing
    set_runs(b, {**runs, "w2 602": outcome({"m": 1.0}, files={"timed/fit.txt": "8", "result.json": "x"})})
    assert compare_runs.main(["pairs", str(a), str(b), "--rounds", "2"]) == 0
    log = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [entry[:5] for entry in log] == [
        [side, w, str(seed), "3", "0"]
        for seed, order in ((601, "AB"), (602, "BA")) for w in ("w1", "w2") for side in order
    ]
    files = [Path(entry[5]) for entry in log]
    assert len({f.parent for f in files}) == len(files)
    assert not any(f.is_relative_to(root) or f.exists() for f in files for root in (a, b))
    # the copy holds bench/ without its .work and __pycache__
    assert all(entry[6] == ["run.py"] for entry in log)
    assert capsys.readouterr().out.splitlines() == [
        f"A {a}, first in even pairs",
        f"B {b}, first in odd pairs",
        "w1: 2 pair(s) at seeds 601-602",
        "  m (higher is better, bound 0.25): A 1 (1, 1), B 1 (1, 1), B won 0/2, median +0.0%: within bound",
        "  run trees: 2/2 pair(s) identical",
        "w2: 2 pair(s) at seeds 601-602",
        "  m (higher is better, bound 0.25): A 1 (1, 1), B 1 (1, 1), B won 0/2, median +0.0%: within bound",
        "  run trees: 1/2 pair(s) identical",
        "  pair 1 (seed 602) differs in:",
        "    differs: timed/fit.txt",
        "all 8 runs correct, 0 failed",
        "no metric worse than bound",
    ]


def test_pairs_give_each_metric_its_verdict(tmp_path, compare_runs, capsys):
    metrics = [("gain", "higher", 0.25), ("worse", "lower", 0.1), ("wide", "lower", 0.1), ("flat", "higher", 0.25)]
    a, b = pair_roots(tmp_path, ["w"], metrics)

    def values(i, side):
        # gain: B above A by 10 in every pair, past A's quartile distance
        # of 4.5; worse: B's median 20 % above A's, over its bound of 10 %;
        # wide: A's runs 1 and 2, a spread past the bound, and B better by
        # 0.01 in every pair; flat: A and B alike, B ahead in half the pairs
        a_values = {"gain": 100.0 + i, "worse": 1.0, "wide": 1.0 + i % 2, "flat": 10.0}
        b_values = {"gain": 110.0 + i, "worse": 1.2, "wide": a_values["wide"] - 0.01, "flat": 10.0 + 0.1 * (i % 2)}
        return a_values if side == "A" else b_values

    for root in (a, b):
        set_runs(root, {f"w {601 + i}": outcome(values(i, root.name)) for i in range(10)})
    assert compare_runs.main(["pairs", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:7] == [
        "w: 10 pair(s) at seeds 601-610",
        "  gain (higher is better, bound 0.25): A 104.5 (102.25, 106.75), B 114.5 (112.25, 116.75), B won 10/10, "
        "median +9.6%: gain",
        "  worse (lower is better, bound 0.1): A 1 (1, 1), B 1.2 (1.2, 1.2), B won 0/10, median +20.0%: "
        "worse than bound",
        "  wide (lower is better, bound 0.1): A 1.5 (1, 2), B 1.49 (0.99, 1.99), B won 10/10, median -0.7%: "
        "unresolved",
        "  flat (higher is better, bound 0.25): A 10 (10, 10), B 10.05 (10, 10.1), B won 5/10, median +0.5%: "
        "within bound",
    ]
    assert lines[-2:] == ["all 20 runs correct, 0 failed", "worse than bound: w worse"]
    # every run of B better than every run of A resolves a wide spread, short
    # of a gain
    for root in (a, b):
        wide = {i: 0.95 if root is b else 1.0 + i % 2 for i in range(10)}
        set_runs(root, {f"w {601 + i}": outcome({**values(i, "A"), "wide": wide[i]}) for i in range(10)})
    assert compare_runs.main(["pairs", str(a), str(b), "--rounds", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[5].endswith("B won 4/4, median -36.7%: within bound")


@pytest.mark.parametrize("run, problem", [
    (outcome({"m": 1.0}, correct=False), "correct: false"),
    (outcome({"m": 1.0}, failed=2), "failed: 2"),
    (outcome(line="not a JSON line"), "no JSON result line"),
    (outcome({"m": 1.0}, rc=3), "exit 3: boom"),
], ids=["incorrect", "failed", "no-result", "exit-code"])
def test_a_failed_run_fails_the_pairs(tmp_path, compare_runs, capsys, run, problem):
    a, b = pair_roots(tmp_path, ["w"], [("m", "higher", 0.25)])
    set_runs(a, {"w 601": outcome({"m": 1.0})})
    set_runs(b, {"w 601": run})
    assert compare_runs.main(["pairs", str(a), str(b), "--rounds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"w pair 0 (seed 601) B: {problem}" in lines and lines[-1] == "no metric worse than bound"


def test_pairs_refuse_a_root_that_is_no_checkout_before_any_run(tmp_path, compare_runs):
    a, b = pair_roots(tmp_path, ["w"], [("m", "higher", 0.25)])
    (b / "BENCHMARK.json").unlink()
    for argv in ([str(a), str(b)], [str(a), str(a), "--rounds", "0"]):
        with pytest.raises(SystemExit) as exc:
            compare_runs.main(["pairs", *argv])
        assert exc.value.code == 2
    assert not (tmp_path / "log.jsonl").exists()


def test_the_docstring_has_a_usage_line_for_each_mode_and_no_other(compare_runs, capsys):
    # the kinds main accepts, from argparse's refusal of one it does not
    with pytest.raises(SystemExit):
        compare_runs.main(["nothing"])
    accepted = set(re.findall(r"'(\w+)'", capsys.readouterr().err.split("choose from")[1]))
    internal = {"suite", "reference", "clirun"}  # what a subprocess of fits and cli runs
    assert accepted == {"trees", "bench", "fits", "cli", "pairs"} | internal
    usage = set(re.findall(r"^    python3 tools/compare_runs\.py (\w+) ", compare_runs.__doc__, re.M))
    assert usage == accepted - internal


def test_the_reference_cache_is_keyed_by_the_suite(tmp_path, compare_runs, monkeypatch):
    calls = []
    monkeypatch.setattr(compare_runs, "REFERENCE_CACHE", tmp_path / "cache")
    monkeypatch.setattr(compare_runs, "_under", lambda *args: calls.append(args) or {"k": len(calls)})
    src = TOOL.parents[1] / "src"
    assert compare_runs.reference_records(src, 2) == compare_runs.reference_records(src, 2) == {"k": 1}
    assert len(calls) == 1
    for name, value in (("SUITE_PENALTY", 1.0), ("SUITE_ORDERS", (1,))):
        with monkeypatch.context() as m:
            m.setattr(compare_runs, name, value)
            compare_runs.reference_records(src, 2)
    assert len(calls) == 3 and calls[-1][1:] == ("reference", "--datasets", "2")
