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
    # the benchmark's CLI commands: fit and gof per family, simulate and gof
    # of each simulation, timed and compared by exit code and output bytes
    parts = [f"cli-{name}-{cmd}" for name in ("exp", "softplus") for cmd in ("fit", "gof")]
    for part, count in [(part, 2) for part in parts] + [("cli-simulate", 22), ("cli-sim-gof", 22)]:
        at = lines.index(f"{part}: {count} commands per pass, 1 round(s)")
        assert lines[at + 1].startswith(f"  A {src}: ") and " ms/command (quartiles " in lines[at + 1]
        assert lines[at + 2].startswith(f"  B {src}: ") and " ms/command (quartiles " in lines[at + 2]
        assert re.fullmatch(r"  B faster in [01] of 1 rounds, A in [01]; outputs identical", lines[at + 3])
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
    # the simulate commands' events differ too, and so do the gofs of them
    assert lines[-1] == "outputs differ: sim, cli-simulate, cli-sim-gof"
    # a tree whose fitted-filter grid has one more point fits the same, and
    # writes other fit outputs
    shutil.copy2(src / "glppm" / "simulator.py", simulator)
    cli = changed / "glppm" / "cli.py"
    text = cli.read_text()
    assert "_GRID_POINTS = 512 " in text
    cli.write_text(text.replace("_GRID_POINTS = 512 ", "_GRID_POINTS = 513 "))
    assert compare_runs.main(["time", str(src), str(changed), *small]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("cli-exp-fit: 2 commands per pass, 1 round(s)") + 3].endswith("; outputs DIFFER")
    assert lines[-1] == "outputs differ: cli-exp-fit, cli-softplus-fit"


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
