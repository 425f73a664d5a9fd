"""Tests of the benchmark's own generator and output checks."""

import json

import numpy as np
import pytest

import checks
import generate
import tracing
from glppm.cli import main as cli_main


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_output_is_byte_identical_for_a_seed(tmp_path):
    generate.write_batch(tmp_path / "a", 7, 3, 20)
    generate.write_batch(tmp_path / "b", 7, 3, 20)
    generate.write_batch(tmp_path / "c", 8, 3, 20)
    a = _tree_bytes(tmp_path / "a")
    assert a == _tree_bytes(tmp_path / "b")
    assert a != _tree_bytes(tmp_path / "c")


def test_generator_mean_rate_matches_the_branching_law():
    horizon = 20_000.0
    times = generate.hawkes_times(np.random.default_rng(3), horizon)
    expected = generate.MU / (1.0 - generate.BRANCHING)
    # sd of the rate is about sqrt(MU / (1 - BRANCHING)^3 / horizon) = 0.008
    assert abs(times.size / horizon - expected) < 0.04
    assert np.all(np.diff(times) > 0) and 0.0 < times[0] and times[-1] < horizon


def test_conditioned_path_holds_n_events_inside_its_window():
    times = generate.hawkes_exactly_n(np.random.default_rng(5), 30, generate.window_for(30))
    assert times.size == 30 and 0.0 < times[0] and times[-1] < generate.window_for(30)


def test_tracer_lists_a_hook_whose_attribute_is_gone(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", [("glppm.cli", "no_such_function", "cli.gone", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["glppm.cli.no_such_function"]


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit")
    data = generate.write_batch(root / "data", 1, 1, 10)[0]
    cfg = root / "fit.json"
    # exponential link: its intensity is positive everywhere, so every
    # rescaled gap of a sound fit is positive
    cfg.write_text(json.dumps({"link": {"kind": "exponential"}, "penalty_weight": 5.0, "m": 1}))
    rc = cli_main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(root / "out")])
    assert cli_main(["gof", "--data", str(data), "--config", str(root / "out" / "filter.json"),
                     "--out", str(root / "out" / "gof")]) == 0
    return root / "out", rc


def test_checks_accept_a_real_fit(fit_dir):
    out, rc = fit_dir
    assert checks.check_fit(out, rc) == []
    assert checks.check_gof(out / "gof", 0, 10) == []


def test_checks_reject_a_nan_objective(fit_dir, tmp_path):
    out, rc = fit_dir
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("trace.csv", "filter.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    res = json.loads((out / "fit_result.json").read_text())
    res["objective"] = float("nan")
    (bad / "fit_result.json").write_text(json.dumps(res))
    assert any("not finite" in p for p in checks.check_fit(bad, rc))
    assert checks.check_fit(bad, 1) != []


def test_checks_reject_a_nonpositive_gap(fit_dir, tmp_path):
    out, _ = fit_dir
    bad = tmp_path / "gof"
    bad.mkdir()
    rows = (out / "gof" / "gaps.csv").read_text().splitlines()
    rows[1] = "-0.5"
    (bad / "gaps.csv").write_text("\n".join(rows) + "\n")
    (bad / "ks.json").write_bytes((out / "gof" / "ks.json").read_bytes())
    assert checks.check_gof(bad, 0, 10) != []


def test_checks_compare_gaps_with_the_independent_compensator(fit_dir):
    out, _ = fit_dir
    gaps = np.array([float(r) for r in (out / "gof" / "gaps.csv").read_text().split()[1:]])
    assert checks.check_gof(out / "gof", 0, 10, expected=gaps) == []
    assert checks.check_gof(out / "gof", 0, 10, expected=gaps * (1.0 + 1e-6)) != []
