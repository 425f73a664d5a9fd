"""End-to-end command line tests: simulate, fit, intensity, gof, basis.

Every test drives ``glppm.cli.main`` with an argv list and checks the exit
code plus the files written into a temporary output directory.  The output
files are re-parsed with the library loaders so the round trips stay honest.
"""

import base64
import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import glppm
from glppm import cli, data as data_module, optimizer, simulator
from glppm.cli import main
from glppm.data import AtRiskProcess, load_events, load_manifest
from glppm.filters import FilterFunction, h0_poly
from glppm.kernel import SobolevKernel
from glppm.likelihood import (
    Objective,
    QuadratureConfig,
    build_f_atoms,
    build_h_atoms,
    exponential_link,
    linear_link,
)
from glppm.optimizer import STEP_FIELDS, fit_descent, fit_linear
from glppm.simulator import SimSpec, time_rescale

from oracles import exact_compensator, full_gram, h1_gram, kernel_section, same_bits


def run(*argv):
    return main([str(a) for a in argv])


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return path


def make_dataset(dirpath, times, horizon=8.0):
    """Self-exciting single-channel dataset manifest + CSV on disk."""
    manifest = {
        "horizon": horizon,
        "target_channel": "target",
        "driver_channels": [],
        "self_exciting": True,
        "csv": "events.csv",
    }
    write_json(dirpath / "dataset.json", manifest)
    lines = ["time,channel,mark"]
    lines += [f"{float(t)!r},target,1.0" for t in times]
    (dirpath / "events.csv").write_text("\n".join(lines) + "\n")
    return dirpath / "dataset.json"


def trace_rows(out):
    with open(out / "trace.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def zero_filter_payload(m=1, horizon=12.0, link=None):
    g = FilterFunction(SobolevKernel(m=m, horizon=horizon), 1, (), np.empty(0))
    payload = json.loads(g.to_json())
    if link is not None:
        payload["link"] = link
    return payload


def fit_config(dirpath, **overrides):
    cfg = {
        "link": {"kind": "linear", "d": 0.5},
        "penalty_weight": 5.0,
        "m": 1,
        "tol": 1e-6,
    }
    cfg.update(overrides)
    return write_json(dirpath / "fit.json", cfg)


DENSE_TIMES = np.arange(0.5, 8.0, 0.5)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env():
    """The BLAS thread variables as ``run_manifest.json`` records them."""
    return {var: os.environ.get(var) for var in THREAD_VARS}


def numeric_env():
    """The numpy, scipy and BLAS versions as ``run_manifest.json`` records them."""
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
    }


class TestSimulateCommand:
    def test_writes_reloadable_dataset_and_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.7},
                "filters": zero_filter_payload(),
                "horizon": 12.0,
            },
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--seed", 3, "--out", out) == 0

        manifest = load_manifest(out / "dataset.json")
        events, drivers = load_events(out / "events.csv", manifest)
        assert manifest.horizon == 12.0
        assert manifest.driver_names() == ["target"]
        assert len(events) > 0
        assert events.times.min() > 0.0 and events.times.max() <= 12.0
        np.testing.assert_array_equal(drivers.channels[0].times, events.times)

        meta = json.loads((out / "run_manifest.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["seed"] == 3
        assert meta["wall_time_s"] > 0.0
        assert "tool_version" in meta
        assert meta["thread_env"] == thread_env()
        assert meta["thread_env"]["OMP_NUM_THREADS"] == "3"
        assert meta["thread_env"]["MKL_NUM_THREADS"] is None
        # next to the thread variables, the library versions the bits depend on
        assert meta["numeric_env"] == numeric_env()
        assert all(isinstance(v, str) and v for v in (
            meta["numeric_env"]["numpy"], meta["numeric_env"]["scipy"],
            meta["numeric_env"]["blas"]["name"], meta["numeric_env"]["blas"]["version"],
        ))
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert meta["inputs"]["config"]["sha256"] == digest

    def test_same_seed_reproduces_byte_identical_csv(self, tmp_path):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 1.0},
                "filters": zero_filter_payload(horizon=6.0),
                "horizon": 6.0,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--seed", 11, "--out", a) == 0
        assert run("simulate", "--config", cfg, "--seed", 11, "--out", b) == 0
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()

    def test_filter_payload_may_live_in_its_own_file(self, tmp_path):
        (tmp_path / "g.json").write_text(
            FilterFunction(SobolevKernel(m=1, horizon=5.0), 1, (), np.empty(0)).to_json()
        )
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.4},
                "filters": "g.json",
                "horizon": 5.0,
            },
        )
        assert run("simulate", "--config", cfg, "--seed", 0, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize(
        "key, raw, value",
        [
            ("at_risk", {"breakpoints": [4.0, 8.0], "values": [1.0, 0.0, 2.0]},
             AtRiskProcess([4.0, 8.0], [1.0, 0.0, 2.0])),
            ("bound", 3.0, 3.0),
            ("target_name", "spikes", "spikes"),
        ],
        ids=["at_risk", "bound", "target_name"],
    )
    def test_spec_keys_give_the_library_simulation(self, tmp_path, key, raw, value):
        g = zero_filter_payload()
        sim = {"link": {"kind": "linear", "d": 0.7}, "filters": g, "horizon": 12.0, key: raw}
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "sim.json", sim)
        assert run("simulate", "--config", cfg, "--seed", 5, "--out", out) == 0
        manifest = load_manifest(out / "dataset.json")
        events, drivers = load_events(out / "events.csv", manifest)
        spec = SimSpec(linear_link(0.7), FilterFunction.from_dict(g), 12.0, **{key: value})
        want, want_drivers = simulator.simulate(spec, seed=5)
        assert same_bits(events.times, want.times) and len(events) > 0
        assert manifest.driver_names() == [ch.name for ch in want_drivers.channels]
        assert manifest.target_channel == spec.target_name
        # each key changes the run: no event while not at risk, another
        # candidate stream, another channel name
        if key == "at_risk":
            assert not ((events.times > 4.0) & (events.times <= 8.0)).any()
        elif key == "bound":
            default, _ = simulator.simulate(SimSpec(linear_link(0.7), spec.filters, 12.0), seed=5)
            assert not np.array_equal(events.times, default.times)
        else:
            assert drivers.channels[0].name == "spikes"

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.7},
                "filters": zero_filter_payload(),
                "horizon": 12.0,
                "horison": 1.0,
            },
        )
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_missing_horizon_is_config_error(self, tmp_path):
        cfg = write_json(
            tmp_path / "sim.json",
            {"link": {"kind": "linear", "d": 0.7}, "filters": zero_filter_payload()},
        )
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2


class TestChannelNames:
    """A channel name becomes part of ``filter_grid_<name>.csv``, so a name
    with a path separator is a configuration error, found before anything
    is simulated or fitted."""

    def test_simulate_refuses_a_target_name_with_a_separator(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.7},
                "filters": zero_filter_payload(),
                "horizon": 12.0,
                "target_name": "a/b",
            },
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--seed", 3, "--out", out) == 2
        assert "path separator" in capsys.readouterr().err
        assert not (out / "events.csv").exists() and not (out / "dataset.json").exists()

    def test_fit_refuses_a_driver_name_with_a_separator(self, tmp_path, capsys):
        data = make_dataset(tmp_path, DENSE_TIMES)
        manifest = json.loads(data.read_text())
        write_json(data, {**manifest, "driver_channels": ["a/b"]})
        with open(tmp_path / "events.csv", "a") as fh:
            fh.write("1.25,a/b,1.0\n")
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", fit_config(tmp_path), "--out", out) == 2
        assert "path separator" in capsys.readouterr().err
        assert not (out / "filter.json").exists()


class TestWrongJsonTypes:
    """A dataset-manifest or simulate-config field of the wrong JSON type,
    a manifest horizon that is not positive, or a driver name listed twice
    exits 2 before any output is written."""

    @pytest.mark.parametrize(
        "field, value",
        [("csv", 5), ("target_channel", None), ("horizon", -1.0), ("driver_channels", ["z", "z"])],
        ids=["csv", "target", "horizon", "duplicate-drivers"],
    )
    def test_fit_refuses_a_manifest_field(self, tmp_path, capsys, field, value):
        data = make_dataset(tmp_path, DENSE_TIMES)
        write_json(data, {**json.loads(data.read_text()), field: value})
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", fit_config(tmp_path), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "filter.json").exists()

    def test_simulate_refuses_a_null_target_name(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.7},
                "filters": zero_filter_payload(),
                "horizon": 12.0,
                "target_name": None,
            },
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--seed", 3, "--out", out) == 2
        assert "target channel must be a name" in capsys.readouterr().err
        assert not (out / "events.csv").exists() and not (out / "dataset.json").exists()


class TestNumericStrings:
    def test_a_fit_config_of_numeric_strings_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # float() reads each of these strings as a number, "1_0" as 10
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = write_json(tmp_path / "fit.json", {
            "link": {"kind": "exponential", "d": "0.5"}, "penalty_weight": "1_0", "m": "1", "tol": "1e-6",
        })
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "must be a number, got '0.5'" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_a_filter_file_with_a_string_coefficient_exits_3(self, tmp_path, capsys):
        data = make_dataset(tmp_path, [0.5, 1.0, 2.0], horizon=3.0)
        payload = zero_filter_payload(horizon=3.0, link={"kind": "linear", "d": 0.5})
        payload["atoms"] = [{"channel": 0, "kind": "h0", "k": 1, "coefficient": "1"}]
        cfg = write_json(tmp_path / "g.json", payload)
        out = tmp_path / "o"
        assert run("gof", "--data", data, "--config", cfg, "--out", out) == 3
        assert "atom coefficient must be a number" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestConfigFilter:
    @pytest.mark.parametrize("command", ["simulate", "gof", "intensity"])
    @pytest.mark.parametrize("value", [{"atoms": []}, 5], ids=["no-format", "number"])
    def test_an_inline_filter_that_is_no_payload_exits_2(self, tmp_path, capsys, command, value):
        # simulate's "filters" and a wrapper's "filter" are read alike: a
        # value that is neither a path nor a payload with a format field is
        # a bad configuration, refused before any output is written
        data = make_dataset(tmp_path, DENSE_TIMES)
        link = {"kind": "linear", "d": 0.5}
        if command == "simulate":
            argv = ["--config", write_json(tmp_path / "sim.json", {"link": link, "filters": value, "horizon": 8.0})]
        else:
            argv = ["--data", data, "--config", write_json(tmp_path / "wrap.json", {"filter": value, "link": link})]
        out = tmp_path / "out"
        assert run(command, *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "must be a filter JSON payload or a path to one" in err and "Traceback" not in err
        assert list(out.iterdir()) == []


class TestFitCommand:
    def test_linear_fit_outputs_round_trip(self, tmp_path):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path)
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 0

        g_hat = FilterFunction.from_dict(json.loads((out / "filter.json").read_text()))
        payload = json.loads((out / "filter.json").read_text())
        assert payload["link"] == {"kind": "linear", "d": 0.5}

        result = json.loads((out / "fit_result.json").read_text())
        assert result["status"] == "converged"
        assert result["reason"] == "grad"
        assert result["converged"] is True
        assert result["stationarity_residual"] <= 1e-6
        assert result["n_events"] == DENSE_TIMES.size
        assert result["n_channels"] == 1
        assert result["penalty_weight"] == 5.0

        grid_lines = (out / "filter_grid_target.csv").read_text().strip().split("\n")
        assert grid_lines[0] == "lag,value"
        assert len(grid_lines) == 1 + 512
        lag, value = grid_lines[1].split(",")
        assert float(lag) == 0.0
        np.testing.assert_allclose(float(value), g_hat.evaluate(0, 0.0))

        trace_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert trace_lines[0] == ",".join(["iteration", "objective", "grad_norm", *STEP_FIELDS])
        objectives = [float(row.split(",")[1]) for row in trace_lines[1:]]
        np.testing.assert_allclose(objectives[-1], result["objective"], rtol=1e-12)
        # every step fills the row of the iterate it starts from; the final
        # iterate has none
        rows = trace_rows(out)
        assert len([row for row in rows if row["direction"]]) == result["n_iter"]
        assert not any(rows[-1][key] for key in STEP_FIELDS)
        # stationarity is measured against the fit's stopping scale, the
        # norm at its start
        scale = result["diagnostics"]["grad_norm_scale"]
        assert scale == float(rows[0]["grad_norm"])
        assert result["stationarity_residual"] == (
            result["diagnostics"]["kkt_residual"] / max(1.0, scale)
        )
        res, _, _ = library_fit(data, linear_link(0.5))
        for rec in res.diagnostics["iterations"]:
            row = rows[rec["iteration"]]
            assert row["direction"] == rec["direction"]
            assert float(row["cosine"]) == rec["cosine"]

        meta = json.loads((out / "run_manifest.json").read_text())
        assert set(meta["inputs"]) == {"data", "data_csv", "config"}
        for role, path in (("data", data), ("data_csv", data.parent / "events.csv"), ("config", cfg)):
            assert meta["inputs"][role] == {
                "path": os.path.abspath(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()
            }
        assert meta["thread_env"] == thread_env()
        assert meta["numeric_env"] == numeric_env()

    def test_exponential_link_fit_converges(self, tmp_path):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(
            tmp_path,
            link={"kind": "exp", "d": np.log(0.5)},
            max_iter=100,
        )
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 0
        result = json.loads((out / "fit_result.json").read_text())
        assert result["link"]["kind"] == "exp"
        assert result["converged"] is True

    def test_the_fitter_owns_the_stopping_defaults(self, tmp_path, monkeypatch):
        # a config with neither tol nor max_iter passes neither, and
        # fit_result.json records the tolerance the fitter used, its
        # default; one that sets both passes both, and records its tol
        import inspect

        data = make_dataset(tmp_path, DENSE_TIMES)
        seen, real = [], optimizer.fit_descent

        def spy(kernel, obj, **kwargs):
            seen.append(kwargs)
            return real(kernel, obj, **kwargs)

        monkeypatch.setattr(optimizer, "fit_descent", spy)
        cfg = {"link": {"kind": "exp", "d": np.log(0.5)}, "penalty_weight": 5.0}
        write_json(tmp_path / "fit.json", cfg)
        assert run("fit", "--data", data, "--config", tmp_path / "fit.json", "--out", tmp_path / "a") == 0
        result = json.loads((tmp_path / "a" / "fit_result.json").read_text())
        assert seen == [{}]
        assert result["tol"] == inspect.signature(real).parameters["tol"].default
        write_json(tmp_path / "fit.json", {**cfg, "tol": 1e-8, "max_iter": 50})
        assert run("fit", "--data", data, "--config", tmp_path / "fit.json", "--out", tmp_path / "b") == 0
        result = json.loads((tmp_path / "b" / "fit_result.json").read_text())
        assert seen[1] == {"tol": 1e-8, "max_iter": 50} and result["tol"] == 1e-8

    def test_nonconvergence_exits_4_but_still_writes_outputs(self, tmp_path):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, penalty_weight=1.0, max_iter=1)
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 4
        result = json.loads((out / "fit_result.json").read_text())
        assert result["converged"] is False
        assert result["status"] in ("max_iter", "stalled")
        FilterFunction.from_dict(json.loads((out / "filter.json").read_text()))
        assert (out / "trace.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_solver_error_in_the_fit_exits_4_names_the_weight_and_writes_nothing(self, tmp_path, capsys):
        # the fit grows an event predictor that no quadrature node sees,
        # until the event intensity overflows and the next Newton system is
        # not finite; the fit raises at penalty weight 1, not 0
        write_json(tmp_path / "dataset.json", {
            "horizon": 10.0, "target_channel": "y", "driver_channels": ["z"], "self_exciting": True,
            "csv": "events.csv",
        })
        rows = ["time,channel,mark", "1.0,z,2.0", "2.0,y,", "3.0,y,", "3.0,z,0.5", "7.5,y,"]
        (tmp_path / "events.csv").write_text("\n".join(rows) + "\n")
        cfg = write_json(tmp_path / "fit.json", {"link": {"kind": "exp", "d": -0.5}, "penalty_weight": 1.0, "m": 2})
        out = tmp_path / "out"
        assert run("fit", "--data", tmp_path / "dataset.json", "--config", cfg, "--out", out) == 4
        assert not (out / "filter.json").exists()
        err = capsys.readouterr().err
        assert "non-finite values in the Newton system at penalty weight 1.0" in err
        assert "zero penalty" not in err and "without a penalty" not in err

    def test_infeasible_model_exits_5(self, tmp_path):
        # zero baseline and no history before the first event: the intensity
        # vanishes at an observed point, which no filter can repair
        data = make_dataset(tmp_path, [1.0, 2.0], horizon=4.0)
        cfg = fit_config(tmp_path, link={"kind": "linear", "d": 0.0})
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 5

    @pytest.mark.filterwarnings("error")
    def test_a_one_event_linear_fit_writes_nothing_to_stderr(self, tmp_path, capsys):
        # the coordinate of the one event's history atom has a zero Hessian
        # diagonal and a nonzero right-hand side in a Newton solve; its
        # ridge step used to overflow, and NumPy warned on stderr
        data = make_dataset(tmp_path, [3.0], horizon=10.0)
        cfg = write_json(
            tmp_path / "fit.json", {"link": {"kind": "linear", "d": 0.5}, "penalty_weight": 5.0, "m": 1}
        )
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    def test_bad_line_search_constants_exit_2(self, tmp_path, capsys):
        # the line search constants are the method's, not a config key
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, line_search={"c1": 0.5, "c2": 0.1})
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 2
        assert "unknown fit config keys ['line_search']" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["linear", "exponential"])
    def test_zero_tolerance_exits_2(self, tmp_path, kind):
        # one argument check for both fitters: a tolerance of 0 cannot be met
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, link={"kind": kind, "d": 0.5}, tol=0)
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, penalty=1.0)
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 2

    def test_unsorted_event_times_exit_3(self, tmp_path):
        data = make_dataset(tmp_path, [3.0, 1.0], horizon=4.0)
        cfg = fit_config(tmp_path)
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 3

    def test_missing_data_file_exits_2(self, tmp_path):
        cfg = fit_config(tmp_path)
        missing = tmp_path / "nope.json"
        assert run("fit", "--data", missing, "--config", cfg, "--out", tmp_path / "o") == 2

    def test_quadrature_key_sets_the_nodes_per_interval(self, tmp_path):
        raw, link = LINKS[1]
        data = make_dataset(tmp_path, DENSE_TIMES)
        quad = {"nodes_per_interval": 16}
        cfg = fit_config(tmp_path, link=raw, max_iter=100, quadrature=quad)
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 0
        result = json.loads((out / "fit_result.json").read_text())
        want = library_fit(data, link, QuadratureConfig(16))[0].objective
        assert result["objective"] == want != library_fit(data, link)[0].objective

    @pytest.mark.parametrize("quad", [{"nodes_per_interval": 1}, {}])
    def test_bad_quadrature_exits_2(self, tmp_path, quad):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, link=LINKS[1][0], quadrature=quad)
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 2


def library_fit(data, link, quadrature=None):
    """The fit ``fit`` runs on ``data`` under ``fit_config(link=link,
    max_iter=100)``, with this quadrature, through the library."""
    manifest = load_manifest(data)
    events, drivers = load_events(data.parent / "events.csv", manifest)
    obj = Objective(link, 5.0, events, drivers, quadrature=quadrature)
    kernel = SobolevKernel(m=1, horizon=events.horizon)
    if link.kind == "linear":
        res = fit_linear(kernel, obj, tol=1e-6, max_iter=100)
    else:
        res = fit_descent(kernel, obj, tol=1e-6, max_iter=100)
    return res, obj, kernel


LINKS = [
    ({"kind": "linear", "d": 0.5}, linear_link(0.5)),
    ({"kind": "exp", "d": float(np.log(0.5))}, exponential_link(float(np.log(0.5)))),
]


class TestFilterFile:
    """``filter.json`` holds the normal form of the fit: the same function in
    at most 1 + m atoms per channel, whatever the size of the dictionary."""

    @staticmethod
    def fit(tmp_path, raw, link):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, link=raw, max_iter=100)
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 0
        res, obj, kernel = library_fit(data, link)
        return out, res, obj, kernel

    @pytest.fixture(params=LINKS, ids=["linear", "exp"])
    def fitted(self, request, tmp_path):
        return self.fit(tmp_path, *request.param)

    def test_holds_the_normal_form(self, fitted):
        out, res, _, _ = fitted
        payload = json.loads((out / "filter.json").read_text())
        assert payload["n_channels"] == 1
        assert 1 <= len(payload["atoms"]) <= 2
        assert len(res.g_hat.atoms) > len(payload["atoms"])
        result = json.loads((out / "fit_result.json").read_text())
        assert result["diagnostics"]["n_atoms"] == len(res.g_hat.atoms)

    def test_reloads_as_the_same_function(self, fitted):
        out, res, obj, _ = fitted
        g = FilterFunction.from_dict(json.loads((out / "filter.json").read_text()))
        u = np.linspace(0.0, obj.horizon, 2001)
        assert np.array_equal(g.evaluate(0, u), res.g_hat.evaluate(0, u))
        gaps = time_rescale(g, obj.link, obj.events, obj.drivers)
        expected = time_rescale(res.g_hat, obj.link, obj.events, obj.drivers)
        assert np.array_equal(gaps, expected)


class TestIntensityCommand:
    def test_zero_filter_gives_constant_baseline_column(self, tmp_path):
        data = make_dataset(tmp_path, [1.0, 2.5, 6.0])
        cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=8.0, link={"kind": "linear", "d": 0.7}),
        )
        out = tmp_path / "out"
        rc = run("intensity", "--data", data, "--config", cfg, "--grid", 64, "--out", out)
        assert rc == 0
        lines = (out / "intensity.csv").read_text().strip().split("\n")
        assert lines[0] == "s,lambda"
        s = np.array([float(row.split(",")[0]) for row in lines[1:]])
        lam = np.array([float(row.split(",")[1]) for row in lines[1:]])
        np.testing.assert_allclose(lam, 0.7)
        # the event times are spliced into the evaluation grid
        for t in (1.0, 2.5, 6.0):
            assert np.min(np.abs(s - t)) == 0.0

    def test_wrapper_config_with_at_risk_window(self, tmp_path):
        data = make_dataset(tmp_path, [1.0, 2.5], horizon=8.0)
        (tmp_path / "g.json").write_text(
            FilterFunction(SobolevKernel(m=1, horizon=8.0), 1, (), np.empty(0)).to_json()
        )
        cfg = write_json(
            tmp_path / "wrap.json",
            {
                "filter": "g.json",
                "link": {"kind": "linear", "d": 1.0},
                "at_risk": {"breakpoints": [4.0], "values": [1.0, 0.0]},
            },
        )
        out = tmp_path / "out"
        assert run("intensity", "--data", data, "--config", cfg, "--out", out) == 0
        lines = (out / "intensity.csv").read_text().strip().split("\n")[1:]
        s = np.array([float(row.split(",")[0]) for row in lines])
        lam = np.array([float(row.split(",")[1]) for row in lines])
        np.testing.assert_allclose(lam[s <= 4.0], 1.0)
        np.testing.assert_allclose(lam[s > 4.0], 0.0)

    def test_manifest_may_name_an_absolute_csv(self, tmp_path):
        data = make_dataset(tmp_path, [1.0, 2.5, 6.0])
        (tmp_path / "elsewhere").mkdir()
        csv_path = (tmp_path / "events.csv").rename(tmp_path / "elsewhere" / "events.csv")
        write_json(data, {**json.loads(data.read_text()), "csv": str(csv_path)})
        cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=8.0, link={"kind": "linear", "d": 0.7}),
        )
        out = tmp_path / "out"
        assert run("intensity", "--data", data, "--config", cfg, "--grid", 0, "--out", out) == 0
        lines = (out / "intensity.csv").read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[0]) for row in lines] == [1.0, 2.5, 6.0]

    def test_filter_without_link_exits_2(self, tmp_path):
        data = make_dataset(tmp_path, [1.0])
        cfg = write_json(tmp_path / "g.json", zero_filter_payload(horizon=8.0))
        assert run("intensity", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 2


def _ks_gaps() -> dict:
    """Rescaled gap sets for the KS record, with ties, negative gaps and a
    gap of 1e-300."""
    rng = np.random.default_rng(23)
    n20 = rng.exponential(size=20)
    n20[5] = n20[11]
    n20[0] = -0.25
    n65 = rng.exponential(1.3, size=65)
    n65[10:13] = n65[40]
    n65[2], n65[3] = 1e-300, -1e-3
    return {
        "n1": np.array([0.7]),
        "n1-negative": np.array([-0.3]),
        "n20-tie-negative": n20,
        "n65-ties-tiny-negative": n65,
    }


KS_GAPS = _ks_gaps()


class TestGofCommand:
    def test_true_model_passes_ks_on_homogeneous_data(self, tmp_path):
        sim_cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 1.0},
                "filters": zero_filter_payload(horizon=200.0),
                "horizon": 200.0,
            },
        )
        sim_out = tmp_path / "sim"
        assert run("simulate", "--config", sim_cfg, "--seed", 7, "--out", sim_out) == 0

        gof_cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=200.0, link={"kind": "linear", "d": 1.0}),
        )
        out = tmp_path / "gof"
        rc = run("gof", "--data", sim_out / "dataset.json", "--config", gof_cfg, "--out", out)
        assert rc == 0
        ks = json.loads((out / "ks.json").read_text())
        assert ks["undefined"] is False
        assert ks["p_value"] > 0.01

        gaps = (out / "gaps.csv").read_text().strip().split("\n")[1:]
        assert len(gaps) == ks["n"]
        manifest = load_manifest(sim_out / "dataset.json")
        events, _ = load_events(sim_out / "events.csv", manifest)
        assert ks["n"] == len(events)

    @pytest.mark.parametrize("gaps", KS_GAPS.values(), ids=KS_GAPS.keys())
    def test_ks_record_is_kstest_bit_for_bit(self, tmp_path, monkeypatch, gaps):
        monkeypatch.setattr(simulator, "time_rescale", lambda *args, **kwargs: gaps)
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=8.0, link={"kind": "linear", "d": 0.5}),
        )
        out = tmp_path / "out"
        assert run("gof", "--data", data, "--config", cfg, "--out", out) == 0
        ks = json.loads((out / "ks.json").read_text())
        ref = kstest(gaps, "expon")
        assert ks["n"] == gaps.size and ks["undefined"] is False
        assert same_bits(ks["statistic"], float(ref.statistic))
        assert same_bits(ks["p_value"], float(ref.pvalue))

    def test_empty_dataset_reports_undefined(self, tmp_path):
        data = make_dataset(tmp_path, [], horizon=5.0)
        cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=5.0, link={"kind": "linear", "d": 0.3}),
        )
        out = tmp_path / "out"
        assert run("gof", "--data", data, "--config", cfg, "--out", out) == 0
        ks = json.loads((out / "ks.json").read_text())
        assert ks == {"n": 0, "statistic": None, "p_value": None, "undefined": True}


class TestBasisCommand:
    def test_dump_is_dimensionally_consistent(self, tmp_path):
        times = [1.0, 2.5, 4.0, 6.0]
        data = make_dataset(tmp_path, times)
        cfg = fit_config(tmp_path, m=2)
        out = tmp_path / "out"
        assert run("basis", "--data", data, "--config", cfg, "--out", out) == 0

        basis = json.loads((out / "basis.json").read_text())
        dim = len(basis["atoms"])
        assert basis["kernel"] == {"m": 2, "horizon": 8.0}
        assert basis["n_channels"] == 1
        assert basis["slices"]["h0"] == [0, 2]
        assert basis["slices"]["f"][1] == dim
        assert len(basis["gram"]) == dim and len(basis["gram"][0]) == dim
        assert len(basis["gram_penalty"]) == dim
        # no zero-atom mask: the basis leaves out every atom that is zero
        assert "zero_mask" not in basis
        assert len(basis["compensator"]) == dim
        assert len(basis["design"]) == len(times)
        assert all(len(row) == dim for row in basis["design"])
        assert all("kind" in atom for atom in basis["atoms"])

    @pytest.mark.parametrize("raw,link", LINKS, ids=["linear", "exp"])
    def test_dump_values_match_the_library(self, tmp_path, raw, link):
        # the representer atoms in order, each atom's predictor at the
        # events and exact compensator, and the Grams of the oracle; the
        # exponential link writes the same compensator row as the linear one
        times = [1.0, 2.5, 4.0, 6.0]
        data = make_dataset(tmp_path, times)
        cfg = fit_config(tmp_path, m=2, link=raw)
        out = tmp_path / "out"
        assert run("basis", "--data", data, "--config", cfg, "--out", out) == 0
        basis = json.loads((out / "basis.json").read_text())

        manifest = load_manifest(data)
        events, drivers = load_events(data.parent / "events.csv", manifest)
        obj = Objective(link, 5.0, events, drivers)
        k = SobolevKernel(m=2, horizon=8.0)
        poly = [h0_poly(k, 0, i) for i in (1, 2)]
        h_atoms = [a for a in build_h_atoms(k, obj) if not a.is_zero]
        atoms = poly + h_atoms + build_f_atoms(k, obj)
        assert basis["atoms"] == [a.to_dict() for a in atoms]
        assert basis["slices"] == {
            "h0": [0, 2], "h": [2, 2 + len(h_atoms)], "f": [2 + len(h_atoms), len(atoms)]
        }
        design = np.column_stack([obj.event_column(k, a) for a in atoms])
        assert same_bits(np.array(basis["design"]), design)
        comp = np.array([exact_compensator(k, obj, a) for a in atoms])
        assert same_bits(obj.comp_row(k, atoms), comp)
        assert same_bits(np.array(basis["compensator"]), comp)
        assert np.any(comp != 0.0)
        # the first event has no history, so it has no atom, and no atom is zero
        assert len(h_atoms) == len(times) - 1
        assert not any(a.is_zero for a in atoms)
        for key, oracle in (("gram", full_gram), ("gram_penalty", h1_gram)):
            G = np.array(basis[key])
            assert np.array_equal(G, G.T)
            np.testing.assert_allclose(G, oracle(atoms), rtol=1e-12, atol=0.0)


def set_key(path, value):
    """A change to a JSON object that sets the key at ``path`` (dotted)."""

    def change(obj):
        *head, last = path.split(".")
        inner = obj
        for key in head:
            inner = inner[key]
        inner[last] = value
        return obj

    return change


def b64(values) -> str:
    """A filter array as base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def section_atom(lags, weights) -> list:
    """The atom list of a filter payload holding one section entry."""
    sections = {"lags": lags, "weights": weights}
    return [{"channel": 0, "kind": "section", "part": "r1", "sections": sections,
             "coefficient": 1.0}]


# (input, change, exit code): configs and manifests exit 2 (ConfigError),
# filter payloads 3 (DataError)
MALFORMED = {
    "quadrature-empty": ("fit", set_key("quadrature", {}), 2),
    # line_search is an unknown key whatever its value
    "line_search-int": ("fit", set_key("line_search", 3), 2),
    "line_search-c1-str": ("fit", set_key("line_search", {"c1": "a"}), 2),
    "penalty_weight-str": ("fit", set_key("penalty_weight", "x"), 2),
    "m-str": ("fit", set_key("m", "x"), 2),
    "m-fraction": ("fit", set_key("m", 1.7), 2),
    "max_iter-str": ("fit", set_key("max_iter", "x"), 2),
    # max_atoms is an unknown key: max_iter bounds the dictionary
    "max_atoms-int": ("fit", set_key("max_atoms", 200), 2),
    "link-d-str": ("fit", set_key("link.d", "x"), 2),
    "at_risk-values-str": ("fit", set_key("at_risk", {"breakpoints": [], "values": "x"}), 2),
    "manifest-horizon-str": ("manifest", set_key("horizon", "x"), 2),
    "manifest-list": ("manifest", lambda raw: [raw], 2),
    "manifest-drivers-int": ("manifest", set_key("driver_channels", 5), 2),
    "simulate-horizon-str": ("simulate", set_key("horizon", "x"), 2),
    "simulate-max_events-str": ("simulate", set_key("max_events", "x"), 2),
    "filter-atom-no-channel": ("simulate", set_key("filters.atoms", [{"kind": "h0"}]), 3),
    "filter-kernel-m-str": ("simulate", set_key("filters.kernel.m", "x"), 3),
    # without validation the decoder would drop the "!" and read 1.0
    "filter-lags-not-base64": (
        "simulate", set_key("filters.atoms", section_atom("AAAA!AAAA8D8=", b64([1.0]))), 3
    ),
    "filter-lags-ragged-bytes": (
        "simulate",
        set_key("filters.atoms", section_atom(base64.b64encode(bytes(12)).decode(), b64([1.0]))),
        3,
    ),
    "filter-lengths-differ": (
        "simulate", set_key("filters.atoms", section_atom([1.0, 2.0], [1.0])), 3
    ),
    "filter-lag-nan": (
        "simulate", set_key("filters.atoms", section_atom(b64([np.nan]), b64([1.0]))), 3
    ),
    "filter-kind-bogus": (
        "simulate", set_key("filters.atoms", [dict(section_atom([1.0], [0.5])[0], kind="bogus")]), 3
    ),
    **{
        f"{target}-self_exciting-{name}": (target, set_key("self_exciting", value), 2)
        for target in ("manifest", "simulate")
        for name, value in (("str", "false"), ("int", 0), ("null", None))
    },
    # a number spelled as a string is no number: float("1_0") is 10
    **{
        f"{target}-{key}-numeric-str": (target, set_key(key, value), 2)
        for target, key, value in (
            ("fit", "link.d", "0.5"),
            ("fit", "penalty_weight", "1_0"),
            ("fit", "m", "1"),
            ("fit", "tol", " 1e-6 "),
            ("fit", "max_iter", "10"),
            ("manifest", "horizon", "10"),
            ("simulate", "horizon", "12"),
        )
    },
    "filter-channel-numeric-str": (
        "simulate", set_key("filters.atoms", [dict(section_atom([1.0], [0.5])[0], channel="0")]), 3
    ),
    # nor is an array element spelled as a string or a bool: np.asarray reads
    # "1" and true as 1.0
    "at_risk-value-numeric-str": ("fit", set_key("at_risk", {"breakpoints": [5.0], "values": ["1", 0.5]}), 2),
    "at_risk-breakpoint-bool": ("fit", set_key("at_risk", {"breakpoints": [True], "values": [1.0, 0.5]}), 2),
    "filter-lag-numeric-str": ("simulate", set_key("filters.atoms", section_atom(["1.0"], [0.5])), 3),
    "filter-weight-bool": ("simulate", set_key("filters.atoms", section_atom([1.0], [True])), 3),
    # basis reads the fit config's stopping rule as fit does
    **{
        f"basis-{key}-{name}": ("basis", set_key(key, value), 2)
        for key, name, value in (
            ("max_iter", "str", "x"),
            ("max_iter", "fraction", 2.5),
            ("max_iter", "numeric-str", "10"),
            ("tol", "str", "x"),
            # and its range: a rule that fit refuses is refused here too
            ("tol", "negative", -1.0),
            ("tol", "zero", 0.0),
            ("tol", "inf", float("inf")),
            ("max_iter", "zero", 0),
        )
    },
}


class TestFloatTables:
    @staticmethod
    def csv_writer_bytes(path, header, rows) -> bytes:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    def test_bytes_equal_the_csv_writer(self, tmp_path, n_rows):
        # fit's filter grids, gof's gaps and intensity's table are written
        # as one join of float reprs, with the bytes csv.writer gives
        values = np.array([0.1, -0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf])
        cols = (values[:n_rows], np.linspace(0.0, 1.0, 7)[:n_rows] / 3.0)
        for header, columns in ((["gap"], cols[:1]), (["lag", "value"], cols)):
            cli._write_float_csv(tmp_path / "join.csv", header, *columns)
            rows = ([repr(float(v)) for v in row] for row in zip(*columns))
            want = self.csv_writer_bytes(tmp_path / "writer.csv", header, rows)
            assert (tmp_path / "join.csv").read_bytes() == want
            assert want.endswith(b"\r\n") and want.count(b"\r\n") == n_rows + 1

    def test_the_trace_bytes_equal_the_csv_writer(self, tmp_path):
        # trace.csv's cells are numbers, words and empty cells for None,
        # none of which csv.writer quotes
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path, link={"kind": "exponential", "d": -0.5}, m=2)
        out = tmp_path / "out"
        assert run("fit", "--data", data, "--config", cfg, "--out", out) == 0
        with open(out / "trace.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert any("" in row for row in rows) and any("damped_newton" in row for row in rows)
        want = self.csv_writer_bytes(tmp_path / "writer.csv", header, rows)
        assert (out / "trace.csv").read_bytes() == want


def changed_input_argv(dirpath, target: str, change) -> list:
    """The command line of a fit, a basis dump or a simulation whose
    ``target`` input (a fit config for fit and basis, the dataset manifest
    of a fit, or a simulate config) has had ``change`` made to it."""
    data = make_dataset(dirpath, DENSE_TIMES)
    if target == "simulate":
        sim = {
            "link": {"kind": "linear", "d": 0.7},
            "filters": zero_filter_payload(),
            "horizon": 12.0,
        }
        return ["simulate", "--config", write_json(dirpath / "sim.json", change(sim))]
    cfg = {"link": {"kind": "linear", "d": 0.5}, "penalty_weight": 5.0, "m": 1}
    if target == "manifest":
        write_json(data, change(json.loads(data.read_text())))
    else:
        cfg = change(cfg)
    command = "basis" if target == "basis" else "fit"
    return [command, "--data", data, "--config", write_json(dirpath / "fit.json", cfg)]


class TestMalformedInput:
    @pytest.mark.parametrize("target, change, code", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_with_its_code(self, tmp_path, target, change, code):
        # a malformed value is an input error with its exit code, never a
        # traceback, and never read as another value (m = 1.7 as m = 1)
        argv = changed_input_argv(tmp_path, target, change)
        assert run(*argv, "--out", tmp_path / "o") == code


# (input, key, a size too large, the smallest refused value): each of these
# sizes once ended in a traceback, the kernel order from the allocation of
# its polynomial atoms and the node count from the Gauss-Legendre rule
HUGE_SIZES = {
    f"{target}-{key}-{name}": (target, key, value, small)
    for target, key, small in (
        ("fit", "m", 0),
        ("basis", "m", 0),
        ("simulate", "filters.kernel.m", 0),
    )
    for name, value in (("1e308", 1e308), ("10**30", 10**30))
} | {
    f"{target}-nodes_per_interval-10**30": (
        target, "quadrature", {"nodes_per_interval": 10**30}, {"nodes_per_interval": 1}
    )
    for target in ("fit", "basis")
}


class TestHugeSizes:
    @pytest.mark.parametrize("target, key, value, small", HUGE_SIZES.values(), ids=HUGE_SIZES.keys())
    def test_exits_as_the_smallest_refused_value_does_and_writes_nothing(
        self, tmp_path, capsys, target, key, value, small
    ):
        # a bound refuses the size where it is read: a config key exits 2,
        # a filter payload's kernel order 3, as m = 0 and 1 node do there
        code = 3 if target == "simulate" else 2
        for name, raw in (("huge", value), ("small", small)):
            (tmp_path / name).mkdir()
            argv = changed_input_argv(tmp_path / name, target, set_key(key, raw))
            out = tmp_path / name / "out"
            assert run(*argv, "--out", out) == code
            assert list(out.iterdir()) == []
            assert "must be an integer in" in capsys.readouterr().err


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["fit", "gof", "intensity", "simulate"])
    def test_missing_dataset_csv_exits_3(self, tmp_path, capsys, command):
        # the manifest reads, but the CSV it names is gone; simulate reads
        # it as its driver dataset
        data = make_dataset(tmp_path, DENSE_TIMES)
        (tmp_path / "events.csv").unlink()
        if command == "fit":
            argv = ["--data", data, "--config", fit_config(tmp_path)]
        elif command == "simulate":
            sim = {
                "link": {"kind": "linear", "d": 0.5},
                "filters": zero_filter_payload(horizon=8.0),
                "horizon": 8.0,
                "drivers": "dataset.json",
            }
            argv = ["--config", write_json(tmp_path / "sim.json", sim)]
        else:
            g = zero_filter_payload(horizon=8.0, link={"kind": "linear", "d": 0.5})
            argv = ["--data", data, "--config", write_json(tmp_path / "g.json", g)]
        assert run(command, *argv, "--out", tmp_path / "o") == 3
        assert "events.csv" in capsys.readouterr().err

    def test_missing_filter_file_exits_3(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "sim.json",
            {"link": {"kind": "linear", "d": 0.5}, "filters": "gone.json", "horizon": 8.0},
        )
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 3
        assert "gone.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "place, value",
        [
            (("atoms", 0, "channel"), 1),
            (("atoms", 1, "k"), 2),
            (("atoms", 0, "part"), "x"),
            (("kernel", "m"), 0),
            (("n_channels",), 0),
            (("atoms", 0, "coefficient"), float("nan")),
        ],
        ids=["atom-channel", "k-above-m", "part-x", "m-zero", "n_channels-zero", "coefficient-nan"],
    )
    def test_out_of_range_filter_file_exits_3(self, tmp_path, capsys, place, value):
        # a well-typed filter field out of range is bad data, as a mistyped
        # one is, not a bad configuration
        data = make_dataset(tmp_path, [0.5, 1.0, 2.0], horizon=3.0)
        k = SobolevKernel(m=1, horizon=3.0)
        atoms = (kernel_section(k, 0, 1.0), h0_poly(k, 0, 1))
        payload = dict(FilterFunction(k, 1, atoms, np.array([0.5, 0.25])).to_dict())
        payload["link"] = {"kind": "linear", "d": 0.5}
        inner = payload
        for key in place[:-1]:
            inner = inner[key]
        inner[place[-1]] = value
        cfg = write_json(tmp_path / "g.json", payload)
        assert run("gof", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 3
        assert "invalid filter payload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row", ["2.0,target", "2.0,target,1.0,1.0", "9.0,z,1.0"],
        ids=["short-row", "long-row", "driver-after-horizon"],
    )
    def test_bad_csv_row_exits_3(self, tmp_path, capsys, row):
        # a row with the wrong field count, or a driver jump past the
        # horizon, is bad data
        data = make_dataset(tmp_path, [1.0], horizon=8.0)
        write_json(data, dict(json.loads(data.read_text()), driver_channels=["z"]))
        (tmp_path / "events.csv").write_text(f"time,channel,mark\n1.0,target,1.0\n{row}\n")
        cfg = fit_config(tmp_path)
        assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / "o") == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gof", "intensity"])
    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"], ids=["missing", "bad-json", "not-object"])
    def test_wrapper_naming_an_unreadable_filter_exits_3(self, tmp_path, capsys, command, text):
        # a filter file the wrapper names is data, as simulate's "filters"
        # file is: one that cannot be read exits 3, not 2
        data = make_dataset(tmp_path, DENSE_TIMES)
        if text is not None:
            (tmp_path / "gone.json").write_text(text)
        wrap = write_json(
            tmp_path / "wrap.json", {"filter": "gone.json", "link": {"kind": "linear", "d": 0.5}}
        )
        assert run(command, "--data", data, "--config", wrap, "--out", tmp_path / "o") == 3
        assert "gone.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, code",
        [("config", 2), ("dataset-manifest", 2), ("dataset-csv", 3), ("wrapper-filter", 3), ("simulate-filter", 3)],
    )
    def test_input_that_is_not_utf8_exits_with_its_readers_code(self, tmp_path, capsys, kind, code):
        # a byte that no UTF-8 text holds is the reader's typed error, "cannot
        # read ...", with its exit code: 2 for a config or dataset manifest,
        # 3 for a dataset CSV or a filter file that a config names
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path)
        g = write_json(tmp_path / "g.json", zero_filter_payload(horizon=8.0))
        argv = ["fit", "--data", data, "--config", cfg]
        if kind == "wrapper-filter":
            wrap = {"filter": "g.json", "link": {"kind": "linear", "d": 0.5}}
            argv = ["gof", "--data", data, "--config", write_json(tmp_path / "wrap.json", wrap)]
        elif kind == "simulate-filter":
            sim = {"link": {"kind": "linear", "d": 0.5}, "filters": "g.json", "horizon": 8.0}
            argv = ["simulate", "--config", write_json(tmp_path / "sim.json", sim)]
        bad, word = {
            "config": (cfg, b"linear"), "dataset-manifest": (data, b"target"),
            "dataset-csv": (tmp_path / "events.csv", b"target"),
        }.get(kind, (g, b"glppm.filter.v1"))
        bad.write_bytes(bad.read_bytes().replace(word, word[:1] + b"\xff", 1))
        assert run(*argv, "--out", tmp_path / "o") == code
        err = capsys.readouterr().err
        assert f"cannot read" in err and str(bad) in err and "0xff" in err
        assert not (tmp_path / "o" / "run_manifest.json").exists()


# while ``opened_paths`` is open, the list that the audit hook appends to
_OPENED: list | None = None
_HOOKED = False


def _audit(event, args):
    if event == "open" and _OPENED is not None and isinstance(args[0], (str, os.PathLike)):
        _OPENED.append(os.path.abspath(args[0]))


@contextlib.contextmanager
def opened_paths():
    """The absolute path of every file that the block opens, from the "open"
    audit events.  An audit hook cannot be removed, so it is added on first
    use and records nothing outside this block."""
    global _OPENED, _HOOKED
    if not _HOOKED:
        sys.addaudithook(_audit)
        _HOOKED = True
    _OPENED = []
    try:
        yield _OPENED
    finally:
        _OPENED = None


class TestRunManifestInputs:
    """``run_manifest.json`` names every file that a command read, by its
    absolute path as given and the sha256 of the bytes read; each input is
    opened once, each output once, and no path is resolved."""

    @staticmethod
    def commands(tmp_path, monkeypatch):
        """(argv, {role: path}) of a fit, ``gof`` of its ``filter.json``,
        ``gof`` and ``intensity`` through a wrapper that names a filter
        file, ``basis``, and a ``simulate`` whose filters and drivers are
        paths; the fit names its files by relative paths, its config
        through a symbolic link, which the manifest does not resolve."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        data = make_dataset(tmp_path / "d", DENSE_TIMES)
        dataset = {"data": data, "data_csv": tmp_path / "d" / "events.csv"}
        cfg = fit_config(tmp_path)
        (tmp_path / "link.json").symlink_to(cfg)
        g = write_json(tmp_path / "g.json", zero_filter_payload(horizon=8.0))
        wrap = write_json(tmp_path / "wrap.json", {"filter": "g.json", "link": {"kind": "linear", "d": 0.5}})
        sim = write_json(tmp_path / "sim.json", {
            "link": {"kind": "linear", "d": 0.5}, "filters": "g.json", "horizon": 8.0,
            "drivers": "d/dataset.json", "self_exciting": False, "target_name": "y",
        })
        fitted = tmp_path / "fit" / "filter.json"
        return [
            (["fit", "--data", "d/dataset.json", "--config", "link.json", "--out", "fit"],
             {"config": tmp_path / "link.json", **dataset}),
            (["gof", "--data", data, "--config", fitted, "--out", tmp_path / "gof"], {"config": fitted, **dataset}),
            (["gof", "--data", data, "--config", wrap, "--out", tmp_path / "gof-wrap"],
             {"config": wrap, "filter": g, **dataset}),
            (["intensity", "--data", data, "--config", wrap, "--out", tmp_path / "intensity"],
             {"config": wrap, "filter": g, **dataset}),
            (["basis", "--data", data, "--config", cfg, "--out", tmp_path / "basis"], {"config": cfg, **dataset}),
            (["simulate", "--config", sim, "--seed", 1, "--out", tmp_path / "sim"],
             {"config": sim, "filter": g, "drivers": data, "drivers_csv": dataset["data_csv"]}),
        ]

    def test_inputs_are_every_file_read_by_path_and_hash(self, tmp_path, monkeypatch):
        for argv, roles in self.commands(tmp_path, monkeypatch):
            assert run(*argv) == 0, argv
            out = Path(argv[argv.index("--out") + 1])
            meta = json.loads((out / "run_manifest.json").read_text())
            assert meta["inputs"] == {
                role: {"path": str(tmp_path / path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                for role, path in roles.items()
            }, argv
            assert meta["output_dir"] == str(tmp_path / out)
        assert (tmp_path / "link.json").is_symlink()

    def test_a_changed_event_byte_changes_the_csv_hash(self, tmp_path):
        data = make_dataset(tmp_path, DENSE_TIMES)
        cfg = fit_config(tmp_path)
        csv_path = tmp_path / "events.csv"
        metas, results = [], []
        for out in ("a", "b"):
            if out == "b":  # the last event moves from 7.5 to 7.4: one byte
                text = csv_path.read_bytes()
                csv_path.write_bytes(text.replace(b"7.5,target", b"7.4,target"))
                assert sum(x != y for x, y in zip(text, csv_path.read_bytes())) == 1
            assert run("fit", "--data", data, "--config", cfg, "--out", tmp_path / out) == 0
            metas.append(json.loads((tmp_path / out / "run_manifest.json").read_text())["inputs"])
            results.append(json.loads((tmp_path / out / "fit_result.json").read_text()))
        a, b = metas
        assert a["data"] == b["data"] and a["config"] == b["config"]
        assert a["data_csv"]["sha256"] != b["data_csv"]["sha256"]
        assert b["data_csv"]["sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert results[0]["objective"] != results[1]["objective"]

    def test_each_file_is_opened_once_and_no_path_resolved(self, tmp_path, monkeypatch):
        resolved = []
        real_resolve, real_realpath = Path.resolve, os.path.realpath
        monkeypatch.setattr(Path, "resolve", lambda self, *a, **k: resolved.append(self) or real_resolve(self, *a, **k))
        monkeypatch.setattr(os.path, "realpath", lambda p, *a, **k: resolved.append(p) or real_realpath(p, *a, **k))
        opens = []
        for argv, roles in self.commands(tmp_path, monkeypatch):
            out = tmp_path / argv[argv.index("--out") + 1]
            with opened_paths() as opened:
                assert run(*argv) == 0, argv
            mine = [p for p in opened if p.startswith(str(tmp_path) + os.sep)]
            outputs = sorted(str(p) for p in out.iterdir())
            inputs = sorted(str(tmp_path / p) for p in roles.values())
            # every input once, every output once, and nothing else
            assert sorted(mine) == sorted(inputs + outputs), argv
            opens.append(len(mine))
        assert resolved == []
        # fit: 3 inputs and 5 outputs; gof of filter.json: 3 and 3; through
        # the wrapper: 4 and 3; intensity: 4 and 2; basis: 3 and 2; simulate
        # with its filter and drivers files: 4 and 3
        assert opens == [8, 6, 7, 6, 5, 7]


class TestImports:
    def test_no_command_loads_scipy_stats(self, tmp_path):
        # in real use each command runs in its own process, where importing
        # scipy.stats costs about half a second; gof's KS record comes from
        # glppm.ks, so no command pays it
        data = make_dataset(tmp_path, DENSE_TIMES)
        fit = fit_config(tmp_path, link={"kind": "exp", "d": float(np.log(0.5))})
        sim = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.5},
                "filters": zero_filter_payload(horizon=8.0),
                "horizon": 8.0,
            },
        )
        out = tmp_path / "out"
        commands = [
            ["fit", "--data", data, "--config", fit, "--out", out / "fit"],
            ["simulate", "--config", sim, "--seed", 3, "--out", out / "sim"],
            ["gof", "--data", data, "--config", out / "fit" / "filter.json", "--out", out / "gof"],
            ["intensity", "--data", data, "--config", out / "fit" / "filter.json", "--out", out / "int"],
            ["basis", "--data", data, "--config", fit, "--out", out / "basis"],
        ]
        script = (
            "import json, sys\n"
            "from glppm.cli import main\n"
            "seen = [(main(argv), 'scipy.stats' in sys.modules)"
            " for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(seen))\n"
        )
        src = str(Path(glppm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([[str(a) for a in c] for c in commands])],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
            timeout=300, check=True,
        )
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [[0, False]] * 5


class TestDispatch:
    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_argument_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--data", "x.json")
        assert exc.value.code == 2

    def test_negative_grid_is_usage_error(self, tmp_path):
        data = make_dataset(tmp_path, [1.0])
        cfg = write_json(
            tmp_path / "g.json",
            zero_filter_payload(horizon=8.0, link={"kind": "linear", "d": 0.7}),
        )
        # a count of points is a whole number, too
        for grid in (-5, 1.5):
            with pytest.raises(SystemExit) as exc:
                run("intensity", "--data", data, "--config", cfg, "--grid", grid, "--out", tmp_path / "o")
            assert exc.value.code == 2

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_a_seed_that_is_no_integer_of_0_or_more_is_usage_error(self, tmp_path, capsys, seed):
        # NumPy's default_rng refuses a negative seed; the parser refuses it
        # first, so nothing is simulated or written
        cfg = write_json(
            tmp_path / "sim.json",
            {"link": {"kind": "linear", "d": 0.7}, "filters": zero_filter_payload(), "horizon": 12.0},
        )
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--config", cfg, "--seed", seed, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected an integer of 0 or more" in err and "Traceback" not in err
        assert not (out / "events.csv").exists() and not (out / "dataset.json").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.5},
                "filters": zero_filter_payload(horizon=3.0),
                "horizon": 3.0,
            },
        )
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert run("simulate", "--config", cfg, "--seed", 1, "--out", out) == 2
        assert "output directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_layers_are_reached_through_their_modules(self, tmp_path, monkeypatch):
        # the commands look up each traced layer function on its module at
        # call time, so that a tracer or a test can replace it there; a name
        # bound into the CLI at import would bypass these spies
        seen = []

        def spy(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, names in (
            (data_module, ("load_manifest", "load_events", "save_events")),
            (optimizer, ("fit_descent",)),
            (simulator, ("simulate", "time_rescale")),
        ):
            for name in names:
                spy(module, name)

        sim = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 1.0},
                "filters": zero_filter_payload(horizon=8.0),
                "horizon": 8.0,
            },
        )
        fit = fit_config(tmp_path, link={"kind": "exp", "d": 0.0})
        out = tmp_path / "out"
        stages = [
            ("simulate", "--config", sim, "--seed", 5, "--out", out / "sim"),
            ("fit", "--data", out / "sim" / "dataset.json", "--config", fit, "--out", out / "fit"),
            ("gof", "--data", out / "sim" / "dataset.json",
             "--config", out / "fit" / "filter.json", "--out", out / "gof"),
        ]
        calls = []
        for argv in stages:
            seen.clear()
            assert run(*argv) in (0, 4)
            calls.append(sorted(seen))
        assert calls == [
            ["save_events", "simulate"],
            ["fit_descent", "load_events", "load_manifest"],
            ["load_events", "load_manifest", "time_rescale"],
        ]

    def test_one_parser_serves_a_sequence_of_commands(self, tmp_path, capsys):
        # the parser is built once per process; commands run one after the
        # other on it give the codes, messages and files that each gives on
        # a parser of its own
        data = make_dataset(tmp_path, DENSE_TIMES)
        sim = write_json(
            tmp_path / "sim.json",
            {
                "link": {"kind": "linear", "d": 0.5},
                "filters": zero_filter_payload(horizon=8.0),
                "horizon": 8.0,
            },
        )
        good = fit_config(tmp_path, link={"kind": "exp", "d": np.log(0.5)})
        bad = write_json(tmp_path / "bad.json", {"link": {"kind": "linear"}, "penalty": 1.0})

        def commands(out):
            return [
                ("simulate", "--config", sim, "--seed", 3, "--out", out / "sim"),
                ("fit", "--data", data, "--config", good, "--out", out / "fit"),
                ("gof", "--data", data, "--config", out / "fit" / "filter.json",
                 "--out", out / "gof"),
                ("fit", "--data", data, "--config", bad, "--out", out / "bad"),
                ("fit", "--data", data, "--config", good, "--out", out / "refit"),
            ]

        def outputs(out):
            # run_manifest.json holds the output path and the wall time
            return {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "run_manifest.json"
            }

        cli._build_parser.cache_clear()
        seq = []
        for argv in commands(tmp_path / "seq"):
            seq.append((run(*argv), capsys.readouterr()))
        assert cli._build_parser.cache_info().misses == 1

        fresh = []
        for argv in commands(tmp_path / "fresh"):
            cli._build_parser.cache_clear()
            fresh.append((run(*argv), capsys.readouterr()))

        assert [rc for rc, _ in seq] == [0, 0, 0, 2, 0]
        assert seq == fresh
        files = outputs(tmp_path / "seq")
        assert {p.parts[0] for p in files} == {"sim", "fit", "gof", "refit"}
        assert files == outputs(tmp_path / "fresh")
        assert outputs(tmp_path / "seq" / "fit") == outputs(tmp_path / "seq" / "refit")
