"""The benchmark's tracer finds every glppm attribute it wraps, and counts
thinning candidates where ``simulate`` reads the filter."""

import importlib.util
from pathlib import Path

import numpy as np

import glppm.simulator
from glppm.data import DriverChannel, DriverSeries
from glppm.filters import FilterFunction, h0_poly, kernel_section
from glppm.kernel import SobolevKernel
from glppm.likelihood import linear_link

from oracles import same_bits, thinning_reference


def test_every_traced_hook_resolves():
    # a refactor that drops or renames a traced name fails here, not only
    # in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_candidates_are_counted_at_filter_values():
    # the tracer counts thinning candidates as SimSpec.filter_values calls
    # within simulate: a refactor that routes candidates around it fails
    # here, not only in a traced benchmark run
    def spec():
        k = SobolevKernel(m=1, horizon=60.0)
        atoms = (
            h0_poly(k, 0, 1), kernel_section(k, 0, 1.0), h0_poly(k, 1, 1), kernel_section(k, 1, 1.0),
        )
        g = FilterFunction(k, 2, atoms, np.array([0.8, -0.8, 0.5, -0.5]))
        z = DriverChannel("z", np.array([3.0, 11.0, 12.5, 30.0]), np.array([1.0, 2.0, 0.5, 1.5]))
        return glppm.simulator.SimSpec(
            link=linear_link(0.5), filters=g, horizon=60.0, drivers=DriverSeries(60.0, (z,))
        )

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tracing_spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(tracing_spec)
    tracing_spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        events, _ = glppm.simulator.simulate(spec(), seed=2)
    finally:
        tracer.uninstall()
    want, calls = thinning_reference(spec(), seed=2)
    assert tracer.missing == [] and len(want) > 20
    assert same_bits(events.times, want)
    assert tracer.calls_within("simulator.predictor", "simulator.simulate") == calls
