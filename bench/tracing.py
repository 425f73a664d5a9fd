"""Spans around the calls into each ``glppm`` layer, installed from outside.

The benchmark replaces module and class attributes that callers look up at
call time (``glppm.optimizer.h1_inner_row``, ``glppm.filters._cross_weighted_sum``,
``Objective.node_column``, ...) with timing wrappers, runs a pass, and puts
the originals back.  Nothing in ``glppm`` is edited.  A hook whose
attribute no longer exists is listed in ``Tracer.missing`` and the traced
run reports itself incorrect: its layer metrics would otherwise read 0 and
look like a gain.

Each span is (name, start, end, parent index, dataset id); spans stay in
memory and are written out once, at the end.  A span's self time is its
duration minus the durations of its direct children (one thread, so
children never overlap).  Every ``*_s`` layer metric is a self time, except
``optimizer.s_per_iter``, which divides the whole solve by its iterations.

Which end-to-end metric each layer should move, and where it reads ~0:

* filters.inner_row_*: fits_per_min (dictionary growth through
  ``_Workspace.add``); filters.evaluate_*: sim_events_per_s (the thinning
  predictor) and gof_s (quadrature time rescaling); filters.serialize_s:
  fits_per_min and gof_s (large quadrature atoms in filter.json).
* kernel.cws_*: every stage.
* likelihood.column_* and history_pairs: fits_per_min;
  likelihood.compensator_*: gof_s, from the gof of the simulations under
  the true linear filter only.
* representer.atom_*: fits_per_min (an integral atom per step).
* optimizer.*: fits_per_min; dict_size also peak_rss_mb.
* simulator.*: sim_events_per_s (candidates counts predictor evaluations,
  plus one bound-grid evaluation per channel); time_rescale_s: gof_s.
* data.*, cli.self_s: a small share of every stage.

The linear-link fitter (``fit_linear``, ``representer.assemble`` and its
Grams) runs in no workload, so it is not hooked.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# counters: (counts, args, kwargs, result) -> None, run after the call
def _count_inner_row(c, a, k, out):
    c["inner_row_atoms"] += len(a[1])


def _count_evaluate(c, a, k, out):
    c["evaluate_points"] += _size(a[2])


def _count_cws(c, a, k, out):
    p, q, lags, _, queries = a[:5]
    c["cws_terms"] += (_size(lags) + _size(queries)) * (p + q)


def _count_objective(c, a, k, out):
    obj = a[0]
    pairs = getattr(obj, "_node_pairs", []) + getattr(obj, "_event_pairs", [])
    c["history_pairs"] += sum(_size(p[2]) for p in pairs)


def _count_fit(c, a, k, out):
    c["fits"] += 1
    c["iters"] += out.n_iter
    c["converged"] += bool(out.converged)
    c["dict_size"] += len(out.g_hat.atoms)


def _count_wolfe(c, a, k, out):
    c["ls_trials"] += len(out[3])
    c["ls_steps"] += bool(out[4])


def _count_simulate(c, a, k, out):
    c["events"] += len(out[0])


def _count_load(c, a, k, out):
    events, drivers = out
    manifest = a[1]
    c["rows"] += len(events) + sum(
        len(ch) for ch in drivers.channels if ch.name in manifest.driver_channels
    )


# (module, attribute path, span name, counter).  Several attribute sites may
# share one function object: each is the binding one caller looks up.
HOOKS = [
    ("glppm.cli", "main", "cli.main", None),
    ("glppm.data", "load_manifest", "data.load", None),
    ("glppm.data", "load_events", "data.load", _count_load),
    ("glppm.data", "save_events", "data.save", None),
    ("glppm.optimizer", "h1_inner_row", "filters.inner_row", _count_inner_row),
    ("glppm.optimizer", "full_inner_row", "filters.inner_row", _count_inner_row),
    ("glppm.filters", "FilterFunction.evaluate", "filters.evaluate", _count_evaluate),
    ("glppm.filters", "FilterFunction.to_json", "filters.serialize", None),
    ("glppm.filters", "FilterFunction.from_json", "filters.serialize", None),
    ("glppm.filters", "_cross_weighted_sum", "kernel.cws", _count_cws),
    ("glppm.likelihood", "Objective.__init__", "likelihood.objective", _count_objective),
    ("glppm.likelihood", "Objective.node_column", "likelihood.column", None),
    ("glppm.likelihood", "Objective.event_column", "likelihood.column", None),
    ("glppm.simulator", "compensator", "likelihood.compensator", None),
    ("glppm.optimizer", "build_h_atoms", "representer.atoms", None),
    ("glppm.optimizer", "build_f_atoms", "representer.atoms", None),
    ("glppm.optimizer", "fit_descent", "optimizer.solve", _count_fit),
    ("glppm.optimizer", "_weak_wolfe_search", "optimizer.line_search", _count_wolfe),
    ("glppm.simulator", "simulate", "simulator.simulate", _count_simulate),
    ("glppm.simulator", "SimSpec.filter_values", "simulator.predictor", None),
    ("glppm.simulator", "time_rescale", "simulator.time_rescale", None),
]


class Tracer:
    """Installs the hooks, records spans, and turns them into layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.dataset = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.dataset)
                tracer.calls[name] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, path, name, counter in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            # read from __dict__ so that restoring puts back the plain
            # function, never a bound or inherited one
            fn = None if owner is None else vars(owner).get(attr)
            if isinstance(fn, staticmethod):
                wrapped = staticmethod(self._wrap(fn.__func__, name, counter))
            elif callable(fn):
                wrapped = self._wrap(fn, name, counter)
            else:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def _self_durations(self) -> list[float]:
        """Each span's duration with its direct children's durations removed."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), d in zip(self.spans, self._self_durations()):
            out[name] += d
        return out

    def stage_self_times(self) -> dict[str, dict[str, float]]:
        """Self seconds per span name within each stage (simulate, fit, gof),
        the stage read from the dataset label of the CLI call."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for (name, *_, label), d in zip(self.spans, self._self_durations()):
            stage = "simulate" if label.startswith("sim") else label.split("-")[0]
            out[stage][name] += d
        return out

    def total_time(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        inside = [False] * len(self.spans)
        n = 0
        for i, (sname, _, _, parent, _) in enumerate(self.spans):
            inside[i] = sname == ancestor or (parent is not None and inside[parent])
            if sname == name and parent is not None and inside[parent]:
                n += 1
        return n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, dataset in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, dataset]) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    st = tr.self_times()
    c = tr.counts
    solve_total = tr.total_time("optimizer.solve")
    fits = c["fits"]
    candidates = tr.calls_within("simulator.predictor", "simulator.simulate")
    return {
        "filters.inner_row_calls": (tr.calls["filters.inner_row"], "count"),
        "filters.inner_row_atoms": (c["inner_row_atoms"], "count"),
        "filters.inner_row_s": (st["filters.inner_row"], "s"),
        "filters.evaluate_calls": (tr.calls["filters.evaluate"], "count"),
        "filters.evaluate_points": (c["evaluate_points"], "count"),
        "filters.evaluate_s": (st["filters.evaluate"], "s"),
        "filters.serialize_s": (st["filters.serialize"], "s"),
        "kernel.cws_calls": (tr.calls["kernel.cws"], "count"),
        "kernel.cws_terms": (c["cws_terms"], "count"),
        "kernel.cws_s": (st["kernel.cws"], "s"),
        "likelihood.objective_s": (st["likelihood.objective"], "s"),
        "likelihood.history_pairs": (c["history_pairs"], "count"),
        "likelihood.column_calls": (tr.calls["likelihood.column"], "count"),
        "likelihood.column_s": (st["likelihood.column"], "s"),
        "likelihood.compensator_calls": (tr.calls["likelihood.compensator"], "count"),
        "likelihood.compensator_s": (st["likelihood.compensator"], "s"),
        "representer.atom_calls": (tr.calls["representer.atoms"], "count"),
        "representer.atom_s": (st["representer.atoms"], "s"),
        "optimizer.solve_s": (st["optimizer.solve"], "s"),
        "optimizer.iters": (c["iters"], "count"),
        "optimizer.s_per_iter": (solve_total / c["iters"] if c["iters"] else 0.0, "s/iter"),
        "optimizer.converged": (c["converged"], "count"),
        "optimizer.dict_size": (c["dict_size"] / fits if fits else 0.0, "atoms/fit"),
        "optimizer.ls_trials": (c["ls_trials"], "count"),
        "optimizer.ls_trials_per_step": (
            c["ls_trials"] / c["ls_steps"] if c["ls_steps"] else 0.0,
            "trials/step",
        ),
        "simulator.simulate_s": (st["simulator.simulate"], "s"),
        "simulator.events": (c["events"], "count"),
        "simulator.candidates": (candidates, "count"),
        "simulator.accept_ratio": (c["events"] / candidates if candidates else 0.0, "ratio"),
        "simulator.time_rescale_s": (st["simulator.time_rescale"], "s"),
        "data.load_s": (st["data.load"], "s"),
        "data.save_s": (st["data.save"], "s"),
        "data.rows": (c["rows"], "count"),
        "cli.self_s": (st["cli.main"], "s"),
    }
