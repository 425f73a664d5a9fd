"""The benchmark's tracer finds every glppm attribute it wraps, wraps no
name that glppm code never reads beyond six known ones, and counts
thinning candidates where ``simulate`` reads the filter; and ``glppm``
defines nothing that no library, benchmark or tool code reads beyond
seven known names, and no defaulted parameter that no such code sets
beyond the two link offsets."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import glppm.simulator
from glppm.data import DriverChannel, DriverSeries
from glppm.filters import FilterFunction, h0_poly
from glppm.kernel import SobolevKernel
from glppm.likelihood import linear_link

from oracles import kernel_section, same_bits, thinning_reference


ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    """``bench/tracing.py`` as a module, read where it stands."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_hook_resolves():
    # a refactor that drops or renames a traced name fails here, not only
    # in a traced benchmark run
    tracing = load_tracing()
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

    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        events, _ = glppm.simulator.simulate(spec(), seed=2)
    finally:
        tracer.uninstall()
    want, calls = thinning_reference(spec(), seed=2)
    assert tracer.missing == [] and len(want) > 20
    assert same_bits(events.times, want)
    assert tracer.calls_within("simulator.predictor", "simulator.simulate") == calls


def read_names(tree: ast.Module, module: str) -> set[str]:
    """The bindings that the code of ``glppm.<module>`` reads, to call or
    to pass on: ``glppm.<module>.f`` for a bare name ``f``, which is the
    module's own global, and for an attribute ``x.f`` (``data.load_events``,
    ``g.to_json``) ``*.f`` under any owner and ``glppm.x.f`` for a module
    ``x``; reading a class reads its ``__init__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out |= {f"glppm.{module}.{node.id}", f"*.{node.id}.__init__"}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out |= {f"*.{node.attr}", f"*.{node.attr}.__init__"}
            if isinstance(node.value, ast.Name):
                out.add(f"glppm.{node.value.id}.{node.attr}")
    return out


def test_the_hooks_that_no_glppm_code_reads_are_the_known_six():
    # a hooked binding that no glppm code reads is never called but by the
    # tracer and the tests, so it reads 0 in every traced run; these six
    # are kept for them alone, and a change that makes another hook dead
    # fails here
    read = set()
    for path in sorted((ROOT / "src" / "glppm").glob("*.py")):
        read |= read_names(ast.parse(path.read_text()), path.stem)
    dead = set()
    for module, path, _, _ in load_tracing().HOOKS:
        *owner, attr = path.split(".")
        # a method is read through any instance, a module function through
        # its module's globals or as an attribute of the module
        names = {f"*.{attr}"} if owner else {f"{module}.{attr}"}
        if attr == "__init__":
            names = {f"*.{owner[-1]}.__init__"}
        if not names & read:
            dead.add(f"{module}.{path}")
    assert dead == {
        "glppm.optimizer.h1_inner_row",
        "glppm.optimizer.full_inner_row",
        "glppm.filters.FilterFunction.to_json",
        "glppm.filters.FilterFunction.from_json",
        "glppm.likelihood.Objective.node_column",
        "glppm.likelihood.Objective.event_column",
    }


def test_the_definitions_that_no_glppm_bench_or_tools_code_reads_are_the_known_seven():
    # every module-level function and class of src/glppm, and every
    # non-dunder method, that no non-test code of src/glppm, bench/ or
    # tools/ reads: a definition is read under its bare name in a module
    # that defines or imports it, a method under any owner.  The tracer
    # hooks to_json, from_json, node_column, event_column and (through the
    # optimizer's re-export) full_inner_row, so
    # test_every_traced_hook_resolves needs them until the hooks go; the
    # exponential and softplus links are, with linear_link, the exported
    # constructors of each link family.  A change that leaves another
    # definition to the tests alone fails here.
    files = [
        path
        for folder in ("src/glppm", "bench", "tools")
        for path in sorted((ROOT / folder).glob("*.py"))
        if not path.name.startswith("test_")
    ]
    read, bound = set(), {}
    for path in files:
        tree = ast.parse(path.read_text())
        read |= read_names(tree, path.stem)
        names = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        names += [a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
        for name in names:
            bound.setdefault(name, set()).add(path.stem)
    unread = set()
    for path in sorted((ROOT / "src" / "glppm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = {f"*.{node.name}"} | {f"glppm.{module}.{node.name}" for module in bound[node.name]}
            if not names & read:
                unread.add(f"{path.stem}.{node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for method in methods:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    if f"*.{method.name}" not in read:
                        unread.add(f"{node.name}.{method.name}")
    assert unread == {
        "FilterFunction.from_json",
        "FilterFunction.to_json",
        "filters.full_inner_row",
        "Objective.event_column",
        "Objective.node_column",
        "likelihood.exponential_link",
        "likelihood.softplus_link",
    }


def calls_made(tree: ast.Module):
    """(callee names, positional count, keywords, starred) of every call in
    the tree: the callee's bare name or attribute name, and for a bare name
    bound as ``x = a if ... else b`` the names of a and b too; starred
    when the call passes any ``*args`` or ``**kwargs``."""
    branches = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.IfExp):
            for target in node.targets:
                for branch in (node.value.body, node.value.orelse):
                    name = getattr(branch, "id", getattr(branch, "attr", None))
                    if isinstance(target, ast.Name) and name:
                        branches.setdefault(target.id, set()).add(name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            names = {node.func.id} | branches.get(node.func.id, set())
        elif isinstance(node.func, ast.Attribute):
            names = {node.func.attr}
        else:
            continue
        positional = [a for a in node.args if not isinstance(a, ast.Starred)]
        starred = len(positional) < len(node.args) or any(k.arg is None for k in node.keywords)
        yield names, len(positional), {k.arg for k in node.keywords}, starred


def test_every_defaulted_parameter_is_set_by_library_bench_or_tool_code_but_the_two_link_offsets():
    # a parameter with a default that no non-test code of src/glppm,
    # bench/ or tools/ sets is a knob only the tests turn.  A call sets it
    # when its callee is the function's name, an attribute of that name or,
    # for __init__, its class, and it passes the parameter by keyword, by
    # position past self, or through *args / **kwargs.  The exponential
    # and softplus links' offsets are left, as each link's constructor
    # takes its family's baseline; a change that leaves another default
    # to the tests alone fails here
    calls = [
        call
        for folder in ("src/glppm", "bench", "tools")
        for path in sorted((ROOT / folder).glob("*.py"))
        if not path.name.startswith("test_")
        for call in calls_made(ast.parse(path.read_text()))
    ]
    unset = set()
    for path in sorted((ROOT / "src" / "glppm").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [
            (node.name, method)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body if isinstance(method, ast.FunctionDef)
        ]
        for owner, fn in functions:
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args][owner is not None and not static:]
            defaulted = params[len(params) - len(fn.args.defaults):] if fn.args.defaults else []
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            callee = owner if fn.name == "__init__" else fn.name
            for param in defaulted:
                at = params.index(param) if param in params else len(params)
                if not any(
                    callee in names and (param in keywords or starred or positional > at)
                    for names, positional, keywords, starred in calls
                ):
                    unset.add(f"{path.stem}.{owner + '.' if owner else ''}{fn.name}({param})")
    assert unset == {"likelihood.exponential_link(d)", "likelihood.softplus_link(d)"}
