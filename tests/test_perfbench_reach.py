"""The benchmark's reach into drlab still resolves.

``perfbench/`` imports drlab modules and names, calls them, and reads the
spans its tracer records, one per function in a layer's ``__all__``, by
name ("lab.refined_h").  A probe whose name stops resolving only drops its
per-layer metrics, and the benchmark run still passes.  So this test reads
perfbench's sources as syntax trees, without running them, and checks each
such name against the program: every import, every attribute reached from
an imported module, the argument shape of every call into drlab, the
traced layers and the span names compared against.  The quick probes are
also run, for their metric names and finite values, and so are two
workloads' commands under the tracer, for span metrics that dump as JSON.
"""

import ast
import importlib
import inspect
import json
import math
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _is_drlab(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "drlab"


def _imports(nodes) -> dict:
    """Local name -> dotted drlab path, for the imports among ``nodes``."""
    names = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                if _is_drlab(a.name):
                    names[a.asname or a.name.split(".")[0]] = \
                        a.name if a.asname else "drlab"
        elif isinstance(node, ast.ImportFrom) and _is_drlab(node.module):
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _resolve(path: str):
    """The object at a dotted drlab path; raises if it does not resolve."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _dotted(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and head + [node.attr]
    return None


def _scan(source: Path):
    """(line, dotted drlab path, call) for each import of a drlab name and
    each name or attribute chain that starts at one; ``call`` is (positional
    count, keyword names) when the chain is called with every argument
    spelled out, else None.  Read scope by scope: the module's imports
    hold everywhere, a function's only inside it."""
    tree = ast.parse(source.read_text())
    top = _imports(tree.body)
    scopes = [([s for s in tree.body if not isinstance(s, ast.FunctionDef)],
               top)] + [
        (node.body, {**top, **_imports(ast.walk(node))})
        for node in tree.body if isinstance(node, ast.FunctionDef)]
    out = []
    for body, names in scopes:
        nodes = [node for stmt in body for node in ast.walk(stmt)]
        calls = {id(node.func): node for node in nodes
                 if isinstance(node, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and _is_drlab(node.module):
                out += [(node.lineno, f"{node.module}.{a.name}", None)
                        for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(node.lineno, a.name, None) for a in node.names
                        if _is_drlab(a.name)]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                chain = _dotted(node)
                if not (chain and chain[0] in names):
                    continue
                call = calls.get(id(node))
                if call is not None and not (
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    call = (len(call.args),
                            tuple(k.arg for k in call.keywords))
                else:
                    call = None
                out.append((node.lineno,
                            ".".join([names[chain[0]], *chain[1:]]), call))
    return out


REACH = sorted({(f"{src.name}:{line}", path, call)
                for src in SOURCES for line, path, call in _scan(src)})


def test_the_scan_sees_what_the_probes_use():
    paths = {path for _, path, _ in REACH}
    for path in ("drlab.lab.refined_h", "drlab.curve.solve_curve",
                 "drlab.models.make_lf_model", "drlab.montecarlo.mc_step",
                 "drlab.drivers.driver_from_spec", "drlab.cli.main"):
        assert path in paths
    assert ("drlab.montecarlo.mc_step", (3, ())) in {
        (path, call) for _, path, call in REACH}


def test_every_drlab_name_perfbench_reaches_resolves():
    broken = []
    for where, path, _ in REACH:
        try:
            _resolve(path)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{where} {path}: {exc}")
    assert not broken


def test_every_call_into_drlab_binds():
    broken = []
    for where, path, call in REACH:
        if call is None:
            continue
        n_args, keywords = call
        try:
            inspect.signature(_resolve(path)).bind(
                *[None] * n_args, **{k: None for k in keywords})
        except (ImportError, AttributeError, TypeError) as exc:
            broken.append(f"{where} {path}: {exc}")
    assert not broken


def _tracing():
    return ast.parse((PERFBENCH / "tracing.py").read_text())


def test_the_traced_layers_are_drlab_modules():
    layers = next(node.value for node in _tracing().body
                  if isinstance(node, ast.Assign)
                  and _dotted(node.targets[0]) == ["LAYERS"])
    for name in ast.literal_eval(layers):
        assert inspect.ismodule(_resolve(f"drlab.{name}")), name


def test_every_span_name_perfbench_reads_is_traced():
    # a span "<layer>.<function>" exists only for a function in the
    # layer's __all__, the functions the tracer wraps
    names = {side.value for node in ast.walk(_tracing())
             if isinstance(node, ast.Compare)
             for side in [node.left, *node.comparators]
             if isinstance(side, ast.Constant) and isinstance(side.value, str)
             and re.fullmatch(r"\w+\.\w+", side.value)}
    assert {"lab.refined_h", "curve.solve_curve"} <= names
    for name in names:
        layer, function = name.split(".")
        module = _resolve(f"drlab.{layer}")
        assert function in module.__all__, name
        assert inspect.isfunction(getattr(module, function)), name


# the metrics each probe returns, by probe; probe_montecarlo, which builds
# pools of 10^6 samples, is left out
PROBES = {
    "probe_drivers": {"drivers.psi_call_ns", "drivers.psi_fn_ns",
                      "drivers.psi_array_ns_per_elem_1001",
                      "drivers.psi_array_ns_per_elem_4001",
                      "drivers.build_us"},
    "probe_recursion": {"recursion.classify_ns_per_step",
                        "recursion.classify_steps",
                        "recursion.stopping_times_ns_per_step"},
    "probe_curve": {"curve.sweep_us_m1000", "curve.sweep_us_m4000",
                    "curve.g1_ms"},
    "probe_models": {"models.lf_step_ns"},
    "count_refined_h": {"lab.refined_h_orbit_steps",
                        "lab.refined_h_classify_calls"},
}


def test_the_probes_run_and_return_their_metrics():
    # a probe that raises drops its metrics from a traced run in silence,
    # so each one is run here
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import tracing
    for probe, names in PROBES.items():
        assert names <= set(tracing.UNITS), probe
        out = getattr(tracing, probe)()
        assert set(out) == names, probe
        assert all(math.isfinite(v) for v in out.values()), (probe, out)


def test_a_solved_grid_counts_its_sweeps_in_an_int():
    # the tracer books grid.sweeps of each solve_curve result as a count
    from drlab.curve import solve_curve
    from drlab.drivers import driver_from_spec
    grid = solve_curve(driver_from_spec("lf:p=0.5,z=1")[0], 0.5, 200).grid
    assert type(grid.sweeps) is int


def test_traced_workloads_give_finite_json_metrics(tmp_path):
    # a traced run prints its metrics with json.dumps, which writes NaN for
    # a non-finite one, and a line with NaN is not a result; so the
    # cv-refined and curve-sweep commands are traced here, in process, and
    # each workload's span metrics must dump with NaN refused
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import tracing
    import workloads
    from drlab.cli import main
    tracer = tracing.Tracer()
    spans = {}
    tracer.install()
    try:
        for w in ("cv-refined", "curve-sweep"):
            (tmp_path / w).mkdir()
            for i, argv in enumerate(workloads.commands(w, 1, tmp_path / w)):
                spans[(w, i)], code = tracer.call("cli.main", main, argv)
                assert code == 0, argv
    finally:
        tracer.uninstall()
    for w in ("cv-refined", "curve-sweep"):
        metrics = tracing.span_metrics(tracer, spans, w)
        assert "trace.wall_s" in metrics
        json.dumps(metrics, allow_nan=False)
