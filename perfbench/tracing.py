"""Per-layer measurement for the traced run.

Spans: every public function of each drlab module (its `__all__`) is
wrapped, from here, wherever a drlab module refers to it, so each call
into a layer records a span (name, start, end, parent).  Spans are kept in
memory and written out at the end.  Calls made on other threads (the Monte
Carlo thread pool) record nothing; their time stays with the enclosing
span on the main thread.

Probes: small timed calls into the public functions of each layer, made
with tracing off.  A probe that fails (for example because a public
signature changed) leaves its metrics out and the run goes on.

Counts: a separate pass with a counting driver, a `PsiFunction` built with
the public constructor whose scalar `fn` counts its calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import threading
import time
import traceback
from typing import Callable

import numpy as np

import workloads

LAYERS = ("drivers", "recursion", "curve", "lab", "models", "montecarlo", "cli")

# the lf driver of cv-refined and h(-0.3) on its critical curve, from the
# classifier bisection at tol 1e-11; an orbit started there hugs the curve
# for far longer than the classify probe's budget
LF_SPEC = "lf:p=0.5,z=1"
LF_H_MINUS_03 = 0.051806269642573365
CLASSIFY_BUDGET = 200_000
PROBE_POOL = 1_000_000

_SOLVED = [name for name, _, _ in workloads.CURVES] + ["lf_m1000"]
_MC = [f"{kind}_t{threads}" for kind in ("lf", "clf") for threads in (1, 2)]

# every per-layer metric with its unit
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    **{f"curve.solve_s.{name}": "s" for name in _SOLVED},
    **{f"curve.sweeps.{name}": "count" for name in _SOLVED},
    "curve.sweep_us_m1000": "us",
    "curve.sweep_us_m4000": "us",
    "curve.g1_ms": "ms",
    "lab.refined_h_s": "s",
    "lab.refined_h_orbit_steps": "count",
    "lab.refined_h_classify_calls": "count",
    "lab.c_v_self_s": "s",
    "drivers.psi_call_ns": "ns",
    "drivers.psi_fn_ns": "ns",
    "drivers.psi_array_ns_per_elem_1001": "ns",
    "drivers.psi_array_ns_per_elem_4001": "ns",
    "drivers.build_us": "us",
    "recursion.classify_ns_per_step": "ns",
    "recursion.classify_steps": "count",
    "recursion.stopping_times_ns_per_step": "ns",
    "models.lf_step_ns": "ns",
    **{f"montecarlo.pool0_s.{case}": "s" for case in _MC},
    **{f"montecarlo.mc_step_s.{case}": "s" for case in _MC},
    "montecarlo.thread_speedup.lf": "ratio",
    "montecarlo.thread_speedup.clf": "ratio",
    "montecarlo.compare_ms": "ms",
    "montecarlo.pool_mb": "MB",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict


class Tracer:
    """Records spans on the main thread; patches and restores drlab."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; returns (span, result)."""
        span = self._open(name)
        try:
            return span, fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "curve.solve_curve":
                    # a result without this field leaves the count out
                    grid = getattr(result, "grid", None)
                    span.attrs["sweeps"] = getattr(grid, "sweeps", None)
                return result
            finally:
                self._close(span)
        return wrapper

    def install(self) -> None:
        for layer in LAYERS[:-1]:
            for name, fn in public_functions(layer):
                replace_everywhere(fn, self._wrap(f"{layer}.{name}", fn),
                                   self._patched)

    def uninstall(self) -> None:
        restore(self._patched)

    def self_time(self, span: Span) -> float:
        return (span.end - span.start) - sum(
            c.end - c.start for c in self.children(span))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def descendants(self, span: Span) -> list[Span]:
        out = []
        todo = [span]
        while todo:
            kids = self.children(todo.pop())
            out.extend(kids)
            todo.extend(kids)
        return out

    def dump(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]


def drlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "drlab" or n.startswith("drlab."))]


def public_functions(layer: str) -> list[tuple[str, Callable]]:
    mod = sys.modules[f"drlab.{layer}"]
    return [(n, getattr(mod, n)) for n in getattr(mod, "__all__", ())
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__]


def replace_everywhere(old, new, patched: list, *, skip=()) -> None:
    """Point every drlab module attribute that is `old` at `new`."""
    for mod in drlab_modules():
        if mod.__name__ in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                patched.append((mod, attr, old))
                setattr(mod, attr, new)


def restore(patched: list) -> None:
    while patched:
        mod, attr, old = patched.pop()
        setattr(mod, attr, old)


# ---------------------------------------------------------------------------
# metrics from the spans of the layer pass
# ---------------------------------------------------------------------------

def span_metrics(tracer: Tracer, commands: dict, workload: str) -> dict:
    """commands maps (workload, command index) -> the cli.main span."""
    out = {}
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = sum(tracer.self_time(s) for s in tracer.spans
                                     if s.name.startswith(layer + "."))
    mine = [s for (w, _), s in commands.items() if w == workload]
    out["trace.wall_s"] = sum(s.end - s.start for s in mine)
    out["cli.self_s"] = sum(tracer.self_time(s) for s in mine)
    # curve solves, per curve-sweep command and for the cv-refined curve
    for i, (name, _, _) in enumerate(workloads.CURVES):
        _solve_metrics(tracer, commands.get(("curve-sweep", i)), name, out)
    _solve_metrics(tracer, commands.get(("cv-refined", 0)), "lf_m1000", out)
    cv = commands.get(("cv-refined", 0))
    if cv is not None:
        inner = tracer.descendants(cv)
        seeds = [s for s in inner if s.name == "lab.refined_h"]
        cvs = [s for s in inner if s.name == "lab.c_v_estimate"]
        if seeds and cvs:
            out["lab.refined_h_s"] = sum(s.end - s.start for s in seeds)
            out["lab.c_v_self_s"] = (sum(s.end - s.start for s in cvs)
                                     - out["lab.refined_h_s"])
    return out


def _solve_metrics(tracer, cmd_span, name, out) -> None:
    if cmd_span is None:
        return
    solves = [s for s in tracer.descendants(cmd_span)
              if s.name == "curve.solve_curve"]
    if solves:
        out[f"curve.solve_s.{name}"] = solves[0].end - solves[0].start
        if solves[0].attrs.get("sweeps") is not None:
            out[f"curve.sweeps.{name}"] = solves[0].attrs["sweeps"]


# ---------------------------------------------------------------------------
# probes (tracing off)
# ---------------------------------------------------------------------------

def _median_time(fn: Callable, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_drivers() -> dict:
    from drlab.drivers import driver_from_spec
    psi, _ = driver_from_spec(LF_SPEC)
    xs = [-0.3 + 0.4 * i / 999 for i in range(1000)]
    fn = psi.fn

    def via_call():
        for x in xs:
            psi(x)

    def via_fn():
        for x in xs:
            fn(x)

    out = {"drivers.psi_call_ns": _median_time(via_call, 15) / len(xs) * 1e9,
           "drivers.psi_fn_ns": _median_time(via_fn, 15) / len(xs) * 1e9}
    for n in (1001, 4001):
        arr = np.linspace(-0.5, 0.0, n)
        per = _median_time(lambda: [psi(arr) for _ in range(50)], 9) / 50
        out[f"drivers.psi_array_ns_per_elem_{n}"] = per / n * 1e9
    out["drivers.build_us"] = _median_time(
        lambda: [driver_from_spec(LF_SPEC) for _ in range(50)], 9) / 50 * 1e6
    return out


def probe_recursion() -> dict:
    from drlab.drivers import driver_from_spec
    from drlab.recursion import classify_detail, stopping_times
    psi, _ = driver_from_spec(LF_SPEC)
    steps = []

    def run_classify():
        _, last = classify_detail(LF_H_MINUS_03, -0.3, psi,
                                  max_iter=CLASSIFY_BUDGET)
        steps.append(last.n)

    t = _median_time(run_classify, 5)
    out = {"recursion.classify_ns_per_step": t / steps[-1] * 1e9,
           "recursion.classify_steps": steps[-1]}
    eps = 1e-8
    recs = []
    t = _median_time(lambda: recs.append(stopping_times(
        eps, 0.0, psi, A=10.0, delta=0.1, epsilon=eps)), 9)
    n = max(v for v in dataclasses.astuple(recs[-1])[:6] if v is not None)
    out["recursion.stopping_times_ns_per_step"] = t / n * 1e9
    return out


def probe_curve() -> dict:
    from drlab.curve import iterate_g, solve_g1
    from drlab.drivers import driver_from_spec
    psi, _ = driver_from_spec(LF_SPEC)
    out = {}
    for m in (1000, 4000):
        grid = solve_g1(psi, 0.5, m)

        def sweeps(k=100):
            g = grid
            for _ in range(k):
                g = iterate_g(g, psi)

        out[f"curve.sweep_us_m{m}"] = _median_time(sweeps, 7) / 100 * 1e6
    out["curve.g1_ms"] = _median_time(lambda: solve_g1(psi, 0.5, 1000), 7) * 1e3
    return out


def probe_models() -> dict:
    from drlab.drivers import ZSpecDiscrete
    from drlab.models import LFParams, lf_step, make_lf_model
    model = make_lf_model(0.5, ZSpecDiscrete(((1, 1.0),)))
    params = LFParams(0.6, 0.9)
    k = 20_000
    return {"models.lf_step_ns": _median_time(
        lambda: [lf_step(params, model) for _ in range(k)], 7) / k * 1e9}


def probe_montecarlo() -> dict:
    from drlab.drivers import ZSpecContinuous, ZSpecDiscrete
    from drlab.models import CLFParams, LFParams, make_clf_model, make_lf_model
    from drlab.montecarlo import (compare_to_model, mc_step, pool_from_clf,
                                  pool_from_lf)
    cases = {
        "lf": (make_lf_model(0.5, ZSpecDiscrete(((1, 1.0),))),
               LFParams(0.6, 0.9), pool_from_lf),
        "clf": (make_clf_model(0.5, ZSpecContinuous(((1.0, 1.0),))),
                CLFParams(2.0, 0.5), pool_from_clf),
    }
    out = {}
    for kind, (model, params, make_pool) in cases.items():
        step = {}
        for threads in (1, 2):
            pools = []
            out[f"montecarlo.pool0_s.{kind}_t{threads}"] = _median_time(
                lambda: pools.append(make_pool(params, PROBE_POOL, 1, threads)),
                3)
            step[threads] = _median_time(
                lambda: mc_step(pools[-1], model, threads), 3)
            out[f"montecarlo.mc_step_s.{kind}_t{threads}"] = step[threads]
        out[f"montecarlo.thread_speedup.{kind}"] = step[1] / step[2]
    out["montecarlo.compare_ms"] = _median_time(
        lambda: compare_to_model(pools[-1], params), 7) * 1e3
    # the pool of the mc-validate workload, at 8 bytes a sample
    out["montecarlo.pool_mb"] = workloads.MC_POOL * 8 / 1e6
    return out


def counting_driver(psi):
    """A copy of psi, built with the public constructor, whose scalar fn
    counts its calls; returns (driver, calls) with calls["fn"] the count."""
    from drlab.drivers import PsiFunction
    calls = {"fn": 0}
    base_fn = psi.fn

    def counting_fn(x):
        calls["fn"] += 1
        return base_fn(x)

    fields = {f.name: getattr(psi, f.name) for f in dataclasses.fields(psi)}
    fields["fn"] = counting_fn
    return PsiFunction(**fields), calls


def count_refined_h() -> dict:
    """Orbit steps and classifier calls of the cv-refined seed bisection,
    counted with a counting driver and counting wrappers."""
    from drlab import curve, lab
    from drlab.drivers import driver_from_spec
    psi, _ = driver_from_spec(LF_SPEC)
    counting, calls = counting_driver(psi)
    cur = curve.solve_curve(psi, 0.5, 1000)
    classify_calls = 0

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal classify_calls
            classify_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    patched: list = []
    try:
        for name, fn in public_functions("recursion"):
            if name.startswith("classify"):
                # calls from outside recursion only: classify() calling
                # classify_detail() is one classifier call, not two
                replace_everywhere(fn, counted(fn), patched,
                                   skip=("drlab.recursion", "drlab"))
        lab.refined_h(counting, cur, -0.3, 1e-11)
    finally:
        restore(patched)
    return {"lab.refined_h_orbit_steps": calls["fn"],
            "lab.refined_h_classify_calls": classify_calls}


def run_probes() -> tuple[dict, list[str]]:
    """All probes; returns the metrics and the names of failed probes."""
    probes = [probe_drivers, probe_recursion, probe_curve, probe_models,
              probe_montecarlo, count_refined_h]
    out: dict = {}
    failed = []
    for probe in probes:
        try:
            out.update(probe())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.append(probe.__name__)
    return out, failed
