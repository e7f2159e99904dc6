"""Fast checks of the benchmark's own machinery; no workload is run."""

from __future__ import annotations

import json
import math
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from drlab.cli import build_parser, main as drlab_main  # noqa: E402
from drlab.curve import curve_from_h, write_curve_csv  # noqa: E402
from drlab.drivers import ZSpecContinuous, driver_from_spec  # noqa: E402
from drlab.models import CLFParams, clf_step, make_clf_model  # noqa: E402
from drlab.recursion import classify_detail  # noqa: E402


@pytest.mark.parametrize("spec", workloads.SPECS["curve-sweep"]
                         + workloads.SPECS["cv-refined"])
def test_reference_psi_matches_program(spec):
    psi, _ = driver_from_spec(spec)
    ref = workloads.reference_psi(spec)
    xs = np.linspace(-0.5, 2.0, 41)
    assert np.allclose(ref(xs), psi(xs), rtol=1e-10, atol=0.0)


def test_clf_law_matches_program_map():
    model = make_clf_model(0.5, ZSpecContinuous(((1.0, 1.0),)))
    params = CLFParams(2.0, 0.5)
    for lam, rho in workloads._clf_law(2.0, 0.5, 0.5, 1.0, 4):
        assert math.isclose(lam, params.lam, rel_tol=1e-14)
        assert math.isclose(rho, params.rho, rel_tol=1e-14)
        params = clf_step(params, model)


def test_every_workload_command_parses():
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        for argv in workloads.commands(workload, 7, Path("out")):
            args = parser.parse_args(argv)
            assert args.out.startswith("out")


def _fig1_csv(tmp_path: Path, h_fn) -> Path:
    psi, _ = driver_from_spec("fig1")
    path = tmp_path / "fig1.csv"
    with open(path, "w") as fh:
        write_curve_csv(curve_from_h(0.5, 1000, h_fn), psi, fh)
    Path(str(path) + ".json").write_text(json.dumps({"converged": True}))
    return path


def test_curve_checks_pass_on_the_exact_curve(tmp_path):
    log = workloads.CheckLog()
    path = _fig1_csv(tmp_path, lambda xs: 0.5 * xs * xs)
    workloads.check_curve(log, "fig1", "fig1", 1000, path, random.Random(1))
    assert log.ok, log.failures()


def test_curve_checks_catch_a_bent_curve(tmp_path):
    log = workloads.CheckLog()
    path = _fig1_csv(tmp_path, lambda xs: 0.5 * xs * xs
                     + 1e-3 * np.sin(40.0 * xs))
    workloads.check_curve(log, "fig1", "fig1", 1000, path, random.Random(1))
    failed = {r["name"] for r in log.failures()}
    assert {"fig1.residual", "fig1.residual_off_grid"} <= failed


def test_counting_driver_counts_orbit_steps():
    psi, _ = driver_from_spec("fig1")
    counting, calls = tracing.counting_driver(psi)
    label, last = classify_detail(0.02, -0.2, counting, max_iter=1000)
    assert calls["fn"] == last.n == 1001
    assert label.value == "undetermined"


def test_tracer_spans_nest_and_patches_are_restored(capsys):
    import drlab.cli
    import drlab.drivers
    before = drlab.cli.driver_from_spec
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert drlab.drivers.driver_from_spec is not before
        span, code = tracer.call("cli.main", drlab_main,
                                 ["psi", "--driver", "fig1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert drlab.cli.driver_from_spec is before
    assert drlab.drivers.driver_from_spec is before
    kids = tracer.children(span)
    assert [k.name for k in kids] == ["drivers.driver_from_spec"]
    assert all(k.start >= span.start and k.end <= span.end for k in kids)
    total = span.end - span.start
    assert math.isclose(tracer.self_time(span) + sum(k.end - k.start for k in kids),
                        total, rel_tol=1e-12)


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.UNITS
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_cal_s", "setup_s", "peak_rss_mb"}


def test_sampler_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler(interval=0.05)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.speeds) >= 3
    assert 0.0 < sampler.paused_s < time.perf_counter() - t0
    assert all(v > 0.0 for v in sampler.speeds)
    assert sampler.mean_speed() > 0.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-refined",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
