"""The run's own process: imports drlab, runs one workload, checks it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE

Untraced, it runs whole rounds of the workload's commands through
`drlab.cli.main`, as many as bring the total closest to S seconds (at
least one), each command under a `calibration.Sampler`, then runs the
checks.  Traced, it runs one round of every
workload with spans on, then the probes and the counting pass, then the
checks of every workload.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads


def run_command(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


def timed_rounds(main, workload: str, seed: int, seconds: float,
                 workdir: Path) -> dict:
    cmds = workloads.commands(workload, seed, workdir)
    rounds: list[float] = []      # calibrated seconds per round
    raw_rounds: list[float] = []  # plain wall seconds per round
    samples = 0
    digests: list[str] = []
    attempted = failed = 0
    elapsed = 0.0
    # whole rounds, as many as bring the total closest to `seconds`
    while not rounds or elapsed + statistics.median(raw_rounds) / 2 < seconds:
        raw = cal = 0.0
        for argv in cmds:
            sampler = calibration.Sampler()
            t0 = time.perf_counter()
            with sampler:
                code = run_command(main, argv)
            wall = time.perf_counter() - t0
            elapsed += wall
            raw += wall - sampler.paused_s
            cal += (wall - sampler.paused_s) * sampler.mean_speed()
            samples += len(sampler.speeds)
            attempted += 1
            failed += code != 0
        rounds.append(cal)
        raw_rounds.append(raw)
        digests.append(workloads.output_digest(workdir))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rounds": rounds, "raw_rounds": raw_rounds, "samples": samples,
            "attempted": attempted, "failed": failed,
            "peak_rss_mb": peak_kb / 1024.0,
            "rounds_identical": len(set(digests)) == 1}


def traced_pass(main, workload: str, seed: int, workdir: Path,
                trace_file: Path) -> dict:
    tracer = tracing.Tracer()
    spans = {}
    attempted = failed = 0
    order = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    tracer.install()
    try:
        for w in order:
            (workdir / w).mkdir(parents=True, exist_ok=True)
            for i, argv in enumerate(workloads.commands(w, seed, workdir / w)):
                span, code = tracer.call("cli.main", run_command, main, argv)
                spans[(w, i)] = span
                attempted += 1
                failed += code != 0
    finally:
        tracer.uninstall()
    metrics = tracing.span_metrics(tracer, spans, workload)
    trace_file.write_text(json.dumps(tracer.dump()) + "\n")
    probed, missing = tracing.run_probes()
    metrics.update(probed)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "failed_probes": missing, "order": order}


def checked(checks, workload: str, seed: int, workdir: Path, main) -> None:
    """Run a workload's checks; a check that cannot run counts as failed."""
    try:
        workloads.run_checks(checks, workload, seed, workdir, main)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        checks.check(f"{workload}.checks_ran", False, error=repr(exc))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = ap.parse_args()

    from drlab.cli import main as drlab_main

    args.workdir.mkdir(parents=True, exist_ok=True)
    checks = workloads.CheckLog()
    if args.trace:
        result = traced_pass(drlab_main, args.workload, args.seed,
                             args.workdir, args.spans)
        for w in result["order"]:
            checked(checks, w, args.seed, args.workdir / w, drlab_main)
    else:
        result = timed_rounds(drlab_main, args.workload, args.seed,
                              args.seconds, args.workdir)
        checks.check("rounds_identical", result["rounds_identical"])
        checked(checks, args.workload, args.seed, args.workdir, drlab_main)
    result["checks"] = checks.results
    result["correct"] = checks.ok
    args.result.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
