"""drlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a drlab checkout (the program is imported from
`src/`).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (`wall_cal_s`, `setup_s`, `peak_rss_mb`);
with `--trace 1` the per-layer ones.  A full record of the run, with the
commit, nproc and the Python and numpy versions, is written under
`perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up starts per run: half before the timed work and half after it, so
# that their median samples the machine over the whole run
SETUP_STARTS = 16
DEADLINE_S = 170.0  # every run must end within 180 s

# one set-up start: a fresh interpreter imports drlab and builds the
# workload's drivers from their spec strings, then prints the clock
SETUP_SRC = (
    "import sys, time\n"
    "import drlab.cli\n"
    "from drlab.drivers import driver_from_spec\n"
    "for spec in sys.argv[1:]:\n"
    "    driver_from_spec(spec)\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
# one reference start, made just before each set-up start: a fresh
# interpreter imports numpy, drlab's one dependency, and nothing of drlab.
# The host's phases slow process starts more than they slow computation,
# so set-up time is calibrated by this start, the same kind of work, and
# not by the worker's samples (README, Calibration).
REF_SRC = (
    "import time\n"
    "import numpy\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
# median reference start on a 2-vCPU box (Python 3.11.7, numpy 2.4.6) in
# a fast phase; it only scales `setup_s`
REF_NOMINAL_S = 0.1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_once(argv: list[str], deadline: float) -> float:
    """Seconds from launching a fresh interpreter to its printed clock."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=deadline - time.monotonic(), check=True)
    return float(proc.stdout.split()[-1]) - t0


def measure_setup(workload: str, starts: int,
                  deadline: float) -> tuple[list[float], list[float]]:
    """(reference starts, set-up starts), made in alternation."""
    specs = workloads.SPECS[workload]
    ref, setup = [], []
    for _ in range(starts):
        ref.append(start_once([REF_SRC], deadline))
        setup.append(start_once([SETUP_SRC, *specs], deadline))
    return ref, setup


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "source_sha256_16": source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run_worker(args, tag: str, workdir: Path, result: Path,
               deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result),
           "--spans", str(OUT / f"{tag}-spans.json")]
    # drlab prints nothing with --out; the worker's own output goes to stderr
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark worker overran the deadline")
    if code != 0:
        raise SystemExit(f"benchmark worker exited with {code}")
    return json.loads(result.read_text())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "drlab" / "cli.py").is_file():
        print(f"no drlab program under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    result_file = OUT / f"{tag}-worker.json"
    ref: list[float] = []
    setup: list[float] = []
    try:
        if args.trace:
            worker = run_worker(args, tag, workdir, result_file, deadline)
        else:
            # one untimed pair warms the bytecode cache, as it is warm for
            # any user after the first run
            measure_setup(args.workload, 1, deadline)
            ref, setup = measure_setup(args.workload, SETUP_STARTS // 2,
                                       deadline)
            worker = run_worker(args, tag, workdir, result_file, deadline)
            more_ref, more_setup = measure_setup(
                args.workload, SETUP_STARTS // 2, deadline)
            ref += more_ref
            setup += more_setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_file.unlink(missing_ok=True)

    if args.trace:
        metrics = {name: metric(value, tracing.UNITS[name])
                   for name, value in sorted(worker["metrics"].items())}
    else:
        metrics = {
            "wall_cal_s": metric(statistics.median(worker["rounds"]), "s"),
            "setup_s": metric(statistics.median(setup) * REF_NOMINAL_S
                              / statistics.median(ref), "s"),
            "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
        }
    line = {"correct": worker["correct"], "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}
    record = {"args": vars(args), "environment": environment(),
              "result": line,
              "setup_starts_s": setup, "ref_starts_s": ref, "worker": worker}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for check in worker["checks"]:
        if not check["ok"]:
            print(f"check failed: {json.dumps(check)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
