"""Summarise sets of benchmark runs the way the acceptance rule reads them.

    python3 perfbench/summarize.py SET_DIR [SET_DIR2]

Each SET_DIR holds the run records that perfbench/run.py writes
(`<workload>-s<seed>-t0-<pid>.json`, moved out of perfbench/out).  For each
workload and end-to-end metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (Q3 - Q1) / median.
With a second set it also prints the shift of the median from the first
set to the second, and the failed share of each set.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    """workload -> list of result lines (untraced runs only)."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*-t0-*.json")):
        record = json.loads(path.read_text())
        runs[record["args"]["workload"]].append(record["result"])
    return runs


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summarize(directory: Path) -> dict:
    out = {}
    for workload, results in load(directory).items():
        metrics = defaultdict(list)
        for r in results:
            for name, m in r["metrics"].items():
                metrics[name].append(m["value"])
        out[workload] = {
            "metrics": {n: stats(v) for n, v in metrics.items() if len(v) > 1},
            "failed_share": (sum(r["failed"] for r in results),
                             sum(r["attempted"] for r in results)),
            "all_correct": all(r["correct"] for r in results),
        }
    return out


def main(argv: list[str]) -> int:
    sets = [summarize(Path(d)) for d in argv]
    if not sets:
        print(__doc__)
        return 2
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for i, s in enumerate(sets):
            w = s.get(workload)
            if w is None:
                continue
            failed, attempted = w["failed_share"]
            print(f"  set {i + 1}: correct={w['all_correct']} "
                  f"failed {failed}/{attempted}")
            for name, st in sorted(w["metrics"].items()):
                shift = ""
                if i > 0 and name in sets[0][workload]["metrics"]:
                    first = sets[0][workload]["metrics"][name]["median"]
                    shift = f" shift {st['median'] / first - 1.0:+.4f}"
                print(f"    {name:12s} n={st['n']:2d} median {st['median']:.5g} "
                      f"q1 {st['q1']:.5g} q3 {st['q3']:.5g} "
                      f"spread {st['spread']:.4f}{shift}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
