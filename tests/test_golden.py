"""Golden outputs: lab CSV and JSON files must stay byte-identical.

Each case runs one ``drlab lab`` command and compares the files it writes
with the copies under ``tests/golden/``.  The copies were made by running
the same argv with ``--out tests/golden/<name>``.  A small grid (m = 200)
keeps each command to a few seconds; the seeds it yields are coarse, but
the outputs are exactly reproducible, which is all a golden file needs.
"""

from pathlib import Path

import pytest

from drlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
LF = ["--driver", "lf:p=0.5,z=1", "--m", "200"]
EPS = ["--eps", "1e-5", "--eps", "1e-6"]

CASES = {
    "cv_refined": ["lab", "c-v", *LF, "--v0", "-0.3", *EPS,
                   "--refine-seed-tol", "1e-9"],
    "cv_origin": ["lab", "c-v", *LF, "--v0", "0", *EPS],
    "n_star_refined": ["lab", "n-star", *LF, "--v0", "-0.3", *EPS,
                       "--refine-seed-tol", "1e-9"],
    "c_star": ["lab", "c-star", *LF, "--v0", "-0.3", *EPS],
    "critical_fig1": ["lab", "critical", "--driver", "fig1", "--m", "200",
                      "--v0", "-0.3", "--n-max", "10000"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lab_outputs_match_golden_bytes(name, tmp_path):
    main(CASES[name] + ["--out", str(tmp_path / name)])
    for suffix in (".csv", ".json"):
        got = (tmp_path / (name + suffix)).read_bytes()
        assert got == (GOLDEN / (name + suffix)).read_bytes(), name + suffix
