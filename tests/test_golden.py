"""Golden outputs: CLI CSV and JSON files must stay byte-identical.

Each case runs one ``drlab`` command, checks its exit code and compares the
files it writes with the copies under ``tests/golden/``.  The copies were
made by running the same argv with ``OUT`` standing for ``tests/golden``.
A small grid (m = 200) keeps each lab command to a few seconds; the seeds
it yields are coarse, but the outputs are exactly reproducible, which is
all a golden file needs.
"""

from pathlib import Path
from typing import NamedTuple

import pytest

from drlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
LF = ["--driver", "lf:p=0.5,z=1", "--m", "200"]
EPS = ["--eps", "1e-5", "--eps", "1e-6"]
LF_DRIVER = ["--driver", "lf:p=0.5,z=1"]
H_LF_03 = "0.051806269642573365"  # on the lf curve at v = -0.3


class Case(NamedTuple):
    argv: list  # "OUT" in an argument stands for the output directory
    files: tuple  # the files the command writes there
    code: int = 0


def lab(name: str, *argv: str, code: int = 0) -> Case:
    """A lab experiment, which writes <name>.csv and <name>.json."""
    return Case(["lab", *argv, "--out", f"OUT/{name}"],
                (name + ".csv", name + ".json"), code)


def single(name: str, *argv: str, code: int = 0) -> Case:
    """A command that writes one JSON file given by --out."""
    return Case([*argv, "--out", f"OUT/{name}.json"], (name + ".json",), code)


CASES = {
    "cv_refined": lab("cv_refined", "c-v", *LF, "--v0", "-0.3", *EPS,
                      "--refine-seed-tol", "1e-9"),
    "cv_origin": lab("cv_origin", "c-v", *LF, "--v0", "0", *EPS),
    "n_star_refined": lab("n_star_refined", "n-star", *LF, "--v0", "-0.3",
                          *EPS, "--refine-seed-tol", "1e-9"),
    "c_star": lab("c_star", "c-star", *LF, "--v0", "-0.3", *EPS),
    "critical_fig1": lab("critical_fig1", "critical", "--driver", "fig1",
                         "--m", "200", "--v0", "-0.3", "--n-max", "10000",
                         code=1),  # the coarse seed escapes: flagged diverged
    "classify_super": single("classify_super", "classify", "--driver", "fig1",
                             "--u0", "0.1", "--v0", "-0.4"),
    "classify_sub": single("classify_sub", "classify", *LF_DRIVER,
                           "--u0", "0.01", "--v0", "-0.4"),
    "classify_budget": Case(
        ["classify", *LF_DRIVER, "--u0", H_LF_03, "--v0", "-0.3",
         "--max-iter", "1000", "--out", "OUT/classify_budget.json",
         "--orbit-out", "OUT/classify_budget_orbit.csv",
         "--orbit-steps", "20"],
        ("classify_budget.json", "classify_budget_orbit.csv")),
    "fe_escaped": single("fe_escaped", "free-energy", *LF_DRIVER,
                         "--u0", "1", "--v0", "1"),
    "fe_sub": single("fe_sub", "free-energy", *LF_DRIVER,
                     "--u0", "0.01", "--v0", "-0.4"),
    "fe_near": single("fe_near", "free-energy", *LF_DRIVER,
                      "--u0", "0.0519", "--v0", "-0.3"),
    "fe_budget": single("fe_budget", "free-energy", *LF_DRIVER,
                        "--u0", H_LF_03, "--v0", "-0.3",
                        "--max-iter", "1000", code=1),
    "sandwich": Case(["lab", "sandwich", *LF_DRIVER, "--u0", "1", "--v0", "0",
                      "--out", "OUT/sandwich"], ("sandwich.json",)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lab_outputs_match_golden_bytes(name, tmp_path):
    case = CASES[name]
    assert main([a.replace("OUT", str(tmp_path)) for a in case.argv]) \
        == case.code
    for file in case.files:
        got = (tmp_path / file).read_bytes()
        assert got == (GOLDEN / file).read_bytes(), file
