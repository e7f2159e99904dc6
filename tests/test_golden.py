"""Golden outputs: CLI CSV and JSON files must stay byte-identical.

Each case runs one ``drlab`` command, checks its exit code and compares the
files it writes with the copies under ``tests/golden/``.  The copies are
made by ``PYTHONPATH=src python tests/test_golden.py NAME ...``, which
runs each named case with ``OUT`` standing for ``tests/golden`` after
:func:`write_inputs` has put the input files there, prints its exit code
and removes the inputs again.
A small grid (m = 200) keeps each lab command to a few seconds; the seeds
it yields are coarse, but the outputs are exactly reproducible, which is
all a golden file needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import drlab
from drlab import recursion
from drlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
LF = ["--driver", "lf:p=0.5,z=1", "--m", "200"]
EPS = ["--eps", "1e-5", "--eps", "1e-6"]
LF_DRIVER = ["--driver", "lf:p=0.5,z=1"]
H_LF_03 = "0.051806269642573365"  # on the lf curve at v = -0.3
NEAR_LF_03 = "0.051806269742573365"  # 1e-10 above it: a 2e5-step orbit
MC_MODEL = ["--p", "0.5", "--z", "1"]
MC_RUN = ["--levels", "2", "--pool-size", "20000", "--seed", "3",
          "--threads", "1"]
LIFTED = "OUT/lifted_fig1.csv"  # inputs, written by write_inputs
LOWERED = "OUT/lowered_fig1.csv"


def write_inputs(out: Path) -> list[Path]:
    """The input files of the cases, written into ``out``: fig1's exact
    curve x^2/2 on m = 200, ``LIFTED`` by 0.02 and ``LOWERED`` by 1e-6."""
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_fig1_psi
    paths = []
    for name, shift in ((LIFTED, 0.02), (LOWERED, -1e-6)):
        paths.append(Path(name.replace("OUT", str(out))))
        curve = curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs + shift)
        with open(paths[-1], "w") as fh:
            write_curve_csv(curve, make_fig1_psi(), fh)
    return paths


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
    # the m = 200 curve value sits 5.6e-5 above h: flagged seed_unresolved
    "c_star": lab("c_star", "c-star", *LF, "--v0", "-0.3", *EPS, code=1),
    "critical_fig1": lab("critical_fig1", "critical", "--driver", "fig1",
                         "--m", "200", "--v0", "-0.3", "--n-max", "10000",
                         code=1),  # the coarse seed escapes: flagged diverged
    # the seed on the lifted curve escapes at step 1: a CSV with no rows
    "critical_no_rows": lab("critical_no_rows", "critical", "--driver",
                            "fig1", "--v0", "-0.01", "--curve", LIFTED,
                            "--n-max", "1000", code=1),
    # the seed on the lowered curve collapses (u -> 0): flagged collapsed
    "critical_collapse": lab("critical_collapse", "critical", "--driver",
                             "fig1", "--v0", "-0.3", "--curve", LOWERED,
                             "--n-max", "10000", code=1),
    # the only summary with a float-keyed dict (flags.max_gap_by_eps)
    "euler": lab("euler", "euler"),
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
    "classify_near": single("classify_near", "classify", *LF_DRIVER,
                            "--u0", NEAR_LF_03, "--v0", "-0.3"),
    "curve_lf": Case(["curve", "--driver", "lf:p=0.5,z=1", "--m", "200",
                      "--out", "OUT/curve_lf.csv"],
                     ("curve_lf.csv", "curve_lf.csv.json")),
    "curve_clf": Case(["curve", "--driver", "clf:p=0.5,z=1", "--m", "200",
                       "--out", "OUT/curve_clf.csv"],
                      ("curve_clf.csv", "curve_clf.csv.json")),
    "sandwich": Case(["lab", "sandwich", *LF_DRIVER, "--u0", "1", "--v0", "0",
                      "--out", "OUT/sandwich"], ("sandwich.json",)),
    "psi_fig1_clamped": single("psi_fig1_clamped", "psi",
                               "--driver", "fig1-clamped"),
    "psi_affine": single("psi_affine", "psi", "--driver", "affine"),
    "psi_lf": single("psi_lf", "psi", *LF_DRIVER),
    "mc_lf": single("mc_lf", "mc", "validate", "--kind", "lf", *MC_MODEL,
                    "--alpha", "0.6", "--beta", "0.9", *MC_RUN),
    "mc_clf": single("mc_clf", "mc", "validate", "--kind", "clf", *MC_MODEL,
                     "--lam", "2", "--rho", "0.5", *MC_RUN),
    "orbit_lf": Case(["lf", *MC_MODEL, "--alpha", "0.6", "--beta", "0.9",
                      "--steps", "20", "--out", "OUT/orbit_lf.csv"],
                     ("orbit_lf.csv",)),
    "orbit_clf": Case(["clf", *MC_MODEL, "--lam", "2", "--rho", "0.5",
                       "--steps", "20", "--out", "OUT/orbit_clf.csv"],
                      ("orbit_clf.csv",)),
}


def _check_case(name: str, out: Path) -> None:
    """Run case ``name`` in ``out`` and compare its exit code and files."""
    case = CASES[name]
    write_inputs(out)
    assert main([a.replace("OUT", str(out)) for a in case.argv]) == case.code
    for file in case.files:
        got = (out / file).read_bytes()
        assert got == (GOLDEN / file).read_bytes(), file


@pytest.mark.parametrize("name", sorted(CASES))
def test_lab_outputs_match_golden_bytes(name, tmp_path):
    _check_case(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_without_the_library(name, tmp_path, monkeypatch):
    """The same files from the Python oracles of every C path: the orbit
    loops, the march, the drivers on arrays, the table rows and the Monte
    Carlo passes."""
    monkeypatch.setattr(recursion, "_native", False)
    _check_case(name, tmp_path)


def _avx512_targets() -> list:
    """numpy's AVX-512 dispatch targets that this CPU runs, if any."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__
            if (t == "X86_V4" or t.startswith("AVX512"))
            and __cpu_features__.get(t)]


AVX512 = _avx512_targets()


# runs every case in one interpreter, each writing into the directory argv[1]
_RUN_ALL = """
import json, sys
from drlab.cli import main
out = sys.argv[1]
cases = json.load(sys.stdin)
codes = {name: main([a.replace("OUT", out) for a in argv])
         for name, argv in cases.items()}
with open(out + "/codes.json", "w") as fh:
    json.dump(codes, fh)
"""


@pytest.fixture(scope="module")
def without_avx512(tmp_path_factory):
    """The directory of every case's files, written by one subprocess with
    numpy's AVX-512 kernels disabled, and each case's exit code."""
    out = tmp_path_factory.mktemp("no_avx512")
    write_inputs(out)
    src = str(Path(drlab.__file__).parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, str(out)], env=env,
        input=json.dumps({name: case.argv for name, case in CASES.items()}),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads((out / "codes.json").read_text())


@pytest.mark.skipif(not AVX512, reason="numpy dispatches no AVX-512 target")
@pytest.mark.parametrize("name", sorted(CASES))
def test_curve_golden_does_not_depend_on_numpy_simd(name, without_avx512):
    """Every golden file is the same with numpy's AVX-512 kernels disabled.

    The curve is marched with the scalar libm driver, and the certifying
    sweep, K and the residuals evaluate that same function on arrays.  The
    orbits and seeds run scalar code.  The Monte Carlo reports keep only
    counts and means of their pools, which came out the same both ways,
    although numpy's SIMD ``log`` moves single samples of a CLF pool.
    """
    out, codes = without_avx512
    case = CASES[name]
    assert codes[name] == case.code
    for file in case.files:
        assert (out / file).read_bytes() == (GOLDEN / file).read_bytes(), file


if __name__ == "__main__":
    # python tests/test_golden.py NAME ...: re-capture the named cases
    inputs = write_inputs(GOLDEN)
    try:
        for name in sys.argv[1:]:
            print(name, main([a.replace("OUT", str(GOLDEN))
                              for a in CASES[name].argv]))
    finally:
        for path in inputs:
            path.unlink()
