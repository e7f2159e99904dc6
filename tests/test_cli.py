import json
import math

import numpy as np
import pytest

from drlab.cli import main


def run(args):
    return main(args)


def test_psi_info_lf(capsys):
    assert run(["psi", "--driver", "lf:p=0.5,z=1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["root"] - 1.0) < 1e-10
    assert out["psi_inf"] == 2.0


def test_psi_info_fig1(capsys):
    assert run(["psi", "--driver", "fig1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["domain_min"] == -0.5
    assert out["psi_at_0"] == 1.0


def test_malformed_atoms_exit_2(capsys):
    # probabilities sum to 0.9
    code = run(["psi", "--driver", "lf:p=0.5,z=1@0.5+2@0.4"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_driver_exit_2():
    assert run(["psi", "--driver", "warp"]) == 2


def test_classify_cli(capsys, tmp_path):
    orbit_path = tmp_path / "orbit.csv"
    code = run(["classify", "--driver", "fig1", "--u0", "0.1", "--v0", "-0.4",
                "--orbit-out", str(orbit_path), "--orbit-steps", "20"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "supercritical"
    lines = orbit_path.read_text().splitlines()
    assert lines[0] == "n,u,v,log_u" and len(lines) == 22


def test_curve_cli_writes_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code = run(["curve", "--driver", "fig1", "--A", "0.5", "--m", "400",
                "--out", str(path)])
    assert code == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,g,h,residual_local"
    data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    xs, g, h, res = data.T
    assert len(xs) == 401
    assert np.max(np.abs(h - 0.5 * xs * xs)) < 2e-3
    assert np.allclose(g, xs + h, atol=0)
    assert np.max(res) < 1e-5
    summary = json.loads((tmp_path / "curve.csv.json").read_text())
    assert summary["converged"]


def test_curve_nonconvergence_exit_1(tmp_path):
    path = tmp_path / "c.csv"
    code = run(["curve", "--driver", "fig1", "--m", "200", "--tol", "1e-15",
                "--max-sweeps", "3", "--out", str(path)])
    assert code == 1
    assert path.exists()  # flagged results still written


def test_curve_exact_sweep_mode_exit_0(tmp_path):
    # a requested sweep count is a regression run, not a convergence claim
    path = tmp_path / "s.csv"
    code = run(["curve", "--driver", "lf:p=0.5,z=1", "--K", "10",
                "--sweeps", "10", "--m", "200", "--out", str(path)])
    assert code == 0
    assert json.loads((tmp_path / "s.csv.json").read_text())["sweeps"] == 10


def test_free_energy_cli(capsys):
    code = run(["free-energy", "--driver", "lf:p=0.5,z=1",
                "--u0", "1", "--v0", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["value"] <= 1.0
    assert out["n_star"] == 0


def test_lf_orbit_csv(tmp_path):
    path = tmp_path / "lf.csv"
    code = run(["lf", "--p", "0.5", "--z", "1", "--alpha", "0.6",
                "--beta", "0.9", "--steps", "3", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,alpha,beta,u,v,P_ge_1"
    first = lines[1].split(",")
    assert float(first[1]) == 0.6 and float(first[2]) == 0.9
    second = lines[2].split(",")
    assert abs(float(second[1]) - 0.394737) < 1e-6


def test_clf_orbit_csv(tmp_path):
    path = tmp_path / "clf.csv"
    code = run(["clf", "--p", "0.5", "--z", "1", "--lam", "2.0",
                "--rho", "0.5", "--steps", "2", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,lambda,rho,u,v,P_gt_0"


def test_mc_validate_deterministic_reruns(tmp_path):
    args = ["mc", "validate", "--kind", "lf", "--p", "0.5", "--z", "1",
            "--alpha", "0.6", "--beta", "0.9", "--levels", "2",
            "--pool-size", "20000", "--seed", "42"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["passed"] and len(payload["reports"]) == 3


def test_mc_validate_thread_count_invariance(tmp_path):
    base = ["mc", "validate", "--kind", "clf", "--p", "0.5", "--z", "1",
            "--lam", "2.0", "--rho", "0.5", "--levels", "1",
            "--pool-size", "40000", "--seed", "9"]
    a = tmp_path / "t1.json"
    b = tmp_path / "t4.json"
    assert run(base + ["--threads", "1", "--out", str(a)]) == 0
    assert run(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lab_n_star_cli(capsys):
    code = run(["lab", "n-star", "--driver", "lf:p=0.5,z=1", "--v0", "0",
                "--eps", "1e-5", "--eps", "1e-6", "--m", "200"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["raw_last"] - math.pi / math.sqrt(2.0)) < 0.05
    assert out["target"] == pytest.approx(2.2214414690791831, rel=1e-12)


def test_lab_euler_cli_files(tmp_path):
    base = tmp_path / "euler"
    code = run(["lab", "euler", "--eps", "1e-6", "--t", "0.3", "--t", "0.7",
                "--out", str(base)])
    assert code == 0
    csv_lines = (tmp_path / "euler.csv").read_text().strip().splitlines()
    assert csv_lines[0].split(",")[0] == "eps"
    assert len(csv_lines) == 3
    summary = json.loads((tmp_path / "euler.json").read_text())
    assert summary["relative_gap"] < 0.02
    # CSV re-parses under the documented schema
    for line in csv_lines[1:]:
        assert all(float(x) == float(x) for x in line.split(","))


def test_lab_sandwich_cli(capsys):
    code = run(["lab", "sandwich", "--driver", "lf:p=0.5,z=1",
                "--u0", "1", "--v0", "0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["n_star"] == 0


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"driver": "lf:p=0.5,z=1", "u0": 1.0,
                               "v0": 1.0}))
    code = run(["free-energy", "--config", str(cfg), "--v0", "0.5"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] > 0.0


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"driver": "fig1", "wibble": 3}))
    assert run(["psi", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_required_value_exit_2():
    assert run(["classify", "--driver", "fig1"]) == 2
    assert run(["free-energy", "--driver", "fig1"]) == 2
    assert run(["lf", "--p", "0.5", "--z", "1"]) == 2


def test_z_flag_and_driver_spec_parse_atoms_alike():
    from drlab.cli import _model_from_args, build_parser
    from drlab.drivers import driver_from_spec
    args = build_parser().parse_args(
        ["mc", "validate", "--kind", "lf", "--p", "0.4",
         "--z", "1@0.5+2@0.5"])
    model = _model_from_args(args)
    psi, _ = driver_from_spec("lf:p=0.4,z=1@0.5+2@0.5")
    assert model.zspec.atoms == ((1, 0.5), (2, 0.5))
    assert model.psi.name == psi.name
    assert model.psi(-0.2) == psi(-0.2)


@pytest.mark.parametrize("v0,tol", [("0", "0"), ("-0.3", "-0.001")])
def test_lab_nonpositive_refine_tol_exit_2(v0, tol, capsys):
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", v0,
                "--eps", "1e-5", "--m", "100", "--refine-seed-tol", tol])
    assert code == 2
    assert "refine tol must be positive" in capsys.readouterr().err


def test_lab_at_origin_never_solves_a_curve(monkeypatch, tmp_path):
    import drlab.curve

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_curve called at v0 = 0")

    monkeypatch.setattr(drlab.curve, "solve_curve", no_solve)
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "0",
                "--eps", "1e-5", "--out", str(tmp_path / "cv")])
    assert code == 0
    assert json.loads((tmp_path / "cv.json").read_text())["rows"]


def test_lab_critical_diverged_exit_1(tmp_path):
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_fig1_psi
    # a curve lifted 0.01 above the exact h = x^2/2: the orbit escapes
    lifted = curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs + 0.01)
    curve_path = tmp_path / "lifted.csv"
    with open(curve_path, "w") as fh:
        write_curve_csv(lifted, make_fig1_psi(), fh)
    code = run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--curve", str(curve_path), "--n-max", "1000",
                "--out", str(tmp_path / "crit")])
    assert code == 1
    summary = json.loads((tmp_path / "crit.json").read_text())
    assert summary["flags"]["diverged"]
    assert (tmp_path / "crit.csv").exists()


def test_lab_unconverged_curve_exit_1(monkeypatch, tmp_path):
    import drlab.curve
    solve = drlab.curve.solve_curve

    def three_sweeps(psi, A, m, **kwargs):
        return solve(psi, A, m, tol=kwargs["tol"], max_sweeps=3)

    monkeypatch.setattr(drlab.curve, "solve_curve", three_sweeps)
    code = run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--m", "100", "--n-max", "1000",
                "--out", str(tmp_path / "crit")])
    assert code == 1
    summary = json.loads((tmp_path / "crit.json").read_text())
    assert not summary["flags"]["diverged"]  # the curve alone fails the run
    assert (tmp_path / "crit.csv").exists()


def _fig1_curve_lines():
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_fig1_psi
    import io
    buf = io.StringIO()
    write_curve_csv(curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs),
                    make_fig1_psi(), buf)
    return buf.getvalue().splitlines()


def _shuffled(rows):
    rng = np.random.default_rng(0)
    return [rows[0]] + [rows[1:][i] for i in rng.permutation(len(rows) - 1)]


def _with_nan_h(rows):
    x, g, _, res = rows[50].split(",")
    return rows[:50] + [",".join([x, g, "nan", res])] + rows[51:]


@pytest.mark.parametrize("mangle,v0", [
    pytest.param(_shuffled, "-0.3", id="shuffled"),
    pytest.param(lambda rows: rows[:195], "-0.01", id="stops-at-x=-0.015"),
    pytest.param(lambda rows: rows[:100] + rows[101:], "-0.3",
                 id="row-missing"),
    pytest.param(lambda rows: rows[-1:], "-0.3", id="single-row"),
    pytest.param(_with_nan_h, "-0.3", id="nan-h"),
])
def test_lab_rejects_a_malformed_curve_exit_2(tmp_path, capsys, mangle, v0):
    rows = _fig1_curve_lines()
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(rows[:1] + mangle(rows[1:])) + "\n")
    code = run(["lab", "c-star", "--driver", "fig1", "--v0", v0,
                "--eps", "1e-5", "--curve", str(path),
                "--out", str(tmp_path / "c")])
    assert code == 2
    assert "curve CSV" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_lab_reads_a_well_formed_curve(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(_fig1_curve_lines()) + "\n")
    code = run(["lab", "c-star", "--driver", "fig1", "--v0", "-0.3",
                "--eps", "1e-5", "--curve", str(path),
                "--out", str(tmp_path / "c")])
    assert code == 0
    cstar = json.loads((tmp_path / "c.json").read_text())["raw_last"]
    assert abs(cstar - 1.197) < 0.01
