import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from drlab.cli import _COMMANDS, _DEFAULTS, _FLAGS, build_parser, main


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


@pytest.mark.parametrize("spec", ["fig1:p=0.3,z=2", "affine:z=0.5@0.5"])
def test_options_on_a_fixed_driver_exit_2(spec, capsys):
    assert run(["psi", "--driver", spec]) == 2
    assert "takes no options" in capsys.readouterr().err


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


def test_curve_nonconvergence_exit_1(tmp_path, monkeypatch):
    # a tol below the marched curve's residual_sup (about 5e-17): the curve
    # is written but not claimed converged
    import drlab.curve
    monkeypatch.setattr(drlab.curve, "_CERT_TOL", 1e-20)
    path = tmp_path / "c.csv"
    code = run(["curve", "--driver", "fig1", "--m", "200",
                "--out", str(path)])
    assert code == 1
    assert path.exists()  # flagged results still written
    summary = json.loads((tmp_path / "c.csv.json").read_text())
    assert not summary["converged"] and summary["residual_sup"] >= 1e-20
    assert not {"K", "sweeps", "sup_change_last", "clamp_last"} & set(summary)


def test_curve_sweep_budget_is_gone_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["curve", "--driver", "fig1", "--max-sweeps", "0"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_sweeps": 0}))
    assert run(["curve", "--driver", "fig1", "--config", str(cfg)]) == 2
    assert "unknown config keys ['max_sweeps']" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--K", 10), ("--sweeps", 5),
                                        ("--tol", 1e-20)])
def test_curve_solver_settings_are_gone_exit_2(tmp_path, capsys, flag, value):
    # the march and its certificate take no damping constant, sweep count
    # or tolerance
    with pytest.raises(SystemExit) as exc:
        run(["curve", "--driver", "fig1", flag, str(value)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    assert run(["curve", "--driver", "fig1", "--config", str(cfg)]) == 2
    assert f"unknown config keys [{flag[2:]!r}]" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["curve", "--driver", "fig1", "--A", "nan"],
     "A=nan must be positive and finite"),
    (["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0=-0.3", "--A", "nan"],
     "A=nan must be positive and finite"),
    (["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "nan"],
     "v0=nan is not a number"),
], ids=["curve-A", "lab-c-v-A", "lab-c-v-v0"])
def test_a_nan_A_or_v0_exit_2(argv, message, capsys):
    # a NaN A used to reach the march and exit 1 with no root at x=nan; a
    # NaN v0 was refused as "a seed below the origin needs a curve"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["lab", "euler", "--eps", "nan"], "eps=nan must be positive and finite"),
    (["lab", "n-star", "--driver", "lf:p=0.5,z=1", "--eps", "nan", "--m",
      "200"], "eps=nan must be positive and finite"),
    (["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--eps", "inf"],
     "eps=inf must be positive and finite"),
], ids=["euler", "n-star", "c-v"])
def test_a_nan_or_infinite_eps_exit_2(argv, message, capsys):
    # a NaN eps used to be refused as a bad u0, and an infinite one ran
    # c-v to exit 0 with c_hat -inf
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,value", [
    (["psi", "--driver", "lf:p=0.5,z=inf"], "inf"),
    (["psi", "--driver", "lf:p=0.5,z=1e400"], "inf"),
    (["psi", "--driver", "lf:p=0.5,z=-inf"], "-inf"),
    (["psi", "--driver", "lf:p=0.5,z=nan"], "nan"),
    (["mc", "validate", "--kind", "lf", "--z", "inf", "--alpha", "0.6",
      "--beta", "0.9"], "inf"),
], ids=["inf", "overflow", "-inf", "nan", "mc"])
def test_a_non_finite_lf_atom_exit_2(argv, value, capsys):
    # an infinite atom used to exit 1 converting it to an integer, and a NaN
    # one exit 2 with Python's own conversion message
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"atom value {value} is not a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["clf", "--lam", "inf", "--rho", "0.5", "--steps", "2"], "lam=inf"),
    (["mc", "validate", "--kind", "clf", "--lam", "inf", "--rho", "0.5",
      "--levels", "1", "--pool-size", "20000"], "lam=inf"),
    (["lf", "--alpha", "inf", "--beta", "1"], "alpha=inf"),
    (["lf", "--alpha", "0.6", "--beta", "inf"], "beta=inf"),
], ids=["clf", "mc-clf", "lf-alpha", "lf-beta"])
def test_a_non_finite_start_law_exit_2(argv, message, capsys):
    # an infinite clf rate used to run on a point mass at 0 (exit 0, or NaN
    # predictions in mc validate); an infinite lf alpha exited 1 dividing by
    # zero, and an infinite beta was refused as alpha=nan
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"{message} must be finite" in captured.err and captured.out == ""


def test_lab_euler_nan_t_exit_2(capsys):
    # it used to fail converting the NaN step count to an integer
    assert run(["lab", "euler", "--t", "nan"]) == 2
    captured = capsys.readouterr()
    assert "t=nan must be nonnegative" in captured.err and captured.out == ""


@pytest.mark.parametrize("spec,key", [("lf:p=0.3,p=0.5,z=1", "p"),
                                      ("lf:p=0.5,z=1,z=2", "z")])
def test_a_repeated_driver_option_exit_2(spec, key, capsys):
    # the last value used to win in silence
    assert run(["psi", "--driver", spec]) == 2
    captured = capsys.readouterr()
    assert f"driver option {key!r} given twice" in captured.err
    assert captured.out == ""


_LF_START = ["--driver", "lf:p=0.5,z=1", "--u0", "0.051806269642573365",
             "--v0", "-0.3"]
_LF_LAW = ["--p", "0.5", "--z", "1", "--alpha", "0.6", "--beta", "0.9"]
_MC = ["mc", "validate", "--kind", "lf", *_LF_LAW, "--pool-size", "20000"]


@pytest.mark.parametrize("argv,name", [
    (["free-energy", *_LF_START, "--max-iter", "-1"], "max_iter"),
    (["classify", *_LF_START, "--max-iter", "-1"], "max_iter"),
    (["classify", *_LF_START, "--orbit-out", "ORBIT", "--orbit-steps", "-5"],
     "--orbit-steps"),
    (["lf", *_LF_LAW, "--steps", "-3", "--out", "ORBIT"], "--steps"),
    ([*_MC, "--levels", "-1"], "levels"),
    ([*_MC, "--threads", "-3"], "threads"),
    ([*_MC, "--seed", "-1"], "seed"),
], ids=["free-energy-max-iter", "classify-max-iter", "orbit-steps", "steps",
        "levels", "threads", "seed"])
def test_a_negative_budget_count_or_seed_exit_2(argv, name, tmp_path, capsys):
    # rejected before any output is written
    orbit_csv = tmp_path / "orbit.csv"
    assert run([str(orbit_csv) if a == "ORBIT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert f"{name} must be" in captured.err
    assert captured.out == "" and not orbit_csv.exists()


def test_a_zero_budget_or_count_keeps_its_output(tmp_path, capsys):
    assert run(["free-energy", *_LF_START, "--max-iter", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["n_star"] is None
    path = tmp_path / "orbit.csv"
    assert run(["classify", *_LF_START, "--orbit-out", str(path),
                "--orbit-steps", "0"]) == 0
    assert len(path.read_text().splitlines()) == 2  # header and the start
    assert run(["lf", *_LF_LAW, "--steps", "0", "--out", str(path)]) == 0
    assert len(path.read_text().splitlines()) == 2
    capsys.readouterr()
    assert run([*_MC, "--levels", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 1


def test_free_energy_cli(capsys):
    code = run(["free-energy", "--driver", "lf:p=0.5,z=1",
                "--u0", "1", "--v0", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["value"] <= 1.0
    assert out["n_star"] == 0


def test_free_energy_upper_past_the_float_range_cli(capsys):
    code = run(["free-energy", "--driver", "lf:p=0.5,z=1",
                "--u0", "1e308", "--v0", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["upper"] == "inf" and math.isfinite(out["log_upper"])


def test_arithmetic_error_is_a_numeric_error_exit_1(monkeypatch, capsys):
    import drlab.cli

    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(drlab.cli, "free_energy", overflow)
    code = run(["free-energy", "--driver", "lf:p=0.5,z=1",
                "--u0", "1", "--v0", "1"])
    assert code == 1
    assert "numeric error: math range error" in capsys.readouterr().err


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


def test_a_non_finite_model_orbit_exits_1(tmp_path, capsys):
    # a rate of 1e-320 passes the law's checks, but the mean rho/lam
    # overflows: the rows are still written, and the run fails on them
    path = tmp_path / "clf.csv"
    assert run(["clf", "--lam", "1e-320", "--rho", "0.5", "--steps", "2",
                "--out", str(path)]) == 1
    assert capsys.readouterr().err == (
        "numeric error: clf orbit: u=inf, v=inf at step 0\n")
    assert len(path.read_text().splitlines()) == 4
    # u about 5e299 is large but finite
    assert run(["lf", "--alpha", "1e-300", "--beta", "1", "--steps", "2",
                "--out", str(tmp_path / "lf.csv")]) == 0


@pytest.mark.parametrize("args,step,rows", [
    (["lf", "--alpha", "1e-300", "--beta", "1"], 28, 78),
    (["clf", "--lam", "1e-300", "--rho", "0.5"], 29, 80),
    (["clf", "--lam", "5e-324", "--rho", "0.5"], 0, 1)],
    ids=["lf-alpha-1e-300", "clf-lam-1e-300", "clf-lam-5e-324"])
def test_an_overflowing_model_orbit_keeps_its_rows(tmp_path, capsys, args,
                                                   step, rows):
    # alpha (lf) or lambda (clf) shrinks along the orbit until a map of the
    # parameters fails (p alpha rounds to 0; lambda to 0): the orbit ends
    # there, its rows are written, and the first non-finite one is named
    path = tmp_path / "orbit.csv"
    assert run([*args, "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {args[0]} orbit: u=")
    assert err.endswith(f", v=inf at step {step}\n")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + rows
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(rows))


def test_a_failed_model_step_before_any_non_finite_row_is_an_error(
        monkeypatch, capsys):
    import drlab.cli

    def fail(params, model):
        raise ValueError("a broken step")

    monkeypatch.setattr(drlab.cli, "model_step", fail)
    assert run(["lf", "--alpha", "0.6", "--beta", "0.9"]) == 2
    assert capsys.readouterr() == ("", "error: a broken step\n")


@pytest.mark.parametrize("size", [0, 1000, 9999])
def test_mc_validate_refuses_a_small_pool_before_drawing(size, monkeypatch,
                                                         capsys):
    import drlab.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("a pool was drawn")

    monkeypatch.setattr(drlab.montecarlo, "_fill_blocks", no_draw)
    assert run(["mc", "validate", "--kind", "clf", "--lam", "2", "--rho",
                "0.5", "--levels", "0", "--pool-size", str(size)]) == 2
    assert capsys.readouterr().err == (
        f"error: need a pool of at least 10000 samples, got {size}\n")


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


def test_lab_euler_writes_a_row_per_t_on_a_shared_step(tmp_path):
    # both t fall on step 3 at eps 1e-2
    code = run(["lab", "euler", "--eps", "1e-2", "--t", "0.31", "--t", "0.35",
                "--out", str(tmp_path / "euler")])
    assert code == 0
    lines = (tmp_path / "euler.csv").read_text().splitlines()
    assert [line.split(",")[1:3] for line in lines[1:]] == [
        ["0.31", "3"], ["0.34999999999999998", "3"]]


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


def test_successive_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process, so each call must parse afresh
    assert build_parser() is build_parser()
    for _ in range(2):  # --eps lists do not accumulate across calls
        assert run(["lab", "euler", "--eps", "1e-6", "--t", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"] == {"eps": [1e-6], "t": [0.3]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "z": "1", "alpha": 0.6,
                               "beta": 0.9, "steps": 2}))
    path = tmp_path / "lf.csv"
    assert run(["lf", "--config", str(cfg), "--out", str(path)]) == 0
    assert len(path.read_text().splitlines()) == 1 + 3
    # config values do not carry over: no alpha, beta or steps of cfg
    assert run(["lf", "--p", "0.5", "--z", "1"]) == 2
    assert "lf orbit requires --alpha and --beta" in capsys.readouterr().err
    assert run(["lf", "--p", "0.5", "--z", "1", "--alpha", "0.6",
                "--beta", "0.9", "--out", str(path)]) == 0
    assert len(path.read_text().splitlines()) == 1 + 101


@pytest.mark.parametrize("kind,flags,message", [
    ("lf", ["--alpha", "0.6"], "lf orbit requires --alpha and --beta"),
    ("clf", ["--rho", "0.5"], "clf orbit requires --lam and --rho"),
    ("mc", ["--kind", "lf", "--beta", "0.9"],
     "mc validate (lf) requires --alpha and --beta"),
    ("mc", ["--kind", "clf", "--lam", "2"],
     "mc validate (clf) requires --lam and --rho"),
])
def test_start_parameters_are_required(kind, flags, message, capsys):
    argv = [kind] + (["validate"] if kind == "mc" else [])
    assert run(argv + ["--p", "0.5", "--z", "1", *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"driver": "fig1", "wibble": 3}))
    assert run(["psi", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["LF", "gauss", 1])
def test_config_value_outside_the_choices_exit_2(tmp_path, capsys, kind):
    # as --kind LF on the command line does, not a CLF run that exits 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind}))
    args = ["mc", "validate", "--config", str(cfg), "--p", "0.5", "--z", "1",
            "--lam", "2", "--rho", "0.5", "--levels", "1",
            "--pool-size", "20000"]
    assert run(args) == 2
    err = capsys.readouterr()
    assert "config key 'kind': invalid choice" in err.err and err.out == ""
    with pytest.raises(SystemExit) as exc:
        run(["mc", "validate", "--kind", "LF"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cfg,err", [
    ({"levels": 1.5}, "config key 'levels': 1.5 is not an integer"),
    ({"pool_size": "20000"}, "config key 'pool_size': '20000' is not an integer"),
    ({"seed": True}, "config key 'seed': True is not an integer"),
    ({"p": "0.5"}, "config key 'p': '0.5' is not a number"),
    ({"z": 1}, "config key 'z': 1 is not a string")])
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, cfg, err):
    # as --levels 1.5 on the command line does, not one level and exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["mc", "validate", "--config", str(path), "--kind", "clf",
            "--p", "0.5", "--z", "1", "--lam", "2", "--rho", "0.5",
            "--levels", "1", "--pool-size", "20000", "--seed", "1"]
    assert run(args) == 2
    out = capsys.readouterr()
    assert err in out.err and out.out == ""


def test_config_values_convert_as_their_flags_do(tmp_path, capsys):
    # an integer for a float flag, and a list for a repeatable flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"driver": "lf:p=0.5,z=1", "v0": 0,
                                "eps": [1e-6, 1e-7]}))
    assert run(["lab", "c-v", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "0",
                "--eps", "1e-6", "--eps", "1e-7"]) == 0
    assert capsys.readouterr().out == from_config
    path.write_text(json.dumps({"eps": 1e-6}))
    assert run(["lab", "c-v", "--config", str(path)]) == 2
    assert "config key 'eps': 1e-06 is not a list" in capsys.readouterr().err


def test_missing_required_value_exit_2():
    assert run(["classify", "--driver", "fig1"]) == 2
    assert run(["free-energy", "--driver", "fig1"]) == 2
    assert run(["lf", "--p", "0.5", "--z", "1"]) == 2


def test_z_flag_and_driver_spec_parse_atoms_alike():
    from drlab.cli import _model_and_start, build_parser
    from drlab.drivers import driver_from_spec
    args = build_parser().parse_args(
        ["mc", "validate", "--kind", "lf", "--p", "0.4",
         "--z", "1@0.5+2@0.5", "--alpha", "0.6", "--beta", "0.9"])
    model, _, _ = _model_and_start(args, "lf", "mc validate")
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


@pytest.mark.parametrize("v0,tol,message", [
    ("-0.3", "inf", "positive and finite"), ("0", "inf", "positive and finite"),
    ("-0.3", "nan", "positive and finite"), ("-0.3", "0.3", "below -v0"),
    ("-0.3", "1", "below -v0"), ("-0.3", "1e-18", "float spacing")])
def test_lab_unbounded_refine_tol_exit_2(v0, tol, message, capsys):
    # a tol as wide as the bracket [0, -v0] certifies its midpoint unprobed;
    # one below ulp(-v0) = 5.6e-17 at -0.3 is finer than the floats near
    # the bracket's end, and is refused before any classification
    start = time.perf_counter()
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", v0,
                "--eps", "1e-5", "--m", "200", "--refine-seed-tol", tol])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_lab_seed_at_the_origin_is_not_refined(tmp_path):
    # h(0) = 0 is exact, so a given tol refines nothing
    code = run(["lab", "n-star", "--driver", "lf:p=0.5,z=1", "--v0", "0",
                "--eps", "1e-6", "--refine-seed-tol", "1e-9",
                "--out", str(tmp_path / "ns")])
    assert code == 0
    summary = json.loads((tmp_path / "ns.json").read_text())
    assert summary["flags"]["seed_refined"] is False


def test_lab_unresolved_seed_exit_1(tmp_path):
    # the m = 1000 curve sits 5.2e-6 above h(-0.3), far more than eps
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "-0.3",
                "--eps", "1e-6", "--eps", "1e-7", "--eps", "1e-8",
                "--out", str(tmp_path / "cv")])
    assert code == 1
    summary = json.loads((tmp_path / "cv.json").read_text())
    assert summary["flags"]["seed_unresolved"] is True


def test_lab_uncertified_refined_seed_exit_1(monkeypatch, tmp_path, capsys):
    # a classifier that decides nothing within its budget, as a start far
    # closer to h than the budget resolves would: the search certifies no
    # bracket, and the command says so
    import drlab.lab
    from drlab.recursion import PhaseLabel
    monkeypatch.setattr(drlab.lab, "classify_detail",
                        lambda *args, **kwargs: (PhaseLabel.UNDETERMINED, None))
    monkeypatch.setattr(drlab.lab, "classify_many",
                        lambda us, *args, **kwargs:
                        [(PhaseLabel.UNDETERMINED, None)] * len(us))
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "-0.3",
                "--eps", "1e-5", "--m", "200", "--refine-seed-tol", "1e-9",
                "--out", str(tmp_path / "cv")])
    assert code == 1
    assert "could not certify h(-0.3)" in capsys.readouterr().err


@pytest.mark.parametrize("driver", ["lf:p=0.5,z=1", "clf:p=0.5,z=1"])
def test_lab_c_v_at_the_origin_reaches_eps_1e_12(driver, tmp_path):
    # h(0) = 0 exactly, so no seed error limits eps: the two-point limit
    # over eps = 1e-5 ... 1e-12 meets (pi/sqrt 2) log psi(inf) within 1e-5
    eps = [arg for k in range(5, 13) for arg in ("--eps", f"1e-{k}")]
    code = run(["lab", "c-v", "--driver", driver, "--v0", "0", *eps,
                "--out", str(tmp_path / "cv")])
    assert code == 0
    summary = json.loads((tmp_path / "cv.json").read_text())
    assert "eps_below_floor" not in summary["flags"]
    assert summary["relative_gap"] < 1e-5


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


def test_lab_critical_collapsed_exit_1(tmp_path):
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_fig1_psi
    # a curve lowered 1e-6 below the exact h = x^2/2: the orbit collapses
    lowered = curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs - 1e-6)
    curve_path = tmp_path / "lowered.csv"
    with open(curve_path, "w") as fh:
        write_curve_csv(lowered, make_fig1_psi(), fh)
    code = run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--curve", str(curve_path), "--n-max", "100000",
                "--out", str(tmp_path / "crit")])
    assert code == 1
    summary = json.loads((tmp_path / "crit.json").read_text())
    assert summary["flags"]["collapsed"] is True
    assert summary["flags"]["diverged"] is False
    assert summary["target"] is None


def test_lab_critical_unresolved_seed_at_a_million_steps_exit_1(tmp_path):
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_fig1_psi
    # a curve lifted 1e-12 above the exact h = x^2/2: at n_max 10^6 the
    # seed check's lower start escapes only after 2.3e6 steps
    lifted = curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs + 1e-12)
    curve_path = tmp_path / "lifted.csv"
    with open(curve_path, "w") as fh:
        write_curve_csv(lifted, make_fig1_psi(), fh)
    code = run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--curve", str(curve_path), "--n-max", "1000000",
                "--out", str(tmp_path / "crit")])
    assert code == 1
    flags = json.loads((tmp_path / "crit.json").read_text())["flags"]
    assert flags["seed_unresolved"] is True
    assert not (flags["diverged"] or flags["collapsed"])


@pytest.mark.parametrize("tol,code", [("1e-9", 1), ("1e-11", 0)])
def test_lab_critical_refine_tol_against_n_max(tmp_path, tol, code):
    # at the default n_max 10^5 a seed is resolved for tol / 2 <= 2.5e-11
    assert run(["lab", "critical", "--driver", "lf:p=0.5,z=1",
                "--v0", "-0.3", "--refine-seed-tol", tol,
                "--out", str(tmp_path / "crit")]) == code
    flags = json.loads((tmp_path / "crit.json").read_text())["flags"]
    assert flags["seed_unresolved"] is bool(code)
    assert not (flags["diverged"] or flags["collapsed"])


@pytest.mark.parametrize("experiment", ["c-v", "n-star", "c-star"])
def test_lab_stopping_pass_without_its_hit_exit_1(monkeypatch, tmp_path,
                                                  experiment):
    import functools

    import drlab.lab
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import driver_from_spec
    # h = 0 puts every start below the curve: the orbit never reaches v > 0
    # nor n*, and the stopping pass spends its budget (cut to 10^4 here)
    zero = curve_from_h(0.5, 200, lambda xs: 0.0 * xs)
    curve_path = tmp_path / "zero.csv"
    with open(curve_path, "w") as fh:
        write_curve_csv(zero, driver_from_spec("lf:p=0.5,z=1")[0], fh)
    monkeypatch.setattr(drlab.lab, "stopping_times", functools.partial(
        drlab.lab.stopping_times, max_iter=10 ** 4))
    code = run(["lab", experiment, "--driver", "lf:p=0.5,z=1", "--v0", "-0.3",
                "--curve", str(curve_path), "--eps", "1e-6", "--eps", "1e-7",
                "--out", str(tmp_path / "lab")])
    assert code == 1
    summary = json.loads((tmp_path / "lab.json").read_text())
    assert summary["raw_last"] == "nan"
    assert (tmp_path / "lab.csv").exists()


@pytest.mark.parametrize("experiment", ["c-v", "n-star"])
def test_lab_scan_from_the_stopping_level_exit_1(capsys, experiment):
    # at v0 = 0 a start eps >= 1 is already at n*'s level: n* = 0, no law
    code = run(["lab", experiment, "--driver", "lf:p=0.5,z=1",
                "--eps", "1e300", "--eps", "1", "--eps", "1e-4"])
    captured = capsys.readouterr()
    assert code == 1
    assert [row["n_star"] for row in json.loads(captured.out)["rows"]][:2] \
        == [0, 0]
    assert captured.err == (
        "failed: eps=1e+300 starts at the stopping level (n_star 0); "
        "eps=1.0 starts at the stopping level (n_star 0)\n")


def test_lab_scan_that_holds_prints_nothing_on_stderr(capsys):
    assert run(["lab", "c-v", "--driver", "lf:p=0.5,z=1",
                "--eps", "1e-4", "--eps", "1e-5"]) == 0
    assert capsys.readouterr().err == ""


def test_lab_unconverged_curve_exit_1(monkeypatch, tmp_path):
    import drlab.curve
    monkeypatch.setattr(drlab.curve, "_CERT_TOL", 1e-20)
    # the seed is refined, so the orbit starts on the curve even though
    # the coarse marched h(-0.3) lies just above it and would escape
    code = run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--m", "100", "--n-max", "1000", "--refine-seed-tol", "1e-9",
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
    pytest.param(None, "-0.3", id="empty-file"),
])
def test_lab_rejects_a_malformed_curve_exit_2(tmp_path, capsys, mangle, v0):
    rows = _fig1_curve_lines()
    path = tmp_path / "curve.csv"
    path.write_text("" if mangle is None else
                    "\n".join(rows[:1] + mangle(rows[1:])) + "\n")
    code = run(["lab", "c-star", "--driver", "fig1", "--v0", v0,
                "--eps", "1e-5", "--curve", str(path),
                "--out", str(tmp_path / "c")])
    assert code == 2
    assert "curve CSV" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("refine", [[], ["--refine-seed-tol", "1e-9"]],
                         ids=["curve-seed", "refined-seed"])
def test_lab_names_a_negative_curve_seed_exit_2(tmp_path, capsys, refine):
    from drlab.curve import curve_from_h, write_curve_csv
    from drlab.drivers import make_affine_psi
    # h = -0.01 below the origin: the file is well formed, its seed is not
    # (the residual column, written on the affine driver, is not read)
    neg = curve_from_h(0.5, 200, lambda xs: np.where(xs < 0.0, -0.01, 0.0))
    path = tmp_path / "neg.csv"
    with open(path, "w") as fh:
        write_curve_csv(neg, make_affine_psi(), fh)
    code = run(["lab", "c-v", "--driver", "lf:p=0.5,z=1", "--v0", "-0.3",
                "--curve", str(path), "--eps", "1e-6", "--eps", "1e-7",
                "--out", str(tmp_path / "c")] + refine)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the curve gives h(-0.3) = -0.01, but h >= 0\n")
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


def _readme_commands() -> list:
    """Every ``drlab ...`` line of the README's shell blocks, with
    backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = text.split("```sh\n")[1:]
    lines = []
    for block in blocks:
        joined = block.split("```")[0].replace("\\\n", " ")
        lines += [line for line in joined.splitlines()
                  if line.startswith("drlab ")]
    return lines


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# ---------------------------------------------------------------------------
# defaults: what a run without the flag hands to the library
# ---------------------------------------------------------------------------

class _Recorded(Exception):
    """Raised by a recording stub once it has stored its arguments."""


def _record(monkeypatch, owner, name, *, stop=True) -> dict:
    """Replace ``owner.name`` by a stub that stores its arguments under
    ``name`` and then raises _Recorded, or calls the original if not
    ``stop``; returns the dict the arguments go to."""
    real, seen = getattr(owner, name), {}

    def stub(*args, **kwargs):
        seen[name] = args, kwargs
        if stop:
            raise _Recorded
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, stub)
    return seen


def _recorded_run(argv) -> None:
    with pytest.raises(_Recorded):
        main(argv)


@pytest.mark.parametrize("command,call", [("classify", "classify_detail"),
                                          ("free-energy", "free_energy")])
def test_default_max_iter(monkeypatch, command, call):
    import drlab.cli
    seen = _record(monkeypatch, drlab.cli, call)
    _recorded_run([command, "--driver", "fig1", "--u0", "0.1", "--v0", "-0.4"])
    assert seen[call][1]["max_iter"] == 10 ** 6


def test_default_orbit_steps(monkeypatch, tmp_path):
    import drlab.cli
    seen = _record(monkeypatch, drlab.cli, "orbit")
    _recorded_run(["classify", "--driver", "fig1", "--u0", "0.1", "--v0",
                   "-0.4", "--orbit-out", str(tmp_path / "orbit.csv")])
    assert seen["orbit"][0][3] == 100


@pytest.mark.parametrize("argv", [["curve"], ["lab", "critical", "--v0", "-0.3"]])
def test_default_curve_grid(monkeypatch, argv):
    import drlab.curve
    seen = _record(monkeypatch, drlab.curve, "solve_curve")
    _recorded_run(argv + ["--driver", "fig1"])
    args, kwargs = seen["solve_curve"]
    assert args[1:] == (0.5, 1000) and not kwargs


@pytest.mark.parametrize("kind", ["lf", "clf"])
def test_default_model_orbit(monkeypatch, tmp_path, kind):
    import drlab.cli
    seen = _record(monkeypatch, drlab.cli, "model_to_uv", stop=False)
    start = ["--alpha", "0.6", "--beta", "0.9"] if kind == "lf" else \
        ["--lam", "2", "--rho", "0.5"]
    path = tmp_path / "orbit.csv"
    assert main([kind, *start, "--out", str(path)]) == 0
    _, model = seen["model_to_uv"][0]
    assert (model.p, model.zspec.atoms) == (0.5, ((1.0, 1.0),))
    assert model.zspec.integer == (kind == "lf")
    assert len(path.read_text().splitlines()) == 1 + 101


def test_default_mc_validate(monkeypatch):
    import drlab.cli
    from drlab.models import LFParams
    seen = _record(monkeypatch, drlab.cli, "run_validation")
    _recorded_run(["mc", "validate", "--alpha", "0.6", "--beta", "0.9"])
    model, params0, *run = seen["run_validation"][0]
    assert (model.p, model.zspec.atoms) == (0.5, ((1.0, 1.0),))
    assert params0 == LFParams(0.6, 0.9)  # kind lf
    assert run == [3, 10 ** 5, 0, 1]  # levels, pool size, seed, threads


def test_default_lab_critical(monkeypatch):
    import drlab.lab
    seen = _record(monkeypatch, drlab.lab, "critical_asymptotics")
    _recorded_run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                   "--m", "200"])
    assert seen["critical_asymptotics"][0][2] == 10 ** 5  # n_max


@pytest.mark.parametrize("experiment", ["critical", "c-star"])
def test_lab_without_its_start_below_the_origin_exit_2(monkeypatch, capsys,
                                                       experiment):
    # both need v0 < 0, so neither has a default --v0; nothing is solved
    # before the error
    import drlab.curve
    seen = _record(monkeypatch, drlab.curve, "solve_curve")
    assert run(["lab", experiment, "--driver", "fig1"]) == 2
    assert f"lab {experiment} requires --v0 < 0" in capsys.readouterr().err
    assert not seen


@pytest.mark.parametrize("experiment,call", [
    ("n-star", "n_star_scaling"), ("c-star", "c_star_estimate"),
    ("c-v", "c_v_estimate")])
def test_default_lab_eps(monkeypatch, experiment, call):
    import drlab.lab
    seed = _record(monkeypatch, drlab.lab, "make_seed", stop=False)
    seen = _record(monkeypatch, drlab.lab, call)
    # c-star has no default --v0; n-star and c-v default to 0
    v0 = -0.3 if experiment == "c-star" else 0.0
    given = ["--v0", "-0.3", "--m", "200"] if v0 else []
    _recorded_run(["lab", experiment, "--driver", "fig1", *given])
    assert seed["make_seed"][0][1] == v0
    assert seen[call][0][2] == [1e-6]


def test_default_lab_euler(monkeypatch):
    import drlab.lab
    seen = _record(monkeypatch, drlab.lab, "euler_tan_check")
    _recorded_run(["lab", "euler"])
    assert seen["euler_tan_check"][0] == ([1e-6, 1e-8], [0.3, 0.7, 1.0])


# ---------------------------------------------------------------------------
# each command accepts only the flags it reads
# ---------------------------------------------------------------------------

def _unread_flags():
    return [pytest.param(name, flag, id=f"{name}-{flag}")
            for name, (_, _, reads) in _COMMANDS.items()
            for flag in _FLAGS
            if flag not in ("--config", "--out", *reads)]


def test_settable_pairs_are_the_flags_read():
    assert len(_COMMANDS) == 13
    assert sum(len(reads) for _, _, reads in _COMMANDS.values()) == 68
    # 25 flags besides --config and --out
    assert len(_unread_flags()) == 13 * 25 - 68


def test_every_flag_and_default_is_read_by_a_command():
    # a flag or default left behind by a removed option fails here
    read = {flag for _, _, reads in _COMMANDS.values() for flag in reads}
    assert set(_FLAGS) - {"--config", "--out"} == read
    dests = {flag[2:].replace("-", "_") for flag in read}
    assert set(_DEFAULTS) <= dests


@pytest.mark.parametrize("name,flag", _unread_flags())
def test_a_flag_the_command_does_not_read_exit_2(tmp_path, capsys, name,
                                                 flag):
    # also where it abbreviates one that it reads: mc validate --t is not
    # --threads
    value = "lf" if flag == "--kind" else "1"
    with pytest.raises(SystemExit) as exc:
        main([*name.split(), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    key = flag[2:].replace("-", "_")
    cfg.write_text(json.dumps({key: value}))
    assert main([*name.split(), "--config", str(cfg)]) == 2
    assert f"unknown config keys [{key!r}]" in capsys.readouterr().err


@pytest.mark.parametrize("name", _COMMANDS)
def test_help_of_every_command_exit_0(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([*name.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in _COMMANDS[name][2])


def test_ignored_driver_of_mc_validate_exit_2(capsys):
    # it used to validate p = 0.5, Z = 1 and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["mc", "validate", "--driver", "clf:p=0.3,z=2", "--kind", "clf",
              "--lam", "2", "--rho", "0.5", "--levels", "1",
              "--pool-size", "20000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --driver" in capsys.readouterr().err


def test_zero_orbit_steps_write_the_start_state_only(tmp_path, capsys):
    path = tmp_path / "orbit.csv"
    assert run(["classify", "--driver", "fig1", "--u0", "0.1", "--v0", "-0.4",
                "--orbit-out", str(path), "--orbit-steps", "0"]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,u,v,log_u" and len(lines) == 2
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("argv,cfg", [
    (["lab", "euler"], {"t": []}),
    (["lab", "euler"], {"eps": []}),
    (["lab", "c-v", "--driver", "lf:p=0.5,z=1"], {"eps": []}),
    (["lf", "--z", "", "--alpha", "0.6", "--beta", "0.9"], {}),
])
def test_an_empty_value_is_not_replaced_by_the_default_exit_2(
        tmp_path, capsys, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_zero_n_max_is_not_replaced_by_the_default(capsys):
    # the default 10^5 would run and exit 0; the 0 itself is refused
    assert run(["lab", "critical", "--driver", "fig1", "--v0", "-0.3",
                "--m", "200", "--n-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need n_max >= 1, got 0" in captured.err
