"""Command-line front end.

Subcommands mirror the library: ``psi``, ``classify``, ``curve``,
``free-energy``, ``lf``, ``clf``, ``mc validate`` and
``lab {critical, n-star, c-star, c-v, euler, sandwich}``.

Each flag is declared once (``_FLAGS``), and each command accepts only the
flags it reads (``_COMMANDS``); any other flag is an argparse error.  A JSON
config file (flat keys named like the flags' dests) may supply the value
of any of those flags, or ``out``; explicit flags win.  Other config keys,
and values whose JSON type does not fit their flag's type, are rejected.
A flag that neither sets takes its value from ``_DEFAULTS``.

A command's JSON is its result dataclass through ``dataclasses.asdict``
(a lab report's through ``ScalingReport.summary``), so a new field of a
result reaches the output with no edit here; only ``psi``, ``curve`` and
``mc validate`` gather theirs from several objects.  Keys are sorted.  A
lab CSV's columns are the keys of the report's first row.

Exit codes: 0 success, 1 numeric non-convergence, a numeric or arithmetic
error, or failed validation (outputs are still written), 2 malformed
configuration.  All floating-point output is formatted with 17 significant
digits so files round-trip exactly, and outputs are byte-reproducible for
a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from typing import Sequence

from . import curve as curve_mod
from . import lab as lab_mod
from .drivers import (ZSpecContinuous, ZSpecDiscrete, driver_from_spec,
                      parse_atoms)
from .errors import ConfigError, DrlabError, NumericError
from .models import (CLFParams, LFParams, law_stats, make_clf_model,
                     make_lf_model, model_step, model_to_uv)
from .montecarlo import run_validation
from .recursion import (classify_detail, free_energy, orbit, write_orbit_csv,
                        write_table)

_FMT = "{:.17g}"


def _f(x) -> str:
    return _FMT.format(float(x))


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _build_driver(args):
    if args.driver is None:
        raise ConfigError("--driver is required")
    psi, constants = driver_from_spec(args.driver)
    return psi, constants


# a config value must be the JSON value of what its flag's type parses
_JSON_TYPES = {None: ((str,), "a string"), int: ((int,), "an integer"),
               float: ((int, float), "a number")}


def _config_value(flag: argparse.Action, key: str, value):
    """A config value checked and converted as its flag would be; a flag
    given more than once (``--eps``) takes a list."""
    many = isinstance(flag, argparse._AppendAction)
    if many and not isinstance(value, list):
        raise ConfigError(f"config key {key!r}: {value!r} is not a list")
    types, name = _JSON_TYPES[flag.type]
    items = []
    for item in value if many else [value]:
        if flag.choices is not None and item not in flag.choices:
            raise ConfigError(f"config key {key!r}: invalid choice {item!r} "
                              f"(choose from {flag.choices!r})")
        if isinstance(item, bool) or not isinstance(item, types):
            raise ConfigError(f"config key {key!r}: {item!r} is not {name}")
        items.append(item if flag.type is None else flag.type(item))
    return items if many else items[0]


def _load_config(args) -> None:
    if not args.config:
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - set(args.flags)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)!r}")
    for key, value in cfg.items():
        value = _config_value(args.flags[key], key, value)
        if getattr(args, key) is None:
            setattr(args, key, value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_psi(args) -> int:
    psi, constants = _build_driver(args)
    info = {
        "name": psi.name,
        "psi_at_0": psi(0.0),
        "deriv_at_0": psi.deriv(0.0),
        "psi_inf": psi.psi_inf,
        "domain_min": psi.domain_min,
        "bounded": psi.bounded,
    }
    if constants is not None:
        info["root"] = constants.root
        info["slope_at_root"] = constants.slope
        info["p"] = constants.p
    _emit_json(_jsonable(info), args.out)
    return 0


def _cmd_classify(args) -> int:
    psi, _ = _build_driver(args)
    if args.u0 is None or args.v0 is None:
        raise ConfigError("classify requires --u0 and --v0")
    if args.orbit_steps < 0:
        raise ConfigError(
            f"--orbit-steps must be >= 0, got {args.orbit_steps}")
    label, last = classify_detail(args.u0, args.v0, psi,
                                  max_iter=args.max_iter, _log_u=True)
    out = {"final_" + key: x for key, x in dataclasses.asdict(last).items()}
    _emit_json(_jsonable({"label": label.value, **out}), args.out)
    if args.orbit_out:
        states = orbit(args.u0, args.v0, psi, args.orbit_steps)
        with open(args.orbit_out, "w") as fh:
            write_orbit_csv(states, fh)
    return 0


def _cmd_curve(args) -> int:
    psi, _ = _build_driver(args)
    cur = curve_mod.solve_curve(psi, args.A, args.m)
    if args.out:
        with open(args.out, "w") as fh:
            curve_mod.write_curve_csv(cur, psi, fh)
    summary = {
        "driver": psi.name, "A": cur.grid.A, "m": len(cur.xs) - 1,
        "residual_sup": cur.residual_sup,
        "h_at_minus_A": float(cur.h_values[0]),
        "converged": cur.converged,
    }
    _emit_json(_jsonable(summary), (args.out + ".json") if args.out else None)
    return 0 if cur.converged else 1


def _cmd_free_energy(args) -> int:
    psi, _ = _build_driver(args)
    if args.u0 is None or args.v0 is None:
        raise ConfigError("free-energy requires --u0 and --v0")
    fe = free_energy(args.u0, args.v0, psi, max_iter=args.max_iter)
    _emit_json(_jsonable(dataclasses.asdict(fe)), args.out)
    return 0 if fe.converged else 1


# the model family of --kind or of the lf/clf command: its model maker, Z
# law, start law and that law's flags, and the header of its orbit CSV
_FAMILIES = {
    "lf": (make_lf_model, ZSpecDiscrete, LFParams, ("alpha", "beta"),
           "n,alpha,beta,u,v,P_ge_1"),
    "clf": (make_clf_model, ZSpecContinuous, CLFParams, ("lam", "rho"),
            "n,lambda,rho,u,v,P_gt_0"),
}


def _model_and_start(args, kind: str, command: str):
    """The model of --p and --z in family ``kind``, its start law from that
    family's flags, and its orbit CSV header; ``command`` names the command
    in the error."""
    make, zspec, law, names, header = _FAMILIES[kind]
    model = make(args.p, zspec(tuple(parse_atoms(args.z))))
    values = [getattr(args, name) for name in names]
    if None in values:
        raise ConfigError(f"{command} requires --{names[0]} and --{names[1]}")
    values = [float(value) for value in values]
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ConfigError(f"{name}={value!r} must be finite")
    return model, law(*values), header


def _cmd_model_orbit(args) -> int:
    kind = args.command
    model, params, header = _model_and_start(args, kind, f"{kind} orbit")
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    rows = []
    try:
        for n in range(args.steps + 1):
            if n:
                params = model_step(params, model)
            positive, _, _ = law_stats(params)
            rows.append((n, *dataclasses.astuple(params),
                         *model_to_uv(params, model), positive))
    except (ValueError, ArithmeticError):  # a parameter under- or overflowed
        if all(math.isfinite(u) and math.isfinite(v) for *_, u, v, _ in rows):
            raise  # else the orbit ends at the failure
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        write_table(fh, header, list(zip(*rows)))
    for n, _, _, u, v, _ in rows:  # the rows are written, then refused
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NumericError(f"{kind} orbit: u={u!r}, v={v!r} at step {n}")
    return 0


def _cmd_mc(args) -> int:
    model, params0, _ = _model_and_start(args, args.kind,
                                         f"mc validate ({args.kind})")
    reports = run_validation(model, params0, args.levels, args.pool_size,
                             args.seed, args.threads)
    payload = {
        "kind": args.kind, "p": args.p, "levels": args.levels,
        "pool_size": args.pool_size, "seed": args.seed,
        "reports": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit_json(_jsonable(payload), args.out)
    return 0 if payload["passed"] else 1


def _lab_curve(args, psi):
    if args.curve:
        with open(args.curve) as fh:
            return curve_mod.read_curve_csv(fh)
    return curve_mod.solve_curve(psi, args.A, args.m)


def _cmd_lab(args) -> int:
    exp = args.experiment
    if exp == "euler":
        eps = [1e-6, 1e-8] if args.eps is None else args.eps
        return _emit_lab(lab_mod.euler_tan_check(eps, args.t), args.out)
    psi, _ = _build_driver(args)
    if exp == "sandwich":
        if args.u0 is None or args.v0 is None:
            raise ConfigError("lab sandwich requires --u0 and --v0")
        rep = lab_mod.sandwich_check(psi, args.u0, args.v0)
        _emit_json(_jsonable(dataclasses.asdict(rep)),
                   (args.out + ".json") if args.out else None)
        return 0 if rep.ok else 1
    if args.v0 is None and exp in ("critical", "c-star"):
        raise ConfigError(f"lab {exp} requires --v0 < 0")
    v0 = 0.0 if args.v0 is None else args.v0
    # the seed at v0 >= 0 is 0: no curve to solve or read
    cur = _lab_curve(args, psi) if v0 < 0.0 else None
    seed = lab_mod.make_seed(psi, v0, curve=cur,
                             refine_tol=args.refine_seed_tol)
    if exp == "critical":
        report = lab_mod.critical_asymptotics(psi, seed, args.n_max)
    else:
        run = {"n-star": lab_mod.n_star_scaling,
               "c-star": lab_mod.c_star_estimate,
               "c-v": lab_mod.c_v_estimate}[exp]
        report = run(psi, seed, [1e-6] if args.eps is None else args.eps)
    code = _emit_lab(report, args.out)
    return 1 if cur is not None and not cur.converged else code


def _emit_lab(report, out_base: str | None) -> int:
    if out_base:
        with open(out_base + ".csv", "w") as fh:
            # the columns are the first row's keys; no rows, an empty header
            fh.write(",".join(report.rows[0] if report.rows else ()) + "\n")
            for row in report.rows:
                fh.write(",".join(
                    _f(x) if isinstance(x, float) else str(x)
                    for x in row.values()) + "\n")
    _emit_json(_jsonable(report.summary()),
               (out_base + ".json") if out_base else None)
    if report.failed:
        print(f"failed: {report.why}", file=sys.stderr)
    return 1 if report.failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# every flag, declared once with its argparse keywords; argparse derives
# its dest (--pool-size -> pool_size)
_FLAGS = {
    "--config": {"help": "JSON config file; flags win"},
    "--out": {"help": "output path (CSV/JSON depending on command)"},
    "--driver": {"help": "driver spec, e.g. fig1 or lf:p=0.5,z=1"},
    "--u0": {"type": float}, "--v0": {"type": float},
    "--max-iter": {"type": int},
    "--orbit-out": {}, "--orbit-steps": {"type": int},
    "--A": {"type": float}, "--m": {"type": int},
    "--kind": {"choices": tuple(_FAMILIES)},
    "--p": {"type": float},
    "--z": {"help": "atoms value@prob joined by +, e.g. 1 or 1@0.5+2@0.5"},
    "--alpha": {"type": float}, "--beta": {"type": float},
    "--lam": {"type": float}, "--rho": {"type": float},
    "--steps": {"type": int},
    "--levels": {"type": int}, "--pool-size": {"type": int},
    "--seed": {"type": int}, "--threads": {"type": int},
    "--curve": {"help": "import a reference curve CSV instead of solving"},
    "--eps": {"type": float, "action": "append"},
    "--t": {"type": float, "action": "append"},
    "--n-max": {"type": int},
    "--refine-seed-tol": {"type": float},
}

# the value of a flag, by dest, that neither the command line nor the
# config set; lab's --v0 (n-star and c-v only) and --eps default in _cmd_lab,
# per experiment
_DEFAULTS = {"max_iter": 10 ** 6, "orbit_steps": 100, "A": 0.5, "m": 1000,
             "kind": "lf", "p": 0.5, "z": "1", "steps": 100,
             "levels": 3, "pool_size": 10 ** 5, "seed": 0, "threads": 1,
             "n_max": 10 ** 5, "t": [0.3, 0.7, 1.0]}

# the flags of a lab experiment that starts from a seed on the curve
_SEEDED = ["--driver", "--A", "--m", "--curve", "--v0", "--refine-seed-tol"]

# each command (a two-word one nests under its first word): its help, its
# handler and the flags it reads; every command also takes --config and --out
_COMMANDS = {
    "psi": ("print driver constants", _cmd_psi, ["--driver"]),
    "classify": ("phase of an initial pair", _cmd_classify,
                 ["--driver", "--u0", "--v0", "--max-iter", "--orbit-out",
                  "--orbit-steps"]),
    "curve": ("solve the critical curve", _cmd_curve,
              ["--driver", "--A", "--m"]),
    "free-energy": ("free energy of an initial pair", _cmd_free_energy,
                    ["--driver", "--u0", "--v0", "--max-iter"]),
    "lf": ("closed-form lf parameter orbit", _cmd_model_orbit,
           ["--p", "--z", "--alpha", "--beta", "--steps"]),
    "clf": ("closed-form clf parameter orbit", _cmd_model_orbit,
            ["--p", "--z", "--lam", "--rho", "--steps"]),
    "mc validate": ("sample pools against the closed forms", _cmd_mc,
                    ["--kind", "--p", "--z", "--alpha", "--beta", "--lam",
                     "--rho", "--levels", "--pool-size", "--seed",
                     "--threads"]),
    "lab critical": ("on-curve decay of u_n and v_n", _cmd_lab,
                     _SEEDED + ["--n-max"]),
    "lab n-star": ("scaling of n*", _cmd_lab, _SEEDED + ["--eps"]),
    "lab c-star": ("the transfer constant c*", _cmd_lab, _SEEDED + ["--eps"]),
    "lab c-v": ("the free-energy constant C_v", _cmd_lab, _SEEDED + ["--eps"]),
    "lab euler": ("simplified system against its tan solution", _cmd_lab,
                  ["--eps", "--t"]),
    "lab sandwich": ("two-sided free-energy bound", _cmd_lab,
                     ["--driver", "--u0", "--v0"]),
}

# each command of commands: the dest of its subcommand, and its help
_GROUPS = {"mc": ("action", "Monte Carlo validation of the closed forms"),
           "lab": ("experiment", "scaling experiments")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: each
    ``parse_args`` call starts from a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="drlab",
        description="Numerical laboratory for the two-parameter recursion "
                    "u' = u psi(v'), v' = v + u")
    top = p.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (text, handler, flags) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            dest, group_text = _GROUPS[group]
            groups[group] = top.add_parser(group, help=group_text) \
                .add_subparsers(dest=dest, required=True)
        # no abbreviations: mc validate --t would otherwise stand for --threads
        sp = groups.get(group, top).add_parser(leaf, help=text,
                                               allow_abbrev=False)
        actions = [sp.add_argument(flag, **_FLAGS[flag])
                   for flag in ["--config", "--out", *flags]]
        # what _load_config checks config keys and values with
        sp.set_defaults(handler=handler, flags={
            a.dest: a for a in actions if a.dest != "config"})
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _load_config(args)
        for dest in args.flags.keys() & _DEFAULTS.keys():
            if getattr(args, dest) is None:
                setattr(args, dest, _DEFAULTS[dest])
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DrlabError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
