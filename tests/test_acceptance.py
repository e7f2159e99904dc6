"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one line (visible with ``pytest -s``), asserts every
numeric bound, and checks its runtime budget.  All criteria are
self-contained: curves and seeds are computed inside the timed body.
"""

import math
import time

import numpy as np

from drlab.curve import (bisect_h, curve_from_h, h_eval, iterate_g,
                         solve_curve, solve_g1)
from drlab.lab import (PI_OVER_SQRT2, c_star_estimate, c_v_estimate,
                       critical_asymptotics, euler_tan_check, make_seed,
                       n_star_scaling, refined_h)
from drlab.models import (CLFParams, LFParams, clf_step, clf_to_uv, lf_step,
                          lf_to_uv)
from drlab.montecarlo import compare_to_model, mc_step, pool_from_clf, pool_from_lf
from drlab.recursion import initial_state, orbit
from conftest import step
from test_curve import validate_grid
from test_models import critical_lf_stats

LOG2 = math.log(2.0)


def _report(k: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {k:02d}] {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_fig1_exactness(fig1):
    t0 = time.perf_counter()
    cur = solve_curve(fig1, 0.5, 1000)
    sup = float(np.max(np.abs(cur.h_values - 0.5 * cur.xs ** 2)))
    elapsed = time.perf_counter() - t0
    ok = sup < 2e-3 and cur.residual_sup < 1e-5 and elapsed < 10.0
    _report(1, ok, elapsed,
            f"sup|h - x^2/2| = {sup:.2e} (< 2e-3), "
            f"residual = {cur.residual_sup:.2e} (< 1e-5)")


def test_criterion_02_fig2_sweep_regression(lf_model):
    t0 = time.perf_counter()
    targets = {1: 0.1392, 10: 0.1461, 100: 0.1520, 1000: 0.1522}
    grid = solve_g1(lf_model.psi, 0.5, 1000, K=10.0)
    got = {1: grid.g[0] + 0.5}
    for n in range(2, 1001):
        grid = iterate_g(grid, lf_model.psi)
        if n in targets:
            got[n] = grid.g[0] + 0.5
    elapsed = time.perf_counter() - t0
    errs = {n: abs(got[n] - targets[n]) for n in targets}
    ok = all(e < 2e-3 for e in errs.values()) and elapsed < 30.0
    _report(2, ok, elapsed,
            "g_n(-0.5)+0.5 = " + ", ".join(
                f"{got[n]:.4f}@{n}" for n in sorted(targets))
            + f"; max err {max(errs.values()):.1e} (< 2e-3)")


def test_criterion_03_oracle_agreement(fig1, lf_model):
    t0 = time.perf_counter()
    worst = 0.0
    for psi in (fig1, lf_model.psi):
        cur = solve_curve(psi, 0.5, 1000)
        for v in (-0.1, -0.2, -0.3, -0.4, -0.5):
            gap = abs(bisect_h(psi, v, tol=1e-4) - h_eval(cur, v))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 60.0
    _report(3, ok, elapsed,
            f"max |bisect - solver| over 10 points = {worst:.2e} (< 1e-3)")


def test_criterion_04_critical_asymptotics(fig1):
    t0 = time.perf_counter()
    # the exactly known reference curve of this driver, on a fine grid
    exact = curve_from_h(0.5, 200000, lambda xs: 0.5 * xs * xs)
    rep = critical_asymptotics(fig1, make_seed(fig1, -0.3, curve=exact),
                               n_max=10 ** 5)
    last = rep.rows[-1]
    elapsed = time.perf_counter() - t0
    gap_u = abs(last["n2_u"] - 2.0)
    gap_v = abs(last["n_v"] + 2.0)
    ok = gap_u < 0.1 and gap_v < 0.1 and elapsed < 5.0
    _report(4, ok, elapsed,
            f"n^2 u = {last['n2_u']:.4f} (|gap| {gap_u:.3f} < 0.1), "
            f"n v = {last['n_v']:.4f} (|gap| {gap_v:.3f} < 0.1) at n=1e5")


def test_criterion_05_dr_conjecture_at_origin(lf_model):
    t0 = time.perf_counter()
    origin = make_seed(lf_model.psi, 0.0)
    nstar = n_star_scaling(lf_model.psi, origin, [1e-6])
    val = nstar.rows[-1]["sqrt_eps_n_star"]
    cv0 = c_v_estimate(lf_model.psi, origin, [1e-6])
    c0_hat = cv0.rows[-1]["c_hat"]
    c0_target = PI_OVER_SQRT2 * LOG2
    rel = abs(c0_hat - c0_target) / c0_target
    elapsed = time.perf_counter() - t0
    ok = 2.17 <= val <= 2.27 and rel < 0.05 and elapsed < 10.0
    _report(5, ok, elapsed,
            f"sqrt(eps) n* = {val:.4f} in [2.17, 2.27] "
            f"(target {PI_OVER_SQRT2:.4f}); "
            f"C0_hat = {c0_hat:.4f} vs {c0_target:.4f} (rel {rel:.3f} < 0.05)")


def test_criterion_06_dr_conjecture_below_origin(lf_model):
    t0 = time.perf_counter()
    cur = solve_curve(lf_model.psi, 0.5, 1000)
    eps = [1e-6, 1e-7, 1e-8]
    seed = make_seed(lf_model.psi, -0.3, curve=cur, refine_tol=1e-11)
    nstar = n_star_scaling(lf_model.psi, seed, eps)
    spread = nstar.spread_last3
    # sensitivity of the stopping-time decomposition to the window width:
    # n* itself must not move with A
    origin = make_seed(lf_model.psi, 0.0)
    stars_by_A = [
        n_star_scaling(lf_model.psi, origin, [1e-6], A=A).rows[0]["n_star"]
        for A in (5.0, 10.0, 20.0)]
    a_stable = stars_by_A[0] == stars_by_A[1] == stars_by_A[2]
    cv = c_v_estimate(lf_model.psi, seed, eps)
    gap = cv.relative_gap
    seed4 = make_seed(lf_model.psi, -1e-4, curve=cur, refine_tol=1e-10)
    cstar4 = c_star_estimate(lf_model.psi, seed4, eps)
    c4 = cstar4.extrapolated
    elapsed = time.perf_counter() - t0
    ok = (spread < 0.05 and gap < 0.1 and 0.9 <= c4 <= 1.1 and a_stable
          and elapsed < 120.0)
    _report(6, ok, elapsed,
            f"sqrt(eps) n* spread = {spread:.4f} (< 0.05); "
            f"|C_v - cross|/C_v = {gap:.4f} (< 0.1); "
            f"c*(-1e-4) = {c4:.4f} in [0.9, 1.1]; "
            f"A-sensitivity {'stable' if a_stable else 'UNSTABLE'}")


def test_criterion_07_euler_tan():
    t0 = time.perf_counter()
    rep = euler_tan_check([1e-8], [0.3, 0.7, 1.0])
    worst = max(row["y_gap"] / max(1.0, abs(row["y_exact"]))
                for row in rep.rows)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 10.0
    _report(7, ok, elapsed,
            f"max |y - tan target| / max(1, |y|) = {worst:.5f} (<= 0.02)")


def test_criterion_08_commuting_squares(lf_model, clf_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        # starts keep v0 off the driver's domain edge, where the
        # reparametrized evaluation loses relative accuracy to cancellation
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(max(0.25 * alpha, 1.0 - alpha) + 0.01,
                                 3.0 * alpha + 1.0))
        params = LFParams(alpha, beta)
        s = initial_state(*lf_to_uv(params, lf_model))
        for _ in range(100):
            params = lf_step(params, lf_model)
            s = step(s, lf_model.psi)
            u2, v2 = lf_to_uv(params, lf_model)
            worst = max(worst, abs(u2 - s.u) / max(abs(s.u), 1e-300),
                        abs(v2 - s.v) / max(abs(s.v), 1.0))
    for _ in range(100):
        params = CLFParams(float(rng.uniform(0.3, 2.5)),
                           float(rng.uniform(0.05, 1.0)))
        s = initial_state(*clf_to_uv(params, clf_model))
        for _ in range(100):
            params = clf_step(params, clf_model)
            s = step(s, clf_model.psi)
            u2, v2 = clf_to_uv(params, clf_model)
            worst = max(worst, abs(u2 - s.u) / max(abs(s.u), 1e-300),
                        abs(v2 - s.v) / max(abs(s.v), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(8, ok, elapsed,
            f"worst relative mismatch over 2x100 orbits x100 steps = "
            f"{worst:.2e} (<= 1e-12)")


def test_criterion_09_monte_carlo_closure(lf_model, clf_model):
    t0 = time.perf_counter()
    n = 10 ** 6
    seed = 42
    ok = True
    notes = []
    # LF propagation, three levels
    params = LFParams(0.6, 0.9)
    pool = pool_from_lf(params, n, seed)
    for level in range(3):
        pool = mc_step(pool, lf_model)
        params = lf_step(params, lf_model)
        rep = compare_to_model(pool, params)
        ok = ok and rep.passed
        notes.append(f"lf{level + 1}:{'ok' if rep.passed else 'FAIL'}")
    # negative control: a perturbed prediction must fail
    perturbed = LFParams(params.alpha * 1.2, params.beta)
    neg = compare_to_model(pool, perturbed)
    ok = ok and not neg.passed
    notes.append(f"negctl:{'ok' if not neg.passed else 'FAIL'}")
    # CLF propagation
    cparams = CLFParams(2.0, 0.5)
    cpool = pool_from_clf(cparams, n, seed)
    for level in range(3):
        cpool = mc_step(cpool, clf_model)
        cparams = clf_step(cparams, clf_model)
        rep = compare_to_model(cpool, cparams)
        ok = ok and rep.passed
        notes.append(f"clf{level + 1}:{'ok' if rep.passed else 'FAIL'}")
    # determinism under a different worker count
    pool_t4 = pool_from_lf(LFParams(0.6, 0.9), n, seed, threads=4)
    pool_t4 = mc_step(pool_t4, lf_model, threads=4)
    pool_t1 = mc_step(pool_from_lf(LFParams(0.6, 0.9), n, seed), lf_model)
    deterministic = np.array_equal(pool_t1.samples, pool_t4.samples)
    ok = ok and deterministic
    notes.append(f"threads:{'ok' if deterministic else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(9, ok, elapsed, " ".join(notes) + f" (N={n}, tol 4/sqrt(N))")


def test_criterion_10_critical_tail_constant(lf_model):
    t0 = time.perf_counter()
    # the curve only brackets the refinement, so a coarse grid suffices;
    # seed error 4e-10 keeps the orbit on-curve past n = 1e4
    cur = solve_curve(lf_model.psi, 0.5, 600)
    h25 = refined_h(lf_model.psi, cur, -0.25, 4e-10)
    gam = lf_model.p * h25 / (lf_model.constants.slope * (1.0 - lf_model.p))
    marks = (1000, 2000, 5000, 10000)
    stats = critical_lf_stats(lf_model, gam, marks)
    c, p = lf_model.constants, lf_model.p
    target_tail = 2.0 * p / ((1.0 - p) * c.slope * (1.0 + c.root))
    target_ratio = c.root / (1.0 + c.root)
    worst_tail = max(abs(stats[n][0] - target_tail) / target_tail
                     for n in marks)
    worst_ratio = max(abs(stats[n][1] - target_ratio) / target_ratio
                      for n in marks)
    elapsed = time.perf_counter() - t0
    ok = worst_tail < 0.10 and worst_ratio < 0.05 and elapsed < 5.0
    _report(10, ok, elapsed,
            f"max rel err n^2 P(X>=1) = {worst_tail:.4f} (< 0.10), "
            f"conditioned ratio err = {worst_ratio:.4f} (< 0.05) "
            f"on n in [1e3, 1e4]")


def test_criterion_11_property_suites(lf_model, clf_model):
    t0 = time.perf_counter()
    psi = lf_model.psi
    rng = np.random.default_rng(29)
    notes = []

    # step identities: literal v sum, u ratio at 1e-15 relative
    ok_steps = True
    for _ in range(2000):
        u = float(rng.uniform(1e-6, 10.0))
        v = float(rng.uniform(-0.45, 5.0))
        s = step(initial_state(u, v), psi)
        w = psi(v + u)
        ok_steps &= s.v == v + u
        ok_steps &= abs(s.u - u * w) <= 1e-15 * max(u * w, 1e-300)
    notes.append(f"step:{'ok' if ok_steps else 'FAIL'}")

    # normalized sequence nonincreasing
    states = orbit(1.0, 1.0, psi, 300)
    seq = [s.log_u - s.n * LOG2 for s in states]
    ok_mono = all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
    notes.append(f"monotone:{'ok' if ok_mono else 'FAIL'}")

    # domination: 1e3 random ordered pairs, 1e4 steps, vectorized
    # (escaping components overflow to inf, which compares consistently)
    n_pairs = 1000
    ua = rng.uniform(0.0, 0.5, n_pairs)
    ub = ua + rng.uniform(0.0, 0.5, n_pairs)
    va = rng.uniform(-0.45, 0.5, n_pairs)
    vb = va + rng.uniform(0.0, 0.5, n_pairs)
    ok_dom = True
    with np.errstate(over="ignore"):
        for _ in range(10 ** 4):
            va = va + ua
            vb = vb + ub
            ua = ua * psi(va)
            ub = ub * psi(vb)
            if not (np.all(ua <= ub) and np.all(va <= vb)):
                ok_dom = False
                break
    notes.append(f"domination:{'ok' if ok_dom else 'FAIL'}")

    # duality residual < 1e-12 relative
    ok_dual = True
    for _ in range(50):
        u0 = float(rng.uniform(0.05, 0.5))
        v0 = float(rng.uniform(-0.4, 0.2))
        fwd = orbit(u0, v0, psi, 12)
        # (u'_n, v'_n) = (u_{N-n}, -v_{N-n+1}) solves the dual recursion
        back = [(a.u, -b.v) for a, b in zip(fwd[-2::-1], fwd[::-1])]
        for (au, av), (bu, bv) in zip(back, back[1:]):
            ok_dual &= abs(bv - (au + av)) <= 1e-12 * max(1.0, abs(au), abs(av))
            ok_dual &= abs(bu - au / psi(-bv)) <= 1e-12 * max(1.0, abs(bu))
    notes.append(f"duality:{'ok' if ok_dual else 'FAIL'}")

    # sweep monotonicity, Lipschitz bound and envelope preservation
    grid = solve_g1(psi, 0.5, 500, K=10.0)
    ok_sweep = True
    for _ in range(200):
        nxt = iterate_g(grid, psi)
        ok_sweep &= float(np.min(nxt.g - grid.g)) >= -1e-12
        try:
            validate_grid(nxt)
        except Exception:
            ok_sweep = False
        ok_sweep &= nxt.clamp_last < 1e-13
        grid = nxt
    notes.append(f"sweeps:{'ok' if ok_sweep else 'FAIL'}")

    # type invariants preserved over 1e4 random map applications
    ok_types = True
    for _ in range(10 ** 4):
        alpha = float(rng.uniform(0.05, 5.0))
        beta = float(rng.uniform(max(0.05, 1.0 - alpha) + 1e-6, 5.0))
        out = lf_step(LFParams(alpha, beta), lf_model)
        if not out.alpha + out.beta >= 1.0 - 1e-12:
            ok_types = False
            break
    for _ in range(10 ** 4):
        cparams = CLFParams(float(rng.uniform(0.05, 20.0)),
                            float(rng.uniform(0.0, 1.0)))
        out = clf_step(cparams, clf_model)
        if not -1e-12 <= out.rho <= 1.0 + 1e-12:
            ok_types = False
            break
    notes.append(f"types:{'ok' if ok_types else 'FAIL'}")

    elapsed = time.perf_counter() - t0
    ok = (ok_steps and ok_mono and ok_dom and ok_dual and ok_sweep
          and ok_types and elapsed < 120.0)
    _report(11, ok, elapsed, " ".join(notes))
