import functools
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drlab.lab import (PI_OVER_SQRT2, Seed, c_star_estimate, c_v_estimate,
                       critical_asymptotics, euler_tan_check,
                       euler_tan_targets, make_seed, n_star_scaling,
                       refined_h, sandwich_check)
from drlab import lab
from drlab.drivers import PsiFunction
from drlab.recursion import PhaseLabel, _orbit, classify_detail, initial_state


@pytest.fixture(scope="module")
def seed_03(lf_model, lf_curve):
    """h(-0.3) on the lf curve, refined to 1e-9."""
    return make_seed(lf_model.psi, -0.3, curve=lf_curve, refine_tol=1e-9)


@pytest.fixture(scope="module")
def seed_001(lf_model, lf_curve):
    """h(-0.01) on the lf curve, refined to 1e-9."""
    return make_seed(lf_model.psi, -0.01, curve=lf_curve, refine_tol=1e-9)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_seed_at_origin_needs_no_curve(lf_model):
    # h(0) = 0 exactly: a given tol is checked, but nothing is refined
    seed = make_seed(lf_model.psi, 0.0, refine_tol=1e-9)
    assert (seed.v0, seed.h, seed.refine_tol) == (0.0, 0.0, None)


def test_seed_below_origin_reads_or_refines_the_curve(lf_model, lf_curve,
                                                      seed_03):
    from drlab.curve import h_eval
    coarse = make_seed(lf_model.psi, -0.3, curve=lf_curve)
    assert coarse.h == h_eval(lf_curve, -0.3) and coarse.refine_tol is None
    assert seed_03.refine_tol == 1e-9
    assert seed_03.h != coarse.h and abs(seed_03.h - coarse.h) < 2e-5
    with pytest.raises(ValueError):
        make_seed(lf_model.psi, -0.3)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_seed_rejects_nonpositive_refine_tol(lf_model, tol):
    with pytest.raises(ValueError):
        make_seed(lf_model.psi, 0.0, refine_tol=tol)


@pytest.mark.parametrize("v0,tol", [(0.0, math.inf), (-0.3, math.inf),
                                    (-0.3, 0.3), (-0.01, 0.02)])
def test_seed_rejects_a_refine_tol_not_below_the_bracket(lf_model, lf_curve,
                                                         v0, tol):
    with pytest.raises(ValueError):
        make_seed(lf_model.psi, v0, curve=lf_curve, refine_tol=tol)


@pytest.mark.parametrize("seed,eps_min,unresolved", [
    (Seed(-0.3, 0.045), 1e-5, False),  # fig1's h(-0.3) is 0.045
    (Seed(-0.3, 0.045 + 1e-5), 1e-5, True),  # h - eps/10 escapes
    (Seed(-0.3, 0.045 - 1e-5), 1e-5, True),  # h + eps/10 collapses
    (Seed(-0.3, 0.045), 1e-14, False),  # each decided after about 7e7 steps
    (Seed(0.0, 0.0), 1e-5, False)])
def test_seed_unresolved_classifies_a_tenth_of_eps_either_side(
        fig1, seed, eps_min, unresolved):
    assert lab._seed_unresolved(fig1, seed, eps_min) is unresolved


@pytest.mark.parametrize("eps_min,budget", [(1e-5, 3 * 10 ** 6),
                                            (2.5e-12, 16 * 10 ** 6)])
def test_seed_check_budget_follows_the_escape_law(fig1, monkeypatch, eps_min,
                                                  budget):
    # 4 * 2/sqrt(d) steps for d = eps_min / 10, at least 3*10^6, the
    # refined seed's floor; a verdict still undetermined there leaves the
    # seed unresolved
    budgets = []

    def undetermined(us, v, psi, *, max_iter):
        budgets.extend(max_iter for _ in us)
        return [(PhaseLabel.UNDETERMINED, None) for _ in us]
    monkeypatch.setattr(lab, "classify_many", undetermined)
    assert lab._seed_unresolved(fig1, Seed(-0.3, 0.045), eps_min)
    assert budgets == [budget, budget]


@pytest.mark.parametrize("tol,unresolved", [(1e-9, False), (2e-6, False),
                                            (3e-6, True)])
def test_refined_seed_is_unresolved_by_its_tol_alone(fig1, monkeypatch, tol,
                                                     unresolved):
    # the bracket is within tol / 2 of h: compared with eps / 10, no orbit
    monkeypatch.setattr(lab, "classify_detail", None)
    monkeypatch.setattr(lab, "classify_many", None)
    seed = Seed(-0.3, 0.045, refine_tol=tol)
    assert lab._seed_unresolved(fig1, seed, 1e-5) is unresolved


def test_exact_m200_fig1_seed_is_resolved(fig1):
    from drlab.curve import curve_from_h
    exact = curve_from_h(0.5, 200, lambda xs: 0.5 * xs * xs)
    seed = make_seed(fig1, -0.3, curve=exact)
    assert not c_star_estimate(fig1, seed, [1e-5]).flags["seed_unresolved"]


@pytest.mark.parametrize("experiment", [n_star_scaling, c_star_estimate,
                                        c_v_estimate])
def test_scaling_reports_flag_an_unresolved_seed(lf_model, seed_03,
                                                 experiment):
    off = Seed(-0.3, seed_03.h + 2e-6)
    assert not experiment(lf_model.psi, seed_03, [1e-5]).flags[
        "seed_unresolved"]
    assert experiment(lf_model.psi, off, [1e-5]).flags["seed_unresolved"]


# ---------------------------------------------------------------------------
# on-curve decay
# ---------------------------------------------------------------------------

def test_critical_asymptotics_on_exact_curve(fig1, fig1_exact_curve):
    seed = make_seed(fig1, -0.3, curve=fig1_exact_curve)
    rep = critical_asymptotics(fig1, seed, n_max=10 ** 5)
    assert not rep.flags["diverged"]
    assert rep.flags["gap_n2_u"] < 0.1
    assert rep.flags["gap_n_v"] < 0.1
    assert 0.98 <= rep.flags["u_over_half_v2"] <= 1.02


def test_critical_asymptotics_off_curve_flags_divergence(fig1, fig1_exact_curve):
    from drlab.curve import curve_from_h
    bad = curve_from_h(0.5, 1000, lambda xs: 0.5 * xs * xs + 0.01)
    rep = critical_asymptotics(fig1, make_seed(fig1, -0.3, curve=bad),
                               n_max=10 ** 5)
    assert rep.flags["diverged"]
    assert rep.target is None


def test_critical_asymptotics_needs_a_step(fig1, fig1_exact_curve):
    # with no step there is no row to report, and the run must not pass
    seed = make_seed(fig1, -0.3, curve=fig1_exact_curve)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            critical_asymptotics(fig1, seed, n_max=n_max)
    assert [r["n"] for r in critical_asymptotics(fig1, seed, 1).rows] == [1]


def _walked(psi, seed, n_max):
    """(rows, diverged) of a plain walk of the orbit to n_max that stops
    at the first v > 0: critical_asymptotics' oracle, which sees no
    collapse."""
    marks = {int(round(n_max ** (k / 15.0))) for k in range(16)} | {n_max}
    rows = []
    states = _orbit(initial_state(seed.h, seed.v0), psi)
    for n, (u, v, _, _) in zip(range(n_max + 1), states):
        if v > 0.0:
            return rows, True
        if n in marks and n > 0:
            rows.append({"n": n, "n2_u": n * n * u, "n_v": n * v,
                         "u": u, "v": v})
    return rows, False


def _escape_step(psi, seed):
    return next(n for n, (_, v, _, _) in enumerate(
        _orbit(initial_state(seed.h, seed.v0), psi)) if v > 0.0)


def _fig1_in_python(fig1):
    """fig1 without its native description: the Python classifier runs."""
    return PsiFunction("fig1-python", lambda x: fig1.fn(x), fig1.deriv_fn,
                       psi_inf=fig1.psi_inf, domain_min=fig1.domain_min,
                       domain_max=fig1.domain_max)


@pytest.mark.parametrize("python", [False, True])
@pytest.mark.parametrize("dh", [0.0, 1e-4, 1e-9, -1e-9])
@pytest.mark.parametrize("n_max", [1, 2, 3, 100, 10 ** 4])
def test_critical_rows_match_a_plain_walk(fig1, python, dh, n_max):
    # fig1's h(-0.3) is 0.045: on the curve, escaping between marks, and
    # a hair either side; none of these collapses within 10^4 steps
    psi = _fig1_in_python(fig1) if python else fig1
    seed = Seed(-0.3, 0.045 + dh)
    rows, diverged = _walked(psi, seed, n_max)
    rep = critical_asymptotics(psi, seed, n_max)
    assert repr(rep.rows) == repr(rows)
    assert rep.flags["diverged"] is diverged
    assert not rep.flags["collapsed"]


@pytest.mark.parametrize("python", [False, True])
@pytest.mark.parametrize("at_mark", [False, True])
def test_critical_escape_at_or_between_marks(fig1, python, at_mark):
    # the orbit escapes at step n_e; with n_max = n_e the escape falls on
    # the last mark, whose row is not written, as in the plain walk
    psi = _fig1_in_python(fig1) if python else fig1
    seed = Seed(-0.3, 0.045 + 1e-4)
    n_e = _escape_step(psi, seed)
    n_max = n_e if at_mark else 10 ** 4
    marks = {int(round(n_max ** (k / 15.0))) for k in range(16)} | {n_max}
    assert (n_e in marks) is at_mark
    rows, diverged = _walked(psi, seed, n_max)
    rep = critical_asymptotics(psi, seed, n_max)
    assert diverged and rep.flags["diverged"] and rep.failed
    assert repr(rep.rows) == repr(rows) and rows[-1]["n"] < n_e
    assert rep.target is None and rep.relative_gap is None


def test_critical_rows_match_a_plain_walk_on_lf(lf_model):
    seed = Seed(-0.3, 0.05180626966866757)  # lf's h(-0.3) to about 1e-11
    rows, diverged = _walked(lf_model.psi, seed, 10 ** 4)
    rep = critical_asymptotics(lf_model.psi, seed, 10 ** 4)
    assert repr(rep.rows) == repr(rows) and not diverged
    assert not rep.failed and rep.relative_gap < 0.01


@pytest.mark.parametrize("python", [False, True])
def test_critical_asymptotics_flags_a_collapse(fig1, python):
    # 1e-6 below h the orbit is subcritical: n^2 u falls to 9e-5 by 10^4
    # steps, and the certificate ends the rows where it first holds
    psi = _fig1_in_python(fig1) if python else fig1
    seed = Seed(-0.3, 0.045 - 1e-6)
    rows, diverged = _walked(psi, seed, 10 ** 4)
    rep = critical_asymptotics(psi, seed, 10 ** 4)
    assert rep.flags["collapsed"] and not rep.flags["diverged"]
    assert rep.failed and not diverged
    assert rep.target is None and rep.raw_last is None
    assert 0 < len(rep.rows) < len(rows)
    assert repr(rep.rows) == repr(rows[:len(rep.rows)])


def test_critical_collapse_needs_a_stretch_of_1024_steps(fig1):
    # below n_max 1024 no stretch between two marks reaches the
    # certificate's first test, so the collapse is not flagged
    seed = Seed(-0.3, 0.045 - 1e-6)
    rep = critical_asymptotics(fig1, seed, 1000)
    assert not rep.flags["collapsed"]
    assert rep.relative_gap > 0.1


@pytest.mark.parametrize("h,unresolved", [(0.045, False),
                                          (0.045 + 1e-8, True)])
def test_critical_unrefined_seed_is_classified_a_quarter_over_n_max2(
        fig1, h, unresolved):
    # at n_max 10^4 the seed must sit within 2.5e-9 of h
    rep = critical_asymptotics(fig1, Seed(-0.3, h), 10 ** 4)
    assert rep.flags["seed_unresolved"] is unresolved
    assert rep.failed is unresolved


def test_critical_seed_check_reaches_past_a_million_steps(fig1):
    # at n_max 10^6 the start h - 2.5e-13 of a seed 1e-12 above h escapes
    # only at step 2,344,990; n^2 u ends 23% off its target
    rep = critical_asymptotics(fig1, Seed(-0.3, 0.045 + 1e-12), 10 ** 6)
    assert rep.flags["seed_unresolved"] and rep.failed
    assert rep.relative_gap > 0.2


@pytest.mark.parametrize("tol,unresolved", [(1e-9, True), (1e-11, False)])
def test_critical_refined_seed_is_unresolved_by_its_tol(lf_model, lf_curve,
                                                        tol, unresolved):
    # at n_max 10^5 tol / 2 must stay below 2.5e-11; the 1e-9 seed reads
    # n^2 u 5% off its target, the 1e-11 one 0.05%
    seed = make_seed(lf_model.psi, -0.3, curve=lf_curve, refine_tol=tol)
    rep = critical_asymptotics(lf_model.psi, seed)
    assert rep.flags["seed_unresolved"] is unresolved
    assert not (rep.flags["diverged"] or rep.flags["collapsed"])
    assert rep.failed is unresolved
    assert (rep.relative_gap > 0.01) is unresolved


def test_summary_leaves_out_failed(fig1):
    rep = critical_asymptotics(fig1, Seed(-0.3, 0.045 + 1e-4), 100)
    assert rep.failed
    assert "failed" not in rep.summary()


# ---------------------------------------------------------------------------
# n* scaling
# ---------------------------------------------------------------------------

def test_n_star_origin_approaches_universal_constant(lf_model):
    rep = n_star_scaling(lf_model.psi, make_seed(lf_model.psi, 0.0),
                         [1e-4, 1e-5, 1e-6, 1e-7])
    vals = [row["sqrt_eps_n_star"] for row in rep.rows]
    ns = [row["n_star"] for row in rep.rows]
    assert all(b >= a for a, b in zip(ns, ns[1:]))  # n* grows as eps shrinks
    assert rep.target == PI_OVER_SQRT2
    assert abs(vals[-1] - PI_OVER_SQRT2) / PI_OVER_SQRT2 < 0.01
    assert abs(rep.extrapolated - PI_OVER_SQRT2) / PI_OVER_SQRT2 < 0.005
    # n*(eps) is nonincreasing in eps (larger eps escapes sooner)
    assert ns == sorted(ns)


def test_n_star_negative_v0_stabilizes(lf_model, seed_03):
    rep = n_star_scaling(lf_model.psi, seed_03, [1e-5, 1e-6, 1e-7])
    assert rep.spread_last3 < 0.05
    assert rep.flags["c_star"] is not None
    assert rep.relative_gap < 0.05


def test_eps_validation(lf_model):
    seed = make_seed(lf_model.psi, 0.0)
    with pytest.raises(ValueError):
        n_star_scaling(lf_model.psi, seed, [1e-6, 1e-5])
    with pytest.raises(ValueError):
        n_star_scaling(lf_model.psi, seed, [])


def test_n_star_insensitive_to_window_width(lf_model):
    # A only moves the +-A sqrt(eps) bookkeeping thresholds: n* itself is
    # A-free, n1 is nonincreasing in A and n2 nondecreasing
    seed = make_seed(lf_model.psi, 0.0)
    reports = [n_star_scaling(lf_model.psi, seed, [1e-6], A=A)
               for A in (5.0, 10.0, 20.0)]
    stars = [r.rows[0]["n_star"] for r in reports]
    assert stars[0] == stars[1] == stars[2]
    n1s = [r.rows[0]["n1_A"] for r in reports]
    n2s = [r.rows[0]["n2_A"] for r in reports]
    assert n1s[0] >= n1s[1] >= n1s[2]
    assert n2s[0] <= n2s[1] <= n2s[2]


# ---------------------------------------------------------------------------
# c*
# ---------------------------------------------------------------------------

def test_c_star_near_origin_is_one(lf_model, seed_001):
    rep = c_star_estimate(lf_model.psi, seed_001, [1e-5, 1e-6, 1e-7])
    assert 0.9 <= rep.extrapolated <= 1.1
    assert rep.spread_last3 < 0.05
    # u at the turning point is never far below eps
    assert all(row["u_N0_over_eps"] >= 0.9 for row in rep.rows)


def test_c_star_stable_at_macroscopic_v0(lf_model, seed_03):
    rep = c_star_estimate(lf_model.psi, seed_03, [1e-5, 1e-6, 1e-7])
    assert rep.extrapolated > 1.0
    assert rep.spread_last3 < 0.05


# ---------------------------------------------------------------------------
# C_v
# ---------------------------------------------------------------------------

def test_c_v_at_origin_matches_closed_form(lf_model):
    rep = c_v_estimate(lf_model.psi, make_seed(lf_model.psi, 0.0),
                       [1e-5, 1e-6])
    target = PI_OVER_SQRT2 * math.log(2.0)
    assert abs(rep.target - target) < 1e-12
    assert rep.relative_gap < 0.05


def test_c_v_small_v0_doubles_the_origin_constant(lf_model, seed_001):
    rep = c_v_estimate(lf_model.psi, seed_001, [1e-5, 1e-6, 1e-7])
    c0 = PI_OVER_SQRT2 * math.log(2.0)
    assert abs(rep.extrapolated - 2.0 * c0) / (2.0 * c0) < 0.1
    assert rep.relative_gap < 0.1  # two estimation routes agree


# ---------------------------------------------------------------------------
# Euler / tan
# ---------------------------------------------------------------------------

def test_euler_exact_at_t0():
    rep = euler_tan_check([1e-6], [0.0, 0.5])
    row0 = [r for r in rep.rows if r["t"] == 0.0][0]
    assert (row0["x"], row0["y"]) == (1.0, 0.0)


def test_euler_matches_tan_solution():
    rep = euler_tan_check([1e-8], [0.3, 0.7, 1.0])
    for row in rep.rows:
        assert row["y_gap"] <= 0.02 * max(1.0, abs(row["y_exact"]))
        assert abs(row["x"] - row["x_exact"]) <= 0.05 * row["x_exact"]


def test_euler_solution_identities():
    # x = 1 + y^2/2 along the closed form; blow-up at pi/sqrt(2)
    for t in (0.1, 0.8, 1.5, 2.0):
        x, y = euler_tan_targets(t)
        assert abs(x - (1.0 + 0.5 * y * y)) < 1e-12
    assert euler_tan_targets(PI_OVER_SQRT2 * 0.9999)[1] > 1e3


def test_euler_gap_does_not_diverge_with_eps():
    ts = [0.3, 0.7, 1.0]
    rep = euler_tan_check([1e-4, 1e-6, 1e-8], ts)
    gaps = rep.flags["max_gap_by_eps"]
    assert gaps[1e-6] <= gaps[1e-4] + 0.01
    assert gaps[1e-8] <= gaps[1e-6] + 0.01


def test_euler_writes_one_row_per_t():
    # 0.31 and 0.35 both fall on step 3 at eps 1e-2
    rep = euler_tan_check([1e-2], [0.35, 0.31])
    assert [(r["t"], r["k"]) for r in rep.rows] == [(0.31, 3), (0.35, 3)]
    assert rep.rows[0]["y_exact"] != rep.rows[1]["y_exact"]
    assert rep.rows[0]["y_gap"] != rep.rows[1]["y_gap"]


def test_euler_row_at_step_0_keeps_its_t():
    # t = 5e-5 falls on step 0 at eps 1e-8: the row is first and compares
    # the start with the tan solution at 5e-5, not at 0
    rep = euler_tan_check([1e-8], [5e-5, 0.3])
    row = rep.rows[0]
    assert (row["t"], row["k"], row["x"], row["y"]) == (5e-5, 0, 1.0, 0.0)
    assert (row["x_exact"], row["y_exact"]) == euler_tan_targets(5e-5)
    assert row["y_gap"] == euler_tan_targets(5e-5)[1] > 0.0


def test_euler_rejects_t_near_blowup():
    with pytest.raises(ValueError):
        euler_tan_check([1e-6], [PI_OVER_SQRT2 - 0.01])


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

def test_sandwich_boundary_case(lf_model):
    rep = sandwich_check(lf_model.psi, 1.0, 0.0)
    assert rep.ok and rep.n_star == 0
    assert rep.log_upper == pytest.approx(math.log(2.0), abs=1e-12)
    assert rep.slack_lower == pytest.approx(0.0, abs=1e-12)


def test_sandwich_holds_for_random_supercritical_starts(lf_model):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        u0 = float(rng.uniform(0.02, 3.0))
        v0 = float(rng.uniform(-0.45, 1.0))
        label = classify_detail(u0, v0, lf_model.psi, max_iter=20000)[0]
        if label is not PhaseLabel.SUPERCRITICAL:
            continue
        rep = sandwich_check(lf_model.psi, u0, v0)
        assert rep.ok, (u0, v0)
        # bracket width is one factor of psi(inf) plus start-dependent O(1)
        width = rep.log_upper - rep.log_lower
        bound = math.log(2.0) + abs(math.log(0.5334236531568466)) \
            + math.log(max(u0, 1.0)) + 1e-9
        assert width <= bound
        checked += 1


# ---------------------------------------------------------------------------
# simplified-system trapping
# ---------------------------------------------------------------------------

def _band_violation(psi, eta, delta):
    """The first of 256 grid points of (0, delta] where (psi(x) - 1)/x
    leaves [1 - eta, 1 + eta], or None: the band that lets affine systems
    started at (1 +- eta) times a start trap its orbit."""
    xs = np.linspace(delta / 256, delta, 256)
    ratios = (psi(xs) - 1.0) / xs
    bad = (ratios < 1.0 - eta - 1e-12) | (ratios > 1.0 + eta + 1e-12)
    return float(xs[int(np.argmax(bad))]) if bad.any() else None


def _simplified_orbit(psi, u0, v0, eta, delta, max_iter=10 ** 7):
    """(n4, first_violation): walk the orbit from (u0, v0) and the
    affine systems from (1 -+ eta)(u0, v0) until v passes delta (step n4);
    first_violation is the first step where the orbit leaves the strict
    band between them (at eta = 0: where the three differ by more than
    rounding)."""
    u, v = u0, v0
    am, bm = (1.0 - eta) * u0, (1.0 - eta) * v0
    ap, bp = (1.0 + eta) * u0, (1.0 + eta) * v0
    first_violation = None
    n4 = None
    for k in range(1, max_iter + 1):
        v = v + u
        if v > delta:
            n4 = k
            break
        u = u * psi(v)
        bm = bm + am
        am = am * (1.0 + bm)
        bp = bp + ap
        ap = ap * (1.0 + bp)
        if eta == 0.0:
            tol = 1e-12 * max(1.0, abs(u), abs(v))
            good = abs(am - u) <= tol and abs(ap - u) <= tol \
                and abs(bm - v) <= tol and abs(bp - v) <= tol
        else:
            good = am < u < ap and bm < v < bp
        if not good and first_violation is None:
            first_violation = k
    return n4, first_violation


def test_eta_band_of_lf_driver(lf_model):
    # (psi(x)-1)/x = 1/(1+x) on (0, 0.1]: eta = 0.1 is a valid band
    assert _band_violation(lf_model.psi, 0.1, 0.1) is None
    n4, first_violation = _simplified_orbit(lf_model.psi, 1e-4, 0.0, 0.1,
                                            0.1)
    assert first_violation is None
    assert n4 is not None


def test_eta_band_violation_reported(lf_model):
    assert _band_violation(lf_model.psi, 0.01, 0.5) is not None


def test_eta_zero_degenerate_affine(affine):
    assert _band_violation(affine, 0.0, 0.1) is None
    _, first_violation = _simplified_orbit(affine, 1e-4, 0.0, 0.0, 0.1)
    assert first_violation is None


# ---------------------------------------------------------------------------
# escape-time bound
# ---------------------------------------------------------------------------

def _dual_time_bound(psi, h, v0, eps, max_iter=10 ** 7):
    """max over k past the sign change of (n* - k)_+ * v_k along the orbit
    from (h + eps, v0), n* being its first step with v >= 0 and u >= 1."""
    u = h + eps
    v = v0
    vs = []
    n_star = None
    first_nonneg = None
    for n in range(1, max_iter + 1):
        v = v + u
        u = u * psi(v)
        vs.append(v)
        if first_nonneg is None and v >= 0.0:
            first_nonneg = n
        if v >= 0.0 and u >= 1.0:
            n_star = n
            break
    best = 0.0
    for k in range(first_nonneg + 1, n_star + 1):
        best = max(best, (n_star - k) * vs[k - 1])
    return best


def test_dual_time_bound_uniform_in_eps(lf_model, seed_03):
    # the per-orbit supremum of (n* - k) v_k creeps toward its uniform
    # limit from below, so the fitted driver constant carries a 20% margin
    raw = _dual_time_bound(lf_model.psi, seed_03.h, seed_03.v0, 1e-4)
    assert raw > 0.0
    fit = 1.2 * raw
    for eps in (1e-5, 1e-6, 1e-7):
        later = _dual_time_bound(lf_model.psi, seed_03.h, seed_03.v0, eps)
        assert later <= fit


def test_refined_h_agrees_with_curve(lf_model, lf_curve):
    from drlab.curve import h_eval
    got = refined_h(lf_model.psi, lf_curve, -0.3, 1e-8)
    assert abs(got - h_eval(lf_curve, -0.3)) < 2e-5


SEED_SPECS = ("fig1", "lf:p=0.5,z=1", "lf:p=0.4,z=1@0.5+2@0.5",
              "clf:p=0.5,z=1")


@functools.lru_cache(maxsize=None)
def _driver_and_curve(spec):
    from drlab.curve import solve_curve
    from drlab.drivers import driver_from_spec
    psi = driver_from_spec(spec)[0]
    return psi, solve_curve(psi, 0.5, 200)


@settings(max_examples=24, deadline=None)
@example(spec="lf:p=0.5,z=1", v0=-0.3, tol=1e-10)  # cv-refined's start
@example(spec="lf:p=0.5,z=1", v0=-0.01, tol=1e-10)  # h ~ 5e-5
@example(spec="fig1", v0=-0.4, tol=1e-9)
# the fallback's last probe runs out of steps: certified from its pair
@example(spec="lf:p=0.4,z=1@0.5+2@0.5", v0=-0.22857094447517576, tol=1e-10)
@given(spec=st.sampled_from(SEED_SPECS), v0=st.floats(-0.4, -0.01),
       tol=st.sampled_from([1e-9, 1e-10]))
def test_refined_h_agrees_with_the_bisection_oracle(spec, v0, tol):
    # both are midpoints of brackets of width <= tol around h(v0), the
    # oracle's bracket being the full [0, -v0]
    from drlab.curve import bisect_h
    psi, cur = _driver_and_curve(spec)
    oracle = bisect_h(psi, v0, tol, classify_max_iter=3 * 10 ** 6)
    assert abs(refined_h(psi, cur, v0, tol) - oracle) <= tol


@pytest.fixture
def verdicts(monkeypatch):
    """(u0, label, final n) of every classification, counted once each."""
    import drlab.curve
    import drlab.lab
    import drlab.recursion
    from drlab.recursion import classify_detail, classify_many
    seen = []

    def counted(u0, v0, psi, **kwargs):
        label, last = classify_detail(u0, v0, psi, **kwargs)
        seen.append((u0, label, last.n))
        return label, last

    def counted_many(us, v0, psi, **kwargs):
        # one lockstep call decides several starts: each is counted
        verdicts = classify_many(us, v0, psi, **kwargs)
        seen.extend((u0, label, last.n)
                    for u0, (label, last) in zip(us, verdicts))
        return verdicts

    for module in (drlab.recursion, drlab.curve, drlab.lab):
        monkeypatch.setattr(module, "classify_detail", counted)
    monkeypatch.setattr(drlab.lab, "classify_many", counted_many)
    return seen


def _bisection_seed(psi, curve, v0, tol):
    """The seed search the escape-law search replaced: a +-2e-5 bracket
    around the curve value, widened fourfold until it straddles h, then
    bisected.  Its verdicts go through recursion's classify_detail, as
    bisect_h's do, so that the verdicts fixture counts them."""
    from drlab.curve import bisect_h, h_eval
    from drlab.recursion import classify_detail
    coarse, bracket, budget = h_eval(curve, v0), 2e-5, 3 * 10 ** 6

    def above(u):
        label = classify_detail(u, v0, psi, max_iter=budget)[0]
        return label is PhaseLabel.SUPERCRITICAL
    while True:
        lo, hi = max(0.0, coarse - bracket), min(-v0, coarse + bracket)
        if above(hi) and not (lo > 0.0 and above(lo)):
            return bisect_h(psi, v0, tol=tol, lo=lo, hi=hi,
                            classify_max_iter=budget)
        bracket *= 4.0


def test_refined_h_certifies_tol_1e_13(lf_model, lf_curve, monkeypatch):
    # each classification gets 4 * 2/sqrt(tol/2) steps, enough to decide a
    # start tol/2 from h; a fixed 3*10^6 decided too few to certify
    from drlab.recursion import classify_detail, classify_many
    coarse = refined_h(lf_model.psi, lf_curve, -0.3, 1e-11)
    budgets = []

    def spy(u, v, psi, *, max_iter, **kwargs):
        budgets.append(max_iter)
        return classify_detail(u, v, psi, max_iter=max_iter, **kwargs)

    def spy_many(us, v, psi, *, max_iter):
        budgets.extend(max_iter for _ in us)
        return classify_many(us, v, psi, max_iter=max_iter)
    monkeypatch.setattr(lab, "classify_detail", spy)
    monkeypatch.setattr(lab, "classify_many", spy_many)
    fine = refined_h(lf_model.psi, lf_curve, -0.3, 1e-13)
    assert abs(fine - coarse) <= (1e-13 + 1e-11) / 2
    assert budgets and set(budgets) == {lab._budget(0.5e-13)} == {35_777_088}


def test_cv_refined_seed_costs_under_2_5m_steps(lf_model, lf_curve,
                                                verdicts):
    # the benchmark's seed: lf:p=0.5,z=1 at v0 -0.3, m 1000, tol 1e-11;
    # the bisection it replaced took 5,476,175 steps
    got = refined_h(lf_model.psi, lf_curve, -0.3, 1e-11)
    assert sum(n for _, _, n in verdicts) <= 2_500_000
    # the seed is the midpoint of a certified bracket of width <= tol
    below = max(u for u, label, _ in verdicts
                if label is PhaseLabel.SUBCRITICAL)
    above = min(u for u, label, _ in verdicts
                if label is PhaseLabel.SUPERCRITICAL)
    assert above - below <= 1e-11 and got == 0.5 * (below + above)


@pytest.mark.parametrize("spec,v0", [
    ("lf:p=0.5,z=1", -0.3), ("lf:p=0.5,z=1", -0.01), ("fig1", -0.3),
    ("fig1", -0.01), ("clf:p=0.5,z=1", -0.3),
    ("lf:p=0.4,z=1@0.5+2@0.5", -0.3)])
def test_escape_law_search_never_costs_more_than_bisection(spec, v0,
                                                           verdicts):
    psi, cur = _driver_and_curve(spec)
    _bisection_seed(psi, cur, v0, 1e-10)
    old = sum(n for _, _, n in verdicts)
    verdicts.clear()
    refined_h(psi, cur, v0, 1e-10)
    assert sum(n for _, _, n in verdicts) <= 1.1 * old


# refined_h over ROADMAP item 4's 32 starts, each solved at m = 1000:
# (spec, v0, h at tol 1e-9, h at tol 1e-11), captured from the sequential
# probes that decided one start per classifier call
REFINED_H_PINS = (
    ('fig1', -0.4, 0.08000000001447494, 0.08000000000001742),
    ('fig1', -0.3, 0.04500000001513565, 0.04500000000001714),
    ('fig1', -0.1, 0.005000000030887175, 0.005000000000035977),
    ('fig1', -0.01, 5.00000490369805e-05, 5.000000026298039e-05),
    ('lf:p=0.5,z=1', -0.4, 0.09530354609893643, 0.09530354607400346),
    ('lf:p=0.5,z=1', -0.3, 0.05180626966864939, 0.05180626964526014),
    ('lf:p=0.5,z=1', -0.1, 0.005255070178081091, 0.0052550701415974635),
    ('lf:p=0.5,z=1', -0.01, 5.025066506938292e-05, 5.025061567904594e-05),
    ('lf:p=0.4,z=1@0.5+2@0.5', -0.4, 0.08598847959504895, 0.0859884795741315),
    ('lf:p=0.4,z=1@0.5+2@0.5', -0.3, 0.047863100108641136,
     0.047863100088403485),
    ('lf:p=0.4,z=1@0.5+2@0.5', -0.1, 0.0051224018846726905,
     0.005122401850108243),
    ('lf:p=0.4,z=1@0.5+2@0.5', -0.01, 5.012662032792306e-05,
     5.012657135522286e-05),
    ('clf:p=0.5,z=1', -0.4, 0.09282446353073846, 0.0928244635059765),
    ('clf:p=0.5,z=1', -0.3, 0.050885326672188175, 0.05088532664776314),
    ('clf:p=0.5,z=1', -0.1, 0.005231614194157834, 0.0052316141546538495),
    ('clf:p=0.5,z=1', -0.01, 5.0231167867476674e-05, 5.023111851541287e-05),
)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@pytest.mark.parametrize("spec", SEED_SPECS)
def test_refined_h_is_pinned_over_the_seed_starts(spec):
    # native only: the 32 searches take about 4.2e7 steps
    from drlab.curve import solve_curve
    from drlab.drivers import driver_from_spec
    psi = driver_from_spec(spec)[0]
    cur = solve_curve(psi, 0.5, 1000)
    pins = [pin for pin in REFINED_H_PINS if pin[0] == spec]
    got = [(spec, v0, refined_h(psi, cur, v0, 1e-9),
            refined_h(psi, cur, v0, 1e-11)) for _, v0, _, _ in pins]
    assert repr(got) == repr(pins)


# ---------------------------------------------------------------------------
# the orbit loops against the hand-written loops they replaced
# ---------------------------------------------------------------------------

def _plain_euler_rows(e, ts):
    """euler_tan_check's rows for one eps from a plain loop over the affine
    simplified system."""
    sq = math.sqrt(e)
    a, b, k = e, 0.0, 0
    rows = []
    for t in sorted(ts):
        while k < int(t / sq):
            b += a
            a *= 1 + b
            k += 1
        x_t, y_t = euler_tan_targets(t)
        rows.append({"eps": e, "t": t, "k": k, "x": a / e, "y": b / sq,
                     "x_exact": x_t, "y_exact": y_t,
                     "y_gap": abs(b / sq - y_t)})
    return rows


@pytest.mark.parametrize("eps,ts", [
    ([1e-2], [0.31, 0.35]), ([1e-4, 1e-6], [0.0, 0.3, 0.7, 1.0]),
    ([1e-8], [5e-5, 0.3, 2.0])])
def test_euler_rows_match_plain_loop(eps, ts):
    rep = euler_tan_check(eps, ts)
    want = [row for e in eps for row in _plain_euler_rows(e, ts)]
    assert repr(rep.rows) == repr(want)
