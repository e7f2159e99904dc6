import math

import numpy as np
import pytest

from drlab.lab import (PI_OVER_SQRT2, Seed, c_star_estimate, c_v_estimate,
                       critical_asymptotics, dual_time_bound,
                       euler_tan_check, euler_tan_targets, make_seed,
                       n_star_scaling, refined_h, sandwich_check,
                       simplified_comparison)
from drlab.recursion import classify, PhaseLabel


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
    seed = make_seed(lf_model.psi, 0.0, refine_tol=1e-9)
    assert (seed.v0, seed.h, seed.refine_tol) == (0.0, 0.0, 1e-9)


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
        if classify(u0, v0, lf_model.psi, max_iter=20000) is not PhaseLabel.SUPERCRITICAL:
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

def test_eta_band_of_lf_driver(lf_model):
    # (psi(x)-1)/x = 1/(1+x) on (0, 0.1]: eta = 0.1 is a valid band
    rep = simplified_comparison(lf_model.psi, 1e-4, 0.0, 0.1, 0.1)
    assert rep.band_ok
    assert rep.ok
    assert rep.n4 is not None


def test_eta_band_violation_reported(lf_model):
    rep = simplified_comparison(lf_model.psi, 1e-4, 0.0, 0.01, 0.5)
    assert not rep.band_ok
    assert rep.band_violation_x is not None
    assert not rep.ok


def test_eta_zero_degenerate_affine(affine):
    rep = simplified_comparison(affine, 1e-4, 0.0, 0.0, 0.1)
    assert rep.band_ok and rep.ok


# ---------------------------------------------------------------------------
# escape-time bound
# ---------------------------------------------------------------------------

def test_dual_time_bound_uniform_in_eps(lf_model, seed_03):
    # the per-orbit supremum of (n* - k) v_k creeps toward its uniform
    # limit from below, so the fitted driver constant carries a 20% margin
    raw = dual_time_bound(lf_model.psi, seed_03, 1e-4)
    assert raw > 0.0
    fit = 1.2 * raw
    for eps in (1e-5, 1e-6, 1e-7):
        later = dual_time_bound(lf_model.psi, seed_03, eps)
        assert later <= fit


def test_refined_h_agrees_with_curve(lf_model, lf_curve):
    from drlab.curve import h_eval
    got = refined_h(lf_model.psi, lf_curve, -0.3, 1e-8)
    assert abs(got - h_eval(lf_curve, -0.3)) < 2e-5


# ---------------------------------------------------------------------------
# the orbit loops against the hand-written loops they replaced
# ---------------------------------------------------------------------------

def _parent_dual_time_bound(psi, h, v0, eps, max_iter=10 ** 7):
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


def _parent_simplified_orbit(psi, u0, v0, eta, delta, max_iter=10 ** 7):
    u, v = u0, v0
    am, bm = (1.0 - eta) * u0, (1.0 - eta) * v0
    ap, bp = (1.0 + eta) * u0, (1.0 + eta) * v0
    first_violation = None
    n4 = None
    k = 0
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
    return n4, first_violation, k


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_dual_time_bound_matches_parent_loop(lf_model, fig1, seed_03,
                                             seed_001, eps):
    for psi, seed in ((lf_model.psi, seed_03), (lf_model.psi, seed_001),
                      (fig1, Seed(-0.3, 0.045)), (fig1, Seed(-0.01, 5e-5))):
        got = dual_time_bound(psi, seed, eps)
        want = _parent_dual_time_bound(psi, seed.h, seed.v0, eps)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("u0,v0,eta,delta", [
    (1e-4, 0.0, 0.1, 0.1), (1e-4, 0.0, 0.06, 0.05), (3e-3, -1e-3, 0.2, 0.1),
    (1e-4, 0.0, 0.0, 0.1)])
def test_simplified_comparison_matches_parent_loop(lf_model, affine, u0, v0,
                                                    eta, delta):
    psi = affine if eta == 0.0 else lf_model.psi
    rep = simplified_comparison(psi, u0, v0, eta, delta)
    assert rep.band_ok
    want = _parent_simplified_orbit(psi, u0, v0, eta, delta)
    assert (rep.n4, rep.first_violation, rep.steps_checked) == want
