import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlab.curve import solve_curve
from drlab.drivers import ZSpecDiscrete
from drlab.lab import refined_h
from drlab.models import (CLFParams, LFParams, clf_geometric_sum, clf_step,
                          clf_subtract, clf_tail, clf_to_uv, gamma_star, law_stats, lf_geometric_sum,
                          lf_step, lf_subtract, lf_tail, lf_to_uv,
                          make_lf_model, model_free_energy, model_step,
                          model_to_uv, rho_star)
from drlab.recursion import PhaseLabel, initial_state
from conftest import step


def lf_pmf(params: LFParams, k: int) -> float:
    """P(Y = k) for an LF law."""
    a, b = params.alpha, params.beta
    s = a + b
    if k == 0:
        return 1.0 - 1.0 / s
    return a / s ** 2 * (b / s) ** (k - 1)


def pqab_closed_form(params: LFParams, p: float, z: ZSpecDiscrete) -> LFParams:
    """Independent oracle: the single-formula parameter update."""
    a, b = params.alpha, params.beta
    d = z.pgf((1.0 - p + p * b) / (1.0 - p + p * (a + b)))
    return LFParams(p * a / d, (1.0 - p + p * b) / d)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        LFParams(0.4, 0.4)          # alpha + beta < 1
    with pytest.raises(ValueError):
        LFParams(-1.0, 2.0)
    with pytest.raises(ValueError):
        CLFParams(0.0, 0.5)
    with pytest.raises(ValueError):
        CLFParams(1.0, 1.5)
    LFParams(0.5, 0.5)
    CLFParams(2.0, 0.0)


# ---------------------------------------------------------------------------
# LF one-step maps
# ---------------------------------------------------------------------------

def test_lf_geometric_sum_example():
    out = lf_geometric_sum(LFParams(0.6, 0.9), 0.5)
    assert (out.alpha, out.beta) == (0.3, 0.95)


def test_lf_geometric_sum_identity_at_p1():
    out = lf_geometric_sum(LFParams(0.6, 0.9), 1.0)
    assert (out.alpha, out.beta) == (0.6, 0.9)


def test_lf_subtract_example(z1_discrete):
    out = lf_subtract(LFParams(0.3, 0.95), z1_discrete)
    assert abs(out.alpha - 0.3 / 0.76) < 1e-15
    assert abs(out.beta - 1.25) < 1e-15


def test_lf_subtract_strictly_inflates(z1_discrete):
    # pgf at an interior point is < 1, so both parameters strictly grow
    params = LFParams(0.7, 0.8)
    out = lf_subtract(params, z1_discrete)
    assert out.alpha > params.alpha and out.beta > params.beta


def test_lf_step_chains_the_two_maps(lf_model):
    out = lf_step(LFParams(0.6, 0.9), lf_model)
    assert abs(out.alpha - 0.394737) < 1e-6
    assert abs(out.beta - 1.25) < 1e-12


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, 5.0), beta=st.floats(0.05, 5.0),
       p=st.floats(0.05, 0.95))
def test_lf_step_equals_closed_form(alpha, beta, p):
    if alpha + beta < 1.0:
        alpha = alpha + (1.0 - alpha - beta) + 0.01
    z = ZSpecDiscrete(((1, 0.5), (2, 0.5)))
    params = LFParams(alpha, beta)
    via_facts = lf_subtract(lf_geometric_sum(params, p), z)
    direct = pqab_closed_form(params, p, z)
    assert abs(via_facts.alpha - direct.alpha) <= 1e-15 * direct.alpha
    assert abs(via_facts.beta - direct.beta) <= 1e-15 * direct.beta


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 5.0), beta=st.floats(0.05, 5.0))
def test_lf_invariant_preserved_along_orbits(lf_model, alpha, beta):
    if alpha + beta < 1.0:
        beta = beta + (1.0 - alpha - beta) + 0.01
    params = LFParams(alpha, beta)
    for _ in range(50):
        params = lf_step(params, lf_model)  # constructor revalidates
        assert params.alpha + params.beta >= 1.0 - 1e-12


def test_lf_to_uv_examples(lf_model):
    u, v = lf_to_uv(LFParams(1.0, 0.5), lf_model)
    assert abs(u - 0.5) < 1e-12
    assert abs(v + 0.25) < 1e-12
    _, v0 = lf_to_uv(LFParams(1.0, lf_model.constants.root), lf_model)
    assert abs(v0) < 1e-12


def test_conditioned_lf_law_is_geometric():
    params = LFParams(0.8, 1.7)
    ratios = [lf_pmf(params, k + 1) / lf_pmf(params, k) for k in range(1, 12)]
    lam = params.beta / (params.alpha + params.beta)
    assert all(abs(r - lam) < 1e-14 for r in ratios)
    # tails consistent with the pmf
    assert abs(lf_tail(params, 3) - sum(lf_pmf(params, k)
                                        for k in range(3, 400))) < 1e-12


# ---------------------------------------------------------------------------
# CLF one-step maps
# ---------------------------------------------------------------------------

def test_clf_geometric_sum_examples():
    out = clf_geometric_sum(CLFParams(2.0, 0.5), 0.5)
    assert abs(out.lam - 4.0 / 3.0) < 1e-15
    assert abs(out.rho - 2.0 / 3.0) < 1e-15
    # rho = 0 is the zero law whatever the rate; the map fixes lam
    degenerate = clf_geometric_sum(CLFParams(2.0, 0.0), 0.5)
    assert (degenerate.lam, degenerate.rho) == (2.0, 0.0)
    full = clf_geometric_sum(CLFParams(2.0, 1.0), 0.5)
    assert (full.lam, full.rho) == (1.0, 1.0)


def test_clf_subtract_examples(z1_continuous):
    out = clf_subtract(CLFParams(4.0 / 3.0, 2.0 / 3.0), z1_continuous)
    assert out.lam == 4.0 / 3.0
    assert abs(out.rho - (2.0 / 3.0) * math.exp(-4.0 / 3.0)) < 1e-15
    # Laplace transform tends to 1 at rate 0: almost no mass is lost
    tiny = clf_subtract(CLFParams(1e-9, 0.5), z1_continuous)
    assert abs(tiny.rho - 0.5) / 0.5 < 1e-8


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.05, 20.0), rho=st.floats(0.0, 1.0))
def test_clf_invariant_preserved(clf_model, lam, rho):
    params = CLFParams(lam, rho)
    for _ in range(50):
        params = clf_step(params, clf_model)
        assert -1e-12 <= params.rho <= 1.0 + 1e-12


def test_clf_to_uv_examples(clf_model):
    tau = clf_model.constants.root
    _, v = clf_to_uv(CLFParams(1.0 / tau, 0.7), clf_model)
    assert abs(v) < 1e-12
    u, v = clf_to_uv(CLFParams(math.log(2.0), 0.3), clf_model)
    assert abs(v) < 1e-12
    assert abs(u - 0.3 * math.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# commuting squares with the recursion
# ---------------------------------------------------------------------------

def test_lf_commuting_square(lf_model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(max(0.25 * alpha, 1.0 - alpha) + 0.01,
                                 3.0 * alpha + 1.0))
        params = LFParams(alpha, beta)
        u, v = lf_to_uv(params, lf_model)
        s = initial_state(u, v)
        for _ in range(100):
            params = lf_step(params, lf_model)
            s = step(s, lf_model.psi)
            u2, v2 = lf_to_uv(params, lf_model)
            assert abs(u2 - s.u) <= 1e-12 * max(abs(s.u), 1e-300)
            assert abs(v2 - s.v) <= 1e-12 * max(abs(s.v), 1.0)


def test_clf_commuting_square(clf_model):
    rng = np.random.default_rng(6)
    for _ in range(20):
        params = CLFParams(float(rng.uniform(0.3, 2.5)),
                           float(rng.uniform(0.05, 1.0)))
        u, v = clf_to_uv(params, clf_model)
        s = initial_state(u, v)
        for _ in range(100):
            params = clf_step(params, clf_model)
            s = step(s, clf_model.psi)
            u2, v2 = clf_to_uv(params, clf_model)
            assert abs(u2 - s.u) <= 1e-12 * max(abs(s.u), 1e-300)
            assert abs(v2 - s.v) <= 1e-12 * max(abs(s.v), 1.0)


# ---------------------------------------------------------------------------
# one model type: the family follows the Z law and the params type
# ---------------------------------------------------------------------------

def test_model_family_follows_the_z_law(lf_model, clf_model):
    assert lf_model.zspec.integer and not clf_model.zspec.integer
    assert type(lf_model) is type(clf_model)


def test_model_step_and_to_uv_follow_the_params_family(lf_model, clf_model):
    lf, clf = LFParams(0.6, 0.9), CLFParams(2.0, 0.5)
    assert model_step(lf, lf_model) == lf_step(lf, lf_model)
    assert model_step(clf, clf_model) == clf_step(clf, clf_model)
    assert model_to_uv(lf, lf_model) == lf_to_uv(lf, lf_model)
    assert model_to_uv(clf, clf_model) == clf_to_uv(clf, clf_model)


def test_law_stats_of_each_family():
    lf = LFParams(0.8, 1.7)
    positive, tails, mean = law_stats(lf)
    assert abs(positive - (1.0 - lf_pmf(lf, 0))) < 1e-15
    assert tails == [(f"tail_ge_{k}", k - 1, lf_tail(lf, k))
                     for k in range(1, 6)]
    assert mean == 1.0 / 0.8
    clf = CLFParams(2.0, 0.5)
    positive, tails, mean = law_stats(clf)
    assert positive == 0.5 and mean == 0.25
    assert [name for name, _, _ in tails] == [
        "tail_gt_0.25", "tail_gt_0.5", "tail_gt_0.75", "tail_gt_1",
        "tail_gt_1.5"]
    assert all(pr == clf_tail(clf, t) for _, t, pr in tails)


# ---------------------------------------------------------------------------
# free energies
# ---------------------------------------------------------------------------

def test_free_energy_lf_subcritical(lf_model):
    assert model_free_energy(lf_model, LFParams(20.0, 1.0)).value == 0.0


def test_free_energy_lf_matches_direct_iteration(lf_model):
    params0 = LFParams(0.6, 0.9)
    fe = model_free_energy(lf_model, params0)
    assert fe.value > 0.0 and fe.converged
    # independent oracle: iterate p^n / alpha_n directly to stabilization
    params = params0
    p = lf_model.p
    log_ratio = 0.0
    prev = math.inf
    for n in range(1, 20000):
        params = lf_step(params, lf_model)
        log_ratio = n * math.log(p) - math.log(params.alpha)
        if abs(log_ratio - prev) < 1e-14:
            break
        prev = log_ratio
    assert abs(math.exp(log_ratio) - fe.value) <= 1e-10 * fe.value


def test_free_energy_clf_positive_in_supercritical(clf_model):
    fe = model_free_energy(clf_model, CLFParams(0.5, 0.9))
    assert fe.value > 0.0


def test_free_energy_lf_monotone_in_scale(lf_model):
    # shrinking both parameters by gamma raises u0, hence the free energy
    alpha, beta = 1.0, 0.5
    values = []
    for gamma in (0.12, 0.16, 0.2):
        fe = model_free_energy(lf_model, LFParams(alpha / gamma, beta / gamma))
        values.append(fe.value)
    assert values[0] <= values[1] <= values[2]
    assert values[-1] > 0.0


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_gamma_star_at_the_ray_edge(lf_model, lf_curve):
    rep = gamma_star(lf_model, 1.0, lf_model.constants.root, lf_curve)
    assert rep.hyp_ok and abs(rep.value) < 1e-12


def test_gamma_star_reference_value(lf_model, lf_curve):
    rep = gamma_star(lf_model, 1.0, 0.5, lf_curve)
    assert rep.hyp_ok
    assert abs(rep.value - 0.0708) < 2e-3
    assert rep.straddle_upper is PhaseLabel.SUPERCRITICAL
    assert rep.straddle_lower is PhaseLabel.SUBCRITICAL
    assert rep.straddle_ok


def test_gamma_star_straddle_by_free_energy(lf_model, lf_curve):
    gam = gamma_star(lf_model, 1.0, 0.5, lf_curve).value
    above = model_free_energy(lf_model, LFParams(1.0 / (1.1 * gam), 0.5 / (1.1 * gam)))
    below = model_free_energy(lf_model, LFParams(1.0 / (0.9 * gam), 0.5 / (0.9 * gam)))
    assert above.value > 0.0
    assert below.value == 0.0


def test_gamma_star_admissibility_failure_regime():
    # p large: the curve value at the seed exceeds the scale bound and the
    # family has zero free energy everywhere
    model = make_lf_model(0.9, ZSpecDiscrete(((1, 1.0),)))
    cur = solve_curve(model.psi, 0.0999, 1000)
    rep = gamma_star(model, 0.5, 0.5, cur)
    assert not rep.hyp_ok and rep.value is None
    assert "identically 0" in rep.message
    fe = model_free_energy(model, LFParams(0.5 / 0.9, 0.5 / 0.9))
    assert fe.value == 0.0


def test_rho_star_edges_and_value(clf_model, clf_curve):
    rep0 = rho_star(clf_model, 1.0 / clf_model.constants.root, clf_curve)
    assert rep0.hyp_ok and abs(rep0.value) < 1e-12
    rep = rho_star(clf_model, 2.0 * math.log(2.0), clf_curve)
    assert rep.hyp_ok and 0.0 < rep.value < 1.0
    assert abs(rep.v_seed + math.log(2.0) / 2.0) < 1e-12
    assert rep.straddle_ok


# every field of each report, by repr: the threshold, its start, the curve
# value there, the admissibility verdict, the message and both straddles
_THRESHOLD_REPORTS = {
    "gamma-1-0.5": (
        "ThresholdReport(value=0.07048701758819383, hyp_ok=True, "
        "v_seed=-0.2500000000000071, h_at_seed=0.035243508794095914, "
        "message='ok', straddle_upper=<PhaseLabel.SUPERCRITICAL: "
        "'supercritical'>, straddle_lower=<PhaseLabel.SUBCRITICAL: "
        "'subcritical'>)"),
    "gamma-ray-edge": (
        "ThresholdReport(value=0.0, hyp_ok=True, v_seed=0.0, h_at_seed=0.0, "
        "message='ok', straddle_upper=None, straddle_lower=None)"),
    "gamma-admissibility-failure": (
        "ThresholdReport(value=None, hyp_ok=False, "
        "v_seed=-0.0888888888888887, h_at_seed=0.008902054675143099, "
        "message='admissibility bound fails: free energy identically 0 on "
        "the family', straddle_upper=None, straddle_lower=None)"),
    "rho-inv-tau": (
        "ThresholdReport(value=0.0, hyp_ok=True, v_seed=0.0, h_at_seed=0.0, "
        "message='ok', straddle_upper=None, straddle_lower=None)"),
    "rho-2log2": (
        "ThresholdReport(value=0.1986164522180897, hyp_ok=True, "
        "v_seed=-0.34657359027996804, h_at_seed=0.06883521693389574, "
        "message='ok', straddle_upper=<PhaseLabel.SUPERCRITICAL: "
        "'supercritical'>, straddle_lower=<PhaseLabel.SUBCRITICAL: "
        "'subcritical'>)"),
}


@pytest.mark.parametrize("case", sorted(_THRESHOLD_REPORTS))
def test_threshold_reports_are_pinned(case, lf_model, lf_curve, clf_model,
                                      clf_curve):
    if case == "gamma-1-0.5":
        rep = gamma_star(lf_model, 1.0, 0.5, lf_curve)
    elif case == "gamma-ray-edge":
        rep = gamma_star(lf_model, 1.0, lf_model.constants.root, lf_curve)
    elif case == "gamma-admissibility-failure":
        model = make_lf_model(0.9, ZSpecDiscrete(((1, 1.0),)))
        rep = gamma_star(model, 0.5, 0.5, solve_curve(model.psi, 0.0999, 1000))
    elif case == "rho-inv-tau":
        rep = rho_star(clf_model, 1.0 / clf_model.constants.root, clf_curve)
    else:
        rep = rho_star(clf_model, 2.0 * math.log(2.0), clf_curve)
    assert repr(rep) == _THRESHOLD_REPORTS[case]


@pytest.mark.parametrize("alpha,beta,match", [
    (math.nan, 0.5, "must be positive"), (1.0, math.nan, "must be positive"),
    (0.3, 0.3, "alpha \\+ beta >= 1")], ids=["nan-alpha", "nan-beta", "sum-below-1"])
def test_gamma_star_refuses_inadmissible_parameters(lf_model, lf_curve, alpha,
                                                    beta, match):
    with pytest.raises(ValueError, match=match):
        gamma_star(lf_model, alpha, beta, lf_curve)


@pytest.mark.parametrize("lam", [math.nan, 0.0, -1.0])
def test_rho_star_refuses_a_lambda_that_is_not_positive(clf_model, clf_curve,
                                                        lam):
    with pytest.raises(ValueError, match="lambda=.* must be a positive number"):
        rho_star(clf_model, lam, clf_curve)


# ---------------------------------------------------------------------------
# critical orbits
# ---------------------------------------------------------------------------

def critical_lf_stats(model, gam, marks, alpha=1.0, beta=0.5):
    """{n: (n^2/(alpha_n+beta_n), beta_n/(alpha_n+beta_n), beta_n/alpha_n)}
    at each of the marks along the closed-form orbit from
    LF(alpha/gam, beta/gam); at gam = gamma* the first two tend to
    2p/((1-p) slope (1+xi)) and xi/(1+xi), and the third to xi."""
    params = LFParams(alpha / gam, beta / gam)
    stats = {}
    for n in range(1, max(marks) + 1):
        params = lf_step(params, model)
        if n in marks:
            s = params.alpha + params.beta
            stats[n] = (n * n / s, params.beta / s, params.beta / params.alpha)
    return stats


def test_critical_tail_constants(lf_model, lf_curve):
    # refine the seed so the orbit tracks the curve out to n ~ 1e3
    h25 = refined_h(lf_model.psi, lf_curve, -0.25, 2e-9)
    gam = lf_model.p * 1.0 * h25 / (lf_model.constants.slope * 0.5)
    c, p = lf_model.constants, lf_model.p
    target_tail = 2.0 * p / ((1.0 - p) * c.slope * (1.0 + c.root))
    target_ratio = c.root / (1.0 + c.root)
    assert abs(target_tail - 2.0) < 1e-10
    assert abs(target_ratio - 0.5) < 1e-12
    t, r, _ = critical_lf_stats(lf_model, gam, {2000})[2000]
    assert abs(t - 2.0) < 0.2
    assert abs(r - 0.5) < 0.025


def test_critical_orbit_ratio_tends_to_xi(lf_model, lf_curve):
    gam = gamma_star(lf_model, 1.0, 0.5, lf_curve).value
    _, _, q = critical_lf_stats(lf_model, gam, {1000})[1000]
    assert abs(q - lf_model.constants.root) < 0.05
