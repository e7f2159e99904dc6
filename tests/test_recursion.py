import dataclasses
import functools
import itertools
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drlab import recursion
from drlab.curve import bisect_h, h_eval, residual_local, solve_curve
from drlab.drivers import PsiFunction, driver_from_spec
from drlab.models import CLFParams, LFParams
from drlab.montecarlo import (mc_step, pool_from_clf, pool_from_lf,
                              summarize_pool)
from drlab.recursion import (V_STOP, PhaseLabel, _free_energy_pass,
                             classify_detail, classify_many, free_energy,
                             initial_state, log_f_one_zero, orbit,
                             stopping_times, write_orbit_csv)
from conftest import step


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_zero_u_is_absorbing(affine):
    s = initial_state(0.0, -0.3)
    for _ in range(5):
        s = step(s, affine)
    assert (s.u, s.v) == (0.0, -0.3)
    assert s.log_u == -math.inf


def test_step_example_lf(lf_model):
    s = step(initial_state(1.0, 0.0), lf_model.psi)
    assert s.v == 1.0
    # 1.5 up to the root-finder tolerance baked into the driver constants
    assert abs(s.u - 1.5) < 1e-12


def test_step_example_affine(affine):
    eps = 1e-3
    s = step(initial_state(eps, 0.0), affine)
    assert s.v == eps
    assert abs(s.u - eps * (1.0 + eps)) < 1e-18


@settings(max_examples=200, deadline=None)
@given(u=st.floats(1e-12, 1e6), v=st.floats(-0.45, 100.0))
def test_step_exact_identities(u, v):
    from drlab.drivers import make_lf_psi, ZSpecDiscrete
    psi, _ = make_lf_psi(0.5, ZSpecDiscrete(((1, 1.0),)))
    s = step(initial_state(u, v), psi)
    # v update is the literal float sum; u update is the literal product
    assert s.v == v + u
    w = psi(s.v)
    assert s.u == u * w
    if w > 0.0 and u > 0.0:
        assert abs(s.log_u - (math.log(u) + math.log(w))) <= 1e-12 * max(1.0, abs(s.log_u))


def test_orbit_affine_hand_iteration(affine):
    states = orbit(1.0, 0.0, affine, 2)
    assert [(s.u, s.v) for s in states] == [(1.0, 0.0), (2.0, 1.0), (8.0, 3.0)]


def test_orbit_telescoping(lf_model):
    states = orbit(0.3, -0.2, lf_model.psi, 50)
    total = -0.2
    for s, nxt in zip(states, states[1:]):
        assert nxt.v == s.v + s.u
        total += s.u
    assert states[-1].v == pytest.approx(total, rel=0, abs=0)


def test_orbit_stays_on_exact_curve(fig1):
    # start exactly on the parabola; the orbit should track it closely
    v = -0.3
    u = v * v / 2.0
    s = initial_state(u, v)
    for _ in range(100):
        s = step(s, fig1)
        assert abs(s.u - s.v * s.v / 2.0) < 1e-9


def test_orbit_above_curve_escapes(fig1):
    # u0 = 0.1 > h(-0.4) = 0.08: v must cross zero in finitely many steps
    s = initial_state(0.1, -0.4)
    for _ in range(10 ** 4):
        s = step(s, fig1)
        if s.v > 0.0:
            break
    assert s.v > 0.0


def test_v_nondecreasing_and_log_consistency(lf_model):
    states = orbit(0.05, -0.45, lf_model.psi, 200)
    vs = [s.v for s in states]
    assert all(b >= a for a, b in zip(vs, vs[1:]))
    for s in states:
        if s.u > 0.0 and math.isfinite(s.log_u):
            assert abs(math.exp(s.log_u) - s.u) <= 1e-10 * s.u


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_fig1_super_and_sub(fig1):
    assert classify_detail(0.1, -0.4, fig1)[0] is PhaseLabel.SUPERCRITICAL
    assert classify_detail(0.05, -0.4, fig1)[0] is PhaseLabel.SUBCRITICAL


def test_classify_zero_u(affine, fig1):
    assert classify_detail(0.0, -1.0, affine)[0] is PhaseLabel.SUBCRITICAL
    # fig1 cannot even evaluate at -1, but the absorbing state never calls it
    assert classify_detail(0.0, -1.0, fig1)[0] is PhaseLabel.SUBCRITICAL


def test_classify_undetermined_near_curve(fig1):
    # within float resolution of the exact critical value: not decidable
    label = classify_detail(0.045, -0.3, fig1, max_iter=2000)[0]
    assert label is PhaseLabel.UNDETERMINED


def test_classify_detail_final_state(fig1):
    label, last = classify_detail(0.1, -0.4, fig1)
    assert label is PhaseLabel.SUPERCRITICAL and last.v > 0.0


@pytest.mark.parametrize("spec", ["lf:p=0.5,z=1", "fig1"])
def test_tiny_start_near_the_origin_escapes(spec):
    # h(-1e-8) is about 5e-17, so u0 = 9e-15 lies far above the curve; a
    # rule "u < 1e-14 and v < -1e-9" called this start subcritical at n = 0
    psi, _ = driver_from_spec(spec)
    label, last = classify_detail(9e-15, -1e-8, psi, max_iter=2 * 10 ** 6)
    rec = stopping_times(9e-15, -1e-8, psi, A=1.0, delta=0.1, epsilon=1e-6)
    assert label is PhaseLabel.SUPERCRITICAL
    assert last.n == rec.N0 + 1 == 1115245  # the first v > 0
    if psi.bounded:  # not the subcritical zero, and not settled so soon
        fe = free_energy(9e-15, -1e-8, psi, max_iter=10 ** 4)
        assert fe.log_value > -math.inf and not fe.converged


def test_bisected_seed_is_unchanged(lf_model):
    # the cv-refined seed bisection: the certificate moves no label there,
    # so the bisection returns the same float as the u < 1e-14 rule did
    assert bisect_h(lf_model.psi, -0.3, tol=1e-11) == 0.05180626964574911


def test_supercritical_growth_rate(lf_model):
    # (1/n) log u_n approaches log psi(inf) within 1% by n = 1e5
    psi = lf_model.psi
    u, v, log_u = 1.0, 0.0, 0.0
    n = 10 ** 5
    for _ in range(n):
        v = v + u
        w = psi(v) if v < 1e12 else psi.psi_inf
        u = u * w
        log_u += math.log(w)
    rate = log_u / n
    assert abs(rate - math.log(2.0)) < 0.01 * math.log(2.0)


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

def test_free_energy_requires_bounded(affine):
    with pytest.raises(ValueError):
        free_energy(1.0, 0.0, affine)


def test_free_energy_subcritical_is_zero(lf_model):
    fe = free_energy(0.01, -0.4, lf_model.psi)
    assert fe.value == 0.0 and fe.log_value == -math.inf and fe.converged


def test_free_energy_supercritical_value(lf_model):
    fe = free_energy(1.0, 1.0, lf_model.psi)
    assert 0.0 < fe.value <= 1.0
    assert fe.converged
    assert fe.n_star == 0
    # psi(inf)^(-n) u_n is nonincreasing, so the value cannot exceed u0
    assert fe.log_lower - 1e-9 <= fe.log_value <= fe.log_upper + 1e-9


def test_free_energy_upper_bound_saturates_past_the_float_range(lf_model):
    # log_upper = log(1e308) + log 2 > log(max float): upper is +inf and
    # log_upper keeps the bound
    fe = free_energy(1e308, 1.0, lf_model.psi)
    assert fe.upper == math.inf and fe.n_star == 0 and fe.converged
    assert fe.log_upper == math.log(1e308) + math.log(2.0)
    assert fe.log_value <= fe.log_upper


def test_free_energy_monotone_sequence(lf_model):
    # the normalized sequence decreases along any orbit
    psi = lf_model.psi
    states = orbit(1.0, 1.0, psi, 60)
    seq = [s.log_u - s.n * math.log(2.0) for s in states]
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_log_f_one_zero_cache_keys_on_tolerance():
    # a fresh driver object, so no earlier test has cached its value; the
    # sequence settles to the last bit within a few steps, so only a tiny
    # budget makes the first caller's value differ
    psi, _ = driver_from_spec("lf:p=0.4,z=1")
    coarse = log_f_one_zero(psi, tol=1e-3, max_iter=3)
    fine, _, _ = _free_energy_pass(1.0, 0.0, psi, tol=1e-12, window=100,
                                   max_iter=10 ** 6)
    assert coarse != fine
    assert log_f_one_zero(psi) == fine
    assert log_f_one_zero(psi, tol=1e-3, max_iter=3) == coarse


def test_free_energy_bracket_contains_value(lf_model, lf_curve):
    h = h_eval(lf_curve, -0.3)
    fe = free_energy(h + 1e-4, -0.3, lf_model.psi)
    assert fe.converged
    assert fe.n_star is not None and fe.n_star > 0
    assert fe.log_lower - 1e-9 <= fe.log_value <= fe.log_upper + 1e-9


# ---------------------------------------------------------------------------
# stopping times
# ---------------------------------------------------------------------------

def test_stopping_times_at_origin(lf_model):
    rec = stopping_times(1e-6, 0.0, lf_model.psi, A=10.0, delta=0.1,
                         epsilon=1e-6)
    assert rec.N0 == 0  # v_0 = 0 <= 0 < v_1
    assert rec.n1_A == 0


def test_stopping_times_unit_start(lf_model):
    rec = stopping_times(1.0, 0.0, lf_model.psi, A=1.0, delta=0.1,
                         epsilon=1e-4)
    assert rec.n_star == 0


def test_stopping_times_ordering_near_curve(lf_model, lf_curve):
    eps = 1e-6
    h = h_eval(lf_curve, -0.3)
    rec = stopping_times(h + eps, -0.3, lf_model.psi, A=10.0, delta=0.1,
                         epsilon=eps)
    assert rec.n1_A is not None and rec.n2_A is not None and rec.n_star is not None
    assert rec.n1_A < rec.n2_A < rec.n_star
    assert rec.N0 is not None and rec.n1_A < rec.N0 < rec.n2_A
    assert rec.n3_delta is not None and rec.n4_delta is not None


def _u_n0_over_eps_reference(psi, h0, v0, eps, max_iter=10 ** 7):
    """The turning-point loop c* was first estimated with: u at the last
    step with v <= 0, over eps."""
    u = h0 + eps
    v = v0
    for _ in range(max_iter):
        v1 = v + u
        if v1 > 0.0:
            return u / eps
        u = u * psi(v1)
        v = v1
    return math.nan


@pytest.mark.parametrize("v0", [-0.3, -1e-4])
def test_stopping_record_u_n0_matches_reference_loop(lf_model, lf_curve, v0):
    h0 = h_eval(lf_curve, v0)
    for eps in (1e-5, 1e-6, 1e-7):
        rec = stopping_times(h0 + eps, v0, lf_model.psi, A=10.0, delta=0.1,
                             epsilon=eps)
        want = _u_n0_over_eps_reference(lf_model.psi, h0, v0, eps)
        assert rec.u_N0_over_eps == want  # same operations, same bits


def test_stopping_record_without_turning_point(lf_model):
    rec = stopping_times(0.5, 0.1, lf_model.psi, A=1.0, delta=0.1,
                         epsilon=1e-4)
    assert rec.N0 is None and rec.u_N0 is None
    assert math.isnan(rec.u_N0_over_eps)


def test_stopping_times_validation(lf_model):
    with pytest.raises(ValueError):
        stopping_times(0.0, -0.1, lf_model.psi, A=1.0, delta=0.1, epsilon=1e-6)
    with pytest.raises(ValueError):
        stopping_times(1.0, -0.1, lf_model.psi, A=-1.0, delta=0.1, epsilon=1e-6)


def test_a_negative_step_budget_or_count_is_a_value_error(lf_model):
    psi = lf_model.psi
    calls = [lambda: classify_detail(0.05, -0.3, psi, max_iter=-1),
             lambda: free_energy(0.05, -0.3, psi, max_iter=-1),
             lambda: log_f_one_zero(psi, max_iter=-1),
             lambda: stopping_times(0.05, -0.3, psi, A=1.0, delta=0.1,
                                    epsilon=1e-6, max_iter=-1),
             lambda: orbit(0.05, -0.3, psi, -1)]
    for call in calls:
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            call()
    assert [s.n for s in orbit(0.05, -0.3, psi, 0)] == [0]


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

# the time reversal of forward states s_0..s_{N+1} is the N+1 states
# (u'_n, v'_n) = (u_{N-n}, -v_{N-n+1}), 0 <= n <= N, which solve the
# recursion driven by x -> 1/psi(-x)

def test_backward_orbit_affine_example(affine):
    states = orbit(1.0, 0.0, affine, 3)  # (1,0), (2,1), (8,3), (96,11)
    back = [(a.u, -b.v) for a, b in zip(states[-2::-1], states[::-1])]
    assert [round(u, 12) for u, _ in back] == [8.0, 2.0, 1.0]
    assert [round(v, 12) for _, v in back] == [-11.0, -3.0, -1.0]


def test_backward_orbit_solves_dual_recursion(affine, lf_model, fig1):
    rng = np.random.default_rng(3)
    for psi in (affine, lf_model.psi, fig1):
        for _ in range(10):
            u0 = float(rng.uniform(0.05, 0.5))
            v0 = float(rng.uniform(-0.4, 0.2))
            fwd = orbit(u0, v0, psi, 12)
            back = [(a.u, -b.v) for a, b in zip(fwd[-2::-1], fwd[::-1])]
            # dual recursion: u'_{n+1} = u'_n / psi(-v'_{n+1}), v'_{n+1} = u'_n + v'_n
            # (residuals are relative: escaping orbits reach large magnitudes)
            for (au, av), (bu, bv) in zip(back, back[1:]):
                scale_v = max(1.0, abs(au), abs(av))
                assert abs(bv - (au + av)) <= 1e-12 * scale_v
                expected = au / psi(-bv)
                assert abs(bu - expected) < 1e-12 * max(1.0, abs(bu))


# ---------------------------------------------------------------------------
# monotone comparison
# ---------------------------------------------------------------------------

def _dominates(a0, b0, psi_lo, psi_hi, n):
    """Whether the orbit of b0 under psi_hi dominates that of a0 under
    psi_lo, componentwise, at each of states 0..n."""
    return all(a.u <= b.u and a.v <= b.v for a, b
               in zip(orbit(*a0, psi_lo, n), orbit(*b0, psi_hi, n)))


def test_compare_orbits_equal_inputs(lf_model):
    assert _dominates((0.1, -0.2), (0.1, -0.2), lf_model.psi,
                          lf_model.psi, 200)


def test_compare_orbits_ordered_pair(fig1):
    assert _dominates((0.05, -0.4), (0.1, -0.4), fig1, fig1, 2000)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_orbit_csv_roundtrip(tmp_path, lf_model):
    states = orbit(0.3, -0.25, lf_model.psi, 20)
    path = tmp_path / "orbit.csv"
    with open(path, "w") as fh:
        write_orbit_csv(states, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,u,v,log_u"
    for line, s in zip(lines[1:], states):
        n, u, v, log_u = line.split(",")
        assert int(n) == s.n
        assert float(u) == s.u and float(v) == s.v and float(log_u) == s.log_u


# ---------------------------------------------------------------------------
# the time-reversal dual, a driver without a native description
# ---------------------------------------------------------------------------

def dual_psi(psi: PsiFunction) -> PsiFunction:
    """Time-reversal dual x -> 1/psi(-x).

    The derivative is psi'(-x) / psi(-x)^2, so the dual again satisfies the
    normalization at 0, and the construction is an involution pointwise.
    The dual's domain is the reflection of the original's; since the value
    at the reflected lower boundary may vanish (giving an infinite dual),
    the dual is published as unbounded.
    """
    def fn(x: float) -> float:
        val = psi(-x)
        return math.inf if val == 0.0 else 1.0 / val

    def deriv_fn(x: float) -> float:
        val = psi(-x)
        return math.inf if val == 0.0 else psi.deriv(-x) / (val * val)

    return PsiFunction(name=f"dual({psi.name})", fn=fn, deriv_fn=deriv_fn,
                       psi_inf=math.inf, domain_min=-psi.domain_max,
                       domain_max=-psi.domain_min)


# ---------------------------------------------------------------------------
# every forward loop against reference loops through the checked psi(v)
# ---------------------------------------------------------------------------

def _kernel_drivers():
    from drlab.drivers import make_fig1_psi
    out = {spec: driver_from_spec(spec)[0] for spec in
           ("lf:p=0.5,z=1", "lf:p=0.4,z=1@0.5+2@0.5", "lf:p=0.3,z=3",
            "lf:p=0.4,z=3@0.6+1@0.4",  # the unit atom (s, not pow) second
            "clf:p=0.5,z=1", "clf:p=0.4,z=0.5@0.3+2@0.7", "clf:p=0.3,z=3",
            "fig1",
            "fig1-clamped", "affine")}
    out["dual(fig1)"] = dual_psi(make_fig1_psi())
    return out


KERNEL_DRIVERS = _kernel_drivers()
BOUNDED_DRIVERS = sorted(k for k, psi in KERNEL_DRIVERS.items() if psi.bounded)
NATIVE_DRIVERS = sorted(k for k, psi in KERNEL_DRIVERS.items()
                        if hasattr(psi.fn, "native"))
starts = dict(u0=st.one_of(st.just(0.0), st.floats(1e-9, 3.0)),
              v0=st.floats(-1.2, 0.6))


def _reference_w(psi, v):
    """The driver value a step takes: psi(inf) from V_STOP on for bounded
    drivers, else the checked call."""
    return psi.psi_inf if psi.bounded and v >= V_STOP else psi(v)


def _reference_orbit(u0, v0, psi, n):
    u, v = float(u0), float(v0)
    log_u = math.log(u) if u > 0.0 else -math.inf
    states = [(u, v, log_u)]
    for _ in range(n):
        if log_u > -math.inf:  # a true zero of u is absorbing
            v = v + u
            w = _reference_w(psi, v)
            u, log_u = (0.0, -math.inf) if w == 0.0 else (u * w, log_u + math.log(w))
        states.append((u, v, log_u))
    return states


def _reference_collapses(psi, n, u, v, w):
    """The certificate of collapse at state n, through the checked driver:
    with w in (v, 0), u <= (w - v)(1 - psi(w)) / 4 keeps v at or below w.
    Tested at n = 1024, 2048, ...; u == 0 with v < 0 needs no test."""
    if not v < 0.0:
        return False
    if u == 0.0:
        return True
    if n < 1024 or n % 1024:
        return False
    return u <= 0.25 * (w - v) * (1.0 - psi(w))


def _reference_classify(u0, v0, psi, max_iter):
    """The classification loop as it stood before the orbit kernel, with
    the certificate of collapse at w = v/2."""
    u, v = float(u0), float(v0)
    log_u = math.log(u) if u > 0.0 else -math.inf
    n = 0
    for _ in range(max_iter + 1):
        if v > 0.0 and log_u > -math.inf:
            return "supercritical", (n, u, v, log_u)
        if _reference_collapses(psi, n, u, v, v / 2.0):
            return "subcritical", (n, u, v, log_u)
        if log_u == -math.inf:
            return "undetermined", (n, u, v, log_u)
        v = v + u
        w = psi(v)
        u = u * w
        log_u = log_u + math.log(w) if w > 0.0 else -math.inf
        n += 1
    return "undetermined", (n, u, v, log_u)


def _reference_stopping(u0, v0, psi, A, delta, eps, max_iter):
    """The stopping-time loop, stepping only to states it examines."""
    a_eps = A * math.sqrt(eps)
    u, v = float(u0), float(v0)
    log_u = math.log(u)
    first_pos = n_star = n1 = n2 = n3 = n4 = None
    u_last = None
    for n in range(max_iter + 1):
        if n > 0:
            v = v + u
            w = _reference_w(psi, v)
            if w == 0.0:
                break
            u = u * w
            log_u = log_u + math.log(w)
        if first_pos is None:
            if v > 0.0:
                first_pos = n
            else:
                u_last = u
        if n1 is None and v > -a_eps:
            n1 = n
        if n2 is None and v > a_eps:
            n2 = n
        if n3 is None and v > -delta:
            n3 = n
        if n4 is None and v > delta:
            n4 = n
        if n_star is None and v >= 0.0 and log_u >= 0.0:
            n_star = n
        if None not in (first_pos, n_star, n1, n2, n3, n4):
            break
    N0 = first_pos - 1 if first_pos else None
    return (N0, u_last if N0 is not None else None, n_star, n1, n2, n3, n4)


def _reference_free_energy(u0, v0, psi, tol, window, max_iter):
    """The two passes free_energy made before the orbit kernel: classify,
    then iterate the log-scale sequence.  Returns (log F, n*, converged)."""
    label, _ = _reference_classify(u0, v0, psi, max_iter)
    if label == "subcritical":
        return -math.inf, None, True
    log_pinf = math.log(psi.psi_inf)
    u, v = float(u0), float(v0)
    log_u = math.log(u) if u > 0.0 else -math.inf
    s = log_u
    n_star = 0 if (v >= 0.0 and u >= 1.0) else None
    quiet = 0
    for n in range(1, max_iter + 1):
        if log_u == -math.inf:
            return -math.inf, n_star, label == "supercritical"
        v = v + u
        w = psi(v) if v < V_STOP else psi.psi_inf
        if w == 0.0:
            return -math.inf, n_star, label == "supercritical"
        u = u * w
        log_u = log_u + math.log(w)
        ds = math.log(w) - log_pinf
        s = s + ds
        if n_star is None and v >= 0.0 and log_u >= 0.0:
            n_star = n
        if abs(ds) < tol:
            quiet += 1
            if quiet >= window:
                return s, n_star, label == "supercritical"
        else:
            quiet = 0
    return s, n_star, False


def _outcome(fn, *args, **kwargs):
    """repr of the result (exact to the bit, -0.0 included) or the name of
    the exception raised (DomainError is a ValueError)."""
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)), n=st.integers(0, 80),
       **starts)
def test_orbit_matches_reference_loop(name, u0, v0, n):
    psi = KERNEL_DRIVERS[name]
    got = _outcome(lambda: [(s.u, s.v, s.log_u) for s in orbit(u0, v0, psi, n)])
    assert got == _outcome(_reference_orbit, u0, v0, psi, n)


def test_orbit_of_affine_passes_v_stop_unclipped(affine):
    # unbounded drivers never take the V_STOP shortcut
    states = orbit(1.0, 0.0, affine, 8)
    assert states[-2].v > V_STOP
    assert repr([(s.u, s.v, s.log_u) for s in states]) \
        == repr(_reference_orbit(1.0, 0.0, affine, 8))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       max_iter=st.integers(0, 3000), **starts)
def test_classify_detail_matches_reference_loop(name, u0, v0, max_iter):
    psi = KERNEL_DRIVERS[name]

    def run():
        label, last = classify_detail(u0, v0, psi, max_iter=max_iter,
                                      _log_u=True)
        return label.value, (last.n, last.u, last.v, last.log_u)
    assert _outcome(run) == _outcome(_reference_classify, u0, v0, psi, max_iter)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       u0=st.floats(1e-9, 3.0), v0=st.floats(-1.2, 0.6),
       eps=st.sampled_from([1e-4, 1e-6]), max_iter=st.integers(0, 3000))
def test_stopping_times_matches_reference_loop(name, u0, v0, eps, max_iter):
    psi = KERNEL_DRIVERS[name]

    def run():
        r = stopping_times(u0, v0, psi, A=10.0, delta=0.1, epsilon=eps,
                           max_iter=max_iter)
        return (r.N0, r.u_N0, r.n_star, r.n1_A, r.n2_A, r.n3_delta, r.n4_delta)
    assert _outcome(run) == _outcome(_reference_stopping, u0, v0, psi, 10.0,
                                     0.1, eps, max_iter)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(BOUNDED_DRIVERS),
       tol=st.sampled_from([1e-12, 1e-3, 10.0]),
       window=st.integers(1, 100), max_iter=st.integers(1, 3000), **starts)
def test_free_energy_one_pass_matches_two_pass_reference(name, u0, v0, tol,
                                                         window, max_iter):
    # tol = 10 settles the sequence before the phase is decided.  At
    # max_iter = 0 the reference's classify pass still takes one step, and
    # so raises on a start outside the domain; the one pass takes none.
    psi = KERNEL_DRIVERS[name]

    def run():
        fe = free_energy(u0, v0, psi, tol=tol, window=window,
                         max_iter=max_iter)
        return fe.log_value, fe.n_star, fe.converged
    assert _outcome(run) == _outcome(_reference_free_energy, u0, v0, psi,
                                     tol, window, max_iter)


def test_out_of_domain_start_exits_2(capsys):
    from drlab.cli import main
    code = main(["classify", "--driver", "fig1", "--u0", "0.01",
                 "--v0", "-0.9"])
    assert code == 2
    assert "outside domain" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the native classify loop against the Python kernel
# ---------------------------------------------------------------------------

def _outcome_exact(fn, *args, **kwargs):
    """repr of the result, or the exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=400, deadline=None)
@example(name="lf:p=0.5,z=1", u0=2e12, v0=-0.3, max_iter=5)  # past V_STOP
@example(name="affine", u0=2e12, v0=-0.3, max_iter=5)  # unbounded: fn(v)
@example(name="affine", u0=0.5, v0=-1.5, max_iter=5)  # psi(v) = 0
@given(name=st.sampled_from(NATIVE_DRIVERS),
       max_iter=st.one_of(st.sampled_from([-1, 0]), st.integers(0, 20000)),
       **starts)
def test_native_classify_matches_python_kernel(name, u0, v0, max_iter):
    psi = KERNEL_DRIVERS[name]

    def run():
        return classify_detail(u0, v0, psi, max_iter=max_iter, _log_u=True)
    got = _outcome_exact(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        assert got == _outcome_exact(run)


@pytest.mark.parametrize("name", NATIVE_DRIVERS)
def test_native_classify_matches_python_kernel_near_the_curve(name):
    # long orbits, at both sides of a bisected h(-0.3) and at a wide budget
    psi = KERNEL_DRIVERS[name]
    h = bisect_h(psi, -0.3, tol=1e-7, classify_max_iter=20000)
    starts = [(h * (1.0 + d), -0.3) for d in (-1e-6, 0.0, 1e-6)]
    native = [classify_detail(u, v, psi, max_iter=20000, _log_u=True)
              for u, v in starts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        python = [classify_detail(u, v, psi, max_iter=20000, _log_u=True)
                  for u, v in starts]
    assert repr(native) == repr(python)
    assert max(last.n for _, last in native) > 1000


@pytest.mark.parametrize("name", NATIVE_DRIVERS)
def test_native_certificate_matches_python_kernel_below_the_curve(name):
    # subcritical verdicts of the certificate, 1e-5 to 1e-9 below a
    # bisected h(-0.3), each after at least one check
    psi = KERNEL_DRIVERS[name]
    h = bisect_h(psi, -0.3, tol=1e-11, classify_max_iter=3 * 10 ** 5)
    starts = [(h - d, -0.3) for d in (1e-5, 1e-7, 1e-9)]
    native = [classify_detail(u, v, psi, max_iter=10 ** 5, _log_u=True)
              for u, v in starts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        python = [classify_detail(u, v, psi, max_iter=10 ** 5, _log_u=True)
                  for u, v in starts]
    assert repr(native) == repr(python)
    assert [label for label, _ in native] == [PhaseLabel.SUBCRITICAL] * 3
    ns = [last.n for _, last in native]
    assert ns == sorted(ns) and ns[0] >= 1024 and ns[0] % 1024 == 0


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       v0=st.floats(-0.45, -1e-3), ratio=st.floats(0.2, 0.6))
def test_certified_orbits_never_pass_w(name, v0, ratio):
    # a state the certificate accepts (w = v/2) keeps v <= w for 10^5 more
    # steps; an exact zero of u is accepted without the bound
    psi = KERNEL_DRIVERS[name]
    label, last = classify_detail(ratio * v0 * v0, v0, psi, max_iter=10 ** 5)
    assume(label is PhaseLabel.SUBCRITICAL and last.u > 0.0)
    w = 0.5 * last.v
    for _, v, _, _ in itertools.islice(recursion._orbit(last, psi), 10 ** 5):
        assert v <= w


# ---------------------------------------------------------------------------
# the verdict without the log of each step
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _h_near(name):
    """h(-0.3) of a kernel driver to about 1e-6."""
    return bisect_h(KERNEL_DRIVERS[name], -0.3, tol=1e-6,
                    classify_max_iter=20000)


@settings(max_examples=300, deadline=None)
@example(name="lf:p=0.5,z=1", u0=0.01, v0=-0.4, near=None,
         max_iter=3000)  # classify_sub: u underflows to 0, log u stays finite
@example(name="affine", u0=0.5, v0=-1.5, near=None, max_iter=5)  # psi(v) = 0
@example(name="lf:p=0.5,z=1", u0=0.0, v0=-0.3, near=None,
         max_iter=0)  # u0 = 0
@example(name="fig1", u0=0.0, v0=0.0, near=None, max_iter=3000)  # frozen
@example(name="fig1", u0=0.0, v0=-0.3, near=1e-9, max_iter=3000)  # above h
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       near=st.one_of(st.none(), st.floats(-1e-3, 1e-3)),
       max_iter=st.integers(0, 3000), **starts)
def test_log_free_verdict_matches_the_summed_one_and_the_oracle(
        name, u0, v0, near, max_iter):
    # near: a start (1 + near) h(-0.3) in place of (u0, v0)
    psi = KERNEL_DRIVERS[name]
    if near is not None:
        u0, v0 = (1.0 + near) * _h_near(name), -0.3

    def verdict(**kwargs):
        """repr of (label, n, u, v) or the error, and repr of the log u."""
        try:
            label, last = classify_detail(u0, v0, psi, max_iter=max_iter,
                                          **kwargs)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}", None
        return repr((label, last.n, last.u, last.v)), repr(last.log_u)

    free, free_log = verdict()
    summed, summed_log = verdict(_log_u=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        oracle, oracle_log = verdict(_log_u=True)
        assert verdict() == (free, free_log)
    assert free == summed == oracle
    assert summed_log == oracle_log
    assert free_log == (None if summed_log is None else "nan")


# ---------------------------------------------------------------------------
# several starts in one lockstep call
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@example(name="affine", us=[0.5, 0.0, 0.6], near=[], v0=-1.5,
         max_iter=5)  # psi(v) = 0 absorbs two orbits, one starts at u0 = 0
@example(name="fig1", us=[0.5, 0.01], near=[], v0=-0.9,
         max_iter=5)  # the second start leaves the domain
@example(name="lf:p=0.5,z=1", us=[0.02, 0.02], near=[], v0=-0.3,
         max_iter=3000)  # two orbits that end together
@example(name="lf:p=0.5,z=1", us=[], near=[-1e-4, 1e-4, 1e-6], v0=-0.3,
         max_iter=3000)  # near h: a collapse at 1024, an escape, a give-up
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       us=st.lists(starts["u0"], max_size=3),
       near=st.lists(st.floats(-1e-3, 1e-3), max_size=2),
       v0=starts["v0"], max_iter=st.integers(0, 3000))
def test_classify_many_matches_classify_detail(name, us, near, v0, max_iter):
    # near: starts (1 + near) h(-0.3) after us, which then start at -0.3
    psi = KERNEL_DRIVERS[name]
    if near:
        us, v0 = us + [(1.0 + x) * _h_near(name) for x in near], -0.3

    def each():
        return [classify_detail(u, v0, psi, max_iter=max_iter) for u in us]

    def many():
        return classify_many(us, v0, psi, max_iter=max_iter)
    want = _outcome_exact(each)
    assert _outcome_exact(many) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        assert _outcome_exact(many) == _outcome_exact(each) == want


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_the_cv_refined_seed_decides_its_final_pair_in_one_native_call(
        monkeypatch, lf_model, lf_curve):
    # the benchmark's seed: lf:p=0.5,z=1 at v0 -0.3, m 1000, tol 1e-11.
    # Its last pair, 84% of its steps, must be one lockstep call: a silent
    # fall back to one start per call fails here
    from drlab.lab import refined_h
    classify_detail(0.1, -0.3, lf_model.psi)  # loads the library
    lib, calls = recursion._native, []

    def spy(psi, starts, max_iter, sum_log):
        results = lib.classify(psi, starts, max_iter, sum_log)
        calls.append([(code, last.n) for code, last in results])
        return results
    monkeypatch.setattr(recursion, "_native", lib._replace(classify=spy))
    assert refined_h(lf_model.psi, lf_curve, -0.3, 1e-11) \
        == 0.05180626964526014
    assert calls[-1] == [(1, 961_536), (0, 882_537)]  # sub, then super
    assert sum(len(call) for call in calls) == 16


# ---------------------------------------------------------------------------
# the native stopping-time loop against the Python kernel
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@example(name="lf:p=0.5,z=1", u0=2e12, v0=-0.3, eps=1e-6, max_iter=5)  # past V_STOP
@example(name="affine", u0=2e12, v0=-0.3, eps=1e-6, max_iter=5)  # unbounded
@example(name="affine", u0=0.5, v0=-1.5, eps=1e-6, max_iter=5)  # psi(v) = 0
@example(name="fig1", u0=0.01, v0=-0.9, eps=1e-6, max_iter=1)  # outside
@example(name="fig1", u0=0.01, v0=-0.9, eps=1e-6, max_iter=0)  # no step
@given(name=st.sampled_from(NATIVE_DRIVERS),
       u0=st.floats(1e-9, 3.0), v0=st.floats(-1.2, 0.6),
       eps=st.sampled_from([1e-4, 1e-6, 1e-8]),
       max_iter=st.one_of(st.sampled_from([-1, 0, 1]),
                          st.integers(0, 20000)))
def test_native_stopping_times_matches_python_kernel(name, u0, v0, eps,
                                                     max_iter):
    psi = KERNEL_DRIVERS[name]

    def run():
        return stopping_times(u0, v0, psi, A=10.0, delta=0.1, epsilon=eps,
                              max_iter=max_iter)
    got = _outcome_exact(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        assert got == _outcome_exact(run)


@pytest.mark.parametrize("name", ["lf:p=0.5,z=1", "clf:p=0.5,z=1"])
def test_native_stopping_times_matches_python_kernel_near_the_curve(name):
    # the c-v pass: orbits started eps above a bisected h(-0.3)
    psi = KERNEL_DRIVERS[name]
    h = bisect_h(psi, -0.3, tol=1e-11)
    args = [(h + eps, eps) for eps in (1e-6, 1e-7, 1e-8)]

    def run():
        return [stopping_times(u0, -0.3, psi, A=1.0, delta=0.1, epsilon=eps)
                for u0, eps in args]
    native = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        assert repr(native) == repr(run())
    assert min(r.N0 for r in native) > 1000


def _counting(psi):
    calls = {"fn": 0}
    base_fn = psi.fn

    def counting_fn(x):
        calls["fn"] += 1
        return base_fn(x)
    return counting_fn, calls


def test_rebuilt_drivers_step_through_the_python_kernel():
    # a PsiFunction whose fn is not a built-in one makes one fn call per
    # step: the native loop would make none
    lf = KERNEL_DRIVERS["lf:p=0.5,z=1"]
    fn, calls = _counting(lf)
    copies = [dataclasses.replace(lf, fn=fn),
              PsiFunction("counted", fn, lf.deriv_fn, psi_inf=lf.psi_inf,
                          domain_min=lf.domain_min)]
    # per step, plus one per test of the certificate (at n = 1024, 2048)
    for psi in copies:
        calls["fn"] = 0
        label, last = classify_detail(0.051806269642573365, -0.3, psi,
                                      max_iter=3000)
        assert label is PhaseLabel.UNDETERMINED and last.n == 3001
        assert calls["fn"] == last.n + last.n // 1024
        calls["fn"] = 0
        rec = stopping_times(0.051806269642573365, -0.3, psi, A=1.0,
                             delta=0.1, epsilon=1e-6, max_iter=3000)
        assert rec.N0 is None and calls["fn"] == 3000 + 2
    calls["fn"] = 0
    dual = dual_psi(dataclasses.replace(lf, fn=fn))
    _, last = classify_detail(0.001, -0.4, dual, max_iter=3000)
    assert calls["fn"] == last.n + last.n // 1024 > 0


def test_stopping_pass_ends_once_below_the_curve():
    # from (1e-6, -0.3), below h: no hit can fire, and the pass stops at
    # the first test of the certificate instead of stepping 10^7 times
    lf = KERNEL_DRIVERS["lf:p=0.5,z=1"]
    fn, calls = _counting(lf)
    psi = dataclasses.replace(lf, fn=fn)
    rec = stopping_times(1e-6, -0.3, psi, A=1.0, delta=0.1, epsilon=1e-6)
    assert calls["fn"] == 1024 + 1
    assert (rec.N0, rec.u_N0, rec.n_star, rec.n1_A, rec.n2_A, rec.n3_delta,
            rec.n4_delta) == _reference_stopping(1e-6, -0.3, lf, 1.0, 0.1,
                                                 1e-6, 20000)
    assert rec == stopping_times(1e-6, -0.3, lf, A=1.0, delta=0.1,
                                 epsilon=1e-6)


def _mc_pools(lf_model, clf_model):
    """One Monte Carlo step and summary of each family's pool."""
    out = []
    for pool, model in ((pool_from_lf(LFParams(0.6, 0.9), 20000, 3), lf_model),
                        (pool_from_clf(CLFParams(2.0, 0.5), 20000, 3),
                         clf_model)):
        pool = mc_step(pool, model)
        out.append((pool.samples.tobytes(), summarize_pool(pool, [1, 2])))
    return out


def test_every_c_entry_point_is_bound_by_the_loader():
    # read as text, so that no compiler is needed: each exported drlab_*
    # function of _classify.c is bound by name in _load_native, and each
    # name bound there is defined, so no dead C entry point can stay
    here = os.path.dirname(recursion.__file__)
    with open(os.path.join(here, "_classify.c")) as fh:
        c_source = fh.read()
    with open(os.path.join(here, "recursion.py")) as fh:
        py_source = fh.read()
    defined = set(re.findall(r"^(?!static\b)\w[\w \t*]*\b(drlab_\w+)\s*\(",
                             c_source, re.M))
    loader = py_source.split("\ndef _load_native(")[1].split("\ndef ")[0]
    bound = set(re.findall(r"\bdll\.(drlab_\w+)", loader))
    assert defined == bound
    assert {"drlab_classify", "drlab_resample", "drlab_moments"} <= bound


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_classifier_is_built_and_loaded(monkeypatch, lf_model,
                                               clf_model):
    classify_detail(0.1, -0.3, KERNEL_DRIVERS["lf:p=0.5,z=1"])
    assert recursion._native  # a broken build must not pass in silence
    # nor may the curve solver march or map psi.fn in Python, nor the Monte
    # Carlo drop to numpy: each of their kernels is called
    calls = set()

    def spy(key, fn):
        def call(*args):
            calls.add(key)
            return fn(*args)
        return call
    lib = recursion._native
    monkeypatch.setattr(recursion, "_native", lib._replace(
        psi=spy("psi", lib.psi), march=spy("march", lib.march),
        resample=spy("resample", lib.resample),
        counts=spy("counts", lib.counts), moments=spy("moments", lib.moments)))
    solve_curve(KERNEL_DRIVERS["clf:p=0.5,z=1"], 0.5, 100)
    assert calls == {"psi", "march"}
    # one sample type: each family's pool runs all three Monte Carlo kernels
    for pool, model in ((pool_from_lf(LFParams(0.6, 0.9), 20000, 3), lf_model),
                        (pool_from_clf(CLFParams(2.0, 0.5), 20000, 3),
                         clf_model)):
        calls.clear()
        summarize_pool(mc_step(pool, model), [1, 2])
        assert calls == {"resample", "counts", "moments"}


@pytest.mark.parametrize("name,value", [("_CC", "no-such-c-compiler"),
                                        ("_CFLAGS", ("--no-such-flag",))])
def test_failed_build_falls_back_to_the_python_kernel(monkeypatch, tmp_path,
                                                      name, value, lf_model,
                                                      clf_model):
    psi = KERNEL_DRIVERS["clf:p=0.4,z=0.5@0.3+2@0.7"]

    def run():
        curve = solve_curve(psi, 0.5, 200)
        fig1 = solve_curve(KERNEL_DRIVERS["fig1"], 0.5, 1000)  # curve-sweep's
        return (repr(classify_detail(0.05, -0.3, psi, max_iter=5000,
                                     _log_u=True)),
                repr(stopping_times(0.05, -0.3, psi, A=1.0, delta=0.1,
                                    epsilon=1e-6, max_iter=5000)),
                _mc_pools(lf_model, clf_model),
                curve.grid.g.tobytes(), repr(curve.grid),
                residual_local(curve, psi).tobytes(), curve.residual_sup,
                fig1.grid.g.tobytes(), repr(fig1.grid), fig1.residual_sup)
    want = run()
    monkeypatch.setattr(recursion, name, value)
    monkeypatch.setattr(recursion, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(recursion, "_native", None)
    assert run() == want
    assert recursion._native is False
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    source = os.path.join(os.path.dirname(recursion.__file__), "_classify.c")
    proc = subprocess.run(
        ["gcc", *recursion._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "lib.so"), source, "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_import_does_not_load_and_a_cached_load_does_not_build():
    classify_detail(0.1, -0.3, KERNEL_DRIVERS["fig1"])  # fills the cache
    code = (
        "import sys\n"
        "import drlab.cli\n"
        "from drlab import recursion\n"
        "from drlab.drivers import make_fig1_psi\n"
        "assert recursion._native is None\n"
        "recursion.classify_detail(0.1, -0.3, make_fig1_psi())\n"
        "assert recursion._native\n"
        "assert 'subprocess' not in sys.modules, 'built again'\n"
        "assert 'hashlib' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(recursion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
