import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlab.curve import h_eval
from drlab.drivers import driver_from_spec
from drlab.recursion import (PhaseLabel, _iterate_log_free_energy,
                             backward_orbit, classify, classify_detail,
                             compare_orbits, free_energy, initial_state,
                             log_f_one_zero, orbit, step, stopping_times,
                             write_orbit_csv)


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
    assert classify(0.1, -0.4, fig1) is PhaseLabel.SUPERCRITICAL
    assert classify(0.05, -0.4, fig1) is PhaseLabel.SUBCRITICAL


def test_classify_zero_u(affine, fig1):
    assert classify(0.0, -1.0, affine) is PhaseLabel.SUBCRITICAL
    # fig1 cannot even evaluate at -1, but the absorbing state never calls it
    assert classify(0.0, -1.0, fig1) is PhaseLabel.SUBCRITICAL


def test_classify_undetermined_near_curve(fig1):
    # within float resolution of the exact critical value: not decidable
    label = classify(0.045, -0.3, fig1, max_iter=2000)
    assert label is PhaseLabel.UNDETERMINED


def test_classify_detail_final_state(fig1):
    label, last = classify_detail(0.1, -0.4, fig1)
    assert label is PhaseLabel.SUPERCRITICAL and last.v > 0.0


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
    fine, _, _ = _iterate_log_free_energy(1.0, 0.0, psi, tol=1e-12,
                                          window=100, max_iter=10 ** 6)
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


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_backward_orbit_affine_example(affine):
    states = orbit(1.0, 0.0, affine, 3)  # (1,0), (2,1), (8,3), (96,11)
    back = backward_orbit(states)
    assert [round(s.u, 12) for s in back] == [8.0, 2.0, 1.0]
    assert [round(s.v, 12) for s in back] == [-11.0, -3.0, -1.0]


def test_backward_orbit_solves_dual_recursion(affine, lf_model, fig1):
    rng = np.random.default_rng(3)
    for psi in (affine, lf_model.psi, fig1):
        for _ in range(10):
            u0 = float(rng.uniform(0.05, 0.5))
            v0 = float(rng.uniform(-0.4, 0.2))
            fwd = orbit(u0, v0, psi, 12)
            back = backward_orbit(fwd)
            # dual recursion: u'_{n+1} = u'_n / psi(-v'_{n+1}), v'_{n+1} = u'_n + v'_n
            # (residuals are relative: escaping orbits reach large magnitudes)
            for a, b in zip(back, back[1:]):
                scale_v = max(1.0, abs(a.u), abs(a.v))
                assert abs(b.v - (a.u + a.v)) <= 1e-12 * scale_v
                expected = a.u / psi(-b.v)
                assert abs(b.u - expected) < 1e-12 * max(1.0, abs(b.u))


def test_backward_orbit_roundtrip(lf_model):
    fwd = orbit(0.2, -0.1, lf_model.psi, 9)
    twice = backward_orbit(backward_orbit(fwd))
    inner = fwd[1:-1]
    assert len(twice) == len(inner)
    for a, b in zip(twice, inner):
        assert (a.u, a.v) == (b.u, b.v)


def test_backward_orbit_needs_two_states(affine):
    with pytest.raises(ValueError):
        backward_orbit(orbit(1.0, 0.0, affine, 0))


# ---------------------------------------------------------------------------
# monotone comparison
# ---------------------------------------------------------------------------

def test_compare_orbits_equal_inputs(lf_model):
    rep = compare_orbits((0.1, -0.2), (0.1, -0.2), lf_model.psi,
                         lf_model.psi, 200)
    assert rep.ok and rep.first_violation is None


def test_compare_orbits_ordered_pair(fig1):
    rep = compare_orbits((0.05, -0.4), (0.1, -0.4), fig1, fig1, 2000)
    assert rep.ok


def test_compare_orbits_rejects_unordered_psis(affine, lf_model):
    # 1 + x exceeds (1+2x)/(1+x) except at 0, so affine is not a lower driver
    with pytest.raises(ValueError):
        compare_orbits((0.1, -0.2), (0.1, -0.2), affine, lf_model.psi, 10)


def test_compare_orbits_rejects_unordered_starts(lf_model):
    with pytest.raises(ValueError):
        compare_orbits((0.2, -0.2), (0.1, -0.2), lf_model.psi,
                       lf_model.psi, 10)


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
