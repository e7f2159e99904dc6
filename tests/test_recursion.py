import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlab.curve import h_eval
from drlab.drivers import driver_from_spec
from drlab.recursion import (V_STOP, PhaseLabel, _free_energy_pass,
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
    _, fine, _, _ = _free_energy_pass(1.0, 0.0, psi, tol=1e-12, window=100,
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


# ---------------------------------------------------------------------------
# every forward loop against reference loops through the checked psi(v)
# ---------------------------------------------------------------------------

def _kernel_drivers():
    from drlab.drivers import dual_psi, make_fig1_psi
    out = {spec: driver_from_spec(spec)[0] for spec in
           ("lf:p=0.5,z=1", "clf:p=0.5,z=1", "fig1", "fig1-clamped", "affine")}
    out["dual(fig1)"] = dual_psi(make_fig1_psi())
    return out


KERNEL_DRIVERS = _kernel_drivers()
BOUNDED_DRIVERS = sorted(k for k, psi in KERNEL_DRIVERS.items() if psi.bounded)
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


def _reference_classify(u0, v0, psi, max_iter):
    """The classification loop as it stood before the orbit kernel."""
    u, v = float(u0), float(v0)
    log_u = math.log(u) if u > 0.0 else -math.inf
    n = 0
    for _ in range(max_iter + 1):
        if v > 0.0 and log_u > -math.inf:
            return "supercritical", (n, u, v, log_u)
        if u < 1e-14 and v < -1e-9:
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
        label, last = classify_detail(u0, v0, psi, max_iter=max_iter)
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
