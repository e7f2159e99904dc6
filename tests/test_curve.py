import io
import math
import time

import numpy as np
import pytest

from drlab.curve import (bisect_h, curve_from_h, dual_curve, h_eval,
                         iterate_g, pick_K, read_curve_csv, residual,
                         solve_curve, solve_g1, validate_grid,
                         write_curve_csv)
from drlab.errors import DomainError


# ---------------------------------------------------------------------------
# the ODE initializer
# ---------------------------------------------------------------------------

def test_g1_initial_condition(lf_model):
    grid = solve_g1(lf_model.psi, 0.5, 1000)
    assert grid.g[-1] == 0.0
    validate_grid(grid)


def test_g1_affine_closed_form(affine):
    # y' = 1 + y, y(0) = 0 has solution e^x - 1
    grid = solve_g1(affine, 0.5, 1000)
    xs = grid.xs
    assert np.max(np.abs(grid.g - (np.exp(xs) - 1.0))) < 1e-8


def test_g1_reference_value(lf_model):
    grid = solve_g1(lf_model.psi, 0.5, 1000)
    assert abs((grid.g[0] + 0.5) - 0.1392) < 2e-3


# ---------------------------------------------------------------------------
# damping constant
# ---------------------------------------------------------------------------

def test_pick_k_positive_and_finite(lf_model, fig1):
    for psi in (lf_model.psi, fig1):
        K = pick_K(psi, 0.5, 1000)
        assert math.isfinite(K) and K > 0.0


def test_pick_k_override_honored(lf_model):
    cur = solve_curve(lf_model.psi, 0.5, 200, K_override=10.0, sweeps=5)
    assert cur.grid.K == 10.0


def test_pick_k_monotone_in_A(affine):
    assert pick_K(affine, 0.5, 500) <= pick_K(affine, 1.0, 500)


def test_pick_k_dominates_supremand(lf_model):
    # K must dominate psi(x) + (x+A) psi'(x) for sweep monotonicity
    psi = lf_model.psi
    A = 0.5
    K = pick_K(psi, A, 1000)
    xs = np.linspace(-A + 1e-9, 0.0, 5000)
    sup = np.max(psi(xs) + (xs + A) * psi.deriv(xs))
    assert K >= sup


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_fixed_point_is_stationary(fig1, fig1_curve):
    again = iterate_g(fig1_curve.grid, fig1)
    assert again.sup_change_last < 1e-10


def test_sweeps_monotone_and_invariant_preserving(lf_model):
    grid = solve_g1(lf_model.psi, 0.5, 500, K=10.0)
    for _ in range(100):
        nxt = iterate_g(grid, lf_model.psi)
        assert float(np.min(nxt.g - grid.g)) >= -1e-12
        validate_grid(nxt)
        assert nxt.clamp_last < 1e-13
        grid = nxt


def test_sweep_regression_against_reference_iterates(lf_model):
    # K = 10 on [-0.5, 0]: values of g_n(-0.5) + 0.5 at n = 1, 10, 100, 1000
    targets = {1: 0.1392, 10: 0.1461, 100: 0.1520, 1000: 0.1522}
    grid = solve_g1(lf_model.psi, 0.5, 1000, K=10.0)
    assert abs(grid.g[0] + 0.5 - targets[1]) < 2e-3
    for n in range(2, 1001):
        grid = iterate_g(grid, lf_model.psi)
        if n in targets:
            assert abs(grid.g[0] + 0.5 - targets[n]) < 2e-3, n


# ---------------------------------------------------------------------------
# solve_curve
# ---------------------------------------------------------------------------

def test_fig1_curve_is_half_parabola(fig1, fig1_curve):
    xs = fig1_curve.xs
    assert fig1_curve.converged
    assert np.max(np.abs(fig1_curve.h_values - 0.5 * xs * xs)) < 2e-3
    assert fig1_curve.h_values[-1] == 0.0
    assert fig1_curve.residual_sup < 1e-5
    assert fig1_curve.nontrivial


def test_curve_invariants_after_convergence(lf_curve):
    h = lf_curve.h_values
    xs = lf_curve.xs
    assert np.all(np.diff(h) <= 1e-12)          # h nonincreasing
    assert np.all(h >= -1e-15) and np.all(h <= -xs + 1e-15)
    validate_grid(lf_curve.grid)


def test_curve_quadratic_asymptotics(lf_model, fig1):
    # the ratio near 0 exposes the grid bias, so use a finer solve than the
    # default fixtures
    for psi in (lf_model.psi, fig1):
        cur = solve_curve(psi, 0.5, 3000)
        xs = np.linspace(-0.05, -0.005, 19)
        ratio = h_eval(cur, xs) / (0.5 * xs * xs)
        assert np.all((0.9 <= ratio) & (ratio <= 1.1))


def test_curve_local_convexity_near_zero(lf_curve):
    xs = lf_curve.xs
    sel = xs >= -0.1
    h = lf_curve.h_values[sel]
    assert np.min(np.diff(h, 2)) >= -1e-9


def test_nonconvergence_is_flagged_not_raised(lf_model):
    cur = solve_curve(lf_model.psi, 0.5, 200, tol=1e-15, max_sweeps=3)
    assert not cur.converged


# ---------------------------------------------------------------------------
# evaluation, residual
# ---------------------------------------------------------------------------

def test_h_eval_contract(fig1_curve):
    assert h_eval(fig1_curve, 0.7) == 0.0
    assert h_eval(fig1_curve, 0.0) == 0.0
    assert abs(h_eval(fig1_curve, -0.4) - 0.08) < 1e-3
    with pytest.raises(DomainError):
        h_eval(fig1_curve, -0.6)


def test_h_eval_reference_interior_point(lf_curve):
    # tabulated reference points bracket h(-0.25) around 0.0354
    assert abs(h_eval(lf_curve, -0.25) - 0.0354) < 1e-3
    assert abs(h_eval(lf_curve, -0.5) - 0.1522) < 2e-3


def test_residual_exact_parabola(fig1):
    cur = curve_from_h(0.5, 10 ** 4, lambda xs: 0.5 * xs * xs)
    assert residual(cur, fig1) < 1e-6


def test_residual_converged_lf(lf_model, lf_curve):
    assert residual(lf_curve, lf_model.psi) < 1e-5


def test_zero_curve_solves_equation_but_is_trivial(fig1):
    cur = curve_from_h(0.5, 1000, lambda xs: np.zeros_like(xs))
    assert residual(cur, fig1) == 0.0
    assert not cur.nontrivial


# ---------------------------------------------------------------------------
# bisection oracle
# ---------------------------------------------------------------------------

def test_bisect_fig1_reference(fig1):
    assert abs(bisect_h(fig1, -0.4, tol=1e-5) - 0.08) < 1e-4


def test_bisect_agrees_with_solver(lf_model, lf_curve, fig1, fig1_curve):
    for psi, cur in ((lf_model.psi, lf_curve), (fig1, fig1_curve)):
        for v in (-0.1, -0.3, -0.5):
            assert abs(bisect_h(psi, v, tol=1e-4) - h_eval(cur, v)) < 1e-3


def test_bisect_tiny_v_quadratic(fig1):
    # h(v) ~ v^2/2 near zero: at v = -1e-6 the value is ~5e-13
    got = bisect_h(fig1, -1e-6, tol=2e-13, lo=0.0, hi=2e-12,
                   classify_max_iter=2 * 10 ** 7)
    assert 5e-13 / 1.5 <= got <= 5e-13 * 1.5


def test_bisect_requires_negative_v(fig1):
    with pytest.raises(ValueError):
        bisect_h(fig1, 0.1)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_bisect_rejects_nonpositive_tol(fig1, tol):
    with pytest.raises(ValueError):
        bisect_h(fig1, -0.3, tol=tol)


def test_bisect_stops_at_float_resolution(fig1):
    # 1e-20 is below the float spacing near h(-0.3) = 0.045: the bracket
    # stops shrinking at adjacent floats, as a tol of one ulp stops it
    start = time.perf_counter()
    fine = bisect_h(fig1, -0.3, tol=1e-20, classify_max_iter=1000)
    assert time.perf_counter() - start < 1.0
    coarse = bisect_h(fig1, -0.3, tol=1e-15, classify_max_iter=1000)
    assert abs(fine - coarse) <= 1e-15
    assert fine == bisect_h(fig1, -0.3, tol=math.ulp(coarse),
                            classify_max_iter=1000)


# ---------------------------------------------------------------------------
# dual curve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lf_dual(lf_model):
    return dual_curve(lf_model.psi, 3.0, 3000)


def test_dual_curve_lf(lf_model, lf_dual):
    dc = lf_dual
    assert dc.converged
    assert dc.h_values[0] == 0.0            # vanishes at 0
    assert np.all(np.diff(dc.h_values) >= -1e-12)  # nondecreasing
    # quadratic near zero
    val = dc.interp(0.01)
    assert 0.45 <= val / 1e-4 <= 0.55
    # h_dual(x) <= psi(x) * x on the positives
    xs = dc.xs[1:]
    assert np.all(dc.h_values[1:] <= lf_model.psi(xs) * xs * (1.0 + 1e-9))


def test_dual_curve_functional_equation(lf_model, lf_dual):
    dc = lf_dual
    xs = np.linspace(0.0, 1.0, 101)
    h = dc.interp(xs)
    gx = xs + h
    lhs = dc.interp(gx)
    rhs = lf_model.psi(gx) * h
    assert np.max(np.abs(lhs - rhs)) < 1e-4


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_curve_csv_roundtrip(lf_model, lf_curve):
    buf = io.StringIO()
    write_curve_csv(lf_curve, lf_model.psi, buf)
    buf.seek(0)
    back = read_curve_csv(buf)
    assert np.array_equal(back.xs, lf_curve.xs)
    assert np.array_equal(back.h_values, lf_curve.h_values)
    assert abs(residual(back, lf_model.psi) - lf_curve.residual_sup) < 1e-15
