import io
import math
import shutil
import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_recursion import dual_psi

import oracles
from drlab import recursion
from drlab.curve import (CriticalCurve, CurveGrid, _grid_xs, _march, _sweep,
                         bisect_h, curve_from_h, h_eval, iterate_g, pick_K,
                         read_curve_csv, residual, solve_curve, solve_g1,
                         write_curve_csv)
from drlab.drivers import PsiFunction, driver_from_spec
from drlab.errors import DomainError, NumericError


def validate_grid(grid: CurveGrid) -> None:
    """Raise NumericError if any grid invariant is broken: g nondecreasing
    (to 1e-12), 1-Lipschitz (to a relative 1e-9), g(0) = 0 and
    x <= g(x) <= 0."""
    xs = grid.xs
    g = grid.g
    d = np.diff(g)
    if float(np.min(d)) < -1e-12:
        raise NumericError("g is not nondecreasing on the grid")
    if float(np.max(d)) > grid.A / (len(xs) - 1) * (1.0 + 1e-9):
        raise NumericError("g violates the 1-Lipschitz bound")
    if abs(float(g[-1])) > 1e-14:
        raise NumericError("g(0) != 0")
    if float(np.max(g)) > 1e-14 or float(np.min(g - xs)) < -1e-12:
        raise NumericError("g leaves the envelope [x, 0]")


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
    grid = fig1_curve.grid
    _, change, _ = _sweep(grid.xs, grid.g, pick_K(fig1, 0.5, 1000), fig1)
    assert change <= 1e-15 and grid.sweeps == 0


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
    assert fig1_curve.h_values[0] > 0.0  # not the zero solution


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


def test_nonconvergence_is_flagged_not_raised(lf_model, monkeypatch):
    # the marched curve's residual_sup is about 5e-17
    import drlab.curve
    monkeypatch.setattr(drlab.curve, "_CERT_TOL", 1e-20)
    cur = solve_curve(lf_model.psi, 0.5, 200)
    assert not cur.converged and cur.residual_sup >= drlab.curve._CERT_TOL


@pytest.mark.parametrize("A", [math.nan, math.inf, 0.0, -0.5])
def test_solve_curve_rejects_an_A_that_is_not_positive_and_finite(fig1, A):
    with pytest.raises(ValueError, match="must be positive and finite"):
        solve_curve(fig1, A, 200)


# ---------------------------------------------------------------------------
# the march, against the damped sweep as its oracle
# ---------------------------------------------------------------------------

MARCH_CASES = {  # name: (driver spec, A, m); "dual" marks the dual curve
    "fig1": ("fig1", 0.5, 200),
    "fig1-clamped": ("fig1-clamped", 0.5, 200),
    "affine": ("affine", 0.5, 200),
    "lf": ("lf:p=0.5,z=1", 0.5, 200),
    "lf2": ("lf:p=0.4,z=1@0.5+2@0.5", 0.5, 200),
    "clf": ("clf:p=0.5,z=1", 0.5, 200),
    "dual lf": ("dual", 3.0, 300),
}


def _march_case(name, lf_model):
    spec, A, m = MARCH_CASES[name]
    if spec == "dual":
        return dual_psi(lf_model.psi), A, m
    return driver_from_spec(spec)[0], A, m


def _swept(psi, A, m, tol=1e-12):
    """The damped sweeps from g_1 until the change drops below tol: the
    solver before the march, kept as its oracle."""
    grid = solve_g1(psi, A, m)
    while not grid.sup_change_last < tol:
        assert grid.sweeps < 10 ** 5
        grid = iterate_g(grid, psi)
    return grid


@pytest.mark.parametrize("name", list(MARCH_CASES))
def test_march_is_the_sweeps_fixed_point(name, lf_model, monkeypatch):
    psi, A, m = _march_case(name, lf_model)
    if not hasattr(psi.fn, "native"):  # the library refuses the dual
        monkeypatch.setattr(recursion, "_native", oracles.NATIVE)
    cur = solve_curve(psi, A, m)
    xs = _grid_xs(psi, A, m)
    g = oracles.march(psi, xs)[3]
    assert np.array_equal(cur.grid.g, g)
    assert cur.converged and cur.grid.sweeps == 0
    validate_grid(cur.grid)
    # one damped sweep from the marched g barely moves it ...
    _, change, _ = _sweep(xs, g, pick_K(psi, A, m), psi)
    assert change <= 1e-15
    # ... and the sweep run to tol 1e-12 stops just short of it
    swept = _swept(psi, A, m)
    assert swept.sweeps > 1000
    assert float(np.max(np.abs(swept.g - g))) <= 1e-7


def test_march_matches_fig1_exact_curve_as_the_sweep_does(fig1):
    xs = _grid_xs(fig1, 0.5, 200)
    g = _march(fig1, xs)
    swept = _swept(fig1, 0.5, 200)
    exact = 0.5 * xs * xs
    err_march = float(np.max(np.abs(g - xs - exact)))
    err_sweep = float(np.max(np.abs(swept.g - xs - exact)))
    # both carry the grid's O(spacing^2) bias; the sweep's shortfall from
    # its fixed point (about 1e-9 here) happens to lean toward x^2/2, so
    # the two agree to that shortfall, not to the last bit
    assert err_march <= err_sweep * (1.0 + 1e-4)


def test_dual_curve_is_marched(lf_model):
    dc = dual_curve(lf_model.psi, 3.0, 300)
    dpsi = dual_psi(lf_model.psi)
    xs = _grid_xs(dpsi, 3.0, 300)
    g = oracles.march(dpsi, xs)[3]
    assert dc.converged and dc.grid.sweeps == 0
    _, change, _ = _sweep(xs, g, pick_K(dpsi, 3.0, 300), dpsi)
    assert change <= 1e-15
    assert np.array_equal(dc.h_values, (g - xs)[::-1] * lf_model.psi(-xs[::-1]))


def test_solve_curve_rejects_a_driver_undefined_at_0():
    # fn fails above its domain_max; the march must not call it there
    psi = PsiFunction("neg", lambda x: 0.5 + math.sqrt(-0.1 - x),
                      lambda x: 0.0, psi_inf=math.inf, domain_min=-1.0,
                      domain_max=-0.1)
    with pytest.raises(DomainError, match="leaves the domain"):
        solve_curve(psi, 0.5, 100)


@pytest.mark.parametrize("fn", [lambda x: 2.0, lambda x: math.nan])
def test_march_bracket_without_sign_change_raises(fn, monkeypatch):
    psi = PsiFunction("bad", fn, lambda x: 0.0, psi_inf=math.inf,
                      domain_min=-1.0)
    with pytest.raises(TypeError, match="'bad' has no native description"):
        _march(psi, _grid_xs(psi, 0.5, 100))
    monkeypatch.setattr(recursion, "_native", oracles.NATIVE)
    with pytest.raises(NumericError, match="x="):
        _march(psi, _grid_xs(psi, 0.5, 100))


# ---------------------------------------------------------------------------
# the native march against its Python oracle
# ---------------------------------------------------------------------------

NATIVE_MARCH_SPECS = ("affine", "fig1", "fig1-clamped", "lf:p=0.5,z=1",
                      "lf:p=0.4,z=1@0.5+2@0.5", "lf:p=0.4,z=3@0.6+1@0.4",
                      "clf:p=0.5,z=1", "clf:p=0.4,z=0.5@0.3+2@0.7")


def _march_outcome(psi, xs):
    """The marched g's bytes, or the NumericError's message."""
    try:
        return _march(psi, xs).tobytes()
    except NumericError as exc:
        return str(exc)


def _both_marches(psi, xs):
    native = _march_outcome(psi, xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", oracles.NATIVE)
        return native, _march_outcome(psi, xs)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@settings(max_examples=30, deadline=None)
@example(spec="fig1", A=0.5, m=1000, pinch=None)  # the curve-sweep curves
@example(spec="lf:p=0.4,z=1@0.5+2@0.5", A=0.5, m=1000, pinch=None)
@example(spec="clf:p=0.5,z=1", A=0.5, m=4000, pinch=None)
@example(spec="lf:p=0.5,z=1", A=0.5, m=1000, pinch=None)  # cv-refined's
@example(spec="fig1", A=0.5, m=1000, pinch=3)  # midpoints on a node
@example(spec="lf:p=0.5,z=1", A=0.5, m=100, pinch=3)  # bisect_left flips H
@given(spec=st.sampled_from(NATIVE_MARCH_SPECS), A=st.floats(0.01, 1.0),
       m=st.integers(100, 2000), pinch=st.none() | st.integers(2, 8))
def test_native_march_matches_python_march(spec, A, m, pinch):
    psi = driver_from_spec(spec)[0]
    xs = _grid_xs(psi, min(A, -psi.domain_min), m)
    if pinch is not None:
        # move node k - 1 to x_k - h_k / psi(x_k), where node k - 1's
        # equation has its root y = x_k: the bisection's midpoints land on
        # node k itself, and nodes k and right of it keep their g
        k = m - pinch
        h_k = _march(psi, xs)[k] - xs[k]
        xs[k - 1] = xs[k] - h_k / psi(float(xs[k]))
        assert xs[k - 2] < xs[k - 1] < xs[k]
    assert recursion._native_lib()
    native, python = _both_marches(psi, xs)
    assert native == python


def _uneven_xs(grid, A, m):
    """m cells rising strictly from -A to 0: random widths up to 8000
    times apart, or ROADMAP item 5's graded x_j = -A(1 - j/m)^2."""
    if grid == "graded":
        xs = -A * (1.0 - np.arange(m + 1) / m) ** 2 + 0.0
    else:
        widths = np.random.default_rng(m).uniform(0.05, 1.0, m) ** 3
        cells = np.concatenate(([0.0], np.cumsum(widths)))
        xs = A * (cells / cells[-1] - 1.0)
    assert xs[0] == -A and xs[-1] == 0.0 and np.all(np.diff(xs) > 0)
    return xs


# the march searches only between the nodes found for its bracket's ends:
# cells of many widths move those nodes apart, and at m <= 3 the search
# window reaches the end bound m + 1
@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@pytest.mark.parametrize("m", [1, 2, 3, 1000])
@pytest.mark.parametrize("grid", ["random", "graded"])
@pytest.mark.parametrize("spec", NATIVE_MARCH_SPECS)
def test_native_march_matches_python_march_on_uneven_grids(spec, grid, m):
    psi = driver_from_spec(spec)[0]
    xs = _uneven_xs(grid, min(0.5, -psi.domain_min), m)
    native, python = _both_marches(psi, xs)
    assert isinstance(native, bytes) and native == python


def _described_driver(kind, params, n_atoms):
    """A driver whose scalar fn is _classify.c's psi for the description,
    so that both marches see the same values."""
    lib = recursion._native_lib()

    def fn(x):
        return float(lib.psi(fn, np.array([x]))[0])
    fn.native = (kind, params, n_atoms)
    return PsiFunction("described", fn, lambda x: 0.0, psi_inf=math.inf,
                       domain_min=-1.0)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@pytest.mark.parametrize("params,n_atoms,message", [
    # lf:p=0.5,z=1 at twice its 1/p: psi(0) = 2, so H(x_{m-1}) = 1 - psi < 0
    ((4.0, 2.000000000000057, 1.0000000000000284, math.nan, 1.0, 1.0), 1,
     "no root of the curve equation at x="),
    # psi is 0 left of -0.0025, inf * pow(s, 1000) = NaN just right of it
    # and inf beyond: the bracket [-0.005, 0] holds, a midpoint is NaN
    ((1.0, 1e4, 25.0, math.nan, 1000.0, math.inf), 1,
     "curve equation is NaN at y="),
])
def test_native_march_failures_match_python(params, n_atoms, message):
    psi = _described_driver(3, params, n_atoms)  # the lf kind
    native, python = _both_marches(psi, _grid_xs(psi, 0.5, 100))
    assert native == python and native.startswith(message)


# ---------------------------------------------------------------------------
# evaluation, residual
# ---------------------------------------------------------------------------

def test_h_eval_contract(fig1_curve):
    assert h_eval(fig1_curve, 0.7) == 0.0
    assert h_eval(fig1_curve, 0.0) == 0.0
    assert abs(h_eval(fig1_curve, -0.4) - 0.08) < 1e-3
    for x in (-0.6, math.nan, [-0.1, math.nan], [0.5, math.nan]):
        with pytest.raises(DomainError, match="only known"):
            h_eval(fig1_curve, x)


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
    assert not cur.h_values[0] > 0.0


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

def dual_curve(psi: PsiFunction, A: float, m: int = 1000) -> CriticalCurve:
    """Critical curve of the time-reversed dynamics, on [0, A].

    Solves the curve h~ for the dual driver 1/psi(-x) on [-A, 0] and maps
    it back: h_dual(x) = h~(-x) psi(x).  h_dual is nondecreasing, vanishes
    at 0 like x^2/2 and grows without bound.
    """
    with pytest.MonkeyPatch.context() as mp:  # the library refuses the dual
        mp.setattr(recursion, "_native", oracles.NATIVE)
        dc = solve_curve(dual_psi(psi), A, m)
    xs = -dc.grid.xs[::-1]
    h_dual = dc.h_values[::-1] * psi(xs)
    return replace(dc, grid=replace(dc.grid, xs=xs, g=xs + h_dual),
                   h_values=h_dual, residual_sup=math.nan)


def interp(curve: CriticalCurve, x):
    """Piecewise-linear evaluation strictly on the curve's own grid (works
    for dual curves too, unlike :func:`h_eval`); DomainError off it."""
    xs = curve.grid.xs
    arr = np.asarray(x, dtype=float)
    if arr.size and (float(np.min(arr)) < xs[0] - 1e-12
                     or float(np.max(arr)) > xs[-1] + 1e-12):
        raise DomainError(f"x outside curve grid [{xs[0]}, {xs[-1]}]")
    out = np.interp(arr, xs, curve.h_values)
    return float(out) if arr.ndim == 0 else out


@pytest.fixture(scope="module")
def lf_dual(lf_model):
    return dual_curve(lf_model.psi, 3.0, 3000)


def test_dual_curve_lf(lf_model, lf_dual):
    dc = lf_dual
    assert dc.converged
    assert dc.h_values[0] == 0.0            # vanishes at 0
    assert np.all(np.diff(dc.h_values) >= -1e-12)  # nondecreasing
    # quadratic near zero
    val = interp(dc, 0.01)
    assert 0.45 <= val / 1e-4 <= 0.55
    # h_dual(x) <= psi(x) * x on the positives
    xs = dc.xs[1:]
    assert np.all(dc.h_values[1:] <= lf_model.psi(xs) * xs * (1.0 + 1e-9))


def test_dual_curve_functional_equation(lf_model, lf_dual):
    dc = lf_dual
    xs = np.linspace(0.0, 1.0, 101)
    h = interp(dc, xs)
    gx = xs + h
    lhs = interp(dc, gx)
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


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _native_rows(cols) -> str:
    buf = io.StringIO()
    recursion._native_lib().write_rows(buf, [np.array(c, float) for c in cols])
    return buf.getvalue()


# ±0, the subnormal and normal ends, ±inf, and NaNs of either sign bit
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, math.inf,
                -math.inf, 0.1, 1e16, 1e17, 1e-5, 1e-4, 123456789012345678.0,
                *map(_from_bits, (0x7FF8000000000000, 0xFFF8000000000000,
                                  0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF))]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@settings(max_examples=300, deadline=None)
@example(values=_EDGE_VALUES, n_cols=4)
@given(values=st.lists(st.floats()
                       | st.integers(0, 2 ** 64 - 1).map(_from_bits),
                       min_size=1, max_size=200),
       n_cols=st.integers(1, 5))
def test_native_rows_are_python_formatting(values, n_cols):
    values += [0.0] * (-len(values) % n_cols)
    cols = [values[j::n_cols] for j in range(n_cols)]
    assert _native_rows(cols) == oracles.rows(cols)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_rows_span_chunks():
    # 5000 rows of arbitrary bit patterns: 479 KB, eight 64 KB chunks
    bits = np.random.default_rng(5).integers(0, 2 ** 64, (4, 5000),
                                             dtype=np.uint64)
    cols = [c.view(np.float64).tolist() for c in bits]
    assert _native_rows(cols) == oracles.rows(cols)


def _formatter_edges() -> list[float]:
    """Both ends of drlab_rows's fast range, exact ties k 2^e, and each
    power of ten from 1e-20 to 1e20 with its neighbours: %g's layout
    turns between 9.9999999999999991e-05 and 0.0001 and between
    99999999999999984 and 1e+17, and the double 1e-14, just below 10^-14,
    rounds up to it at 17 digits.  Then ±0, subnormals, ±inf and NaNs."""
    edges = [1e-16, math.nextafter(1e-16, 0.0), math.nextafter(1e-16, 1.0),
             math.nextafter(1e17, 0.0), 1e17, 2.0 ** -25, 1e-14]
    edges += [k * 2.0 ** e for k in range(1, 2000, 2) for e in range(-60, 61)]
    for x in (float(f"1e{p}") for p in range(-20, 21)):
        below = math.nextafter(x, 0.0)
        edges += [x, math.nextafter(x, math.inf), below,
                  math.nextafter(below, 0.0)]
    edges += [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              math.inf, math.nan, _from_bits(0x7FF0000000000001)]
    return edges + [-x for x in edges]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_rows_match_python_on_a_million_seeded_doubles():
    rng = np.random.default_rng(37)
    bits = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64).view(np.float64)
    # the curve CSV's range: x, g and h in [-0.5, 0.5], residuals near 1e-17
    curve = rng.uniform(-0.5, 0.5, 500_000) * 10.0 ** rng.integers(-20, 18,
                                                                   500_000)
    values = np.concatenate((bits, curve, _formatter_edges()))
    values = np.concatenate((values, np.zeros(-len(values) % 4)))
    cols = [values[j::4] for j in range(4)]
    assert _native_rows(cols) == oracles.rows(cols)


_COMMA_LOCALES = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                  "nl_NL.UTF-8", "ru_RU.UTF-8", "de_DE", "fr_FR")


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_rows_ignore_a_comma_decimal_locale():
    import locale
    # 5e-324, 1e300 and -0.0 take snprintf, the other numbers fast17()
    cols = [[0.5, -1.25e-7, math.nan], [math.pi, 1e300, -0.0],
            [5e-324, 2.5, 1e-5]]
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        for name in _COMMA_LOCALES:
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            if locale.localeconv()["decimal_point"] == ",":
                break
        else:
            pytest.skip("no comma-decimal locale installed")
        got = _native_rows(cols)
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
    assert got == oracles.rows(cols)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
@pytest.mark.parametrize("spec,m", [("fig1", 1000), ("fig1-clamped", 300),
                                    ("affine", 300), ("lf:p=0.5,z=1", 1000),
                                    ("lf:p=0.4,z=1@0.5+2@0.5", 1000),
                                    ("clf:p=0.5,z=1", 4000)])
def test_curve_csv_and_K_do_not_need_the_library(spec, m):
    psi = driver_from_spec(spec)[0]
    curve = solve_curve(psi, 0.5, m)

    def outputs():
        buf = io.StringIO()
        write_curve_csv(curve, psi, buf)
        return buf.getvalue()
    assert recursion._native_lib()
    native = outputs()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", oracles.NATIVE)
        assert outputs() == native
