"""Critical-curve construction: a right-to-left march, certified by the
residual of the functional equation.

The boundary between escaping and collapsing initial pairs is the graph of
a function h with h(0) = 0, 0 <= h(x) <= -x on the negatives and
h(x) ~ x^2/2 near 0.  Writing g(x) = x + h(x), g is the unique function
with g(x) = x on the positives, g > id on [-A, 0), and

    g(g(x)) = g(x) + psi(g(x)) (g(x) - x).

The damped sweep is the constructive scheme:

  * g_1 solves the ODE y' = psi(y), y(0) = 0, integrated backward over
    [-A, 0] with classical RK4 at grid resolution;
  * a damping constant K >= sup_{[-A,0]} (psi(x) + (x+A) psi'(x)) makes
    each sweep

        (K+1) g_{k+1}(x) = g_k(g_k(x)) + K g_k(x) - (g_k(x) - x) psi(g_k(x))

    monotone: the sequence increases pointwise toward g while every
    iterate stays nondecreasing, 1-Lipschitz and pinned at g(0) = 0.

Grids are uniform and the composed evaluation g(g(x)) uses monotone
piecewise-linear interpolation: g(x) lies in [x, 0], so lookups never
leave the grid, and linear interpolation cannot overshoot the 1-Lipschitz
envelope (a cubic could).  Sweep output is clamped to [x, 0]; the clamp
only absorbs rounding and its magnitude is recorded.

The sweep approaches its fixed point linearly, in about 25,000 sweeps at
m = 1000.  :func:`solve_curve` instead solves the fixed point directly:
node i of the discretised equation reads g only at g(x_i) >= x_i, so
:func:`_march` solves the nodes one by one from 0 leftwards, each by a
scalar bisection with the libm driver.  For the built-in drivers that loop
runs in ``_classify.c``, bit for bit; the Python loop stays its oracle and
marches every other driver.  The marched g is certified by
:func:`residual`, the sup of the equation's defect, which a sweep's change
would only repeat divided by K + 1.  The damped sweeps from g_1
(:func:`solve_g1`, :func:`pick_K`, :func:`iterate_g`) stay as the march's
oracle and for regressions pinned to tabulated iterates.  The sweeps and
:func:`residual_local` call the driver on arrays, which evaluates the
same libm function at each node, so no result depends on numpy's SIMD
kernels; :func:`pick_K` maps the driver's ``deriv_fn``.
:func:`write_curve_csv` formats its rows in C too
(``recursion.write_table``), to the bytes of Python's ``f"{v:.17g}"``
(``nan`` for a NaN of either sign, the "C" locale), 64 KB at a time; the
f-string loop stays its oracle and its fallback without the library.

An independent oracle, :func:`bisect_h`, recovers h(v) by bisecting the
phase classifier and is used to cross-validate the solver.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .drivers import PsiFunction
from .errors import DomainError, NumericError
from .recursion import PhaseLabel, _native_lib, classify_detail, write_table

__all__ = [
    "CurveGrid",
    "CriticalCurve",
    "solve_g1",
    "pick_K",
    "iterate_g",
    "solve_curve",
    "curve_from_h",
    "h_eval",
    "residual",
    "residual_local",
    "bisect_h",
    "write_curve_csv",
    "read_curve_csv",
]


@dataclass(frozen=True, eq=False)
class CurveGrid:
    """Values of g on a uniform grid of [-A, 0], plus the damped sweeps'
    metadata: K nan, sweeps 0, sup_change_last and clamp_last 0.0 on a
    marched or given grid."""

    A: float
    xs: np.ndarray
    g: np.ndarray
    K: float
    sweeps: int
    sup_change_last: float
    clamp_last: float

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.g.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CriticalCurve:
    """h = g - id on the grid, with the converged functional residual."""

    grid: CurveGrid
    h_values: np.ndarray
    residual_sup: float
    converged: bool

    def __post_init__(self):
        self.h_values.setflags(write=False)

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs


def _check_domain(psi: PsiFunction, A: float) -> None:
    if not 0.0 < A < math.inf:
        raise ValueError(f"A={A!r} must be positive and finite")
    if -A < psi.domain_min or psi.domain_max < 0.0:
        raise DomainError(
            f"[-A, 0] = [{-A}, 0] leaves the domain of {psi.name!r} "
            f"[{psi.domain_min}, {psi.domain_max}]")


def _grid_xs(psi: PsiFunction, A: float, m: int) -> np.ndarray:
    if m < 100:
        raise ValueError("m must be at least 100")
    _check_domain(psi, A)
    return np.linspace(-A, 0.0, m + 1)


def solve_g1(psi: PsiFunction, A: float, m: int,
             K: float | None = None) -> CurveGrid:
    """Initial iterate: y' = psi(y), y(0) = 0 integrated backward by RK4.

    The solution satisfies x <= y <= 0 because 0 < psi(y) <= 1 on the
    relevant range, so all RK4 stage points stay inside the driver domain.
    """
    xs = _grid_xs(psi, A, m)
    h = A / m
    ys = np.empty(m + 1)
    ys[m] = 0.0
    y = 0.0
    fn = psi  # scalar path
    for i in range(m, 0, -1):
        k1 = fn(y)
        k2 = fn(y - 0.5 * h * k1)
        k3 = fn(y - 0.5 * h * k2)
        k4 = fn(max(y - h * k3, -A))
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_next = xs[i - 1]
        y = min(0.0, max(y, x_next))
        ys[i - 1] = y
    if K is None:
        K = pick_K(psi, A, m)
    return CurveGrid(A=A, xs=xs, g=ys, K=K, sweeps=0,
                     sup_change_last=math.inf, clamp_last=0.0)


def pick_K(psi: PsiFunction, A: float, m: int) -> float:
    """Damping constant: 1.1 times the grid supremum of
    psi(x) + (x + A) psi'(x); the margin covers grid-max vs true-sup gaps.

    At x = -A the weight (x + A) vanishes while psi' may blow up at a
    domain edge, so that node contributes psi(-A) alone.
    """
    _check_domain(psi, A)
    xs = np.linspace(-A, 0.0, m + 1)
    with np.errstate(invalid="ignore"):
        s = psi(xs) + (xs + A) * psi.deriv(xs)
    s[0] = psi(float(xs[0]))
    val = float(np.max(s))
    if not math.isfinite(val):
        raise NumericError("supremand for K is not finite on the grid")
    return 1.1 * val


def _sweep(xs: np.ndarray, g: np.ndarray, K: float, psi: PsiFunction
           ) -> tuple[np.ndarray, float, float]:
    gg = np.interp(g, xs, g)
    new = (gg + K * g - (g - xs) * psi(g)) / (K + 1.0)
    clipped = np.minimum(np.maximum(new, xs), 0.0)
    clamp = float(np.max(np.abs(clipped - new)))
    change = float(np.max(np.abs(clipped - g)))
    return clipped, change, clamp


def iterate_g(grid: CurveGrid, psi: PsiFunction) -> CurveGrid:
    """One damped sweep; preserves the grid invariants and never decreases
    any value (monotone operator once K dominates the supremand)."""
    g, change, clamp = _sweep(grid.xs, grid.g, grid.K, psi)
    return replace(grid, g=g, sweeps=grid.sweeps + 1,
                   sup_change_last=change,
                   clamp_last=max(grid.clamp_last, clamp))


_NO_ROOT, _NAN_H = 1, 2  # the failures drlab_march returns


def _no_root(x_i: float, lo: float, hi: float, f_lo: float, f_hi: float
             ) -> NumericError:
    return NumericError(
        f"no root of the curve equation at x={x_i!r} in "
        f"[{lo!r}, {hi!r}]: H = {f_lo!r}, {f_hi!r}")


def _nan_h(y: float) -> NumericError:
    return NumericError(f"curve equation is NaN at y={y!r}")


def _march(psi: PsiFunction, xs: np.ndarray) -> np.ndarray:
    """The sweep's fixed point g on the grid xs, solved node by node from
    0 leftwards.

    Node i of the discretised equation asks for y = g(x_i) with
    interp(y) = y + (y - x_i) psi(y), where interp is the piecewise-linear g.
    As g(x_i) >= x_i, interp(y) reads g at nodes to the right of x_i, which
    are already solved, or, inside the cell [x_i, x_{i+1}], at x_i itself,
    where g(x_i) = y.  Dividing out the trivial root y = x_i leaves
    H(y) = (interp(y) - y)/(y - x_i) - psi(y), which in that cell reads
    (g_{i+1} - y)/dx - psi(y), dx the cell's own width.  Monotonicity and
    the 1-Lipschitz bound put the root in [max(g_{i+1} - dx, x_i), g_{i+1}];
    it is bisected down to adjacent floats.  A bracket without a sign
    change, or a NaN H inside one, raises NumericError.

    xs rises strictly to 0 inside psi's domain (:func:`_grid_xs` checks
    that for the uniform grid), so psi is evaluated by its scalar ``fn``,
    unchecked: each node's bracket lies in [x_i, 0].

    A built-in driver marches in ``_classify.c`` (``drlab_march``) when the
    library loaded: the same loop over the same floating-point operations,
    so g is bit-identical, and a failure raises the same message.  Other
    drivers, and every driver without the library, run the loop below, the
    C loop's oracle.
    """
    native = hasattr(psi.fn, "native") and _native_lib()
    if native:
        code, i, bad, g = native.march(psi.fn.native, xs)
        if code == _NO_ROOT:
            raise _no_root(float(xs[i]), *bad)
        if code == _NAN_H:
            raise _nan_h(bad[0])
        return g
    m = len(xs) - 1
    x = xs.tolist()
    g = [0.0] * (m + 1)
    fn = psi.fn

    def H(y: float, i: int) -> float:
        if y < x[i + 1]:
            return (g[i + 1] - y) / (x[i + 1] - x[i]) - fn(y)
        j = bisect_right(x, y) - 1
        gy = g[j] if j == m else (
            g[j] + (y - x[j]) * ((g[j + 1] - g[j]) / (x[j + 1] - x[j])))
        return (gy - y) / (y - x[i]) - fn(y)

    for i in range(m - 1, -1, -1):
        hi = g[i + 1]
        lo = max(hi - (x[i + 1] - x[i]), x[i])
        f_lo, f_hi = H(lo, i), H(hi, i)
        if not (f_lo >= 0.0 >= f_hi):
            raise _no_root(x[i], lo, hi, f_lo, f_hi)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            f = H(mid, i)
            if f > 0.0:
                lo, f_lo = mid, f
            elif f <= 0.0:
                hi, f_hi = mid, f
            else:
                raise _nan_h(mid)
            mid = 0.5 * (lo + hi)
        g[i] = lo if f_lo < -f_hi else hi
    return np.array(g)


# the residual_sup below which a marched curve is converged; it is about
# 5e-17
_CERT_TOL = 1e-12


def solve_curve(psi: PsiFunction, A: float, m: int = 1000) -> CriticalCurve:
    """Solve the critical curve on a uniform grid of m cells over [-A, 0].

    g is marched node by node (:func:`_march`) and certified by the defect
    of the functional equation itself: the result is ``converged`` when
    its ``residual_sup`` is below ``_CERT_TOL``.  Non-convergence is
    flagged on the result, not raised.
    """
    xs = _grid_xs(psi, A, m)
    g = _march(psi, xs)
    curve = _curve(xs, g, g - xs)
    res = residual(curve, psi)
    return replace(curve, residual_sup=res, converged=res < _CERT_TOL)


def _curve(xs: np.ndarray, g: np.ndarray, h: np.ndarray) -> CriticalCurve:
    """The curve g = x + h on the grid xs, without the damped sweeps'
    metadata, which neither a marched nor a given curve has."""
    grid = CurveGrid(A=-float(xs[0]), xs=xs, g=g, K=math.nan, sweeps=0,
                     sup_change_last=0.0, clamp_last=0.0)
    return CriticalCurve(grid=grid, h_values=h, residual_sup=math.nan,
                         converged=True)


def curve_from_h(A: float, m: int, h_fn: Callable[[np.ndarray], np.ndarray],
                 ) -> CriticalCurve:
    """Reference curve from a known h (exact fixtures, imported data)."""
    xs = np.linspace(-A, 0.0, m + 1)
    h = np.asarray(h_fn(xs), dtype=float)
    return _curve(xs, xs + h, h)


def h_eval(curve: CriticalCurve, x):
    """Evaluate h: 0 on the positives, linear interpolation on [-A, 0].

    Below -A the curve is unknown, and at a NaN x nothing is known, so
    evaluation there raises DomainError.
    """
    xs = curve.grid.xs
    lo = xs[0]
    arr = np.asarray(x, dtype=float)
    if arr.size and not float(np.min(arr)) >= lo - 1e-12:
        raise DomainError(f"h is only known on [{lo}, inf)")
    out = np.where(arr >= 0.0, 0.0,
                   np.interp(np.clip(arr, lo, 0.0), xs, curve.h_values))
    return float(out) if arr.ndim == 0 else out


def residual_local(curve: CriticalCurve, psi: PsiFunction) -> np.ndarray:
    """Per-node defect |h(x + h(x)) - psi(x + h(x)) h(x)|, with the outer
    h evaluated by interpolation (x + h(x) always lands back in [-A, 0])."""
    xs = curve.grid.xs
    h = curve.h_values
    gx = xs + h
    h_at_gx = np.interp(gx, xs, h)
    return np.abs(h_at_gx - psi(gx) * h)


def residual(curve: CriticalCurve, psi: PsiFunction) -> float:
    return float(np.max(residual_local(curve, psi)))


def bisect_h(psi: PsiFunction, v: float, tol: float = 1e-4, *,
             lo: float = 0.0, hi: float | None = None,
             classify_max_iter: int = 10 ** 6) -> float:
    """Independent oracle for h(v): bisection on u with the phase
    classifier as the predicate.

    Supercritical shrinks from the right, subcritical from the left; an
    undetermined verdict is resolved by the sign of the classifier's final
    v (nonpositive in practice, i.e. treated as the subcritical side).
    """
    if not v < 0.0:
        raise ValueError("bisect_h needs v < 0; h vanishes on the positives")
    if not tol > 0.0:
        raise ValueError(f"bisect_h needs tol > 0, got {tol!r}")
    if hi is None:
        hi = -v  # h(v) <= -v always
    lo = float(lo)
    hi = float(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: tol is below their spacing
            break
        label, last = classify_detail(mid, v, psi, max_iter=classify_max_iter)
        if label is PhaseLabel.SUPERCRITICAL:
            hi = mid
        elif label is PhaseLabel.SUBCRITICAL:
            lo = mid
        elif last.v > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def write_curve_csv(curve: CriticalCurve, psi: PsiFunction, out: TextIO) -> None:
    """Write x, g, h and :func:`residual_local` per node through
    :func:`~drlab.recursion.write_table`."""
    write_table(out, "x,g,h,residual_local",
                (curve.grid.xs, curve.grid.g, curve.h_values,
                 residual_local(curve, psi)))


def read_curve_csv(lines: Iterable[str]) -> CriticalCurve:
    """Re-import a reference curve written by :func:`write_curve_csv`.

    Raises ValueError unless the file holds at least 2 rows of finite x and
    h, with x rising uniformly (to 1e-6 of the spacing) to 0: the grid that
    :func:`h_eval` assumes.
    """
    it = iter(lines)
    header = next(it, "").strip()
    if header.split(",")[:3] != ["x", "g", "h"]:
        raise ValueError(f"unexpected curve CSV header {header!r}")
    rows = [line.split(",") for line in map(str.strip, it) if line]
    if any(len(parts) < 3 for parts in rows):
        raise ValueError("curve CSV row with fewer than 3 columns")
    xs = np.array([float(parts[0]) for parts in rows])
    h = np.array([float(parts[2]) for parts in rows])
    if len(xs) < 2:
        raise ValueError("curve CSV needs at least 2 rows")
    if not (np.isfinite(xs).all() and np.isfinite(h).all()):
        raise ValueError("curve CSV holds a non-finite x or h")
    step = np.diff(xs)
    if not (step > 0.0).all():
        raise ValueError("curve CSV x is not strictly increasing")
    if xs[-1] != 0.0:
        raise ValueError(f"curve CSV x ends at {xs[-1]!r}, not 0")
    spacing = -xs[0] / (len(xs) - 1)
    if float(np.max(np.abs(step - spacing))) > 1e-6 * spacing:
        raise ValueError("curve CSV x is not uniformly spaced")
    return _curve(xs, xs + h, h)
