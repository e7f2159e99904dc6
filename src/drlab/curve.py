"""Critical-curve construction by damped fixed-point sweeps.

The boundary between escaping and collapsing initial pairs is the graph of
a function h with h(0) = 0, 0 <= h(x) <= -x on the negatives and
h(x) ~ x^2/2 near 0.  Writing g(x) = x + h(x), g is the unique function
with g(x) = x on the positives, g > id on [-A, 0), and

    g(g(x)) = g(x) + psi(g(x)) (g(x) - x).

The constructive scheme used here:

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

An independent oracle, :func:`bisect_h`, recovers h(v) by bisecting the
phase classifier and is used to cross-validate the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .drivers import PsiFunction, dual_psi
from .errors import DomainError, NumericError
from .recursion import PhaseLabel, classify_detail

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
    "dual_curve",
    "validate_grid",
    "write_curve_csv",
    "read_curve_csv",
]


@dataclass(frozen=True, eq=False)
class CurveGrid:
    """Values of g on a uniform grid of [-A, 0] plus solver metadata."""

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

    @property
    def spacing(self) -> float:
        return self.A / (len(self.xs) - 1)


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

    @property
    def nontrivial(self) -> bool:
        """True when h is strictly positive at the left end; the zero
        function solves the functional equation but is not the critical
        curve."""
        return float(self.h_values[0]) > 0.0

    def interp(self, x):
        """Piecewise-linear evaluation strictly on this curve's own grid
        (works for dual curves too, unlike :func:`h_eval`)."""
        xs = self.grid.xs
        arr = np.asarray(x, dtype=float)
        if arr.size and (float(np.min(arr)) < xs[0] - 1e-12
                         or float(np.max(arr)) > xs[-1] + 1e-12):
            raise DomainError(f"x outside curve grid [{xs[0]}, {xs[-1]}]")
        out = np.interp(arr, xs, self.h_values)
        return float(out) if arr.ndim == 0 else out


def _check_domain(psi: PsiFunction, A: float) -> None:
    if A <= 0.0:
        raise ValueError("A must be positive")
    if -A < psi.domain_min:
        raise DomainError(
            f"[-A, 0] = [{-A}, 0] leaves the domain of {psi.name!r} "
            f"(domain_min={psi.domain_min})")


def solve_g1(psi: PsiFunction, A: float, m: int,
             K: float | None = None) -> CurveGrid:
    """Initial iterate: y' = psi(y), y(0) = 0 integrated backward by RK4.

    The solution satisfies x <= y <= 0 because 0 < psi(y) <= 1 on the
    relevant range, so all RK4 stage points stay inside the driver domain.
    """
    if m < 100:
        raise ValueError("m must be at least 100")
    _check_domain(psi, A)
    h = A / m
    xs = np.linspace(-A, 0.0, m + 1)
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


def _sweep(xs: np.ndarray, g: np.ndarray, K: float,
           psi: PsiFunction) -> tuple[np.ndarray, float, float]:
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


def solve_curve(psi: PsiFunction, A: float, m: int = 1000,
                tol: float = 1e-12, max_sweeps: int = 10 ** 5,
                K_override: float | None = None,
                sweeps: int | None = None) -> CriticalCurve:
    """Sweep from g_1 until the sup-norm change drops below ``tol``.

    ``sweeps`` forces an exact sweep count (for regressions pinned to
    tabulated iterate values).  Non-convergence is flagged on the result, not
    raised.
    """
    grid = solve_g1(psi, A, m, K=K_override)
    xs = grid.xs
    g = grid.g
    K = grid.K
    change = math.inf
    clamp_max = 0.0
    done = 0
    budget = sweeps if sweeps is not None else max_sweeps
    for _ in range(budget):
        g, change, clamp = _sweep(xs, g, K, psi)
        clamp_max = max(clamp_max, clamp)
        done += 1
        if sweeps is None and change < tol:
            break
    out_grid = CurveGrid(A=A, xs=xs, g=g, K=K, sweeps=done,
                         sup_change_last=change, clamp_last=clamp_max)
    h = g - xs
    curve = CriticalCurve(grid=out_grid, h_values=h, residual_sup=math.nan,
                          converged=(change < tol))
    return replace(curve, residual_sup=residual(curve, psi))


def curve_from_h(A: float, m: int, h_fn: Callable[[np.ndarray], np.ndarray],
                 ) -> CriticalCurve:
    """Reference curve from a known h (exact fixtures, imported data)."""
    xs = np.linspace(-A, 0.0, m + 1)
    h = np.asarray(h_fn(xs), dtype=float)
    grid = CurveGrid(A=A, xs=xs, g=xs + h, K=math.nan, sweeps=0,
                     sup_change_last=0.0, clamp_last=0.0)
    return CriticalCurve(grid=grid, h_values=h, residual_sup=math.nan,
                         converged=True)


def h_eval(curve: CriticalCurve, x):
    """Evaluate h: 0 on the positives, linear interpolation on [-A, 0].

    Below -A the curve is unknown and evaluation raises DomainError.
    """
    xs = curve.grid.xs
    lo = xs[0]
    arr = np.asarray(x, dtype=float)
    if arr.size and float(np.min(arr)) < lo - 1e-12:
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


def dual_curve(psi: PsiFunction, A: float, m: int = 1000,
               **solve_kwargs) -> CriticalCurve:
    """Critical curve of the time-reversed dynamics, on [0, A].

    Solves the curve h~ for the dual driver 1/psi(-x) on [-A, 0] and maps
    it back: h_dual(x) = h~(-x) psi(x).  h_dual is nondecreasing, vanishes
    at 0 like x^2/2 and grows without bound.
    """
    dpsi = dual_psi(psi)
    dc = solve_curve(dpsi, A, m, **solve_kwargs)
    xs = -dc.grid.xs[::-1]
    h_tilde = dc.h_values[::-1]
    h_dual = h_tilde * psi(xs)
    grid = CurveGrid(A=A, xs=xs, g=xs + h_dual, K=dc.grid.K,
                     sweeps=dc.grid.sweeps,
                     sup_change_last=dc.grid.sup_change_last,
                     clamp_last=dc.grid.clamp_last)
    return CriticalCurve(grid=grid, h_values=h_dual, residual_sup=math.nan,
                         converged=dc.converged)


def validate_grid(grid: CurveGrid, *, lip_slack: float = 1e-9,
                  mono_slack: float = 1e-12) -> None:
    """Raise NumericError if any grid invariant is broken: g nondecreasing,
    1-Lipschitz, g(0) = 0 and x <= g(x) <= 0."""
    xs = grid.xs
    g = grid.g
    d = np.diff(g)
    if float(np.min(d)) < -mono_slack:
        raise NumericError("g is not nondecreasing on the grid")
    if float(np.max(d)) > grid.spacing * (1.0 + lip_slack):
        raise NumericError("g violates the 1-Lipschitz bound")
    if abs(float(g[-1])) > 1e-14:
        raise NumericError("g(0) != 0")
    if float(np.max(g)) > 1e-14 or float(np.min(g - xs)) < -1e-12:
        raise NumericError("g leaves the envelope [x, 0]")


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def write_curve_csv(curve: CriticalCurve, psi: PsiFunction, out: TextIO) -> None:
    xs = curve.grid.xs
    g = curve.grid.g
    h = curve.h_values
    res = residual_local(curve, psi)
    out.write("x,g,h,residual_local\n")
    for i in range(len(xs)):
        out.write(f"{xs[i]:.17g},{g[i]:.17g},{h[i]:.17g},{res[i]:.17g}\n")


def read_curve_csv(lines: Iterable[str]) -> CriticalCurve:
    """Re-import a reference curve written by :func:`write_curve_csv`.

    Raises ValueError unless the file holds at least 2 rows of finite x and
    h, with x rising uniformly (to 1e-6 of the spacing) to 0: the grid that
    :func:`h_eval` and :attr:`CurveGrid.spacing` assume.
    """
    it = iter(lines)
    header = next(it).strip()
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
    grid = CurveGrid(A=-float(xs[0]), xs=xs, g=xs + h, K=math.nan, sweeps=0,
                     sup_change_last=0.0, clamp_last=0.0)
    return CriticalCurve(grid=grid, h_values=h, residual_sup=math.nan,
                         converged=True)
