"""Quantitative experiments around the critical point.

Each experiment runs a family of orbits started a distance epsilon above
the critical curve and reports a scaling statistic against its predicted
limit:

  * ``critical_asymptotics``  on-curve decay u_n ~ 2/n^2, v_n ~ -2/n;
  * ``n_star_scaling``        sqrt(eps) * n* tends to pi/sqrt(2) when the
                              start sits at v0 = 0, and to
                              pi sqrt(2)/sqrt(c*) for v0 < 0;
  * ``c_star_estimate``       c* = lim u_{N0}/eps, the transfer constant
                              between the initial distance to criticality
                              and the distance at the orbit's turning
                              point (tends to 1 as v0 -> 0);
  * ``c_v_estimate``          the free-energy constant
                              C_v = -lim sqrt(eps) log F(h(v)+eps, v),
                              estimated through the two-sided free-energy
                              bracket and cross-checked against
                              pi sqrt(2) log psi(inf) / sqrt(c*);
  * ``euler_tan_check``       the simplified affine system against the
                              closed-form blow-up solution of x' = xy,
                              y' = x, which is y(t) = sqrt(2) tan(t/sqrt2),
                              x = 1 + y^2/2, exploding at T = pi/sqrt(2);
  * ``sandwich_check``        the two-sided bound
                              F(1,0) psi(inf)^(-n*) <= F <= max(u0,1)
                              psi(inf)^(-n*+1);
  * ``simplified_comparison`` strict two-sided trapping of an orbit
                              between simplified systems started at
                              (1 +- eta) times the initial point.

Seeding: experiments start at u0 = h(v0) + eps, with h(v0) from a
:class:`Seed` that :func:`make_seed` builds once per start: 0 at v0 >= 0,
else read off a solved curve.  A solved grid carries an O(spacing^2)-scale
bias that a small epsilon cannot dominate, so ``refine_tol`` re-derives
h(v0) by bisecting the phase classifier inside a bracket around the curve
value.  Decade grids of eps stop at 1e-8; below that even refined seeds
are contaminated and results carry a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import CriticalCurve, bisect_h, h_eval
from .drivers import PsiFunction
from .errors import DomainError, NumericError
from .recursion import (PhaseLabel, _orbit, classify, free_energy,
                        initial_state, log_f_one_zero, stopping_times)

__all__ = [
    "ScalingReport",
    "Seed",
    "make_seed",
    "PI_OVER_SQRT2",
    "critical_asymptotics",
    "n_star_scaling",
    "c_star_estimate",
    "c_v_estimate",
    "euler_tan_check",
    "euler_tan_targets",
    "sandwich_check",
    "SandwichReport",
    "simplified_comparison",
    "SimplifiedComparisonReport",
    "dual_time_bound",
    "refined_h",
    "report_csv_rows",
]

PI_OVER_SQRT2 = math.pi / math.sqrt(2.0)
EPS_FLOOR = 1e-8  # below this, seed error contaminates eps even when refined


@dataclass
class ScalingReport:
    """Observed statistics over a parameter grid plus limit diagnostics."""

    experiment: str
    driver: str
    params: dict
    rows: list[dict]
    raw_last: float | None = None
    extrapolated: float | None = None
    target: float | None = None
    relative_gap: float | None = None
    spread_last3: float | None = None
    flags: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "experiment": self.experiment,
            "driver": self.driver,
            "params": self.params,
            "raw_last": self.raw_last,
            "extrapolated": self.extrapolated,
            "target": self.target,
            "relative_gap": self.relative_gap,
            "spread_last3": self.spread_last3,
            "flags": self.flags,
            "rows": self.rows,
        }


def report_csv_rows(report: ScalingReport) -> tuple[list[str], list[list]]:
    """Column names and rows for the experiment's cell-grid CSV."""
    if not report.rows:
        return [], []
    cols = list(report.rows[0].keys())
    return cols, [[row[c] for c in cols] for row in report.rows]


def _check_eps_list(eps_list) -> list[float]:
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("eps list must contain positive values")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps list must be strictly decreasing")
    return eps


def _extrapolate_sqrt(eps: list[float], vals: list[float]) -> float | None:
    """Two-point limit assuming value = L + a sqrt(eps)."""
    if len(vals) < 2:
        return vals[-1] if vals else None
    r1, r2 = math.sqrt(eps[-2]), math.sqrt(eps[-1])
    y1, y2 = vals[-2], vals[-1]
    return (y2 * r1 - y1 * r2) / (r1 - r2)


def _spread(vals: list[float]) -> float | None:
    tail = vals[-3:]
    if len(tail) < 2:
        return None
    mean = sum(tail) / len(tail)
    if mean == 0.0:
        return None
    return (max(tail) - min(tail)) / abs(mean)


def refined_h(psi: PsiFunction, curve: CriticalCurve, v0: float,
              tol: float, *, bracket: float = 2e-5,
              classify_max_iter: int = 3 * 10 ** 6) -> float:
    """h(v0) re-derived by the classifier-bisection oracle inside a
    bracket around the curve value; the curve supplies the bracket, the
    dynamics supply the digits.

    The bracket is verified (lower end not supercritical, upper end
    supercritical) and widened if the curve's bias exceeds it; endpoint
    checks are cheap because the endpoints sit far from the boundary.
    """
    coarse = h_eval(curve, v0)
    for _ in range(6):
        lo = max(0.0, coarse - bracket)
        hi = min(-v0, coarse + bracket)
        hi_super = classify(hi, v0, psi,
                            max_iter=classify_max_iter) is PhaseLabel.SUPERCRITICAL
        lo_super = lo > 0.0 and classify(
            lo, v0, psi, max_iter=classify_max_iter) is PhaseLabel.SUPERCRITICAL
        if hi_super and not lo_super:
            return bisect_h(psi, v0, tol=tol, lo=lo, hi=hi,
                            classify_max_iter=classify_max_iter)
        bracket *= 4.0
    raise NumericError(f"could not bracket h({v0}) around the curve value")


@dataclass(frozen=True)
class Seed:
    """The critical start h(v0) of the near-critical experiments, with the
    bisection tolerance that refined it (None: read off the curve)."""

    v0: float
    h: float
    refine_tol: float | None = None


def make_seed(psi: PsiFunction, v0: float, *,
              curve: CriticalCurve | None = None,
              refine_tol: float | None = None) -> Seed:
    """h(v0): 0 at v0 >= 0 (no curve needed), else the curve value, refined
    by :func:`refined_h` when ``refine_tol`` is given."""
    if refine_tol is not None and not refine_tol > 0.0:
        raise ValueError(f"refine tol must be positive, got {refine_tol!r}")
    if v0 >= 0.0:
        return Seed(v0, 0.0, refine_tol)
    if curve is None:
        raise ValueError("a seed below the origin needs a curve")
    h = (h_eval(curve, v0) if refine_tol is None
         else refined_h(psi, curve, v0, refine_tol))
    return Seed(v0, h, refine_tol)


# ---------------------------------------------------------------------------
# on-curve decay
# ---------------------------------------------------------------------------

def critical_asymptotics(psi: PsiFunction, seed: Seed,
                         n_max: int = 10 ** 5, *,
                         n_samples: int = 16) -> ScalingReport:
    """Start on the curve at (h(v0), v0) and record n^2 u_n and n v_n at
    logarithmically spaced times; both tend to 2 (resp. -2).

    If the orbit escapes (v goes positive: the seed was effectively
    off-curve) the report is flagged divergent and carries no targets.
    """
    v0 = seed.v0
    if not v0 < 0.0:
        raise ValueError("need v0 < 0")
    marks = {int(round(n_max ** (k / (n_samples - 1.0))))
             for k in range(n_samples)} | {n_max}
    rows = []
    diverged = False
    states = _orbit(initial_state(seed.h, v0), psi)
    for n, (u, v, _, _) in zip(range(n_max + 1), states):
        if v > 0.0:
            diverged = True
            break
        if n in marks and n > 0:
            rows.append({"n": n, "n2_u": n * n * u, "n_v": n * v,
                         "u": u, "v": v})
    flags = {"diverged": diverged}
    if diverged or not rows:
        return ScalingReport("critical_asymptotics", psi.name,
                             {"v0": v0, "n_max": n_max}, rows, flags=flags)
    last = rows[-1]
    flags["gap_n2_u"] = abs(last["n2_u"] - 2.0)
    flags["gap_n_v"] = abs(last["n_v"] + 2.0)
    flags["u_over_half_v2"] = last["u"] / (0.5 * last["v"] ** 2)
    return ScalingReport("critical_asymptotics", psi.name,
                         {"v0": v0, "n_max": n_max}, rows,
                         raw_last=last["n2_u"], target=2.0,
                         relative_gap=abs(last["n2_u"] - 2.0) / 2.0,
                         flags=flags)


# ---------------------------------------------------------------------------
# n* scaling and the free-energy constants
# ---------------------------------------------------------------------------

def n_star_scaling(psi: PsiFunction, seed: Seed, eps_list, *,
                   A: float = 10.0, delta: float = 0.1) -> ScalingReport:
    """sqrt(eps) * n*(h(v0)+eps, v0) over a decreasing eps grid.

    Target: pi/sqrt(2) at v0 = 0 (the turning point is the start itself,
    c* = 1, and only the outgoing half of the excursion remains);
    pi sqrt(2)/sqrt(c*) for v0 < 0, with c* estimated on the same grid.
    """
    v0 = seed.v0
    if not psi.bounded:
        raise ValueError("n* scaling needs a bounded driver")
    if v0 > 0.0:
        raise ValueError("need v0 <= 0")
    eps = _check_eps_list(eps_list)
    records = [stopping_times(seed.h + e, v0, psi, A=A, delta=delta,
                              epsilon=e) for e in eps]
    rows = []
    vals = []
    for e, rec in zip(eps, records):
        val = math.sqrt(e) * rec.n_star if rec.n_star is not None else math.nan
        vals.append(val)
        rows.append({"eps": e, "n_star": rec.n_star, "sqrt_eps_n_star": val,
                     "N0": rec.N0, "n1_A": rec.n1_A, "n2_A": rec.n2_A})
    flags = {"eps_below_floor": eps[-1] < EPS_FLOOR,
             "seed_refined": seed.refine_tol is not None}
    if v0 == 0.0:
        target = PI_OVER_SQRT2
    else:
        cstar = flags["c_star"] = _extrapolate_sqrt(
            eps, [rec.u_N0_over_eps for rec in records])
        target = (math.pi * math.sqrt(2.0) / math.sqrt(cstar)
                  if cstar and cstar > 0.0 else None)
    extrap = _extrapolate_sqrt(eps, vals)
    gap = (abs(extrap - target) / target
           if target is not None and extrap is not None else None)
    return ScalingReport("n_star_scaling", psi.name,
                         {"v0": v0, "eps": eps, "A": A, "delta": delta},
                         rows, raw_last=vals[-1], extrapolated=extrap,
                         target=target, relative_gap=gap,
                         spread_last3=_spread(vals), flags=flags)


def c_star_estimate(psi: PsiFunction, seed: Seed,
                    eps_list) -> ScalingReport:
    """u at the last nonpositive-v step, divided by eps; stabilizes to the
    transfer constant c*."""
    v0 = seed.v0
    if not v0 < 0.0:
        raise ValueError("need v0 < 0 (at v0 = 0 the constant is exactly 1)")
    eps = _check_eps_list(eps_list)
    # A and delta set thresholds that u_{N0} does not depend on
    vals = [stopping_times(seed.h + e, v0, psi, A=10.0, delta=0.1,
                           epsilon=e).u_N0_over_eps for e in eps]
    rows = [{"eps": e, "u_N0_over_eps": val} for e, val in zip(eps, vals)]
    extrap = _extrapolate_sqrt(eps, vals)
    return ScalingReport("c_star_estimate", psi.name,
                         {"v0": v0, "eps": eps}, rows,
                         raw_last=vals[-1], extrapolated=extrap,
                         spread_last3=_spread(vals),
                         flags={"eps_below_floor": eps[-1] < EPS_FLOOR})


def c_v_estimate(psi: PsiFunction, seed: Seed, eps_list, *,
                 A: float = 10.0, delta: float = 0.1) -> ScalingReport:
    """-sqrt(eps) log F(h(v0)+eps, v0), with log F taken as the midpoint of
    the two-sided bracket (the direct value underflows at these eps).

    Cross-checked against pi sqrt(2) log psi(inf) / sqrt(c*) for v0 < 0 and
    against (pi/sqrt(2)) log psi(inf) at v0 = 0.
    """
    v0, h0 = seed.v0, seed.h
    if not psi.bounded:
        raise ValueError("free-energy constants need a bounded driver")
    if v0 > 0.0:
        raise ValueError("need v0 <= 0")
    eps = _check_eps_list(eps_list)
    log_pinf = math.log(psi.psi_inf)
    log_f10 = log_f_one_zero(psi)
    records = [stopping_times(h0 + e, v0, psi, A=A, delta=delta, epsilon=e)
               for e in eps]
    rows = []
    vals = []
    for e, rec in zip(eps, records):
        if rec.n_star is None:
            rows.append({"eps": e, "n_star": None, "log_f_mid": math.nan,
                         "c_hat": math.nan})
            vals.append(math.nan)
            continue
        log_lower = log_f10 - rec.n_star * log_pinf
        log_upper = math.log(max(h0 + e, 1.0)) - (rec.n_star - 1) * log_pinf
        log_mid = 0.5 * (log_lower + log_upper)
        c_hat = -math.sqrt(e) * log_mid
        vals.append(c_hat)
        rows.append({"eps": e, "n_star": rec.n_star, "log_f_mid": log_mid,
                     "c_hat": c_hat})
    extrap = _extrapolate_sqrt(eps, vals)
    flags = {"eps_below_floor": eps[-1] < EPS_FLOOR}
    if v0 == 0.0:
        cross = PI_OVER_SQRT2 * log_pinf
        flags["cross_route"] = "pi/sqrt2 * log psi_inf (v0 = 0)"
    else:
        cstar = flags["c_star"] = _extrapolate_sqrt(
            eps, [rec.u_N0_over_eps for rec in records])
        cross = (math.pi * math.sqrt(2.0) * log_pinf / math.sqrt(cstar)
                 if cstar and cstar > 0.0 else None)
        flags["cross_route"] = "pi sqrt2 log psi_inf / sqrt(c*)"
    gap = (abs(extrap - cross) / abs(cross)
           if cross is not None and extrap is not None else None)
    return ScalingReport("c_v_estimate", psi.name,
                         {"v0": v0, "eps": eps, "A": A, "delta": delta},
                         rows, raw_last=vals[-1], extrapolated=extrap,
                         target=cross, relative_gap=gap,
                         spread_last3=_spread(vals), flags=flags)


# ---------------------------------------------------------------------------
# the simplified system and its blow-up solution
# ---------------------------------------------------------------------------

def euler_tan_targets(t: float) -> tuple[float, float]:
    """Closed-form solution of x' = xy, y' = x from (1, 0): the rescaled
    simplified system is its Euler discretization with step sqrt(eps).
    Blow-up at T = pi/sqrt(2)."""
    y = math.sqrt(2.0) * math.tan(t / math.sqrt(2.0))
    return 1.0 + 0.5 * y * y, y


def euler_tan_check(eps_list, t_list) -> ScalingReport:
    """Iterate the affine simplified system from (eps, 0), rescale to
    (x, y) = (a/eps, b/sqrt(eps)) and compare with the tan solution at
    steps floor(t/sqrt(eps))."""
    eps = _check_eps_list(eps_list)
    ts = sorted(float(t) for t in t_list)
    if not ts or ts[0] < 0.0:
        raise ValueError("t list must be nonnegative")
    if ts[-1] >= PI_OVER_SQRT2 - 0.05:
        raise ValueError(f"t must stay below blow-up: t < {PI_OVER_SQRT2 - 0.05:.4f}")
    rows = []
    worst = 0.0
    gaps_by_eps = {}
    for e in eps:
        sq = math.sqrt(e)
        ks = [int(t / sq) for t in ts]
        a, b = e, 0.0
        k_max = max(ks)
        want = {k: t for k, t in zip(ks, ts)}
        gap_here = 0.0
        for k in range(1, k_max + 1):
            b = b + a
            a = a * (1.0 + b)
            if k in want:
                t = want[k]
                x_t, y_t = euler_tan_targets(t)
                x_e, y_e = a / e, b / sq
                gap = abs(y_e - y_t)
                gap_here = max(gap_here, gap)
                worst = max(worst, gap / max(1.0, abs(y_t)))
                rows.append({"eps": e, "t": t, "k": k, "x": x_e, "y": y_e,
                             "x_exact": x_t, "y_exact": y_t, "y_gap": gap})
        if 0.0 in want:
            x_t, y_t = 1.0, 0.0
            rows.append({"eps": e, "t": 0.0, "k": 0, "x": 1.0, "y": 0.0,
                         "x_exact": x_t, "y_exact": y_t, "y_gap": 0.0})
        gaps_by_eps[e] = gap_here
    return ScalingReport("euler_tan_check", "affine",
                         {"eps": eps, "t": ts}, rows,
                         raw_last=worst, target=0.0, relative_gap=worst,
                         flags={"max_gap_by_eps": gaps_by_eps})


# ---------------------------------------------------------------------------
# free-energy sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    log_value: float
    log_lower: float
    log_upper: float
    n_star: int | None
    ok: bool
    slack_lower: float
    slack_upper: float


def sandwich_check(psi: PsiFunction, u0: float, v0: float,
                   **fe_kwargs) -> SandwichReport:
    """Verify F(1,0) psi(inf)^(-n*) <= F(u0, v0) <= max(u0,1)
    psi(inf)^(-n*+1) by computing all three quantities independently."""
    fe = free_energy(u0, v0, psi, **fe_kwargs)
    if fe.n_star is None or fe.log_value == -math.inf:
        return SandwichReport(fe.log_value, fe.log_lower, fe.log_upper,
                              fe.n_star, ok=False,
                              slack_lower=math.nan, slack_upper=math.nan)
    slack_lo = fe.log_value - fe.log_lower
    slack_hi = fe.log_upper - fe.log_value
    ok = slack_lo >= -1e-9 and slack_hi >= -1e-9
    return SandwichReport(fe.log_value, fe.log_lower, fe.log_upper,
                          fe.n_star, ok=ok, slack_lower=slack_lo,
                          slack_upper=slack_hi)


# ---------------------------------------------------------------------------
# simplified-system trapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplifiedComparisonReport:
    band_ok: bool
    band_violation_x: float | None
    n4: int | None
    first_violation: int | None
    steps_checked: int
    ok: bool


def simplified_comparison(psi: PsiFunction, u0: float, v0: float,
                          eta: float, delta: float, *,
                          max_iter: int = 10 ** 7,
                          band_points: int = 256) -> SimplifiedComparisonReport:
    """Trap the orbit strictly between affine simplified systems started at
    (1 +- eta)(u0, v0), valid while v stays below delta.

    Requires (psi(x) - 1)/x within [1-eta, 1+eta] on (0, delta], verified
    by grid sampling; a violation is reported with the offending x.  With
    eta = 0 the three systems coincide (the driver must then be affine)
    and coincidence is checked instead of strictness.
    """
    if not (u0 > 0.0 and -u0 < v0 <= 0.0):
        raise ValueError("need u0 > 0 and v0 in (-u0, 0]")
    if eta < 0.0 or delta <= 0.0:
        raise ValueError("need eta >= 0 and delta > 0")
    xs = np.linspace(delta / band_points, delta, band_points)
    ratios = (psi(xs) - 1.0) / xs
    bad = (ratios < 1.0 - eta - 1e-12) | (ratios > 1.0 + eta + 1e-12)
    if bad.any():
        x_bad = float(xs[int(np.argmax(bad))])
        return SimplifiedComparisonReport(band_ok=False,
                                          band_violation_x=x_bad,
                                          n4=None, first_violation=None,
                                          steps_checked=0, ok=False)
    am, bm = (1.0 - eta) * u0, (1.0 - eta) * v0
    ap, bp = (1.0 + eta) * u0, (1.0 + eta) * v0
    first_violation = None
    n4 = None
    k = 0
    states = _orbit(initial_state(u0, v0), psi)
    next(states)  # the start itself
    for k, (u, v, _, _) in zip(range(1, max_iter + 1), states):
        if v > delta:
            n4 = k
            break
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
    return SimplifiedComparisonReport(band_ok=True, band_violation_x=None,
                                      n4=n4, first_violation=first_violation,
                                      steps_checked=k,
                                      ok=first_violation is None)


# ---------------------------------------------------------------------------
# uniform escape-time bound along near-critical orbits
# ---------------------------------------------------------------------------

def dual_time_bound(psi: PsiFunction, seed: Seed, eps: float, *,
                    max_iter: int = 10 ** 7) -> float:
    """max over k past the sign change of (n* - k)_+ * v_k; bounded
    uniformly in eps for a fixed driver (the time left to reach u >= 1
    scales like 1/v)."""
    if not seed.v0 < 0.0:
        raise ValueError("need v0 < 0")
    vs = []
    n_star = None
    first_nonneg = None
    states = _orbit(initial_state(seed.h + eps, seed.v0), psi)
    for n, (u, v, _, _) in zip(range(max_iter + 1), states):
        vs.append(v)
        if first_nonneg is None and v >= 0.0:
            first_nonneg = n
        if v >= 0.0 and u >= 1.0:
            n_star = n
            break
    if n_star is None or first_nonneg is None:
        raise DomainError("orbit did not reach u >= 1; eps too small or subcritical")
    best = 0.0
    for k in range(first_nonneg + 1, n_star + 1):
        best = max(best, (n_star - k) * vs[k])  # vs[0] is v0
    return best
