"""Quantitative experiments around the critical point.

Each experiment runs a family of orbits started a distance epsilon above
the critical curve and reports a scaling statistic against its predicted
limit:

  * ``critical_asymptotics``  on-curve decay u_n ~ 2/n^2, v_n ~ -2/n,
                              flagged when the classifier sees the orbit
                              escape or collapse (its certificate is
                              tested at every 1024th step);
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
                              psi(inf)^(-n*+1).

Seeding: experiments start at u0 = h(v0) + eps, with h(v0) from a
:class:`Seed` that :func:`make_seed` builds once per start: 0 at v0 >= 0,
else read off a solved curve.  A solved grid carries an O(spacing^1.5)
bias that a small epsilon cannot dominate, so ``refine_tol`` re-derives
h(v0) from the dynamics: escape times near the curve value, then a
bracket certified by the phase classifier.  A scan flags
``seed_unresolved`` when the seed's error could exceed a tenth of its
least eps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace

from .curve import CriticalCurve, h_eval
from .drivers import PsiFunction, make_affine_psi
from .errors import NumericError
from .recursion import (PhaseLabel, _log_bracket, _orbit, classify_detail,
                        classify_many, free_energy, initial_state,
                        log_f_one_zero, stopping_times)

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
    "refined_h",
]

PI_OVER_SQRT2 = math.pi / math.sqrt(2.0)
_DELTA = 0.1  # the scans' delta level; no statistic they report reads it


@dataclass
class ScalingReport:
    """Observed statistics over a parameter grid plus limit diagnostics;
    ``why`` (not in the summary): why the run's answer cannot be trusted,
    empty when it can.  A run with a reason has ``failed``, and its command
    prints the reason on stderr and exits 1."""

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
    why: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.why)

    def summary(self) -> dict:
        out = asdict(self)
        del out["why"]
        return out


def _check_eps_list(eps_list) -> list[float]:
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("eps list must not be empty")
    for e in eps:
        if not 0.0 < e < math.inf:
            raise ValueError(f"eps={e!r} must be positive and finite")
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


def _budget(d: float) -> int:
    """Steps to classify a start d from h: 4 times the escape law's
    2/sqrt(d), and at least 3*10^6."""
    return max(3_000_000, math.ceil(8.0 / math.sqrt(d)))


def refined_h(psi: PsiFunction, curve: CriticalCurve, v0: float,
              tol: float) -> float:
    """h(v0) to within tol, found by the escape-time law and certified by
    the classifier; the curve value is only the first guess.  The h
    certified is that of the map as evaluated in double precision, whose
    verdicts the classifier gives: at v0 = -0.3 on lf:p=0.5,z=1, bisecting
    both maps in C put it 0.4-1.7e-17 above the h of the map evaluated in
    long double.

    A start u above h escapes (v > 0) at a step n with n^2 (u - h) ->
    const, so the starts u1 = est + delta and u2 = est + 4 delta, escaping
    at n1 and n2, estimate h as (u1 n1^2 - u2 n2^2)/(n1^2 - n2^2).  delta
    starts at est/100 and shrinks to a tenth of the estimate's last move,
    down to a floor (10 tol, less for small h) where the law's own error
    is near tol/8; then the pair est -+ tol/2 is classified, both starts
    in one :func:`classify_many` call.  Every
    decided verdict tightens a bracket, first [0, -v0], whose lower end is
    certified subcritical and upper end supercritical.  Where a guess
    lands on the wrong side of h, the search steps out from est by
    doubling steps and halves, until hi - lo <= tol.  Each classification
    gets _budget(tol/2) steps.  A start still undetermined there lies
    about as close to h as that budget resolves, so the pair start -+ tol/2
    is classified next; NumericError if such a pair decides nothing, or if
    tol is below the float spacing.
    """
    lo, hi = 0.0, -v0
    undetermined = None  # the last start that ran out of steps

    budget = _budget(0.5 * tol)

    def apply(u: float, label: PhaseLabel, last) -> int | None:
        """Apply u's verdict: a decided one tightens [lo, hi], and an
        undetermined u is kept.  u's escape step if it escapes, 0 if it
        collapses, None if undetermined."""
        nonlocal lo, hi, undetermined
        if label is PhaseLabel.SUPERCRITICAL:
            hi = min(hi, u)
            return last.n
        if label is PhaseLabel.SUBCRITICAL:
            lo = max(lo, u)
            return 0
        undetermined = u
        return None

    def probe(u: float) -> int | None:
        """Classify u and apply its verdict."""
        return apply(u, *classify_detail(u, v0, psi, max_iter=budget))

    def pair(u: float) -> list[int | None]:
        """Classify in one call the starts u -+ tol/2 (at most tol apart)
        that lie in (lo, hi), then apply their verdicts in order, the
        second only if its start lies in the bracket the first left, as
        probing them one by one would; the applied verdicts' results."""
        a = u - 0.5 * tol
        b = a + tol
        while b - a > tol:
            b = math.nextafter(b, a)
        xs = [x for x in (a, b) if lo < x < hi]
        verdicts = classify_many(xs, v0, psi, max_iter=budget)
        return [apply(x, *verdict) for x, verdict in zip(xs, verdicts)
                if lo < x < hi]

    est = h_eval(curve, v0)
    floor = min(10.0 * tol, (tol * math.sqrt(est) / 40.0) ** (2.0 / 3.0))
    delta = max(0.01 * est, floor)
    for _ in range(64):  # a cap: the estimates settle in about 8 stages
        u1, u2 = est + delta, est + 4.0 * delta
        n1 = probe(u1)
        n2 = n1 and probe(u2)
        if not (n2 and n1 > n2):  # u1 did not escape: est lies below h
            break
        new = (u1 * n1 * n1 - u2 * n2 * n2) / (n1 * n1 - n2 * n2)
        if not lo < new < hi:
            break
        move, est = abs(new - est), new
        if delta == floor:
            break
        delta = max(floor, 0.1 * move)
    pair(est)
    step = tol
    while hi - lo > tol:
        if undetermined is not None:  # h lies within the budget's reach
            u, undetermined = undetermined, None
            if all(n is None for n in pair(u)):
                break
            continue
        # a guess landed wrong: step out from est, halve
        mid = 0.5 * (lo + hi)
        u = min(max(mid, est - step), est + step)
        if not lo < u < hi:
            u = mid
        if not lo < u < hi:  # adjacent floats: tol is below their spacing
            break
        probe(u)
        step *= 2.0
    if hi - lo > tol:
        raise NumericError(
            f"could not certify h({v0}) to within {tol}: [{lo!r}, {hi!r}] "
            f"is wider, and a classification near h ran out of steps, or "
            f"tol is below the float spacing")
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Seed:
    """The critical start h(v0) of the near-critical experiments, with the
    tol of the escape-law search that refined it (None: 0 at v0 >= 0, or
    read off the curve)."""

    v0: float
    h: float
    refine_tol: float | None = None


def make_seed(psi: PsiFunction, v0: float, *,
              curve: CriticalCurve | None = None,
              refine_tol: float | None = None) -> Seed:
    """h(v0): 0 at v0 >= 0 (no curve needed, and never refined), else the
    curve value, which must not be negative, refined by :func:`refined_h`
    when ``refine_tol`` is given; a given tol must be positive and finite,
    and below the origin lie in [ulp(-v0), -v0), from the float spacing to
    the width of the bracket h starts in, [0, -v0]."""
    if refine_tol is not None and not 0.0 < refine_tol < math.inf:
        raise ValueError(
            f"refine tol must be positive and finite, got {refine_tol!r}")
    if math.isnan(v0):
        raise ValueError(f"v0={v0!r} is not a number")
    if v0 >= 0.0:  # h = 0 exactly: nothing to refine
        return Seed(v0, 0.0)
    if refine_tol is not None and not math.ulp(-v0) <= refine_tol < -v0:
        raise ValueError(f"refine tol must be below -v0 = {-v0!r}, the "
                         f"width of h's bracket [0, -v0], and at least its "
                         f"float spacing {math.ulp(-v0)!r}, got {refine_tol!r}")
    if curve is None:
        raise ValueError("a seed below the origin needs a curve")
    h = h_eval(curve, v0)
    if not h >= 0.0:
        raise ValueError(f"the curve gives h({v0!r}) = {h!r}, but h >= 0")
    if refine_tol is not None:
        h = refined_h(psi, curve, v0, refine_tol)
    return Seed(v0, h, refine_tol)


def _seed_unresolved(psi: PsiFunction, seed: Seed, eps_min: float) -> bool:
    """Whether the seed's error could exceed d = eps_min / 10, where it
    would move sqrt(eps)-scaled statistics by about 5%.  A refined seed is
    within refine_tol / 2 of h.  An unrefined one below the origin is
    resolved only when the start d below it collapses and the one d above
    it escapes.  Each start gets _budget(d) steps, and a verdict still
    undetermined there counts as unresolved."""
    d = eps_min / 10.0
    if seed.v0 >= 0.0:
        return False
    if seed.refine_tol is not None:
        return seed.refine_tol / 2.0 > d
    (below, _), (above, _) = classify_many(
        [max(seed.h - d, 0.0), seed.h + d], seed.v0, psi, max_iter=_budget(d))
    return not (below is PhaseLabel.SUBCRITICAL
                and above is PhaseLabel.SUPERCRITICAL)


# ---------------------------------------------------------------------------
# on-curve decay
# ---------------------------------------------------------------------------

def critical_asymptotics(psi: PsiFunction, seed: Seed,
                         n_max: int = 10 ** 5) -> ScalingReport:
    """Start on the curve at (h(v0), v0) and record n^2 u_n and n v_n at
    16 logarithmically spaced times; both tend to 2 (resp. -2).

    The walk from one mark to the next is one :func:`classify_detail`
    call.  An escape (v > 0: ``diverged``) or a collapse (the subcritical
    certificate, tested at every 1024th step of a walk, so only when
    n_max is above about 2000: ``collapsed``) ends the rows, and the
    report carries no target.  ``seed_unresolved``: the seed's error could
    exceed 0.25/n_max^2, which moves n^2 u at n_max by about 5%.
    """
    v0 = seed.v0
    if not v0 < 0.0:
        raise ValueError("need v0 < 0")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    marks = sorted({round(n_max ** (k / 15.0)) for k in range(16)} | {n_max})
    rows = []
    u, v = seed.h, v0
    for at, n in zip([0, *marks], marks):
        # undetermined at mark n, unless the walk stopped before it
        label, last = classify_detail(u, v, psi, max_iter=n - at - 1)
        u, v = last.u, last.v
        if label is not PhaseLabel.UNDETERMINED or v > 0.0:
            break
        rows.append({"n": n, "n2_u": n * n * u, "n_v": n * v,
                     "u": u, "v": v})
    flags = {"diverged": v > 0.0,
             "collapsed": label is PhaseLabel.SUBCRITICAL,
             "seed_unresolved": _seed_unresolved(psi, seed, 2.5 / n_max ** 2)}
    report = ScalingReport("critical_asymptotics", psi.name,
                           {"v0": v0, "n_max": n_max}, rows, flags=flags,
                           why="; ".join(f"flags.{k}" for k, v
                                         in flags.items() if v))
    if flags["diverged"] or flags["collapsed"]:
        return report
    n2_u, n_v, u, v = (rows[-1][k] for k in ("n2_u", "n_v", "u", "v"))
    return replace(report, raw_last=n2_u, target=2.0,
                   relative_gap=abs(n2_u - 2.0) / 2.0,
                   flags={**flags, "gap_n2_u": abs(n2_u - 2.0),
                          "gap_n_v": abs(n_v + 2.0),
                          "u_over_half_v2": u / (0.5 * v ** 2)})


# ---------------------------------------------------------------------------
# n* scaling and the free-energy constants
# ---------------------------------------------------------------------------

def _scan(psi: PsiFunction, seed: Seed, eps_list, A: float = 10.0):
    """(eps, records, flags): the stopping pass from h(v0) + eps for each
    eps of a checked, decreasing grid, and the flags every scan carries."""
    eps = _check_eps_list(eps_list)
    records = [stopping_times(seed.h + e, seed.v0, psi, A=A, delta=_DELTA,
                              epsilon=e) for e in eps]
    return eps, records, {"seed_unresolved": _seed_unresolved(psi, seed,
                                                              eps[-1])}


def _target(seed: Seed, scan, scale: float) -> float | None:
    """scale * pi/sqrt(2) at v0 = 0; below it scale * pi sqrt(2)/sqrt(c*),
    with c* extrapolated on the scan's grid and stored in its flags (None
    unless c* > 0)."""
    if seed.v0 == 0.0:
        return PI_OVER_SQRT2 * scale
    eps, records, flags = scan
    cstar = flags["c_star"] = _extrapolate_sqrt(
        eps, [rec.u_N0_over_eps for rec in records])
    return (math.pi * math.sqrt(2.0) * scale / math.sqrt(cstar)
            if cstar and cstar > 0.0 else None)


def _report(experiment: str, psi: PsiFunction, seed: Seed, scan, rows,
            vals: list[float], target: float | None = None,
            **params) -> ScalingReport:
    """The report of a scan whose statistic is vals, one per eps.  It
    failed on an unresolved seed; when the pass ran out of steps before a
    hitting index the scan reads: a nan value, or below the origin an N0
    (c* reads it); or when an eps puts the start at the stopping level
    already (n* = 0), where no small-eps law holds."""
    eps, records, flags = scan
    extrap = _extrapolate_sqrt(eps, vals)
    gap = (abs(extrap - target) / abs(target)
           if target is not None and extrap is not None else None)
    why = [f"eps={e!r} starts at the stopping level (n_star 0)"
           for e, rec in zip(eps, records) if rec.n_star == 0]
    if flags["seed_unresolved"]:
        why.insert(0, "flags.seed_unresolved")
    if any(map(math.isnan, vals)) or seed.v0 < 0.0 and any(
            rec.N0 is None for rec in records):
        why.append("a stopping pass ran out of steps")
    return ScalingReport(experiment, psi.name,
                         {"v0": seed.v0, "eps": eps, **params}, rows,
                         raw_last=vals[-1], extrapolated=extrap,
                         target=target, relative_gap=gap,
                         spread_last3=_spread(vals), flags=flags,
                         why="; ".join(why))


def n_star_scaling(psi: PsiFunction, seed: Seed, eps_list, *,
                   A: float = 10.0) -> ScalingReport:
    """sqrt(eps) * n*(h(v0)+eps, v0) over a decreasing eps grid.

    Target: pi/sqrt(2) at v0 = 0 (the turning point is the start itself,
    c* = 1, and only the outgoing half of the excursion remains);
    pi sqrt(2)/sqrt(c*) for v0 < 0, with c* estimated on the same grid.
    """
    if not psi.bounded:
        raise ValueError("n* scaling needs a bounded driver")
    if seed.v0 > 0.0:
        raise ValueError("need v0 <= 0")
    eps, records, flags = scan = _scan(psi, seed, eps_list, A)
    flags["seed_refined"] = seed.refine_tol is not None
    rows = []
    vals = []
    for e, rec in zip(eps, records):
        val = math.sqrt(e) * rec.n_star if rec.n_star is not None else math.nan
        vals.append(val)
        rows.append({"eps": e, "n_star": rec.n_star, "sqrt_eps_n_star": val,
                     "N0": rec.N0, "n1_A": rec.n1_A, "n2_A": rec.n2_A})
    return _report("n_star_scaling", psi, seed, scan, rows, vals,
                   _target(seed, scan, 1.0), A=A, delta=_DELTA)


def c_star_estimate(psi: PsiFunction, seed: Seed,
                    eps_list) -> ScalingReport:
    """u at the last nonpositive-v step, divided by eps; stabilizes to the
    transfer constant c*."""
    if not seed.v0 < 0.0:
        raise ValueError("need v0 < 0 (at v0 = 0 the constant is exactly 1)")
    # u_{N0} depends on neither A nor delta
    eps, records, _ = scan = _scan(psi, seed, eps_list)
    vals = [rec.u_N0_over_eps for rec in records]
    rows = [{"eps": e, "u_N0_over_eps": val} for e, val in zip(eps, vals)]
    return _report("c_star_estimate", psi, seed, scan, rows, vals)


def c_v_estimate(psi: PsiFunction, seed: Seed, eps_list) -> ScalingReport:
    """-sqrt(eps) log F(h(v0)+eps, v0), with log F taken as the midpoint of
    the two-sided bracket (the direct value underflows at these eps).

    Cross-checked against pi sqrt(2) log psi(inf) / sqrt(c*) for v0 < 0 and
    against (pi/sqrt(2)) log psi(inf) at v0 = 0.
    """
    if not psi.bounded:
        raise ValueError("free-energy constants need a bounded driver")
    if seed.v0 > 0.0:
        raise ValueError("need v0 <= 0")
    log_pinf = math.log(psi.psi_inf)
    log_f10 = log_f_one_zero(psi)
    eps, records, flags = scan = _scan(psi, seed, eps_list)
    rows = []
    vals = []
    for e, rec in zip(eps, records):
        log_mid = c_hat = math.nan  # no n*: nothing to bracket
        if rec.n_star is not None:
            lo, hi = _log_bracket(log_f10, log_pinf, rec.n_star, seed.h + e)
            log_mid = 0.5 * (lo + hi)
            c_hat = -math.sqrt(e) * log_mid
        vals.append(c_hat)
        rows.append({"eps": e, "n_star": rec.n_star, "log_f_mid": log_mid,
                     "c_hat": c_hat})
    flags["cross_route"] = ("pi/sqrt2 * log psi_inf (v0 = 0)"
                            if seed.v0 == 0.0 else
                            "pi sqrt2 log psi_inf / sqrt(c*)")
    return _report("c_v_estimate", psi, seed, scan, rows, vals,
                   _target(seed, scan, log_pinf), A=10.0, delta=_DELTA)


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
    step floor(t/sqrt(eps)): one row per t and eps, in increasing t."""
    eps = _check_eps_list(eps_list)
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("t list must not be empty")
    for t in ts:
        if not t >= 0.0:
            raise ValueError(f"t={t!r} must be nonnegative")
    ts.sort()
    if ts[-1] >= PI_OVER_SQRT2 - 0.05:
        raise ValueError(f"t must stay below blow-up: t < {PI_OVER_SQRT2 - 0.05:.4f}")
    rows = []
    worst = 0.0
    gaps_by_eps = {}
    affine = make_affine_psi()
    for e in eps:
        sq = math.sqrt(e)
        gap_here = 0.0
        states = _orbit(initial_state(e, 0.0), affine)
        at, (a, b, _, _) = 0, next(states)
        for t in ts:  # sorted, so the steps k do not decrease
            k = int(t / sq)
            if k > at:
                a, b, _, _ = next(itertools.islice(states, k - at - 1, None))
                at = k
            x_t, y_t = euler_tan_targets(t)
            x_e, y_e = a / e, b / sq
            gap = abs(y_e - y_t)
            gap_here = max(gap_here, gap)
            worst = max(worst, gap / max(1.0, abs(y_t)))
            rows.append({"eps": e, "t": t, "k": k, "x": x_e, "y": y_e,
                         "x_exact": x_t, "y_exact": y_t, "y_gap": gap})
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


def sandwich_check(psi: PsiFunction, u0: float, v0: float) -> SandwichReport:
    """Verify F(1,0) psi(inf)^(-n*) <= F(u0, v0) <= max(u0,1)
    psi(inf)^(-n*+1) by computing all three quantities independently."""
    fe = free_energy(u0, v0, psi)
    slack_lo = slack_hi = math.nan  # no n* or F = 0: nothing to bracket
    if fe.n_star is not None and fe.log_value != -math.inf:
        slack_lo = fe.log_value - fe.log_lower
        slack_hi = fe.log_upper - fe.log_value
    ok = slack_lo >= -1e-9 and slack_hi >= -1e-9
    return SandwichReport(fe.log_value, fe.log_lower, fe.log_upper,
                          fe.n_star, ok=ok, slack_lower=slack_lo,
                          slack_upper=slack_hi)
