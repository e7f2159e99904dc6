"""The two-parameter recursion: orbits, phases, free energy, duality.

The state advances by

    v_{n+1} = v_n + u_n          (computed first, as a plain float sum)
    u_{n+1} = u_n * psi(v_{n+1})

so v is nondecreasing whenever u0 >= 0 and v telescopes exactly.  u is
tracked both linearly and in natural log; the log is authoritative once u
leaves the representable range (free energies at small epsilon need
psi(inf)^(-n) with n in the thousands, far below underflow).

All forward loops step through one kernel, :func:`_orbit`: it checks the
domain's lower end once (v never decreases) and per step only the upper
end, then calls the raw driver; bounded drivers take psi(inf) from
``V_STOP`` on, and a zero of psi leaves u at an absorbing 0.

Every orbit obeys a dichotomy: either v -> +inf and (1/n) log u_n tends to
log psi(inf), or v converges to a nonpositive limit and u -> 0.  Phase
classification detects the first case the moment v goes positive (v > 0 is
a certificate of escape) and the second once u is numerically dead while v
is bounded away from 0.  Orbits hugging the critical curve legitimately
exhaust the iteration budget: Undetermined is a value, not an error,
because criticality is not numerically decidable.  The free energy walks
its orbit once, classifying it on the way.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .drivers import PsiFunction

__all__ = [
    "OrbitState",
    "PhaseLabel",
    "StoppingRecord",
    "FreeEnergyEstimate",
    "DominationReport",
    "initial_state",
    "step",
    "orbit",
    "classify",
    "classify_detail",
    "free_energy",
    "log_f_one_zero",
    "stopping_times",
    "backward_orbit",
    "compare_orbits",
    "write_orbit_csv",
]

_INF = math.inf
V_STOP = 1e12  # v beyond this, bounded drivers take psi(inf) for psi(v)
_U_ZERO_TOL, _V_MARGIN = 1e-14, 1e-9  # classify: u is dead, v < -margin


@dataclass(frozen=True)
class OrbitState:
    """One step of the recursion: index, u, v and log(u)."""

    n: int
    u: float
    v: float
    log_u: float


class PhaseLabel(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    UNDETERMINED = "undetermined"


def initial_state(u0: float, v0: float) -> OrbitState:
    if not u0 >= 0.0:
        raise ValueError(f"u0={u0!r} must be nonnegative")
    log_u = math.log(u0) if u0 > 0.0 else -_INF
    return OrbitState(0, float(u0), float(v0), log_u)


def _orbit(start: OrbitState, psi: PsiFunction
           ) -> Iterator[tuple[float, float, float, float]]:
    """Yields (u, v, log u, log w) for the start (w = nan) and after each
    step, w being the driver value the step took.  The domain is checked
    when the first step is taken."""
    u, v, log_u = start.u, start.v, start.log_u
    yield u, v, log_u, math.nan
    if log_u != -_INF:
        if not v + u >= psi.domain_min:  # v never decreases
            psi(v + u)  # the checked call raises DomainError
        fn, v_max, w_inf = psi.fn, psi.domain_max, psi.psi_inf
        v_stop = V_STOP if psi.bounded else _INF
        while True:
            v = v + u
            if not v <= v_max:  # also NaN
                psi(v)  # the checked call raises DomainError
            w = fn(v) if v < v_stop else w_inf
            if w == 0.0:
                break
            log_w = math.log(w)
            u = u * w
            log_u = log_u + log_w
            yield u, v, log_u, log_w
    # u == 0 exactly: absorbing, psi is no longer consulted
    while True:
        yield 0.0, v, -_INF, -_INF


def step(state: OrbitState, psi: PsiFunction) -> OrbitState:
    """Advance one step; a true zero of u is absorbing."""
    _, (u, v, log_u, _) = itertools.islice(_orbit(state, psi), 2)
    return OrbitState(state.n + 1, u, v, log_u)


def orbit(u0: float, v0: float, psi: PsiFunction, n: int) -> list[OrbitState]:
    """States 0..n inclusive."""
    return [OrbitState(k, u, v, log_u) for k, (u, v, log_u, _)
            in zip(range(n + 1), _orbit(initial_state(u0, v0), psi))]


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------

def classify_detail(u0: float, v0: float, psi: PsiFunction, *,
                    max_iter: int = 10 ** 6,
                    u_zero_tol: float = _U_ZERO_TOL,
                    v_margin: float = _V_MARGIN
                    ) -> tuple[PhaseLabel, OrbitState]:
    """Classification plus the state where the decision (or give-up) fired.

    The final state's v sign is the only usable direction hint when the
    label is Undetermined.
    """
    for n, (u, v, log_u, _) in enumerate(_orbit(initial_state(u0, v0), psi)):
        if n > max_iter:
            return PhaseLabel.UNDETERMINED, OrbitState(n, u, v, log_u)
        if v > 0.0 and log_u > -_INF:
            return PhaseLabel.SUPERCRITICAL, OrbitState(n, u, v, log_u)
        if u < u_zero_tol and v < -v_margin:
            return PhaseLabel.SUBCRITICAL, OrbitState(n, u, v, log_u)
        if log_u == -_INF:
            # u == 0 exactly and v in [-margin, 0]: frozen at the origin's edge
            return PhaseLabel.UNDETERMINED, OrbitState(n, u, v, log_u)


def classify(u0: float, v0: float, psi: PsiFunction, *,
             max_iter: int = 10 ** 6,
             u_zero_tol: float = _U_ZERO_TOL,
             v_margin: float = _V_MARGIN) -> PhaseLabel:
    label, _ = classify_detail(u0, v0, psi, max_iter=max_iter,
                               u_zero_tol=u_zero_tol, v_margin=v_margin)
    return label


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Limit of psi(inf)^(-n) u_n with its two-sided bracket.

    The bracket is [F(1,0) psi(inf)^(-n*), max(u0,1) psi(inf)^(-n*+1)]
    whenever the entry time n* exists; bounds are carried in log form as
    well because the linear values underflow long before the estimates
    stop being meaningful.
    """

    value: float
    log_value: float
    lower: float
    upper: float
    log_lower: float
    log_upper: float
    n_star: int | None
    converged: bool


def _require_bounded(psi: PsiFunction) -> None:
    if not (psi.bounded and math.isfinite(psi.psi_inf)):
        raise ValueError(f"driver {psi.name!r} is unbounded; free energy needs psi(inf) < inf")


def _free_energy_pass(u0: float, v0: float, psi: PsiFunction, *,
                      tol: float, window: int, max_iter: int
                      ) -> tuple[PhaseLabel, float, int | None, bool]:
    """One walk of the orbit: (phase, log F estimate, n*, settled).

    s_n = log u_n - n log psi(inf) is nonincreasing; it settles once
    `window` consecutive steps each move it by less than `tol`, or at an
    exact zero of u.  Alongside, :func:`classify`'s checks run on states
    0..max_iter until one decides; a subcritical verdict ends the walk.
    """
    log_pinf = math.log(psi.psi_inf)
    start = initial_state(u0, v0)
    s = start.log_u
    n_star = 0 if (start.v >= 0.0 and start.u >= 1.0) else None
    label, settled, quiet = None, False, 0
    for n, (u, v, log_u, log_w) in enumerate(_orbit(start, psi)):
        if n and not settled:
            ds = log_w - log_pinf
            s = s + ds
            if n_star is None and v >= 0.0 and log_u >= 0.0:
                n_star = n
            quiet = quiet + 1 if abs(ds) < tol else 0
            settled = quiet >= window
        if label is None:
            if v > 0.0 and log_u > -_INF:
                label = PhaseLabel.SUPERCRITICAL
            elif u < _U_ZERO_TOL and v < -_V_MARGIN:
                return PhaseLabel.SUBCRITICAL, -_INF, None, True
            elif log_u == -_INF:
                label = PhaseLabel.UNDETERMINED
        settled = settled or log_u == -_INF  # s is -inf there already
        if (settled and label is not None) or n == max_iter:
            return label or PhaseLabel.UNDETERMINED, s, n_star, settled


@functools.lru_cache(maxsize=64)
def _log_f_one_zero(psi: PsiFunction, tol: float, max_iter: int) -> float:
    return _free_energy_pass(1.0, 0.0, psi, tol=tol, window=100,
                             max_iter=max_iter)[1]


def log_f_one_zero(psi: PsiFunction, *, tol: float = 1e-12,
                   max_iter: int = 10 ** 6) -> float:
    """log F(1, 0), the reference free energy, cached per argument set."""
    _require_bounded(psi)
    return _log_f_one_zero(psi, tol, max_iter)


def free_energy(u0: float, v0: float, psi: PsiFunction, *,
                tol: float = 1e-12, window: int = 100,
                max_iter: int = 10 ** 6) -> FreeEnergyEstimate:
    """Estimate F(u0, v0) = lim psi(inf)^(-n) u_n for a bounded driver.

    Subcritical points report 0 exactly.  Otherwise the nonincreasing
    log-scale sequence is iterated to stability and bracketed through the
    entry time n* of [1, inf) x [0, inf).
    """
    _require_bounded(psi)
    label, log_f, n_star, settled = _free_energy_pass(
        u0, v0, psi, tol=tol, window=window, max_iter=max_iter)
    if label is PhaseLabel.SUBCRITICAL:
        return FreeEnergyEstimate(0.0, -_INF, 0.0, 0.0, -_INF, -_INF,
                                  n_star=None, converged=True)
    if n_star is not None:
        log_pinf = math.log(psi.psi_inf)
        log_lower = log_f_one_zero(psi, tol=tol, max_iter=max_iter) - n_star * log_pinf
        log_upper = math.log(max(u0, 1.0)) - (n_star - 1) * log_pinf
    else:
        log_lower, log_upper = -_INF, _INF
    return FreeEnergyEstimate(
        value=math.exp(log_f) if log_f > -_INF else 0.0,
        log_value=log_f,
        lower=math.exp(log_lower) if log_lower > -_INF else 0.0,
        upper=math.exp(log_upper) if log_upper < _INF else _INF,
        log_lower=log_lower,
        log_upper=log_upper,
        n_star=n_star,
        converged=settled and label is PhaseLabel.SUPERCRITICAL,
    )


# ---------------------------------------------------------------------------
# stopping times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppingRecord:
    """First/last hitting indices collected in one forward pass.

    N0      last n with v_n <= 0 (None if v0 > 0 or never resolved)
    u_N0    u at N0 (None with N0)
    n_star  first n with v_n >= 0 and u_n >= 1
    n1_A    first n with v_n > -A sqrt(eps)
    n2_A    first n with v_n > +A sqrt(eps)
    n3_delta first n with v_n > -delta
    n4_delta first n with v_n > +delta
    """

    N0: int | None
    u_N0: float | None
    n_star: int | None
    n1_A: int | None
    n2_A: int | None
    n3_delta: int | None
    n4_delta: int | None
    A: float
    delta: float
    epsilon_used: float

    @property
    def u_N0_over_eps(self) -> float:
        """u_{N0}/eps, tending to the transfer constant c*; nan without N0."""
        return math.nan if self.u_N0 is None else self.u_N0 / self.epsilon_used


def stopping_times(u0: float, v0: float, psi: PsiFunction, A: float,
                   delta: float, epsilon: float, *,
                   max_iter: int = 10 ** 7) -> StoppingRecord:
    if not u0 > 0.0:
        raise ValueError("u0 must be positive")
    if not (A > 0.0 and delta > 0.0):
        raise ValueError("A and delta must be positive")
    a_eps = A * math.sqrt(epsilon)
    first_pos = n_star = n1 = n2 = n3 = n4 = None
    u_last = None  # u at the last n with v_n <= 0 so far (v is nondecreasing)
    states = zip(range(max_iter + 1), _orbit(initial_state(u0, v0), psi))
    for n, (u, v, log_u, _) in states:
        if log_u == -_INF:  # psi vanished: the orbit is dead
            break
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
    N0 = None
    if first_pos is not None:
        N0 = first_pos - 1 if first_pos > 0 else None
    return StoppingRecord(N0=N0, u_N0=u_last if N0 is not None else None,
                          n_star=n_star, n1_A=n1, n2_A=n2,
                          n3_delta=n3, n4_delta=n4, A=A, delta=delta,
                          epsilon_used=epsilon)


# ---------------------------------------------------------------------------
# time reversal
# ---------------------------------------------------------------------------

def backward_orbit(states: Sequence[OrbitState]) -> list[OrbitState]:
    """Time-reversed orbit segment.

    Given forward states s_0..s_{N+1} (length N+2; the reversal of index n
    needs v_{N-n+1}, hence one extra forward state), returns the N+1 states

        (u'_n, v'_n) = (u_{N-n}, -v_{N-n+1}),  0 <= n <= N,

    which satisfy the recursion driven by x -> 1/psi(-x) exactly.
    """
    if len(states) < 2:
        raise ValueError("need a forward segment of at least 2 states")
    N = len(states) - 2
    out = []
    for k in range(N + 1):
        src = states[N - k]
        out.append(OrbitState(k, src.u, -states[N - k + 1].v, src.log_u))
    return out


# ---------------------------------------------------------------------------
# monotone comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominationReport:
    ok: bool
    first_violation: int | None
    steps: int


def compare_orbits(a0: tuple[float, float], b0: tuple[float, float],
                   psi_lo: PsiFunction, psi_hi: PsiFunction, n: int,
                   *, grid_points: int = 256) -> DominationReport:
    """Check componentwise domination of the b-orbit (driver psi_hi) over
    the a-orbit (driver psi_lo) for n steps.

    Preconditions (0 <= u_a <= u_b, v_a <= v_b, psi_lo <= psi_hi on a
    sampled common domain) are enforced and raise ValueError; domination
    failures are reported, not raised.
    """
    (ua, va), (ub, vb) = a0, b0
    if not (0.0 <= ua <= ub and va <= vb):
        raise ValueError("initial pairs are not ordered")
    lo_dom = max(psi_lo.domain_min, psi_hi.domain_min)
    hi_dom = min(psi_lo.domain_max, psi_hi.domain_max, 50.0)
    xs = np.linspace(lo_dom, hi_dom, grid_points)
    ylo = psi_lo(xs)
    yhi = psi_hi(xs)
    bad = ylo > yhi + 1e-12
    if bad.any():
        x_bad = float(xs[int(np.argmax(bad))])
        raise ValueError(
            f"psi_lo > psi_hi on the sampled domain (first at x={x_bad:.6g})")
    # the start pair (k = 0) is ordered, checked above
    states = zip(range(n + 1), _orbit(initial_state(ua, va), psi_lo),
                 _orbit(initial_state(ub, vb), psi_hi))
    for k, (u_a, v_a, _, _), (u_b, v_b, _, _) in states:
        if u_a > u_b or v_a > v_b:
            return DominationReport(ok=False, first_violation=k, steps=k)
    return DominationReport(ok=True, first_violation=None, steps=n)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_orbit_csv(states: Iterable[OrbitState], out: TextIO) -> None:
    """Dump an orbit as CSV with 17 significant digits (round-trip safe)."""
    out.write("n,u,v,log_u\n")
    for s in states:
        out.write(f"{s.n},{s.u:.17g},{s.v:.17g},{s.log_u:.17g}\n")
