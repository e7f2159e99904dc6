"""The two exactly solvable model families.

Linear-fractional laws LF(alpha, beta) on the nonnegative integers
(mass 1 - 1/(alpha+beta) at zero, geometric tail with ratio
beta/(alpha+beta), mean 1/alpha) and their continuous analogue
CLF(lambda, rho) (mass 1 - rho at zero, exponential tail rho e^{-lambda x},
mean rho/lambda).  Both families are closed under the two elementary
operations of the recursion:

  * summing a geometric(p) number of i.i.d. copies,
  * subtracting an independent Z and taking the positive part,

so one step of the distributional recursion is a closed-form map on the
two parameters.  Reparametrized through the model constants (xi, or tau)
these parameter orbits are exactly orbits of the two-parameter recursion
under the model's driver; that commuting square is the main cross-module
consistency oracle of the test suite.

One ``Model`` type serves both families: a model's family is its Z law's,
and a law's is its parameter type, on which ``model_step``,
``model_to_uv``, ``law_stats`` and ``model_free_energy`` dispatch here.
``cli._FAMILIES`` (each family's flags) and ``montecarlo._LEVEL0`` (each
family's level-0 pool, float64 in both) key on the family too.

``lf_step`` is deliberately the composition of the two elementary facts;
the equivalent single-formula update is kept in the tests as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .curve import CriticalCurve, h_eval
from .drivers import (ModelConstants, PsiFunction, ZSpecContinuous,
                      ZSpecDiscrete, make_clf_psi, make_lf_psi)
from .recursion import (FreeEnergyEstimate, PhaseLabel, classify_many,
                        free_energy)

__all__ = [
    "LFParams",
    "CLFParams",
    "Model",
    "make_lf_model",
    "make_clf_model",
    "lf_geometric_sum",
    "lf_subtract",
    "lf_step",
    "lf_to_uv",
    "clf_geometric_sum",
    "clf_subtract",
    "clf_step",
    "clf_to_uv",
    "model_step",
    "model_to_uv",
    "lf_tail",
    "clf_tail",
    "law_stats",
    "model_free_energy",
    "ThresholdReport",
    "gamma_star",
    "rho_star",
]


@dataclass(frozen=True)
class LFParams:
    """Parameters of a linear-fractional law; alpha + beta >= 1 is the
    admissibility constraint and every step map preserves it."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"LF parameters must be positive, got {self}")
        if self.alpha + self.beta < 1.0 - 1e-12:
            raise ValueError(f"LF needs alpha + beta >= 1, got {self}")


@dataclass(frozen=True)
class CLFParams:
    """Parameters of a continuous linear-fractional law (rate, mass of the
    exponential part)."""

    lam: float
    rho: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"CLF rate must be positive, got {self}")
        if not (-1e-12 <= self.rho <= 1.0 + 1e-12):
            raise ValueError(f"CLF rho must lie in [0, 1], got {self}")


@dataclass(frozen=True)
class Model:
    """A solvable model: geometric(p) sums and the law of Z, with the
    driver and constants they give.  Z's law is the family: LF (laws on the
    integers, ``constants.root`` = xi) for a ZSpecDiscrete, CLF (tau) for a
    ZSpecContinuous."""

    p: float
    zspec: ZSpecDiscrete | ZSpecContinuous
    constants: ModelConstants
    psi: PsiFunction


def make_lf_model(p: float, zspec: ZSpecDiscrete) -> Model:
    psi, constants = make_lf_psi(p, zspec)
    return Model(p=p, zspec=zspec, constants=constants, psi=psi)


def make_clf_model(p: float, zspec: ZSpecContinuous) -> Model:
    psi, constants = make_clf_psi(p, zspec)
    return Model(p=p, zspec=zspec, constants=constants, psi=psi)


# ---------------------------------------------------------------------------
# one-step closed-form maps
# ---------------------------------------------------------------------------

def lf_geometric_sum(params: LFParams, p: float) -> LFParams:
    """Law of a geometric(p) sum of i.i.d. LF(alpha, beta) variables."""
    return LFParams(p * params.alpha, 1.0 - p + p * params.beta)


def lf_subtract(params: LFParams, z: ZSpecDiscrete) -> LFParams:
    """Law of (Y - Z)_+: both parameters divided by pgf_Z(beta/(alpha+beta))."""
    lam = params.beta / (params.alpha + params.beta)
    d = z.pgf(lam)
    return LFParams(params.alpha / d, params.beta / d)


def lf_step(params: LFParams, model: Model) -> LFParams:
    """One step of the distributional recursion: geometric sum, then
    subtraction of Z with positive part."""
    return lf_subtract(lf_geometric_sum(params, model.p), model.zspec)


def lf_to_uv(params: LFParams, model: Model) -> tuple[float, float]:
    """Coordinates of the LF parameter pair on the two-parameter recursion:
    u = slope (1-p) / (p alpha), v = slope (beta/alpha - xi)."""
    c = model.constants
    u = c.slope * (1.0 - model.p) / (model.p * params.alpha)
    v = c.slope * (params.beta / params.alpha - c.root)
    return u, v


def clf_geometric_sum(params: CLFParams, p: float) -> CLFParams:
    d = p + (1.0 - p) * params.rho
    return CLFParams(params.lam * p / d, params.rho / d)


def clf_subtract(params: CLFParams, z: ZSpecContinuous) -> CLFParams:
    """Law of (X - Z)_+: the rate survives, the mass picks up the Laplace
    transform of Z at that rate."""
    return CLFParams(params.lam, params.rho * z.laplace(params.lam))


def clf_step(params: CLFParams, model: Model) -> CLFParams:
    return clf_subtract(clf_geometric_sum(params, model.p), model.zspec)


def clf_to_uv(params: CLFParams, model: Model) -> tuple[float, float]:
    """u = slope ((1-p)/p) (rho/lambda), v = slope (1/lambda - tau);
    the commuting square with the recursion requires v > -tau slope."""
    c = model.constants
    u = c.slope * (1.0 - model.p) / model.p * (params.rho / params.lam)
    v = c.slope * (1.0 / params.lam - c.root)
    return u, v


def model_step(params: LFParams | CLFParams, model: Model):
    """lf_step or clf_step, by the family of ``params``."""
    step = lf_step if isinstance(params, LFParams) else clf_step
    return step(params, model)


def model_to_uv(params: LFParams | CLFParams, model: Model):
    """lf_to_uv or clf_to_uv, by the family of ``params``."""
    to_uv = lf_to_uv if isinstance(params, LFParams) else clf_to_uv
    return to_uv(params, model)


# ---------------------------------------------------------------------------
# distribution helpers (shared with the Monte Carlo validation)
# ---------------------------------------------------------------------------

def lf_tail(params: LFParams, k: int) -> float:
    """P(Y >= k) for k >= 1: geometric with ratio beta/(alpha+beta)."""
    s = params.alpha + params.beta
    return (params.beta / s) ** (k - 1) / s


def clf_tail(params: CLFParams, x: float) -> float:
    """P(X > x) for x > 0."""
    return params.rho * math.exp(-params.lam * x)


def law_stats(params: LFParams | CLFParams):
    """What a pool of the law ``params`` is checked on: (P(X > 0), the five
    tails as (name, t, P(X > t)), and the mean).  On LF's integers
    P(X >= k) = P(X > k - 1), so its tail_ge_k row has t = k - 1."""
    if isinstance(params, LFParams):
        return (1.0 / (params.alpha + params.beta),
                [(f"tail_ge_{k}", k - 1, lf_tail(params, k))
                 for k in range(1, 6)],
                1.0 / params.alpha)
    ts = [k / params.lam for k in (0.5, 1.0, 1.5, 2.0, 3.0)]
    return (params.rho, [(f"tail_gt_{t:g}", t, clf_tail(params, t))
                         for t in ts], params.rho / params.lam)


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

def model_free_energy(model: Model,
                      params: LFParams | CLFParams) -> FreeEnergyEstimate:
    """Free energy of the law ``params``, lim p^n / alpha_n (LF) or
    lim p^n rho_n / lambda_n (CLF): computed on the recursion side and
    rescaled by p / ((1-p) slope)."""
    fe = free_energy(*model_to_uv(params, model), model.psi)
    scale = model.p / ((1.0 - model.p) * model.constants.slope)
    log_scale = math.log(scale)

    def lg(x: float) -> float:
        return x + log_scale if math.isfinite(x) else x

    return replace(fe, value=fe.value * scale, log_value=lg(fe.log_value),
                   lower=fe.lower * scale, upper=fe.upper * scale,
                   log_lower=lg(fe.log_lower), log_upper=lg(fe.log_upper))


# ---------------------------------------------------------------------------
# critical thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Critical scaling threshold along a one-parameter family.

    ``value`` is None exactly when the admissibility condition fails, in
    which case the free energy vanishes on the whole family; that regime
    is a legitimate outcome, not an error.
    """

    value: float | None
    hyp_ok: bool
    v_seed: float
    h_at_seed: float
    message: str
    straddle_upper: PhaseLabel | None = None
    straddle_lower: PhaseLabel | None = None

    @property
    def straddle_ok(self) -> bool:
        return (self.straddle_upper is PhaseLabel.SUPERCRITICAL
                and self.straddle_lower is PhaseLabel.SUBCRITICAL)


def _threshold(model: Model, a: float, cap: float, v_seed: float,
               curve: CriticalCurve) -> ThresholdReport:
    """The threshold p a h(v_seed) / (slope (1-p)) of a family whose start
    at scale s is (s u_unit, v_seed), u_unit = slope (1-p) / (p a), and
    whose scales run up to ``cap``.  It exists when h(v_seed) < u_unit cap,
    the admissibility bound; otherwise the family's free energy is
    identically zero.  A positive value is checked by classifying the
    starts 1.1 and 1/1.1 times as far up, both in one call, each with a
    budget of 10^6 steps."""
    c = model.constants
    p = model.p
    h_seed = h_eval(curve, v_seed)
    u_unit = c.slope * (1.0 - p) / (p * a)
    if not h_seed < u_unit * cap:
        return ThresholdReport(
            value=None, hyp_ok=False, v_seed=v_seed, h_at_seed=h_seed,
            message="admissibility bound fails: free energy identically 0 "
                    "on the family")
    value = p * a * h_seed / (c.slope * (1.0 - p))
    up = low = None
    if value > 0.0:
        (up, _), (low, _) = classify_many(
            [u_unit * 1.1 * value, u_unit * value / 1.1], v_seed, model.psi,
            max_iter=10 ** 6)
    return ThresholdReport(value=value, hyp_ok=True, v_seed=v_seed,
                           h_at_seed=h_seed, message="ok",
                           straddle_upper=up, straddle_lower=low)


def gamma_star(model: Model, alpha: float, beta: float,
               curve: CriticalCurve) -> ThresholdReport:
    """Critical scale gamma* of the family LF(alpha/gamma, beta/gamma).

    gamma* = p alpha h(v_seed) / (slope (1-p)) with
    v_seed = slope (beta/alpha - xi), valid when beta/alpha <= xi and the
    admissibility bound h(v_seed) < slope (1-p)(alpha+beta)/(p alpha)
    holds; otherwise the family's free energy is identically zero.
    Classification checks that 1.1 gamma* and gamma*/1.1 straddle the
    phase boundary.
    """
    c = model.constants
    LFParams(alpha, beta)  # positive, and alpha + beta >= 1
    if beta / alpha > c.root * (1.0 + 1e-12):
        raise ValueError("need beta/alpha <= xi (v_seed <= 0)")
    return _threshold(model, alpha, alpha + beta,
                      c.slope * (beta / alpha - c.root), curve)


def rho_star(model: Model, lam: float,
             curve: CriticalCurve) -> ThresholdReport:
    """Critical mass rho* of the family CLF(lambda, rho) at fixed rate
    lambda >= 1/tau:  rho* = lambda p h(v_seed) / (slope (1-p)) with
    v_seed = slope (1/lambda - tau), valid when rho* < 1."""
    c = model.constants
    if not lam > 0.0:
        raise ValueError(f"lambda={lam!r} must be a positive number")
    if lam < 1.0 / c.root * (1.0 - 1e-12):
        raise ValueError("need lambda >= 1/tau (v_seed <= 0)")
    return _threshold(model, lam, 1.0, c.slope * (1.0 / lam - c.root), curve)
