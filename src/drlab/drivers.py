"""Driver functions for the two-parameter recursion.

A *driver* is a nonnegative, nondecreasing function ``psi`` normalized so
that ``psi(0) = psi'(0) = 1``.  It fully parameterizes the recursion

    u_{n+1} = u_n * psi(v_{n+1}),    v_{n+1} = u_n + v_n,

and therefore every quantity computed in this package: phase labels, the
critical curve, free energies and the scaling experiments.

Built-in drivers
----------------
``affine``        psi(x) = 1 + x.  Unbounded; only valid for computations
                  that never need psi(inf) (the simplified blow-up system).
``fig1``          psi(x) = (1 + x + sqrt(1 + 2x)) / 2 on [-1/2, inf).  Its
                  critical curve is exactly x^2/2, which makes it the
                  reference fixture for curve solvers.  Evaluated in this
                  cancellation-free form; the textbook form
                  x^2 / (2(1 + x - sqrt(1+2x))) is identical away from the
                  removable singularity at 0.
``fig1-clamped``  fig1 frozen at its value for x >= 1/2.  Bounded but only
                  C^0 at the clamp point; for experiments that require a
                  finite limit at infinity.
``lf``, ``clf``   the two solvable models, built by one construction: with
                  ``base`` increasing from 0 to 1/p and r the root of
                  ``base(r) = 1``, ``psi(x) = base(x/base'(r) + r)``.  For
                  ``lf`` ``base(y) = pgf_Z(y/(y+1)) / p``; for ``clf``
                  ``base(th) = E exp(-Z/th) / p``, the Laplace transform's
                  continuous analogue.

Every driver is one scalar function (plain ``math``) and its derivative.
The function of each built-in driver also carries a ``native``
description, from which ``_classify.c`` evaluates the same function for
the C classifier and stopping-time loops and for arrays (``psi()``); the
derivative, and every other driver, is mapped over an array.  The C
``psi()`` evaluates lf and clf through one branch as well and is the
oracle of this construction, bit for bit: its lf atom of value 1
contributes s where Python computes pow(s, 1.0), which libm rounds to s
exactly.
Driver objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericError

__all__ = [
    "PsiFunction",
    "ZSpecDiscrete",
    "ZSpecContinuous",
    "ModelConstants",
    "make_affine_psi",
    "make_fig1_psi",
    "make_fig1_clamped_psi",
    "make_lf_psi",
    "make_clf_psi",
    "driver_from_spec",
    "parse_atoms",
]


# ---------------------------------------------------------------------------
# driver object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiFunction:
    """An evaluable driver with derivative, limit at +inf and domain bounds.

    ``fn``/``deriv_fn`` take and return python floats.  A number, python
    or numpy, gives a python float.  Called on an array,
    the driver evaluates ``fn`` (``deriv`` evaluates ``deriv_fn``) at each
    point: in ``_classify.c`` when the function carries a ``native``
    description and the library loaded, else by mapping it.  The domain
    is the closed interval [domain_min, domain_max]; evaluation outside
    raises :class:`DomainError`.  ``psi_inf`` is the limit at +inf
    (``math.inf`` for unbounded drivers) and is returned for ``x = +inf``;
    the driver is ``bounded`` exactly when that limit is finite.
    """

    name: str
    fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]
    psi_inf: float
    domain_min: float = -math.inf
    domain_max: float = math.inf

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.psi_inf)

    def __call__(self, x):
        return self._eval(x, self.fn, self.psi_inf)

    def deriv(self, x):
        return self._eval(x, self.deriv_fn, 0.0 if self.bounded else None)

    def _eval(self, x, f, inf_value):
        """f at x, a number or an array, after the domain checks; +inf
        gives inf_value, or f's own value when inf_value is None."""
        if type(x) is float or isinstance(
                x, (float, int, np.integer, np.floating)):
            x = float(x)
            if x != x or x < self.domain_min or x > self.domain_max:
                raise DomainError(
                    f"{self.name}: x={x!r} outside domain "
                    f"[{self.domain_min}, {self.domain_max}]")
            if x == math.inf and inf_value is not None:
                return inf_value
            return f(x)
        arr = np.asarray(x, dtype=float)
        if arr.size:
            if np.isnan(arr).any():
                raise DomainError(f"{self.name}: nan input")
            lo = float(np.min(arr))
            hi = float(np.max(arr))
            if lo < self.domain_min or hi > self.domain_max:
                raise DomainError(
                    f"{self.name}: input range [{lo}, {hi}] outside domain "
                    f"[{self.domain_min}, {self.domain_max}]")
        at_inf = np.isposinf(arr)
        given = inf_value is not None and at_inf.any()
        if given:  # f need not be defined at +inf: its limit is given
            arr = np.where(at_inf, 0.0, arr)
        from .recursion import _native_lib  # recursion imports this module
        native = hasattr(f, "native") and _native_lib()
        if native:
            out = native.psi(f.native, arr)
        else:
            out = np.fromiter(map(f, arr.ravel().tolist()), float,
                              arr.size).reshape(arr.shape)
        if given:
            out[at_inf] = inf_value
        return out


# ---------------------------------------------------------------------------
# subtraction-term specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _AtomLaw:
    """Finite-support law of the subtraction term Z: ``atoms`` holds
    (value, probability) pairs, checked and stored as floats."""

    atoms: tuple
    integer = False  # whether the values must be positive integers

    def __post_init__(self):
        out = []
        total = 0.0
        seen = set()
        for value, prob in self.atoms:
            v = float(value)
            p = float(prob)
            if self.integer:
                if not math.isfinite(v) or v != int(v) or v < 1:
                    raise ConfigError(f"atom value {value!r} is not a positive integer")
                v = float(int(v))
            elif not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"atom value {value!r} is not a positive real")
            if v in seen:
                raise ConfigError(f"duplicate atom value {value!r}")
            seen.add(v)
            if not (0.0 < p <= 1.0):
                raise ConfigError(f"atom probability {prob!r} not in (0, 1]")
            out.append((v, p))
            total += p
        if not out:
            raise ConfigError("atom list is empty")
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"atom probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", tuple(out))

    def values_probs(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        return vals, probs


class ZSpecDiscrete(_AtomLaw):
    """Finite-support law of the subtraction term Z on {1, 2, ...}.

    Keeping the support finite makes the probability generating function
    and its derivative exact finite sums.
    """

    integer = True

    def pgf(self, s):
        """E[s^Z]; accepts floats or arrays."""
        acc = 0.0
        for v, p in self.atoms:
            acc += p * s ** v
        return acc

    def pgf_prime(self, s):
        acc = 0.0
        for v, p in self.atoms:
            acc += p * v * s ** (v - 1.0)
        return acc


class ZSpecContinuous(_AtomLaw):
    """Finite-support law of the subtraction term Z on (0, inf)."""

    def laplace(self, mu: float) -> float:
        """E[exp(-mu Z)]."""
        return sum(p * math.exp(-mu * v) for v, p in self.atoms)


@dataclass(frozen=True)
class ModelConstants:
    """Normalizing constants of a solvable model.

    ``root`` is the root of base = 1 (xi for the linear-fractional model,
    tau for the continuous variant); ``slope`` is the derivative of base
    at that root.  The driver's domain starts at ``-root * slope``.
    """

    p: float
    root: float
    slope: float


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _bisect_root(f: Callable[[float], float]) -> float:
    """Root of an increasing function with f(root) = 0.

    Brackets from [1e-8, 1] by doubling the upper end (monotonicity
    guarantees a bracket exists), then bisects, at most 200 times, to an
    absolute tolerance of 1e-13.
    """
    lo, hi, tol, max_iter = 1e-8, 1.0, 1e-13, 200
    flo = f(lo)
    if flo > 0.0:
        raise NumericError("no sign change: f(lo) > 0 for increasing f")
    for _ in range(1024):
        if f(hi) > 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericError("bracketing failed: f stays nonpositive")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    raise NumericError(f"bisection did not reach tol={tol} in {max_iter} iterations")


# ---------------------------------------------------------------------------
# built-in drivers
# ---------------------------------------------------------------------------

_KINDS = ("affine", "fig1", "fig1-clamped", "lf", "clf")


def _described(kind: str, fn: Callable[[float], float],
               deriv_fn: Callable[[float], float], *, inv_p=math.nan,
               inv_slope=math.nan, root=math.nan, cap=math.nan, atoms=()
               ) -> dict:
    """fn and deriv_fn, as PsiFunction's keywords, with fn's description
    for ``_classify.c`` attached: the kind's index in _KINDS, the
    parameters (inv_p, inv_slope, root, cap, the atom values, the atom
    probabilities) and the number of atoms."""
    params = (inv_p, inv_slope, root, cap, *(v for v, _ in atoms),
              *(pr for _, pr in atoms))
    fn.native = (_KINDS.index(kind), params, len(atoms))
    return {"fn": fn, "deriv_fn": deriv_fn}


def make_affine_psi() -> PsiFunction:
    """psi(x) = 1 + x on [-1, inf).

    Unbounded, so unusable wherever psi(inf) enters (free energies); it is
    the exact driver of the simplified blow-up system.
    """
    return PsiFunction(
        name="affine",
        **_described("affine", lambda x: 1.0 + x, lambda x: 1.0),
        psi_inf=math.inf,
        domain_min=-1.0,
    )


def _fig1_fn(x: float) -> float:
    return 0.5 * (1.0 + x + math.sqrt(1.0 + 2.0 * x))


def _fig1_deriv(x: float) -> float:
    r = math.sqrt(1.0 + 2.0 * x)
    if r == 0.0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / r)


def make_fig1_psi() -> PsiFunction:
    """The reference driver whose critical curve is exactly x^2/2.

    The closed form (1 + x + sqrt(1 + 2x))/2 removes the 0/0 singularity of
    the quotient form at x = 0 and is immune to cancellation near it.
    Defined on [-1/2, inf) and left unbounded; experiments that need a
    finite psi(inf) use :func:`make_fig1_clamped_psi`.
    """
    return PsiFunction(
        name="fig1",
        **_described("fig1", _fig1_fn, _fig1_deriv),
        psi_inf=math.inf,
        domain_min=-0.5,
    )


def make_fig1_clamped_psi() -> PsiFunction:
    """fig1 frozen at its x = 1/2 value for all x >= 1/2.

    Bounded (the tail is exactly constant) but only C^0 at the clamp point;
    the derivative jumps to 0 there.
    """
    cap = _fig1_fn(0.5)
    return PsiFunction(
        name="fig1-clamped",
        **_described("fig1-clamped",
                     lambda x: _fig1_fn(x) if x < 0.5 else cap,
                     lambda x: _fig1_deriv(x) if x < 0.5 else 0.0, cap=cap),
        psi_inf=cap,
        domain_min=-0.5,
    )


def _model_psi(kind: str, p: float, atoms: tuple, label: str,
               base: Callable[[float], float],
               base_prime: Callable[[float], float],
               ) -> tuple[PsiFunction, ModelConstants]:
    """The driver psi(x) = base(x/base'(r) + r) of a solvable model.

    ``base`` increases from 0 to 1/p on (0, inf), so the root r of
    base(r) = 1 exists and is unique; it is found by doubling + bisection.
    The driver is 0 where its argument y = x/base'(r) + r is <= 0 and 1/p
    at y = inf, so psi(inf) = 1/p and the domain starts at -base'(r) r.
    """
    if not (0.0 < p < 1.0):
        raise ConfigError(f"p={p!r} not in (0, 1)")
    inv_p = 1.0 / p
    root = _bisect_root(lambda y: base(y) - 1.0)
    slope = base_prime(root)
    if not slope > 0.0:
        raise NumericError("derivative at the normalizing root is not positive")
    inv_slope = 1.0 / slope

    def fn(x: float) -> float:
        y = x * inv_slope + root
        if y <= 0.0:
            return 0.0
        if y == math.inf:
            return inv_p
        return base(y)

    def deriv_fn(x: float) -> float:
        y = x * inv_slope + root
        if y == math.inf:
            return 0.0
        return base_prime(y) * inv_slope

    psi = PsiFunction(
        name=f"{kind}(p={p:g},z={label})",
        **_described(kind, fn, deriv_fn, inv_p=inv_p, inv_slope=inv_slope,
                     root=root, atoms=atoms),
        psi_inf=inv_p,
        domain_min=-slope * root,
    )
    return psi, ModelConstants(p=p, root=root, slope=slope)


def make_lf_psi(p: float, z: ZSpecDiscrete) -> tuple[PsiFunction, ModelConstants]:
    """Driver of the linear-fractional solvable model, with
    base(y) = pgf_Z(y/(y+1)) / p; xi is its normalizing root."""
    if not isinstance(z, ZSpecDiscrete):
        raise ConfigError("lf driver needs a ZSpecDiscrete")

    def base(y: float) -> float:
        return z.pgf(y / (y + 1.0)) * (1.0 / p)

    def base_prime(y: float) -> float:
        if y < 0.0:
            y = 0.0
        t = y + 1.0
        try:
            return z.pgf_prime(y / t) / (p * t ** 2)
        except OverflowError:  # t ** 2 beyond the float range
            return z.pgf_prime(y / t) / (p * t) / t

    label = ",".join(f"{int(v)}@{pr:g}" for v, pr in z.atoms)
    return _model_psi("lf", p, z.atoms, label, base, base_prime)


def make_clf_psi(p: float, z: ZSpecContinuous) -> tuple[PsiFunction, ModelConstants]:
    """Driver of the continuous linear-fractional solvable model, with
    base(th) = E[exp(-Z/th)] / p; tau is its normalizing root."""
    if not isinstance(z, ZSpecContinuous):
        raise ConfigError("clf driver needs a ZSpecContinuous")
    atoms = z.atoms

    def base(th: float) -> float:
        acc = 0.0
        for v, pr in atoms:
            acc += pr * math.exp(-v / th)
        return acc * (1.0 / p)

    def base_prime(th: float) -> float:
        if th <= 0.0:
            return 0.0
        acc = 0.0
        for v, pr in atoms:
            acc += pr * (v / (th * th)) * math.exp(-v / th)
        return acc * (1.0 / p)

    label = ",".join(f"{v:g}@{pr:g}" for v, pr in atoms)
    return _model_psi("clf", p, atoms, label, base, base_prime)


# ---------------------------------------------------------------------------
# driver specifications (config files / CLI)
# ---------------------------------------------------------------------------

def parse_atoms(text: str) -> list[tuple[float, float]]:
    """Atoms ``value@prob`` joined by ``+``; a bare value has probability 1."""
    pieces = [piece.partition("@") for piece in text.split("+")]
    return [(float(v), float(pr) if sep else 1.0) for v, sep, pr in pieces]


def driver_from_spec(spec: str):
    """Build a driver from an inline spec.

    Grammar: ``kind[:key=value,...]`` with keys ``p`` and ``z``; atoms are
    ``value@prob`` joined by ``+``, and a bare ``z=V`` means Z == V.
    Examples: ``fig1``, ``lf:p=0.5,z=1``, ``clf:p=0.4,z=0.5@0.3+2@0.7``.
    The options are read before the kind is checked.  Returns
    ``(psi, constants)`` where ``constants`` is None for drivers that are
    not model-derived.  The fixed drivers (affine, fig1, fig1-clamped)
    take no options: one given to them is an error, not ignored.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    options: dict = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"malformed driver option {item!r}")
        key = key.strip()
        if key not in ("p", "z"):
            raise ConfigError(f"unknown driver option {key!r}")
        if key in options:
            raise ConfigError(f"driver option {key!r} given twice")
        options[key] = float(value) if key == "p" else parse_atoms(value)
    if kind not in _KINDS:
        raise ConfigError(f"unknown driver kind {kind!r}; expected one of {_KINDS}")
    fixed = {"affine": make_affine_psi, "fig1": make_fig1_psi,
             "fig1-clamped": make_fig1_clamped_psi}.get(kind)
    if fixed is not None:
        if options:
            raise ConfigError(f"driver kind {kind!r} takes no options")
        return fixed(), None
    if len(options) < 2:
        raise ConfigError(f"driver kind {kind!r} requires p and z atoms")
    if kind == "lf":
        return make_lf_psi(options["p"], ZSpecDiscrete(tuple(options["z"])))
    return make_clf_psi(options["p"], ZSpecContinuous(tuple(options["z"])))
