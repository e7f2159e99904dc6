"""The two-parameter recursion: orbits, phases and free energy.

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

The classifier and the stopping-time pass of the built-in drivers run in C
instead (``_classify.c``, compiled on first use with ``gcc -O2 -fPIC -shared
-ffp-contract=off`` and ``-lm``, cached in this package's ``__pycache__``
and loaded with ctypes).  The library is required: when it cannot be built,
the first call that needs it raises OSError with the compiler command and
the first line of the compiler's error, and a ``drlab`` command exits 2
with that message.  Both loops share one C step that keeps the
kernel's order of operations, so their results are bit-identical; fast-math
is barred because fused multiply-adds change the last bits.  The step adds
log(w) to log u only where log u is read: in the stopping pass, and in the
classifier only when a caller of :func:`classify_detail` asks for its final
log u, as ``drlab classify`` does (no verdict reads it).  The classifier's
one C loop, ``drlab_classify``, is a lockstep entry point: it steps several
starts of one driver side by side and drops each once it is decided, so
that the latency-bound steps of two orbits overlap.  :func:`classify_many`
hands it a list of starts; :func:`classify_detail` is its one-start call,
and no start's verdict depends on the others.  A driver without a native
description, such as one whose fn counts its calls, is classified by
:func:`_classify_orbit`, the C classifier's oracle; the stopping pass
refuses it.  The same library evaluates the built-in drivers on arrays
(see ``drivers``), marches the critical curve (see ``curve._march``),
formats the rows of every float table (the curve, orbit and model-orbit
CSVs, see :func:`write_table`) and holds the Monte Carlo's resampling,
counting and moments passes (see ``montecarlo``).  The Python oracles of
these and of the stopping pass are in ``tests/oracles.py``, which bundles
them as one :class:`_Native` that a test installs at ``recursion._native``.

Every orbit obeys a dichotomy: either v -> +inf and (1/n) log u_n tends to
log psi(inf), or v converges to a nonpositive limit and u -> 0.  Phase
classification detects the first case the moment v goes positive (v > 0 is
a certificate of escape) and proves the second with a certificate of
collapse.  Take a state with v_n < 0, a point w in (v_n, 0) and
q = psi(w) <= 1, and suppose u_n <= (w - v_n)(1 - q).  If v_j <= w for
n <= j <= k, every factor psi(v_j) with n < j <= k is at most q, because
drivers are nondecreasing, so u_j <= u_n q^(j-n) and

    v_{k+1} = v_n + u_n + ... + u_k <= v_n + u_n / (1 - q) <= w.

By induction v_k <= w for every k >= n: u decays at least geometrically and
v converges to a limit at most w < 0, so the orbit is subcritical.  The
kernels test u_n <= (w - v_n)(1 - q) / 4, and the factor 1/4 covers the
rounding of the computed orbit with two factors of 2.  First, the float sum
v + u moves v only when u is at least half the gap above v, and then errs
by at most that half gap, so each step raises v by at most 2u.  Second, the
computed factors exceed q by the driver's last-bit error and the rounding
of the product, a relative r - q of a few units of 2^-53, so the computed
u_j <= u_n r^(j-n) with 1 - r >= (1 - q) / 2 once 1 - q is several such
units, which holds for |w| above about 1e-15 (psi'(0) = 1).  Then
v_k <= v_n + 2 u_n / (1 - r) <= v_n + 4 u_n / (1 - q) <= w.  (Nearer the
origin the margin is not proved; there the test admits only u below
about v^2 / 16 < 1e-30.)  The classifier and the free energy take
w = v_n / 2; the stopping pass takes the least of v_n / 2 and its open
negative levels, so that none of them can be hit.  The bound costs a
driver call, so it is tested at every 1024th state only, never at the
start (a start whose first step leaves the domain raises first); an exact
zero of u with v < 0 is subcritical at once.  Orbits hugging the critical
curve legitimately exhaust the iteration budget: Undetermined is a value,
not an error, because criticality is not numerically decidable.  The free
energy takes its phase from the classifier, then walks its orbit until
log u_n - n log psi(inf) settles.
"""

from __future__ import annotations

import ctypes
import enum
import math
import os
import zlib
from dataclasses import dataclass
from typing import (Callable, Iterable, Iterator, NamedTuple, Sequence,
                    TextIO)

import numpy as np

from .drivers import PsiFunction

__all__ = [
    "OrbitState",
    "PhaseLabel",
    "StoppingRecord",
    "FreeEnergyEstimate",
    "initial_state",
    "orbit",
    "classify_detail",
    "classify_many",
    "free_energy",
    "log_f_one_zero",
    "stopping_times",
    "write_orbit_csv",
]

_INF = math.inf
V_STOP = 1e12  # v beyond this, bounded drivers take psi(inf) for psi(v)
_CHECK_EVERY = 1024  # states between two tests of the certificate


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


def _check_steps(name: str, n: int) -> None:
    """A step budget or count is an int in [0, 2^63), the C loops' int64;
    anything else is malformed."""
    if not isinstance(n, int) or n >= 2 ** 63:
        raise ValueError(f"{name} must be an int below 2**63, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n!r}")


def orbit(u0: float, v0: float, psi: PsiFunction, n: int) -> list[OrbitState]:
    """States 0..n inclusive."""
    _check_steps("n", n)
    return [OrbitState(k, u, v, log_u) for k, (u, v, log_u, _)
            in zip(range(n + 1), _orbit(initial_state(u0, v0), psi))]


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------

_CC = "gcc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_HERE = os.path.dirname(os.path.abspath(__file__))
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
_native = None  # the loaded _Native, once loaded
_CHUNK = 1 << 16  # bytes of CSV rows formatted per call


class _Native(NamedTuple):
    """The entry points of ``_classify.c``, wrapped to take drivers and
    arrays: the two orbit loops, the driver on arrays, the curve march, the
    CSV rows and the Monte Carlo's resampling, counting and moments
    passes.  Tests install their Python oracles as one of these at
    ``recursion._native``."""

    classify: Callable
    stopping: Callable
    psi: Callable
    march: Callable
    write_rows: Callable
    resample: Callable
    counts: Callable
    moments: Callable


def _build(source: str, lib: str) -> None:
    """Compile source into lib; OSError with the compiler command and the
    first line it wrote on stderr, or "no such compiler"."""
    # os.posix_spawnp, not subprocess, whose import costs 0.4 MB of RSS
    tmp = f"{lib}.{os.getpid()}.tmp"
    err = f"{tmp}.err"
    argv = [_CC, *_CFLAGS, "-o", tmp, source, "-lm"]
    failed = f"cannot build the C library: {' '.join(argv)}"
    os.makedirs(_CACHE_DIR, exist_ok=True)
    try:
        try:
            pid = os.posix_spawnp(_CC, argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_OPEN, 2, err,
                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)])
        except FileNotFoundError:
            raise OSError(f"{failed}: no such compiler") from None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            with open(err, errors="replace") as fh:
                first = fh.readline().strip()
            raise OSError(f"{failed}: {first or f'exit status {status}'}")
        os.replace(tmp, lib)
    finally:
        for path in (tmp, err):
            if os.path.exists(path):
                os.remove(path)


def _load_native() -> _Native:
    """The entry points of ``_classify.c``, built on first use into the
    cache directory under a name keyed by the source and the flags;
    OSError when the build fails or the library does not load."""
    source = os.path.join(_HERE, "_classify.c")
    with open(source, "rb") as fh:
        key = zlib.crc32(fh.read() + " ".join((_CC, *_CFLAGS)).encode())
    lib = os.path.join(_CACHE_DIR, f"_classify-{key:08x}.so")
    if not os.path.exists(lib):
        _build(source, lib)
    dll = ctypes.CDLL(lib)
    classify_fn, stopping_fn = dll.drlab_classify, dll.drlab_stopping
    psi_fn, march_fn, rows_fn = dll.drlab_psi, dll.drlab_march, dll.drlab_rows
    resample_fn, counts_fn, moments_fn = (dll.drlab_resample, dll.drlab_counts,
                                          dll.drlab_moments)
    c_double, c_int64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    # the driver, max_iter and the state, then each loop's own arguments
    head = (ctypes.c_int, ctypes.POINTER(c_double), ctypes.c_int, c_double,
            c_double, c_double, c_double, c_int64, ctypes.POINTER(c_double))
    classify_fn.restype = None
    classify_fn.argtypes = (*head, ctypes.POINTER(c_int64), ctypes.c_int,
                            c_int64, ctypes.POINTER(ctypes.c_int))
    stopping_fn.restype = ctypes.c_int
    stopping_fn.argtypes = (*head, c_double, c_double,
                            ctypes.POINTER(c_int64))
    psi_fn.restype = None
    psi_fn.argtypes = (ctypes.c_int, ctypes.POINTER(c_double), ctypes.c_int,
                       ptr, ptr, c_int64)  # xs, out, n
    march_fn.restype = ctypes.c_int
    march_fn.argtypes = (ctypes.c_int, ctypes.POINTER(c_double), ctypes.c_int,
                         ptr, c_int64, ptr, ctypes.POINTER(c_int64),
                         ctypes.POINTER(c_double))  # ..., xs, m, g, node, bad
    rows_fn.restype = c_int64
    rows_fn.argtypes = (ptr, ctypes.c_int, c_int64, ctypes.POINTER(c_int64),
                        ptr, c_int64)  # cols, n_cols, n_rows, row, buf, cap
    resample_fn.restype = ctypes.c_int
    resample_fn.argtypes = (ptr, c_int64, ptr, c_int64, ptr, ptr, c_int64,
                            ptr)  # prev, n_prev, idx, m, r, z, n, out
    counts_fn.restype = None
    counts_fn.argtypes = (ptr, c_int64, ptr, c_int64, ptr)  # x, n, t, nt, out
    moments_fn.restype = None
    moments_fn.argtypes = (ptr, c_int64, ptr)  # x, n, out

    def described(native):
        kind, params, n_atoms = native
        return kind, (c_double * len(params))(*params), n_atoms

    def driver(psi):
        """psi's description for the C loops; TypeError naming a driver
        whose fn has none."""
        description = getattr(psi.fn, "native", None)
        if description is None:
            raise TypeError(f"driver {psi.name!r} has no native description")
        return described(description)

    def call(fn, psi, starts, max_iter, *args):
        state = (c_double * (3 * len(starts)))(
            *(x for s in starts for x in (s.u, s.v, s.log_u)))
        code = fn(*driver(psi), psi.domain_min, psi.domain_max, psi.psi_inf,
                  V_STOP if psi.bounded else _INF, max_iter, state, *args)
        return code, state

    def classify(psi, starts, max_iter, sum_log):
        """(label, final state) per start; log u is nan unless summed.  A
        start that left the domain raises the checked call's DomainError
        at the point the loop reports."""
        count = len(starts)
        ns, codes = (c_int64 * count)(), (ctypes.c_int * count)()
        _, state = call(classify_fn, psi, starts, max_iter, ns, sum_log,
                        count, codes)
        for i, code in enumerate(codes):
            if code == _DOMAIN_ERROR:
                psi(state[3 * i + 1])  # the checked call raises DomainError
        return [(_LABELS[code], OrbitState(
            n, state[3 * i], state[3 * i + 1],
            state[3 * i + 2] if sum_log else math.nan))
            for i, (code, n) in enumerate(zip(codes, ns))]

    def stopping(psi, start, max_iter, a_eps, delta):
        """(u at the last v <= 0, hits), None for a hit that never fired;
        a step outside the domain raises the checked call's DomainError."""
        hits = (c_int64 * 6)()
        code, state = call(stopping_fn, psi, [start], max_iter, a_eps, delta,
                           hits)
        if code == _DOMAIN_ERROR:
            psi(state[1])  # the checked call raises DomainError
        return state[0], [None if h < 0 else h for h in hits]

    def psi_array(fn, xs):
        out = np.empty(np.shape(xs))
        xs = np.ascontiguousarray(xs, dtype=np.float64)  # at least 1-d
        psi_fn(*described(fn.native), xs.ctypes.data, out.ctypes.data,
               out.size)
        return out

    def march(psi, xs):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.ndim != 1 or not xs.size:
            raise ValueError("the march needs a nonempty 1-d grid")
        g = np.zeros(xs.size)
        node, bad = c_int64(), (c_double * 4)()
        code = march_fn(*driver(psi), xs.ctypes.data, xs.size - 1,
                        g.ctypes.data, ctypes.byref(node), bad)
        return code, node.value, list(bad), g

    def write_rows(out, cols):
        cols = [np.ascontiguousarray(c, dtype=np.float64) for c in cols]
        n_rows = len(cols[0])
        if any(c.shape != (n_rows,) for c in cols):
            raise ValueError("the rows need 1-d columns of one length")
        ptrs = (ptr * len(cols))(*(c.ctypes.data for c in cols))
        buf, row = ctypes.create_string_buffer(_CHUNK), c_int64(0)
        while row.value < n_rows:
            size = rows_fn(ptrs, len(cols), n_rows, ctypes.byref(row), buf,
                           _CHUNK)
            if size < 0:
                raise OSError("drlab_rows could not format the rows")
            out.write(ctypes.string_at(buf, size).decode("ascii"))

    def resample(prev, idx, r, z, out):
        """out = max(sum of prev[idx] over each segment - z, 0), segment i
        holding the next r[i] >= 1 entries of idx."""
        prev, z = (np.ascontiguousarray(a, dtype=np.float64) for a in (prev, z))
        idx, r = (np.ascontiguousarray(a, dtype=np.int64) for a in (idx, r))
        if not (out.dtype == np.float64 and out.flags.c_contiguous
                and out.shape == r.shape == z.shape == (len(r),)):
            raise ValueError("resampling needs 1-d r, z and a contiguous "
                             "float64 out of one length")
        if resample_fn(prev.ctypes.data, prev.size, idx.ctypes.data, idx.size,
                       r.ctypes.data, z.ctypes.data, len(r), out.ctypes.data):
            raise RuntimeError("the segments do not partition the index draw")

    def counts(x, thresholds):
        """[#{x == 0}] + [#{x > t} for t in thresholds]."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        ts = np.ascontiguousarray(thresholds, dtype=np.float64)
        out = np.empty(ts.size + 1, np.int64)
        counts_fn(x.ctypes.data, x.size, ts.ctypes.data, ts.size,
                  out.ctypes.data)
        return out.tolist()

    def moments(x):
        """(np.mean(x), np.std(x)), bit for bit, in numpy's pairwise order
        and without np.std's pool-sized temporaries."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty(2)
        moments_fn(x.ctypes.data, x.size, out.ctypes.data)
        return float(out[0]), float(out[1])
    return _Native(classify, stopping, psi_array, march, write_rows,
                   resample, counts, moments)


def _native_lib() -> _Native:
    """The library, loaded on first use; OSError naming the cause when it
    cannot be built or loaded."""
    global _native
    if _native is None:
        _native = _load_native()
    return _native


_LABELS = tuple(PhaseLabel)  # indexed by _classify.c's result codes
_DOMAIN_ERROR = len(_LABELS)


def _certified(fn: Callable[[float], float], n: int, u: float, v: float,
               w: float) -> bool:
    """The subcritical certificate at state n for a w in (v, 0), fn being
    the raw driver: ``_classify.c``'s certified(), operation for operation,
    and its oracle.  An exact zero of u with v < 0 needs no driver call;
    otherwise the bound is tested at the positive multiples of
    _CHECK_EVERY only."""
    return v < 0.0 and (u == 0.0 or (
        n > 0 and n % _CHECK_EVERY == 0
        and u <= 0.25 * (w - v) * (1.0 - fn(w))))


def _classify_orbit(start: OrbitState, psi: PsiFunction, max_iter: int,
                    log_u: bool) -> tuple[PhaseLabel, OrbitState]:
    """The classifier's Python loop over :func:`_orbit`: ``drlab_classify``
    at one start, step for step, and its oracle.  It classifies the drivers
    without a native description, such as a driver whose fn counts its
    calls."""
    fn = psi.fn
    for n, (u, v, lu, _) in enumerate(_orbit(start, psi)):
        if n > max_iter:
            label = PhaseLabel.UNDETERMINED
        elif v > 0.0 and lu > -_INF:
            label = PhaseLabel.SUPERCRITICAL
        elif _certified(fn, n, u, v, 0.5 * v):
            label = PhaseLabel.SUBCRITICAL
        elif lu == -_INF:
            # u == 0 exactly and v >= 0: frozen at the origin's edge
            label = PhaseLabel.UNDETERMINED
        else:
            continue
        return label, OrbitState(n, u, v, lu if log_u else math.nan)


def _classify(starts: list[OrbitState], psi: PsiFunction, max_iter: int,
              log_u: bool) -> list[tuple[PhaseLabel, OrbitState]]:
    """One verdict per start: all in one lockstep call of the library for a
    built-in driver, else one :func:`_classify_orbit` each."""
    if hasattr(psi.fn, "native"):
        return _native_lib().classify(psi, starts, max_iter, log_u)
    return [_classify_orbit(s, psi, max_iter, log_u) for s in starts]


def classify_detail(u0: float, v0: float, psi: PsiFunction, *,
                    max_iter: int = 10 ** 6, _log_u: bool = False
                    ) -> tuple[PhaseLabel, OrbitState]:
    """Classification plus the state where the decision (or give-up) fired.

    Supercritical the moment v > 0 with u > 0; subcritical once the
    certificate holds at w = v/2 (see the module docstring), which is
    tested at every 1024th state, or at once for u == 0 with v < 0;
    undetermined at u == 0 with v >= 0, or when the budget of max_iter
    steps runs out.  The final state's v sign is the only usable direction
    hint when the label is Undetermined.  Built-in drivers run the loop of
    ``_classify.c``, at one start of :func:`classify_many`'s lockstep call;
    other drivers run :func:`_classify_orbit`, its oracle.  The state's
    log_u is nan unless the caller passes ``_log_u=True``: only then does
    the C loop sum log u, one log per step (``_classify.c`` shows that no
    verdict moves).
    """
    _check_steps("max_iter", max_iter)
    [result] = _classify([initial_state(u0, v0)], psi, max_iter, _log_u)
    return result


def classify_many(starts: Sequence[float], v0: float, psi: PsiFunction, *,
                  max_iter: int) -> list[tuple[PhaseLabel, OrbitState]]:
    """One :func:`classify_detail` verdict per start u0 at the common v0,
    each equal by repr to ``classify_detail(u0, v0, psi,
    max_iter=max_iter)``.  Built-in drivers step all the starts in one
    call of ``_classify.c``'s lockstep loop, which drops each orbit once it
    is decided; there two latency-bound orbits cost little more than the
    longer one alone.  A start that leaves the domain raises the error
    :func:`classify_detail` raises for it."""
    _check_steps("max_iter", max_iter)
    return _classify([initial_state(u0, v0) for u0 in starts], psi,
                     max_iter, False)


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
    if not psi.bounded:
        raise ValueError(f"driver {psi.name!r} is unbounded; free energy needs psi(inf) < inf")


def _free_energy_pass(u0: float, v0: float, psi: PsiFunction, *,
                      tol: float, window: int, max_iter: int
                      ) -> tuple[float, int | None, bool]:
    """The settle walk of the orbit: (log F estimate, n*, settled).

    s_n = log u_n - n log psi(inf) is nonincreasing; it settles once
    `window` consecutive steps each move it by less than `tol`, or at an
    exact zero of u.  The walk ends there, or after state max_iter.
    """
    log_pinf = math.log(psi.psi_inf)
    start = initial_state(u0, v0)
    s = start.log_u
    n_star = 0 if (start.v >= 0.0 and start.u >= 1.0) else None
    quiet = 0
    for n, (_, v, log_u, log_w) in enumerate(_orbit(start, psi)):
        if n:
            ds = log_w - log_pinf
            s = s + ds
            if n_star is None and v >= 0.0 and log_u >= 0.0:
                n_star = n
            quiet = quiet + 1 if abs(ds) < tol else 0
        settled = n > 0 and quiet >= window or log_u == -_INF  # s = -inf
        if settled or n == max_iter:
            return s, n_star, settled


def _log_bracket(log_f10: float, log_pinf: float, n_star: int,
                 u0: float) -> tuple[float, float]:
    """(log lower, log upper) of the bracket F(1,0) psi(inf)^(-n*) <= F(u0, .)
    <= max(u0,1) psi(inf)^(1-n*), from log F(1,0), log psi(inf) and n*."""
    return (log_f10 - n_star * log_pinf,
            math.log(max(u0, 1.0)) - (n_star - 1) * log_pinf)


def log_f_one_zero(psi: PsiFunction, *, tol: float = 1e-12,
                   max_iter: int = 10 ** 6) -> float:
    """log F(1, 0), the reference free energy."""
    _require_bounded(psi)
    _check_steps("max_iter", max_iter)
    return _free_energy_pass(1.0, 0.0, psi, tol=tol, window=100,
                             max_iter=max_iter)[0]


def free_energy(u0: float, v0: float, psi: PsiFunction, *,
                tol: float = 1e-12, window: int = 100,
                max_iter: int = 10 ** 6) -> FreeEnergyEstimate:
    """Estimate F(u0, v0) = lim psi(inf)^(-n) u_n for a bounded driver.

    The phase is :func:`classify_detail`'s.  Subcritical points report 0
    exactly.  Otherwise the nonincreasing log-scale sequence is iterated
    to stability and bracketed through the entry time n* of
    [1, inf) x [0, inf).
    """
    _require_bounded(psi)
    label = classify_detail(u0, v0, psi, max_iter=max_iter)[0]
    if label is PhaseLabel.SUBCRITICAL:
        return FreeEnergyEstimate(0.0, -_INF, 0.0, 0.0, -_INF, -_INF,
                                  n_star=None, converged=True)
    log_f, n_star, settled = _free_energy_pass(
        u0, v0, psi, tol=tol, window=window, max_iter=max_iter)
    if n_star is not None:
        log_lower, log_upper = _log_bracket(
            log_f_one_zero(psi, tol=tol, max_iter=max_iter),
            math.log(psi.psi_inf), n_star, u0)
    else:
        log_lower, log_upper = -_INF, _INF
    try:
        upper = math.exp(log_upper)
    except OverflowError:  # past the float range; log_upper keeps the value
        upper = _INF
    return FreeEnergyEstimate(
        value=math.exp(log_f) if log_f > -_INF else 0.0,
        log_value=log_f,
        lower=math.exp(log_lower) if log_lower > -_INF else 0.0,
        upper=upper,
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
    """The hitting indices of one forward pass, in the loop of
    ``_classify.c``; a driver without a native description is refused.
    The pass ends early once the subcritical certificate holds at w, the
    least of v/2 and the open negative levels, with w > v: then v stays at
    or below w, so no open hit can fire."""
    if not u0 > 0.0:
        raise ValueError("u0 must be positive")
    if not (A > 0.0 and delta > 0.0):
        raise ValueError("A and delta must be positive")
    _check_steps("max_iter", max_iter)
    u_last, hits = _native_lib().stopping(
        psi, initial_state(u0, v0), max_iter, A * math.sqrt(epsilon), delta)
    first_pos, n_star, n1, n2, n3, n4 = hits
    N0 = first_pos - 1 if first_pos else None
    return StoppingRecord(N0=N0, u_N0=u_last if N0 is not None else None,
                          n_star=n_star, n1_A=n1, n2_A=n2,
                          n3_delta=n3, n4_delta=n4, A=A, delta=delta,
                          epsilon_used=epsilon)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_table(out: TextIO, header: str, cols: Sequence) -> None:
    """Write the header line, then one CSV row per index of the equal-length
    columns, each value as ``f"{v:.17g}"`` writes its float (an integer
    column's 1001 as ``1001``), formatted by ``_classify.c`` in chunks of
    64 KB: a finite value with 1e-16 < |v| < 1e17 by exact integer
    scaling, any other by ``snprintf``."""
    out.write(header + "\n")
    _native_lib().write_rows(out, cols)


def write_orbit_csv(states: Iterable[OrbitState], out: TextIO) -> None:
    """Dump an orbit as CSV with 17 significant digits (round-trip safe)."""
    rows = [(s.n, s.u, s.v, s.log_u) for s in states]
    write_table(out, "n,u,v,log_u", np.array(rows, dtype=np.float64)
                .reshape(-1, 4).T)
