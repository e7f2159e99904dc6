"""The Python oracles of the C library's entry points.

``_classify.c`` holds the one path of the package's orbit loops, curve
march, CSV rows and Monte Carlo passes.  Each function here computes what
one of its wrappers in ``recursion._load_native`` returns, in plain Python
or numpy, with the same floating-point operations where the C code claims
bit-identity.  ``NATIVE`` bundles them as one ``recursion._Native``; a test
installs it at the package's seam to run any command through the oracles:

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", oracles.NATIVE)

The classifier's loop, ``recursion._classify_orbit``, stays in the package,
which runs it for drivers without a native description.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right

import numpy as np

from drlab import recursion
from drlab.curve import _NAN_H, _NO_ROOT
from drlab.recursion import _certified, _orbit


def classify(psi, starts, max_iter, sum_log):
    """``drlab_classify``: (label, final state) per start."""
    return [recursion._classify_orbit(s, psi, max_iter, sum_log)
            for s in starts]


def stopping(psi, start, max_iter, a_eps, delta):
    """``drlab_stopping``: (u at the last v_n <= 0, hits) over states
    0..max_iter, hits being the first n with v_n > 0, n*, n1_A, n2_A,
    n3_delta and n4_delta, None where none.  The pass ends early once the
    subcritical certificate holds at w, the least of v/2 and the open
    negative levels, with w > v: then v stays at or below w, so no open
    hit can fire."""
    fn = psi.fn
    first_pos = n_star = n1 = n2 = n3 = n4 = None
    u_last = None  # u at the last n with v_n <= 0 so far (v is nondecreasing)
    for n, (u, v, log_u, _) in zip(range(max_iter + 1), _orbit(start, psi)):
        if log_u == -math.inf:  # psi vanished: the orbit is dead
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
        w = 0.5 * v
        for hit, level in ((n1, -a_eps), (n3, -delta)):
            if hit is None and level < w:
                w = level
        if w > v and _certified(fn, n, u, v, w):
            break
    return u_last, [first_pos, n_star, n1, n2, n3, n4]


def psi(fn, xs):
    """``drlab_psi``: the scalar function mapped over the array."""
    arr = np.asarray(xs, dtype=float)
    return np.fromiter(map(fn, arr.ravel().tolist()), float,
                       arr.size).reshape(arr.shape)


def march(psi, xs):
    """``drlab_march``: (code, node, bad, g), the curve's g on the grid xs
    solved node by node from 0 leftwards (see ``curve._march``), or the
    failure at a node: _NO_ROOT with bad = (lo, hi, f_lo, f_hi), _NAN_H
    with bad[0] the y where H is NaN."""
    m = len(xs) - 1
    x = np.asarray(xs, dtype=float).tolist()
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
            return _NO_ROOT, i, [lo, hi, f_lo, f_hi], np.array(g)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            f = H(mid, i)
            if f > 0.0:
                lo, f_lo = mid, f
            elif f <= 0.0:
                hi, f_hi = mid, f
            else:
                return _NAN_H, i, [mid, math.nan, math.nan, math.nan], \
                    np.array(g)
            mid = 0.5 * (lo + hi)
        g[i] = lo if f_lo < -f_hi else hi
    return 0, 0, [0.0] * 4, np.array(g)


def write_rows(out, cols):
    """``drlab_rows``: one CSV line per row, each value as Python's
    ``f"{v:.17g}"`` writes its float."""
    out.writelines(",".join(f"{x:.17g}" for x in row) + "\n" for row
                   in zip(*(np.asarray(c, dtype=np.float64).tolist()
                            for c in cols)))


def rows(cols) -> str:
    """The text :func:`write_rows` writes for the columns."""
    buf = io.StringIO()
    write_rows(buf, cols)
    return buf.getvalue()


def resample(prev, idx, r, z, out):
    """``drlab_resample``: out = max(sum of prev[idx] over each segment - z,
    0), segment i holding the next r[i] >= 1 entries of idx, by numpy's
    gather and reduceat."""
    offsets = np.concatenate(([0], np.cumsum(r)[:-1]))
    sums = np.add.reduceat(prev[idx], offsets)
    np.maximum(sums - z, 0, out=out)


def counts(x, thresholds):
    """``drlab_counts``: [#{x == 0}] + [#{x > t} for t in thresholds], one
    numpy pass per count."""
    return [np.count_nonzero(x == 0),
            *(np.count_nonzero(x > t) for t in thresholds)]


def moments(x):
    """``drlab_moments``: (np.mean(x), np.std(x))."""
    return float(np.mean(x)), float(np.std(x))


NATIVE = recursion._Native(classify=classify, stopping=stopping, psi=psi,
                           march=march, write_rows=write_rows,
                           resample=resample, counts=counts, moments=moments)
