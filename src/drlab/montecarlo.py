"""Pool Monte Carlo for the distributional recursion.

Instead of simulating the full branching structure (whose cost grows like
(1/p)^n), a pool of N samples approximates each generation's law; the next
pool resamples summands from the previous one with replacement, so each
level also carries the sampling error of the pool before it.  The
comparisons' 4/sqrt(N) slack on probabilities (eight standard errors or
more) has room for that; the mean's, 4 sd/sqrt(N), does not: an LF
validation over four levels fails its mean on about one seed in five
(ROADMAP item 6).

Reproducibility: samples are produced in fixed blocks of 2^15 draws, each
block from its own counter-based stream keyed (seed, level, block index).
A thread pool may process blocks concurrently; each block writes its own
slice of the pool, so results are bit-identical for any worker count.

Both families' pools hold float64 samples.  An LF pool's are whole
numbers: below 2^53 their sums, the subtraction of an integer Z and the
clamp are exact in any order, so it equals an integer pool value for value.

numpy draws every random number of a block.  The resampling itself, the
gather prev[idx], the segment sums, the subtraction of Z and the clamp,
runs in one pass of ``_classify.c`` (the C library that ``recursion``
builds on first use and requires); its float sums keep
``np.add.reduceat``'s association, so its pools are bit-identical to the
numpy expression that is its oracle.  :func:`summarize_pool` counts the
mass at zero and the tails of a pool in one C pass the same way, and
takes its mean and sd in two more, equal to ``np.mean`` and ``np.std``.
The numpy oracles of the three passes are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import recursion
from .drivers import ZSpecContinuous, ZSpecDiscrete
from .models import CLFParams, LFParams, Model, law_stats, model_step

__all__ = [
    "SamplePool",
    "EmpiricalSummary",
    "ComparisonReport",
    "BLOCK_SIZE",
    "block_rng",
    "sample_geometric",
    "sample_lf",
    "sample_clf",
    "pool_from_lf",
    "pool_from_clf",
    "mc_step",
    "summarize_pool",
    "compare_to_model",
    "run_validation",
]

BLOCK_SIZE = 1 << 15
MIN_POOL = 10 ** 3
MIN_COMPARE_POOL = 10 ** 4  # the least pool compare_to_model reads


@dataclass(frozen=True, eq=False)
class SamplePool:
    """One generation of samples, stored as contiguous float64 (no copy of
    a pool that already is); whole numbers in LF mode."""

    level: int
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.ascontiguousarray(
            self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("a pool's samples must be a 1-d array")
        if len(self.samples) < MIN_POOL:
            raise ValueError(f"pool size {len(self.samples)} below minimum "
                             f"{MIN_POOL}")
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class EmpiricalSummary:
    mass_at_zero: float
    tail_probs: tuple  # ((threshold, probability), ...)
    mean: float
    sd: float
    pool_size: int


def block_rng(seed: int, level: int, block: int) -> np.random.Generator:
    """Counter-based stream for one output block; streams are disjoint by
    construction (block and level sit in separate counter words)."""
    counter = np.zeros(4, dtype=np.uint64)
    counter[1] = np.uint64(block)
    counter[2] = np.uint64(level)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed),
                                                counter=counter))


def _blocks(n: int):
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield b, start, min(BLOCK_SIZE, n - start)


def _fill_blocks(n: int, level: int, seed: int, fill_block,
                 threads: int) -> np.ndarray:
    """A pool of n samples, each block filled in place by
    fill_block(rng, out) with its own stream and its slice of the pool."""
    out = np.empty(n)

    def job(task):
        b, start, size = task
        fill_block(block_rng(seed, level, b), out[start:start + size])

    if threads <= 1:
        for task in _blocks(n):
            job(task)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(job, _blocks(n)))  # re-raises a job's error
    return out


# ---------------------------------------------------------------------------
# elementary samplers
# ---------------------------------------------------------------------------

def sample_geometric(p: float, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """Geometric on {1, 2, ...} with mean 1/p, by inverse CDF:
    1 + floor(log(U) / log(1-p))."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p!r} not in (0, 1)")
    u = 1.0 - rng.random(size)  # in (0, 1]
    return (1 + np.floor(np.log(u) / math.log1p(-p))).astype(np.int64)


def sample_lf(params: LFParams, rng: np.random.Generator,
              size: int) -> np.ndarray:
    """LF sampler: zero with probability 1 - 1/(alpha+beta), otherwise one
    plus a geometric with ratio beta/(alpha+beta)."""
    s = params.alpha + params.beta
    lam = params.beta / s
    u = rng.random(size)
    w = (1.0 - u) * s  # uniform on (0, s]; tail part when w <= 1
    with np.errstate(divide="ignore"):
        k = np.where(w <= 1.0, 1 + np.floor(np.log(np.maximum(w, 1e-320))
                                            / math.log(lam)), 0.0)
    return k


def sample_clf(params: CLFParams, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """CLF sampler: zero with probability 1 - rho, otherwise exponential
    with rate lambda."""
    u = rng.random(size)
    if not params.rho > 0.0:
        return np.zeros_like(u)
    tail = u > 1.0 - params.rho
    w = np.maximum((1.0 - u) / params.rho, 1e-320)
    return np.where(tail, -np.log(w) / params.lam, 0.0)


def _skip_doubles(rng: np.random.Generator, size: int) -> None:
    """Move rng on as rng.random(size) does.  Philox makes four doubles per
    counter step, so from a spent buffer, with no 32-bit half kept, a
    multiple of four draws is advance(size // 4); else they are drawn."""
    bits = rng.bit_generator
    state = bits.state
    if size % 4 == 0 and state["buffer_pos"] == 4 and not state["has_uint32"]:
        bits.advance(size // 4)
    else:
        rng.random(size)


def _sample_z(z: ZSpecDiscrete | ZSpecContinuous, rng: np.random.Generator,
              size: int) -> np.ndarray:
    vals, probs = z.values_probs()
    if len(vals) == 1:  # every draw is the atom, but the stream moves on
        _skip_doubles(rng, size)
        return np.full(size, vals[0])
    idx = np.searchsorted(np.cumsum(probs), rng.random(size), side="right")
    return vals[np.minimum(idx, len(vals) - 1)]


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _level0_pool(sample, params, size: int, seed: int,
                 threads: int) -> SamplePool:
    def fill(rng, out):
        out[:] = sample(params, rng, len(out))

    samples = _fill_blocks(size, 0, seed, fill, threads)
    return SamplePool(level=0, samples=samples, seed=seed)


def pool_from_lf(params: LFParams, size: int, seed: int,
                 threads: int = 1) -> SamplePool:
    """Exact level-0 pool of LF samples."""
    return _level0_pool(sample_lf, params, size, seed, threads)


def pool_from_clf(params: CLFParams, size: int, seed: int,
                  threads: int = 1) -> SamplePool:
    return _level0_pool(sample_clf, params, size, seed, threads)


def mc_step(pool: SamplePool, model: Model, threads: int = 1) -> SamplePool:
    """One generation: per new sample draw R geometric(p) and Z, sum R
    uniform-with-replacement draws from the previous pool, subtract Z,
    clamp at zero."""
    prev = pool.samples
    n_prev = len(prev)

    # loaded before the threads start: the first load may build it
    resample = recursion._native_lib().resample

    def fill(rng: np.random.Generator, out: np.ndarray) -> None:
        r = sample_geometric(model.p, rng, len(out))
        z = _sample_z(model.zspec, rng, len(out))
        idx = rng.integers(0, n_prev, size=int(r.sum()))
        resample(prev, idx, r, z, out)

    samples = _fill_blocks(n_prev, pool.level + 1, pool.seed, fill, threads)
    return SamplePool(level=pool.level + 1, samples=samples, seed=pool.seed)


# ---------------------------------------------------------------------------
# comparison against the closed-form maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-statistic |empirical - predicted| against a 4/sqrt(N) slack."""

    rows: tuple  # ((name, empirical, predicted, abs_err, tol), ...)
    passed: bool
    pool_size: int

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pool_size": self.pool_size,
            "stats": [
                {"name": name, "empirical": emp, "predicted": pred,
                 "abs_err": err, "tol": tol, "ok": err <= tol}
                for name, emp, pred, err, tol in self.rows
            ],
        }


def summarize_pool(pool: SamplePool, thresholds) -> EmpiricalSummary:
    """Empirical mass at zero, tails P(X > t), mean and sd: the counts in
    one pass of ``_classify.c``, the moments in two, in numpy's pairwise
    order and without np.std's pool-sized temporaries."""
    x = pool.samples
    n = len(x)
    native = recursion._native_lib()
    zero, *above = native.counts(x, thresholds)
    mean, sd = native.moments(x)
    return EmpiricalSummary(
        mass_at_zero=float(zero / n),
        tail_probs=tuple((float(t), float(c / n))
                         for t, c in zip(thresholds, above)),
        mean=mean, sd=sd, pool_size=n)


def compare_to_model(pool: SamplePool,
                     predicted: LFParams | CLFParams) -> ComparisonReport:
    """Compare a pool to a predicted law: mass at zero, five tail
    probabilities, and the mean, at tolerance 4/sqrt(N).

    For probabilities 4/sqrt(N) is at least eight standard errors.  The
    mean's standard error is sd/sqrt(N) with sd well above 1 after a few
    generations, so its slack is scaled by the sample sd (never below the
    plain 4/sqrt(N)); otherwise no seed would pass reliably.  It does not
    count the error a level inherits by resampling (module docstring).
    """
    n = len(pool.samples)
    if n < MIN_COMPARE_POOL:
        raise ValueError(f"need a pool of at least {MIN_COMPARE_POOL} "
                         f"samples, got {n}")
    tol = 4.0 / math.sqrt(n)
    positive, tails, mean = law_stats(predicted)
    summary = summarize_pool(pool, [t for _, t, _ in tails])
    mean_tol = tol * max(1.0, summary.sd)
    rows = [("mass_at_zero", summary.mass_at_zero, 1.0 - positive),
            *((name, emp, pred) for (name, _, pred), (_, emp)
              in zip(tails, summary.tail_probs)),
            ("mean", summary.mean, mean)]
    full = tuple((name, emp, pred, abs(emp - pred),
                  mean_tol if name == "mean" else tol)
                 for name, emp, pred in rows)
    return ComparisonReport(rows=full, pool_size=n,
                            passed=all(err <= t for *_, err, t in full))


# the exact level-0 pool of a law, by its family
_LEVEL0 = {LFParams: pool_from_lf, CLFParams: pool_from_clf}


def run_validation(model: Model, params0: LFParams | CLFParams,
                   levels: int, pool_size: int, seed: int,
                   threads: int = 1) -> list[ComparisonReport]:
    """Propagate a pool `levels` generations and compare each one against
    the corresponding closed-form parameters."""
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    if not 0 <= seed < 2 ** 64:  # Philox's key is a uint64
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    if pool_size < MIN_COMPARE_POOL:  # refused before any draw
        raise ValueError(f"need a pool of at least {MIN_COMPARE_POOL} "
                         f"samples, got {pool_size}")
    pool = _LEVEL0[type(params0)](params0, pool_size, seed, threads)
    params = params0
    reports = [compare_to_model(pool, params)]
    for _ in range(levels):
        pool = mc_step(pool, model, threads)
        params = model_step(params, model)
        reports.append(compare_to_model(pool, params))
    return reports
