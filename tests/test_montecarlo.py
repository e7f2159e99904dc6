import hashlib
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_models import lf_pmf

from drlab import montecarlo, recursion
from drlab.cli import main as cli_main
from drlab.models import (CLFParams, LFParams, clf_step, clf_tail, law_stats,
                          lf_step)
from drlab.montecarlo import (SamplePool, block_rng, compare_to_model,
                              mc_step, pool_from_clf, pool_from_lf,
                              run_validation, sample_clf, sample_geometric,
                              sample_lf, summarize_pool)

N_BIG = 10 ** 6
N_MED = 2 * 10 ** 5


def rng(seed=0):
    return block_rng(seed, 0, 0)


# ---------------------------------------------------------------------------
# elementary samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
def test_geometric_refuses_p_outside_0_1(p):
    with pytest.raises(ValueError, match="not in"):
        sample_geometric(p, rng(), 10)


def test_geometric_mean_and_pgf():
    r = sample_geometric(0.5, rng(1), N_BIG)
    assert np.all(r >= 1)
    assert abs(float(np.mean(r)) - 2.0) <= 0.01
    # pgf at s = 1/2 equals ps/(1-(1-p)s) = 1/3
    pgf = float(np.mean(0.5 ** r))
    assert abs(pgf - 1.0 / 3.0) <= 0.005


def test_geometric_matches_lf_special_case():
    # G(p) and LF(p, 1-p) are the same law
    p = 0.35
    g = sample_geometric(p, rng(2), N_BIG)
    y = sample_lf(LFParams(p, 1.0 - p), rng(3), N_BIG)
    tol = 3.0 / math.sqrt(N_BIG)
    for k in range(1, 8):
        assert abs(np.mean(g == k) - np.mean(y == k)) <= tol


def test_lf_sampler_pmf():
    params = LFParams(1.0, 1.0)
    y = sample_lf(params, rng(4), N_BIG)
    tol = 3.0 / math.sqrt(N_BIG)
    assert abs(float(np.mean(y == 0)) - 0.5) <= tol
    assert abs(float(np.mean(y >= 1)) - 0.5) <= tol
    # conditional ratio of successive masses is beta/(alpha+beta) = 1/2
    p1 = float(np.mean(y == 1))
    p2 = float(np.mean(y == 2))
    assert abs(p2 / p1 - 0.5) <= 0.02
    for k in range(0, 6):
        assert abs(float(np.mean(y == k)) - lf_pmf(params, k)) <= tol


def test_clf_sampler():
    assert np.all(sample_clf(CLFParams(3.0, 0.0), rng(5), 1000) == 0.0)
    params = CLFParams(2.0, 0.5)
    x = sample_clf(params, rng(6), N_BIG)
    tol = 3.0 / math.sqrt(N_BIG)
    assert abs(float(np.mean(x == 0.0)) - 0.5) <= tol
    for t in (0.25, 0.5, 1.0):
        assert abs(float(np.mean(x > t)) - clf_tail(params, t)) <= tol


def test_lf_geometric_sum_pgf_against_closed_form(lf_model):
    # one geometric-sum stage: empirical pgf vs the predicted LF(0.3, 0.95)
    g = rng(7)
    n = N_MED
    r = sample_geometric(0.5, g, n)
    y = sample_lf(LFParams(0.6, 0.9), g, int(r.sum()))
    offsets = np.concatenate(([0], np.cumsum(r)[:-1]))
    sums = np.add.reduceat(y, offsets)
    predicted = LFParams(0.3, 0.95)
    tol = 3.0 / math.sqrt(n)
    for s in (0.2, 0.5, 0.8):
        emp = float(np.mean(s ** sums))
        a, b = predicted.alpha, predicted.beta
        pgf = 1.0 - (1.0 - s) / (a + b * (1.0 - s))
        assert abs(emp - pgf) <= tol


def test_lf_subtract_tail_against_closed_form(z1_discrete):
    # (Y - Z)_+ tails: p0 lambda^(k-1) pgf_Z(lambda)
    params = LFParams(0.3, 0.95)
    g = rng(8)
    n = N_BIG
    y = sample_lf(params, g, n)
    z = np.ones(n, dtype=np.int64)
    x = np.maximum(y - z, 0)
    lam = params.beta / (params.alpha + params.beta)
    p0 = 1.0 / (params.alpha + params.beta)
    tol = 3.0 / math.sqrt(n)
    for k in range(1, 6):
        want = p0 * lam ** (k - 1) * z1_discrete.pgf(lam)
        assert abs(float(np.mean(x >= k)) - want) <= tol


def test_clf_subtract_tail_against_closed_form(z1_continuous):
    params = CLFParams(4.0 / 3.0, 2.0 / 3.0)
    g = rng(9)
    n = N_BIG
    x = sample_clf(params, g, n)
    z = np.ones(n)
    w = np.maximum(x - z, 0.0)
    tol = 3.0 / math.sqrt(n)
    phi = z1_continuous.laplace(params.lam)
    for t in (0.5, 1.0, 2.0):
        want = params.rho * phi * math.exp(-params.lam * t)
        assert abs(float(np.mean(w > t)) - want) <= tol


@pytest.mark.parametrize("size", [4, 12, 1000, 2304, 32768, 1, 2, 1001])
@pytest.mark.parametrize("before", [(), (3,), (32768,), (0,), (3, 0)])
def test_skipping_doubles_moves_the_stream_as_drawing_them(size, before):
    # the one-atom Z draw: every later draw, 64- or 32-bit, is unchanged.
    # before: n > 0 draws n doubles, 0 one small integer, which keeps a
    # 32-bit half (after (3, 0) at the end of a spent buffer)
    drawn, skipped = rng(21), rng(21)
    for g in (drawn, skipped):
        for n in before:
            if n:
                g.random(n)
            else:
                g.integers(0, 10)
    drawn.random(size)
    montecarlo._skip_doubles(skipped, size)
    after = [(g.integers(0, 4 * 10 ** 6, 999), g.random(5))
             for g in (drawn, skipped)]
    assert all(np.array_equal(a, b) for a, b in zip(*after))


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def test_pool_validation():
    for samples in (np.zeros(10), np.zeros((1000, 2))):  # too few; not 1-d
        with pytest.raises(ValueError):
            SamplePool(level=0, samples=samples, seed=0)


def test_pool_keeps_a_float64_array_without_copying():
    # the 32 MB pools of a validation must not be copied on the way in
    x = np.zeros(2000)
    assert SamplePool(level=0, samples=x, seed=0).samples is x
    ints = SamplePool(level=0, samples=np.arange(2000), seed=0).samples
    assert ints.dtype == np.float64 and ints.flags.c_contiguous
    assert np.array_equal(ints, np.arange(2000))


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_lf_tail_ge_k_counts_x_above_k_minus_1(monkeypatch, native):
    # on the integers P(X >= k) = P(X > k - 1): law_stats gives LF's
    # tail_ge_k row the threshold k - 1, and a pool counts X > t
    if not native:
        monkeypatch.setattr(recursion, "_native", False)
    _, tails, _ = law_stats(LFParams(0.6, 0.9))
    ts = [t for _, t, _ in tails]
    assert ts == [0, 1, 2, 3, 4]
    pool = SamplePool(level=0, samples=np.repeat([0.0, 1.0, 2.0, 3.0], 500),
                      seed=0)
    assert summarize_pool(pool, ts).tail_probs == (
        (0.0, 0.75), (1.0, 0.5), (2.0, 0.25), (3.0, 0.0), (4.0, 0.0))


def test_zero_pool_is_absorbing(lf_model):
    pool = SamplePool(level=0, samples=np.zeros(2000, dtype=np.int64),
                      seed=11)
    out = mc_step(pool, lf_model)
    assert np.all(out.samples == 0)
    assert out.level == 1


def test_lf_pools_are_whole_numbered_float64(lf_model):
    # one sample type for both families: an LF pool holds whole numbers,
    # which its sums, its Z and its clamp keep exact
    pool = pool_from_lf(LFParams(0.6, 0.9), N_MED, seed=16)
    for level in range(3):
        x = pool.samples
        assert pool.level == level and x.dtype == np.float64
        assert np.array_equal(x, np.floor(x)) and np.all(x >= 0)
        assert 0 < np.count_nonzero(x) < len(x)
        pool = mc_step(pool, lf_model)


def test_mc_step_one_level_matches_closed_form(lf_model):
    params = LFParams(0.6, 0.9)
    pool = pool_from_lf(params, N_BIG, seed=12)
    stepped = mc_step(pool, lf_model)
    predicted = lf_step(params, lf_model)
    tol = 4.0 / math.sqrt(N_BIG)
    mass = float(np.mean(stepped.samples == 0))
    assert abs(mass - (1.0 - 1.0 / (predicted.alpha + predicted.beta))) <= tol
    assert stepped.samples.dtype == np.float64
    assert np.all(stepped.samples >= 0)


def test_mc_step_clf_tail(clf_model):
    params = CLFParams(2.0, 0.5)
    pool = pool_from_clf(params, N_BIG, seed=13)
    stepped = mc_step(pool, clf_model)
    predicted = clf_step(params, clf_model)
    tol = 4.0 / math.sqrt(N_BIG)
    emp = float(np.mean(stepped.samples > 1.0))
    assert abs(emp - clf_tail(predicted, 1.0)) <= tol


def test_five_level_closure(lf_model):
    reports = run_validation(lf_model, LFParams(0.6, 0.9), 5, N_BIG, seed=42)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("levels,seed,threads,message", [
    (-1, 0, 1, "levels must be >= 0"), (1, -1, 1, "seed must be in"),
    (1, 2 ** 64, 1, "seed must be in"), (1, 0, 0, "threads must be >= 1")])
def test_run_validation_rejects_a_bad_count_or_seed(lf_model, levels, seed,
                                                    threads, message):
    with pytest.raises(ValueError, match=message):
        run_validation(lf_model, LFParams(0.6, 0.9), levels, N_MED, seed,
                       threads)


def test_compare_to_model_self_test(lf_model):
    params = LFParams(0.6, 0.9)
    pool = pool_from_lf(params, N_MED, seed=14)
    rep = compare_to_model(pool, params)
    assert rep.passed
    # comfortable margin on the probability statistics
    prob_rows = [r for r in rep.rows if r[0] != "mean"]
    assert max(err / tol for *_, err, tol in prob_rows) < 0.8


def test_compare_to_model_negative_control(lf_model):
    params = LFParams(0.6, 0.9)
    pool = pool_from_lf(params, N_MED, seed=14)
    perturbed = LFParams(params.alpha * 1.2, params.beta)
    assert not compare_to_model(pool, perturbed).passed


def test_compare_requires_large_pool(lf_model):
    pool = pool_from_lf(LFParams(0.6, 0.9), 5000, seed=15)
    with pytest.raises(ValueError):
        compare_to_model(pool, LFParams(0.6, 0.9))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_pools_deterministic_across_thread_counts(lf_model, clf_model):
    p1 = pool_from_lf(LFParams(0.6, 0.9), N_MED, seed=7, threads=1)
    p4 = pool_from_lf(LFParams(0.6, 0.9), N_MED, seed=7, threads=4)
    assert np.array_equal(p1.samples, p4.samples)
    s1 = mc_step(p1, lf_model, threads=1)
    s4 = mc_step(p4, lf_model, threads=3)
    assert np.array_equal(s1.samples, s4.samples)
    c1 = pool_from_clf(CLFParams(2.0, 0.5), N_MED, seed=7, threads=1)
    c2 = pool_from_clf(CLFParams(2.0, 0.5), N_MED, seed=7, threads=2)
    assert np.array_equal(c1.samples, c2.samples)


def test_pools_change_with_seed():
    a = pool_from_lf(LFParams(0.6, 0.9), N_MED, seed=1)
    b = pool_from_lf(LFParams(0.6, 0.9), N_MED, seed=2)
    assert not np.array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# the native resampling and counting kernels against numpy
# ---------------------------------------------------------------------------

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no C compiler")


def _kernel(prev, idx, r, z):
    """The native resampling pass, called directly."""
    out = np.empty(len(r))
    code = recursion._native_lib().resample(
        prev.ctypes.data, len(prev), idx.ctypes.data, len(idx),
        r.ctypes.data, z.ctypes.data, len(r), out.ctypes.data)
    return code, out


def _reduceat_oracle(prev, idx, r, z):
    offsets = np.concatenate(([0], np.cumsum(r)[:-1]))
    return np.maximum(np.add.reduceat(prev[idx], offsets) - z, 0)


def _segments(g):
    # every length 1..200 in shuffled order, then the halving's deeper cases
    return np.concatenate([g.permutation(np.arange(1, 201)),
                           [256, 1000, 4099]]).astype(np.int64)


@needs_gcc
@pytest.mark.parametrize("dtype", [np.float64])
def test_resampling_kernel_matches_reduceat(dtype):
    g = np.random.default_rng(11)
    r = _segments(g)
    n_prev = 5000
    # magnitudes 1e-8..1e8 of both signs: any other association of the
    # sums shows in the last bits
    prev = g.standard_normal(n_prev) * 10.0 ** g.integers(-8, 9, n_prev)
    z = g.standard_normal(len(r)) * 10.0
    idx = g.integers(0, n_prev, int(r.sum()))
    code, got = _kernel(prev, idx, r, z)
    want = _reduceat_oracle(prev, idx, r, z)
    assert code == 0 and got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert 0 < np.count_nonzero(want == 0) < len(r)  # the clamp is exercised


@needs_gcc
def test_resampling_kernel_matches_reduceat_on_special_values():
    # NaN wins np.maximum, -0.0 sums and differences clamp to +0.0 (as
    # numpy's SIMD maximum has it), infs cancel to NaN and sums overflow
    # to inf
    g = np.random.default_rng(12)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308,
                        5e-324, 1.0, -1.0])
    # and many short segments, whose sums can be -0.0
    r = np.concatenate([_segments(g), g.integers(1, 4, 500)])
    z_values = np.array([0.0, -0.0, 1.0, np.inf, np.nan])
    for weights in ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1],  # everything mixed
                    [0, 0, 0, 1, 1, 0, 0, 0, 0, 0],  # signed zeros only
                    [1, 0, 0, 3, 3, 1, 1, 0, 3, 3]):
        prev = g.choice(special, 1000, p=np.divide(weights, sum(weights)))
        z = g.choice(z_values, len(r))
        idx = g.integers(0, len(prev), int(r.sum()))
        code, got = _kernel(prev, idx, r, z)
        with np.errstate(all="ignore"):
            want = _reduceat_oracle(prev, idx, r, z)
        assert code == 0
        # which NaN an add of two NaNs returns (its sign) is the compiler's
        # choice of operand order, in numpy too: only NaN positions compare
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
    assert nan.any() and (want == 0).any()
    with np.errstate(all="ignore"):
        d = np.add.reduceat(prev[idx], np.cumsum(r) - r) - z
    assert np.any((d == 0) & np.signbit(d))  # the -0.0 clamp is exercised


@needs_gcc
def test_resampling_kernel_refuses_a_bad_partition():
    prev = np.arange(10.0)
    r = np.array([2, 3], dtype=np.int64)
    for idx in (np.array([0, 1, 2, 3], dtype=np.int64),  # r sums past idx
                np.array([0, 1, 2, 3, 4, 5], dtype=np.int64),  # idx left over
                np.array([0, 1, 2, 10, 4], dtype=np.int64)):  # outside prev
        assert _kernel(prev, idx, r, np.zeros(2))[0] == -1
    with pytest.raises(RuntimeError):
        montecarlo._resample(recursion._native_lib(), prev, idx, r,
                             np.zeros(2), np.empty(2))


@needs_gcc
@pytest.mark.parametrize("thresholds", [[0.5, 1, 1.5, 2.0, 3.0], [1, 2], []])
def test_counts_match_numpy(monkeypatch, thresholds):
    g = np.random.default_rng(13)
    x = g.choice(np.array([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0,
                           np.nan, np.inf, -np.inf]), 10007)
    sizes = [*range(1, 12), 4099, 10007]  # whole and partial blocks, lanes
    got = [montecarlo._counts(x[:n], thresholds) for n in sizes]
    monkeypatch.setattr(recursion, "_native", False)
    assert got == [montecarlo._counts(x[:n], thresholds) for n in sizes]


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
            2.2250738585072014e-308]


@st.composite
def _float_pools(draw):
    """Float64 arrays of 0-7, 8-128 or more values (numpy's pairwise sum
    runs a plain loop, eight accumulators or halves), of ordinary, tiny
    (subnormal) or huge (squares overflow) scale, with up to three NaN,
    infinite, signed-zero or subnormal values put in."""
    n = draw(st.one_of(st.integers(0, 7), st.integers(8, 128),
                       st.integers(129, 5000)))
    scale = draw(st.sampled_from([1.0, 1e-310, 1e300]))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32))) \
        .standard_normal(n) * scale
    for _ in range(draw(st.integers(0, 3 if n else 0))):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_SPECIAL))
    return x


@needs_gcc
@settings(max_examples=300, deadline=None)
@example(x=np.array([]))
@example(x=np.array([-0.0]))
@example(x=np.full(9, -0.0))
@example(x=np.full(200, 5e-324))
@given(x=_float_pools())
def test_moments_match_numpy(x):
    with warnings.catch_warnings():  # an empty or non-finite pool
        warnings.simplefilter("ignore", RuntimeWarning)
        want = repr((float(np.mean(x)), float(np.std(x))))
        assert repr(montecarlo._moments(x)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "_native", False)
            assert repr(montecarlo._moments(x)) == want


def _mc_json(tmp_path, name, args):
    out = tmp_path / name
    assert cli_main(["mc", "validate", *args, "--out", str(out)]) in (0, 1)
    return out.read_bytes()


@pytest.mark.parametrize("args", [
    ["--kind", "lf", "--p", "0.4", "--z", "1@0.5+2@0.5", "--alpha", "0.6",
     "--beta", "0.9"],
    ["--kind", "clf", "--p", "0.5", "--z", "0.5@0.3+2@0.7", "--lam", "2.0",
     "--rho", "0.5"]])
def test_native_and_numpy_resampling_agree_byte_for_byte(monkeypatch,
                                                         tmp_path, args):
    # multi-atom Z, which the mc_lf/mc_clf goldens (Z = 1) do not reach
    args = [*args, "--levels", "3", "--pool-size", "30000", "--seed", "5"]
    native = [_mc_json(tmp_path, f"n{t}.json", [*args, "--threads", str(t)])
              for t in (1, 2)]
    monkeypatch.setattr(recursion, "_native", False)
    numpy = [_mc_json(tmp_path, f"p{t}.json", [*args, "--threads", str(t)])
             for t in (1, 2)]
    assert native[0] == native[1] == numpy[0] == numpy[1]


# mc validate --kind lf reports, each pinned by the SHA-256 of its JSON bytes
_LF_REPORTS = {
    ("0.5", "1", "0.6", "0.9"):
        "0aceeeb2cc844955be74dac38e292ba9eff8dbbf228d77bc57bb5fac201a3a9f",
    ("0.4", "1@0.5+2@0.5", "0.5", "1.2"):
        "13e29b58577d7a86650bcd37f42fe40172e968ed1d9d22602aa4657d0208dccf",
    ("0.7", "2", "0.3", "0.9"):
        "272ce9d507bbe14831559815871f9ab504a59ed4110aa658f3bfe2f26c5f29ed",
}


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model", sorted(_LF_REPORTS), ids="-".join)
def test_lf_validation_reports_are_pinned(monkeypatch, tmp_path, model,
                                          threads, native):
    if not native:
        monkeypatch.setattr(recursion, "_native", False)
    p, z, alpha, beta = model
    report = _mc_json(tmp_path, "lf.json", [
        "--kind", "lf", "--p", p, "--z", z, "--alpha", alpha, "--beta", beta,
        "--levels", "4", "--pool-size", "50000", "--seed", "7",
        "--threads", str(threads)])
    assert hashlib.sha256(report).hexdigest() == _LF_REPORTS[model]
