/* Native orbit loops for the built-in drivers, the drivers on arrays, the
   critical curve's march and CSV rows, and the Monte Carlo's resampling,
   counting and moment passes over float64 pools (at the end of the file;
   an LF pool holds whole numbers), the resampling and the moments summing
   through one pairwise() in numpy's order.

   drlab_classify, the lockstep entry point of recursion.classify_many,
   walks several orbits of one driver side by side, each the way
   recursion.classify_detail walks recursion._orbit (classify_detail is
   its one-orbit call), drlab_stopping the way recursion.stopping_times does,
   drlab_psi evaluates a driver on an array, and drlab_march solves the
   curve the way curve._march's Python loop does.  All four evaluate the
   driver the way drivers.py does, one floating-point operation for
   another, so that their results are bit-identical to the Python
   kernel's.  That needs -ffp-contract=off (a fused multiply-add rounds
   once where Python rounds twice) and no -ffast-math, and libm's pow,
   exp, log and sqrt, which Python's math module calls too.  Both orbit
   loops step through step(), but only drlab_stopping always adds log(w)
   to log u, because its n* test reads log u >= 0.  drlab_classify adds it
   only for a caller that keeps the final log u (the classify command):
   its verdicts read log u only against -inf, which the sum cannot reach
   by itself (the proof is above drlab_classify), and a libm log is a
   large share of a step's cost.  drlab_rows formats
   recursion.write_table's rows.  recursion.py builds and loads this
   file. */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* driver kinds: their index in drivers._KINDS */
enum { AFFINE, FIG1, FIG1_CLAMPED, LF, CLF };
/* results: the first three index recursion's phase labels */
enum { SUPERCRITICAL, SUBCRITICAL, UNDETERMINED, DOMAIN_ERROR };

/* params: inv_p, inv_slope, root, cap, then n_atoms atom values and
   n_atoms probabilities; v_stop is where w_inf = psi(inf) takes over */
typedef struct {
    int kind, n_atoms;
    const double *params;
    double domain_min, domain_max, w_inf, v_stop;
} driver;

static double fig1(double x)
{
    return 0.5 * (1.0 + x + sqrt(1.0 + 2.0 * x));
}

static double psi(const driver *d, double x)
{
    const double inv_p = d->params[0], *values = d->params + 4,
                 *probs = values + d->n_atoms;
    double y, acc = 0.0;
    int i;

    switch (d->kind) {
    case AFFINE:
        return 1.0 + x;
    case FIG1:
        return fig1(x);
    case FIG1_CLAMPED:
        return x < 0.5 ? fig1(x) : d->params[3];
    }
    /* lf and clf, the one construction of drivers._model_psi: the scale,
       the guards at y <= 0 and at +inf, then 1/p times the mean over the
       atoms that the model's base takes */
    y = x * d->params[1] + d->params[2];
    if (y <= 0.0)
        return 0.0;
    if (y == INFINITY)
        return inv_p;
    if (d->kind == LF) {
        /* libm's pow is correctly rounded at a unit exponent, so pow(s, 1.0)
           is s: this loop equals ZSpecDiscrete.pgf for every atom list */
        double s = y / (y + 1.0);
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * (values[i] == 1.0 ? s : pow(s, values[i]));
    } else {
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * exp(-values[i] / y);
    }
    return acc * inv_p;
}

/* psi at xs[0..n-1] into out: the array path of drivers.PsiFunction,
   whose checks leave here only points in the domain, and none at +inf
   where the limit is given */
void drlab_psi(int kind, const double *params, int n_atoms,
               const double *xs, double *out, int64_t n)
{
    const driver d = {kind, n_atoms, params, 0.0, 0.0, 0.0, 0.0};
    int64_t i;

    for (i = 0; i < n; i++)
        out[i] = psi(&d, xs[i]);
}

/* One step of recursion._orbit from (*u, *v, *log_u), which must not be
   absorbed yet; the first step also checks the domain's lower end (v never
   decreases).  Returns DOMAIN_ERROR with the point outside the domain in
   *v, else 0.  A zero of psi leaves u at an absorbing 0 and log u at -inf.
   log(w) is added to log u only when sum_log is set (see drlab_classify). */
static int step(const driver *d, double *u, double *v, double *log_u,
                int first, int sum_log)
{
    double w;

    *v = *v + *u;
    if ((first && !(*v >= d->domain_min)) || !(*v <= d->domain_max))
        return DOMAIN_ERROR; /* also NaN */
    w = *v < d->v_stop ? psi(d, *v) : d->w_inf;
    if (w == 0.0) {
        *u = 0.0;
        *log_u = -INFINITY;
        return 0;
    }
    if (sum_log)
        *log_u = *log_u + log(w);
    *u = *u * w;
    return 0;
}

/* recursion's subcritical certificate at state n, w in (v, 0): with psi
   nondecreasing, u <= (w - v)(1 - psi(w)) / 4 keeps every later v at or
   below w (the recursion module docstring has the proof and the margin).
   It is tested at the positive multiples of CHECK_EVERY, as a psi call per
   step would double the step's cost; an exact zero of u needs no psi. */
#define CHECK_EVERY 1024

static int certified(const driver *d, int64_t n, double u, double v,
                     double w)
{
    return v < 0.0
           && (u == 0.0
               || (n > 0 && n % CHECK_EVERY == 0
                   && u <= 0.25 * (w - v) * (1.0 - psi(d, w))));
}

/* The classifier of recursion.classify_many: count orbits of one driver
   stepped in lockstep, each dropped as soon as it is decided, so that a
   longer orbit runs on alone.  Start i's (u, v, log u) is state[3i..3i+2]
   on entry and its final state on return, n[i] its final index and
   labels[i] its result; on DOMAIN_ERROR state[3i+1] is the point outside
   the domain.  Each orbit steps through step() and certified() as a lone
   one would, so its result is the same bits at any count; two orbits in
   one loop overlap their latency-bound steps.

   With sum_log 0 the loop calls no log(w): log u then stays log u0, or
   becomes -inf where psi vanishes, and is not the final log u.  The
   verdict, n, u and v are the same bits either way.  The loop reads log u
   only in its tests log_u > -inf and log_u == -inf.  The summed log u is
   -inf exactly where the unsummed one is: at a start u0 = 0 and after a
   zero of psi.  Each log(w) of a w > 0 is finite, at least log of the
   least subnormal, about -745, so the sum could reach -inf in some other
   way only after about 1e305 steps.  (A u that underflows to 0 while
   every w > 0 leaves both logs finite.)  So only the classify command,
   which prints the final log u, asks for the sum. */
void drlab_classify(int kind, const double *params, int n_atoms,
                    double domain_min, double domain_max, double w_inf,
                    double v_stop, int64_t max_iter, double *state,
                    int64_t *n, int sum_log, int64_t count, int *labels)
{
    const driver d = {kind, n_atoms, params, domain_min, domain_max, w_inf,
                      v_stop};
    int64_t i, k, live = count;
    double *s;

    for (i = 0; i < count; i++)
        labels[i] = -1;
    for (k = 0; live > 0; k++)
        for (i = 0; i < count; i++) {
            if (labels[i] >= 0) /* decided */
                continue;
            s = state + 3 * i; /* u, v, log u */
            if (k > max_iter)
                labels[i] = UNDETERMINED;
            else if (s[1] > 0.0 && s[2] > -INFINITY)
                labels[i] = SUPERCRITICAL;
            else if (certified(&d, k, s[0], s[1], 0.5 * s[1]))
                labels[i] = SUBCRITICAL;
            else if (s[2] == -INFINITY)
                labels[i] = UNDETERMINED;
            else if (step(&d, s, s + 1, s + 2, k == 0, sum_log))
                labels[i] = DOMAIN_ERROR;
            else
                continue;
            n[i] = k;
            live--;
        }
}

/* The hitting indices of recursion.stopping_times over states 0..max_iter,
   -1 where none: hits[0..5] = first v > 0, n*, first v > -a_eps,
   first v > a_eps, first v > -delta, first v > delta.  state holds
   (u, v, log u) on entry, u > 0; state[0] is u at the last v <= 0 on
   return (still u0 if v0 > 0).  The pass ends early once the certificate
   holds at w, the least of v/2 and the open negative levels, with w > v:
   then no open hit can fire.  Returns DOMAIN_ERROR, else 0. */
int drlab_stopping(int kind, const double *params, int n_atoms,
                   double domain_min, double domain_max, double w_inf,
                   double v_stop, int64_t max_iter, double *state,
                   double a_eps, double delta, int64_t *hits)
{
    const driver d = {kind, n_atoms, params, domain_min, domain_max, w_inf,
                      v_stop};
    const double levels[4] = {-a_eps, a_eps, -delta, delta};
    double u = state[0], v = state[1], log_u = state[2], w;
    int64_t k;
    int i, open = 6;

    for (i = 0; i < 6; i++)
        hits[i] = -1;
    for (k = 0; k <= max_iter && open; k++) {
        if (k > 0 && step(&d, &u, &v, &log_u, k == 1, 1))
            return DOMAIN_ERROR;
        if (log_u == -INFINITY) /* psi vanished: the orbit is dead */
            break;
        if (hits[0] < 0) {
            if (v > 0.0) {
                hits[0] = k;
                open--;
            } else {
                state[0] = u;
            }
        }
        if (hits[1] < 0 && v >= 0.0 && log_u >= 0.0) {
            hits[1] = k;
            open--;
        }
        for (i = 0; i < 4; i++)
            if (hits[i + 2] < 0 && v > levels[i]) {
                hits[i + 2] = k;
                open--;
            }
        w = 0.5 * v;
        for (i = 0; i < 4; i += 2) /* the negative levels */
            if (hits[i + 2] < 0 && levels[i] < w)
                w = levels[i];
        if (w > v && certified(&d, k, u, v, w))
            break;
    }
    return 0;
}

/* curve._march's H at y for node i: the in-cell quotient while y lies left
   of x[i+1], else g interpolated at y over the solved nodes right of x[i].
   The binary search finds bisect_right(x, y) - 1, the last node <= y, and
   x[i+1] <= y bounds it below. */
static double march_h(const driver *d, const double *x, const double *g,
                      int64_t m, int64_t i, double y)
{
    int64_t lo = i + 1, hi = m + 1, mid, j;
    double gy;

    if (y < x[i + 1])
        return (g[i + 1] - y) / (x[i + 1] - x[i]) - psi(d, y);
    while (lo < hi) { /* the first node > y lies in [lo, hi] */
        mid = lo + (hi - lo) / 2;
        if (y < x[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    j = lo - 1;
    gy = j == m ? g[j]
                : g[j] + (y - x[j]) * ((g[j + 1] - g[j]) / (x[j + 1] - x[j]));
    return (gy - y) / (y - x[i]) - psi(d, y);
}

/* curve._march over the grid x[0..m], rising strictly to x[m] = 0, into
   g[0..m], one floating-point operation for another: each node's root of
   H is bisected to adjacent floats from [max(g[i+1] - dx, x[i]), g[i+1]],
   dx the node's own cell.  Returns 0, or on failure NO_ROOT with
   bad = (lo, hi, f_lo, f_hi) or NAN_H with bad[0] the y where H is NaN,
   and the node in *node, for Python to raise curve._march's own message. */
enum { NO_ROOT = 1, NAN_H };

int drlab_march(int kind, const double *params, int n_atoms,
                const double *x, int64_t m, double *g, int64_t *node,
                double *bad)
{
    const driver d = {kind, n_atoms, params, 0.0, 0.0, 0.0, 0.0};
    double lo, hi, mid, f, f_lo, f_hi;
    int64_t i;

    g[m] = 0.0;
    for (i = m - 1; i >= 0; i--) {
        hi = g[i + 1];
        lo = hi - (x[i + 1] - x[i]);
        if (x[i] > lo) /* Python's max(lo, x[i]): the first unless exceeded */
            lo = x[i];
        f_lo = march_h(&d, x, g, m, i, lo);
        f_hi = march_h(&d, x, g, m, i, hi);
        *node = i;
        if (!(f_lo >= 0.0 && 0.0 >= f_hi)) {
            bad[0] = lo;
            bad[1] = hi;
            bad[2] = f_lo;
            bad[3] = f_hi;
            return NO_ROOT;
        }
        mid = 0.5 * (lo + hi);
        while (lo < mid && mid < hi) {
            f = march_h(&d, x, g, m, i, mid);
            if (f > 0.0) {
                lo = mid;
                f_lo = f;
            } else if (f <= 0.0) {
                hi = mid;
                f_hi = f;
            } else {
                bad[0] = mid;
                return NAN_H;
            }
            mid = 0.5 * (lo + hi);
        }
        g[i] = f_lo < -f_hi ? lo : hi;
    }
    return 0;
}

/* Rows of n_cols columns from row *row on, each value as Python's
   f"{v:.17g}" writes it, comma-separated, one line per row: as many whole
   rows as fit into buf[0..cap) (cap >= ROW_MAX * n_cols), *row advanced
   past them.  glibc writes the same digits, but "-nan" for a NaN with its
   sign bit set, where Python writes "nan"; and it formats under the "C"
   locale here, whatever the caller's LC_NUMERIC.  Returns the number of
   bytes written, or -1 when cap is too small or the locale cannot be
   made. */
#define ROW_MAX 32 /* "-1.2345678901234567e-308," is 25 bytes */

int64_t drlab_rows(const double *const *cols, int n_cols, int64_t n_rows,
                   int64_t *row, char *buf, int64_t cap)
{
    locale_t c_locale, old;
    int64_t len = 0, i;
    double v;
    int j;

    if (cap < ROW_MAX * n_cols)
        return -1;
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    old = uselocale(c_locale);
    for (i = *row; i < n_rows && cap - len >= ROW_MAX * n_cols; i++)
        for (j = 0; j < n_cols; j++) {
            v = cols[j][i];
            if (isnan(v)) {
                memcpy(buf + len, "nan", 3);
                len += 3;
            } else {
                len += snprintf(buf + len, ROW_MAX, "%.17g", v);
            }
            buf[len++] = j + 1 < n_cols ? ',' : '\n';
        }
    uselocale(old);
    freelocale(c_locale);
    *row = i;
    return len;
}

/* The Monte Carlo resampling step of montecarlo.mc_step: segment i of idx,
   of length r[i] >= 1, gives out[i] = max(sum of prev[idx[q]] - z[i], 0).
   The numpy code it replaces is its oracle,
   np.maximum(np.add.reduceat(prev[idx], offsets) - z, 0).  A float sum
   keeps reduceat's association: the segment's first element plus numpy's
   pairwise sum of the rest.  Returns 0, or -1 when the r do not cover the
   m entries of idx or an index falls outside prev. */

#define AHEAD 32 /* prefetch x[idx[q + AHEAD]]: the gathers miss cache */

/* The terms of a pairwise sum: x[idx[q]] for a gather (idx[0..m-1] set),
   each index checked against x[0..n-1] and a bad one flagged; else
   x[q] - mean, squared when dev is set */
typedef struct {
    const double *x;
    const int64_t *idx;
    int64_t n, m;
    double mean;
    int dev, bad;
} terms;

static inline double term(terms *t, int64_t q)
{
    /* read before any branch, so that pairwise()'s loops keep them in
       registers */
    const double *x = t->x, mean = t->mean;
    const int64_t *idx = t->idx;
    int64_t k;
    double d;

    if (idx) {
        k = idx[q];
        if (q + AHEAD < t->m)
            __builtin_prefetch(x + idx[q + AHEAD]);
        if ((uint64_t)k >= (uint64_t)t->n) {
            t->bad = 1;
            return 0.0;
        }
        return x[k];
    }
    d = x[q] - mean; /* x[q] itself at mean 0: -0.0 - 0.0 is -0.0 */
    return t->dev ? d * d : d;
}

/* numpy's pairwise_sum of the n terms from q on: a plain loop from -0.0
   below 8 terms, 8 accumulators up to 128, halves above.  The resampling
   and the moments below both sum through it. */
static double pairwise(terms *t, int64_t q, int64_t n)
{
    double acc[8], res = -0.0;
    int64_t i, n2;
    int j;

    if (n < 8) {
        for (i = 0; i < n; i++)
            res += term(t, q + i);
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            acc[j] = term(t, q + j);
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                acc[j] += term(t, q + i + j);
        res = ((acc[0] + acc[1]) + (acc[2] + acc[3]))
              + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (; i < n; i++)
            res += term(t, q + i);
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    res = pairwise(t, q, n2);
    return res + pairwise(t, q + n2, n - n2);
}

int drlab_resample(const double *prev, int64_t n_prev, const int64_t *idx,
                   int64_t m, const int64_t *r, const double *z, int64_t n,
                   double *out)
{
    terms t = {prev, idx, n_prev, m, 0.0, 0, 0};
    int64_t i, q = 0;
    double d;

    for (i = 0; i < n; i++) {
        if (r[i] < 1 || r[i] > m - q)
            return -1;
        d = term(&t, q);
        if (r[i] > 1)
            d += pairwise(&t, q + 1, r[i] - 1);
        d -= z[i];
        out[i] = d > 0.0 || d != d ? d : 0.0; /* as np.maximum: NaN, not -0.0 */
        q += r[i];
    }
    return q == m && !t.bad ? 0 : -1;
}

/* The counts of montecarlo.summarize_pool, in one pass over x: counts[0]
   is #{x == 0} and counts[1 + j] is #{x > t[j]}.  x is read in blocks
   that stay in L1, and each block is compared with each level in
   two-lane vectors (a comparison that holds is -1 in its lane). */
typedef double f64x2 __attribute__((vector_size(16)));
typedef int64_t i64x2 __attribute__((vector_size(16)));

#define COUNT_BLOCK 2048

static inline int64_t count(const double *x, int64_t n, double level,
                            int above)
{
    f64x2 x0, x1, lv = {level, level};
    i64x2 c0 = {0, 0}, c1 = {0, 0};
    int64_t i, c;

    for (i = 0; i + 4 <= n; i += 4) {
        memcpy(&x0, x + i, sizeof x0);
        memcpy(&x1, x + i + 2, sizeof x1);
        c0 -= above ? x0 > lv : x0 == lv;
        c1 -= above ? x1 > lv : x1 == lv;
    }
    c = c0[0] + c0[1] + c1[0] + c1[1];
    for (; i < n; i++)
        c += above ? x[i] > level : x[i] == level;
    return c;
}

void drlab_counts(const double *x, int64_t n, const double *t, int64_t nt,
                  int64_t *counts)
{
    int64_t b, size, j;

    for (j = 0; j <= nt; j++)
        counts[j] = 0;
    for (b = 0; b < n; b += size) {
        size = n - b < COUNT_BLOCK ? n - b : COUNT_BLOCK;
        counts[0] += count(x + b, size, 0.0, 0);
        for (j = 0; j < nt; j++)
            counts[1 + j] += count(x + b, size, t[j], 1);
    }
}

/* np.mean and np.std of a pool, bit for bit, without the pool-sized
   temporaries of np.std: mean = (0 + pw(x)) / n and
   sd = sqrt((0 + pw(d * d)) / n) with d = x - mean, as numpy's _var forms
   them, pw being numpy's pairwise_sum (pairwise() above) and 0 the
   reduction's initial value, which turns a sum of -0.0 into 0.0.  Into
   out[0] and out[1]; an empty pool gives NaN for both, as numpy. */
void drlab_moments(const double *x, int64_t n, double *out)
{
    terms t = {x, NULL, n, n, 0.0, 0, 0};

    out[0] = (0.0 + pairwise(&t, 0, n)) / (double)n;
    t.mean = out[0];
    t.dev = 1;
    out[1] = sqrt((0.0 + pairwise(&t, 0, n)) / (double)n);
}
