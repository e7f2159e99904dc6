/* Native orbit loops for the built-in drivers.

   drlab_classify walks one orbit the way recursion.classify_detail walks
   recursion._orbit, drlab_stopping the way recursion.stopping_times does,
   and both evaluate the driver the way drivers.py does, one floating-point
   operation for another, so that their results are bit-identical to the
   Python kernel's.  That needs -ffp-contract=off (a fused multiply-add
   rounds once where Python rounds twice) and no -ffast-math, and libm's
   pow, exp, log and sqrt, which Python's math module calls too.
   recursion.py builds and loads this file. */

#include <math.h>
#include <stdint.h>

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
    y = x * d->params[1] + d->params[2];
    if (y <= 0.0)
        return 0.0;
    if (y == INFINITY)
        return inv_p;
    if (d->kind == LF) {
        /* libm's pow is correctly rounded at a unit exponent, so pow(s, 1.0)
           is s, and 0.0 + x is x for x >= 0: this loop equals the monomial
           fast paths of make_lf_psi too */
        double s = y / (y + 1.0);
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * (values[i] == 1.0 ? s : pow(s, values[i]));
    } else {
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * exp(-values[i] / y);
    }
    return acc * inv_p;
}

/* One step of recursion._orbit from (*u, *v, *log_u), which must not be
   absorbed yet; the first step also checks the domain's lower end (v never
   decreases).  Returns DOMAIN_ERROR with the point outside the domain in
   *v, else 0.  A zero of psi leaves u at an absorbing 0. */
static int step(const driver *d, double *u, double *v, double *log_u,
                int first)
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
    *log_u = *log_u + log(w);
    *u = *u * w;
    return 0;
}

/* state holds (u, v, log u) on entry and the final state on return, *n the
   final index.  On DOMAIN_ERROR state[1] is the point outside the domain. */
int drlab_classify(int kind, const double *params, int n_atoms,
                   double domain_min, double domain_max, double w_inf,
                   double v_stop, int64_t max_iter, double u_zero_tol,
                   double v_margin, double *state, int64_t *n)
{
    const driver d = {kind, n_atoms, params, domain_min, domain_max, w_inf,
                      v_stop};
    double u = state[0], v = state[1], log_u = state[2];
    int64_t k;
    int label;

    for (k = 0;; k++) {
        if (k > max_iter) {
            label = UNDETERMINED;
            break;
        }
        if (v > 0.0 && log_u > -INFINITY) {
            label = SUPERCRITICAL;
            break;
        }
        if (u < u_zero_tol && v < -v_margin) {
            label = SUBCRITICAL;
            break;
        }
        if (log_u == -INFINITY) {
            label = UNDETERMINED;
            break;
        }
        if (step(&d, &u, &v, &log_u, k == 0)) {
            state[1] = v;
            return DOMAIN_ERROR;
        }
    }
    state[0] = u;
    state[1] = v;
    state[2] = log_u;
    *n = k;
    return label;
}

/* The hitting indices of recursion.stopping_times over states 0..max_iter,
   -1 where none: hits[0..5] = first v > 0, n*, first v > -a_eps,
   first v > a_eps, first v > -delta, first v > delta.  state holds
   (u, v, log u) on entry, u > 0; state[0] is u at the last v <= 0 on
   return (still u0 if v0 > 0).  Returns DOMAIN_ERROR, else 0. */
int drlab_stopping(int kind, const double *params, int n_atoms,
                   double domain_min, double domain_max, double w_inf,
                   double v_stop, int64_t max_iter, double a_eps,
                   double delta, double *state, int64_t *hits)
{
    const driver d = {kind, n_atoms, params, domain_min, domain_max, w_inf,
                      v_stop};
    const double levels[4] = {-a_eps, a_eps, -delta, delta};
    double u = state[0], v = state[1], log_u = state[2];
    int64_t k;
    int i, open = 6;

    for (i = 0; i < 6; i++)
        hits[i] = -1;
    for (k = 0; k <= max_iter && open; k++) {
        if (k > 0 && step(&d, &u, &v, &log_u, k == 1))
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
    }
    return 0;
}
