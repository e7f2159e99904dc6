/* Native phase classifier for the built-in drivers.

   drlab_classify walks one orbit the way recursion.classify_detail walks
   recursion._orbit, and evaluates the driver the way drivers.py does, one
   floating-point operation for another, so that its results are
   bit-identical to the Python kernel's.  That needs -ffp-contract=off (a
   fused multiply-add rounds once where Python rounds twice) and no
   -ffast-math, and libm's pow, exp, log and sqrt, which Python's math
   module calls too.  recursion.py builds and loads this file. */

#include <math.h>
#include <stdint.h>

/* driver kinds: their index in drivers._KINDS */
enum { AFFINE, FIG1, FIG1_CLAMPED, LF, CLF };
/* results: the first three index recursion's phase labels */
enum { SUPERCRITICAL, SUBCRITICAL, UNDETERMINED, DOMAIN_ERROR };

/* params: inv_p, inv_slope, root, cap, then n_atoms atom values and
   n_atoms probabilities */
typedef struct {
    int kind, n_atoms;
    const double *params;
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
        /* pow(s, 1.0) is s and 0.0 + x is x for x >= 0, so this loop
           equals the monomial fast paths of make_lf_psi too */
        double s = y / (y + 1.0);
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * pow(s, values[i]);
    } else {
        for (i = 0; i < d->n_atoms; i++)
            acc += probs[i] * exp(-values[i] / y);
    }
    return acc * inv_p;
}

/* state holds (u, v, log u) on entry and the final state on return, *n the
   final index.  On DOMAIN_ERROR state[1] is the point outside the domain. */
int drlab_classify(int kind, const double *params, int n_atoms,
                   double domain_min, double domain_max, double w_inf,
                   double v_stop, int64_t max_iter, double u_zero_tol,
                   double v_margin, double *state, int64_t *n)
{
    const driver d = {kind, n_atoms, params};
    double u = state[0], v = state[1], log_u = state[2], w;
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
        if (k == 0 && !(v + u >= domain_min)) { /* v never decreases */
            state[1] = v + u;
            return DOMAIN_ERROR;
        }
        v = v + u;
        if (!(v <= domain_max)) { /* also NaN */
            state[1] = v;
            return DOMAIN_ERROR;
        }
        w = v < v_stop ? psi(&d, v) : w_inf;
        if (w == 0.0) { /* absorbing: the next check decides */
            u = 0.0;
            log_u = -INFINITY;
            continue;
        }
        log_u = log_u + log(w);
        u = u * w;
    }
    state[0] = u;
    state[1] = v;
    state[2] = log_u;
    *n = k;
    return label;
}
