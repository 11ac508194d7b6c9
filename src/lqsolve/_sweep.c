/* gaita's cyclic sweep (lq_sweep) and jaita's componentwise prox (lq_prox):
 * the compiled twins of solvers._sweep_python and prox.prox_scalar, written
 * to give the same bits.
 *
 * The column dot product goes through the BLAS ddot numpy itself calls for
 * np.dot, passed in as a function pointer, and the prox root-finder repeats
 * prox.solve_inverse operation for operation.  Build without fast-math and
 * with -ffp-contract=off: a fused multiply-add changes the rounding.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* Root of v + c*q*v^(q-1) = z_abs on [eta, z_abs]; 0 when it stalls. */
static int solve_inverse(double z_abs, double c, double q, double eta,
                         double tol, double *root)
{
    double lo = eta, hi = z_abs, v = z_abs;
    for (int it = 0; it < 200; it++) {
        double g = (v + c * q * pow(v, q - 1.0)) - z_abs;
        if (fabs(g) <= tol) {
            *root = v;
            return 1;
        }
        if (g > 0.0)
            hi = v;
        else
            lo = v;
        double gp = 1.0 + c * q * (q - 1.0) * pow(v, q - 2.0);
        double v_new = 0.0;
        int step_ok = gp > 0.0;
        if (step_ok) {
            v_new = v - g / gp;
            step_ok = lo <= v_new && v_new <= hi;
        }
        if (!step_ok)
            v_new = 0.5 * (lo + hi);
        if (fabs(v_new - v) <= tol) {
            *root = v_new;
            return 1;
        }
        v = v_new;
    }
    return 0;
}

/* prox_scalar(z, x_prev) into *xi, NaN included; 0 when the root-finder
 * stalls.  At |z| == tau the tie goes to eta exactly when x_prev != 0. */
static int threshold(double z, double x_prev, double c, double q, double tau,
                     double eta, double tol, double *xi)
{
    double z_abs = fabs(z), v;
    if (z_abs > tau) {
        if (!solve_inverse(z_abs, c, q, eta, tol, &v))
            return 0;
        *xi = copysign(v, z);
    } else {
        *xi = z_abs < tau || x_prev == 0.0 ? 0.0 : copysign(eta, z);
    }
    return 1;
}

/* Screening.  A coordinate with x_i == 0 stays at 0 when |z| <= tau, and
 * then changes neither x nor r.  The sweep may leave such a coordinate
 * alone without its dot product once an upper bound on |a_i . r| proves
 * |z| < tau; every output keeps its bits.  The bound is the last computed
 * |a_i . r| plus its rounding error, plus ||a_i|| times an upper bound on
 * how far r has moved since.  The caller owns the state, one array of
 * 3n + m + 1 doubles per run, laid out as
 *   norm[n]   ||a_i||, rounded up
 *   bound[n]  bound on |a_i . r| for the r of the previous call's end
 *             (+inf: not computed yet)
 *   at[n]     how far r had moved within the previous call when a_i . r
 *             was computed (0 when it was skipped)
 *   r_end[m]  r at the previous call's end
 *   moved     how far r moved within the previous call
 * Distances are 1-norms, which bound the 2-norm and cannot underflow.
 * Every sum is inflated by a relative slack far above the rounding of
 * the up to 2n + m terms it accumulates; a NaN or inf anywhere fails the
 * test and the dot product is computed. */
#define MARGIN 0.999   /* the bound must stay below MARGIN * tau / mu */

static double slack_for(int64_t m, int64_t n)
{
    return 1e-10 + (double)(2 * n + m) * DBL_EPSILON;
}

/* Carry each bound from the previous call's end to this call's start:
 * add the move within that call after a_i . r was taken, and the move
 * from r_end to r (the caller refreshes r between calls). */
static double screen_enter(int64_t m, int64_t n, const double *r, double *st,
                           double slack)
{
    double *norm = st, *bound = st + n, *at = st + 2 * n, *r_end = st + 3 * n;
    double before = st[3 * n + m], jump = 0.0, r1 = 0.0;
    for (int64_t j = 0; j < m; j++) {
        jump += fabs(r[j] - r_end[j]);
        r1 += fabs(r[j]);
    }
    jump *= 1.0 + slack;
    for (int64_t i = 0; i < n; i++) {
        double since = (before - at[i]) + jump + slack * before;
        bound[i] = (bound[i] + norm[i] * since) * (1.0 + slack);
        at[i] = 0.0;
    }
    return r1 * (1.0 + slack);
}

static void screen_leave(int64_t m, int64_t n, const double *r, double *st,
                         double moved)
{
    memcpy(st + 3 * n, r, (size_t)m * sizeof(double));
    st[3 * n + m] = moved;
}

/* Sweep the n columns of the column-major m x n matrix a, updating x and
 * the residual r = a x - y in place.  out[0] receives the largest
 * single-coordinate change.  Returns -1, or the index of the coordinate
 * whose prox stalled, with its |z| in out[1]; the coordinates before it
 * are already updated, as in the Python sweep.  screen is NULL, or the
 * screening state described above. */
int64_t lq_sweep(ddot_fn ddot, int64_t m, int64_t n, const double *a,
                 double *x, double *r, double mu, double c, double q,
                 double tau, double eta, double tol, double *out,
                 double *screen)
{
    double max_step = 0.0;
    /* r moves by at most `moved` within this call; ||r|| <= r1 + moved */
    double moved = 0.0, r1 = 0.0, lim = MARGIN * (tau / mu);
    double dot_err = (double)(m + 2) * DBL_EPSILON;   /* > gamma_m */
    double slack = slack_for(m, n);
    double *norm = NULL, *bound = NULL, *at = NULL;
    if (screen) {
        norm = screen;
        bound = screen + n;
        at = screen + 2 * n;
        r1 = screen_enter(m, n, r, screen, slack);
    }
    for (int64_t i = 0; i < n; i++) {
        const double *col = a + i * m;
        double err = 0.0;
        if (screen) {
            err = dot_err * norm[i] * (r1 + moved);
            if (x[i] == 0.0
                && (bound[i] + norm[i] * moved) * (1.0 + slack) + err <= lim)
                continue;
        }
        double dot = ddot(m, col, 1, r, 1);
        double z = x[i] - mu * (0.0 + dot), xi;
        if (screen) {
            bound[i] = (fabs(dot) + err) * (1.0 + slack);
            at[i] = moved;
        }
        if (!threshold(z, x[i], c, q, tau, eta, tol, &xi)) {
            out[0] = max_step;
            out[1] = fabs(z);
            return i;
        }
        double d = xi - x[i];
        if (d != 0.0) {
            for (int64_t j = 0; j < m; j++)
                r[j] += d * col[j];
            x[i] = xi;
            if (fabs(d) > max_step)
                max_step = fabs(d);
            /* r += d a_i moves r by |d| ||a_i||, plus a rounding per entry */
            if (screen)
                moved += (fabs(d) * norm[i] + DBL_EPSILON * (r1 + moved))
                         * (1.0 + slack);
        }
    }
    if (screen)
        screen_leave(m, n, r, screen, moved);
    out[0] = max_step;
    return -1;
}

/* out[i] = prox_scalar(z[i], x_prev[i]) for i < n.  Returns -1, or the
 * index whose root-find stalled. */
int64_t lq_prox(int64_t n, const double *z, const double *x_prev, double c,
                double q, double tau, double eta, double tol, double *out)
{
    for (int64_t i = 0; i < n; i++)
        if (!threshold(z[i], x_prev[i], c, q, tau, eta, tol, &out[i]))
            return i;
    return -1;
}
