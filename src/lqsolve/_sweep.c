/* gaita's cyclic sweep (lq_sweep) and jaita's componentwise prox (lq_prox):
 * the compiled twins of solvers._sweep_python and prox.prox_scalar, written
 * to give the same bits.
 *
 * The column dot product goes through the BLAS ddot numpy itself calls for
 * np.dot, passed in as a function pointer, and the prox root-finder repeats
 * prox.solve_inverse operation for operation.  Build without fast-math and
 * with -ffp-contract=off: a fused multiply-add changes the rounding.
 */
#include <math.h>
#include <stdint.h>

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

/* Sweep the n columns of the column-major m x n matrix a, updating x and
 * the residual r = a x - y in place.  out[0] receives the largest
 * single-coordinate change.  Returns -1, or the index of the coordinate
 * whose prox stalled, with its |z| in out[1]; the coordinates before it
 * are already updated, as in the Python sweep. */
int64_t lq_sweep(ddot_fn ddot, int64_t m, int64_t n, const double *a,
                 double *x, double *r, double mu, double c, double q,
                 double tau, double eta, double tol, double *out)
{
    double max_step = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *col = a + i * m;
        double z = x[i] - mu * (0.0 + ddot(m, col, 1, r, 1)), xi;
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
        }
    }
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
