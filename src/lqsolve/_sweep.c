/* gaita's cyclic sweep (lq_sweep) and the componentwise prox behind
 * prox.prox_vector (lq_prox), the only implementations lqsolve runs; the
 * one measure of an iterate (lq_measure), which the run loop takes after
 * each sweep and core.objective takes once: the residual refresh, r . r,
 * the penalty sum, the squared step and distance to the reference, and
 * the support size; the dot product behind the RMSE's norms (lq_dot); and
 * lq_parse, which reads the body of an array file to the bits float()
 * gives.
 *
 * None of these calls the BLAS: the column dot product and the residual
 * update are here, so their bits depend on neither the BLAS library nor
 * the CPU.  The penalty's powers come from libm's pow, as the tests'
 * oracle takes them from Python's math.pow.  The prox root-finder works in
 * closed form at q = 1/2 and q = 2/3 and by Newton at any other q, which
 * stops within prox.TOL or at the first step that does not descend, and
 * so cannot fail.  It runs operation for operation as the Python oracles
 * in the tests' conftest.py do, so the two give the same bits: sqrt
 * rounds correctly everywhere, and Python's math module calls the same
 * libm cbrt, acos, cos and pow.
 * The dot product and the residual update run in AVX-512 or AVX2 lanes
 * where the CPU has them, with the same bits in every clone: each lane
 * multiplies and adds once, rounding each, in an order fixed by the
 * source.  Build without fast-math, so that no sum is reordered, and with
 * -ffp-contract=off: a fused multiply-add changes the rounding.
 */
#define _GNU_SOURCE   /* strtod_l */
#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PI 3.141592653589793   /* Python's math.pi, the same double */

/* The root of v + c*q*v^(q-1) = z_abs (z_abs >= tau) in closed form, with
 * lambda = 2c, at q = 1/2 (Xu, Chang, Xu, Zhang, IEEE TNNLS 2012) and
 * q = 2/3 (Cao, Sun, Xu, JVCIR 2013).  Not finite at any other q, or where
 * an intermediate overflows. */
static double closed_form(double z_abs, double c, double q)
{
    if (q == 0.5) {
        double w = c * (0.75 * sqrt(3.0)) / (z_abs * sqrt(z_abs));
        double phi = acos(w > 1.0 ? 1.0 : w);
        double angle = 2.0 * PI / 3.0 - 2.0 / 3.0 * phi;
        return 2.0 / 3.0 * z_abs * (1.0 + cos(angle));
    }
    if (q == 2.0 / 3.0) {
        double s = sqrt(2.0 * c), f = sqrt(s);   /* lambda^(1/2), lambda^(1/4) */
        double u = z_abs / (s * f);
        u = 27.0 / 16.0 * u * u;
        if (u < 1.0)
            u = 1.0;
        double t = cbrt(u + sqrt(u - 1.0) * sqrt(u + 1.0));
        double a = 2.0 / sqrt(3.0) * f * sqrt((t + 1.0 / t) / 2.0);
        double d = 2.0 * z_abs / a - a * a;
        if (!(d >= 0.0))
            return NAN;
        double h = (a + sqrt(d)) / 2.0;
        return h * h * h;
    }
    return NAN;
}

/* The root of g(v) = v + c*q*v^(q-1) = z_abs on [eta, z_abs], z_abs > tau.
 * g is increasing and convex there (g'(eta) = 1 - q/2 > 0, g'' > 0), so
 * Newton from v = z_abs descends onto the root: a step that does not
 * descend comes only from rounding, a NaN or an infinity, and ends the
 * loop.  An infinite z_abs takes a NaN step at once: its root is infinite. */
static double nonzero_root(double z_abs, double c, double q, double eta,
                           double tol)
{
    double v = closed_form(z_abs, c, q);
    if (!isfinite(v)) {
        v = z_abs;
        for (int it = 0; it < 200; it++) {
            double g = (v + c * q * pow(v, q - 1.0)) - z_abs;
            if (fabs(g) <= tol)
                break;
            double v_new = v - g / (1.0 + c * q * (q - 1.0) * pow(v, q - 2.0));
            if (fabs(v_new - v) <= tol) {
                v = v_new;
                break;
            }
            if (!(v_new < v))
                break;
            v = v_new;
        }
    }
    /* rounding may leave the root an ulp outside [eta, z_abs] */
    return v < eta ? eta : v > z_abs ? z_abs : v;
}

/* prox_scalar(z, x_prev), NaN included.  At |z| == tau the tie goes to eta
 * exactly when x_prev != 0. */
static double threshold(double z, double x_prev, double c, double q, double tau,
                        double eta, double tol)
{
    double z_abs = fabs(z);
    if (z_abs > tau)
        return copysign(nonzero_root(z_abs, c, q, eta, tol), z);
    return z_abs < tau || x_prev == 0.0 ? 0.0 : copysign(eta, z);
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

/* The dynamic loader picks the widest clone the CPU runs, through a glibc
 * ifunc; any other compiler, target or C library builds the plain loop. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef VECTOR_CLONES
#define VECTOR_CLONES
#endif

/* col . r in LANES accumulators: accumulator k adds the products
 * col[j] * r[j] with j % LANES == k, in order of j, and the accumulators
 * are then added pairwise, k + w into k, for w = LANES/2, ..., 2, 1.  The
 * tests' conftest.py repeats this order in numpy. */
#define LANES 32

static double lanes_total(double *acc)
{
    for (int w = LANES / 2; w > 0; w /= 2)
        for (int k = 0; k < w; k++)
            acc[k] += acc[k + w];
    return acc[0];
}

VECTOR_CLONES
static double column_dot(int64_t m, const double *col, const double *r)
{
    double acc[LANES] = {0.0};
    int64_t j = 0;
    for (; j + LANES <= m; j += LANES)
        for (int k = 0; k < LANES; k++)
            acc[k] += col[j + k] * r[j + k];
    for (int k = 0; j + k < m; k++)
        acc[k] += col[j + k] * r[j + k];
    return lanes_total(acc);
}

/* r += d * col, with the bits of numpy's r += d * A[:, i] in every clone. */
VECTOR_CLONES
static void residual_update(int64_t m, double d, const double *col, double *r)
{
    for (int64_t j = 0; j < m; j++)
        r[j] += d * col[j];
}

/* residual_update for four columns in one pass over r: each entry takes
 * the four adds in column order, with the bits of four single calls. */
VECTOR_CLONES
static void residual_update4(int64_t m, const double *d,
                             const double *const *col, double *restrict r)
{
    const double *restrict c0 = col[0], *restrict c1 = col[1],
                 *restrict c2 = col[2], *restrict c3 = col[3];
    for (int64_t j = 0; j < m; j++)
        r[j] = (((r[j] + d[0] * c0[j]) + d[1] * c1[j]) + d[2] * c2[j])
               + d[3] * c3[j];
}

/* Set r = a x - y for the column-major m x n matrix a: r = -y, then
 * r += x_i a_i for each x_i != 0 in column order (a NaN counts as
 * nonzero), four columns per pass over r.  The work is the support's, and
 * the bits are those of adding one column at a time.  Returns r . r,
 * summed as column_dot sums. */
static double refresh(int64_t m, int64_t n, const double *a, const double *x,
                      const double *y, double *r)
{
    const double *col[4];
    double d[4];
    int k = 0;
    for (int64_t j = 0; j < m; j++)
        r[j] = -y[j];
    for (int64_t i = 0; i < n; i++) {
        if (x[i] == 0.0)
            continue;
        d[k] = x[i];
        col[k] = a + i * m;
        if (++k == 4) {
            residual_update4(m, d, col, r);
            k = 0;
        }
    }
    for (int t = 0; t < k; t++)
        residual_update(m, d[t], col[t], r);
    return column_dot(m, r, r);
}

/* a . b, summed as column_dot sums: the norms of the RMSE. */
double lq_dot(int64_t m, const double *a, const double *b)
{
    return column_dot(m, a, b);
}

/* ||u - v||^2 for u, v of length n, through diff = u - v, summed as
 * column_dot sums. */
static double distance_sq(int64_t n, const double *u, const double *v,
                          double *diff)
{
    for (int64_t i = 0; i < n; i++)
        diff[i] = u[i] - v[i];
    return column_dot(n, diff, diff);
}

/* The sum of |x_i|^q, each power from libm's pow, over the x_i != 0 (a
 * NaN counts as nonzero), with *support set to their count.  The powers
 * are added in column_dot's lanes by index, so the sum has the bits of
 * column_dot over all n powers against ones: a zero entry would add
 * exactly 0 to a partial sum that is +0.0, positive or NaN. */
static double penalty(int64_t n, const double *x, double q, int64_t *support)
{
    double acc[LANES] = {0.0};
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (x[i] != 0.0) {
            acc[i % LANES] += pow(fabs(x[i]), q);
            k++;
        }
    }
    *support = k;
    return lanes_total(acc);
}

/* The measure of an iterate x, in one call, with diff scratch space of n
 * doubles: out[0] = ||x - x_before||^2; out[1] = r . r once r = a x - y
 * is refreshed; out[2] the penalty sum; out[3] = ||x - ref||^2, or NaN
 * when ref is NULL.  Then x_before = x, for the next sweep.  Returns the
 * support size. */
int64_t lq_measure(int64_t m, int64_t n, const double *a, const double *x,
                   double *x_before, const double *y, double *r,
                   const double *ref, double q, double *diff, double *out)
{
    int64_t support;
    out[0] = distance_sq(n, x, x_before, diff);
    out[1] = refresh(m, n, a, x, y, r);
    out[2] = penalty(n, x, q, &support);
    out[3] = ref != NULL ? distance_sq(n, x, ref, diff) : NAN;
    memcpy(x_before, x, (size_t)n * sizeof(double));
    return support;
}

/* Sweep the n columns of the column-major m x n matrix a, updating x and
 * the residual r = a x - y in place, with st the screening state
 * described above.  Returns the number of columns that screening
 * skipped. */
int64_t lq_sweep(int64_t m, int64_t n, const double *a, double *x, double *r,
                 double mu, double c, double q, double tau, double eta,
                 double tol, double *st)
{
    double *norm = st, *bound = st + n, *at = st + 2 * n;
    /* r moves by at most `moved` within this call; ||r|| <= r1 + moved */
    double moved = 0.0, lim = MARGIN * (tau / mu);
    /* > gamma_m, which bounds the rounding of column_dot's sum */
    double dot_err = (double)(m + 2) * DBL_EPSILON;
    double slack = 1e-10 + (double)(2 * n + m) * DBL_EPSILON;
    double r1 = screen_enter(m, n, r, st, slack);
    int64_t skipped = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *col = a + i * m;
        double err = dot_err * norm[i] * (r1 + moved);
        if (x[i] == 0.0
            && (bound[i] + norm[i] * moved) * (1.0 + slack) + err <= lim) {
            skipped++;
            continue;
        }
        double dot = column_dot(m, col, r);
        double z = x[i] - mu * dot;
        bound[i] = (fabs(dot) + err) * (1.0 + slack);
        at[i] = moved;
        double xi = threshold(z, x[i], c, q, tau, eta, tol), d = xi - x[i];
        if (d != 0.0) {
            residual_update(m, d, col, r);
            x[i] = xi;
            /* r += d a_i moves r by |d| ||a_i||, plus a rounding per entry */
            moved += (fabs(d) * norm[i] + DBL_EPSILON * (r1 + moved))
                     * (1.0 + slack);
        }
    }
    memcpy(st + 3 * n, r, (size_t)m * sizeof(double));   /* r_end, moved */
    st[3 * n + m] = moved;
    return skipped;
}

/* out[i] = prox_scalar(z[i], x_prev[i]) for i < n. */
void lq_prox(int64_t n, const double *z, const double *x_prev, double c,
             double q, double tau, double eta, double tol, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = threshold(z[i], x_prev[i], c, q, tau, eta, tol);
}

/* Array files.  cli.write_array writes fields of at most 24 characters of
 * [0-9+-.eE]; other characters, and fields longer than this, are refused. */
#define FIELD_MAX 63

static int number_char(char ch)
{
    return (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' || ch == '+'
           || ch == 'e' || ch == 'E';
}

#if (defined(__x86_64__) || defined(__i386__)) && LDBL_MANT_DIG == 64
/* A correctly rounded decimal-to-double conversion, for the fields where
 * it can be proved so.  A decimal of at most 19 significant digits is
 * w * 10^k with an integer w < 10^19 < 2^64.  When |k| <= 27,
 * 10^|k| = 2^|k| * 5^|k| with 5^27 < 2^63, so w and 10^|k| are both exact
 * in the 64-bit significand of the x87 long double, and t = w * 10^k (or
 * w / 10^-k) is the exact value rounded once, to 64 bits: within half a
 * unit of t's last bit.  Converting t to double rounds away its 11 low
 * bits L, counted in those units; the point halfway between two doubles
 * is L = 0x400.  If L <= 0x3fe, the exact value lies below L + 1/2 < 0x400,
 * and if L >= 0x402 above L - 1/2 > 0x401, so rounding t to double rounds
 * it the same way as a single correct rounding of the exact value.  That
 * also holds where t is a power of two, as the error below it is smaller
 * still.  Only L in 0x3ff..0x401 is undecided.  Those fields, and a t that
 * is not a normal double (with these bounds, only zero), return 0 and go
 * to strtod, as does any field this grammar does not take. */
#define FAST_DECIMAL 1

static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L,
    1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L,
    1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

static int is_digit(const char *s, const char *e)
{
    return s < e && *s >= '0' && *s <= '9';
}

static int fast_decimal(const char *s, const char *e, double *v)
{
    int neg = *s == '-', dot = 0, n, k = 0;
    uint64_t w = 0;
    if (*s == '-' || *s == '+')
        s++;
    const char *m = s, *sig;
    while (s < e && *s == '0')   /* a leading zero is not significant */
        s++;
    for (sig = s; is_digit(s, e); s++)
        w = 10 * w + (uint64_t)(*s - '0');
    n = (int)(s - sig);
    if (s < e && *s == '.') {
        const char *f = ++s;
        dot = 1;
        while (n == 0 && s < e && *s == '0')
            s++;
        for (sig = s; is_digit(s, e); s++)
            w = 10 * w + (uint64_t)(*s - '0');
        n += (int)(s - sig);
        k = -(int)(s - f);
    }
    if (n > 19 || s - m == dot)   /* too many digits, or none */
        return 0;
    if (s < e) {   /* the exponent */
        if (*s != 'e' && *s != 'E')
            return 0;
        int eneg = ++s < e && *s == '-', x = 0;
        if (s < e && (*s == '-' || *s == '+'))
            s++;
        if (s == e)
            return 0;
        for (; s < e; s++) {
            if (*s < '0' || *s > '9' || (x = 10 * x + (*s - '0')) > 1000)
                return 0;
        }
        k += eneg ? -x : x;
    }
    if (k < -27 || k > 27)
        return 0;
    long double t = k < 0 ? (long double)w / POW10[-k] : (long double)w * POW10[k];
    uint64_t bits;
    memcpy(&bits, &t, sizeof bits);   /* the significand, integer bit included */
    double d = (double)t;
    if ((bits & 0x7ff) - 0x3ff <= 2 || !isnormal(d))
        return 0;
    *v = neg ? -d : d;
    return 1;
}
#endif

/* The finite double that the whole field [s, e) spells, into *v; 0 when it
 * spells none.  1 <= e - s <= FIELD_MAX.  strtod_l reads in the "C" locale,
 * so LC_NUMERIC's decimal point never matters. */
static int parse_field(const char *s, const char *e, double *v)
{
#ifdef FAST_DECIMAL
    if (fast_decimal(s, e, v))
        return 1;
#endif
    char field[FIELD_MAX + 1], *end;
    size_t n = (size_t)(e - s);
    memcpy(field, s, n);
    field[n] = '\0';
    locale_t c = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c == (locale_t)0)   /* out of memory */
        return 0;
    *v = strtod_l(field, &end, c);
    freelocale(c);
    return end == field + n && isfinite(*v);
}

static const char *skip_blanks(const char *p, const char *end, int lines)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r'
                       || (lines && *p == '\n')))
        p++;
    return p;
}

/* Parse the body of an array file, buf[*pos..len), into out, rows * cols
 * doubles in row order: rows lines of cols fields split by ','.  Spaces,
 * tabs and '\r' may surround a field, blank lines are skipped, and the
 * last line may end at the end of the buffer.  Returns -1, or the index of
 * the first field that could not be read (rows * cols: data goes on past
 * the last row), with *pos the offset of its text. */
int64_t lq_parse(const char *buf, int64_t len, int64_t *pos, int64_t rows,
                 int64_t cols, double *out)
{
    const char *p = buf + *pos, *end = buf + len;
    for (int64_t i = 0; i < rows; i++) {
        for (int64_t j = 0; j < cols; j++) {
            const char *s = p = skip_blanks(p, end, j == 0);
            *pos = s - buf;
            while (p < end && number_char(*p))
                p++;
            if (p == s || p - s > FIELD_MAX || !parse_field(s, p, out++))
                return i * cols + j;
            p = skip_blanks(p, end, 0);
            if (p < end && *p == (j + 1 < cols ? ',' : '\n'))
                p++;
            else if (p < end || j + 1 < cols)
                return i * cols + j;
        }
    }
    p = skip_blanks(p, end, 1);
    *pos = p - buf;
    return p == end ? -1 : rows * cols;
}
