/* The two support-bound passes and the per-fold (rho, z) histograms of
   darkfocus.calibration.reconstruct_potential, the x and y histograms of
   each run of darkfocus.calibration.estimate_na, and the Gaussian CDF and
   KS statistics of darkfocus.calibration.ks_gaussianity_test.

   A value's bin is the one numpy.histogram and numpy.histogram2d give it
   against the same edges: the last edge e[k] <= v (searchsorted right),
   with v equal to the last edge in the last bin, and values outside
   [e[0], e[m]] or NaN dropped.  Arithmetic only guesses the bin;
   comparisons against the edges decide it, so rounding in the guess cannot
   move a sample.  The binning pass bins rho = hypot(x, y), libm's function
   that numpy.hypot calls, from x and y, as sqrt(x x + y y) wherever that
   lands in the bin of hypot(x, y).  The first support-bound pass counts the
   keys (bits >> 48) of that root and of |z|; the second counts the values
   below a window of each and gives the hypot(x, y) and |z| inside it.

   The CDF is 0.5 erfc(-a sqrt(1/2)) with libm's erfc, which the reference
   path reaches through math.erfc, so that both paths give every value the
   same bits.  The KS statistics evaluate it at every eighth sorted point,
   and between those only where the maximum can lie. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Bin of v among the m bins of the non-decreasing edges e[0..m], or -1. */
static inline long bin_of(double v, const double *e, long m, double scale)
{
    if (!(v >= e[0] && v <= e[m]))
        return -1;
    if (v == e[m])
        return m - 1;
    /* v - e[0] >= 0; the guess is clamped before the cast, NaN included */
    double guess = (v - e[0]) * scale;
    long k = guess < (double)m ? (long)guess : m - 1;
    while (v < e[k])
        k--;
    while (v >= e[k + 1])
        k++;
    return k;
}

/* Below and above these, a square of x x + y y may have underflowed or
   overflowed (NaN and infinities fall outside too); between them sqrt(x x
   + y y) is within about one ulp of the exact rho, as hypot is. */
#define SQUARES_LO 1e-280
#define SQUARES_HI 1e280
/* Closer than this many epsilons (relative) to an edge, sqrt(x x + y y)
   and hypot(x, y) may lie on either side of it. */
#define NEAR_EDGE (8 * DBL_EPSILON)

/* rho within 2 epsilon (relative) of hypot(x, y): sqrt(x x + y y) where
   the squares stay in range, else hypot itself. */
static double rho_of(double x, double y)
{
    double s = x * x + y * y;
    return s > SQUARES_LO && s < SQUARES_HI ? sqrt(s) : hypot(x, y);
}

/* Bin of hypot(x, y) among the m bins of e, or -1: the bin of rho_of(x, y)
   where that lies inside a bin and away from its edges, else hypot's. */
static long rho_bin_of(double x, double y, const double *e, long m, double scale)
{
    double r = rho_of(x, y);
    long k = bin_of(r, e, m, scale);
    if (k >= 0 && r - e[k] > NEAR_EDGE * r && e[k + 1] - r > NEAR_EDGE * r)
        return k;
    return bin_of(hypot(x, y), e, m, scale);
}

/* Counts the n samples (hypot(x, y), z) of the rows (x, y, z) of pos into
   counts, a zeroed grid of n_rho x n_z int64, rho along the rows.  r_edges
   and z_edges hold n_rho + 1 and n_z + 1 edges.  Returns the samples
   counted. */
long df_bin_rho_z(const double *pos, long n, const double *r_edges, long n_rho,
                  const double *z_edges, long n_z, int64_t *counts)
{
    double r_scale = n_rho / (r_edges[n_rho] - r_edges[0]);
    double z_scale = n_z / (z_edges[n_z] - z_edges[0]);
    long counted = 0;
    for (long i = 0; i < n; i++) {
        const double *row = pos + 3 * i;
        long r = rho_bin_of(row[0], row[1], r_edges, n_rho, r_scale);
        long z = bin_of(row[2], z_edges, n_z, z_scale);
        if (r >= 0 && z >= 0) {
            counts[r * n_z + z]++;
            counted++;
        }
    }
    return counted;
}

/* The key bits >> 48 of a double, which preserves the order of
   non-negative doubles; from KEY_INF on the double is not finite. */
#define KEY_INF 0x7FF0

static uint64_t key_of(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return bits >> 48;
}

/* The bin of a finite key among span bins from the key first, the
   first and last bins taking every key below and above them. */
static long key_bin(uint64_t key, int64_t first, long span)
{
    int64_t bin = (int64_t)key - first;
    return bin < 0 ? 0 : bin >= span ? span - 1 : (long)bin;
}

/* Counts the keys of rho_of(x, y) and of |z| of the n rows (x, y, z) of pos
   into the span bins of rho_counts and z_counts, zeroed int64, from the
   keys first[0] and first[1] (key_bin).  Returns n, or -1 at a value that
   is not finite. */
long df_key_counts(const double *pos, long n, const int64_t *first, long span,
                   int64_t *rho_counts, int64_t *z_counts)
{
    for (long i = 0; i < n; i++) {
        const double *row = pos + 3 * i;
        uint64_t r = key_of(rho_of(row[0], row[1])), z = key_of(fabs(row[2]));
        if (r >= KEY_INF || z >= KEY_INF)
            return -1;
        rho_counts[key_bin(r, first[0], span)]++;
        z_counts[key_bin(z, first[1], span)]++;
    }
    return n;
}

/* Over the n rows (x, y, z) of pos, with the windows [w[0], w[1]] of
   rho_of(x, y) and [w[2], w[3]] of |z|: counts the values under each
   window into found[0] and found[1], writes hypot(x, y) of the rows whose
   rho_of lies inside its window to rho_out and the |z| inside theirs to
   z_out, at most cap[0] and cap[1], and their numbers to found[2] and
   found[3].  Returns n, or -1 when a window holds more values than its
   cap. */
long df_window_values(const double *pos, long n, const double *w, const int64_t *cap,
                      double *rho_out, double *z_out, int64_t *found)
{
    int64_t below_r = 0, below_z = 0, in_r = 0, in_z = 0;
    for (long i = 0; i < n; i++) {
        const double *row = pos + 3 * i;
        double r = rho_of(row[0], row[1]), z = fabs(row[2]);
        below_r += r < w[0];
        below_z += z < w[2];
        if (r >= w[0] && r <= w[1]) {
            if (in_r == cap[0])
                return -1;
            rho_out[in_r++] = hypot(row[0], row[1]);
        }
        if (z >= w[2] && z <= w[3]) {
            if (in_z == cap[1])
                return -1;
            z_out[in_z++] = z;
        }
    }
    found[0] = below_r;
    found[1] = below_z;
    found[2] = in_r;
    found[3] = in_z;
    return n;
}

/* Counts the x and y columns of the n rows of three numbers pos into the
   mx bins of x_edges and the my bins of y_edges, as numpy.histogram(pos[:,
   0], x_edges) and numpy.histogram(pos[:, 1], y_edges) do: x_counts and
   y_counts hold mx and my zeroed int64.  Returns the rows read. */
long df_bin_xy(const double *pos, long n, const double *x_edges, long mx,
               const double *y_edges, long my, int64_t *x_counts, int64_t *y_counts)
{
    double x_scale = mx / (x_edges[mx] - x_edges[0]);
    double y_scale = my / (y_edges[my] - y_edges[0]);
    for (long i = 0; i < n; i++) {
        long kx = bin_of(pos[3 * i], x_edges, mx, x_scale);
        long ky = bin_of(pos[3 * i + 1], y_edges, my, y_scale);
        if (kx >= 0)
            x_counts[kx]++;
        if (ky >= 0)
            y_counts[ky]++;
    }
    return n;
}

/* The standard normal CDF, 0.5 erfc(-a sqrt(1/2)) with libm's erfc, the
   function Python's math.erfc calls; NaN gives NaN. */
static double ndtr(double a)
{
    return 0.5 * erfc(-a * 7.07106781186547524401E-1);
}

/* the anchors' spacing in df_ks_rows, and how far the computed ndtr may
   fall between two points in order: libm's erfc is not guaranteed
   monotone, only accurate to an ulp or so, which this far exceeds */
enum { KS_STRIDE = 8 };
static const double KS_SLACK = 1e-12;

/* the largest of d and the two KS differences of sorted point i of n whose
   CDF is c: (i + 1) / n - c and c - i / n */
static double ks_terms(double d, double c, long i, long n)
{
    double above = (double)(i + 1) / (double)n, below = (double)i / (double)n;
    if (above - c > d)
        d = above - c;
    if (c - below > d)
        d = c - below;
    return d;
}

/* The KS statistic of each of the rows sorted rows of n finite values x
   against the Gaussian of mean mu[r] and standard deviation sigma[r]: with
   c = ndtr((x - mu) / sigma), the largest of (i + 1) / n - c[i] and
   c[i] - i / n, the numbers numpy computes for the same expression.  Their
   maximum is at least 1 / (2 n), so 0 starts it.

   ndtr is evaluated at the anchors, every KS_STRIDE-th point and the last,
   and the maximum taken over theirs.  Between anchors a < b the CDF rises,
   so a point i inside has (i + 1) / n - c[i] <= b / n - c[a] and
   c[i] - i / n <= c[b] - (a + 1) / n, each to within KS_SLACK; the points
   inside are evaluated only when either bound reaches the maximum so far
   less KS_SLACK (or is NaN), which leaves out only points below it: the
   maximum over every point, with the same bits.  Returns rows, or -1 when
   the anchors' scratch cannot be allocated. */
long df_ks_rows(const double *x, long rows, long n, const double *mu,
                const double *sigma, double *out)
{
    long anchors = n < 1 ? 0 : (n + KS_STRIDE - 2) / KS_STRIDE + 1;
    double *c = malloc(((size_t)anchors + 1) * sizeof *c); /* one for n = 0 too */
    if (c == NULL)
        return -1;
    for (long r = 0; r < rows; r++) {
        const double *row = x + r * n;
        double m = mu[r], s = sigma[r], d = 0.0;
        for (long j = 0; j < anchors; j++) {
            long i = j * KS_STRIDE < n - 1 ? j * KS_STRIDE : n - 1;
            c[j] = ndtr((row[i] - m) / s);
            d = ks_terms(d, c[j], i, n);
        }
        for (long j = 0; j + 1 < anchors; j++) {
            long a = j * KS_STRIDE;
            long b = a + KS_STRIDE < n - 1 ? a + KS_STRIDE : n - 1;
            if ((double)b / (double)n - c[j] <= d - KS_SLACK
                && c[j + 1] - (double)(a + 1) / (double)n <= d - KS_SLACK)
                continue;
            for (long i = a + 1; i < b; i++)
                d = ks_terms(d, ndtr((row[i] - m) / s), i, n);
        }
        out[r] = d;
    }
    free(c);
    return rows;
}
