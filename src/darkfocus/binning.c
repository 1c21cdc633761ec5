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

   The CDF is Cephes' ndtr, as scipy.special.ndtr computes it: the same
   coefficients, thresholds and Horner order, and exp from libm, so that
   without contraction every value has scipy's bits.  The KS statistics
   evaluate it at every eighth sorted point, and between those only where
   the maximum can lie. */

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

/* Cephes' erfc numerator and denominator on [1, 8) (P, Q) and [8, inf)
   (R, S), and erf's on [0, 1] in x * x (T, U); Q, S and U have the leading
   coefficient 1 left out. */
static const double NDTR_P[] = {
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2};
static const double NDTR_Q[] = {
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2};
static const double NDTR_R[] = {
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0};
static const double NDTR_S[] = {
    2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0};
static const double NDTR_T[] = {
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4};
static const double NDTR_U[] = {
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4};
static const double SQRT1_2 = 7.07106781186547524401E-1;
static const double MAXLOG = 7.09782712893383996843E2; /* log(DBL_MAX) */

/* c[0] x^n + ... + c[n], by Horner */
static double polevl(double x, const double *c, int n)
{
    double y = c[0];
    for (int i = 1; i <= n; i++)
        y = y * x + c[i];
    return y;
}

/* x^n + c[0] x^(n-1) + ... + c[n-1], by Horner */
static double p1evl(double x, const double *c, int n)
{
    double y = x + c[0];
    for (int i = 1; i < n; i++)
        y = y * x + c[i];
    return y;
}

/* erf(x) for |x| <= 1; Cephes' -erf(-x) for x < 0 has the same bits */
static double erf_small(double x)
{
    double z = x * x;
    return x * polevl(z, NDTR_T, 4) / p1evl(z, NDTR_U, 5);
}

/* erfc(x) for x >= 1 / sqrt(2), 0 where exp(-x * x) would underflow */
static double erfc_large(double x)
{
    if (x < 1.0)
        return 1.0 - erf_small(x);
    double z = -x * x;
    if (z < -MAXLOG)
        return 0.0;
    z = exp(z);
    if (x < 8.0)
        return (z * polevl(x, NDTR_P, 8)) / p1evl(x, NDTR_Q, 8);
    return (z * polevl(x, NDTR_R, 5)) / p1evl(x, NDTR_S, 6);
}

static double ndtr(double a)
{
    if (isnan(a))
        return NAN;
    double x = a * SQRT1_2;
    double z = fabs(x);
    if (z < SQRT1_2)
        return 0.5 + 0.5 * erf_small(x);
    double y = 0.5 * erfc_large(z);
    return x > 0 ? 1.0 - y : y;
}

/* out[i] = scipy.special.ndtr(a[i]) for the n values a.  Returns n. */
long df_ndtr(const double *a, long n, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = ndtr(a[i]);
    return n;
}

/* the anchors' spacing in df_ks_rows, and how far the computed ndtr may
   fall between two points in order */
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
