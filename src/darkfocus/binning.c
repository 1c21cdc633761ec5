/* Per-fold (rho, z) histogram of darkfocus.calibration.reconstruct_potential,
   and the x and y histograms of each run of darkfocus.calibration.estimate_na.

   One pass over the samples counts each one into the grid of its fold, the
   folds being the contiguous pieces numpy.array_split cuts: the first
   n % n_folds hold n / n_folds + 1 samples, the others n / n_folds.  A
   value's bin is the one numpy.histogram and numpy.histogramdd give it
   against the same edges: the last edge e[k] <= v (searchsorted right),
   with v equal to the last edge in the last bin, and values outside
   [e[0], e[m]] or NaN dropped.  Arithmetic only guesses the bin;
   comparisons against the edges decide it, so rounding in the guess cannot
   move a sample. */

#include <stdint.h>

/* Bin of v among the m bins of the non-decreasing edges e[0..m], or -1. */
static long bin_of(double v, const double *e, long m, double scale)
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

/* Counts the n samples (rho[i], pos[3 i + 2]) into counts, which holds
   n_folds zeroed grids of n_rho x n_z int64, rho along the rows.  r_edges
   and z_edges hold n_rho + 1 and n_z + 1 edges.  Returns the samples
   counted. */
long df_bin_rho_z(const double *rho, const double *pos, long n, long n_folds,
                  const double *r_edges, long n_rho, const double *z_edges, long n_z,
                  int64_t *counts)
{
    double r_scale = n_rho / (r_edges[n_rho] - r_edges[0]);
    double z_scale = n_z / (z_edges[n_z] - z_edges[0]);
    long base = n / n_folds, extra = n % n_folds, i = 0, counted = 0;
    for (long f = 0; f < n_folds; f++) {
        int64_t *grid = counts + f * n_rho * n_z;
        long end = i + base + (f < extra);
        for (; i < end; i++) {
            long r = bin_of(rho[i], r_edges, n_rho, r_scale);
            long z = bin_of(pos[3 * i + 2], z_edges, n_z, z_scale);
            if (r >= 0 && z >= 0) {
                grid[r * n_z + z]++;
                counted++;
            }
        }
    }
    return counted;
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
