"""Trap calibration from position data.

Boltzmann inversion of histograms recovers the potential; the quartic model
is fitted to it with uncertainties from five-fold data splits.  A sweep of
simulated numerical apertures against a measured ensemble locates the trap
NA by Kullback-Leibler divergence minimization, which for histogram
likelihoods is maximum-likelihood estimation over the sweep family.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks, _compiled, _parallel, dynamics
from ._text import write_values
from .beam import BeamParams
from .dynamics import SimConfig, Trajectory, spawn_seeds
from .forces import (BOLTZMANN, ParticleMedium, QuarticCoefficients, _least_squares,
                     _quartic_potential, quartic_coefficients)
from .spectral import NumericalError, _run_corner_frequency

__all__ = [
    "EmpiricalPdf",
    "KsResult",
    "PotentialReconstruction",
    "NaSweepResult",
    "histogram_pdf",
    "kl_divergence",
    "ks_gaussianity_test",
    "reconstruct_potential",
    "estimate_na",
    "decorrelation_stride",
]


@dataclass(frozen=True)
class EmpiricalPdf:
    """Normalized 1-D histogram density with its binning metadata."""

    bin_edges: np.ndarray
    density: np.ndarray
    n_samples: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if edges.ndim != 1 or len(edges) != len(dens) + 1:
            raise ValueError("bin_edges must have one more entry than density")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        total = float(np.sum(dens * np.diff(edges)))
        if not abs(total - 1.0) <= 1e-9:  # a NaN total too
            raise ValueError(f"density must integrate to 1, got {total}")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "density", dens)

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def widths(self):
        return np.diff(self.bin_edges)


def histogram_pdf(samples, bins="fd", pseudocount: float = 0.0) -> EmpiricalPdf:
    """Normalized histogram of 1-D samples.

    bins follows numpy.histogram ('fd' by default); a pseudocount assigned
    to empty bins before normalization keeps the density positive for use
    as the reference side of a KL divergence.
    """
    if np.ndim(samples) != 1:
        raise ValueError(f"samples must be 1-D, got shape {np.shape(samples)}")
    # one copy of a strided column, which every pass below then reads contiguous
    x = np.ascontiguousarray(samples, dtype=float)
    if len(x) < 100:
        raise ValueError(f"need at least 100 samples, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate sample set: zero variance")
    counts, edges = np.histogram(x, bins=bins)
    return _counts_pdf(counts, edges, len(x), pseudocount)


def _counts_pdf(counts, edges, n_samples, pseudocount) -> EmpiricalPdf:
    """The density of integer bin counts, with empty bins set to the
    pseudocount before normalization."""
    if pseudocount == 0 and not counts.any():
        raise ValueError(f"no sample falls in the bins [{float(edges[0])!r}, "
                         f"{float(edges[-1])!r}] and the pseudocount is 0")
    counts = counts.astype(float)
    counts[counts == 0.0] = pseudocount
    norm = float(np.sum(counts * np.diff(edges)))
    return EmpiricalPdf(bin_edges=edges, density=counts / norm, n_samples=n_samples)


def kl_divergence(p: EmpiricalPdf, q: EmpiricalPdf) -> float:
    """D(p || q) = sum p ln(p/q) dx in nats on a shared binning.

    Zero exactly when the densities agree bin-wise; infinite when q
    vanishes where p does not (regularize q with a pseudocount first).
    The edges must agree to 1e-9 of the narrowest bin: build q with
    ``histogram_pdf(..., bins=p.bin_edges)``.
    """
    if len(p.bin_edges) != len(q.bin_edges) or not np.allclose(
            p.bin_edges, q.bin_edges, rtol=0.0, atol=1e-9 * p.widths.min()):
        raise ValueError("pdfs are on different grids; use histogram_pdf(..., bins=p.bin_edges)")
    widths = p.widths
    mask = p.density > 0
    if np.any(q.density[mask] == 0):
        return math.inf
    terms = p.density[mask] * np.log(p.density[mask] / q.density[mask]) * widths[mask]
    val = float(np.sum(terms))
    return max(val, 0.0) if val > -1e-9 else val


_KS_NULL_CACHE = {}
KS_NULL_SEED = 918273  # seed of the Monte Carlo KS null table
DECORRELATION_TIMES = 3.0  # correlation times gamma/k per decorrelated sample


def _ndtr(a):
    """The standard normal CDF of the array a, 0.5 * erfc(-a * sqrt(1/2)),
    with erfc from libm through math.erfc, the function binning.c's ndtr
    calls, so both give the same bits (numpy has no erfc)."""
    x = -np.ravel(a) * math.sqrt(0.5)
    cdf = 0.5 * np.fromiter(map(math.erfc, x), float, len(x))
    return cdf.reshape(np.shape(a))


def _ks_statistics(x, library):
    """KS statistic of each row of the 2-D array x of finite values against
    a Gaussian with that row's own mean and standard deviation, by
    binning.c's df_ks_rows when library is the compiled library, else by
    the same arithmetic in numpy; sorts the rows in place.  The CDF is
    0.5 * erfc(-a * sqrt(1/2)) with libm's erfc on both paths (_ndtr), so
    both give the same bits."""
    n = x.shape[1]
    mu = np.mean(x, axis=1)
    sigma = np.std(x, axis=1, ddof=1)
    x.sort(axis=1)
    if library is not None:
        out = np.empty(len(x))
        if library.df_ks_rows(x, len(x), n, mu, sigma, out) < 0:
            raise MemoryError("df_ks_rows cannot allocate its scratch")
        return out
    cdf = _ndtr((x - mu[:, None]) / sigma[:, None])
    ranks = np.arange(n + 1) / n
    return np.maximum((ranks[1:] - cdf).max(axis=1), (cdf - ranks[:-1]).max(axis=1))


def _ks_null_table(n, n_null, seed):
    """Sorted KS statistics of n_null standard-normal samples of size n, each
    against a Gaussian with its own mean and standard deviation.

    Rows are drawn on the calling thread by dynamics._standard_normals
    (integrator.c's copy of numpy's ziggurat, or numpy without a compiler),
    in blocks of at most about 16 MB and at least four per usable core,
    which continues the stream of one standard_normal(n) draw per row; the
    blocks are reduced on darkfocus._parallel.ordered_map, so the table is
    the same at every width.
    """
    key = (n, n_null, seed)
    table = _KS_NULL_CACHE.get(key)
    if table is None:
        rng = np.random.default_rng(seed)
        rows = max(1, min((2 << 20) // n, math.ceil(n_null / (4 * _parallel.width()))))
        blocks = (dynamics._standard_normals(rng, (min(rows, n_null - start), n), 1.0)
                  for start in range(0, n_null, rows))
        reduce = functools.partial(_ks_statistics, library=_compiled.load())
        table = np.sort(np.concatenate(list(_parallel.ordered_map(reduce, blocks))))
        _KS_NULL_CACHE[key] = table
    return table


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    reject: bool
    n_samples: int


def ks_gaussianity_test(samples, significance: float = 0.05,
                        n_null: int = 500) -> KsResult:
    """Two-sided KS test of the samples against a Gaussian with their own
    mean and variance.

    Because the reference parameters are estimated from the data, the
    plain asymptotic KS distribution is far too conservative; the null
    distribution of the statistic is therefore calibrated by Monte Carlo
    (it depends only on the sample size), so that the stated significance
    is the actual false-positive rate.  Samples should be decorrelated
    beforehand (see decorrelation_stride).  Samples that are not 1-D,
    fewer than 1000 samples, a NaN or infinite sample, samples of zero
    spread and an n_null that is not an integer >= 1 raise ValueError.
    """
    if np.ndim(samples) != 1:
        raise ValueError(f"samples must be 1-D, got shape {np.shape(samples)}")
    # one copy of a strided column, which every pass below then reads contiguous
    x = np.ascontiguousarray(samples, dtype=float)
    if len(x) < 1000:
        raise ValueError(f"need at least 1000 samples, got {len(x)}")
    _checks.real("significance", significance, above=0.0, below=1.0)
    _checks.count("n_null", n_null, 1)
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite, got NaN or inf")
    if x.min() == x.max():
        raise ValueError("samples have zero spread: every sample is the same")
    with np.errstate(all="ignore"):
        spread = np.std(x, ddof=1)
    if not 0 < spread < math.inf:
        raise ValueError(f"the samples' standard deviation underflows or overflows "
                         f"({spread!r}); rescale them")
    d = _ks_statistics(x[None, :].copy(), _compiled.load())[0]
    table = _ks_null_table(len(x), n_null, KS_NULL_SEED)
    n_ge = len(table) - np.searchsorted(table, d, side="left")
    p_value = (1.0 + n_ge) / (n_null + 1.0)
    return KsResult(statistic=float(d), p_value=float(p_value),
                    reject=bool(p_value < significance), n_samples=len(x))


def decorrelation_stride(drag: float, stiffness: float, dt: float) -> int:
    """Subsampling stride of DECORRELATION_TIMES correlation times gamma/k."""
    for name, value in (("drag", drag), ("stiffness", stiffness), ("dt", dt)):
        _checks.real(name, value, above=0.0)
    # on Python floats, which overflow to inf without a numpy warning
    stride = DECORRELATION_TIMES * (float(drag) / float(stiffness)) / float(dt)
    if stride == math.inf:
        raise ValueError(f"the ratio gamma/(k dt) overflows: drag={drag!r}, "
                         f"stiffness={stiffness!r}, dt={dt!r}")
    return max(1, math.ceil(stride))


@dataclass(frozen=True)
class PotentialReconstruction:
    """Boltzmann-inverted potential surface and the fitted quartic model.

    The potential grid is over (rho, z) with the minimum pinned at zero;
    bins outside the sampled support hold NaN.  Coefficient uncertainties
    are standard deviations over the n_folds_fitted of the n_folds splits
    of the input samples whose fit succeeded (NaN below two).
    """

    rho_centers: np.ndarray
    z_centers: np.ndarray
    v_grid: np.ndarray  # J, NaN where unsupported
    coefficients: QuarticCoefficients
    uncertainties: tuple
    temperature: float
    n_samples: int
    n_folds: int
    n_folds_fitted: int

    def save(self, path):
        c, u = self.coefficients, self.uncertainties
        write_values(path, {
            "k_z": c.k_z, "k_z_err": u[0], "k_rho_z": c.k_rho_z, "k_rho_z_err": u[1],
            "k_rho": c.k_rho, "k_rho_err": u[2], "temperature": self.temperature,
            "n_samples": self.n_samples, "n_folds": self.n_folds,
            "n_folds_fitted": self.n_folds_fitted,
        })


def _edges(lo, hi, n_bins):
    """The edges numpy.histogram2d puts on range (lo, hi): an empty range
    widened by 0.5 either side, then n_bins equal bins."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, n_bins + 1)


# the quantile of rho and of |z| that bounds the reconstruction grid
_SUPPORT_QUANTILE = 0.995
# rows of a block of the support-bound passes and of the reference binning
_BLOCK_ROWS = 1 << 12
# where x x + y y leaves this range a square may have underflowed or
# overflowed (NaN falls outside too), as binning.c's rho_bin_of takes it;
# inside it sqrt(x x + y y) is within 2 epsilon (relative) of hypot(x, y)
_SQUARES_LO, _SQUARES_HI = 1e-280, 1e280
# the relative margin a window of approximate rho values is widened by: more
# than twice their error and the rounding of the window's ends, and far
# less than the span of a key
_MARGIN = 16 * np.finfo(float).eps
# The key bits >> 48 of a non-negative double preserves order and spans a
# sixteenth of a binade; from _KEY_INF on the double is not finite.  A key
# histogram counts _KEY_SPAN keys from a first one, the lowest and highest
# of its bins holding every key below and above them.
_KEY_INF = 0x7FF0
_KEY_SPAN = 1024


def _rho_rows(block):
    """rho of a block of (x, y, z) rows, within 2 epsilon of numpy.hypot(x,
    y): sqrt(x x + y y), and hypot where x x + y y leaves (_SQUARES_LO,
    _SQUARES_HI), as binning.c's rho_of derives it.  The caller ignores
    numpy's overflow and invalid errors."""
    x, y = block[:, 0], block[:, 1]
    rho = x * x
    rho += y * y
    odd = None
    if not (rho.min() > _SQUARES_LO and rho.max() < _SQUARES_HI):
        odd = np.flatnonzero(~((rho > _SQUARES_LO) & (rho < _SQUARES_HI)))
    np.sqrt(rho, out=rho)
    if odd is not None:
        rho[odd] = np.hypot(x[odd], y[odd])
    return rho


def _keys(values):
    return np.right_shift(values.view(np.int64), 48)


def _first_keys(pos):
    """The first key of the histograms of rho and of |z|: half a span below
    the median key of about a thousand evenly spaced rows, and within
    [0, _KEY_INF - _KEY_SPAN]."""
    sample = pos[::max(1, len(pos) // 1000)]
    with np.errstate(over="ignore", invalid="ignore"):
        keys = [_keys(np.hypot(sample[:, 0], sample[:, 1])), _keys(np.abs(sample[:, 2]))]
    return np.array([min(max(int(np.median(k)) - _KEY_SPAN // 2, 0), _KEY_INF - _KEY_SPAN)
                     for k in keys])


def _key_counts(pos, start, stop, first, library):
    """The (2, _KEY_SPAN) int64 key histograms of rho (_rho_rows) and of |z|
    over the rows [start, stop) of pos, from the keys first; None when a
    value is not finite.  binning.c's df_key_counts counts them when library
    is the compiled library, else numpy in blocks of _BLOCK_ROWS rows; both
    derive rho alike and give the same counts."""
    counts = np.zeros((2, _KEY_SPAN), dtype=np.int64)
    if library is not None:
        found = library.df_key_counts(pos[start:stop], stop - start, first, _KEY_SPAN, *counts)
        return counts if found >= 0 else None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(start, stop, _BLOCK_ROWS):
            block = pos[i:min(i + _BLOCK_ROWS, stop)]
            for axis, values in enumerate((_rho_rows(block), np.abs(block[:, 2]))):
                if not values.max() < math.inf:  # NaN too
                    return None
                keys = _keys(values)
                np.clip(keys, first[axis], first[axis] + _KEY_SPAN - 1, out=keys)
                keys -= first[axis]
                counts[axis] += np.bincount(keys, minlength=_KEY_SPAN)
    return counts


def _window_values(pos, start, stop, windows, caps, library):
    """For rho and for |z| of the rows [start, stop) of pos: the number of
    values below their window (lo, hi) of windows and the values inside it,
    rho's as numpy.hypot gives them.  binning.c's df_window_values finds
    them when library is the compiled library, at most caps[axis] inside
    each window, else numpy in blocks of _BLOCK_ROWS rows."""
    if library is not None:
        inside, found = [np.empty(cap) for cap in caps], np.zeros(4, dtype=np.int64)
        if library.df_window_values(pos[start:stop], stop - start, np.ravel(windows), caps,
                                    *inside, found) < 0:
            raise RuntimeError("df_window_values found more values in a window than its cap")
        return [(int(found[axis]), inside[axis][:found[2 + axis]].copy()) for axis in (0, 1)]
    below, inside = [0, 0], [[], []]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(start, stop, _BLOCK_ROWS):
            block = pos[i:min(i + _BLOCK_ROWS, stop)]
            for axis, values in enumerate((_rho_rows(block), np.abs(block[:, 2]))):
                lo, hi = windows[axis]
                below[axis] += np.count_nonzero(values < lo)
                rows = np.flatnonzero((values >= lo) & (values <= hi))
                inside[axis].append(values[rows] if axis
                                    else np.hypot(block[rows, 0], block[rows, 1]))
    return [(below[axis], np.concatenate(inside[axis])) for axis in (0, 1)]


def _support_bounds(pos, q):
    """The q quantiles of |z| and of rho = numpy.hypot(x, y) of the
    C-contiguous (n, 3) positions pos, numpy.quantile's to the bit, from two
    passes over blocks of contiguous rows on darkfocus._parallel.ordered_map,
    at least four per usable core and none shorter than _BLOCK_ROWS, which
    hold no column of n values.

    numpy's linear method: the virtual index (n - 1) q falls between the
    order statistics k = floor of it and k + 1 (k itself at index n - 1),
    and numpy's _lerp between them counts back from the upper one once the
    fraction reaches 1/2.  The first pass counts the keys of |z| and of an
    approximate rho (_rho_rows), and checks every value is finite: a NaN or
    infinite coordinate raises ValueError, as does (saying so) a finite x
    and y whose hypot overflows.  The bins of statistics k and k + 1 bound a
    window of values, widened by _MARGIN for rho.  The second pass counts
    the values below each window and keeps the few inside it, with rho's
    exact hypot: no value below its window can be statistic k, none above it
    statistic k + 1, so they are those of the values inside."""
    n = len(pos)
    rows = max(_BLOCK_ROWS, -(-n // (4 * _parallel.width())))
    starts = range(0, n, rows)
    library = _compiled.load()
    first = _first_keys(pos)
    counts = list(_parallel.ordered_map(
        lambda i: _key_counts(pos, i, min(i + rows, n), first, library), starts))
    if any(c is None for c in counts):
        if np.isfinite(pos).all():
            raise ValueError("rho = hypot(x, y) overflows for finite samples; rescale them")
        raise ValueError("samples must be finite")
    index = (n - 1) * q
    k = min(math.floor(index), n - 1)
    k1 = min(k + 1, n - 1)
    windows, spans = [], []
    for hist, start, margin in zip(sum(counts), first.tolist(), (_MARGIN, 0.0)):
        b, b1 = np.searchsorted(np.cumsum(hist), (k, k1), side="right").tolist()
        lo, hi = np.left_shift(np.array([start + b, start + b1 + 1]), 48).view(np.float64)
        # the first and last bins hold every key below and above them
        windows.append((float(lo) * (1 - margin) if b else 0.0,
                        float(hi) * (1 + margin) if b1 < _KEY_SPAN - 1 else math.inf))
        # the window lies within these bins
        spans.append(slice(max(b - 1, 0), b1 + 2))
    # the values of a block of rows inside a window are at most its counts in those bins
    caps = [np.array([c[axis, spans[axis]].sum() for axis in (0, 1)]) for c in counts]
    del counts
    picked = list(_parallel.ordered_map(
        lambda i: _window_values(pos, i * rows, min((i + 1) * rows, n), windows, caps[i],
                                 library), range(len(starts))))
    bounds = []
    for axis in (1, 0):
        below = sum(p[axis][0] for p in picked)
        values = np.concatenate([p[axis][1] for p in picked])
        values.partition((k - below, k1 - below))
        lower, upper = float(values[k - below]), float(values[k1 - below])
        gamma = index - k
        diff = upper - lower
        bounds.append(upper - diff * (1 - gamma) if gamma >= 0.5 else lower + diff * gamma)
    return tuple(bounds)


def _fold_counts(positions, n_folds, r_edges, z_edges):
    """(n_folds, rho bins, z bins) int64 histogram of (hypot(x, y), z) of
    the (n, 3) positions over the contiguous folds of numpy.array_split,
    binned once per fold by binning.c on darkfocus._parallel.ordered_map
    when it builds, else by numpy.histogram2d of numpy.hypot per block of
    _BLOCK_ROWS rows of each fold, the block grids added; both give the same
    counts."""
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    counts = np.zeros((n_folds, len(r_edges) - 1, len(z_edges) - 1), dtype=np.int64)
    # row slices of the C-contiguous positions, contiguous themselves
    folds = np.array_split(positions, n_folds)
    library = _compiled.load()
    if library is None:
        for grid, pos in zip(counts, folds):
            for start in range(0, len(pos), _BLOCK_ROWS):
                block = pos[start:start + _BLOCK_ROWS]
                grid += np.histogram2d(np.hypot(block[:, 0], block[:, 1]), block[:, 2],
                                       bins=[r_edges, z_edges])[0].astype(np.int64)
        return counts

    def count(f):
        pos = folds[f]
        return library.df_bin_rho_z(pos, len(pos), r_edges, len(r_edges) - 1, z_edges,
                                    len(z_edges) - 1, counts[f])

    for _ in _parallel.ordered_map(count, range(n_folds)):
        pass
    return counts


def _fit_quartic_once(counts, r_edges, z_edges, temperature, min_count):
    """Quartic strengths (k_z, k_rho_z, k_rho) and the (rho centers, z
    centers, potential grid) fitted to one (rho, z) count grid."""
    rc = 0.5 * (r_edges[:-1] + r_edges[1:])
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    rr, zz = np.meshgrid(rc, zc, indexing="ij")
    mask = counts >= min_count
    # bins at the support edge are partially covered (domain walls, range
    # clipping) and bias the inverted potential; keep interior bins only.
    # the rho = 0 column is a true interior boundary, so pad it as populated;
    # every other border is empty.  a bin stays if its four neighbours are kept.
    padded = np.pad(mask, 1)
    padded[0, 1:-1] = mask[0]
    mask = (mask & padded[:-2, 1:-1] & padded[2:, 1:-1]
            & padded[1:-1, :-2] & padded[1:-1, 2:])
    if mask.sum() < 8:
        raise NumericalError("too few populated bins to constrain the quartic model")
    # counts ~ exp(-V/kBT) * 2 pi rho drho dz: divide out the radial measure
    v = -BOLTZMANN * temperature * (np.log(counts[mask]) - np.log(rr[mask]))
    weights = np.sqrt(counts[mask])  # var(ln n) ~ 1/n
    # columns: the quartic potential at each unit coefficient vector, the offset;
    # far from unit scale they overflow or underflow (refused by the solve)
    with np.errstate(over="ignore", invalid="ignore"):
        design = np.column_stack([
            *(_quartic_potential(*unit)(rr[mask], zz[mask]) for unit in np.eye(3)),
            np.ones(int(mask.sum())),
        ]) * weights[:, None]
    sol = _least_squares(design, v * weights)
    v_grid = np.full(counts.shape, np.nan)
    v_grid[mask] = v
    v_grid -= np.nanmin(v_grid)
    return sol[:3], (rc, zc, v_grid)


def reconstruct_potential(
    samples,
    temperature: float,
    n_bins: int = 40,
    n_folds: int = 5,
    min_count: int = 20,
) -> PotentialReconstruction:
    """Fit the quartic trap model to the Boltzmann-inverted sample density.

    samples is an (N, 3) array of finite positions.  The (rho, z) histogram
    is inverted to a potential surface, and the three quartic strengths are
    obtained by count-weighted linear least squares over the populated
    bins.  Uncertainties are the standard deviation of the per-fold
    estimates over `n_folds` contiguous splits of the samples; folds whose
    fit fails are dropped and counted out of n_folds_fitted.

    The grid spans the _SUPPORT_QUANTILE quantiles of rho = hypot(x, y)
    and |z|, which are numpy.quantile's to the bit: two passes over blocks
    of rows side by side check every sample is finite and find them
    (_support_bounds), with hypot on the few values near each bound.  Every
    sample is then binned once, into the grid of its fold, with rho derived
    from x and y, the folds side by side; the whole-sample fit takes the
    sum of the fold grids, which is its histogram exactly.  Besides
    C-contiguous float64 samples, which it reads in place, it holds no
    column of n values: blocks of rows, small histograms and the values near
    the bounds.  Every output is the same bits at every width and on the
    no-compiler reference path.
    """
    pos = np.ascontiguousarray(samples, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("samples must have shape (N, 3)")
    if len(pos) < 1000:
        raise ValueError("need at least 1000 samples for a reconstruction")
    _checks.real("temperature", temperature, above=0.0)
    for name, value in (("n_bins", n_bins), ("n_folds", n_folds), ("min_count", min_count)):
        _checks.count(name, value, 1)

    z_max, rho_max = _support_bounds(pos, _SUPPORT_QUANTILE)
    r_edges = _edges(0.0, rho_max, n_bins)
    z_edges = _edges(-z_max, z_max, n_bins)
    counts = _fold_counts(pos, n_folds, r_edges, z_edges)

    coef, (rc, zc, v_grid) = _fit_quartic_once(
        counts.sum(axis=0), r_edges, z_edges, temperature, min_count
    )
    fold_coefs = []
    for fold in counts:
        try:
            fc, _ = _fit_quartic_once(fold, r_edges, z_edges, temperature,
                                      max(min_count // n_folds, 4))
            fold_coefs.append(fc)
        except NumericalError:
            continue
    if len(fold_coefs) >= 2:
        sigma = tuple(float(s) for s in np.std(np.array(fold_coefs), axis=0, ddof=1))
    else:
        sigma = (math.nan, math.nan, math.nan)

    return PotentialReconstruction(
        rho_centers=rc,
        z_centers=zc,
        v_grid=v_grid,
        coefficients=QuarticCoefficients(*coef),
        uncertainties=sigma,
        temperature=temperature,
        n_samples=len(pos),
        n_folds=n_folds,
        n_folds_fitted=len(fold_coefs),
    )


@dataclass(frozen=True)
class NaSweepResult:
    """Per-NA divergences and corner frequencies from a sweep, plus the
    maximum-likelihood NA and its corner-frequency cross-check."""

    na_values: np.ndarray
    kl: np.ndarray
    fc: np.ndarray
    fc_err: np.ndarray
    valid: np.ndarray
    argmin_na: float
    fc_compatible: np.ndarray
    fc_interval: tuple | None

    def save(self, path):
        with open(path, "w") as fh:
            fh.write("na kl fc fc_err valid\n")
            for i, na in enumerate(self.na_values.tolist()):
                fh.write(
                    f"{na!r} {float(self.kl[i])!r} {float(self.fc[i])!r} "
                    f"{float(self.fc_err[i])!r} {int(self.valid[i])}\n"
                )
            fh.write(f"# argmin_na={self.argmin_na!r}\n")
            if self.fc_interval is not None:
                fh.write(f"# fc_interval={self.fc_interval[0]!r} {self.fc_interval[1]!r}\n")


def _target_marginals(target):
    if isinstance(target, Trajectory):
        x, y = target.positions[:, 0], target.positions[:, 1]
    else:
        x, y = target
    return histogram_pdf(x, bins="fd"), histogram_pdf(y, bins="fd")


def _xy_counts(positions, x_edges, y_edges):
    """numpy.histogram(positions[:, axis], bins=edges)[0] of an (n, 3) array
    for its x and y columns, counted in one pass by binning.c when it builds;
    both give the same counts."""
    library = _compiled.load()
    if library is None:
        return [np.histogram(positions[:, axis], bins=edges)[0]
                for axis, edges in enumerate((x_edges, y_edges))]
    x_edges, y_edges = (np.ascontiguousarray(e, dtype=float) for e in (x_edges, y_edges))
    counts = [np.zeros(len(e) - 1, dtype=np.int64) for e in (x_edges, y_edges)]
    library.df_bin_xy(np.ascontiguousarray(positions), len(positions), x_edges,
                      len(x_edges) - 1, y_edges, len(y_edges) - 1, *counts)
    return counts


def _reduce_run(traj: Trajectory, burn_in, marginals):
    """A finished sweep run reduced to the integer counts of its x and y
    samples after burn_in on the marginals' edges and its corner frequency
    (None when the fit fails); None for a run that escaped."""
    if traj.escape is not None:
        return None
    counts = _xy_counts(traj.positions[burn_in:], *(p.bin_edges for p in marginals))
    return counts, _run_corner_frequency(traj, burn_in)


def estimate_na(
    target,
    na_values,
    particle: ParticleMedium,
    beam_template: BeamParams,
    dt: float,
    n_steps: int,
    n_reps: int = 4,
    seed: int = 0,
    target_fc: tuple | None = None,
    burn_in: int = 200,
    boundary: str = "absorb",
    domain_bound: float | None = None,
) -> NaSweepResult:
    """Locate the trap NA by sweeping simulations against a target ensemble.

    For every NA in the grid, n_reps quartic-trap trajectories are simulated
    with the template beam and particle, and the KL divergence
    D(target || simulation), averaged over the x and y marginals, is
    computed on the target's binning with a pseudocount of 0.5 regularizing
    the simulated histogram.  Each NA also yields a corner frequency
    (mean +/- std over repetitions) for the consistency cross-check against
    target_fc = (value, error), value > 0.  NAs where every repetition
    escaped are marked invalid and excluded from the minimum.

    Every NA reuses the same noise paths (common random numbers), so
    sampling noise largely cancels out of the NA-to-NA comparison and the
    divergence minimum is far more stable for a given simulation budget.
    The repetitions run one after another on the seeds spawn_seeds(seed,
    n_reps): a repetition's noise is drawn once, and every NA's run of that
    seed steps through it, so an NA's runs are those of
    simulate_ensemble(cfg, n_reps) with cfg.seed = seed, to the bit.  The
    runs go through dynamics._map_runs, as an ensemble's do: each is started
    on the calling thread, then finished and reduced on a thread of
    darkfocus._parallel.ordered_map to integer x and y histogram counts
    after burn_in and a corner frequency, and dropped: at most one run per
    usable core is in flight.  The summed counts of an NA are those of its
    pooled samples, and the result is the same bits at every width.
    The inputs and every NA are checked before the first run.
    """
    bad_na_values = "na_values must be a non-empty 1-D sequence of finite NAs"
    try:
        na_values = np.asarray(na_values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(bad_na_values) from exc
    if na_values.ndim != 1 or len(na_values) == 0 or not np.isfinite(na_values).all():
        raise ValueError(bad_na_values)
    _checks.count("n_reps", n_reps, 1)
    _checks.count("n_steps", n_steps, 1)
    _checks.count("burn_in", burn_in, 0)
    kept_per_run = n_steps + 1 - burn_in
    if kept_per_run < 100:
        raise ValueError(f"burn_in={burn_in!r} leaves {kept_per_run} of the {n_steps + 1} "
                         "samples of a run; need at least 100")
    if target_fc is not None:
        try:
            fc_t, fc_t_err = target_fc
            _checks.real("target_fc's value", fc_t, above=0.0)
            _checks.real("target_fc's error", fc_t_err, at_least=0.0)
        except (TypeError, ValueError) as exc:
            raise ValueError("target_fc must be None or a pair (value, error) of finite "
                             f"numbers with value > 0 and error >= 0, got {target_fc!r}") from exc
    p_x, p_y = marginals = _target_marginals(target)
    cfgs = [SimConfig(
        particle=particle, dt=dt, n_steps=n_steps, force_model="quartic",
        coefficients=quartic_coefficients(beam_template.with_na(na), particle),
        seed=seed, boundary=boundary, domain_bound=domain_bound,
    ) for na in na_values.tolist()]

    def runs():
        for s in spawn_seeds(seed, n_reps):
            # the configs differ only in their coefficients, and a run's noise
            # depends on its seed, particle, dt and n_steps: one draw serves all
            noise = list(dynamics._noise_chunks(cfgs[0].with_seed(s)))
            for cfg in cfgs:
                yield cfg.with_seed(s), noise

    # the reduced runs of each NA in rep order; escaped runs leave none
    tallies = [[] for _ in cfgs]
    reduced = dynamics._map_runs(runs(), functools.partial(_reduce_run, burn_in=burn_in,
                                                           marginals=marginals))
    for kept, run in zip(itertools.cycle(tallies), reduced):
        if run is not None:
            kept.append(run)

    kl = np.full(len(na_values), math.inf)
    fc = np.full(len(na_values), math.nan)
    fc_err = np.full(len(na_values), math.nan)
    valid = np.zeros(len(na_values), dtype=bool)
    for i, kept in enumerate(tallies):
        if not kept:
            continue
        valid[i] = True
        q_x, q_y = (
            _counts_pdf(sum(counts[axis] for counts, _ in kept), p.bin_edges,
                        len(kept) * kept_per_run, pseudocount=0.5)
            for axis, p in enumerate(marginals)
        )
        kl[i] = 0.5 * (kl_divergence(p_x, q_x) + kl_divergence(p_y, q_y))
        fcs = [f for _, f in kept if f is not None]
        if len(fcs) >= 3:
            fc[i] = np.mean(fcs)
            fc_err[i] = np.std(fcs, ddof=1)

    if not np.any(valid):
        raise RuntimeError("every NA in the sweep escaped; no estimate possible")
    # kl stays inf at an invalid NA
    argmin_na = float(na_values[np.argmin(kl)])

    if target_fc is not None:
        lo_t, hi_t = fc_t - fc_t_err, fc_t + fc_t_err
        spread = np.where(np.isfinite(fc_err), fc_err, 0.0)
        # fc is finite only at a valid NA
        fc_compatible = np.isfinite(fc) & (fc - spread <= hi_t) & (fc + spread >= lo_t)
    else:
        fc_compatible = np.zeros(len(na_values), dtype=bool)
    if np.any(fc_compatible):
        nas = na_values[fc_compatible]
        fc_interval = (float(nas.min()), float(nas.max()))
    else:
        fc_interval = None

    return NaSweepResult(
        na_values=na_values, kl=kl, fc=fc, fc_err=fc_err, valid=valid,
        argmin_na=argmin_na, fc_compatible=fc_compatible, fc_interval=fc_interval,
    )
