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
from .forces import (BOLTZMANN, ParticleMedium, QuarticCoefficients, _quartic_potential,
                     quartic_coefficients)
from .spectral import NumericalError, _run_corner_frequency

__all__ = [
    "EmpiricalPdf",
    "KsResult",
    "PotentialReconstruction",
    "NaSweepResult",
    "histogram_pdf",
    "rebin_pdf",
    "kl_divergence",
    "ks_gaussianity_test",
    "boltzmann_potential",
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
    pseudocount: float = 0.0

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
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total}")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "density", dens)

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def widths(self):
        return np.diff(self.bin_edges)


def histogram_pdf(samples, bins="fd", range=None, pseudocount: float = 0.0) -> EmpiricalPdf:
    """Normalized histogram of 1-D samples.

    bins follows numpy.histogram ('fd' by default); a pseudocount assigned
    to empty bins before normalization keeps the density positive for use
    as the reference side of a KL divergence.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 100:
        raise ValueError(f"need at least 100 samples, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate sample set: zero variance")
    counts, edges = np.histogram(x, bins=bins, range=range)
    return _counts_pdf(counts, edges, len(x), pseudocount)


def _counts_pdf(counts, edges, n_samples, pseudocount) -> EmpiricalPdf:
    """The density of integer bin counts, with empty bins set to the
    pseudocount before normalization."""
    counts = counts.astype(float)
    counts[counts == 0.0] = pseudocount
    norm = float(np.sum(counts * np.diff(edges)))
    return EmpiricalPdf(
        bin_edges=edges, density=counts / norm, n_samples=n_samples,
        pseudocount=pseudocount,
    )


def rebin_pdf(pdf: EmpiricalPdf, new_edges) -> EmpiricalPdf:
    """Mass-conserving rebin of a density onto new edges (assumes uniform
    density inside each original bin)."""
    new_edges = np.asarray(new_edges, dtype=float)
    if np.any(np.diff(new_edges) <= 0):
        raise ValueError("new edges must be strictly increasing")
    old = pdf.bin_edges
    mass = np.concatenate([[0.0], np.cumsum(pdf.density * pdf.widths)])

    def cum_mass(v):
        v = np.clip(v, old[0], old[-1])
        i = np.clip(np.searchsorted(old, v, side="right") - 1, 0, len(old) - 2)
        frac = (v - old[i]) / (old[i + 1] - old[i])
        return mass[i] + frac * (mass[i + 1] - mass[i])

    new_mass = np.diff(cum_mass(new_edges))
    total = new_mass.sum()
    if total <= 0:
        raise ValueError("new edges do not overlap the pdf support")
    density = new_mass / total / np.diff(new_edges)
    return EmpiricalPdf(bin_edges=new_edges, density=density,
                        n_samples=pdf.n_samples, pseudocount=pdf.pseudocount)


def kl_divergence(p: EmpiricalPdf, q: EmpiricalPdf) -> float:
    """D(p || q) = sum p ln(p/q) dx in nats on a shared binning.

    Zero exactly when the densities agree bin-wise; infinite when q
    vanishes where p does not (regularize q with a pseudocount first).
    The edges must agree to 1e-9 of the narrowest bin.
    """
    if len(p.bin_edges) != len(q.bin_edges) or not np.allclose(
            p.bin_edges, q.bin_edges, rtol=0.0, atol=1e-9 * p.widths.min()):
        raise ValueError("pdfs are on different grids; rebin one of them first")
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


# Cephes' ndtr coefficients and constants, as binning.c holds them
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2


def _polevl(x, c, leading_one=False):
    """The polynomial of coefficients c (highest first, after an implied
    leading 1 if leading_one) at x, by Horner, as Cephes' polevl/p1evl."""
    y = x + c[0] if leading_one else c[0]
    for coefficient in c[1:]:
        y = y * x + coefficient
    return y


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U, True)


def _ndtr(a):
    """The standard normal CDF of the array a, with the bits of
    scipy.special.ndtr and of binning.c's df_ndtr: each Cephes branch
    evaluated with numpy's rounded operations, and exp from libm through
    math.exp (numpy's vectorised exp differs in the last bit)."""
    x = np.ravel(a) * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)  # NaN is in no mask below
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf_small(x[inner])
    # erfc(z) on z >= 1/sqrt(2); 0 where exp(-z * z) underflows
    erfc = np.zeros(x.shape)
    middle = (z >= _SQRT1_2) & (z < 1.0)
    erfc[middle] = 1.0 - _erf_small(z[middle])
    far = (z >= 8.0) & (-z * z >= -_MAXLOG)
    for tail, p, q in ((z >= 1.0) & (z < 8.0), _NDTR_P, _NDTR_Q), (far, _NDTR_R, _NDTR_S):
        zt = z[tail]
        e = np.fromiter(map(math.exp, (-zt * zt).tolist()), float, len(zt))
        erfc[tail] = e * _polevl(zt, p) / _polevl(zt, q, True)
    outer = z >= _SQRT1_2
    half = 0.5 * erfc[outer]
    y[outer] = np.where(x[outer] > 0, 1.0 - half, half)
    return y.reshape(np.shape(a))


def _ks_statistics(x, library):
    """KS statistic of each row of the 2-D array x of finite values against
    a Gaussian with that row's own mean and standard deviation, by
    binning.c's df_ks_rows when library is the compiled library, else by
    the same arithmetic in numpy; sorts the rows in place."""
    n = x.shape[1]
    mu = np.mean(x, axis=1)
    sigma = np.std(x, axis=1, ddof=1)
    x.sort(axis=1)
    if library is not None:
        out = np.empty(len(x))
        library.df_ks_rows(x, len(x), n, mu, sigma, out)
        return out
    cdf = _ndtr((x - mu[:, None]) / sigma[:, None])
    ranks = np.arange(n + 1) / n
    return np.maximum((ranks[1:] - cdf).max(axis=1), (cdf - ranks[:-1]).max(axis=1))


def _ks_null_table(n, n_null, seed):
    """Sorted KS statistics of n_null standard-normal samples of size n, each
    against a Gaussian with its own mean and standard deviation.

    Rows are drawn on the calling thread, in blocks of at most about 16 MB
    and at least four per usable core, which continues the stream of one
    standard_normal(n) draw per row; the blocks are reduced on
    darkfocus._parallel.ordered_map, so the table is the same at every
    width.
    """
    key = (n, n_null, seed)
    table = _KS_NULL_CACHE.get(key)
    if table is None:
        rng = np.random.default_rng(seed)
        rows = max(1, min((2 << 20) // n, math.ceil(n_null / (4 * _parallel.width()))))
        blocks = (rng.standard_normal((min(rows, n_null - start), n))
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
    significance: float
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
    beforehand (see decorrelation_stride).  Fewer than 1000 samples, a NaN
    or infinite sample, samples of zero spread and an n_null that is not
    an integer >= 1 raise ValueError.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 1000:
        raise ValueError(f"need at least 1000 samples, got {len(x)}")
    _checks.real("significance", significance, above=0.0)
    if not significance < 1:
        raise ValueError("significance must lie in (0, 1)")
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
                    reject=bool(p_value < significance),
                    significance=significance, n_samples=len(x))


def decorrelation_stride(drag: float, stiffness: float, dt: float) -> int:
    """Subsampling stride of DECORRELATION_TIMES correlation times gamma/k."""
    for name, value in (("drag", drag), ("stiffness", stiffness), ("dt", dt)):
        _checks.real(name, value, above=0.0)
    return max(1, math.ceil(DECORRELATION_TIMES * (drag / stiffness) / dt))


def boltzmann_potential(pdf: EmpiricalPdf, temperature: float):
    """Invert a 1-D density to a potential profile, V = -kB T ln P, min 0.

    Returns (centers, V) over the bins with positive density.
    """
    _checks.real("temperature", temperature, above=0.0)
    mask = pdf.density > 0
    if mask.sum() < 3:
        raise NumericalError("density support too narrow to invert")
    v = -BOLTZMANN * temperature * np.log(pdf.density[mask])
    return pdf.centers[mask], v - v.min()


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


_BLOCK_ROWS = 1 << 16  # fewest rows of a block of the rho and |z| pass


def _rho_abs_z(pos):
    """rho = numpy.hypot(x, y) and |z| of the C-contiguous (n, 3) positions
    pos, by binning.c's df_rho_abs_z when it builds, else by numpy; the same
    bits either way.  The compiled pass writes into
    arrays allocated here, on the calling thread, in blocks of contiguous
    rows on darkfocus._parallel.ordered_map, at least four per usable core
    and none shorter than _BLOCK_ROWS.  A NaN or infinite coordinate raises
    ValueError, as does (saying so) a finite x and y whose hypot overflows."""
    n = len(pos)
    library = _compiled.load()
    if library is None:
        with np.errstate(over="ignore"):
            rho = np.hypot(pos[:, 0], pos[:, 1])
        abs_z = np.abs(pos[:, 2])
        bad = not (np.isfinite(rho).all() and np.isfinite(abs_z).all())
    else:
        rho, abs_z = np.empty(n), np.empty(n)
        rows = max(_BLOCK_ROWS, -(-n // (4 * _parallel.width())))

        def block(start):
            stop = min(start + rows, n)
            return library.df_rho_abs_z(pos[start:stop], stop - start, rho[start:stop],
                                        abs_z[start:stop])

        bad = sum(_parallel.ordered_map(block, range(0, n, rows)))
    if bad:
        if np.isfinite(pos).all():
            raise ValueError("rho = hypot(x, y) overflows for finite samples; rescale them")
        raise ValueError("samples must be finite")
    return rho, abs_z


def _quantile(values, q):
    """numpy.quantile(values, q) of a 1-D float64 array of finite values, by
    one partition of values in place.  No value may be -0.0, as none of rho
    and |z| is: a partition may put -0.0 and 0.0 in either order.  This is
    numpy's linear method: the virtual index (n - 1) q falls between the
    order statistics k = floor of it and k + 1, the smallest value above
    the partition at k, and numpy's _lerp between them counts back from the
    upper one once the fraction reaches 1/2.  At an index of n - 1 or more
    it is the maximum."""
    n = len(values)
    index = (n - 1) * q
    if index >= n - 1:
        return float(values.max())
    k = math.floor(index)
    values.partition(k)
    below, above = float(values[k]), float(values[k + 1:].min())
    gamma = index - k
    diff = above - below
    return above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma


def _fold_counts(rho, positions, n_folds, r_edges, z_edges):
    """(n_folds, rho bins, z bins) int64 histogram of (rho, positions[:, 2])
    over the contiguous folds of numpy.array_split, binned once per fold by
    binning.c on darkfocus._parallel.ordered_map when it builds, else by
    numpy.histogram2d per fold; both give the same counts."""
    if positions.shape != (len(rho), 3):
        raise ValueError("positions must have shape (len(rho), 3)")
    counts = np.zeros((n_folds, len(r_edges) - 1, len(z_edges) - 1), dtype=np.int64)
    library = _compiled.load()
    if library is None:
        folds = zip(np.array_split(rho, n_folds), np.array_split(positions[:, 2], n_folds))
        for grid, (r, z) in zip(counts, folds):
            grid[...] = np.histogram2d(r, z, bins=[r_edges, z_edges])[0]
        return counts
    # numpy.array_split's folds: the first n % n_folds are one sample longer
    base, extra = divmod(len(rho), n_folds)
    starts = [f * base + min(f, extra) for f in range(n_folds + 1)]

    def count(f):
        start, stop = starts[f], starts[f + 1]
        return library.df_bin_rho_z(rho[start:stop], positions[start:stop], stop - start,
                                    r_edges, len(r_edges) - 1, z_edges, len(z_edges) - 1,
                                    counts[f])

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
    # columns: the quartic potential at each unit coefficient vector, the offset
    design = np.column_stack([
        *(_quartic_potential(*unit)(rr[mask], zz[mask]) for unit in np.eye(3)),
        np.ones(int(mask.sum())),
    ])
    weights = np.sqrt(counts[mask])  # var(ln n) ~ 1/n
    a = design * weights[:, None]
    scale = np.linalg.norm(a, axis=0)
    if np.any(scale == 0.0):
        raise NumericalError("support too narrow to constrain the quartic terms")
    sol, _, rank, sv = np.linalg.lstsq(a / scale, v * weights, rcond=None)
    if rank < 4 or sv[-1] / sv[0] < 1e-10:
        raise NumericalError("ill-conditioned reconstruction: support too narrow")
    sol = sol / scale
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
    support_quantile: float = 0.995,
) -> PotentialReconstruction:
    """Fit the quartic trap model to the Boltzmann-inverted sample density.

    samples is an (N, 3) array of finite positions.  The (rho, z) histogram
    is inverted to a potential surface, and the three quartic strengths are
    obtained by count-weighted linear least squares over the populated
    bins.  Uncertainties are the standard deviation of the per-fold
    estimates over `n_folds` contiguous splits of the samples; folds whose
    fit fails are dropped and counted out of n_folds_fitted.

    The grid spans the support_quantile quantiles of rho and |z|, which are
    numpy.quantile's to the bit.  rho, |z| and the finiteness check are one
    pass over the samples, the two quantiles are one selection each, side by
    side, and every sample is binned once, into the grid of its fold, the
    folds side by side; the whole-sample fit takes the sum of the fold
    grids, which is its histogram exactly.  Every output is the same bits
    at every width and on the no-compiler reference path.
    """
    if isinstance(samples, Trajectory):
        samples = samples.positions
    pos = np.ascontiguousarray(samples, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("samples must have shape (N, 3)")
    if len(pos) < 1000:
        raise ValueError("need at least 1000 samples for a reconstruction")
    _checks.real("temperature", temperature, above=0.0)
    for name, value in (("n_bins", n_bins), ("n_folds", n_folds), ("min_count", min_count)):
        _checks.count(name, value, 1)
    _checks.real("support_quantile", support_quantile, above=0.0)
    if not support_quantile <= 1:
        raise ValueError(f"support_quantile must lie in (0, 1], got {support_quantile!r}")

    rho, abs_z = _rho_abs_z(pos)
    # a selection reorders what it is given, and rho is binned after them:
    # the |z| selection runs while rho is copied, here, for its own
    z_max, rho_max = _parallel.ordered_map(functools.partial(_quantile, q=support_quantile),
                                           itertools.chain([abs_z], map(np.copy, [rho])))
    r_edges = _edges(0.0, rho_max, n_bins)
    z_edges = _edges(-z_max, z_max, n_bins)
    counts = _fold_counts(rho, pos, n_folds, r_edges, z_edges)

    coef, (rc, zc, v_grid) = _fit_quartic_once(
        counts.sum(axis=0), r_edges, z_edges, temperature, min_count
    )
    fold_coefs = []
    for fold in counts:
        try:
            fc, _ = _fit_quartic_once(fold, r_edges, z_edges, temperature,
                                      max(min_count // n_folds, 4))
            fold_coefs.append(fc)
        except ValueError:
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
    target_fc = (value, error).  NAs where every repetition escaped are
    marked invalid and excluded from the minimum.

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
            _checks.real("target_fc's value", fc_t)
            _checks.real("target_fc's error", fc_t_err, at_least=0.0)
        except (TypeError, ValueError) as exc:
            raise ValueError("target_fc must be None or a pair (value, error) of finite "
                             f"numbers with error >= 0, got {target_fc!r}") from exc
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
