"""Power spectral density estimation and Lorentzian corner-frequency fits.

One-sided Welch estimates with variance (density) normalization, and
log-residual least squares of S(f) = A / (f_c^2 + f^2).  The fit profiles
out ln A in closed form (variable projection), so f_c is the root of one
scalar equation in ln f_c.  For a harmonic trap the corner frequency is
k / (2 pi gamma); for the quartic trap the Lorentzian is an effective
description whose corner frequency still tracks the trap strength.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._roots import bracketed_root
from ._text import write_table, write_values
from . import _checks, dynamics
from .dynamics import SimConfig, Trajectory

__all__ = [
    "PsdEstimate",
    "LorentzianFit",
    "FitError",
    "NumericalError",
    "CornerFrequencyResult",
    "estimate_psd",
    "fit_lorentzian",
    "corner_frequency_of",
]


class FitError(RuntimeError):
    """No corner frequency: the PSD is not strictly positive in the fit range,
    or too few repetitions of an ensemble produced one."""


class NumericalError(ValueError):
    """Valid input that the numerics cannot resolve: too few bins or too
    narrow a support for a fit or an inversion."""


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided Welch PSD with the averaging parameters that produced it."""

    frequencies: np.ndarray  # Hz, strictly increasing, DC excluded
    psd: np.ndarray          # signal-units^2 / Hz
    nperseg: int
    overlap: float
    n_segments: int
    signal_variance: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        p = np.asarray(self.psd, dtype=float)
        if f.shape != p.shape or f.ndim != 1:
            raise ValueError("frequencies and psd must be matching 1-D arrays")
        if len(f) and (f[0] <= 0 or np.any(np.diff(f) <= 0)):
            raise ValueError("frequencies must be strictly increasing and above DC")
        if np.any(p < 0):
            raise ValueError("PSD values must be nonnegative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "psd", p)

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def save(self, path):
        with open(path, "w") as fh:
            fh.write("# window=hann\n")
            fh.write(f"# nseg={self.n_segments}\n")
            fh.write(f"# nperseg={self.nperseg} overlap={self.overlap!r}\n")
            fh.write("f psd\n")
            write_table(fh, np.column_stack((self.frequencies, self.psd)))


@functools.lru_cache(maxsize=8)
def _hann(nperseg, fs):
    """The periodic Hann window of nperseg samples scaled to unit power
    density at sampling rate fs, read-only: built once per (nperseg, fs)."""
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1))[:-1]
    window = window / np.sqrt(fs * np.sum(window**2))
    window.flags.writeable = False
    return window


def _welch(x, dt, nperseg=None, overlap=0.5, signal_variance=math.nan) -> PsdEstimate:
    """The Welch estimate of the samples x taken every dt, as estimate_psd
    describes it, carrying signal_variance as given."""
    n = len(x)
    if nperseg is None:
        nperseg = max(16, n // 8)
    # below 4 samples a segment leaves fewer than two bins above DC
    _checks.count("nperseg", nperseg, 4)
    if nperseg > n // 2:
        raise ValueError(
            f"segment length {nperseg} needs at least two segments in {n} samples"
        )
    _checks.real("overlap", overlap, at_least=0.0)
    if not overlap < 1:
        raise ValueError("overlap fraction must lie in [0, 1)")
    noverlap = int(nperseg * overlap)
    step = nperseg - noverlap
    n_segments = 1 + (n - nperseg) // step
    # Welch: a periodic Hann window scaled to unit power density, each
    # segment's own mean removed, every bin but DC (and Nyquist, for even
    # nperseg) doubled, and the segments averaged per bin
    fs = 1.0 / dt
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step]
    segments = segments - segments.mean(axis=1, keepdims=True)
    segments *= _hann(nperseg, fs)
    spectra = np.fft.rfft(segments, axis=1)
    # re^2 + im^2, squared in place on the interleaved parts
    parts = spectra.view(float)
    np.square(parts, out=parts)
    power = np.add(parts[:, 0::2], parts[:, 1::2])
    power[:, 1:(nperseg + 1) // 2] *= 2.0
    psd = power.mean(axis=0)
    freqs = np.fft.rfftfreq(nperseg, 1.0 / fs)
    return PsdEstimate(
        frequencies=freqs[1:],
        psd=psd[1:],
        nperseg=nperseg,
        overlap=overlap,
        n_segments=n_segments,
        signal_variance=signal_variance,
    )


def estimate_psd(
    traj: Trajectory,
    axis: str = "x",
    nperseg: int | None = None,
    overlap: float = 0.5,
) -> PsdEstimate:
    """Averaged windowed periodograms of one position component.

    The DC bin is dropped.  Default segment length is len/8, giving about
    fifteen 50%-overlapped Hann segments.
    """
    x = traj.axis(axis)
    return _welch(x, traj.dt, nperseg, overlap, signal_variance=float(np.var(x)))


@dataclass(frozen=True)
class LorentzianFit:
    """Result of fitting S(f) = A / (f_c^2 + f^2) on log-PSD residuals."""

    f_c: float
    f_c_err: float
    amplitude: float
    amplitude_err: float
    f_range: tuple
    residual_norm: float
    f_c_in_range: bool

    def save(self, path):
        write_values(path, {
            "f_c": self.f_c, "f_c_err": self.f_c_err, "A": self.amplitude,
            "A_err": self.amplitude_err, "residual": self.residual_norm,
            "f_range": self.f_range, "f_c_in_range": self.f_c_in_range,
        })


def _check_bins(psd: PsdEstimate):
    if len(psd.frequencies) < 10:
        raise NumericalError("need at least 10 frequency bins in range, the spectrum has "
                             f"{len(psd.frequencies)}")


def default_fit_range(psd: PsdEstimate) -> tuple:
    """Second retained bin up to a quarter of the Nyquist frequency, of a
    spectrum of at least 10 bins (else NumericalError)."""
    _check_bins(psd)
    f = psd.frequencies
    nyquist = f[-1] + psd.df  # welch grid ends at Nyquist
    return (float(f[1]), float(nyquist / 4.0))


def fit_lorentzian(psd: PsdEstimate, f_range: tuple | None = None) -> LorentzianFit:
    """Least-squares Lorentzian fit with uniform weights on log-PSD.

    Log residuals equalize the multiplicative periodogram noise across
    decades.  ln A enters linearly and is profiled out in closed form
    (variable projection); f_c is the root in u = ln f_c of the profiled
    normal equation sum (r - mean r)(d - mean d) = 0, with r the log
    residual and d = 2 f_c^2 / (f_c^2 + f^2) the u-derivative of the log
    model.  Without an interior root, f_c is the bracket end the cost falls
    toward and f_c_in_range is False.  Uncertainties are the Gauss-Newton
    covariance of (ln A, u), scaled by RSS / (n - 2).
    """
    _check_bins(psd)
    if f_range is None:
        f_range = default_fit_range(psd)
    lo, hi = f_range
    if lo >= hi:
        raise ValueError("empty fit range")
    if lo < psd.frequencies[0] or hi > psd.frequencies[-1] + psd.df:
        raise ValueError("fit range outside the frequency support of the estimate")
    mask = (psd.frequencies >= lo) & (psd.frequencies <= hi)
    f2 = psd.frequencies[mask] ** 2
    s = psd.psd[mask]
    n = len(s)
    if n < 10:
        raise NumericalError(f"need at least 10 frequency bins in range, got {n}")
    if np.any(s <= 0):
        raise FitError("log-PSD fit requires strictly positive PSD values in range")
    log_s = np.log(s)

    def profile(u):
        """ln A - r and d at u = ln f_c."""
        fc2 = math.exp(2.0 * u)
        return log_s + np.log(fc2 + f2), 2.0 * fc2 / (fc2 + f2)

    # the root search evaluates slope some twenty to fifty times: its arrays
    # are allocated once and filled in place, and each mean is add.reduce / n
    # as ndarray.mean computes it, so slope(u) is profile's arithmetic, bit
    # for bit, in fewer numpy calls
    t, g_u, d_u = np.empty(n), np.empty(n), np.empty(n)

    def slope(u):
        """d/du of half the profiled sum of squared log residuals."""
        fc2 = math.exp(2.0 * u)
        np.add(fc2, f2, out=t)
        np.add(log_s, np.log(t, out=g_u), out=g_u)
        np.divide(2.0 * fc2, t, out=d_u)
        np.subtract(g_u, np.add.reduce(g_u) / n, out=g_u)
        np.subtract(d_u, np.add.reduce(d_u) / n, out=d_u)
        return float(g_u @ d_u)

    # e^7 beyond the band the log model differs from a pure power law
    # (f^0 above, f^-2 below) by less than e^-14 in every bin: f_c is not
    # identified there, so the bracket ends are the flat and 1/f^2 limits
    u_lo, u_hi = math.log(lo) - 7.0, math.log(hi) + 7.0
    if slope(u_hi) <= 0:
        u = u_hi  # the cost falls toward a flat (white-noise) spectrum
    elif slope(u_lo) >= 0:
        u = u_lo  # the cost falls toward a 1/f^2 (free-diffusion) spectrum
    else:
        # the root of the gradient converges to machine precision, which a
        # minimiser of the cost cannot
        u = bracketed_root(slope, u_lo, u_hi)

    g, d = profile(u)
    ln_a, d_mean = float(g.mean()), float(d.mean())
    rss = float(np.sum((g - ln_a) ** 2))
    s_dd = float(np.sum((d - d_mean) ** 2))
    f_c, amplitude = math.exp(u), math.exp(ln_a)
    sigma2 = rss / (n - 2)
    if s_dd > 0:
        fc_err = f_c * math.sqrt(sigma2 / s_dd)
        a_err = amplitude * math.sqrt(sigma2 * (1.0 / n + d_mean**2 / s_dd))
    else:
        fc_err = a_err = math.inf
    return LorentzianFit(
        f_c=f_c,
        f_c_err=fc_err,
        amplitude=amplitude,
        amplitude_err=a_err,
        f_range=(float(lo), float(hi)),
        residual_norm=math.sqrt(rss),
        f_c_in_range=bool(lo <= f_c <= hi),
    )


@dataclass(frozen=True)
class CornerFrequencyResult:
    """Corner frequency over repeated simulations: mean, spread, raw values."""

    mean: float
    std: float
    values: np.ndarray
    n_failed: int


def _run_corner_frequency(traj: Trajectory, burn_in: int = 0) -> float | None:
    """Corner frequency of the x samples of one run after burn_in; None when
    the run escaped or the fit fails."""
    if traj.escape is not None:
        return None
    try:
        return fit_lorentzian(_welch(traj.positions[burn_in:, 0], traj.dt)).f_c
    except (FitError, ValueError):
        return None


def corner_frequency_of(cfg: SimConfig, repetitions: int) -> CornerFrequencyResult:
    """Fit the x PSD of each run of simulate_ensemble(cfg, repetitions).

    Each run is reduced to its corner frequency on the thread that finished
    it, and dropped there: at most one run per usable core is in memory,
    besides the one being started.
    Runs whose simulation escapes or whose fit fails are dropped; fewer than
    three survivors is an error.
    """
    runs = ((cfg.with_seed(s), None) for s in dynamics.spawn_seeds(cfg.seed, repetitions))
    fits = dynamics._map_runs(runs, _run_corner_frequency)
    values = np.array([f for f in fits if f is not None])
    if len(values) < 3:
        raise FitError(
            f"only {len(values)} of {repetitions} repetitions produced a corner "
            f"frequency (need 3)"
        )
    return CornerFrequencyResult(mean=float(values.mean()), std=float(values.std(ddof=1)),
                                 values=values, n_failed=repetitions - len(values))
