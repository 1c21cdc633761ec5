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

from ._checks import NumericalError
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


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided Welch PSD with the averaging parameters that produced it."""

    frequencies: np.ndarray  # Hz, strictly increasing, DC excluded
    psd: np.ndarray          # signal-units^2 / Hz
    nperseg: int
    overlap: float
    n_segments: int

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
        write_table(path, np.column_stack((self.frequencies, self.psd)), "# window=hann",
                    f"# nseg={self.n_segments}",
                    f"# nperseg={self.nperseg} overlap={self.overlap!r}", "f psd")


@functools.lru_cache(maxsize=8)
def _hann(nperseg, fs):
    """The periodic Hann window of nperseg samples scaled to unit power
    density at sampling rate fs, read-only: built once per (nperseg, fs)."""
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1))[:-1]
    window = window / np.sqrt(fs * np.sum(window**2))
    window.flags.writeable = False
    return window


# the most samples a block of segments holds: 1 MiB of doubles
_WELCH_BLOCK = 1 << 17


def _welch(x, dt, nperseg=None, overlap=0.5) -> PsdEstimate:
    """The Welch estimate of the samples x taken every dt, as estimate_psd
    describes it.

    The segments are taken in blocks of at most _WELCH_BLOCK samples (at
    least one segment), so the memory the estimate takes does not grow with
    len(x).  Each block's powers are added to the running sum in segment
    order by one np.add.reduce(axis=0) whose first row is the sum so far,
    which adds the rows one after another, as the mean of all the segments'
    powers at once does: the same bits."""
    n = len(x)
    if nperseg is None:
        nperseg = max(16, n // 8)
    # below 4 samples a segment leaves fewer than two bins above DC
    _checks.count("nperseg", nperseg, 4)
    if nperseg > n // 2:
        raise ValueError(f"nperseg must be at most {n // 2} for two segments in {n} samples, "
                         f"got {nperseg!r}")
    _checks.real("overlap", overlap, at_least=0.0, below=1.0)
    noverlap = int(nperseg * overlap)
    step = nperseg - noverlap
    n_segments = 1 + (n - nperseg) // step
    # Welch: a periodic Hann window scaled to unit power density, each
    # segment's own mean removed, every bin but DC (and Nyquist, for even
    # nperseg) doubled, and the segments averaged per bin
    fs = 1.0 / dt
    window = _hann(nperseg, fs)
    windows = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step]
    per_block = max(1, _WELCH_BLOCK // nperseg)
    total = np.zeros(nperseg // 2 + 1)
    for start in range(0, n_segments, per_block):
        segments = windows[start:start + per_block]
        segments = segments - segments.mean(axis=1, keepdims=True)
        segments *= window
        spectra = np.fft.rfft(segments, axis=1)
        del segments
        # re^2 + im^2, squared in place on the interleaved parts, below the
        # running sum
        parts = spectra.view(float)
        np.square(parts, out=parts)
        power = np.empty((len(spectra) + 1, len(total)))
        power[0] = total
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[1:])
        del spectra, parts
        power[1:, 1:(nperseg + 1) // 2] *= 2.0
        total = np.add.reduce(power, axis=0)
    psd = total / n_segments
    freqs = np.fft.rfftfreq(nperseg, 1.0 / fs)
    return PsdEstimate(
        frequencies=freqs[1:],
        psd=psd[1:],
        nperseg=nperseg,
        overlap=overlap,
        n_segments=n_segments,
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
    return _welch(traj.axis(axis), traj.dt, nperseg, overlap)


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

    @property
    def accepted(self) -> bool:
        """Whether f_c can be claimed: inside the fit range, to better than 50%."""
        return self.f_c_in_range and self.f_c_err < 0.5 * self.f_c

    def save(self, path):
        write_values(path, {
            "f_c": self.f_c, "f_c_err": self.f_c_err, "A": self.amplitude,
            "A_err": self.amplitude_err, "residual": self.residual_norm,
            "f_range": self.f_range, "f_c_in_range": self.f_c_in_range,
            "accepted": self.accepted,
        })


def fit_lorentzian(psd: PsdEstimate, f_range: tuple | None = None) -> LorentzianFit:
    """Least-squares Lorentzian fit with uniform weights on log-PSD.

    Log residuals equalize the multiplicative periodogram noise across
    decades.  ln A enters linearly and is profiled out in closed form
    (variable projection); f_c is the root in u = ln f_c of the profiled
    normal equation sum (r - mean r)(d - mean d) = 0, with r the log
    residual and d = 2 f_c^2 / (f_c^2 + f^2) the u-derivative of the log
    model.  Without an interior root f_c is not identified: it is the bracket
    end the cost falls toward, f_c_in_range is False, and f_c_err and
    amplitude_err are inf.  Otherwise the uncertainties are the Gauss-Newton
    covariance of (ln A, u), scaled by RSS / (n - 2).  f_range None fits
    from f[1] up to (f[-1] + df) / 4, about a quarter of the Nyquist frequency.
    """
    f = psd.frequencies
    if len(f) < 10:
        raise NumericalError("need at least 10 frequency bins in range, the spectrum has "
                             f"{len(f)}")
    lo, hi = (float(f[1]), float((f[-1] + psd.df) / 4.0)) if f_range is None else f_range
    for bound in (lo, hi):
        _checks.real("f_range", bound)
    if lo >= hi:
        raise ValueError("empty fit range")
    if lo < f[0] or hi > f[-1] + psd.df:
        raise ValueError("fit range outside the frequency support of the estimate")
    mask = (f >= lo) & (f <= hi)
    f2 = f[mask] ** 2
    s = psd.psd[mask]
    n = len(s)
    if n < 10:
        raise NumericalError(f"need at least 10 frequency bins in range, got {n}")
    if np.any(s <= 0):
        raise FitError("log-PSD fit requires strictly positive PSD values in range")
    log_s = np.log(s)

    # the root search evaluates slope some twenty to fifty times: its arrays
    # are allocated once and filled in place, and each mean is add.reduce / n
    # as ndarray.mean computes it.  slope leaves ln A - r and d, centred,
    # in g_u and d_u, and their means in means
    t, g_u, d_u, means = np.empty(n), np.empty(n), np.empty(n), [0.0, 0.0]

    def slope(u):
        """d/du of half the profiled sum of squared log residuals."""
        fc2 = math.exp(2.0 * u)
        np.add(fc2, f2, out=t)
        np.add(log_s, np.log(t, out=g_u), out=g_u)
        np.divide(2.0 * fc2, t, out=d_u)
        means[:] = np.add.reduce(g_u) / n, np.add.reduce(d_u) / n
        np.subtract(g_u, means[0], out=g_u)
        np.subtract(d_u, means[1], out=d_u)
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

    slope(u)
    ln_a, d_mean = float(means[0]), float(means[1])
    rss = float(np.sum(g_u**2))
    s_dd = float(np.sum(d_u**2))
    f_c, amplitude = math.exp(u), math.exp(ln_a)
    sigma2 = rss / (n - 2)
    if u not in (u_lo, u_hi) and s_dd > 0:
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
    n_failed: int  # runs that escaped, or whose fit fails or identifies no f_c


def _run_corner_frequency(traj: Trajectory, burn_in: int = 0) -> float | None:
    """Corner frequency of the x samples of one run after burn_in; None when
    the run escaped, the fit fails or it identifies no corner frequency."""
    if traj.escape is not None:
        return None
    try:
        fit = fit_lorentzian(_welch(traj.positions[burn_in:, 0], traj.dt))
    except (FitError, ValueError):
        return None
    return fit.f_c if math.isfinite(fit.f_c_err) else None


def corner_frequency_of(cfg: SimConfig, repetitions: int) -> CornerFrequencyResult:
    """Fit the x PSD of each run of simulate_ensemble(cfg, repetitions).

    Each run is reduced to its corner frequency on the thread that finished
    it, and dropped there: at most one run per usable core is in memory,
    besides the one being started.
    Runs that escape, or whose fit fails or identifies no corner frequency
    (infinite f_c_err), are dropped; fewer than three survivors is an error.
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
