"""Power spectral density estimation and Lorentzian corner-frequency fits.

One-sided Welch estimates with variance (density) normalization, and
log-residual least squares of S(f) = A / (f_c^2 + f^2).  For a harmonic
trap the corner frequency is k / (2 pi gamma); for the quartic trap the
Lorentzian is an effective description whose corner frequency still tracks
the trap strength.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.optimize import least_squares

from .dynamics import SimConfig, Trajectory, simulate, spawn_seeds

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
    """Lorentzian fit did not converge or had too little data."""


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
    window: str
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
            fh.write(f"# window={self.window}\n")
            fh.write(f"# nseg={self.n_segments}\n")
            fh.write(f"# nperseg={self.nperseg} overlap={self.overlap!r}\n")
            fh.write("f psd\n")
            for fv, pv in zip(self.frequencies.tolist(), self.psd.tolist()):
                fh.write(f"{fv!r} {pv!r}\n")


def estimate_psd(
    traj: Trajectory,
    axis: str = "x",
    nperseg: int | None = None,
    overlap: float = 0.5,
    window: str = "hann",
) -> PsdEstimate:
    """Averaged windowed periodograms of one position component.

    The DC bin is dropped.  Default segment length is len/8, giving about
    fifteen 50%-overlapped Hann segments.
    """
    x = traj.axis(axis)
    n = len(x)
    if nperseg is None:
        nperseg = max(16, n // 8)
    if nperseg > n // 2:
        raise ValueError(
            f"segment length {nperseg} needs at least two segments in {n} samples"
        )
    if not (0 <= overlap < 1):
        raise ValueError("overlap fraction must lie in [0, 1)")
    noverlap = int(nperseg * overlap)
    freqs, psd = signal.welch(
        x,
        fs=1.0 / traj.dt,
        window=window,
        nperseg=nperseg,
        noverlap=noverlap,
        detrend="constant",
        return_onesided=True,
        scaling="density",
    )
    step = nperseg - noverlap
    n_segments = 1 + (n - nperseg) // step
    return PsdEstimate(
        frequencies=freqs[1:],
        psd=psd[1:],
        nperseg=nperseg,
        overlap=overlap,
        window=window,
        n_segments=n_segments,
        signal_variance=float(np.var(x)),
    )


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
        with open(path, "w") as fh:
            fh.write(f"f_c={self.f_c!r}\n")
            fh.write(f"f_c_err={self.f_c_err!r}\n")
            fh.write(f"A={self.amplitude!r}\n")
            fh.write(f"A_err={self.amplitude_err!r}\n")
            fh.write(f"residual={self.residual_norm!r}\n")
            fh.write(f"f_range={self.f_range[0]!r} {self.f_range[1]!r}\n")
            fh.write(f"f_c_in_range={self.f_c_in_range}\n")


def default_fit_range(psd: PsdEstimate) -> tuple:
    """Second retained bin up to a quarter of the Nyquist frequency."""
    f = psd.frequencies
    nyquist = f[-1] + psd.df  # welch grid ends at Nyquist
    return (float(f[1]), float(nyquist / 4.0))


def fit_lorentzian(psd: PsdEstimate, f_range: tuple | None = None) -> LorentzianFit:
    """Least-squares Lorentzian fit with uniform weights on log-PSD.

    Log residuals equalize the multiplicative periodogram noise across
    decades.  The initial corner frequency comes from the half-power point
    of the low-frequency plateau.  Parameter uncertainties are taken from
    the fit covariance.
    """
    if f_range is None:
        f_range = default_fit_range(psd)
    lo, hi = f_range
    if lo >= hi:
        raise ValueError("empty fit range")
    if lo < psd.frequencies[0] or hi > psd.frequencies[-1] + psd.df:
        raise ValueError("fit range outside the frequency support of the estimate")
    mask = (psd.frequencies >= lo) & (psd.frequencies <= hi)
    f = psd.frequencies[mask]
    s = psd.psd[mask]
    if len(f) < 10:
        raise NumericalError(f"need at least 10 frequency bins in range, got {len(f)}")
    if np.any(s <= 0):
        raise FitError("log-PSD fit requires strictly positive PSD values in range")

    log_s = np.log(s)
    plateau = float(np.exp(np.mean(log_s[: max(3, len(s) // 20)])))
    below = f[s < 0.5 * plateau]
    fc0 = float(below[0]) if len(below) else float(np.median(f))
    theta0 = np.array([math.log(plateau * fc0**2), math.log(fc0)])

    def residuals(theta):
        return theta[0] - np.log(np.exp(2.0 * theta[1]) + f**2) - log_s

    def jacobian(theta):
        fc2 = np.exp(2.0 * theta[1])
        return np.column_stack([np.ones_like(f), -2.0 * fc2 / (fc2 + f**2)])

    # an exact Jacobian and tolerances near machine precision: a finite-difference
    # Jacobian or the default 1e-8 tolerances stop the fit short of the optimum
    res = least_squares(residuals, theta0, jac=jacobian, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
    if not res.success:
        raise FitError(f"Lorentzian fit did not converge: {res.message}")

    ln_a, ln_fc = res.x
    amplitude, f_c = math.exp(ln_a), math.exp(ln_fc)
    dof = max(len(f) - 2, 1)
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * (2.0 * res.cost / dof)
        a_err = amplitude * math.sqrt(max(cov[0, 0], 0.0))
        fc_err = f_c * math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        a_err = fc_err = math.inf
    return LorentzianFit(
        f_c=f_c,
        f_c_err=fc_err,
        amplitude=amplitude,
        amplitude_err=a_err,
        f_range=(float(lo), float(hi)),
        residual_norm=float(math.sqrt(2.0 * res.cost)),
        f_c_in_range=bool(lo <= f_c <= hi),
    )


@dataclass(frozen=True)
class CornerFrequencyResult:
    """Corner frequency over repeated simulations: mean, spread, raw values."""

    mean: float
    std: float
    values: np.ndarray
    n_failed: int


def _run_corner_frequency(traj: Trajectory) -> float | None:
    """Corner frequency of one run's x PSD; None when the run escaped or the
    fit fails."""
    if traj.escape is not None:
        return None
    try:
        return fit_lorentzian(estimate_psd(traj)).f_c
    except (FitError, ValueError):
        return None


def corner_frequency_of(cfg: SimConfig, repetitions: int, seeds=None) -> CornerFrequencyResult:
    """Simulate `repetitions` independent runs and fit each run's x PSD.

    Per-run seeds are spawned deterministically from cfg.seed unless given
    explicitly.  Each run is reduced to its corner frequency as it finishes.
    Runs whose simulation escapes or whose fit fails are dropped; fewer than
    three survivors is an error.
    """
    if seeds is None:
        seeds = spawn_seeds(cfg.seed, repetitions)
    elif len(seeds) != repetitions:
        raise ValueError("need exactly one seed per repetition")

    fits = [_run_corner_frequency(simulate(cfg.with_seed(int(s)))) for s in seeds]
    values = np.array([f for f in fits if f is not None])
    if len(values) < 3:
        raise FitError(
            f"only {len(values)} of {repetitions} repetitions produced a corner "
            f"frequency (need 3)"
        )
    return CornerFrequencyResult(mean=float(values.mean()), std=float(values.std(ddof=1)),
                                 values=values, n_failed=repetitions - len(values))
