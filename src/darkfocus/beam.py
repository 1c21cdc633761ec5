"""Structured-beam optics: Laguerre-Gauss modes and the dark-focus superposition.

The trapping beam is a coherent superposition of a Gaussian (l=0, p=0) and a
higher radial-order mode (l=0, p>=1) with a relative phase, producing a dark
focus enclosed by light when the phase is pi.  All quantities are SI:
lengths in m, powers in W, intensities in W/m^2.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _checks
from ._roots import bracketed_root
from ._text import read_table, write_table

__all__ = [
    "BeamParams",
    "GridSpec",
    "IntensityGrid",
    "lg_mode",
    "gaussian_intensity",
    "dft_intensity",
    "bottle_geometry",
    "render_intensity_grid",
]

# Grids above this many cells are almost certainly a misconfigured spec.
MAX_GRID_CELLS = 50_000_000
# Bound on the radial order: bottle beams use p <= 5, and the power of a mode
# of p <= 100 lies within absorption._REACH_WAISTS of the axis.
_MAX_P_INDEX = 100


@dataclass(frozen=True)
class BeamParams:
    """Trapping-beam description.

    Parameters
    ----------
    lambda0 : float
        Vacuum wavelength (m).
    n_medium : float
        Refractive index of the surrounding medium.
    na : float
        Numerical aperture of the focusing optics.
    p_total : float
        Total optical power in the beam (W).
    p_index : int
        Radial index of the higher-order mode in the superposition.
    theta_rel : float
        Relative phase between the Gaussian and higher-order components
        (rad).  pi gives the dark focus.
    """

    lambda0: float
    n_medium: float
    na: float
    p_total: float
    p_index: int = 1
    theta_rel: float = math.pi

    def __post_init__(self):
        _checks.real("lambda0", self.lambda0, above=0.0)
        _checks.real("n_medium", self.n_medium, at_least=1.0)
        _checks.real("na", self.na, above=0.0)
        if not self.na < self.n_medium:
            raise ValueError(f"na must satisfy 0 < na < n_medium, got na={self.na}, "
                             f"n_medium={self.n_medium}")
        _checks.real("p_total", self.p_total, above=0.0)
        _checks.count("p_index", self.p_index, 0)
        if self.p_index > _MAX_P_INDEX:
            raise ValueError(f"p_index must be at most {_MAX_P_INDEX}, got {self.p_index!r}")
        _checks.real("theta_rel", self.theta_rel)

    # Derived quantities are recomputed on access so they can never go stale.
    @property
    def waist(self) -> float:
        """Beam waist at the focus (m)."""
        return self.lambda0 / (math.pi * self.na)

    @property
    def rayleigh_range(self) -> float:
        """Rayleigh range in the medium (m)."""
        return self.n_medium * self.lambda0 / (math.pi * self.na**2)

    @property
    def focal_intensity(self) -> float:
        """Peak focal intensity of the Gaussian component alone, 2 P / (pi w0^2)."""
        return 2.0 * self.p_total / (math.pi * self.waist**2)

    @property
    def wavenumber(self) -> float:
        """Wavenumber in the medium, 2 pi n_m / lambda0."""
        return 2.0 * math.pi * self.n_medium / self.lambda0

    def with_na(self, na: float) -> "BeamParams":
        return replace(self, na=na)

    def with_unit_power(self) -> "BeamParams":
        return replace(self, p_total=1.0)


def _check_coords(rho, z):
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(z))):
        raise ValueError("coordinates must be finite")
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    return rho, z


def _phase_components(theta_rel):
    # Exact values at the two special phases keep the dark focus exactly dark.
    if theta_rel == math.pi:
        return -1.0, 0.0
    if theta_rel == 0.0:
        return 1.0, 0.0
    return math.cos(theta_rel), math.sin(theta_rel)


def _laguerre(n, alpha, u):
    """(L_n^alpha(u), dL_n^alpha/du) by the three-term recurrence, which stays
    accurate up to n = 100 where a sum of monomials cancels.  The derivative
    is -L_{n-1}^{alpha+1} = -(L_0^alpha + ... + L_{n-1}^alpha), summed in the
    same loop; integrator.c repeats the loop for alpha = 0."""
    lag_prev, lag, dlag = 0.0, 1.0, 0.0
    for k in range(n):
        dlag = dlag - lag
        lag_prev, lag = lag, ((2 * k + 1 + alpha - u) * lag - (k + alpha) * lag_prev) / (k + 1)
    return lag, dlag


def lg_mode(params: BeamParams, ell: int, p: int, rho, z, phi=0.0):
    """Normalized Laguerre-Gauss amplitude u_{l,p}(rho, phi, z) in 1/m.

    Includes the propagation phase k_m z, the wavefront-curvature phase,
    the axial phase anomaly (2p + |l| + 1) arctan(z/z_R) and the azimuthal
    phase l phi.  The transverse integral of |u|^2 is 1 in any plane.

    Accepts scalars or broadcastable arrays for rho, z, phi.
    """
    _checks.count("p", p, 0)
    rho, z = _check_coords(rho, z)
    phi = np.asarray(phi, dtype=float)

    w0 = params.waist
    zr = params.rayleigh_range
    km = params.wavenumber
    la = abs(int(ell))

    w2 = w0**2 * (1.0 + (z / zr) ** 2)
    x = 2.0 * rho**2 / w2
    # 1/R(z) = z / (z^2 + z_R^2): finite at z = 0.
    inv_r = z / (z**2 + zr**2)
    gouy = (2 * p + la + 1) * np.arctan(z / zr)

    norm = math.sqrt(2.0 / math.pi) * math.sqrt(
        math.factorial(p) / math.factorial(la + p)
    )
    lag, _ = _laguerre(p, la, x)
    amp = (
        norm
        / np.sqrt(w2)
        * (np.sqrt(2.0) * rho / np.sqrt(w2)) ** la
        * lag
        * np.exp(-(rho**2) / w2)
    )
    phase = km * z + 0.5 * km * rho**2 * inv_r - gouy + ell * phi
    return amp * np.exp(1j * phase)


def gaussian_intensity(params: BeamParams, rho, z):
    """Intensity of the fundamental Gaussian carrying the full beam power (W/m^2)."""
    rho, z = _check_coords(rho, z)
    w0 = params.waist
    zr = params.rayleigh_range
    w2 = w0**2 * (1.0 + (z / zr) ** 2)
    return 2.0 * params.p_total / (math.pi * w2) * np.exp(-2.0 * rho**2 / w2)


# (exp, arctan, cos, sin) for array arguments; the integrator's plain-float
# loop passes math's functions instead, which round like libm
_ARRAY_MATH = (np.exp, np.arctan, np.cos, np.sin)


def _bottle_constants(params: BeamParams):
    """(p, w0^2, z_R, P0, cos and sin of theta_rel): every number the
    bottle-field kernel reads, for the Python closure below and the compiled
    integrator alike."""
    ct, st = _phase_components(params.theta_rel)
    return (params.p_index, params.waist * params.waist, params.rayleigh_range,
            params.p_total, ct, st)


def _bottle_field(params: BeamParams, scale=1.0, fns=_ARRAY_MATH):
    """The one implementation of the bottle intensity and its gradient.

    Returns field(rho2, z) -> scale * (I, dI/drho / rho, dI/dz), with rho2
    the squared distance from the axis.  The radial derivative is divided by
    rho so that the Cartesian components F_x = (...) * x stay finite on the
    axis.  fns = (exp, atan, cos, sin) selects numpy's functions for arrays
    or math's for plain floats; either way the operation order is the same,
    and integrator.c repeats it for the compiled integrator.
    """
    exp, atan, cos, sin = fns
    p, w0sq, zr, p_total, ct, st = _bottle_constants(params)

    def field(rho2, z):
        t = z / zr
        one_t2 = 1.0 + t * t
        w2 = w0sq * one_t2
        u = 2.0 * rho2 / w2
        lag, dlag = _laguerre(p, 0, u)
        tau = atan(t)
        c2p, s2p = cos(2 * p * tau), sin(2 * p * tau)
        cos_rel = ct * c2p + st * s2p
        sin_rel = st * c2p - ct * s2p
        ce = scale * (p_total / (math.pi * w2) * exp(-u))
        # (1-L)^2 + 2L(1+cos) == 1 + L^2 + 2L cos, without cancellation at the
        # dark focus where L -> 1 and cos -> -1
        one_lag = 1.0 - lag
        intensity = ce * (one_lag * one_lag + 2.0 * lag * (1.0 + cos_rel))
        bracket = 1.0 + lag * lag + 2.0 * lag * cos_rel
        shape = 2.0 * dlag * (lag + cos_rel) - bracket
        g = 2.0 * t / (zr * one_t2)          # d ln w^2 / dz
        dtau = 1.0 / (zr * one_t2)
        didz = ce * (-g * bracket - u * g * shape + 4.0 * p * lag * sin_rel * dtau)
        return intensity, ce * (4.0 / w2) * shape, didz

    return field


def dft_intensity(params: BeamParams, rho, z):
    """Dark-focus (bottle) beam intensity at (rho, z), in W/m^2.

    Evaluates P0 |u_{0,0} + e^{i theta} u_{0,p}|^2 / 2 through its closed
    form: the equal-weight two-mode interference reduces to

        P0 / (pi w(z)^2) exp(-2 rho^2/w^2) [1 + L^2 + 2 L cos(theta - 2p atan(z/z_R))]

    with L the radial Laguerre polynomial of order p.  For theta = pi the
    on-axis value at the focus is exactly zero.
    """
    rho, z = _check_coords(rho, z)
    return _bottle_field(params)(rho * rho, z)[0]


def _bottle_peaks(params: BeamParams):
    """(location, intensity) of the focal-plane and of the on-axis maximum.

    Each is the first interior maximum on a 2001-point grid over (0, 4 w0]
    or (0, 6 z_R]: the first grid point above its left neighbour and not
    below its right one, and above the profile's value at 0, so that a
    bright centre is no bottle.  The peak is the root of the bottle field's
    radial or axial gradient between the grid points either side of it.
    The gradient crosses zero with a nonzero slope, so the root, unlike the
    argmax of the intensity, is fixed to a few ulps.
    """
    field = _bottle_field(params)
    # (intensity, its gradient along the profile) at distance s; the radial
    # gradient comes divided by rho, which leaves its sign
    profiles = (
        (lambda s: field(s * s, 0.0)[:2], 4.0 * params.waist),
        (lambda s: field(0.0, s)[::2], 6.0 * params.rayleigh_range),
    )
    peaks = []
    for profile, hi in profiles:
        s = np.linspace(0.0, hi, 2001)
        i = profile(s)[0]
        maxima = np.flatnonzero((i[1:-1] > i[:-2]) & (i[1:-1] >= i[2:])) + 1
        if not (len(maxima) and i[0] < i[maxima[0]]):
            raise RuntimeError(
                "intensity maximum not bracketed by the search grid; "
                "no bottle structure for these parameters"
            )
        k = maxima[0]
        try:
            peak = bracketed_root(lambda u: float(profile(u)[1]), float(s[k - 1]),
                                  float(s[k + 1]))
        except ValueError as exc:  # the grid maximum is round-off, not a peak
            raise RuntimeError(f"intensity maximum not resolved: {exc}") from None
        peaks.append((peak, float(profile(peak)[0])))
    return peaks


def bottle_geometry(params: BeamParams, method: str = "auto"):
    """Width and height of the bottle: peak-to-peak distances around the dark focus.

    Returns (W, H) in meters.  For p = 1 the closed forms W = 2 w0 and
    H = 2 z_R apply; for general p (or method="search") the extrema of the
    transverse and axial intensity profiles are located numerically.
    """
    if params.p_index < 1:
        raise ValueError("bottle geometry requires p_index >= 1")
    if method not in ("auto", "search"):
        raise ValueError(f"unknown method {method!r}")

    if params.p_index == 1 and method != "search":
        return 2.0 * params.waist, 2.0 * params.rayleigh_range

    (rho_peak, _), (z_peak, _) = _bottle_peaks(params)
    return 2.0 * rho_peak, 2.0 * z_peak


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid for one transverse axis ('rho' or 'x') and z."""

    transverse_start: float
    transverse_step: float
    transverse_count: int
    z_start: float
    z_step: float
    z_count: int
    transverse_kind: str = "rho"

    def __post_init__(self):
        if self.transverse_kind not in ("rho", "x"):
            raise ValueError("transverse_kind must be 'rho' or 'x'")
        for axis in ("transverse", "z"):
            _checks.real(f"grid spacing {axis}_step", getattr(self, f"{axis}_step"), above=0.0)
            _checks.count(f"{axis}_count", getattr(self, f"{axis}_count"), 1)
            _checks.real(f"{axis}_start", getattr(self, f"{axis}_start"))
        if self.transverse_kind == "rho" and self.transverse_start < 0:
            raise ValueError("rho axis must start at a nonnegative value")

    @property
    def transverse_values(self):
        return self.transverse_start + self.transverse_step * np.arange(self.transverse_count)

    @property
    def z_values(self):
        return self.z_start + self.z_step * np.arange(self.z_count)

    @classmethod
    def centered(cls, half_width, half_height, n_transverse, n_z, transverse_kind="x"):
        """Symmetric grid spanning [-half_width, half_width] x [-half_height, half_height]."""
        if transverse_kind == "rho":
            t0, dt = 0.0, half_width / max(n_transverse - 1, 1)
        else:
            t0 = -half_width
            dt = 2 * half_width / max(n_transverse - 1, 1)
        dz = 2 * half_height / max(n_z - 1, 1)
        return cls(t0, dt, n_transverse, -half_height, dz, n_z, transverse_kind)


@dataclass(frozen=True)
class IntensityGrid:
    """Sampled intensity landscape with its generating beam parameters."""

    spec: GridSpec
    values: np.ndarray  # shape (transverse_count, z_count), W/m^2
    params: BeamParams

    def __post_init__(self):
        expected = (self.spec.transverse_count, self.spec.z_count)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid {expected}")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("intensities must be finite and nonnegative")

    def save(self, path):
        spec = self.spec
        with open(path, "w") as fh:
            fh.write(
                f"# axis {spec.transverse_kind}: {spec.transverse_start!r} "
                f"{spec.transverse_step!r} {spec.transverse_count}\n"
            )
            fh.write(f"# axis z: {spec.z_start!r} {spec.z_step!r} {spec.z_count}\n")
            write_table(fh, self.values.reshape(-1, 1))


def load_intensity_grid_values(path):
    """Read an intensity-grid file back as (GridSpec fields dict, values array)."""
    header, values = read_table(path)
    axes = {}
    for line in header:
        if line.startswith("# axis"):
            name, start, step, count = line[len("# axis "):].replace(":", " ").split()
            axes[name] = (float(start), float(step), int(count))
    (tkind,) = set(axes) - {"z"}
    spec = GridSpec(*axes[tkind], *axes["z"], transverse_kind=tkind)
    return spec, values.reshape(spec.transverse_count, spec.z_count)


def render_intensity_grid(params: BeamParams, spec: GridSpec) -> IntensityGrid:
    """Evaluate the dark-focus intensity on a uniform (transverse, z) grid."""
    n_cells = spec.transverse_count * spec.z_count
    if n_cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {n_cells} cells exceeds cap of {MAX_GRID_CELLS}")
    t = spec.transverse_values
    rho = np.abs(t) if spec.transverse_kind == "x" else t
    vals = dft_intensity(params, rho[:, None], spec.z_values[None, :])
    return IntensityGrid(spec=spec, values=vals, params=params)
