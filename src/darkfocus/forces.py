"""Rayleigh-regime optical forces for the dark-focus beam and the quartic model.

A small dielectric sphere with index ratio m = n_p/n_m below 1 is repelled
from light, so the dark focus confines it.  The gradient force derives from
the potential V = -(2 pi n_m R^3 / c) alpha I, and near the focus V reduces
to the quartic form

    V(rho, z) ~ (k_z/2) z^2 - k_rho_z rho^2 z^2 + (k_rho/4) rho^4.

Intensities and gradients come from the one bottle-field kernel in
darkfocus.beam, and the quartic force from the closure the integrator steps
with, so these functions and a simulation evaluate the same expressions.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._text import read_table, write_table
from .beam import BeamParams, _bottle_field, _check_coords, dft_intensity

__all__ = [
    "ParticleMedium",
    "QuarticCoefficients",
    "ForceGrid",
    "RmseReport",
    "dipole_potential",
    "dipole_gradient_force",
    "dipole_scattering_force",
    "quartic_coefficients",
    "quartic_potential",
    "quartic_force",
    "fit_polynomial_force",
    "sample_force_grid",
]

# exact SI values (2019 definitions), the same doubles as scipy.constants' k and c
BOLTZMANN = 1.380649e-23  # J/K
SPEED_OF_LIGHT = 299792458.0  # m/s


def _warn(message):
    """The library's one warning path: a UserWarning at the line of the first
    caller outside darkfocus, however deep in the library it is raised."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and (
            frame.f_globals.get("__name__", "").partition(".")[0] == "darkfocus"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


@dataclass(frozen=True)
class ParticleMedium:
    """Trapped sphere plus the fluid around it.

    radius (m), refractive indices, dynamic viscosity (Pa s) and bath
    temperature (K).  Derived: index ratio m, polarizability factor
    (m^2-1)/(m^2+2) and the Stokes drag 6 pi eta R.
    """

    radius: float
    n_particle: float
    n_medium: float
    viscosity: float
    temperature: float

    def __post_init__(self):
        for name in ("radius", "viscosity", "temperature"):
            _checks.real(name, getattr(self, name), above=0.0)
        for name in ("n_particle", "n_medium"):
            _checks.real(name, getattr(self, name), at_least=1.0)

    @property
    def index_ratio(self) -> float:
        return self.n_particle / self.n_medium

    @property
    def polarizability_factor(self) -> float:
        """(m^2 - 1)/(m^2 + 2); negative for a particle rarer than the medium."""
        m2 = self.index_ratio**2
        return (m2 - 1.0) / (m2 + 2.0)

    @property
    def drag(self) -> float:
        """Stokes drag coefficient 6 pi eta R (kg/s), no wall corrections."""
        return 6.0 * math.pi * self.viscosity * self.radius


@dataclass(frozen=True)
class QuarticCoefficients:
    """Strengths of the local potential expansion around the dark focus.

    k_z in N/m, k_rho_z and k_rho in N/m^3.  All three are positive for a
    confining trap (index ratio below one).
    """

    k_z: float
    k_rho_z: float
    k_rho: float

    def __post_init__(self):
        for name in ("k_z", "k_rho_z", "k_rho"):
            _checks.real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if min(self.k_z, self.k_rho_z, self.k_rho) <= 0:
            _warn("non-positive quartic coefficients: potential is not a "
                  "confining dark-focus trap")


def _potential_prefactor(beam: BeamParams, pm: ParticleMedium) -> float:
    """2 pi n_m R^3 alpha / c, the factor multiplying intensity in V (signed)."""
    return (
        2.0 * math.pi * pm.n_medium * pm.radius**3
        * pm.polarizability_factor / SPEED_OF_LIGHT
    )


def _scattering_prefactor(beam: BeamParams, pm: ParticleMedium) -> float:
    """128 pi^5 R^6 alpha^2 n_m^5 / (3 c lambda0^4), the radiation-pressure
    force per unit intensity."""
    return (
        128.0 * math.pi**5 * pm.radius**6
        / (3.0 * SPEED_OF_LIGHT * beam.lambda0**4)
        * pm.polarizability_factor**2 * pm.n_medium**5
    )


def dipole_potential(beam: BeamParams, pm: ParticleMedium, rho, z):
    """Dipole-regime optical potential V = -(2 pi n_m R^3/c) alpha I, in J.

    Nonnegative with its minimum 0 at the dark focus when the particle is
    rarer than the medium; flips sign (attractive towards light) for m > 1.
    """
    return -_potential_prefactor(beam, pm) * dft_intensity(beam, rho, z)


def dipole_gradient_force(beam: BeamParams, pm: ParticleMedium, x, y, z):
    """Conservative gradient force (2 pi n_m R^3/c) alpha grad(I) at (x, y, z), in N.

    Returns an array with shape (..., 3).  Curl-free by construction and
    zero at the focus.  The gradient is the bottle-field kernel's, scaled by
    the potential prefactor as in the integrator.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho2, z = _check_coords(x * x + y * y, z)
    _, radial, fz = _bottle_field(beam, _potential_prefactor(beam, pm))(rho2, z)
    out = np.stack(np.broadcast_arrays(radial * x, radial * y, fz), axis=-1)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite gradient force")
    return out


def dipole_scattering_force(beam: BeamParams, pm: ParticleMedium, x, y, z):
    """Radiation-pressure force along +z, proportional to local intensity (N)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    fz = _scattering_prefactor(beam, pm) * dft_intensity(beam, np.hypot(x, y), z)
    zeros = np.zeros_like(fz)
    return np.stack(np.broadcast_arrays(zeros, zeros, fz), axis=-1)


def quartic_coefficients(beam: BeamParams, pm: ParticleMedium) -> QuarticCoefficients:
    """Quartic trap strengths from the beam and particle parameters.

    The expansion of the bottle intensity about the focus gives, with
    mu' = 4 p^2/z_R^2, eta' = 8 p^2 (p+1)/(w0^2 z_R^2), chi' = 4 p^2/w0^4
    and the potential scale V0 = |2 pi n_m R^3 alpha / c| P0/(pi w0^2):

        k_z = 2 V0 mu',   k_rho_z = V0 eta',   k_rho = 4 V0 chi'.

    Positive coefficients (confinement) require an index ratio below one.
    """
    if beam.p_index < 1:
        raise ValueError("quartic expansion requires p_index >= 1 (no bottle for p = 0)")
    if pm.index_ratio >= 1:
        _warn("index ratio >= 1: particle is attracted to light, dark focus "
              "does not confine it")
    p = beam.p_index
    w0 = beam.waist
    zr = beam.rayleigh_range
    mu = 4.0 * p**2 / zr**2
    eta = 8.0 * p**2 * (p + 1) / (w0**2 * zr**2)
    chi = 4.0 * p**2 / w0**4

    v0 = abs(_potential_prefactor(beam, pm)) * beam.p_total / (math.pi * w0**2)
    return QuarticCoefficients(k_z=2.0 * v0 * mu, k_rho_z=v0 * eta, k_rho=4.0 * v0 * chi)


def _quartic_potential(k_z, k_rz, k_r):
    """The quartic potential as a function of (rho, z), for quartic_potential
    and, at the unit coefficient vectors, the reconstruction's design."""

    def potential(rho, z):
        return 0.5 * k_z * z**2 - k_rz * rho**2 * z**2 + 0.25 * k_r * rho**4

    return potential


def quartic_potential(coeffs: QuarticCoefficients, rho, z):
    """Evaluate (k_z/2) z^2 - k_rho_z rho^2 z^2 + (k_rho/4) rho^4, in J."""
    rho, z = np.asarray(rho, dtype=float), np.asarray(z, dtype=float)
    return _quartic_potential(coeffs.k_z, coeffs.k_rho_z, coeffs.k_rho)(rho, z)


def _quartic_force(k_z, k_rz, k_r):
    """The quartic force as a function of (x, y, z) returning (F_x, F_y, F_z).

    The integrator's reference loop calls it on plain floats and
    quartic_force on arrays of points; integrator.c repeats its operation
    order, which fixes the integrator's bits.
    """

    def force(x, y, z):
        rho2 = x * x + y * y
        radial = 2.0 * k_rz * z * z - k_r * rho2
        return radial * x, radial * y, -k_z * z + 2.0 * k_rz * rho2 * z

    return force


def quartic_force(coeffs: QuarticCoefficients, x, y, z):
    """Force of the quartic potential at Cartesian (x, y, z); shape (..., 3)."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    f = _quartic_force(coeffs.k_z, coeffs.k_rho_z, coeffs.k_rho)(x, y, z)
    return np.stack(np.broadcast_arrays(*f), axis=-1)


@dataclass(frozen=True)
class ForceGrid:
    """Sampled force field: positions and force vectors, both (N, 3) in SI."""

    positions: np.ndarray
    forces: np.ndarray
    provenance: str

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        frc = np.asarray(self.forces, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or frc.shape != pos.shape:
            raise ValueError("positions and forces must both have shape (N, 3)")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(frc))):
            raise ValueError("force grid entries must be finite")
        if not self.provenance:
            raise ValueError("provenance tag is required")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "forces", frc)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(f"# source: {self.provenance}\n")
            fh.write("x y z fx fy fz\n")
            write_table(fh, np.hstack((self.positions, self.forces)))

    @classmethod
    def load(cls, path):
        header, data = read_table(path)
        if not len(data):
            raise ValueError(f"no data rows in force grid {path}")
        provenance = "imported-external"
        for line in header:
            if line.startswith("# source:"):
                provenance = line[len("# source:"):].strip()
        return cls(positions=data[:, :3], forces=data[:, 3:6], provenance=provenance)


def sample_force_grid(force_fn, half_widths, n_per_axis=11, provenance="dipole-analytic"):
    """Tabulate force_fn(x, y, z) on a centered uniform box; returns a ForceGrid."""
    ax = [np.linspace(-h, h, n_per_axis) for h in half_widths]
    xs, ys, zs = np.meshgrid(*ax, indexing="ij")
    pos = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    frc = force_fn(pos[:, 0], pos[:, 1], pos[:, 2])
    return ForceGrid(positions=pos, forces=np.asarray(frc), provenance=provenance)


@dataclass(frozen=True)
class RmseReport:
    """Per-axis residual norms relative to the force norms, and their mean."""

    rmse_x: float
    rmse_y: float
    rmse_z: float
    n_samples: int

    @property
    def rmse_avg(self) -> float:
        return (self.rmse_x + self.rmse_y + self.rmse_z) / 3.0


def fit_polynomial_force(grid: ForceGrid):
    """Least-squares fit of the quartic force model to a sampled force field.

    All three Cartesian components share the coefficient vector
    (k_z, k_rho_z, k_rho); the normalized per-axis root-mean-square errors
    quantify how well the quartic form describes the field.

    Returns (QuarticCoefficients, RmseReport).
    """
    pos = grid.positions
    if len(pos) < 125:
        raise ValueError(f"need at least 125 samples, got {len(pos)}")
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]

    # Rows: F_x, F_y, F_z equations; columns: k_z, k_rho_z, k_rho.  The force
    # is linear in the coefficients, so column j is the integrator's force
    # expression at the j-th unit coefficient vector.  Adding 0.0 turns the
    # -0.0 of a zero coefficient times a negative coordinate into +0.0, whose
    # sign LAPACK's reflections would carry into the last bits of the fit.
    design = np.column_stack([
        np.concatenate(_quartic_force(*unit)(x, y, z)) for unit in np.eye(3)
    ]) + 0.0
    target = np.concatenate([grid.forces[:, 0], grid.forces[:, 1], grid.forces[:, 2]])
    # Columns span many decades in SI units; normalize so the rank test is
    # about geometry, not units.
    scale = np.linalg.norm(design, axis=0)
    if np.any(scale == 0.0):
        raise np.linalg.LinAlgError(
            "degenerate grid geometry: a coefficient has no support in the samples"
        )
    coef, _, rank, _ = np.linalg.lstsq(design / scale, target, rcond=None)
    if rank < 3:
        raise np.linalg.LinAlgError(
            f"rank-deficient design matrix (rank {rank}): grid geometry does "
            "not constrain all three coefficients"
        )
    coef = coef / scale

    fitted = quartic_force(QuarticCoefficients(*coef), x, y, z)
    rmses = []
    for i in range(3):
        denom = float(np.sum(grid.forces[:, i] ** 2))
        num = float(np.sum((grid.forces[:, i] - fitted[:, i]) ** 2))
        if denom == 0.0:
            rmses.append(0.0 if num == 0.0 else math.inf)
        else:
            rmses.append(math.sqrt(num / denom))
    report = RmseReport(rmse_x=rmses[0], rmse_y=rmses[1], rmse_z=rmses[2],
                        n_samples=len(pos))
    return QuarticCoefficients(*coef), report
