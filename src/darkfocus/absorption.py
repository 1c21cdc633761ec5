"""Absorbed-power and trap-performance comparison between the dark focus and
a Gaussian tweezer of the same waist.

The absorbed power is proportional to the optical power intercepted by the
particle's effective cross-section A_p = V/lambda, so the absorption ratio
between the two traps reduces to the ratio of mode power transmitted
through a disk of radius R_eff = sqrt(A_p / 4 pi).  The disk is taken in
the focal plane, centered on the axis.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import _checks
from ._text import write_table, write_values
from .beam import BeamParams, _bottle_peaks, dft_intensity, gaussian_intensity
from .forces import ParticleMedium

__all__ = [
    "AbsorptionScenario",
    "TrapComparison",
    "effective_cross_section",
    "absorption_ratio",
    "absorption_ratio_sweep",
    "trap_comparison",
]

CURVATURE_STEP = 1e-3  # on-axis second-difference step, in Rayleigh ranges
# 64-point Gauss-Legendre rule on [0, 1], computed once, applied to each
# 2-waist piece of a disk: for disks of 1e-3 to 1000 waists it gives the
# Gaussian's power fraction to 2e-15 of its closed form
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_NODES, _WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
_PIECE_WAISTS = 2.0
# outside 20 waists a bottle of p <= 100 carries less than exp(-200) of its
# power, so a larger disk is integrated to there
_REACH_WAISTS = 20.0


def effective_cross_section(radius: float, lambda0: float) -> float:
    """A_p = V/lambda = (4/3) pi R^3 / lambda0 for a sphere, in m^2."""
    _checks.real("radius", radius, above=0.0)
    _checks.real("lambda0", lambda0, above=0.0)
    return 4.0 * math.pi * radius**3 / (3.0 * lambda0)


def _check_same_geometry(bottle: BeamParams, gaussian: BeamParams):
    if (bottle.lambda0, bottle.na, bottle.n_medium) != (
        gaussian.lambda0, gaussian.na, gaussian.n_medium,
    ):
        raise ValueError("the two beams must share wavelength, NA and medium")


@dataclass(frozen=True)
class AbsorptionScenario:
    """Bottle/Gaussian beam pair with the particle cross-section to compare."""

    bottle: BeamParams
    gaussian: BeamParams
    cross_section: float  # A_p, m^2

    def __post_init__(self):
        _check_same_geometry(self.bottle, self.gaussian)
        _checks.real("cross_section", self.cross_section, above=0.0)

    @classmethod
    def for_particle(cls, bottle: BeamParams, gaussian: BeamParams,
                     particle: ParticleMedium) -> "AbsorptionScenario":
        return cls(bottle, gaussian,
                   effective_cross_section(particle.radius, bottle.lambda0))

    @property
    def power_ratio(self) -> float:
        """P_bottle / P_gaussian."""
        return self.bottle.p_total / self.gaussian.p_total

    @property
    def effective_radius(self) -> float:
        """R_eff = sqrt(A_p / 4 pi), radius of the equivalent disk (m)."""
        return math.sqrt(self.cross_section / (4.0 * math.pi))


def _disk_power_fraction(profile, r_eff: float, waist: float) -> float:
    """Fraction of unit beam power inside a focal-plane disk of radius r_eff,
    for a beam of the given waist."""
    top = min(r_eff, _REACH_WAISTS * waist)
    edges = np.append(np.arange(0.0, top, _PIECE_WAISTS * waist), top)
    width = np.diff(edges)
    r = edges[:-1, None] + width[:, None] * _NODES
    return float(width @ ((profile(r) * 2.0 * math.pi * r) @ _WEIGHTS))


def absorption_ratio(scenario: AbsorptionScenario,
                     r_eff: float | None = None) -> float:
    """Absorbed power in the bottle relative to the Gaussian tweezer.

    eta = (P_B/P_G) x (bottle power through the disk)/(Gaussian power
    through the disk), with both mode intensities normalized to unit total
    power, integrated over the radius by a fixed 64-point Gauss-Legendre rule
    on each 2-waist piece of the disk.
    """
    if r_eff is None:
        r_eff = scenario.effective_radius
    _checks.real("r_eff", r_eff, above=0.0)
    bottle_unit = scenario.bottle.with_unit_power()
    gauss_unit = scenario.gaussian.with_unit_power()
    waist = scenario.bottle.waist
    num = _disk_power_fraction(lambda r: dft_intensity(bottle_unit, r, 0.0), r_eff, waist)
    den = _disk_power_fraction(lambda r: gaussian_intensity(gauss_unit, r, 0.0), r_eff,
                               waist)
    return scenario.power_ratio * num / den


def absorption_ratio_sweep(scenario: AbsorptionScenario, r_eff_values):
    """eta as a function of effective radius; returns an (n, 2) array."""
    r_eff_values = np.asarray(r_eff_values, dtype=float)
    etas = [absorption_ratio(scenario, r) for r in r_eff_values]
    return np.column_stack([r_eff_values, etas])


def save_absorption_sweep(table, path):
    with open(path, "w") as fh:
        fh.write("r_eff eta_abs\n")
        write_table(fh, table)


@dataclass(frozen=True)
class TrapComparison:
    """Depth and stiffness ratios (bottle relative to Gaussian)."""

    transverse_depth_ratio: float
    matched_depth_power_ratio: float
    longitudinal_stiffness_ratio: float
    longitudinal_depth_ratio: float

    def __post_init__(self):
        for field in fields(self):
            _checks.real(field.name, getattr(self, field.name), above=0.0)

    def save(self, path):
        write_values(path, asdict(self))


def trap_comparison(bottle: BeamParams, gaussian: BeamParams) -> TrapComparison:
    """Compare trap depths and axial stiffnesses at the beams' set powers.

    Depths are potential-barrier heights per unit polarizability magnitude,
    so intensity maxima stand in for them: the bottle's transverse barrier
    against the Gaussian's focal peak, and along the axis the bottle
    barrier against the full Gaussian focal depth.  The axial stiffness
    ratio uses central second differences of the on-axis intensities with
    step CURVATURE_STEP x z_R.
    """
    _check_same_geometry(bottle, gaussian)
    (_, bottle_transverse), (_, bottle_axial) = _bottle_peaks(bottle)
    gauss_peak = float(gaussian_intensity(gaussian, 0.0, 0.0))

    transverse_depth_ratio = bottle_transverse / gauss_peak
    longitudinal_depth_ratio = bottle_axial / gauss_peak

    h = CURVATURE_STEP * bottle.rayleigh_range
    second = lambda f: (f(h) - 2.0 * f(0.0) + f(-h)) / h**2
    curv_bottle = second(lambda u: float(dft_intensity(bottle, 0.0, u)))
    curv_gauss = second(lambda u: float(gaussian_intensity(gaussian, 0.0, u)))
    longitudinal_stiffness_ratio = curv_bottle / abs(curv_gauss)

    return TrapComparison(
        transverse_depth_ratio=transverse_depth_ratio,
        matched_depth_power_ratio=(bottle.p_total / gaussian.p_total)
        / transverse_depth_ratio,
        longitudinal_stiffness_ratio=longitudinal_stiffness_ratio,
        longitudinal_depth_ratio=longitudinal_depth_ratio,
    )
