"""Dark-focus optical tweezer simulation and calibration toolkit.

Computes structured-beam intensity and force fields for a dark focus
(optical bottle) trap, simulates overdamped Brownian motion of the trapped
microsphere, and calibrates the trap from position data: PSD/Lorentzian
corner frequencies, Boltzmann potential reconstruction with quartic
coefficients, KL-divergence NA estimation, and absorption/trap-depth
comparisons against a Gaussian tweezer.
"""

from .absorption import (
    AbsorptionScenario,
    TrapComparison,
    absorption_ratio,
    absorption_ratio_sweep,
    effective_cross_section,
    trap_comparison,
)
from .beam import (
    BeamParams,
    GridSpec,
    IntensityGrid,
    bottle_geometry,
    dft_intensity,
    gaussian_intensity,
    lg_mode,
    render_intensity_grid,
)
from .calibration import (
    EmpiricalPdf,
    KsResult,
    NaSweepResult,
    PotentialReconstruction,
    decorrelation_stride,
    estimate_na,
    histogram_pdf,
    kl_divergence,
    ks_gaussianity_test,
    reconstruct_potential,
)
from .dynamics import (
    EscapeReport,
    SimConfig,
    SimulationUnstableError,
    Trajectory,
    equilibrium_pdf,
    load_trajectory,
    marginal_density,
    pooled_positions,
    save_trajectory,
    simulate,
    simulate_ensemble,
    spawn_seeds,
)
from .forces import (
    ForceGrid,
    ParticleMedium,
    QuarticCoefficients,
    RmseReport,
    dipole_gradient_force,
    dipole_potential,
    dipole_scattering_force,
    fit_polynomial_force,
    quartic_coefficients,
    quartic_force,
    quartic_potential,
    sample_force_grid,
)
from .spectral import (
    CornerFrequencyResult,
    FitError,
    LorentzianFit,
    NumericalError,
    PsdEstimate,
    corner_frequency_of,
    estimate_psd,
    fit_lorentzian,
)

__version__ = "0.1.0"
