"""Dark-focus optical tweezer simulation and calibration toolkit.

Computes structured-beam intensity and force fields for a dark focus
(optical bottle) trap, simulates overdamped Brownian motion of the trapped
microsphere, and calibrates the trap from position data: PSD/Lorentzian
corner frequencies, Boltzmann potential reconstruction with quartic
coefficients, KL-divergence NA estimation, and absorption/trap-depth
comparisons against a Gaussian tweezer.
"""

from .absorption import *
from .beam import *
from .calibration import *
from .dynamics import *
from .forces import *
from .spectral import *

__version__ = "0.1.0"
