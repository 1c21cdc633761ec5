"""Every count and every physical quantity the library takes is checked by
darkfocus._checks: a table of each entry point's arguments, each refused
as a bool, a string, NaN, an infinity and a value below its bound with a
ValueError that names it and the value, and each accepted as a numpy
scalar with the same result as the Python number.  A guard keeps the
decision in that one module."""

import dataclasses
import math
import numbers
import re
from pathlib import Path

import numpy as np
import pytest

import darkfocus
from darkfocus import (
    AbsorptionScenario,
    BeamParams,
    GridSpec,
    ParticleMedium,
    QuarticCoefficients,
    SimConfig,
    Trajectory,
    TrapComparison,
    absorption_ratio,
    boltzmann_potential,
    decorrelation_stride,
    effective_cross_section,
    estimate_na,
    estimate_psd,
    histogram_pdf,
    ks_gaussianity_test,
    lg_mode,
    load_trajectory,
    reconstruct_potential,
    save_trajectory,
    simulate,
    spawn_seeds,
)
from darkfocus import _checks
from darkfocus.dynamics import equilibrium_pdf, pooled_positions

BEAM = dict(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05)
PARTICLE = dict(radius=575e-9, n_particle=1.45, n_medium=1.53, viscosity=0.89e-3,
                temperature=293.0)
GRID = dict(transverse_start=0.0, transverse_step=1e-7, transverse_count=3, z_start=0.0,
            z_step=1e-7, z_count=3, transverse_kind="x")
RNG = np.random.default_rng(7)
SAMPLES = RNG.standard_normal((5000, 3)) * 1e-7
SIGNAL = Trajectory(dt=1e-4, positions=RNG.standard_normal((4096, 3)))
TARGET = (RNG.standard_normal(5000) * 3e-8, RNG.standard_normal(5000) * 3e-8)


def harmonic_run(**changes):
    cfg = dict(particle=ParticleMedium(**PARTICLE), dt=2e-4, n_steps=50,
               force_model="harmonic", stiffness=1e-6, seed=3, initial_position=(1e-8, 0, 0))
    return simulate(SimConfig(**{**cfg, **changes}))


def sweep(**changes):
    options = dict(dt=2e-5, n_steps=2000, n_reps=2, seed=1, burn_in=100)
    return estimate_na(TARGET, [0.46], ParticleMedium(**PARTICLE), BeamParams(**BEAM),
                       **{**options, **changes})


def scenario(cross_section=1e-13):
    bottle = BeamParams(**BEAM)
    gaussian = BeamParams(**BEAM, p_index=0, theta_rel=0.0)
    return AbsorptionScenario(bottle, gaussian, cross_section)


def read_scaled(meters_per_pixel):
    return load_trajectory(TRAJECTORY_FILE, meters_per_pixel=meters_per_pixel)


TRAJECTORY_FILE = None


@pytest.fixture(scope="module", autouse=True)
def trajectory_file(tmp_path_factory):
    global TRAJECTORY_FILE
    TRAJECTORY_FILE = tmp_path_factory.mktemp("checks") / "trajectory.txt"
    save_trajectory(Trajectory(dt=1e-3, positions=SAMPLES[:200]), TRAJECTORY_FILE)


# (entry point, argument, call(value), good value, bound): bound is
# (COUNT, least value) for a count, else _checks.real's bound keywords
COUNT, POSITIVE, AT_LEAST_ONE, NONNEGATIVE, ANY = (
    "count", dict(above=0.0), dict(at_least=1.0), dict(at_least=0.0), {})
TABLE = [
    # beam
    *(("BeamParams", name, lambda v, name=name: BeamParams(**{**BEAM, name: v}), BEAM[name],
       bound) for name, bound in (("lambda0", POSITIVE), ("n_medium", AT_LEAST_ONE),
                                  ("na", POSITIVE), ("p_total", POSITIVE))),
    ("BeamParams", "p_index", lambda v: BeamParams(**BEAM, p_index=v), 2, (COUNT, 0)),
    ("BeamParams", "theta_rel", lambda v: BeamParams(**BEAM, theta_rel=v), 3.0, ANY),
    *(("GridSpec", name, lambda v, name=name: GridSpec(**{**GRID, name: v}), GRID[name],
       bound) for name, bound in (("transverse_step", POSITIVE), ("z_step", POSITIVE),
                                  ("transverse_count", (COUNT, 1)),
                                  ("z_count", (COUNT, 1)), ("transverse_start", ANY),
                                  ("z_start", ANY))),
    ("lg_mode", "p", lambda v: lg_mode(BeamParams(**BEAM), 0, v, 2e-7, 1e-7), 2, (COUNT, 0)),
    # forces
    *(("ParticleMedium", name, lambda v, name=name: ParticleMedium(**{**PARTICLE, name: v}),
       PARTICLE[name], bound)
      for name, bound in (("radius", POSITIVE), ("viscosity", POSITIVE),
                          ("temperature", POSITIVE), ("n_particle", AT_LEAST_ONE),
                          ("n_medium", AT_LEAST_ONE))),
    *(("QuarticCoefficients", name,
       lambda v, name=name: QuarticCoefficients(**{**dict(k_z=3.86e-7, k_rho_z=8.81e7,
                                                          k_rho=2.26e8), name: v}),
       good, ANY) for name, good in (("k_z", 3.86e-7), ("k_rho_z", 8.81e7), ("k_rho", 2.26e8))),
    # dynamics
    ("SimConfig", "dt", lambda v: harmonic_run(dt=v), 2e-4, POSITIVE),
    ("SimConfig", "n_steps", lambda v: harmonic_run(n_steps=v), 50, (COUNT, 1)),
    ("SimConfig", "seed", lambda v: harmonic_run(seed=v), 3, (COUNT, 0)),
    ("SimConfig", "initial_position",
     lambda v: harmonic_run(initial_position=(0.0, v, 0.0)), 1e-8, ANY),
    ("SimConfig", "stiffness", lambda v: harmonic_run(stiffness=(1e-6, v, 1e-6)), 2e-6,
     NONNEGATIVE),
    ("SimConfig", "domain_bound", lambda v: harmonic_run(domain_bound=v), 1e-6, POSITIVE),
    ("equilibrium_pdf", "temperature",
     lambda v: equilibrium_pdf(lambda x: x * x, v, [np.linspace(-1e-7, 1e-7, 11)]), 293.0,
     POSITIVE),
    ("Trajectory", "dt", lambda v: Trajectory(dt=v, positions=SAMPLES[:10]), 1e-3, POSITIVE),
    ("spawn_seeds", "the number of runs", lambda v: spawn_seeds(5, v), 4, (COUNT, 0)),
    ("pooled_positions", "burn_in",
     lambda v: pooled_positions([SIGNAL, SIGNAL], burn_in=v), 10, (COUNT, 0)),
    ("load_trajectory", "meters_per_pixel", read_scaled, 4.7e-8, POSITIVE),
    # spectral
    ("estimate_psd", "nperseg", lambda v: estimate_psd(SIGNAL, nperseg=v), 256, (COUNT, 4)),
    ("estimate_psd", "overlap", lambda v: estimate_psd(SIGNAL, overlap=v), 0.25, NONNEGATIVE),
    # calibration
    ("ks_gaussianity_test", "n_null",
     lambda v: ks_gaussianity_test(SAMPLES[:1000, 0], n_null=v), 20, (COUNT, 1)),
    ("ks_gaussianity_test", "significance",
     lambda v: ks_gaussianity_test(SAMPLES[:1000, 0], significance=v, n_null=20), 0.05,
     POSITIVE),
    *(("decorrelation_stride", name,
       lambda v, name=name: decorrelation_stride(**{**dict(drag=1e-8, stiffness=1e-6,
                                                           dt=1e-5), name: v}),
       good, POSITIVE) for name, good in (("drag", 1e-8), ("stiffness", 1e-6), ("dt", 1e-5))),
    ("boltzmann_potential", "temperature",
     lambda v: boltzmann_potential(histogram_pdf(SAMPLES[:, 0]), v), 293.0, POSITIVE),
    ("reconstruct_potential", "temperature",
     lambda v: reconstruct_potential(SAMPLES, v, n_bins=12), 293.0, POSITIVE),
    *(("reconstruct_potential", name,
       lambda v, name=name: reconstruct_potential(SAMPLES, 293.0, **{
           **dict(n_bins=12), name: v}), good, (COUNT, 1))
      for name, good in (("n_bins", 12), ("n_folds", 4), ("min_count", 10))),
    ("reconstruct_potential", "support_quantile",
     lambda v: reconstruct_potential(SAMPLES, 293.0, n_bins=12, support_quantile=v), 0.99,
     POSITIVE),
    ("estimate_na", "n_reps", lambda v: sweep(n_reps=v), 2, (COUNT, 1)),
    ("estimate_na", "n_steps", lambda v: sweep(n_steps=v), 2000, (COUNT, 1)),
    ("estimate_na", "burn_in", lambda v: sweep(burn_in=v), 100, (COUNT, 0)),
    # absorption
    *(("effective_cross_section", name,
       lambda v, name=name: effective_cross_section(**{**dict(radius=575e-9,
                                                              lambda0=780e-9), name: v}),
       good, POSITIVE) for name, good in (("radius", 575e-9), ("lambda0", 780e-9))),
    ("AbsorptionScenario", "cross_section", scenario, 1e-13, POSITIVE),
    ("absorption_ratio", "r_eff", lambda v: absorption_ratio(scenario(), v), 2.85e-7,
     POSITIVE),
    ("TrapComparison", "longitudinal_depth_ratio", lambda v: TrapComparison(0.27, 0.17, 2.0, v),
     0.5, POSITIVE),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in TABLE]


def bad_values(bound):
    """Each value the argument must refuse: never a bool or a string, never
    NaN or an infinity, and for a count never a fraction, nor a value below
    its bound."""
    values = [True, np.True_, "x", "1", math.nan, math.inf, -math.inf]
    if isinstance(bound, tuple):
        return values + [2.5, np.float64(2.0), bound[1] - 1]
    if "above" in bound:
        return values + [bound["above"], bound["above"] - 1e-300, -1.0]
    if "at_least" in bound:
        return values + [bound["at_least"] - 1e-9, -1.0]
    return values


@pytest.mark.parametrize("entry,name,call,good,bound", TABLE, ids=IDS)
def test_bad_value_named(entry, name, call, good, bound):
    for value in bad_values(bound):
        if name == "domain_bound" and value == math.inf:
            continue  # +inf is no wall
        with pytest.raises(ValueError) as info:
            call(value)
        message = str(info.value)
        assert message.startswith(f"{name} must be ") or f" {name} must be " in message, (
            value, message)
        assert message.endswith(f", got {value!r}"), (value, message)


def same(a, b):
    """a and b hold the same values to the bit, field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(a, numbers.Real) and not isinstance(
            a, numbers.Integral):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry,name,call,good,bound", TABLE, ids=IDS)
def test_numpy_scalar_accepted(entry, name, call, good, bound):
    if isinstance(bound, tuple):
        python, numpy = int(good), np.int64(good)
    else:
        python, numpy = float(good), np.float64(good)
    assert same(call(numpy), call(python))


def test_infinite_domain_bound_is_no_wall():
    assert len(harmonic_run(domain_bound=math.inf)) == 51
    with pytest.raises(ValueError, match="^domain_bound must be finite and positive, got nan$"):
        harmonic_run(domain_bound=math.nan)


def test_reconstruction_refuses_a_bool_bin_count_before_the_fit():
    # True == 1 would put every sample in one bin, which no fit can use
    with pytest.raises(ValueError, match="^n_bins must be an integer >= 1, got True$") as info:
        reconstruct_potential(SAMPLES, 293.0, n_bins=True)
    assert not isinstance(info.value, darkfocus.NumericalError)


@pytest.mark.parametrize("value,message", [
    (3, None), (np.uint8(3), None), (10**400, None),
    (-1, "n must be an integer >= 0, got -1"),
    (np.bool_(False), "n must be an integer >= 0, got np.False_"),
    (3.0, "n must be an integer >= 0, got 3.0"),
])
def test_count(value, message):
    if message is None:
        _checks.count("n", value, 0)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checks.count("n", value, 0)


@pytest.mark.parametrize("value,options,message", [
    (1e-300, dict(above=0.0), None), (np.float32(2.5), dict(at_least=1.0), None),
    (7, {}, None), (-1.7976931348623157e308, {}, None),
    (10**400, {}, "x must be a finite number, got " + repr(10**400)),
    (0.0, dict(above=0.0), "x must be finite and positive, got 0.0"),
    (0.5, dict(at_least=1.0), "x must be finite and >= 1, got 0.5"),
    (1.0, dict(above=1.0), "x must be finite and > 1, got 1.0"),
    (np.float64(math.nan), {}, "x must be a finite number, got np.float64(nan)"),
    (np.float32(math.inf), {}, "x must be a finite number, got np.float32(inf)"),
    (1 + 0j, {}, "x must be a finite number, got (1+0j)"),
])
def test_real(value, options, message):
    if message is None:
        _checks.real("x", value, **options)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checks.real("x", value, **options)


def test_one_module_decides_what_a_number_is():
    # numbers.Integral, numbers.Real, numpy's scalar types and bool tests
    # belong to darkfocus._checks alone
    pattern = re.compile(r"numbers\.(Integral|Real)|np\.(integer|floating|bool_)\b"
                         r"|isinstance\((?:[^()]|\([^()]*\))*\bbool\b")
    src = Path(darkfocus.__file__).resolve().parent
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "_checks.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []
