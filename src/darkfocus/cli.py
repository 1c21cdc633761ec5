"""Command-line front end: config-driven runs that emit plot-ready text files.

Every run validates its JSON config against the defaults table (unknown
keys and values of another JSON type than the default's are rejected),
writes a resolved copy next to its outputs, and exits with a code chosen by
the class of what went wrong, with a one-line message and no traceback:

0 success;
2 config error: a ValueError, TypeError, OSError or MemoryError, such as
  an invalid value, an unreadable input, an unwritable output or a size
  too large to allocate;
3 numerical failure: a NumericalError, LinAlgError, ArithmeticError or
  RuntimeError, such as too few bins for a fit or a singular least-squares
  problem;
4 physics signal: a SimulationEscape, the particle left the simulation
  domain; the message gives the time, the step and the position.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _checks
from .absorption import (
    AbsorptionScenario,
    absorption_ratio,
    absorption_ratio_sweep,
    trap_comparison,
)
from ._text import write_table, write_values
from .beam import BeamParams, GridSpec, bottle_geometry, render_intensity_grid
from .calibration import estimate_na, reconstruct_potential
from .dynamics import SimConfig, load_trajectory, save_trajectory, simulate
from .forces import (
    ForceGrid,
    ParticleMedium,
    QuarticCoefficients,
    dipole_gradient_force,
    fit_polynomial_force,
    sample_force_grid,
)
from .spectral import NumericalError, estimate_psd, fit_lorentzian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PHYSICS = 4


_DEFAULTS = {
    "beam": {
        "lambda0": 780e-9, "n_medium": 1.53, "na": 0.46, "p_total": 50e-3,
        "p_index": 1, "theta_rel": math.pi,
    },
    "particle": {
        # n_medium None: the medium of the beam
        "radius": 575e-9, "n_particle": 1.45, "n_medium": None,
        "viscosity": 0.89e-3, "temperature": 293.0,
    },
    "simulation": {
        "force_model": "quartic", "dt": 2e-5, "n_steps": 200_000, "seed": 1,
        "domain_bound": None, "boundary": "absorb",
        "initial_position": [0.0, 0.0, 0.0], "coefficients": None,
        "stiffness": None, "include_scattering": False,
    },
    "analysis": {
        "trajectory": None, "meters_per_pixel": None, "psd_axis": "x",
        "psd_nperseg": None, "psd_overlap": 0.5, "fit_range": None,
        "n_folds": 5, "n_bins": 40, "min_count": 20, "burn_in": 1000,
        "force_grid": None, "fit_box_fraction": 0.35, "fit_points": 11,
    },
    "grid": {
        "half_width_factor": 2.0, "half_height_factor": 2.0,
        "n_transverse": 201, "n_z": 201, "transverse_kind": "x",
    },
    "sweep": {
        "na_start": 0.40, "na_stop": 0.60, "na_step": 0.01, "n_reps": 4,
        "n_steps": 60_000, "dt": 2e-5, "target": None, "target_fc": None,
        "boundary": "absorb", "domain_bound": None, "burn_in": 500,
    },
    "absorption": {
        "power_ratio": 1.0, "r_eff_min": 50e-9, "r_eff_max": 500e-9,
        "n_r_eff": 24,
    },
}


_KINDS = {bool: "true or false", int: "an integer", str: "a string", list: "a list"}


def _check_type(name, value, default):
    """Reject a value whose JSON type differs from its default's, and a
    number of a real default that is not finite; a None default leaves the
    value to the library constructors."""
    if default is None:
        return
    kind = type(default)
    if kind is float:
        _checks.real(name, value)
    elif type(value) is not kind:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def load_config(path: str | None) -> dict:
    cfg = {section: dict(values) for section, values in _DEFAULTS.items()}
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ValueError("config root must be a JSON object")
    for section, values in user.items():
        if section not in _DEFAULTS:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = set(values) - set(_DEFAULTS[section])
        if unknown:
            raise ValueError(
                f"unknown keys in section {section!r}: {sorted(unknown)}"
            )
        for key, value in values.items():
            _check_type(f"{section}.{key}", value, _DEFAULTS[section][key])
        cfg[section].update(values)
    return cfg


def _section(name, cls, values):
    """cls(**values) of a dict values keyed by cls's fields, a ValueError prefixed
    with the section name: each message of cls opens with the field at fault."""
    fields = [f.name for f in dataclasses.fields(cls)]
    if not isinstance(values, dict) or sorted(values) != sorted(fields):
        raise ValueError(f"{name} must be an object of {', '.join(fields)}, got {values!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from exc


def _beam_from(cfg) -> BeamParams:
    return _section("beam", BeamParams, cfg["beam"])


def _particle_from(cfg) -> ParticleMedium:
    p = cfg["particle"]
    # None: the medium of the beam, checked as the beam's
    n_medium = _beam_from(cfg).n_medium if p["n_medium"] is None else p["n_medium"]
    return _section("particle", ParticleMedium, {**p, "n_medium": n_medium})


def _sim_config_from(cfg) -> SimConfig:
    s = cfg["simulation"]
    return _section("simulation", SimConfig, {
        **s, "particle": _particle_from(cfg), "beam": _beam_from(cfg),
        "coefficients": None if s["coefficients"] is None else _section(
            "simulation.coefficients", QuarticCoefficients, s["coefficients"]),
    })


def _prepare_out(cfg, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def cmd_beam(cfg, out: Path) -> int:
    beam = _beam_from(cfg)
    g = cfg["grid"]
    for key in ("half_width_factor", "half_height_factor"):
        _checks.real(f"grid.{key}", g[key], above=0.0)
    for key in ("n_transverse", "n_z"):
        _checks.count(f"grid.{key}", g[key], 1)
    _checks.choice("grid.transverse_kind", g["transverse_kind"], ("rho", "x"))
    spec = GridSpec.centered(
        g["half_width_factor"] * beam.waist,
        g["half_height_factor"] * beam.rayleigh_range,
        g["n_transverse"], g["n_z"],
        transverse_kind=g["transverse_kind"],
    )
    render_intensity_grid(beam, spec).save(out / "intensity_grid.txt")
    try:
        w_num, h_num = bottle_geometry(beam, method="search")
        width, height = bottle_geometry(beam)
    except (ValueError, RuntimeError):
        # no dark focus for this phase/order; the grid is still useful
        width = height = w_num = h_num = math.nan
    write_values(out / "geometry.txt", {
        "waist": beam.waist, "rayleigh_range": beam.rayleigh_range, "width": width,
        "height": height, "width_search": w_num, "height_search": h_num,
    })
    if math.isnan(width):
        print("beam: no bottle structure (geometry not defined)", flush=True)
    else:
        print(f"beam: W={w_num * 1e6:.4f} um  H={h_num * 1e6:.4f} um", flush=True)
    return EXIT_OK


class SimulationEscape(RuntimeError):
    def __init__(self, report):
        x, y, z = report.position
        super().__init__(
            f"trajectory escaped at t={report.time:g} s (step {report.step}): "
            f"position ({x:.3e}, {y:.3e}, {z:.3e}) m"
        )
        self.report = report


def cmd_simulate(cfg, out: Path) -> int:
    sim = _sim_config_from(cfg)
    traj = simulate(sim)
    save_trajectory(traj, out / "trajectory.txt")
    if traj.escape is not None:
        raise SimulationEscape(traj.escape)
    print(f"simulate: {len(traj) - 1} steps, dt={traj.dt:g} s", flush=True)
    return EXIT_OK


def _read_input(key, load, path, **kwargs):
    """load(path, **kwargs), reporting an unreadable file as a config error on key."""
    # open() takes an integer or a bool as a file descriptor
    if not isinstance(path, str):
        raise ValueError(f"{key} must be a string, got {path!r}")
    try:
        return load(path, **kwargs)
    except OSError as exc:
        raise ValueError(f"cannot read {key}: {exc}") from exc


def _meters_per_pixel(cfg):
    """analysis.meters_per_pixel, checked: None leaves the scale to the file."""
    scale = cfg["analysis"]["meters_per_pixel"]
    if scale is not None:
        _checks.real("analysis.meters_per_pixel", scale, above=0.0)
    return scale


def _get_trajectory(cfg):
    a = cfg["analysis"]
    scale = _meters_per_pixel(cfg)
    if a["trajectory"] is not None:
        return _read_input("analysis.trajectory", load_trajectory, a["trajectory"],
                           meters_per_pixel=scale)
    traj = simulate(_sim_config_from(cfg))
    if traj.escape is not None:
        raise SimulationEscape(traj.escape)
    return traj


def cmd_psd(cfg, out: Path) -> int:
    a = cfg["analysis"]
    f_range = a["fit_range"] or None
    if f_range is not None and not (isinstance(f_range, list) and len(f_range) == 2):
        raise ValueError("analysis.fit_range must be a list [lo, hi] of two frequencies in Hz, "
                         f"got {f_range!r}")
    for bound in f_range or ():
        _checks.real("analysis.fit_range", bound, above=0.0)
    _checks.choice("analysis.psd_axis", a["psd_axis"], ("x", "y", "z"))
    if a["psd_nperseg"] is not None:
        _checks.count("analysis.psd_nperseg", a["psd_nperseg"], 4)
    _checks.real("analysis.psd_overlap", a["psd_overlap"], at_least=0.0, below=1.0)
    traj = _get_trajectory(cfg)
    if a["psd_nperseg"] is not None and a["psd_nperseg"] > len(traj) // 2:
        raise ValueError(f"analysis.psd_nperseg must be at most {len(traj) // 2} for two "
                         f"segments in {len(traj)} samples, got {a['psd_nperseg']!r}")
    psd = estimate_psd(
        traj, axis=a["psd_axis"], nperseg=a["psd_nperseg"], overlap=a["psd_overlap"],
    )
    psd.save(out / "psd.txt")
    fit = fit_lorentzian(psd, f_range)
    fit.save(out / "lorentzian.txt")
    if fit.accepted:
        print(f"psd: f_c = {fit.f_c:.4g} +- {fit.f_c_err:.2g} Hz", flush=True)
    else:
        print(f"psd: no corner frequency claimed (fit-quality gate: f_c={fit.f_c:.3g} Hz, "
              f"err={fit.f_c_err:.3g}, in_range={fit.f_c_in_range})", flush=True)
    return EXIT_OK


def cmd_calibrate(cfg, out: Path) -> int:
    a = cfg["analysis"]
    _checks.count("analysis.burn_in", a["burn_in"], 0)
    for key in ("n_bins", "n_folds", "min_count"):
        _checks.count(f"analysis.{key}", a[key], 1)
    traj = _get_trajectory(cfg)
    burn = min(a["burn_in"], max(len(traj) - 1000, 0))
    rec = reconstruct_potential(
        traj.positions[burn:],
        temperature=cfg["particle"]["temperature"],
        n_bins=a["n_bins"],
        n_folds=a["n_folds"],
        min_count=a["min_count"],
    )
    rec.save(out / "reconstruction.txt")
    c, u = rec.coefficients, rec.uncertainties
    print(
        f"calibrate: k_z=({c.k_z:.3e} +- {u[0]:.1e}) N/m  "
        f"k_rho_z=({c.k_rho_z:.3e} +- {u[1]:.1e}) N/m^3  "
        f"k_rho=({c.k_rho:.3e} +- {u[2]:.1e}) N/m^3", flush=True,
    )
    return EXIT_OK


def cmd_sweep_na(cfg, out: Path) -> int:
    s = cfg["sweep"]
    if s["target"] is None:
        raise ValueError("sweep.target must point at a trajectory file")
    for key in ("na_step", "dt"):
        _checks.real(f"sweep.{key}", s[key], above=0.0)
    beam = _beam_from(cfg)
    for key in ("na_start", "na_stop"):
        _checks.real(f"sweep.{key}", s[key], above=0.0, below=beam.n_medium)
    if s["domain_bound"] not in (None, math.inf):  # +inf: no wall
        _checks.real("sweep.domain_bound", s["domain_bound"], above=0.0)
    target_fc = s["target_fc"]
    if target_fc is not None:
        if not (isinstance(target_fc, list) and len(target_fc) == 2):
            raise ValueError("sweep.target_fc must be None or a list [value, error] of a corner "
                             f"frequency in Hz and its error, got {target_fc!r}")
        _checks.real("sweep.target_fc", target_fc[0], above=0.0)
        _checks.real("sweep.target_fc", target_fc[1], at_least=0.0)
    # estimate_na keeps at least 100 samples of each run
    for key, least in (("n_steps", 99), ("n_reps", 1)):
        _checks.count(f"sweep.{key}", s[key], least)
    _checks.count("sweep.burn_in", s["burn_in"], 0, s["n_steps"] + 1 - 100)
    _checks.choice("sweep.boundary", s["boundary"], ("absorb", "reflect"))
    if not s["na_stop"] >= s["na_start"]:
        raise ValueError(
            f"sweep.na_stop {s['na_stop']!r} lies below sweep.na_start {s['na_start']!r}"
        )
    target = _read_input("sweep.target", load_trajectory, s["target"],
                         meters_per_pixel=_meters_per_pixel(cfg))
    n = int(round((s["na_stop"] - s["na_start"]) / s["na_step"])) + 1
    na_values = s["na_start"] + s["na_step"] * np.arange(n)
    result = estimate_na(
        target,
        na_values,
        particle=_particle_from(cfg),
        beam_template=beam,
        dt=s["dt"],
        n_steps=s["n_steps"],
        n_reps=s["n_reps"],
        seed=cfg["simulation"]["seed"],
        target_fc=target_fc if target_fc is None else tuple(target_fc),
        burn_in=s["burn_in"],
        boundary=s["boundary"],
        domain_bound=s["domain_bound"],
    )
    result.save(out / "na_sweep.txt")
    print(f"sweep-na: argmin KL at NA = {result.argmin_na:.3f}", flush=True)
    if result.fc_interval is not None:
        print(
            f"sweep-na: corner-frequency-compatible NA in "
            f"[{result.fc_interval[0]:.3f}, {result.fc_interval[1]:.3f}]", flush=True,
        )
    return EXIT_OK


def cmd_absorb(cfg, out: Path) -> int:
    ab = cfg["absorption"]
    _checks.count("absorption.n_r_eff", ab["n_r_eff"], 1)
    for key in ("power_ratio", "r_eff_min", "r_eff_max"):
        _checks.real(f"absorption.{key}", ab[key], above=0.0)
    beam = _beam_from(cfg)
    gauss = dataclasses.replace(beam, p_index=0, theta_rel=0.0)
    bottle = dataclasses.replace(beam, p_total=beam.p_total * ab["power_ratio"])
    scenario = AbsorptionScenario.for_particle(bottle, gauss, _particle_from(cfg))
    eta = absorption_ratio(scenario)
    comp = trap_comparison(bottle, gauss)
    comp.save(out / "trap_comparison.txt")
    write_values(out / "absorption.txt", {
        "eta_abs": eta, "power_ratio": scenario.power_ratio,
        "cross_section": scenario.cross_section, "r_eff": scenario.effective_radius,
    })
    sweep = absorption_ratio_sweep(
        scenario, np.linspace(ab["r_eff_min"], ab["r_eff_max"], ab["n_r_eff"]),
    )
    write_table(out / "eta_vs_radius.txt", sweep, "r_eff eta_abs")
    print(f"absorb: eta_abs = {eta:.4f} at R_eff = {scenario.effective_radius:.3e} m",
          flush=True)
    return EXIT_OK


def cmd_forces_fit(cfg, out: Path) -> int:
    a = cfg["analysis"]
    _checks.real("analysis.fit_box_fraction", a["fit_box_fraction"], above=0.0)
    # the fit needs 5^3 = 125 samples
    _checks.count("analysis.fit_points", a["fit_points"], 5)
    if a["force_grid"] is not None:
        grid = _read_input("analysis.force_grid", ForceGrid.load, a["force_grid"])
    else:
        beam = _beam_from(cfg)
        pm = _particle_from(cfg)
        frac = a["fit_box_fraction"]
        grid = sample_force_grid(
            lambda x, y, z: dipole_gradient_force(beam, pm, x, y, z),
            (frac * beam.waist, frac * beam.waist, frac * beam.rayleigh_range),
            a["fit_points"],
        )
    coeffs, report = fit_polynomial_force(grid)
    write_values(out / "force_fit.txt", {
        **dataclasses.asdict(coeffs), "rmse_x": report.rmse_x, "rmse_y": report.rmse_y,
        "rmse_z": report.rmse_z, "rmse_avg": report.rmse_avg,
        "n_samples": report.n_samples, "source": grid.provenance,
    })
    print(f"forces-fit: rmse_avg = {report.rmse_avg:.4%} ({grid.provenance})", flush=True)
    return EXIT_OK


_COMMANDS = {
    "beam": cmd_beam,
    "simulate": cmd_simulate,
    "psd": cmd_psd,
    "calibrate": cmd_calibrate,
    "sweep-na": cmd_sweep_na,
    "absorb": cmd_absorb,
    "forces-fit": cmd_forces_fit,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="darkfocus",
        description="Dark-focus tweezer simulation and calibration toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override simulation seed")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["simulation"]["seed"] = args.seed
        out = _prepare_out(cfg, args.out)
        return _COMMANDS[args.command](cfg, out)
    except SimulationEscape as exc:
        print(f"physics signal: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    # before the config clause: NumericalError and LinAlgError are ValueErrors
    except (NumericalError, np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
