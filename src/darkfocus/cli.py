"""Command-line front end: config-driven runs that emit plot-ready text files.

Every run validates its JSON config (unknown keys rejected), writes a
resolved copy next to its outputs, and uses distinct exit codes:
0 success, 2 config error, 3 numerical failure, 4 physics signal (escape).
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .absorption import (
    AbsorptionScenario,
    absorption_ratio,
    absorption_ratio_sweep,
    save_absorption_sweep,
    trap_comparison,
)
from .beam import BeamParams, GridSpec, bottle_geometry, render_intensity_grid
from .calibration import estimate_na, reconstruct_potential
from .dynamics import (
    SimConfig,
    SimulationUnstableError,
    load_trajectory,
    save_trajectory,
    simulate,
)
from .forces import (
    ForceGrid,
    QuarticCoefficients,
    dipole_gradient_force,
    fit_polynomial_force,
    quartic_coefficients,
    sample_force_grid,
)
from .spectral import FitError, estimate_psd, fit_lorentzian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PHYSICS = 4


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "beam": {"lambda0", "n_medium", "na", "p_total", "p_index", "theta_rel"},
    "particle": {"radius", "n_particle", "n_medium", "viscosity", "temperature"},
    "simulation": {
        "force_model", "dt", "n_steps", "seed", "domain_bound", "boundary",
        "initial_position", "coefficients", "stiffness", "include_scattering",
    },
    "analysis": {
        "trajectory", "meters_per_pixel", "psd_axis", "psd_nperseg", "psd_overlap",
        "fit_range", "n_folds", "n_bins", "min_count", "burn_in", "force_grid",
        "fit_box_fraction", "fit_points",
    },
    "grid": {
        "half_width_factor", "half_height_factor", "n_transverse", "n_z",
        "transverse_kind",
    },
    "sweep": {
        "na_start", "na_stop", "na_step", "n_reps", "n_steps", "dt", "target",
        "target_fc", "boundary", "domain_bound", "burn_in",
    },
    "absorption": {"power_ratio", "r_eff_min", "r_eff_max", "n_r_eff"},
}

_DEFAULTS = {
    "beam": {
        "lambda0": 780e-9, "n_medium": 1.53, "na": 0.46, "p_total": 50e-3,
        "p_index": 1, "theta_rel": math.pi,
    },
    "particle": {
        "radius": 575e-9, "n_particle": 1.45, "viscosity": 0.89e-3,
        "temperature": 293.0,
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
        "n_steps": 60_000, "dt": 2e-4, "target": None, "target_fc": None,
        "boundary": "absorb", "domain_bound": None, "burn_in": 500,
    },
    "absorption": {
        "power_ratio": 1.0, "r_eff_min": 50e-9, "r_eff_max": 500e-9,
        "n_r_eff": 24,
    },
}


def load_config(path: str | None) -> dict:
    cfg = {section: dict(values) for section, values in _DEFAULTS.items()}
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    for section, values in user.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(values) - _SCHEMA[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(unknown)}"
            )
        cfg[section].update(values)
    return cfg


def _beam_from(cfg) -> BeamParams:
    b = cfg["beam"]
    return BeamParams(
        lambda0=b["lambda0"], n_medium=b["n_medium"], na=b["na"],
        p_total=b["p_total"], p_index=int(b["p_index"]), theta_rel=b["theta_rel"],
    )


def _particle_from(cfg):
    from .forces import ParticleMedium

    p = cfg["particle"]
    return ParticleMedium(
        radius=p["radius"], n_particle=p["n_particle"],
        n_medium=p.get("n_medium", cfg["beam"]["n_medium"]),
        viscosity=p["viscosity"], temperature=p["temperature"],
    )


def _sim_config_from(cfg) -> SimConfig:
    s = cfg["simulation"]
    coeffs = s["coefficients"]
    if coeffs is not None:
        coeffs = QuarticCoefficients(
            k_z=coeffs["k_z"], k_rho_z=coeffs["k_rho_z"], k_rho=coeffs["k_rho"],
        )
    stiffness = s["stiffness"]
    if isinstance(stiffness, list):
        stiffness = tuple(stiffness)
    return SimConfig(
        particle=_particle_from(cfg),
        dt=s["dt"],
        n_steps=int(s["n_steps"]),
        force_model=s["force_model"],
        coefficients=coeffs,
        beam=_beam_from(cfg),
        stiffness=stiffness,
        initial_position=tuple(s["initial_position"]),
        seed=int(s["seed"]),
        domain_bound=s["domain_bound"],
        boundary=s["boundary"],
        include_scattering=bool(s["include_scattering"]),
    )


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
    spec = GridSpec.centered(
        g["half_width_factor"] * beam.waist,
        g["half_height_factor"] * beam.rayleigh_range,
        int(g["n_transverse"]), int(g["n_z"]),
        transverse_kind=g["transverse_kind"],
    )
    render_intensity_grid(beam, spec).save(out / "intensity_grid.txt")
    try:
        w_num, h_num = bottle_geometry(beam, method="search")
        width, height = bottle_geometry(beam) if beam.p_index == 1 else (w_num, h_num)
    except (ValueError, RuntimeError):
        # no dark focus for this phase/order; the grid is still useful
        width = height = w_num = h_num = math.nan
    with open(out / "geometry.txt", "w") as fh:
        fh.write(f"waist={beam.waist!r}\n")
        fh.write(f"rayleigh_range={beam.rayleigh_range!r}\n")
        fh.write(f"width={width!r}\n")
        fh.write(f"height={height!r}\n")
        fh.write(f"width_search={w_num!r}\n")
        fh.write(f"height_search={h_num!r}\n")
    if math.isnan(width):
        print("beam: no bottle structure (geometry not defined)", flush=True)
    else:
        print(f"beam: W={w_num * 1e6:.4f} um  H={h_num * 1e6:.4f} um", flush=True)
    return EXIT_OK


def cmd_simulate(cfg, out: Path) -> int:
    sim = _sim_config_from(cfg)
    traj = simulate(sim)
    save_trajectory(traj, out / "trajectory.txt")
    if traj.escape is not None:
        e = traj.escape
        print(
            f"escape at t={e.time:g} s (step {e.step}): position "
            f"({e.position[0]:.3e}, {e.position[1]:.3e}, {e.position[2]:.3e}) m",
            file=sys.stderr,
        )
        return EXIT_PHYSICS
    print(f"simulate: {len(traj) - 1} steps, dt={traj.dt:g} s", flush=True)
    return EXIT_OK


def _read_input(key, load, path, **kwargs):
    """load(path, **kwargs), reporting an unreadable file as a config error on key."""
    try:
        return load(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot read {key}: {exc}") from exc


def _get_trajectory(cfg):
    a = cfg["analysis"]
    if a["trajectory"] is not None:
        return _read_input("analysis.trajectory", load_trajectory, a["trajectory"],
                           meters_per_pixel=a["meters_per_pixel"])
    traj = simulate(_sim_config_from(cfg))
    if traj.escape is not None:
        raise SimulationEscape(traj.escape)
    return traj


class SimulationEscape(RuntimeError):
    def __init__(self, report):
        super().__init__(f"trajectory escaped at t={report.time:g} s")
        self.report = report


def cmd_psd(cfg, out: Path) -> int:
    a = cfg["analysis"]
    traj = _get_trajectory(cfg)
    psd = estimate_psd(
        traj, axis=a["psd_axis"], nperseg=a["psd_nperseg"], overlap=a["psd_overlap"],
    )
    psd.save(out / "psd.txt")
    f_range = tuple(a["fit_range"]) if a["fit_range"] else None
    fit = fit_lorentzian(psd, f_range)
    accepted = fit.f_c_in_range and fit.f_c_err < 0.5 * fit.f_c
    fit.save(out / "lorentzian.txt")
    with open(out / "lorentzian.txt", "a") as fh:
        fh.write(f"accepted={accepted}\n")
    if accepted:
        print(f"psd: f_c = {fit.f_c:.4g} +- {fit.f_c_err:.2g} Hz", flush=True)
    else:
        print(
            "psd: no corner frequency claimed (fit-quality gate: "
            f"f_c={fit.f_c:.3g} Hz, err={fit.f_c_err:.3g}, "
            f"in_range={fit.f_c_in_range})", flush=True,
        )
    return EXIT_OK


def cmd_calibrate(cfg, out: Path) -> int:
    a = cfg["analysis"]
    traj = _get_trajectory(cfg)
    burn = min(int(a["burn_in"]), max(len(traj) - 1000, 0))
    rec = reconstruct_potential(
        traj.positions[burn:],
        temperature=cfg["particle"]["temperature"],
        n_bins=int(a["n_bins"]),
        n_folds=int(a["n_folds"]),
        min_count=int(a["min_count"]),
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
        raise ConfigError("sweep.target must point at a trajectory file")
    if not s["na_step"] > 0:
        raise ConfigError(f"sweep.na_step must be positive, got {s['na_step']!r}")
    if not s["na_stop"] >= s["na_start"]:
        raise ConfigError(
            f"sweep.na_stop {s['na_stop']!r} lies below sweep.na_start {s['na_start']!r}"
        )
    target = _read_input("sweep.target", load_trajectory, s["target"],
                         meters_per_pixel=cfg["analysis"]["meters_per_pixel"])
    n = int(round((s["na_stop"] - s["na_start"]) / s["na_step"])) + 1
    na_values = s["na_start"] + s["na_step"] * np.arange(n)
    result = estimate_na(
        target,
        na_values,
        particle=_particle_from(cfg),
        beam_template=_beam_from(cfg),
        dt=s["dt"],
        n_steps=int(s["n_steps"]),
        n_reps=int(s["n_reps"]),
        seed=int(cfg["simulation"]["seed"]),
        target_fc=tuple(s["target_fc"]) if s["target_fc"] else None,
        burn_in=int(s["burn_in"]),
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
    beam = _beam_from(cfg)
    ab = cfg["absorption"]
    gauss = dataclasses.replace(beam, p_index=0, theta_rel=0.0)
    bottle = dataclasses.replace(beam, p_total=beam.p_total * ab["power_ratio"])
    scenario = AbsorptionScenario.for_particle(bottle, gauss, _particle_from(cfg))
    eta = absorption_ratio(scenario)
    comp = trap_comparison(bottle, gauss)
    comp.save(out / "trap_comparison.txt")
    with open(out / "absorption.txt", "w") as fh:
        fh.write(f"eta_abs={eta!r}\n")
        fh.write(f"power_ratio={scenario.power_ratio!r}\n")
        fh.write(f"cross_section={scenario.cross_section!r}\n")
        fh.write(f"r_eff={scenario.effective_radius!r}\n")
    sweep = absorption_ratio_sweep(
        scenario, np.linspace(ab["r_eff_min"], ab["r_eff_max"], int(ab["n_r_eff"])),
    )
    save_absorption_sweep(sweep, out / "eta_vs_radius.txt")
    print(f"absorb: eta_abs = {eta:.4f} at R_eff = {scenario.effective_radius:.3e} m",
          flush=True)
    return EXIT_OK


def cmd_forces_fit(cfg, out: Path) -> int:
    a = cfg["analysis"]
    if a["force_grid"] is not None:
        grid = _read_input("analysis.force_grid", ForceGrid.load, a["force_grid"])
    else:
        beam = _beam_from(cfg)
        pm = _particle_from(cfg)
        frac = float(a["fit_box_fraction"])
        grid = sample_force_grid(
            lambda x, y, z: dipole_gradient_force(beam, pm, x, y, z),
            (frac * beam.waist, frac * beam.waist, frac * beam.rayleigh_range),
            int(a["fit_points"]),
        )
    coeffs, report = fit_polynomial_force(grid)
    with open(out / "force_fit.txt", "w") as fh:
        fh.write(f"k_z={coeffs.k_z!r}\n")
        fh.write(f"k_rho_z={coeffs.k_rho_z!r}\n")
        fh.write(f"k_rho={coeffs.k_rho!r}\n")
        fh.write(f"rmse_x={report.rmse_x!r}\n")
        fh.write(f"rmse_y={report.rmse_y!r}\n")
        fh.write(f"rmse_z={report.rmse_z!r}\n")
        fh.write(f"rmse_avg={report.rmse_avg!r}\n")
        fh.write(f"n_samples={report.n_samples}\n")
        fh.write(f"source={grid.provenance}\n")
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationEscape as exc:
        print(f"physics signal: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, SimulationUnstableError, np.linalg.LinAlgError,
            FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
