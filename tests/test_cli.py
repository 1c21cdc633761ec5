import json
import math
import time

import numpy as np
import pytest

from darkfocus import (
    AbsorptionScenario,
    BeamParams,
    GridSpec,
    ParticleMedium,
    QuarticCoefficients,
    SimConfig,
    Trajectory,
    absorption_ratio,
    calibration,
    estimate_na,
    estimate_psd,
    load_trajectory,
    reconstruct_potential,
    save_trajectory,
)
from darkfocus.cli import _DEFAULTS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_PHYSICS, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_keyvalues(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, val = line.split("=", 1)
            out[key] = val
    return out


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"beams": {}})
        assert main(["beam", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"beam": {"wavelength": 780e-9}})
        assert main(["beam", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_invalid_physics_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"beam": {"na": 2.5}})
        assert main(["absorb", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("text,message", [
        ("{\"beam\": ", "cannot read config "),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"beam": 3}', "config section 'beam' must be an object"),
    ], ids=["malformed", "array_root", "non_object_section"])
    def test_unreadable_config_is_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["beam", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command,text,key", [
        ("simulate", '{"simulation": {"n_steps": Infinity}}', "simulation.n_steps"),
        ("simulate", '{"beam": {"p_index": Infinity}}', "beam.p_index"),
        ("absorb", '{"absorption": {"n_r_eff": 1e400}}', "absorption.n_r_eff"),
        ("simulate", '{"simulation": {"seed": 1e30}}', "simulation.seed"),
        ("simulate", '{"simulation": {"n_steps": "1000"}}', "simulation.n_steps"),
        ("beam", '{"grid": {"n_z": 2.5}}', "grid.n_z"),
        # open() would take these as file descriptors
        ("psd", '{"analysis": {"trajectory": 0}}', "analysis.trajectory"),
        ("sweep-na", '{"sweep": {"target": true}}', "sweep.target"),
        ("forces-fit", '{"analysis": {"force_grid": 1}}', "analysis.force_grid"),
    ])
    def test_value_of_another_type_rejected(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {key} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,payload,key", [
        ("beam", {"beam": {"p_index": 10**12}, "grid": {"n_transverse": 5, "n_z": 5}},
         "beam.p_index"),
        ("calibrate", {"analysis": {"burn_in": -5}}, "analysis.burn_in"),
        ("calibrate", {"analysis": {"n_folds": 0}}, "analysis.n_folds"),
        ("calibrate", {"analysis": {"min_count": -1}}, "analysis.min_count"),
        ("psd", {"analysis": {"psd_overlap": 1.5}}, "analysis.psd_overlap"),
        ("psd", {"analysis": {"psd_overlap": -0.25}}, "analysis.psd_overlap"),
        ("sweep-na", {"sweep": {"target": "t.txt", "n_steps": 0}}, "sweep.n_steps"),
        ("sweep-na", {"sweep": {"target": "t.txt", "burn_in": -1}}, "sweep.burn_in"),
        ("sweep-na", {"sweep": {"target": "t.txt", "boundary": "wall"}}, "sweep.boundary"),
        ("sweep-na", {"sweep": {"target": "t.txt", "n_steps": 60_000, "burn_in": 60_000}},
         "sweep.burn_in"),
        ("absorb", {"absorption": {"n_r_eff": 0}}, "absorption.n_r_eff"),
        ("forces-fit", {"analysis": {"fit_box_fraction": -0.35}}, "analysis.fit_box_fraction"),
        ("forces-fit", {"analysis": {"fit_box_fraction": 0.0}}, "analysis.fit_box_fraction"),
        ("forces-fit", {"analysis": {"fit_points": 2}}, "analysis.fit_points"),
        ("psd", {"analysis": {"meters_per_pixel": -1.0}}, "analysis.meters_per_pixel"),
        ("sweep-na", {"sweep": {"target": "t.txt"}, "analysis": {"meters_per_pixel": -1.0}},
         "analysis.meters_per_pixel"),
        ("sweep-na", {"sweep": {"target": "t.txt", "dt": -1.0}}, "sweep.dt"),
        ("sweep-na", {"sweep": {"target": "t.txt", "domain_bound": -1.0}}, "sweep.domain_bound"),
        ("sweep-na", {"sweep": {"target": "t.txt", "target_fc": [-1, 2]}}, "sweep.target_fc"),
        ("sweep-na", {"sweep": {"target": "t.txt", "target_fc": [90.0, -1.0]}},
         "sweep.target_fc"),
        ("sweep-na", {"sweep": {"target": "t.txt", "target_fc": 90.0}}, "sweep.target_fc"),
        ("sweep-na", {"sweep": {"target": "t.txt", "na_start": -0.1}}, "sweep.na_start"),
        ("sweep-na", {"sweep": {"target": "t.txt", "na_stop": 5.0}}, "sweep.na_stop"),
        ("beam", {"grid": {"n_transverse": 0}}, "grid.n_transverse"),
        ("beam", {"grid": {"n_z": 0}}, "grid.n_z"),
        ("beam", {"grid": {"transverse_kind": "y"}}, "grid.transverse_kind"),
        ("beam", {"grid": {"half_width_factor": -1.0}}, "grid.half_width_factor"),
        ("beam", {"grid": {"half_height_factor": 0.0}}, "grid.half_height_factor"),
        ("absorb", {"absorption": {"r_eff_min": -1e-9}}, "absorption.r_eff_min"),
        ("absorb", {"absorption": {"r_eff_max": -1e-9}}, "absorption.r_eff_max"),
        ("absorb", {"absorption": {"power_ratio": -1.0}}, "absorption.power_ratio"),
    ])
    def test_value_out_of_range_names_its_key(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path, payload)
        start = time.perf_counter()
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {key} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,payload,message", [
        ("simulate", {"simulation": {"domain_bound": "x"}},
         "simulation.domain_bound must be finite and positive, got 'x'"),
        ("simulate", {"particle": {"n_medium": "x"}},
         "particle.n_medium must be finite and >= 1, got 'x'"),
        ("simulate", {"simulation": {"force_model": "harmonic", "n_steps": 100,
                                     "stiffness": [1e-6, True, 1e-6]}},
         "simulation.stiffness must be finite and >= 0, got True"),
        ("simulate", {"simulation": {"coefficients": {"k_z": "3.86e-7", "k_rho_z": 8.81e7,
                                                      "k_rho": 2.26e8}}},
         "simulation.coefficients.k_z must be a finite number, got '3.86e-7'"),
        ("psd", {"analysis": {"meters_per_pixel": "x"}},
         "analysis.meters_per_pixel must be finite and positive, got 'x'"),
        ("sweep-na", {"sweep": {"target": "t.txt", "na_step": 0.0}},
         "sweep.na_step must be finite and positive, got 0.0"),
        # a segment of more than half the 100 samples leaves no second one
        ("psd", {"analysis": {"psd_nperseg": 51}},
         "analysis.psd_nperseg must be at most 50 for two segments in 100 samples, got 51"),
    ])
    def test_value_of_a_none_default_named(self, tmp_path, capsys, command, payload, message):
        if command == "psd":
            path = tmp_path / "t.txt"
            save_trajectory(Trajectory(dt=1e-3, positions=np.zeros((100, 3))), path)
            payload["analysis"]["trajectory"] = str(path)
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("command,payload,message", [
        ("simulate", {"simulation": {"coefficients": 5}},
         "simulation.coefficients must be an object of k_z, k_rho_z, k_rho, got 5"),
        ("simulate", {"simulation": {"coefficients": {"k_z": 1e-7}}},
         "simulation.coefficients must be an object of k_z, k_rho_z, k_rho, "
         "got {'k_z': 1e-07}"),
        ("psd", {"analysis": {"fit_range": [1]}},
         "analysis.fit_range must be a list [lo, hi] of two frequencies in Hz, got [1]"),
        ("psd", {"analysis": {"fit_range": [1.0, "x"]}},
         "analysis.fit_range must be finite and positive, got 'x'"),
        ("simulate", {"simulation": {"force_model": "x"}},
         "simulation.force_model must be 'quartic', 'dipole' or 'harmonic', got 'x'"),
        ("simulate", {"simulation": {"force_model": "harmonic"}},
         "simulation.stiffness is required by the harmonic force model"),
    ], ids=["coefficients-not-an-object", "coefficients-missing-keys", "fit-range-of-one", "fit-range-not-a-number",
            "unknown-force-model", "harmonic-without-stiffness"])
    def test_message_names_the_key_and_its_shape(self, tmp_path, capsys, command, payload,
                                                 message):
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"config error: {message}\n"

    def test_infinite_temperature_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "particle": {"temperature": math.inf},
            "simulation": {"force_model": "harmonic", "stiffness": 1e-6, "n_steps": 100},
        })
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "temperature" in err and "Traceback" not in err

    @pytest.mark.parametrize("model,option,value", [
        ("quartic", "include_scattering", True),
        ("harmonic", "include_scattering", True),
        ("quartic", "stiffness", 1e-6),
        ("dipole", "coefficients", {"k_z": 3.86e-7, "k_rho_z": 8.81e7, "k_rho": 2.26e8}),
    ], ids=["scattering-quartic", "scattering-harmonic", "stiffness-quartic",
            "coefficients-dipole"])
    def test_option_of_another_model_rejected(self, tmp_path, capsys, model, option, value):
        sim = {"force_model": model, "n_steps": 100, option: value}
        if model == "harmonic":
            sim["stiffness"] = 1e-6
        cfg = write_config(tmp_path, {"simulation": sim})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: simulation.{option} applies only to the ")
        assert "Traceback" not in err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "intensity_grid.txt").mkdir(parents=True)
        cfg = write_config(tmp_path, {"grid": {"n_transverse": 5, "n_z": 5}})
        code = main(["beam", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_resolved_config_written(self, tmp_path):
        out = tmp_path / "o"
        assert main(["absorb", "--out", str(out)]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["beam"]["na"] == 0.46
        assert set(resolved) == {"beam", "particle", "simulation", "analysis",
                                 "grid", "sweep", "absorption"}


class TestBeamCommand:
    def test_outputs_and_geometry(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"grid": {"n_transverse": 41, "n_z": 41}})
        assert main(["beam", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "geometry.txt")
        assert float(report["width"]) == pytest.approx(1.079e-6, abs=1e-9)
        assert float(report["height"]) == pytest.approx(3.590e-6, abs=1e-9)
        values = [
            float(line) for line in (out / "intensity_grid.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        arr = np.array(values).reshape(41, 41)
        assert arr[20, 20] == 0.0  # dark focus at the grid center

    def test_large_radial_order_geometry(self, tmp_path):
        # p = 39 has a bottle about a fifth of the p = 1 one
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"beam": {"p_index": 39},
                                      "grid": {"n_transverse": 21, "n_z": 21}})
        assert main(["beam", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "geometry.txt")
        for key in ("width_search", "height_search"):
            assert math.isfinite(float(report[key]))
        assert 0 < float(report["width_search"]) < 2 * float(report["waist"])
        assert 0 < float(report["height_search"]) < 2 * float(report["rayleigh_range"])

    def test_bright_center_for_zero_phase(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {
            "beam": {"theta_rel": 0.0},
            "grid": {"n_transverse": 21, "n_z": 21},
        })
        assert main(["beam", "--config", cfg, "--out", str(out)]) == EXIT_OK
        values = [
            float(line) for line in (out / "intensity_grid.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        arr = np.array(values).reshape(21, 21)
        assert arr[10, 10] > 0.0


class TestSimulateCommand:
    def test_seed_reproducibility_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulation": {"force_model": "harmonic", "stiffness": 1e-6,
                           "n_steps": 2000, "dt": 1e-4},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trajectory.txt").read_bytes() == (out2 / "trajectory.txt").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulation": {"force_model": "harmonic", "stiffness": 1e-6,
                           "n_steps": 500, "dt": 1e-4},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "trajectory.txt").read_text() != (out2 / "trajectory.txt").read_text()

    def test_escape_exit_code(self, tmp_path, capsys):
        # the reconstructed-trap strengths do not confine at room temperature
        cfg = write_config(tmp_path, {
            "simulation": {
                "coefficients": {"k_z": 3.86e-7, "k_rho_z": 8.81e7, "k_rho": 2.26e8},
                "n_steps": 500_000, "dt": 2e-5, "seed": 2,
            },
        })
        out = tmp_path / "o"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_PHYSICS
        text = (out / "trajectory.txt").read_text()
        assert "# escape_step=" in text
        step = text.split("# escape_step=")[1].split()[0]
        assert err.startswith("physics signal: ") and f"(step {step})" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["psd", "calibrate"])
    def test_analysis_of_an_escaping_run_is_a_physics_signal(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {
            "simulation": {
                "coefficients": {"k_z": 3.86e-7, "k_rho_z": 8.81e7, "k_rho": 2.26e8},
                "n_steps": 500_000, "dt": 2e-5, "seed": 2,
            },
        })
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PHYSICS
        err = capsys.readouterr().err
        assert err.startswith("physics signal: trajectory escaped at ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_arithmetic_failure_is_numerical(self, tmp_path, capsys):
        # a 1e30 m wavelength underflows the quartic coefficients to zero,
        # and the default domain bound divides by them
        cfg = write_config(tmp_path, {"beam": {"lambda0": 1e30}})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical failure: ") and "Traceback" not in err

    def test_bright_tweezer_dipole_run(self, tmp_path):
        # p = 0 has no quartic expansion; the dipole model steps its own field
        cfg = write_config(tmp_path, {
            "beam": {"p_index": 0, "theta_rel": 0.0}, "particle": {"n_particle": 1.6},
            "simulation": {"force_model": "dipole", "n_steps": 2000, "dt": 1e-6},
        })
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(np.loadtxt(out / "trajectory.txt", skiprows=4)) == 2001

    def test_harmonic_variance_matches_equipartition(self, tmp_path):
        from scipy.constants import k as k_b

        cfg = write_config(tmp_path, {
            "simulation": {"force_model": "harmonic", "stiffness": 1e-6,
                           "n_steps": 200_000, "dt": 2e-4, "seed": 6},
        })
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = np.loadtxt(out / "trajectory.txt", skiprows=4)
        var = data[5000:, 1].var()
        assert var == pytest.approx(k_b * 293.0 / 1e-6, rel=0.03)


class TestPsdCommand:
    def test_corner_frequency_reported(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulation": {"force_model": "harmonic", "stiffness": 1e-6,
                           "n_steps": 120_000, "dt": 2e-4, "seed": 4},
        })
        out = tmp_path / "o"
        assert main(["psd", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "lorentzian.txt")
        gamma = 6 * math.pi * 0.89e-3 * 575e-9
        assert float(report["f_c"]) == pytest.approx(1e-6 / (2 * math.pi * gamma),
                                                     rel=0.1)
        assert report["accepted"] == "True"
        assert (out / "psd.txt").exists()

    def test_white_noise_triggers_quality_gate(self, tmp_path):
        # free diffusion has a 1/f^2 spectrum with no corner in range: the
        # fit-quality gate must refuse to claim a corner frequency.
        # White detector noise is emulated by a trajectory file.
        rng = np.random.default_rng(0)
        traj_path = tmp_path / "noise.txt"
        with open(traj_path, "w") as fh:
            fh.write("# dt=0.001\n")
            fh.write("t x y z\n")
            for i, v in enumerate(rng.standard_normal(40_000) * 1e-9):
                fh.write(f"{i * 1e-3} {v} 0.0 0.0\n")
        cfg = write_config(tmp_path, {"analysis": {"trajectory": str(traj_path)}})
        out = tmp_path / "o"
        assert main(["psd", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "lorentzian.txt")
        assert report["accepted"] == "False"


    @pytest.mark.parametrize("nperseg", [1, 3, True])
    def test_segment_too_short_is_config_error(self, tmp_path, capsys, nperseg):
        cfg = write_config(tmp_path, {"analysis": {"psd_nperseg": nperseg},
                                      "simulation": {"n_steps": 2000}})
        code = main(["psd", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: analysis.psd_nperseg must be an integer >= 4")
        assert "Traceback" not in err

    @pytest.mark.parametrize("axis", ["", "xy", "yz", "w"])
    def test_unknown_axis_is_config_error(self, tmp_path, capsys, axis):
        cfg = write_config(tmp_path, {"analysis": {"psd_axis": axis},
                                      "simulation": {"n_steps": 2000}})
        code = main(["psd", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(
            f"config error: analysis.psd_axis must be 'x', 'y' or 'z', got {axis!r}")
        assert "Traceback" not in err


class TestCalibrateCommand:
    def test_reconstruction_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulation": {
                "coefficients": {"k_z": 3.86e-7, "k_rho_z": 8.81e7, "k_rho": 2.26e8},
                "boundary": "reflect", "domain_bound": 1.6e-7,
                "n_steps": 300_000, "dt": 2e-5, "seed": 12,
            },
            "analysis": {"burn_in": 20_000},
        })
        out = tmp_path / "o"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "reconstruction.txt")
        assert float(report["k_z"]) == pytest.approx(3.86e-7, rel=0.3)
        assert float(report["k_rho"]) == pytest.approx(2.26e8, rel=0.3)
        assert float(report["n_folds"]) == 5


class TestAbsorbCommand:
    def test_reports(self, tmp_path):
        out = tmp_path / "o"
        assert main(["absorb", "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "absorption.txt")
        assert float(report["eta_abs"]) == pytest.approx(0.045, abs=0.003)
        comparison = read_keyvalues(out / "trap_comparison.txt")
        assert float(comparison["transverse_depth_ratio"]) == pytest.approx(
            2 / math.e**2, abs=1e-4
        )
        sweep = np.loadtxt(out / "eta_vs_radius.txt", skiprows=1)
        assert np.all(np.diff(sweep[:, 1]) > 0)

    def test_smallest_radius_runs(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"absorption": {"r_eff_min": 5e-324}})
        assert main(["absorb", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sweep = np.loadtxt(out / "eta_vs_radius.txt", skiprows=1)
        assert sweep[0, 1] == 0.0


class TestForcesFitCommand:
    def test_dipole_grid_fit(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"analysis": {"fit_box_fraction": 0.1}})
        assert main(["forces-fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "force_fit.txt")
        assert float(report["rmse_avg"]) < 0.02
        assert report["source"] == "dipole-analytic"

    def test_external_grid_import(self, tmp_path):
        # bridge for externally computed force fields
        from darkfocus import QuarticCoefficients, quartic_force, sample_force_grid

        coeffs = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)
        grid = sample_force_grid(
            lambda x, y, z: quartic_force(coeffs, x, y, z),
            (1e-7, 1e-7, 3e-7), 11, provenance="external-mie-toolbox",
        )
        grid_path = tmp_path / "external.txt"
        grid.save(grid_path)
        cfg = write_config(tmp_path, {"analysis": {"force_grid": str(grid_path)}})
        out = tmp_path / "o"
        assert main(["forces-fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = read_keyvalues(out / "force_fit.txt")
        assert float(report["rmse_avg"]) < 1e-10
        assert float(report["k_z"]) == pytest.approx(3.86e-7, rel=1e-9)
        assert report["source"] == "external-mie-toolbox"

    def test_grid_without_rows_is_config_error(self, tmp_path, capsys):
        grid_path = tmp_path / "empty.txt"
        grid_path.write_text("# source: external\nx y z fx fy fz\n")
        cfg = write_config(tmp_path, {"analysis": {"force_grid": str(grid_path)}})
        code = main(["forces-fit", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and str(grid_path) in err


    def test_degenerate_grid_is_numerical_failure(self, tmp_path, capsys):
        # every sample on the z = 0 plane leaves k_z without support
        from darkfocus import QuarticCoefficients, quartic_force, sample_force_grid

        coeffs = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)
        grid = sample_force_grid(
            lambda x, y, z: quartic_force(coeffs, x, y, z),
            (1e-7, 1e-7, 0.0), 5, provenance="planar",
        )
        grid_path = tmp_path / "planar.txt"
        grid.save(grid_path)
        cfg = write_config(tmp_path, {"analysis": {"force_grid": str(grid_path)}})
        code = main(["forces-fit", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical failure: degenerate grid geometry")
        assert "Traceback" not in err

    def test_grid_beyond_the_design_is_one_line(self, tmp_path, capfd):
        # the fit's cubic columns overflow; LAPACK would print to stdout and
        # numpy warn on stderr if the solve saw them
        from darkfocus import sample_force_grid

        grid = sample_force_grid(lambda x, y, z: -np.stack([x, y, z], axis=-1),
                                 (1e110, 1e110, 1e110), 5, provenance="huge")
        grid_path = tmp_path / "huge.txt"
        grid.save(grid_path)
        cfg = write_config(tmp_path, {"analysis": {"force_grid": str(grid_path)}})
        code = main(["forces-fit", "--config", cfg, "--out", str(tmp_path / "o")])
        out, err = capfd.readouterr()
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("numerical failure: ")
        assert "overflow" in err and "rescale" in err


class TestSweepNaCommand:
    def test_round_trip_small(self, tmp_path, capsys):
        sim_payload = {
            "simulation": {
                "n_steps": 150_000, "dt": 1e-5, "seed": 21,
                "coefficients": None, "force_model": "quartic",
            },
        }
        cfg = write_config(tmp_path, sim_payload, "target.json")
        target_out = tmp_path / "target"
        assert main(["simulate", "--config", cfg, "--out", str(target_out)]) == EXIT_OK

        sweep_cfg = write_config(tmp_path, {
            "sweep": {
                "na_start": 0.44, "na_stop": 0.48, "na_step": 0.02,
                "n_reps": 3, "n_steps": 40_000, "dt": 1e-5,
                "target": str(target_out / "trajectory.txt"),
                "burn_in": 2000, "target_fc": [90.0, 1e6],
            },
        }, "sweep.json")
        out = tmp_path / "o"
        assert main(["sweep-na", "--config", sweep_cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "na_sweep.txt").read_text().splitlines()
        assert lines[0] == "na kl fc fc_err valid"
        argmin = [l for l in lines if l.startswith("# argmin_na=")][0]
        assert float(argmin.split("=")[1]) == pytest.approx(0.46)
        # the f_c cross-check: the library's interval, written and printed
        result = estimate_na(
            load_trajectory(str(target_out / "trajectory.txt")), 0.44 + 0.02 * np.arange(3),
            particle=PARTICLE, beam_template=BeamParams(**BEAM), dt=1e-5, n_steps=40_000,
            n_reps=3, seed=_DEFAULTS["simulation"]["seed"], target_fc=(90.0, 1e6),
            burn_in=2000)
        lo, hi = result.fc_interval
        assert lines[-1] == f"# fc_interval={lo!r} {hi!r}"
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"sweep-na: corner-frequency-compatible NA in [{lo:.3f}, {hi:.3f}]")

    def test_missing_target_is_config_error(self, tmp_path):
        assert main(["sweep-na", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_default_sweep_runs(self, tmp_path):
        # the default grid, step and run length need only a target
        target_out = tmp_path / "target"
        assert main(["simulate", "--out", str(target_out)]) == EXIT_OK
        cfg = write_config(tmp_path, {"sweep": {"target": str(target_out / "trajectory.txt")}})
        out = tmp_path / "o"
        assert main(["sweep-na", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "na_sweep.txt", skiprows=1)
        assert len(rows) == 21 and rows[:, 4].all()

    @pytest.mark.parametrize("sweep", [
        {"na_step": 0.0},
        {"na_start": 0.50, "na_stop": 0.44},
        {"target": "no-such-trajectory.txt"},
        {"n_reps": 0},
        {"burn_in": -50},
        {"burn_in": 60_000},
        {"target_fc": [90]},
    ], ids=["zero_step", "stop_below_start", "missing_target_file", "no_reps",
            "negative_burn_in", "burn_in_past_the_run", "one_number_target_fc"])
    def test_bad_sweep_is_config_error(self, tmp_path, capsys, sweep):
        target = tmp_path / "target.txt"
        target.write_text("# dt=1e-05\nt x y z\n" + "".join(
            f"{i * 1e-5!r} {1e-9 * (i % 7)!r} {-1e-9 * (i % 5)!r} 0.0\n" for i in range(200)))
        cfg = write_config(tmp_path, {"sweep": {"target": str(target), **sweep}})
        code = main(["sweep-na", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "Traceback" not in err
        assert next(iter(sweep)) in err  # the message names the bad setting


@pytest.mark.parametrize("command,key", [
    ("psd", "trajectory"), ("calibrate", "trajectory"), ("forces-fit", "force_grid"),
])
def test_missing_input_file_is_config_error(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, {"analysis": {key: str(tmp_path / "no-such-file.txt")}})
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: cannot read analysis.{key}")
    assert "Traceback" not in err


def test_calibrate_with_no_bins_is_config_error(tmp_path, capsys):
    positions = np.random.default_rng(3).normal(0.0, 1e-7, size=(4000, 3))
    path = tmp_path / "trajectory.txt"
    save_trajectory(Trajectory(dt=4e-3, positions=positions), path)
    cfg = write_config(tmp_path, {"analysis": {"trajectory": str(path), "n_bins": 0}})
    code = main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: analysis.n_bins must be an integer >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_calibrate_with_non_finite_temperature_is_config_error(tmp_path, capsys, temperature):
    positions = np.random.default_rng(3).normal(0.0, 1e-7, size=(4000, 3))
    path = tmp_path / "trajectory.txt"
    save_trajectory(Trajectory(dt=4e-3, positions=positions), path)
    cfg = write_config(tmp_path, {"particle": {"temperature": temperature},
                                  "analysis": {"trajectory": str(path)}})
    code = main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(
        f"config error: particle.temperature must be a finite number, got {temperature!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,analysis,message", [
    # 1 s of 4 ms samples in 128-sample segments: 2 Hz bins, five of them in range
    ("psd", {"psd_nperseg": 128, "fit_range": [2.0, 10.0]}, "need at least 10 frequency bins"),
    # untrapped noise spreads over the (rho, z) grid: no bin reaches min_count
    ("calibrate", {}, "too few populated bins"),
])
def test_numerical_failure_exit_code(tmp_path, capsys, command, analysis, message):
    positions = np.random.default_rng(3).uniform(-1e-7, 1e-7, size=(4000, 3))
    path = tmp_path / "degenerate.txt"
    save_trajectory(Trajectory(dt=4e-3, positions=positions), path)
    cfg = write_config(tmp_path, {"analysis": {"trajectory": str(path), **analysis}})
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith(f"numerical failure: {message}")
    assert "Traceback" not in err


# The CLI checks these keys before any work, and a library argument checks
# each again: the two must agree on every value, so a probe at each bound,
# and a double or an integer either side of it, is refused by both or by
# neither.  An accepted probe gets as far as the command's missing input.
BEAM = _DEFAULTS["beam"]
SWEEP = _DEFAULTS["sweep"]
PARTICLE = ParticleMedium(**{**_DEFAULTS["particle"], "n_medium": BEAM["n_medium"]})
RNG = np.random.default_rng(11)
SIGNAL = Trajectory(dt=1e-4, positions=RNG.standard_normal((4096, 3)))
SAMPLES = RNG.standard_normal((1000, 3)) * 1e-7
RECORDING = None


@pytest.fixture(scope="module", autouse=True)
def recording(tmp_path_factory):
    global RECORDING
    RECORDING = tmp_path_factory.mktemp("drift") / "recording.txt"
    save_trajectory(SIGNAL, RECORDING)


class Accepted(Exception):
    """Raised where the library starts work, every argument checked."""


def stop(*args, **kwargs):
    raise Accepted


def around(bound):
    """bound and its neighbours: the integers or the doubles either side."""
    if isinstance(bound, int):
        return [bound - 1, bound, bound + 1]
    return [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]


def sweep(**changes):
    options = dict(dt=SWEEP["dt"], n_steps=SWEEP["n_steps"], n_reps=SWEEP["n_reps"],
                   burn_in=SWEEP["burn_in"])
    return estimate_na(None, [BEAM["na"]], PARTICLE, BeamParams(**BEAM),
                       **{**options, **changes})


def sim_config(**changes):
    coefficients = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)
    return SimConfig(**{**dict(particle=PARTICLE, dt=SWEEP["dt"], n_steps=SWEEP["n_steps"],
                               force_model="quartic", coefficients=coefficients), **changes})


def grid(**changes):
    return GridSpec.centered(1e-6, 1e-6, **{**dict(n_transverse=2, n_z=2,
                                                   transverse_kind="x"), **changes})


def eta(r_eff):
    bottle = BeamParams(**BEAM)
    gaussian = BeamParams(**{**BEAM, "p_index": 0, "theta_rel": 0.0})
    return absorption_ratio(AbsorptionScenario(bottle, gaussian, 1e-13), r_eff)


NEXT_BELOW_MEDIUM = math.nextafter(BEAM["n_medium"], 0.0)
# (command, section.key, probes, the library's call of a probe, other settings)
DRIFT = [
    ("psd", "analysis.psd_nperseg", around(4), lambda v: estimate_psd(SIGNAL, nperseg=v), {}),
    ("psd", "analysis.psd_overlap", around(0.0) + around(1.0),
     lambda v: estimate_psd(SIGNAL, overlap=v), {}),
    ("psd", "analysis.psd_axis", ["x", "y", "z", "w", "X"],
     lambda v: estimate_psd(SIGNAL, axis=v), {}),
    ("psd", "analysis.meters_per_pixel", around(0.0),
     lambda v: load_trajectory(RECORDING, meters_per_pixel=v), {}),
    *(("calibrate", f"analysis.{key}", around(1),
       lambda v, key=key: reconstruct_potential(SAMPLES, 293.0, **{key: v}), {})
      for key in ("n_bins", "n_folds", "min_count")),
    ("sweep-na", "sweep.n_reps", around(1), lambda v: sweep(n_reps=v), {}),
    ("sweep-na", "sweep.burn_in", around(0) + around(SWEEP["n_steps"] + 1 - 100),
     lambda v: sweep(burn_in=v), {}),
    ("sweep-na", "sweep.target_fc",
     [[fc, 1.0] for fc in around(0.0)] + [[90.0, error] for error in around(0.0)],
     lambda v: sweep(target_fc=tuple(v)), {}),
    ("sweep-na", "sweep.dt", around(0.0), lambda v: sim_config(dt=v), {}),
    ("sweep-na", "sweep.boundary", ["absorb", "reflect", "wall"],
     lambda v: sim_config(boundary=v), {}),
    ("sweep-na", "sweep.domain_bound", around(0.0) + [math.inf],
     lambda v: sim_config(domain_bound=v), {}),
    ("sweep-na", "sweep.na_start", around(0.0) + around(BEAM["n_medium"]),
     lambda v: BeamParams(**{**BEAM, "na": v}), {"sweep": {"na_stop": NEXT_BELOW_MEDIUM}}),
    ("sweep-na", "sweep.na_stop", around(0.0) + around(BEAM["n_medium"]),
     lambda v: BeamParams(**{**BEAM, "na": v}), {"sweep": {"na_start": 5e-324}}),
    ("beam", "grid.n_transverse", around(1), lambda v: grid(n_transverse=v), {}),
    ("beam", "grid.n_z", around(1), lambda v: grid(n_z=v), {}),
    ("beam", "grid.transverse_kind", ["rho", "x", "y"], lambda v: grid(transverse_kind=v), {}),
    ("absorb", "absorption.r_eff_min", around(0.0), eta, {}),
    ("absorb", "absorption.r_eff_max", around(0.0), eta, {}),
]
MISSING_INPUT = {"psd": "analysis.trajectory", "calibrate": "analysis.trajectory",
                 "sweep-na": "sweep.target"}


def library_refuses(call, value):
    try:
        call(value)
    except ValueError:
        return True
    # past the checks: stopped where the work starts, or failed in it
    except (Accepted, ArithmeticError):
        pass
    return False


@pytest.mark.parametrize("command,key,value,call,settings", [
    (command, key, value, call, settings)
    for command, key, probes, call, settings in DRIFT for value in probes
], ids=[f"{key}={value!r}" for _, key, probes, *_ in DRIFT for value in probes])
def test_cli_and_library_refuse_the_same_values(tmp_path, capsys, monkeypatch, command, key,
                                                value, call, settings):
    monkeypatch.setattr(calibration, "_support_bounds", stop)
    monkeypatch.setattr(calibration, "_target_marginals", stop)
    config = {"grid": {"n_transverse": 2, "n_z": 2}}
    for name, values in settings.items():
        config.setdefault(name, {}).update(values)
    if command in MISSING_INPUT:
        section, input_key = MISSING_INPUT[command].split(".")
        config.setdefault(section, {})[input_key] = str(tmp_path / "no-such-file.txt")
    section, name = key.split(".")
    config.setdefault(section, {})[name] = value
    code = main([command, "--config", write_config(tmp_path, config),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    refused = code == EXIT_CONFIG and err.startswith(f"config error: {key} must be ")
    assert refused == library_refuses(call, value), err
    if not refused and command in MISSING_INPUT:
        assert err.startswith(f"config error: cannot read {MISSING_INPUT[command]}"), err
    elif not refused:
        assert code != EXIT_CONFIG, err
