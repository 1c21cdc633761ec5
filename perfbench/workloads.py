"""The benchmark workloads, each in the shape of an acceptance criterion.

Every workload makes its inputs from the seed in `setup`, then runs tasks
back to back.  A task returns its `Checks`.  Library calls go through module
attributes (`dynamics.simulate`, `cli.main`, ...) so the tracer sees them.
`scale` shrinks every step and row count; the benchmark runs at 1.0.
"""

import contextlib
import json
import math
import shutil

import numpy as np

from darkfocus import calibration, cli, dynamics, forces, spectral
from darkfocus.beam import BeamParams
from darkfocus.dynamics import SimConfig
from darkfocus.forces import ParticleMedium, QuarticCoefficients

# physical constants of tests/test_acceptance.py
LAMBDA0 = 780e-9
N_MEDIUM = 1.53
RADIUS = 575e-9
TEMPERATURE = 293.0
TABLE_COEFFS = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)
TRUE_NA = 0.46
# CLI NA grids are start + step * i, so grid points carry rounding error
NA_SLACK = 1e-9


def particle():
    return ParticleMedium(radius=RADIUS, n_particle=1.45, n_medium=N_MEDIUM,
                          viscosity=0.89e-3, temperature=TEMPERATURE)


def beam_at(na):
    return BeamParams(lambda0=LAMBDA0, n_medium=N_MEDIUM, na=na, p_total=50e-3)


def task_seeds(seed, n_tasks, per_task):
    state = np.random.SeedSequence(seed).generate_state(n_tasks * per_task)
    return [[int(s) for s in state[i * per_task:(i + 1) * per_task]] for i in range(n_tasks)]


def steps(n, scale):
    return max(int(round(n * scale)), 1)


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.strip().lstrip("# ").partition("=")
            if sep:
                out[key] = value
    return out


def run_cli(argv, log):
    """One CLI subcommand in this process, its output appended to `log`."""
    with open(log, "a") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        return cli.main(argv)


class Checks:
    """Known-answer checks of one task.

    Each check compares a result with the parameter its input was made from
    at the acceptance suite's tolerance; a miss, an exception or a non-zero
    CLI exit fails the task (`failed`).  A result is also `wrong` when it
    misses by more than `gate`, which defaults to the tolerance and is wider
    only where the task's estimator spreads beyond the tolerance on a
    correct program; an exception or a non-zero exit is always wrong.
    """

    def __init__(self):
        self.failed = []
        self.wrong = []

    def fail(self, message):
        self.failed.append(message)
        self.wrong.append(message)

    def near(self, label, got, want, tol, relative=True, gate=None):
        err = abs(got / want - 1.0) if relative else abs(got - want)
        for limit, found in ((tol, self.failed), (gate or tol, self.wrong)):
            if not err <= limit:
                band = f"{limit:.0%}" if relative else f"{limit:.3g}"
                found.append(f"{label} {got:.4g} not within {band} of {want:.4g}")


class NaSweep:
    """Criterion 7: PSD of a fresh quartic target, then a 21-NA KL sweep."""

    name = "na_sweep"
    nominal_task_s = 26.0

    def setup(self, seed, n_tasks, work, scale):
        pm, template = particle(), beam_at(TRUE_NA)
        coeffs = forces.quartic_coefficients(template, pm)
        tasks = []
        for i, (target_seed, sweep_seed) in enumerate(task_seeds(seed, n_tasks, 2)):
            target = dynamics.simulate(SimConfig(
                particle=pm, dt=2e-5, n_steps=steps(400_000, scale),
                coefficients=coeffs, seed=target_seed))
            path = work / f"target_{i}.txt"
            dynamics.save_trajectory(target, path)
            psd_cfg = work / f"psd_{i}.json"
            write_json(psd_cfg, {"analysis": {"trajectory": str(path)}})
            tasks.append({
                "target": str(path), "psd_config": str(psd_cfg), "sweep_seed": sweep_seed,
                "target_escaped": target.escape is not None,
                "sizes": {"target_steps": len(target) - 1,
                          "sweep_lane_steps": 21 * 3 * steps(80_000, scale),
                          "sweep_lanes": 21 * 3},
            })
        return {"tasks": tasks, "scale": scale, "expected_na": TRUE_NA}

    def task(self, inputs, i, work):
        t, scale = inputs["tasks"][i], inputs["scale"]
        out, log = work / f"task_{i}", work / f"task_{i}.log"
        checks = Checks()
        if t["target_escaped"]:
            checks.fail("target escaped during setup")
        if run_cli(["psd", "--config", t["psd_config"], "--out", str(out / "psd")], log):
            checks.fail("cli psd exit != 0")
            return checks
        fit = read_kv(out / "psd" / "lorentzian.txt")
        f_c, f_c_err = float(fit["f_c"]), float(fit["f_c_err"])
        sweep_cfg = out / "sweep.json"
        write_json(sweep_cfg, {"sweep": {
            "na_start": 0.40, "na_stop": 0.60, "na_step": 0.01, "n_reps": 3,
            "n_steps": steps(80_000, scale), "dt": 2e-5, "target": t["target"],
            "burn_in": steps(3000, scale), "target_fc": [f_c, max(f_c_err, 0.05 * f_c)],
        }})
        if run_cli(["sweep-na", "--config", str(sweep_cfg), "--out", str(out / "sweep"),
                    "--seed", str(t["sweep_seed"])], log):
            checks.fail("cli sweep-na exit != 0")
            return checks
        report = read_kv(out / "sweep" / "na_sweep.txt")
        expected = inputs["expected_na"]
        checks.near("KL argmin NA", float(report["argmin_na"]), expected,
                    0.01 + NA_SLACK, relative=False)
        lo, hi = (float(v) for v in report.get("fc_interval", "nan nan").split())
        gap = max(lo - expected, expected - hi, 0.0) if lo <= hi else math.inf
        checks.near("distance of the f_c interval from NA", gap, 0.0, NA_SLACK,
                    relative=False)
        return checks


class TrapCalibration:
    """Criteria 5 and 6 at ensemble widths of 8 lanes or fewer, plus a CLI
    dipole simulation: every force model and both boundaries."""

    name = "trap_calibration"
    nominal_task_s = 16.0

    def setup(self, seed, n_tasks, work, scale):
        tasks = []
        for i, seeds in enumerate(task_seeds(seed, n_tasks, 3)):
            cfg = work / f"simulate_{i}.json"
            write_json(cfg, {"simulation": {"force_model": "dipole",
                                            "n_steps": steps(200_000, scale)}})
            tasks.append({"seeds": seeds, "simulate_config": str(cfg), "sizes": {
                "reflect_lane_steps": 6 * steps(500_000, scale),
                "harmonic_lane_steps": 6 * steps(120_000, scale),
                "dipole_steps": steps(200_000, scale),
                "reconstruct_samples": 6 * (steps(500_000, scale) + 1 - steps(50_000, scale)),
            }})
        pm = particle()
        k = 1e-6
        return {"tasks": tasks, "scale": scale, "stiffness": k,
                "expected_coeffs": TABLE_COEFFS,
                "expected_fc": k / (2.0 * math.pi * pm.drag)}

    def task(self, inputs, i, work):
        t, scale = inputs["tasks"][i], inputs["scale"]
        quartic_seed, harmonic_seed, dipole_seed = t["seeds"]
        pm = particle()
        checks = Checks()

        runs = dynamics.simulate_ensemble(SimConfig(
            particle=pm, dt=1e-5, n_steps=steps(500_000, scale),
            coefficients=TABLE_COEFFS, seed=quartic_seed, domain_bound=1.6e-7,
            boundary="reflect"), 6)
        rec = calibration.reconstruct_potential(
            dynamics.pooled_positions(runs, burn_in=steps(50_000, scale)), TEMPERATURE)
        # with 1/8 of criterion 5's samples the reconstructed k_z spreads by
        # about 8% around -3%, and the mean of 6 OU runs instead of 10 by
        # 1-1.5% around +3%; a result is wrong only beyond about 3.5 sigma
        expected = inputs["expected_coeffs"]
        for name, gate in (("k_z", 0.30), ("k_rho_z", None), ("k_rho", None)):
            checks.near(f"reconstructed {name}", getattr(rec.coefficients, name),
                        getattr(expected, name), 0.15, gate=gate)

        res = spectral.corner_frequency_of(SimConfig(
            particle=pm, dt=2e-4, n_steps=steps(120_000, scale), force_model="harmonic",
            stiffness=inputs["stiffness"], seed=harmonic_seed), repetitions=6)
        checks.near("OU f_c", res.mean, inputs["expected_fc"], 0.05, gate=0.08)

        out = work / f"task_{i}"
        if run_cli(["simulate", "--config", t["simulate_config"], "--out", str(out),
                    "--seed", str(dipole_seed)], work / f"task_{i}.log"):
            checks.fail("cli simulate exit != 0")
        return checks


class DataAnalysis:
    """Integrator-free analysis of pixel-calibrated recordings made at setup."""

    name = "data_analysis"
    nominal_task_s = 5.0
    meters_per_pixel = 4.7e-8

    def setup(self, seed, n_tasks, work, scale):
        pm = particle()
        coeffs = forces.quartic_coefficients(beam_at(TRUE_NA), pm)
        stride = calibration.decorrelation_stride(pm.drag, coeffs.k_z, 2e-5)
        cfg = work / "analysis.json"
        write_json(cfg, {})
        tasks = []
        for i, (rec_seed,) in enumerate(task_seeds(seed, n_tasks, 1)):
            # distinct lengths give each task its own KS sample size
            n_rows = steps(200_000 - 997 * i, scale)
            traj = dynamics.simulate(SimConfig(
                particle=pm, dt=2e-5, n_steps=n_rows - 1, coefficients=coeffs,
                seed=rec_seed))
            pixels = dynamics.Trajectory(dt=traj.dt, positions=traj.positions / self.meters_per_pixel,
                                         seed=rec_seed, provenance="camera")
            raw = work / f"raw_{i}.txt"
            dynamics.save_trajectory(pixels, raw)
            path = work / f"recording_{i}.txt"
            with open(path, "w") as dst, open(raw) as src:
                dst.write(f"# meters_per_pixel={self.meters_per_pixel!r}\n")
                shutil.copyfileobj(src, dst)
            raw.unlink()
            config = work / f"recording_{i}.json"
            write_json(config, {"analysis": {"trajectory": str(path)}})
            tasks.append({"recording": str(path), "config": str(config),
                          "escaped": traj.escape is not None,
                          "sizes": {"rows": len(traj), "ks_n": len(range(0, len(traj), stride))}})
        return {"tasks": tasks, "config": str(cfg), "stride": stride,
                "expected_coeffs": coeffs}

    def task(self, inputs, i, work):
        tasks = inputs["tasks"]
        t, prev = tasks[i], tasks[i - 1]
        out, log = work / f"task_{i}", work / f"task_{i}.log"
        checks = Checks()
        if t["escaped"]:
            checks.fail("recording escaped during setup")
        for sub in ("psd", "calibrate"):
            if run_cli([sub, "--config", t["config"], "--out", str(out / sub)], log):
                checks.fail(f"cli {sub} exit != 0")
        if not checks.failed:
            rec = read_kv(out / "calibrate" / "reconstruction.txt")
            for name in ("k_z", "k_rho"):
                checks.near(f"calibrated {name}", float(rec[name]),
                            getattr(inputs["expected_coeffs"], name), 0.15)

        x = dynamics.load_trajectory(t["recording"]).positions[:, 0]
        ks = calibration.ks_gaussianity_test(x[::inputs["stride"]])
        if not ks.reject:
            checks.fail(f"KS did not reject the quartic marginal (p={ks.p_value:.3f})")
        x_prev = dynamics.load_trajectory(prev["recording"]).positions[:, 0]
        p = calibration.histogram_pdf(x)
        q = calibration.histogram_pdf(x_prev, bins=p.bin_edges, pseudocount=0.5)
        if not math.isfinite(calibration.kl_divergence(p, q)):
            checks.fail("KL divergence between recordings is not finite")

        for sub in ("beam", "absorb", "forces-fit"):
            if run_cli([sub, "--config", inputs["config"], "--out", str(out / sub)], log):
                checks.fail(f"cli {sub} exit != 0")
        return checks


WORKLOADS = {w.name: w for w in (NaSweep(), TrapCalibration(), DataAnalysis())}
