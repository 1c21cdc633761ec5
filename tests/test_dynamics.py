import dataclasses
import itertools
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import k as k_b

from darkfocus import (
    EscapeReport,
    FitError,
    NumericalError,
    ParticleMedium,
    QuarticCoefficients,
    SimConfig,
    SimulationUnstableError,
    Trajectory,
    corner_frequency_of,
    dft_intensity,
    dipole_gradient_force,
    dipole_scattering_force,
    equilibrium_pdf,
    estimate_na,
    load_trajectory,
    marginal_density,
    pooled_positions,
    quartic_coefficients,
    quartic_force,
    save_trajectory,
    simulate,
    simulate_ensemble,
    spawn_seeds,
)
from darkfocus import _compiled, dynamics

TABLE_COEFFS = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)


def harmonic_cfg(particle, stiffness=1e-6, dt=2e-4, n_steps=50_000, seed=3):
    return SimConfig(particle=particle, dt=dt, n_steps=n_steps,
                     force_model="harmonic", stiffness=stiffness, seed=seed)


class TestSimConfig:
    def test_validation(self, particle):
        with pytest.raises(ValueError):
            SimConfig(particle=particle, dt=0.0, n_steps=10,
                      force_model="harmonic", stiffness=1e-6)
        with pytest.raises(ValueError):
            SimConfig(particle=particle, dt=1e-4, n_steps=10, force_model="magic")
        with pytest.raises(ValueError):
            SimConfig(particle=particle, dt=1e-4, n_steps=10, force_model="harmonic")
        with pytest.raises(ValueError):
            SimConfig(particle=particle, dt=1e-4, n_steps=10,
                      force_model="quartic")
        with pytest.raises(ValueError):
            SimConfig(particle=particle, dt=1e-4, n_steps=10,
                      force_model="harmonic", stiffness=1e-6, boundary="bounce")

    @pytest.mark.parametrize("dt", [math.inf, math.nan, -math.inf])
    def test_non_finite_dt_rejected(self, particle, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            SimConfig(particle=particle, dt=dt, n_steps=10,
                      force_model="harmonic", stiffness=1e-6)

    @pytest.mark.parametrize("n_steps", [True, 2000.5, 2000.0, "2000", None])
    def test_non_integer_n_steps_rejected(self, particle, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1, got "):
            harmonic_cfg(particle, n_steps=n_steps)

    def test_numpy_integer_n_steps(self, particle):
        assert len(simulate(harmonic_cfg(particle, n_steps=np.int64(2000)))) == 2001

    def test_stability_bound_warning(self, particle):
        # dt above 0.1 gamma/k but still integrable: warn and proceed
        cfg = SimConfig(particle=particle, dt=5e-3, n_steps=10,
                        force_model="harmonic", stiffness=1e-6)
        with pytest.warns(UserWarning, match="stability"):
            simulate(cfg)

    @pytest.mark.parametrize("option,model", [
        ("include_scattering", "quartic"), ("include_scattering", "harmonic"),
        ("stiffness", "quartic"), ("stiffness", "dipole"),
        ("coefficients", "harmonic"), ("coefficients", "dipole"),
    ])
    def test_option_of_another_model_rejected(self, beam, particle, option, model):
        kw = dict(quartic=dict(beam=beam), dipole=dict(beam=beam),
                  harmonic=dict(stiffness=1e-6))[model]
        kw[option] = dict(include_scattering=True, stiffness=1e-6,
                          coefficients=TABLE_COEFFS)[option]
        with pytest.raises(ValueError, match=f"^{option} applies only to the "):
            SimConfig(particle=particle, dt=1e-5, n_steps=10, force_model=model, **kw)

    def test_default_bounds(self, beam, particle):
        quartic = SimConfig(particle=particle, dt=1e-5, n_steps=10,
                            coefficients=TABLE_COEFFS)
        rho_s2 = TABLE_COEFFS.k_z / (2 * TABLE_COEFFS.k_rho_z)
        z_s2 = TABLE_COEFFS.k_rho * TABLE_COEFFS.k_z / (4 * TABLE_COEFFS.k_rho_z**2)
        assert dynamics._force_model(quartic)[4] == pytest.approx(
            1.5 * math.sqrt(rho_s2 + z_s2)
        )
        dipole = SimConfig(particle=particle, dt=1e-5, n_steps=10,
                           force_model="dipole", beam=beam)
        assert dynamics._force_model(dipole)[4] == pytest.approx(
            3 * max(beam.waist, beam.rayleigh_range)
        )

    @pytest.mark.filterwarnings("ignore:non-positive quartic coefficients")
    @pytest.mark.parametrize("bound", [None, 1e-6])
    @pytest.mark.parametrize("signs", list(itertools.product((1, 0, -1), repeat=3)),
                             ids=lambda signs: "".join("+0-"[1 - v] for v in signs))
    def test_degenerate_quartic_coefficients_named(self, beam, particle, signs, bound):
        # the stability bound needs k_rho > 0 and k_z != 0; the default domain
        # bound, evaluated only when no bound is given, needs an escape saddle
        s_z, s_rz, s_r = signs
        qc = quartic_coefficients(beam, particle)
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=200, seed=3, domain_bound=bound,
                        coefficients=QuarticCoefficients(s_z * qc.k_z, s_rz * qc.k_rho_z,
                                                         s_r * qc.k_rho))
        if s_r <= 0 or s_z == 0:
            fault, what = ("k_rho" if s_r <= 0 else "k_z"), "the stability bound 0.1 gamma/k_max"
        elif bound is None and not (s_z > 0 and s_rz != 0):
            fault, what = ("k_z" if s_z < 0 else "k_rho_z"), "the default domain bound"
        else:
            assert len(simulate(cfg)) > 1
            return
        what, named = re.escape(what), re.escape(f"{fault}={getattr(cfg.coefficients, fault)!r}")
        with pytest.raises(ValueError, match=f"^{what} needs .*quartic .*\\b{named}\\b"):
            simulate(cfg)

    def test_underflowing_saddle_divisor_is_numerical(self, beam, particle):
        # the quartic expansion of a 1e30 m wavelength: 4 k_rho_z**2 underflows
        # to 0 although k_rho_z does not, and only the default bound divides by it
        qc = QuarticCoefficients(k_z=1.075298587169427e-149, k_rho_z=4.491324970072189e-209,
                                 k_rho=4.968687439717386e-208)
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=10, coefficients=qc)
        with pytest.raises(NumericalError, match=r"4 k_rho_z\*\*2, which underflows to 0 at "
                           r"quartic k_rho_z=4.491324970072189e-209; set domain_bound$"):
            dynamics._force_model(cfg)
        given = dataclasses.replace(cfg, domain_bound=1e-6)
        assert dynamics._force_model(given)[4] == 1e-6

    def test_default_dipole_k_max(self, beam, particle):
        # the field's own stiffness: k_z of the expansion, where k_z dominates
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=10, force_model="dipole", beam=beam)
        assert dynamics._force_model(cfg)[3] == pytest.approx(2.90503e-5, rel=1e-3)

    def test_dipole_k_max_of_a_high_order_bottle(self, beam, particle):
        # L_p^2 of p = 100 overflows far out on the thermal-length grid at NA 0.1
        b = dataclasses.replace(beam, na=0.1, p_index=100)
        cfg = SimConfig(particle=particle, dt=1e-9, n_steps=10, force_model="dipole", beam=b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 < dynamics._force_model(cfg)[3] < math.inf

    @pytest.mark.parametrize("case", ["tweezer", "dense", "index_matched"])
    def test_dipole_runs_without_the_quartic_expansion(self, beam, particle, case):
        # a p = 0 tweezer, a particle denser than the medium in the dark focus
        # and an index-matched one have no confining quartic expansion
        dense = dataclasses.replace(particle, n_particle=1.6)
        pm, b = dict(tweezer=(dense, dataclasses.replace(beam, p_index=0, theta_rel=0.0)),
                     dense=(dense, beam),
                     index_matched=(dataclasses.replace(particle, n_particle=1.53), beam))[case]
        cfg = SimConfig(particle=pm, dt=1e-6, n_steps=2000, force_model="dipole", beam=b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(cfg)
        assert len(traj) == 2001 and traj.escape is None
        if case == "tweezer":
            # 0.1 gamma / k_max = 1.74 us: the field's stiffness at its bright focus
            with pytest.warns(UserWarning, match="stability bound 0.1 gamma/k_max=1.74"):
                simulate(dataclasses.replace(cfg, dt=2e-5))

    def test_index_matched_quartic_names_its_coefficient(self, beam, particle):
        cfg = SimConfig(particle=dataclasses.replace(particle, n_particle=1.53), dt=2e-5,
                        n_steps=10, beam=beam)
        with pytest.warns(UserWarning), pytest.raises(
                ValueError, match="^the stability bound .* got k_rho=0.0$"):
            simulate(cfg)


class TestSimulate:
    def test_deterministic_given_seed(self, particle):
        cfg = harmonic_cfg(particle, n_steps=4000, seed=11)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert np.array_equal(t1.positions, t2.positions)
        t3 = simulate(cfg.with_seed(12))
        assert not np.array_equal(t1.positions, t3.positions)

    def test_no_force_no_noise_stays_put(self):
        cold = ParticleMedium(radius=575e-9, n_particle=1.45, n_medium=1.53,
                              viscosity=0.89e-3, temperature=1e-15)
        cfg = SimConfig(particle=cold, dt=1e-4, n_steps=2000,
                        force_model="harmonic", stiffness=0.0,
                        initial_position=(1e-7, -2e-7, 3e-7))
        traj = simulate(cfg)
        assert len(traj) == 2001
        drift = np.abs(traj.positions - traj.positions[0]).max()
        assert drift < 1e-12

    def test_equipartition_harmonic(self, particle):
        k = 1e-6
        cfg = harmonic_cfg(particle, stiffness=k, dt=2e-4, n_steps=300_000, seed=5)
        traj = simulate(cfg)
        x = traj.positions[5000:, 0]
        expected = k_b * particle.temperature / k
        # 5 sigma of the variance estimator with n_eff decorrelated samples
        tau = particle.drag / k
        n_eff = (len(x) * cfg.dt) / (2 * tau)
        tol = 5 * expected * math.sqrt(2 / n_eff)
        assert abs(x.var() - expected) < tol

    def test_trajectory_length_and_times(self, particle):
        cfg = harmonic_cfg(particle, n_steps=777)
        traj = simulate(cfg)
        assert len(traj) == 778
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(777 * cfg.dt)

    def test_table_quartic_escapes_when_absorbing(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=500_000,
                        coefficients=TABLE_COEFFS, seed=2)
        traj = simulate(cfg)
        assert traj.escape is not None
        assert traj.escape.step == len(traj) - 1
        assert traj.escape.time == pytest.approx(traj.escape.step * cfg.dt)
        r = np.linalg.norm(traj.escape.position)
        assert r > dynamics._force_model(cfg)[4]

    def test_reflecting_wall_keeps_particle_inside(self, particle):
        bound = 1.6e-7
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=50_000,
                        coefficients=TABLE_COEFFS, seed=4,
                        domain_bound=bound, boundary="reflect")
        traj = simulate(cfg)
        assert traj.escape is None
        assert len(traj) == 50_001
        assert np.all(np.linalg.norm(traj.positions, axis=1) <= bound + 1e-15)

    def test_instability_detected(self, particle):
        cfg = SimConfig(particle=particle, dt=5e3, n_steps=100,
                        force_model="harmonic", stiffness=1e-6,
                        domain_bound=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SimulationUnstableError):
                simulate(cfg)

    def test_given_noise_equals_the_drawn_noise(self, particle):
        cfg = harmonic_cfg(particle, n_steps=1000)
        noise = list(dynamics._noise_chunks(cfg))
        given = dynamics._finish(*dynamics._start(cfg, noise))
        assert np.array_equal(given.positions, simulate(cfg).positions)

    def test_quartic_coefficients_resolved_once_per_run(self, beam, particle, monkeypatch):
        # a quartic run of a beam expands it once for its stability bound,
        # domain bound and force: one call and one warning per run, and the
        # run keeps the caller's config
        cfg = SimConfig(particle=dataclasses.replace(particle, n_particle=1.60), dt=1e-5,
                        n_steps=1000, beam=beam, seed=1)
        calls = []
        expand = dynamics.quartic_coefficients

        def counted(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(dynamics, "quartic_coefficients", counted)
        for n_runs, run in ((1, lambda: [simulate(cfg)]),
                            (3, lambda: list(simulate_ensemble(cfg, 3)))):
            calls.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs = run()
            assert len(calls) == n_runs
            assert [str(w.message)[:16] for w in caught] == ["index ratio >= 1"] * n_runs
            assert [t.config for t in runs] == [cfg.with_seed(t.seed) for t in runs]
            assert all(t.config.coefficients is None for t in runs)

    def test_scattering_force_pushes_along_beam(self, beam):
        # Rayleigh-sized cold particle parked on the axial barrier maximum,
        # where the gradient force vanishes: only radiation pressure moves it
        # (the point is an unstable saddle, so keep the run short)
        from darkfocus import dipole_scattering_force

        small = ParticleMedium(radius=50e-9, n_particle=1.45, n_medium=1.53,
                               viscosity=0.89e-3, temperature=1e-12)
        start = (0.0, 0.0, beam.rayleigh_range)
        base = dict(particle=small, dt=1e-3, n_steps=3, force_model="dipole",
                    beam=beam, seed=9, initial_position=start)
        with_scat = simulate(SimConfig(**base, include_scattering=True))
        without = simulate(SimConfig(**base))
        f_s = dipole_scattering_force(beam, small, *start)[2]
        expected_shift = 3 * f_s * 1e-3 / small.drag
        shift = with_scat.positions[-1, 2] - without.positions[-1, 2]
        assert shift == pytest.approx(expected_shift, rel=0.05)
        assert without.positions[-1, 2] == pytest.approx(beam.rayleigh_range, rel=1e-6)

    def test_dipole_model_confines(self, beam, particle):
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=30_000,
                        force_model="dipole", beam=beam, seed=14)
        with pytest.warns(UserWarning, match="exceeds the stability bound"):
            traj = simulate(cfg)
        assert traj.escape is None
        assert np.abs(traj.positions[:, 0]).max() < beam.waist

    def test_timestep_convergence_of_stationary_variance(self, particle):
        # coupled coarse/fine runs (common random numbers): halving dt moves
        # the stationary variance by less than a percent
        k = 1e-5
        gamma = particle.drag
        kbt = k_b * particle.temperature
        dt_f = 1e-5
        n_f = 2_000_000
        rng = np.random.default_rng(77)
        w = rng.standard_normal(n_f)

        def run(dt, noise):
            x = 0.0
            mob = dt / gamma
            ns = math.sqrt(2 * kbt * dt / gamma)
            out = np.empty(len(noise))
            for i, wi in enumerate(noise):
                x += -k * x * mob + ns * wi
                out[i] = x
            return out

        fine = run(dt_f, w)
        coarse = run(2 * dt_f, (w[0::2] + w[1::2]) / math.sqrt(2))
        v_f = fine[len(fine) // 10 :].var()
        v_c = coarse[len(coarse) // 10 :].var()
        assert abs(v_c - v_f) / v_f < 0.01

    def test_quartic_marginal_is_symmetric_and_platykurtic(self, particle):
        from scipy.integrate import quad
        from scipy.stats import kurtosis, skew

        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=400_000,
                        coefficients=TABLE_COEFFS, seed=21,
                        domain_bound=1.6e-7, boundary="reflect")
        x = simulate(cfg).positions[20_000:, 0]
        assert abs(skew(x)) < 0.05
        assert kurtosis(x, fisher=True) < -0.1

        # quadrature oracle: the pure transverse-quartic marginal is
        # platykurtic as well
        kbt = k_b * particle.temperature
        scale = (4 * kbt / TABLE_COEFFS.k_rho) ** 0.25

        def marg(u):
            return quad(lambda v: math.exp(-((u**2 + v**2) ** 2) / 4), -6, 6)[0]

        norm = quad(lambda u: marg(u), -6, 6)[0]
        m2 = quad(lambda u: u**2 * marg(u), -6, 6)[0] / norm
        m4 = quad(lambda u: u**4 * marg(u), -6, 6)[0] / norm
        assert m4 / m2**2 - 3 < -0.1
        assert x.std() == pytest.approx(math.sqrt(m2) * scale, rel=0.25)


class TestEnsembles:
    def test_simulate_ensemble_seeds_differ(self, particle):
        cfg = harmonic_cfg(particle, n_steps=500)
        runs = list(simulate_ensemble(cfg, 3))
        assert len({r.seed for r in runs}) == 3
        again = list(simulate_ensemble(cfg, 3))
        assert len(runs) == len(again) == 3
        for a, b in zip(runs, again):
            assert np.array_equal(a.positions, b.positions)

    def test_bad_size_raises_at_the_call(self, particle):
        # the seeds are spawned when the ensemble is asked for, not when
        # iterated, and the error names the bad count
        cfg = harmonic_cfg(particle, n_steps=500)
        for batch in (simulate_ensemble, corner_frequency_of):
            for n_runs in (-1, 2.5, True, "3"):
                with pytest.raises(ValueError, match=(
                        f"the number of runs must be an integer >= 0, got {n_runs!r}$")):
                    batch(cfg, n_runs)

    def test_pooled_positions_burn_in_and_escapes(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=20_000,
                        coefficients=TABLE_COEFFS, seed=2)
        runs = list(simulate_ensemble(cfg, 4))
        assert any(r.escape is not None for r in runs)
        pooled = pooled_positions(runs, burn_in=10)
        assert pooled.shape == (sum(len(r) - 10 for r in runs), 3)
        np.testing.assert_array_equal(pooled[:len(runs[0]) - 10], runs[0].positions[10:])
        with pytest.raises(ValueError):
            pooled_positions(runs, burn_in=10**9)

    def test_pooled_positions_rejects_negative_burn_in(self, particle):
        runs = simulate_ensemble(harmonic_cfg(particle, n_steps=500), 2)
        with pytest.raises(ValueError, match="burn_in must be an integer >= 0"):
            pooled_positions(runs, burn_in=-50)

    @pytest.mark.parametrize("burn_in", [2.5, True, "10", None])
    def test_pooled_positions_rejects_non_integer_burn_in(self, particle, burn_in):
        runs = list(simulate_ensemble(harmonic_cfg(particle, n_steps=500), 2))
        with pytest.raises(ValueError, match=f"burn_in must be an integer >= 0, got {burn_in!r}$"):
            pooled_positions(runs, burn_in=burn_in)
        # a numpy integer is an integer
        assert len(pooled_positions(runs, burn_in=np.int64(10))) == 2 * 491


def hot_harmonic_cfg(particle):
    # dt five times the stability bound 0.1 gamma/k, still integrable
    return harmonic_cfg(particle, dt=5e-3, n_steps=4000)


GAUSSIAN_TARGET = (np.random.default_rng(0).standard_normal(5000) * 1e-8,
                   np.random.default_rng(1).standard_normal(5000) * 1e-8)


@pytest.mark.parametrize("call", [
    lambda beam, pm: simulate(hot_harmonic_cfg(pm)),
    lambda beam, pm: list(simulate_ensemble(hot_harmonic_cfg(pm), 2)),
    lambda beam, pm: corner_frequency_of(hot_harmonic_cfg(pm), 3),
    lambda beam, pm: estimate_na(GAUSSIAN_TARGET, [0.60], particle=pm, beam_template=beam,
                                 dt=2e-5, n_steps=2000, n_reps=2, burn_in=100),
    lambda beam, pm: QuarticCoefficients(-1, 1, 1),
    lambda beam, pm: quartic_coefficients(beam, dataclasses.replace(pm, n_particle=1.6)),
    # a p = 0 tweezer at twelve times its stability bound
    lambda beam, pm: simulate(SimConfig(
        particle=dataclasses.replace(pm, n_particle=1.6), dt=2e-5, n_steps=10,
        force_model="dipole", beam=dataclasses.replace(beam, p_index=0, theta_rel=0.0))),
], ids=["simulate", "simulate_ensemble", "corner_frequency_of", "estimate_na",
        "QuarticCoefficients", "quartic_coefficients", "dipole"])
def test_library_warning_names_the_calling_line(beam, particle, call):
    with pytest.warns(UserWarning) as record:
        call(beam, particle)
    assert record[0].filename == __file__


def lane_cfgs(beam, particle, model, boundary, n_lanes=20):
    """Per-lane coefficients and walls on three shared seeds.  Every lane of a
    reflecting ensemble meets its wall; lanes 3, 10 and 17 of an absorbing one
    have a close wall and escape within a few hundred steps.  Dipole lanes
    cover p in {1, 2, 3} with and without scattering, and lane 19 a p = 40
    bottle, whose stiffness needs a 200 times shorter step and a closer wall,
    on a 200 nm sphere that radiation pressure does not push out of the trap."""
    qc = quartic_coefficients(beam, particle)
    cfgs = []
    for i in range(n_lanes):
        if model == "quartic":
            kw = dict(dt=1e-5, particle=particle, coefficients=QuarticCoefficients(
                qc.k_z * (1 + 0.05 * i), qc.k_rho_z, qc.k_rho * (1 - 0.02 * i)))
            wall = 6e-8
        elif model == "harmonic":
            kw = dict(dt=2e-4, particle=particle, force_model="harmonic",
                      stiffness=(1e-6 * (1 + 0.1 * i), 2e-6, 5e-7))
            wall = 1.2e-7
        else:
            p = 40 if i == 19 else 1 + i % 3
            kw = dict(dt=1e-7 if p == 40 else 2e-5,
                      particle=dataclasses.replace(particle, radius=200e-9),
                      force_model="dipole", beam=dataclasses.replace(beam, p_index=p),
                      include_scattering=i % 2 == 1)
            wall = 1e-8 if p == 40 else 6e-8
        close = boundary == "reflect" or i % 7 == 3
        cfgs.append(SimConfig(n_steps=3000, seed=i % 3, domain_bound=wall if close else None,
                              boundary=boundary, **kw))
    return cfgs


def reference_runs(cfgs, monkeypatch):
    """simulate on the Python reference loop, as when no compiler works."""
    with monkeypatch.context() as m:
        m.setattr(_compiled, "load", lambda: None)
        return [simulate(c) for c in cfgs]


needs_cc = pytest.mark.skipif(shutil.which(_compiled.COMPILER) is None,
                              reason="no C compiler to build the compiled stepper")


# domain bound, boundary, sweep seed and each run's outcome in sweep order
# (rep 0's NAs 0.40, 0.46, 0.55, then rep 1's): None for a full run, the step
# of an escape, or the end of an unstable step's message
SHARED_NOISE_SWEEPS = {
    "absorb": (9e-8, "absorb", 1, [1261, None, None, 834, 12840, None]),
    "reflect": (9e-8, "reflect", 1, [None] * 6),
    "unstable": (1.4e-8, "reflect", 3, [None] * 5 + ["at step 54674; reduce dt"]),
}


# small ensembles of every model and wall, long enough that the runs that do
# not escape fit a corner frequency inside the fit range; run 3 of the
# absorbing quartic one escapes at step 336
ENSEMBLES = {
    "harmonic": lambda beam, pm: lane_cfgs(beam, pm, "harmonic", "reflect", n_lanes=1)[0],
    "quartic absorb": lambda beam, pm: SimConfig(
        particle=pm, dt=1e-5, n_steps=8000, coefficients=quartic_coefficients(beam, pm),
        seed=3, domain_bound=9e-8),
    "quartic reflect": lambda beam, pm: dataclasses.replace(
        lane_cfgs(beam, pm, "quartic", "reflect", n_lanes=1)[0], n_steps=20_000),
    "dipole": lambda beam, pm: dataclasses.replace(
        lane_cfgs(beam, pm, "dipole", "absorb", n_lanes=1)[0], n_steps=20_000),
}


class TestSimulateLanes:
    @needs_cc
    @pytest.mark.parametrize("boundary", ["absorb", "reflect"])
    @pytest.mark.parametrize("model", ["quartic", "harmonic", "dipole"])
    def test_compiled_equals_reference(self, beam, particle, model, boundary, monkeypatch):
        cfgs = lane_cfgs(beam, particle, model, boundary)
        assert _compiled.load() is not None
        lanes = [simulate(c) for c in cfgs]
        reference = reference_runs(cfgs, monkeypatch)
        for lane, ref in zip(lanes, reference):
            assert lane.positions.shape == ref.positions.shape
            assert np.array_equal(lane.positions, ref.positions)
            assert lane.escape == ref.escape
            assert lane.seed == ref.seed and lane.config == ref.config
        escaped = {i: t.escape.step for i, t in enumerate(reference) if t.escape is not None}
        if boundary == "absorb":
            assert sorted(escaped) == [3, 10, 17]
            assert all(0 < step < 1000 for step in escaped.values())  # mid-chunk
        else:
            assert not escaped
            for t, c in zip(reference, cfgs):
                r = np.sqrt(np.sum(t.positions**2, axis=1))
                assert r.max() <= c.domain_bound
                assert r.max() > 0.95 * c.domain_bound

    @needs_cc
    def test_unstable_step_raises(self, particle, monkeypatch):
        # the unstable step falls in the second noise chunk
        cfg = SimConfig(particle=particle, dt=5e-5, n_steps=100_000, force_model="harmonic",
                        stiffness=1e-5, seed=2, domain_bound=3.5e-8, boundary="reflect")
        message = "at step 90948; reduce dt"
        with pytest.raises(SimulationUnstableError, match=message) as compiled:
            simulate(cfg)
        with pytest.raises(SimulationUnstableError, match=message) as reference:
            reference_runs([cfg], monkeypatch)
        assert str(compiled.value) == str(reference.value)

    @pytest.mark.parametrize("stepper", [pytest.param("compiled", marks=needs_cc),
                                         "reference"])
    @pytest.mark.parametrize("case", sorted(SHARED_NOISE_SWEEPS))
    def test_shared_noise_sweep_runs_are_their_own_simulations(
            self, beam, particle, monkeypatch, case, stepper):
        # every (NA, rep) run of estimate_na steps through its repetition's
        # shared noise and must be simulate(cfg.with_seed(s)) to the bit,
        # escape and unstable step included
        domain_bound, boundary, seed, outcomes = SHARED_NOISE_SWEEPS[case]
        if stepper == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        # [cfg, positions array] of each run in start order; its _finish,
        # on any thread, puts the trajectory or the error's text in place
        # of the array
        runs = []
        start, finish = dynamics._start, dynamics._finish

        def started(cfg, noise=None):
            run = start(cfg, noise)
            runs.append([cfg, run[-1]])
            return run

        def finished(*run):
            slot = next(slot for slot in runs if slot[1] is run[-1])
            try:
                slot[1] = finish(*run)
            except SimulationUnstableError as exc:
                slot[1] = str(exc)
                raise
            return slot[1]

        rng = np.random.default_rng(0)
        target = (rng.standard_normal(5000) * 3e-8, rng.standard_normal(5000) * 3e-8)
        nas = [0.40, 0.46, 0.55]
        sweep = dict(particle=particle, beam_template=beam, dt=1e-5,
                     n_steps=dynamics._NOISE_CHUNK + 300, n_reps=2, seed=seed,
                     burn_in=1000, boundary=boundary, domain_bound=domain_bound)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_start", started)
            m.setattr(dynamics, "_finish", finished)
            if case == "unstable":
                with pytest.raises(SimulationUnstableError):
                    estimate_na(target, nas, **sweep)
            else:
                estimate_na(target, nas, **sweep)

        assert [(c.seed, c.coefficients) for c, _ in runs] == [
            (s, quartic_coefficients(beam.with_na(na), particle))
            for s in spawn_seeds(seed, 2) for na in nas]
        for (cfg, shared), outcome in zip(runs, outcomes):
            if isinstance(shared, str):
                with pytest.raises(SimulationUnstableError) as own:
                    simulate(cfg)
                assert shared == str(own.value)
                assert shared.endswith(outcome)
                continue
            own = simulate(cfg)
            assert shared.positions.shape == own.positions.shape
            assert np.array_equal(shared.positions, own.positions)
            assert shared.escape == own.escape
            assert (shared.escape and shared.escape.step) == outcome

    @pytest.mark.parametrize("case", [*sorted(SHARED_NOISE_SWEEPS), "no wall"])
    def test_shared_noise_sweeps_do_not_depend_on_width(self, beam, particle, monkeypatch,
                                                        case):
        # every array of the result, or the error, is the same at widths 1 and 2
        domain_bound, boundary, seed, _ = SHARED_NOISE_SWEEPS.get(
            case, (None, "absorb", 5, None))
        rng = np.random.default_rng(0)
        target = (rng.standard_normal(5000) * 3e-8, rng.standard_normal(5000) * 3e-8)
        sweep = dict(particle=particle, beam_template=beam, dt=1e-5,
                     n_steps=dynamics._NOISE_CHUNK + 300, n_reps=2, seed=seed,
                     burn_in=1000, boundary=boundary, domain_bound=domain_bound,
                     target_fc=(40.0, 20.0))
        outcomes = []
        for width in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=width: set(range(n)))
            try:
                result = estimate_na(target, [0.40, 0.46, 0.55], **sweep)
            except SimulationUnstableError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append([v.tobytes() for v in (
                result.na_values, result.kl, result.fc, result.fc_err, result.valid,
                result.fc_compatible)] + [result.argmin_na, result.fc_interval])
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (case == "unstable")

    def test_small_and_dipole_ensembles_run_per_lane(self, beam, particle, monkeypatch):
        # an ensemble, at any width and for every model, is one run per
        # spawned seed, started in seed order on the calling thread
        calls = []
        start = dynamics._start

        def counted(cfg, noise=None):
            calls.append(cfg)
            return start(cfg, noise)

        monkeypatch.setattr(dynamics, "_start", counted)
        for model, boundary, n_runs in (("harmonic", "reflect", 1), ("dipole", "absorb", 5),
                                        ("quartic", "reflect", 40)):
            cfg = lane_cfgs(beam, particle, model, boundary, n_lanes=1)[0]
            cfgs = [cfg.with_seed(s) for s in spawn_seeds(cfg.seed, n_runs)]
            calls.clear()
            runs = list(simulate_ensemble(cfg, n_runs))
            assert calls == cfgs
            assert [t.config for t in runs] == cfgs


    @pytest.mark.parametrize("stepper", [pytest.param("compiled", marks=needs_cc),
                                         "reference"])
    @pytest.mark.parametrize("case", sorted(ENSEMBLES))
    def test_ensembles_do_not_depend_on_width(self, beam, particle, monkeypatch, case,
                                              stepper):
        # every run of simulate_ensemble and every corner frequency (or the
        # error) is the same at widths 1 and 2, and each run is simulate's
        if stepper == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        cfg = ENSEMBLES[case](beam, particle)

        def runs_of(trajectories):
            return [(t.positions.tobytes(), t.escape, t.config) for t in trajectories]

        outcomes = []
        for width in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=width: set(range(n)))
            try:
                fits = corner_frequency_of(cfg, 5).values.tobytes()
            except FitError as exc:
                fits = str(exc)
            outcomes.append((runs_of(simulate_ensemble(cfg, 5)), fits))
        assert outcomes[0] == outcomes[1]
        own = [simulate(cfg.with_seed(s)) for s in spawn_seeds(cfg.seed, 5)]
        assert outcomes[0][0] == runs_of(own)
        escapes = [t.escape and t.escape.step for t in own]
        assert escapes == ([None, None, None, 336, None] if case == "quartic absorb"
                           else [None] * 5)

    @pytest.mark.parametrize("stepper", [pytest.param("compiled", marks=needs_cc),
                                         "reference"])
    def test_unstable_ensemble_run_raises_after_the_earlier_runs(self, particle,
                                                                 monkeypatch, stepper):
        # the fourth run of five takes an unstable step: at both widths the
        # first three come out, then the error of the fourth
        if stepper == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        cfg = SimConfig(particle=particle, dt=5e-5, n_steps=3000, force_model="harmonic",
                        stiffness=1e-5, seed=42, domain_bound=3.5e-8, boundary="reflect")
        outcomes = []
        for width in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=width: set(range(n)))
            runs = []
            with pytest.raises(SimulationUnstableError,
                               match="at step 159; reduce dt") as ensemble:
                for traj in simulate_ensemble(cfg, 5):
                    runs.append(traj.positions.tobytes())
            with pytest.raises(SimulationUnstableError) as fits:
                corner_frequency_of(cfg, 5)
            outcomes.append((runs, str(ensemble.value), str(fits.value)))
        assert len(outcomes[0][0]) == 3
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == outcomes[0][2]


    def test_ensemble_stress_more_runs_than_cores(self, particle, monkeypatch):
        # eight threads finish and reduce twelve runs, switching often: every
        # run and corner frequency is the one of width 1
        cfg = harmonic_cfg(particle, n_steps=20_000, seed=8)
        outcomes = []
        for width in (1, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=width: set(range(n)))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                outcomes.append(([t.positions.tobytes() for t in simulate_ensemble(cfg, 12)],
                                 corner_frequency_of(cfg, 12).values.tobytes()))
            finally:
                sys.setswitchinterval(interval)
        assert outcomes[0] == outcomes[1]


@needs_cc
class TestCompiledStepper:
    def test_library_cached_per_source_and_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        first = _compiled.build()
        assert first.parent == tmp_path / "darkfocus" and first.is_file()

        def no_compile(*args):
            raise AssertionError("compiler called although the cache holds the library")

        monkeypatch.setattr(_compiled, "_compile", no_compile)
        assert _compiled.build() == first
        assert sorted(p.name for p in first.parent.iterdir()) == [first.name]

    def test_failed_compile_falls_back_with_one_warning(self, particle, tmp_path,
                                                         monkeypatch, caplog):
        cfg = harmonic_cfg(particle, n_steps=3000, seed=5)
        expected = simulate(cfg)
        broken = tmp_path / "broken.c"
        broken.write_text("long df_step_chunk(void) { return }\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_compiled, "_sources", lambda: [broken])
        _compiled.load.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger=_compiled.__name__):
                runs = [simulate(cfg), simulate(cfg)]
                assert _compiled.load() is None
        finally:
            _compiled.load.cache_clear()
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "broken.c" in record.getMessage() and "error" in record.getMessage()
        assert not list((tmp_path / "darkfocus").iterdir())
        for traj in runs:
            assert np.array_equal(traj.positions, expected.positions)


def test_source_ships_with_the_package():
    assert _compiled.SOURCES == ("integrator.c", "trajio.c", "binning.c")
    sources = [resources.files("darkfocus").joinpath(name) for name in _compiled.SOURCES]
    assert all(source.is_file() for source in sources)
    # every kernel load() types is defined, once, in a shipped source
    text = "\n".join(source.read_text() for source in sources)
    for kernel in _compiled._SIGNATURES:
        assert len(re.findall(rf"^long {kernel}\(", text, re.MULTILINE)) == 1, kernel
    # an installed copy carries the sources only if setuptools is told to ship them
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    package_data = pyproject.split("[tool.setuptools.package-data]\n", 1)[1]
    listed = ", ".join(f'"{name}"' for name in _compiled.SOURCES)
    assert package_data.startswith(f"darkfocus = [{listed}]\n")


@needs_cc
@pytest.mark.parametrize("name", _compiled.SOURCES)
def test_source_compiles_without_warnings(name):
    with resources.as_file(resources.files("darkfocus").joinpath(name)) as path:
        result = subprocess.run(
            [_compiled.COMPILER, "-Wall", "-Wextra", "-Werror", "-O2", "-ffp-contract=off",
             "-fsyntax-only", str(path)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# positions recorded from the scalar loop before it iterated noise.tolist();
# any change in rounding shows here
GOLDEN = {
    "quartic_absorb": dict(
        cfg=dict(dt=2e-5, n_steps=3000, seed=11), rows={
            1: (1.4004261447045973e-10, 5.569090069685745e-09, 5.016064964039533e-09),
            1500: (-7.807070589771585e-09, 3.707149366498343e-08, -2.059149917563097e-08),
            3000: (-1.7409377705498134e-08, 1.04317439204556e-08, 6.659605027273805e-10),
        }),
    "quartic_reflect": dict(
        cfg=dict(dt=1e-5, n_steps=3000, coefficients=TABLE_COEFFS, seed=12,
                 domain_bound=1.6e-7, boundary="reflect"), rows={
            1: (-1.977091919304605e-11, 3.0297175101488785e-09, 2.1477014112962836e-09),
            1500: (8.877381478228694e-08, -3.619487122769163e-08, -1.0949774061451356e-07),
            3000: (7.169253316524926e-08, 6.438641114318361e-08, -8.504716977372542e-09),
        }),
    "quartic_escape": dict(
        cfg=dict(dt=1e-5, n_steps=3000, coefficients=TABLE_COEFFS, seed=15,
                 domain_bound=6e-8), rows={
            1: (-4.1439266341845825e-09, -2.7123196564900317e-09, 1.1408780673704631e-09),
            54: (3.152816330012572e-08, 8.458804263393809e-09, 2.1743322129260782e-09),
            108: (5.813036313850071e-08, -1.89217636772449e-08, -6.874603125001789e-09),
        }),
    "harmonic_chunks": dict(
        cfg=dict(dt=2e-4, n_steps=70_000, force_model="harmonic",
                 stiffness=(1e-6, 2e-6, 5e-7), seed=13), rows={
            1: (2.3659558465284832e-08, -3.9869556459444074e-08, 1.2408533864978256e-08),
            35000: (1.2932447025419836e-08, 3.910782853077537e-08, 1.3330585873678388e-07),
            65536: (-1.0365741129044012e-08, -2.68102269044308e-08, 4.925504048583642e-08),
            65537: (-4.186800973147671e-09, -1.4420817402441624e-08, 5.709135349390796e-08),
            70000: (4.970023612610209e-08, 4.770432086650395e-09, -3.8097994597833266e-08),
        }),
    "dipole": dict(
        cfg=dict(dt=2e-5, n_steps=2000, force_model="dipole", seed=14), rows={
            1: (2.8486260351732006e-09, -4.011612231544739e-09, -6.444512034909097e-09),
            1000: (2.1050917678343395e-08, 2.857828430529334e-08, -5.410383532815977e-09),
            2000: (-8.788155026295796e-09, 6.111006160922412e-08, 2.1183852981498943e-09),
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_reproduces_recorded_positions(beam, particle, name):
    check_golden(beam, particle, name)


def test_python_loop_reproduces_recorded_positions(beam, particle, monkeypatch):
    # the fallback when no compiler works
    monkeypatch.setattr(_compiled, "load", lambda: None)
    for name in sorted(GOLDEN):
        check_golden(beam, particle, name)


def check_golden(beam, particle, name):
    case = GOLDEN[name]
    cfg = dict(case["cfg"])
    if cfg.get("force_model", "quartic") == "dipole":
        cfg["beam"] = beam
    elif "force_model" not in cfg and "coefficients" not in cfg:
        cfg["coefficients"] = quartic_coefficients(beam, particle)
    traj = simulate(SimConfig(particle=particle, **cfg))
    last = max(case["rows"])
    assert len(traj) == last + 1
    for row, expected in case["rows"].items():
        assert tuple(traj.positions[row].tolist()) == expected
    if name == "quartic_escape":
        assert traj.escape == EscapeReport(position=case["rows"][last],
                                           time=last * cfg["dt"], step=last)
    else:
        assert traj.escape is None


# p = 1 bottle intensities at (rho/w0, z/z_R), recorded before the
# integrator, the force functions and dft_intensity shared one field kernel
GOLDEN_INTENSITY = {
    (0.0, 1.0): 54631903805.029594,
    (1.0, 0.0): 29574496700.836243,
    (0.3, 0.2): 6944306577.769751,
    (0.5, -1.0): 33240132393.780243,
    (2.0, 1.5): 2884845875.079386,
    (0.05, 0.01): 22989325.604949076,
}


def test_dft_intensity_reproduces_recorded_values(beam):
    for (rho, z), expected in GOLDEN_INTENSITY.items():
        value = dft_intensity(beam, rho * beam.waist, z * beam.rayleigh_range)
        assert float(value) == expected


@pytest.mark.parametrize("model,p,scattering", [
    *(pytest.param("dipole", p, s, id=f"{p}-{s}") for p in (1, 2, 3, 40)
      for s in (False, True)),
    pytest.param("quartic", 1, False, id="quartic"),
    pytest.param("harmonic", 1, False, id="harmonic"),
])
def test_integrator_dipole_force_matches_array_forces(beam, particle, rng, model, p,
                                                      scattering):
    # the reference loop's plain-float force and the array functions evaluate
    # one expression, on math's and numpy's functions respectively
    b = dataclasses.replace(beam, p_index=p)
    pts = rng.uniform(-0.5, 0.5, (200, 3)) * (b.waist, b.waist, b.rayleigh_range)
    k = (1e-6, 2e-6, 5e-7)
    kw = dict(dipole=dict(beam=b, include_scattering=scattering), quartic=dict(beam=b),
              harmonic=dict(stiffness=k))[model]
    cfg = SimConfig(particle=particle, dt=1e-5, n_steps=1, force_model=model, **kw)
    force = dynamics._force_model(cfg)[2]
    loop = np.array([force(*q) for q in pts.tolist()])
    if model == "quartic":
        np.testing.assert_array_equal(
            loop, quartic_force(quartic_coefficients(b, particle), *pts.T))
    elif model == "harmonic":
        np.testing.assert_array_equal(loop, -np.array(k) * pts)
    else:
        # the compiled dipole reads nine numbers whatever the order p
        for q in (0, 1, 40):
            c = dataclasses.replace(cfg, beam=dataclasses.replace(b, p_index=q))
            assert len(dynamics._force_model(c)[1]) == 9
        expected = dipole_gradient_force(b, particle, *pts.T)
        if scattering:
            expected = expected + dipole_scattering_force(b, particle, *pts.T)
        np.testing.assert_allclose(loop, expected, rtol=1e-13, atol=0)


class TestEquilibriumPdf:
    def test_harmonic_matches_gaussian(self, particle):
        k = 1e-6
        kbt = k_b * particle.temperature
        sigma = math.sqrt(kbt / k)
        x = np.linspace(-6 * sigma, 6 * sigma, 901)
        dens = equilibrium_pdf(lambda u: 0.5 * k * u**2, particle.temperature, [x])
        dx = x[1] - x[0]
        assert dens.sum() * dx == pytest.approx(1.0, abs=1e-9)
        gauss = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(dens, gauss, rtol=1e-6, atol=1e-9 * gauss.max())

    def test_constant_potential_is_uniform(self, particle):
        x = (np.arange(100) + 0.5) * 0.01  # cell centers covering [0, 1]
        dens = equilibrium_pdf(lambda u: np.full_like(u, 3.3e-21),
                               particle.temperature, [x])
        np.testing.assert_allclose(dens, np.full_like(x, 1.0), rtol=1e-12)

    def test_non_normalizable_rejected(self, particle):
        x = np.linspace(-1e-6, 1e-6, 51)
        with pytest.raises(ValueError, match="normalizable"):
            equilibrium_pdf(lambda u: -1e-20 * np.abs(u), particle.temperature, [x])

    def test_marginal_of_3d_density(self, particle):
        k = 1e-6
        kbt = k_b * particle.temperature
        sigma = math.sqrt(kbt / k)
        ax = np.linspace(-5 * sigma, 5 * sigma, 101)
        dens = equilibrium_pdf(
            lambda x, y, z: 0.5 * k * (x**2 + y**2 + z**2),
            particle.temperature, [ax, ax, ax],
        )
        marg = marginal_density(dens, [ax, ax, ax], keep_axis=0)
        gauss = np.exp(-0.5 * (ax / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(marg, gauss, rtol=1e-3)


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0])
def test_trajectory_rejects_non_finite_dt(dt):
    # an infinite dt would give times [nan, inf] and write them to files
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        Trajectory(dt=dt, positions=[[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]])


class TestTrajectoryIo:
    def test_round_trip(self, particle, tmp_path):
        traj = simulate(harmonic_cfg(particle, n_steps=200, seed=8))
        path = tmp_path / "traj.txt"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert loaded.dt == traj.dt
        assert loaded.seed == traj.seed
        np.testing.assert_array_equal(loaded.positions, traj.positions)

    def test_pixel_calibration(self, tmp_path):
        path = tmp_path / "pixels.csv"
        with open(path, "w") as fh:
            fh.write("# dt=0.0667\n# meters_per_pixel=6.5e-8\n")
            fh.write("t x y z\n")
            for i in range(5):
                fh.write(f"{i * 0.0667} {i} {2 * i} {-i}\n")
        traj = load_trajectory(path)
        assert traj.positions[1, 0] == pytest.approx(6.5e-8)
        assert traj.positions[1, 2] == pytest.approx(-6.5e-8)
        override = load_trajectory(path, meters_per_pixel=1e-7)
        assert override.positions[1, 0] == pytest.approx(1e-7)
        assert override.provenance == "ingested"

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "tracked.csv"
        with open(path, "w") as fh:
            fh.write("# dt=0.5\n# meters_per_pixel=2.0\nt,x,y,z\n")
            for i in range(4):
                fh.write(f"{i * 0.5},{i}, {-i},0\n")
        traj = load_trajectory(path)
        assert traj.dt == 0.5
        np.testing.assert_array_equal(
            traj.positions, [[2.0 * i, -2.0 * i, 0.0] for i in range(4)])

    def test_dt_inferred_from_time_column(self, tmp_path):
        path = tmp_path / "plain.txt"
        with open(path, "w") as fh:
            fh.write("t x y z\n")
            for i in range(6):
                fh.write(f"{i * 0.25} {1e-9 * i} 0.0 0.0\n")
        traj = load_trajectory(path)
        assert traj.dt == pytest.approx(0.25)

    def test_written_text_matches_recorded_file(self, tmp_path, monkeypatch):
        # recorded from the writer that converted all rows at once; blocks of
        # two rows make the five rows cross two block boundaries
        monkeypatch.setattr(dynamics, "_ROWS_PER_BLOCK", 2)
        pos = [[0.0, -0.0, 1e-7], [1 / 3 * 1e-7, -2.5e-8, 7.0e-9],
               [1.2345678901234567e-8, 1e-300, -3.3e-8], [5e-324, 2.0, -1.0],
               [-6.02214076e-8, 4.4e-9, 1.1e-7]]
        traj = Trajectory(dt=2e-5, positions=pos, seed=42, escape=EscapeReport(
            position=tuple(pos[-1]), time=4 * 2e-5, step=4))
        path = tmp_path / "recorded.txt"
        save_trajectory(traj, path)
        assert path.read_text() == (
            "# dt=2e-05\n# seed=42\n# provenance=simulated\n"
            "# escape_step=4 escape_time=8e-05\nt x y z\n"
            "0.0 0.0 -0.0 1e-07\n"
            "2e-05 3.333333333333333e-08 -2.5e-08 7e-09\n"
            "4e-05 1.2345678901234567e-08 1e-300 -3.3e-08\n"
            "6.000000000000001e-05 5e-324 2.0 -1.0\n"
            "8e-05 -6.02214076e-08 4.4e-09 1.1e-07\n"
        )

    def test_escape_header_written(self, particle, tmp_path):
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=500_000,
                        coefficients=TABLE_COEFFS, seed=2)
        traj = simulate(cfg)
        path = tmp_path / "escaped.txt"
        save_trajectory(traj, path)
        text = path.read_text()
        assert "# escape_step=" in text
        loaded = load_trajectory(path)
        assert traj.escape is not None and loaded.escape == traj.escape
        assert np.array_equal(loaded.positions, traj.positions)
        # the escape position is scaled like the rows
        scaled = load_trajectory(path, meters_per_pixel=2.0)
        assert scaled.escape.position == tuple(2.0 * v for v in traj.escape.position)


class TestTrajectoryIoReference(TestTrajectoryIo):
    """The same cases on the Python reference writer and numpy.loadtxt, as
    when no compiler works."""

    @pytest.fixture(autouse=True)
    def reference_io(self, monkeypatch):
        monkeypatch.setattr(_compiled, "load", lambda: None)
