import math

import numpy as np
import pytest
from scipy import signal
from scipy.constants import k as k_b
from scipy.optimize import brentq

from darkfocus import (
    PsdEstimate,
    QuarticCoefficients,
    SimConfig,
    Trajectory,
    corner_frequency_of,
    estimate_psd,
    fit_lorentzian,
    quartic_coefficients,
    simulate,
)
from darkfocus import spectral
from darkfocus.dynamics import spawn_seeds
from darkfocus.spectral import FitError, NumericalError, default_fit_range

TABLE_COEFFS = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)


def make_traj(x, dt):
    pos = np.zeros((len(x), 3))
    pos[:, 0] = x
    return Trajectory(dt=dt, positions=pos)


def profiled_gradient(psd, f_c):
    """|sum r_c d_c| / (|r_c| |d_c|) at f_c over the default fit range: the
    normalised gradient of the profiled log-PSD cost, zero at its optimum."""
    lo, hi = default_fit_range(psd)
    mask = (psd.frequencies >= lo) & (psd.frequencies <= hi)
    f2 = psd.frequencies[mask] ** 2
    r = np.log(psd.psd[mask]) + np.log(f_c**2 + f2)
    d = 2.0 * f_c**2 / (f_c**2 + f2)
    r, d = r - r.mean(), d - d.mean()
    return abs(r @ d) / (np.linalg.norm(r) * np.linalg.norm(d))


def lorentzian_psd(a, f_c, freqs, nperseg=256, dt=1e-3):
    return PsdEstimate(
        frequencies=freqs, psd=a / (f_c**2 + freqs**2), nperseg=nperseg,
        overlap=0.5, n_segments=1, signal_variance=0.0,
    )


class TestEstimatePsd:
    def test_pure_sinusoid_power(self):
        dt = 1e-3
        n = 2**16
        nperseg = 2048
        amp = 3.7e-8
        f0 = 40 * (1.0 / dt) / nperseg  # on the segment frequency grid
        t = dt * np.arange(n)
        psd = estimate_psd(make_traj(amp * np.sin(2 * math.pi * f0 * t), dt),
                           nperseg=nperseg)
        peak = np.argmax(psd.psd)
        assert psd.frequencies[peak] == pytest.approx(f0, abs=psd.df)
        cluster = slice(max(peak - 3, 0), peak + 4)
        power = float(np.sum(psd.psd[cluster]) * psd.df)
        assert power == pytest.approx(amp**2 / 2, rel=0.01)

    def test_white_noise_level(self, rng):
        dt = 1e-3
        sigma = 2.5e-9
        x = sigma * rng.standard_normal(2**17)
        psd = estimate_psd(make_traj(x, dt))
        assert float(np.mean(psd.psd)) == pytest.approx(sigma**2 * 2 * dt, rel=0.1)

    def test_zero_signal(self):
        psd = estimate_psd(make_traj(np.zeros(4096), 1e-3))
        np.testing.assert_array_equal(psd.psd, np.zeros_like(psd.psd))

    def test_parseval_consistency(self, rng):
        # OU-like correlated signal: windowed estimate keeps the variance
        dt = 1e-3
        x = np.empty(2**16)
        x[0] = 0.0
        a = 0.98
        w = rng.standard_normal(len(x))
        for i in range(1, len(x)):
            x[i] = a * x[i - 1] + w[i]
        psd = estimate_psd(make_traj(1e-9 * x, dt))
        total = float(np.sum(psd.psd) * psd.df)
        assert total == pytest.approx(psd.signal_variance, rel=0.05)

    def test_dc_bin_excluded(self, rng):
        psd = estimate_psd(make_traj(rng.standard_normal(4096), 0.01))
        assert psd.frequencies[0] > 0

    def test_segment_longer_than_trajectory(self, rng):
        traj = make_traj(rng.standard_normal(1000), 1e-3)
        with pytest.raises(ValueError, match="segment"):
            estimate_psd(traj, nperseg=800)

    def test_save(self, rng, tmp_path):
        psd = estimate_psd(make_traj(rng.standard_normal(4096), 0.01))
        path = tmp_path / "psd.txt"
        psd.save(path)
        text = path.read_text()
        assert "# window=hann" in text
        assert "# nseg=" in text


    # n = 10007 is prime, so no segment step divides it
    @pytest.mark.parametrize("n", [4096, 10007])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("nperseg", [256, 333, 1000, 1001])
    def test_matches_scipy_welch(self, rng, n, overlap, nperseg):
        dt = 2e-4
        x = 1e-7 + 3e-11 * np.cumsum(rng.standard_normal(n))  # offset random walk
        psd = estimate_psd(make_traj(x, dt), nperseg=nperseg, overlap=overlap)
        f, p = signal.welch(x, fs=1.0 / dt, window="hann", nperseg=nperseg,
                            noverlap=int(nperseg * overlap), detrend="constant",
                            return_onesided=True, scaling="density")
        np.testing.assert_array_equal(psd.frequencies, f[1:])
        np.testing.assert_allclose(psd.psd, p[1:], rtol=1e-12, atol=0.0)
        assert psd.n_segments == 1 + (n - nperseg) // (nperseg - int(nperseg * overlap))


def brentq_root(f, a, b):
    """scipy's brentq at its tightest tolerance, as an oracle of the root."""
    tol = 4.0 * np.finfo(float).eps
    return brentq(f, a, b, xtol=tol, rtol=tol)


def fc_by_brentq(psd, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectral, "bracketed_root", brentq_root)
        return fit_lorentzian(psd).f_c


def criterion6_spectra(beam, particle):
    """x PSDs of criterion 6's ten OU runs and five quartic runs."""
    ou = SimConfig(particle=particle, dt=2e-4, n_steps=120_000,
                   force_model="harmonic", stiffness=1e-6, seed=606)
    quartic = SimConfig(particle=particle, dt=2e-5, n_steps=150_000,
                        coefficients=quartic_coefficients(beam, particle), seed=616)
    cfgs = ([ou.with_seed(int(s)) for s in spawn_seeds(606, 10)]
            + [quartic.with_seed(int(s))
               for s in np.random.SeedSequence(616).generate_state(5)])
    return [estimate_psd(simulate(cfg)) for cfg in cfgs]


class TestFitLorentzian:
    def test_exact_model_recovery(self):
        freqs = np.linspace(0.5, 400, 800)
        fit = fit_lorentzian(lorentzian_psd(2.4e-16, 33.0, freqs),
                             f_range=(0.5, 400.0))
        assert fit.f_c == pytest.approx(33.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(2.4e-16, rel=1e-6)
        assert fit.residual_norm < 1e-8
        assert fit.f_c_in_range

    def test_ou_corner_frequency(self, particle):
        k = 1e-6
        expected = k / (2 * math.pi * particle.drag)
        assert expected == pytest.approx(16.5, abs=0.05)
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=400_000,
                        force_model="harmonic", stiffness=k, seed=31)
        traj = simulate(cfg)
        fit = fit_lorentzian(estimate_psd(traj))
        assert fit.f_c == pytest.approx(expected, rel=0.05)
        # amplitude oracle: one-sided S(f) = kB T / (gamma pi^2 (f_c^2+f^2))
        a_expected = k_b * particle.temperature / (particle.drag * math.pi**2)
        assert fit.amplitude == pytest.approx(a_expected, rel=0.1)

    def test_scale_equivariance(self, rng):
        freqs = np.linspace(0.5, 400, 400)
        noisy = (2.4e-16 / (25.0**2 + freqs**2)
                 * np.exp(0.3 * rng.standard_normal(len(freqs))))
        base = PsdEstimate(frequencies=freqs, psd=noisy, nperseg=128, overlap=0.5,
                           n_segments=4, signal_variance=0.0)
        c = 3.7
        scaled = PsdEstimate(frequencies=freqs, psd=c**2 * noisy, nperseg=128,
                             overlap=0.5, n_segments=4, signal_variance=0.0)
        f1 = fit_lorentzian(base, f_range=(0.5, 400.0))
        f2 = fit_lorentzian(scaled, f_range=(0.5, 400.0))
        assert f2.f_c == pytest.approx(f1.f_c, rel=1e-8)
        assert f2.amplitude == pytest.approx(c**2 * f1.amplitude, rel=1e-8)

    def test_subsampling_invariance(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=200_000,
                        force_model="harmonic", stiffness=1e-6, seed=13)
        psd = estimate_psd(simulate(cfg))
        sub = PsdEstimate(frequencies=psd.frequencies[::2], psd=psd.psd[::2],
                          nperseg=psd.nperseg, overlap=psd.overlap,
                          n_segments=psd.n_segments, signal_variance=psd.signal_variance)
        f1 = fit_lorentzian(psd)
        f2 = fit_lorentzian(sub, f_range=f1.f_range)
        assert f2.f_c == pytest.approx(f1.f_c, rel=0.1)

    def test_corner_outside_range_flagged(self):
        freqs = np.linspace(0.5, 800, 1600)
        psd = lorentzian_psd(1e-16, 5.0, freqs)
        fit = fit_lorentzian(psd, f_range=(50.0, 800.0))
        assert not fit.f_c_in_range
        assert fit.f_c < 50.0  # not clipped into the range

    def test_converges_to_machine_precision(self, particle):
        # criterion 6's OU runs; a minimiser of the cost stops up to ~1e-8 short
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=120_000,
                        force_model="harmonic", stiffness=1e-6, seed=606)
        for seed in spawn_seeds(606, 10):
            psd = estimate_psd(simulate(cfg.with_seed(int(seed))))
            assert profiled_gradient(psd, fit_lorentzian(psd).f_c) <= 1e-13

    def test_corner_frequency_equals_brentq(self, beam, particle, monkeypatch):
        for psd in criterion6_spectra(beam, particle):
            assert fit_lorentzian(psd).f_c == pytest.approx(
                fc_by_brentq(psd, monkeypatch), rel=1e-14)

    def test_slope_is_the_plain_profiled_gradient(self, beam, particle, monkeypatch):
        # the root search's in-place slope gives, wherever it is evaluated,
        # the bits of sum (r - mean r)(d - mean d) written out plainly
        calls = []
        root = spectral.bracketed_root

        def recorded(f, a, b):
            def evaluated(u):
                calls.append((u, f(u)))
                return calls[-1][1]
            return root(evaluated, a, b)

        monkeypatch.setattr(spectral, "bracketed_root", recorded)
        for psd in criterion6_spectra(beam, particle)[::3]:
            calls.clear()
            fit_lorentzian(psd)
            lo, hi = default_fit_range(psd)
            mask = (psd.frequencies >= lo) & (psd.frequencies <= hi)
            f2, log_s = psd.frequencies[mask] ** 2, np.log(psd.psd[mask])
            assert len(calls) > 10
            for u, value in calls:
                fc2 = math.exp(2.0 * u)
                g = log_s + np.log(fc2 + f2)
                d = 2.0 * fc2 / (fc2 + f2)
                assert value == float((g - g.mean()) @ (d - d.mean()))

    def test_corner_frequency_near_one_hertz_equals_brentq(self, particle, monkeypatch):
        # ln f_c near 0: the bracket in u = ln f_c straddles zero
        freqs = np.linspace(0.05, 20.0, 400)
        spectra = [lorentzian_psd(1e-16, 1.0, freqs)]
        k = 2 * math.pi * particle.drag * 1.0  # f_c = 1 Hz
        cfg = SimConfig(particle=particle, dt=1e-3, n_steps=2**17,
                        force_model="harmonic", stiffness=k, seed=41)
        spectra.append(estimate_psd(simulate(cfg)))
        for psd in spectra:
            f_c = fit_lorentzian(psd).f_c
            assert f_c == pytest.approx(1.0, rel=0.2)
            assert f_c == pytest.approx(fc_by_brentq(psd, monkeypatch), rel=1e-14)

    @pytest.mark.parametrize("exponent,f_c", [
        (0, 400.0 * math.exp(7.0)),   # flat (white noise): the upper bracket end
        (2, 0.5 * math.exp(-7.0)),    # 1/f^2 (free diffusion): the lower end
    ], ids=["flat", "free_diffusion"])
    def test_no_corner_returns_bracket_end(self, exponent, f_c):
        freqs = np.linspace(0.5, 400, 400)
        psd = PsdEstimate(frequencies=freqs, psd=1e-16 / freqs**exponent, nperseg=128,
                          overlap=0.5, n_segments=4, signal_variance=0.0)
        fit = fit_lorentzian(psd, f_range=(0.5, 400.0))
        assert fit.f_c == pytest.approx(f_c, rel=1e-12)
        assert not fit.f_c_in_range

    def test_needs_ten_bins(self):
        freqs = np.linspace(1, 9, 9)
        with pytest.raises(ValueError, match="10"):
            fit_lorentzian(lorentzian_psd(1e-16, 3.0, freqs), f_range=(1.0, 9.0))

    @pytest.mark.parametrize("n_bins", [0, 1])
    @pytest.mark.parametrize("f_range", [None, (1.0, 2.0)])
    def test_too_short_spectrum_is_a_numerical_error(self, n_bins, f_range):
        psd = lorentzian_psd(1e-16, 3.0, np.arange(1.0, 1.0 + n_bins))
        with pytest.raises(NumericalError, match=f"10 frequency bins .* has {n_bins}$"):
            fit_lorentzian(psd, f_range)

    def test_default_range(self, rng):
        psd = estimate_psd(make_traj(rng.standard_normal(2**14), 1e-3))
        lo, hi = default_fit_range(psd)
        assert lo == pytest.approx(psd.frequencies[1])
        assert hi == pytest.approx((psd.frequencies[-1] + psd.df) / 4)

    def test_report_file(self, tmp_path):
        freqs = np.linspace(0.5, 400, 800)
        fit = fit_lorentzian(lorentzian_psd(2.4e-16, 33.0, freqs),
                             f_range=(0.5, 400.0))
        path = tmp_path / "fit.txt"
        fit.save(path)
        text = path.read_text()
        for key in ("f_c=", "f_c_err=", "A=", "A_err=", "residual="):
            assert key in text


class TestCornerFrequencyOf:
    def test_harmonic_ensemble(self, particle):
        k = 1e-6
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=120_000,
                        force_model="harmonic", stiffness=k, seed=17)
        res = corner_frequency_of(cfg, repetitions=5)
        expected = k / (2 * math.pi * particle.drag)
        assert res.mean == pytest.approx(expected, rel=0.05)
        assert res.std > 0
        assert len(res.values) == 5

    def test_runs_on_seeds_spawned_from_cfg_seed(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=60_000,
                        force_model="harmonic", stiffness=1e-6, seed=17)
        res = corner_frequency_of(cfg, repetitions=4)
        expected = [fit_lorentzian(estimate_psd(simulate(cfg.with_seed(s)))).f_c
                    for s in spawn_seeds(cfg.seed, 4)]
        assert res.values.tolist() == expected

    def test_spread_shrinks_with_repetitions(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=60_000,
                        force_model="harmonic", stiffness=1e-6, seed=23)
        small = corner_frequency_of(cfg, repetitions=4)
        large = corner_frequency_of(cfg, repetitions=16)
        assert large.std / math.sqrt(16) < small.std / math.sqrt(4) * 2.0
        # standard error of the mean improves with more repetitions
        assert large.std / math.sqrt(16) < small.std / math.sqrt(4) + 1e-9

    def test_requires_three_successes(self, particle):
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=100_000,
                        coefficients=TABLE_COEFFS, seed=2)  # escapes, absorbing
        with pytest.raises(FitError, match="repetitions"):
            corner_frequency_of(cfg, repetitions=4)
