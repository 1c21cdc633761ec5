import gc
import hashlib
import itertools
import math
import os
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import k as k_b
from scipy import stats
from scipy.special import ndtr
from scipy.stats import norm

from darkfocus import (
    EmpiricalPdf,
    NumericalError,
    QuarticCoefficients,
    SimConfig,
    boltzmann_potential,
    corner_frequency_of,
    decorrelation_stride,
    equilibrium_pdf,
    estimate_na,
    histogram_pdf,
    kl_divergence,
    ks_gaussianity_test,
    quartic_coefficients,
    rebin_pdf,
    reconstruct_potential,
    simulate,
)
from darkfocus import _compiled, _parallel, calibration, dynamics
from darkfocus.calibration import (
    _edges,
    _fit_quartic_once,
    _fold_counts,
    _ks_null_table,
    _ndtr,
    _quantile,
    _rho_abs_z,
    _xy_counts,
)


def sample_quartic_marginal(n, rng):
    """Rejection-sample the x-marginal-like density exp(-u^4) (iid oracle)."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        u = rng.uniform(-2.5, 2.5, 4 * (n - filled))
        keep = rng.random(len(u)) < np.exp(-(u**4))
        take = u[keep][: n - filled]
        out[filled : filled + len(take)] = take
        filled += len(take)
    return out


class TestHistogramPdf:
    def test_uniform_density(self, rng):
        pdf = histogram_pdf(rng.random(200_000), bins=20)
        assert float(np.sum(pdf.density * pdf.widths)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pdf.density, np.ones(20), atol=0.02)

    def test_standard_normal_density(self, rng):
        x = rng.standard_normal(1_000_000)
        pdf = histogram_pdf(x, bins=60, range=(-4, 4))
        expected = norm.pdf(pdf.centers)
        assert np.max(np.abs(pdf.density - expected)) < 0.01

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError, match="degenerate|variance"):
            histogram_pdf(np.full(100, 3.14))

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError, match="100"):
            histogram_pdf(rng.random(99))

    def test_pseudocount_fills_empty_bins(self, rng):
        x = np.concatenate([rng.random(500), rng.random(500) + 5.0])
        pdf = histogram_pdf(x, bins=30, pseudocount=0.5)
        assert np.all(pdf.density > 0)
        assert pdf.pseudocount == 0.5

    def test_fd_binning_default(self, rng):
        pdf = histogram_pdf(rng.standard_normal(10_000))
        expected_edges = np.histogram_bin_edges(
            np.asarray(pdf.n_samples), bins="fd"
        )
        assert len(pdf.bin_edges) > 10  # fd picks a data-driven bin count


class TestRebin:
    def test_mass_conserving(self, rng):
        pdf = histogram_pdf(rng.standard_normal(50_000), bins=64)
        coarse = rebin_pdf(pdf, pdf.bin_edges[::2])
        assert float(np.sum(coarse.density * coarse.widths)) == pytest.approx(1.0)
        # pairwise masses agree with the fine histogram
        fine_mass = (pdf.density * pdf.widths).reshape(-1, 2).sum(axis=1)
        np.testing.assert_allclose(coarse.density * coarse.widths, fine_mass,
                                   rtol=1e-9)

    def test_enables_kl_on_shared_grid(self, rng):
        p = histogram_pdf(rng.standard_normal(20_000), bins=40, range=(-5, 5))
        q = histogram_pdf(rng.standard_normal(20_000) * 1.2, bins=80, range=(-5, 5),
                          pseudocount=0.5)
        with pytest.raises(ValueError, match="grid"):
            kl_divergence(p, q)
        q2 = rebin_pdf(q, p.bin_edges)
        assert kl_divergence(p, q2) >= 0.0


class TestKlDivergence:
    def test_self_divergence_zero(self, rng):
        p = histogram_pdf(rng.standard_normal(10_000), bins=30)
        assert kl_divergence(p, p) == 0.0

    def test_shifted_gaussians_closed_form(self, rng):
        # D(N(mu1, s) || N(mu2, s)) = (mu1-mu2)^2 / (2 s^2)
        mu1, mu2, sigma = 0.0, 0.35, 1.0
        edges = np.linspace(-8, 8, 400)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)

        def discretize(mu):
            d = norm.pdf(centers, mu, sigma)
            return EmpiricalPdf(bin_edges=edges, density=d / np.sum(d * widths),
                                n_samples=1)

        expected = (mu1 - mu2) ** 2 / (2 * sigma**2)
        assert kl_divergence(discretize(mu1), discretize(mu2)) == pytest.approx(
            expected, rel=0.02
        )

    def test_asymmetry(self, rng):
        skewed = np.exp(rng.standard_normal(40_000) * 0.6)
        normal = rng.standard_normal(40_000) + skewed.mean()
        edges = np.linspace(-4, 12, 120)
        p = histogram_pdf(skewed, bins=edges, pseudocount=0.5)
        q = histogram_pdf(normal, bins=edges, pseudocount=0.5)
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), rel=0.05)

    def test_infinite_when_unregularized(self, rng):
        edges = np.linspace(0, 1, 11)
        p = histogram_pdf(rng.random(1000), bins=edges)
        d = np.zeros(10)
        d[:5] = 2.0  # zero mass where p is positive
        q = EmpiricalPdf(bin_edges=edges, density=d, n_samples=1)
        assert kl_divergence(p, q) == math.inf

    def test_nonnegative_on_random_pairs(self, rng):
        edges = np.linspace(-5, 5, 60)
        for _ in range(10):
            p = histogram_pdf(rng.standard_normal(5000), bins=edges, pseudocount=0.5)
            q = histogram_pdf(rng.standard_normal(5000) * rng.uniform(0.5, 2),
                              bins=edges, pseudocount=0.5)
            assert kl_divergence(p, q) >= 0.0

    def test_grid_shifted_by_one_bin_rejected(self, rng):
        # 5 nm bins: numpy's default atol of 1e-8 would accept a whole-bin shift
        x = rng.standard_normal(100_000) * 1e-7
        edges = np.arange(-100, 101) * 5e-9
        p = histogram_pdf(x, bins=edges)
        q = histogram_pdf(x, bins=edges + 5e-9, pseudocount=0.5)
        with pytest.raises(ValueError, match="different grids"):
            kl_divergence(p, q)


class TestKsGaussianity:
    def test_gaussian_not_rejected(self, rng):
        res = ks_gaussianity_test(rng.standard_normal(5000), n_null=400)
        assert not res.reject
        assert res.p_value > 0.05

    def test_quartic_marginal_rejected(self, rng):
        samples = sample_quartic_marginal(20_000, rng)
        res = ks_gaussianity_test(samples, n_null=400)
        assert res.reject
        assert res.p_value < 0.01

    def test_uniform_rejected(self, rng):
        res = ks_gaussianity_test(rng.random(10_000), n_null=400)
        assert res.reject

    def test_minimum_sample_count(self, rng):
        with pytest.raises(ValueError, match="1000"):
            ks_gaussianity_test(rng.standard_normal(999))

    def test_false_positive_rate_calibrated(self, rng):
        # the stated significance is the actual rejection rate under the null
        n_trials, n = 120, 1500
        rejects = sum(
            ks_gaussianity_test(rng.standard_normal(n), n_null=300).reject
            for _ in range(n_trials)
        )
        assert 0.01 <= rejects / n_trials <= 0.10

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_null_table_matches_kstest(self, n):
        # the batched table against one kstest per null sample, drawn in turn
        rng = np.random.default_rng(31)
        expected = np.sort([
            stats.kstest(x, "norm", args=(np.mean(x), np.std(x, ddof=1))).statistic
            for x in (rng.standard_normal(n) for _ in range(120))
        ])
        np.testing.assert_allclose(_ks_null_table(n, 120, 31), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1000, 50_000])
    def test_statistic_is_kstest(self, rng, n):
        # the data's statistic comes from the null table's row routine
        x = sample_quartic_marginal(n, rng)
        before = x.copy()
        expected = stats.kstest(x, "norm", args=(np.mean(x), np.std(x, ddof=1))).statistic
        assert ks_gaussianity_test(x, n_null=20).statistic == expected
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_gaussian_cdf_is_scipy_ndtr(self, path):
        # bit for bit on 4.5e5 points: draws, a grid over +-40, both sides of
        # the branch thresholds 1 and 8 in a / sqrt(2), the underflow edge of
        # the far tail, subnormals, signed zeros, infinities and NaN
        rng = np.random.default_rng(8)
        edges = np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0])
        edges = np.concatenate([np.nextafter(edges, np.inf), edges, np.nextafter(edges, -np.inf)])
        a = np.concatenate([
            rng.normal(0.0, 3.0, 200_000), rng.standard_normal(100_000),
            np.linspace(-40.0, 40.0, 100_001), np.linspace(-38.5, -37.0, 40_001),
            np.linspace(37.0, 38.5, 10_001), edges,
            [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 0.0, -0.0,
             np.inf, -np.inf, np.nan],
        ])
        if path == "compiled":
            out = np.empty_like(a)
            _compiled.load().df_ndtr(a, len(a), out)
        else:
            out = _ndtr(a)
        expected = ndtr(a)
        assert np.isnan(out[-1]) and np.isnan(expected[-1])
        assert np.array_equal(out[:-1].view(np.int64), expected[:-1].view(np.int64))

    @pytest.mark.parametrize("n, n_null", [(1000, 120), (4000, 60), (50_001, 40)])
    def test_null_table_at_every_width_and_path(self, monkeypatch, n, n_null):
        # rows in blocks, reduced on the pool, compiled or not: the same bits
        # as every row drawn at once and reduced by scipy's ndtr
        x = np.random.default_rng(5).standard_normal((n_null, n))
        mu, sigma = np.mean(x, axis=1, keepdims=True), np.std(x, axis=1, ddof=1, keepdims=True)
        x.sort(axis=1)
        cdf = ndtr((x - mu) / sigma)
        ranks = np.arange(n + 1) / n
        expected = np.sort(np.maximum((ranks[1:] - cdf).max(axis=1),
                                      (cdf - ranks[:-1]).max(axis=1)))
        for path in ("compiled", "reference"):
            if path == "reference":
                monkeypatch.setattr(_compiled, "load", lambda: None)
            for width in (1, 2):
                monkeypatch.setattr(_parallel, "width", lambda width=width: width)
                monkeypatch.setattr(calibration, "_KS_NULL_CACHE", {})
                table = _ks_null_table(n, n_null, 5)
                assert np.array_equal(table.view(np.int64), expected.view(np.int64)), (path, width)

    @pytest.mark.parametrize("n", [1000, 50_000])
    def test_reference_path_gives_the_same_result(self, monkeypatch, rng, n):
        x = sample_quartic_marginal(n, rng)
        compiled = ks_gaussianity_test(x, n_null=30)
        monkeypatch.setattr(_compiled, "load", lambda: None)
        monkeypatch.setattr(calibration, "_KS_NULL_CACHE", {})
        assert ks_gaussianity_test(x, n_null=30) == compiled

    @pytest.mark.parametrize("samples, n_null, message", [
        (np.r_[np.nan, np.zeros(1999)], 500, "finite, got NaN or inf"),
        (np.r_[np.inf, np.arange(1999.0)], 500, "finite, got NaN or inf"),
        (np.r_[-np.inf, np.arange(1999.0)], 500, "finite, got NaN or inf"),
        (np.full(2000, 0.1), 500, "zero spread"),
        (np.zeros(2000), 500, "zero spread"),
        (np.r_[1e-170, np.zeros(1999)], 500, "standard deviation underflows or overflows"),
        (np.r_[-1e308, 1e308, np.zeros(1998)], 500, "standard deviation underflows or overflows"),
        (np.arange(2000.0), 0, "n_null must be an integer >= 1, got 0$"),
        (np.arange(2000.0), -3, "n_null must be an integer >= 1, got -3$"),
        (np.arange(2000.0), 2.5, "n_null must be an integer >= 1, got 2.5$"),
        (np.arange(2000.0), True, "n_null must be an integer >= 1, got True$"),
    ])
    def test_bad_input_named_before_any_table(self, monkeypatch, samples, n_null, message):
        monkeypatch.setattr(calibration, "_KS_NULL_CACHE", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ks_gaussianity_test(samples, n_null=n_null)
        assert calibration._KS_NULL_CACHE == {}

    def test_decorrelation_stride(self, particle):
        stride = decorrelation_stride(particle.drag, 1e-6, 1e-4)
        assert stride == math.ceil(3 * (particle.drag / 1e-6) / 1e-4)
        with pytest.raises(ValueError):
            decorrelation_stride(0.0, 1e-6, 1e-4)


class TestBoltzmannPotential:
    def test_harmonic_curvature_recovered(self, particle):
        k = 1e-6
        kbt = k_b * particle.temperature
        sigma = math.sqrt(kbt / k)
        edges = np.linspace(-4 * sigma, 4 * sigma, 121)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.exp(-0.5 * (centers / sigma) ** 2)
        dens /= np.sum(dens * np.diff(edges))
        pdf = EmpiricalPdf(bin_edges=edges, density=dens, n_samples=1)
        x, v = boltzmann_potential(pdf, particle.temperature)
        coeffs = np.polyfit(x, v, 2)
        assert 2 * coeffs[0] == pytest.approx(k, rel=0.03)
        assert v.min() == 0.0

    def test_narrow_support_is_numerical_error(self, particle):
        # two populated bins cannot be inverted; a ValueError still catches it
        pdf = EmpiricalPdf(bin_edges=np.arange(5.0), density=np.array([0, 0.5, 0.5, 0]),
                           n_samples=2)
        with pytest.raises(NumericalError, match="density support too narrow"):
            boltzmann_potential(pdf, particle.temperature)
        assert issubclass(NumericalError, ValueError)

    def test_boltzmann_round_trip_error_bound(self, particle):
        # equilibrium density -> inversion reproduces the potential to
        # 0.05 kB T away from the support edges
        kbt = k_b * particle.temperature
        x = np.linspace(-2e-7, 2e-7, 201)

        def potential(u):
            return 4.0 * kbt * (u / 2e-7) ** 4 - 1.5 * kbt * (u / 2e-7) ** 2

        dens = equilibrium_pdf(potential, particle.temperature, [x])
        dx = x[1] - x[0]
        edges = np.concatenate([x - dx / 2, [x[-1] + dx / 2]])
        pdf = EmpiricalPdf(bin_edges=edges, density=dens, n_samples=1)
        centers, v = boltzmann_potential(pdf, particle.temperature)
        expected = potential(centers)
        expected -= expected.min()
        inner = slice(10, -10)
        assert np.max(np.abs(v - expected)[inner]) < 0.05 * kbt

    def test_offset_invariance(self, particle):
        x = np.linspace(-1e-7, 1e-7, 101)
        base = equilibrium_pdf(lambda u: 1e-20 * (u / 1e-7) ** 2,
                               particle.temperature, [x])
        shifted = equilibrium_pdf(lambda u: 1e-20 * (u / 1e-7) ** 2 + 5e-21,
                                  particle.temperature, [x])
        np.testing.assert_allclose(base, shifted, rtol=1e-12)


class TestReconstructPotential:
    @pytest.fixture(scope="class")
    def confining_trap(self, request):
        # strongly anharmonic reconstructed-trap strengths; the local quartic
        # alone does not confine at room temperature, so sample its Boltzmann
        # density behind a reflecting wall at the model's validity edge
        particle = request.getfixturevalue("particle")
        coeffs = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)
        cfg = SimConfig(particle=particle, dt=2e-5, n_steps=800_000,
                        coefficients=coeffs, seed=101,
                        domain_bound=1.6e-7, boundary="reflect")
        traj = simulate(cfg)
        assert traj.escape is None
        return coeffs, traj.positions[20_000:]

    def test_round_trip_recovers_coefficients(self, particle, confining_trap):
        coeffs, samples = confining_trap
        rec = reconstruct_potential(samples, particle.temperature)
        assert rec.coefficients.k_z == pytest.approx(coeffs.k_z, rel=0.15)
        assert rec.coefficients.k_rho_z == pytest.approx(coeffs.k_rho_z, rel=0.15)
        assert rec.coefficients.k_rho == pytest.approx(coeffs.k_rho, rel=0.15)
        assert all(np.isfinite(rec.uncertainties))
        assert np.nanmin(rec.v_grid) == 0.0

    def test_five_fold_uncertainty_is_split_std(self, particle, confining_trap):
        _, samples = confining_trap
        rec = reconstruct_potential(samples, particle.temperature, n_folds=5,
                                    min_count=20)
        rho = np.hypot(samples[:, 0], samples[:, 1])
        rho_max = float(np.quantile(rho, 0.995))
        z_max = float(np.quantile(np.abs(samples[:, 2]), 0.995))
        fold_fits = []
        for fold in np.array_split(samples, 5):
            counts, r_edges, z_edges = np.histogram2d(
                np.hypot(fold[:, 0], fold[:, 1]), fold[:, 2], bins=[40, 40],
                range=[[0.0, rho_max], [-z_max, z_max]])
            fold_fits.append(_fit_quartic_once(counts, r_edges, z_edges,
                                               particle.temperature, 4)[0])
        expected = np.std(np.array(fold_fits), axis=0, ddof=1)
        np.testing.assert_array_equal(rec.uncertainties, expected)
        assert rec.n_folds_fitted == 5

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_reproduces_recorded_reconstruction(self, particle, confining_trap, path,
                                                monkeypatch):
        # recorded with numpy.histogram2d binning the whole sample and each fold
        _, samples = confining_trap
        if path == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        elif _compiled.load() is None:
            pytest.skip("no C compiler to build the binning kernel")
        rec = reconstruct_potential(samples, particle.temperature)
        c = rec.coefficients
        assert (c.k_z, c.k_rho_z, c.k_rho) == (
            3.9664191052370287e-07, 86935177.54072866, 223626623.5388889)
        assert rec.uncertainties == (
            8.351476582871003e-08, 4078127.966665915, 12176810.949871453)
        assert np.count_nonzero(np.isnan(rec.v_grid)) == 296
        assert hashlib.sha256(rec.v_grid.tobytes()).hexdigest() == (
            "bd19ce6034597b302b4ac519ccd25095ba2ed0865ea641bd13cfab76109555da")

    @pytest.mark.parametrize("n_folds, rows", [(5, None), (1, 200_001), (7, 100_003),
                                               (2000, 1500)])
    def test_same_result_at_every_width_and_path(self, particle, confining_trap, monkeypatch,
                                                 n_folds, rows):
        # every field, bit for bit, at widths 1 and 2, compiled or not; seven
        # folds outnumber the threads, and 2000 folds the samples
        samples = confining_trap[1][:rows]
        options = dict(n_bins=8, min_count=5) if n_folds > len(samples) else {}
        paths = ["reference"] if _compiled.load() is None else ["compiled", "reference"]
        results = []
        for path in paths:
            if path == "reference":
                monkeypatch.setattr(_compiled, "load", lambda: None)
            for width in (1, 2):
                monkeypatch.setattr(_parallel, "width", lambda width=width: width)
                rec = reconstruct_potential(samples, particle.temperature, n_folds=n_folds,
                                            **options)
                results.append({name: value.tobytes() if isinstance(value, np.ndarray)
                                else repr(value) for name, value in vars(rec).items()})
        assert all(result == results[0] for result in results[1:])
        assert int(results[0]["n_folds_fitted"]) == (0 if n_folds > len(samples) else n_folds)

    def test_failed_fold_is_dropped_and_counted(self, particle, confining_trap, tmp_path):
        # the last fifth sits in one bin: its fold cannot be fitted
        _, samples = confining_trap
        m = len(samples) // 5
        stuck = np.concatenate([samples[:4 * m], np.zeros((m, 3))])
        rec = reconstruct_potential(stuck, particle.temperature)
        assert rec.n_folds == 5 and rec.n_folds_fitted == 4
        assert all(np.isfinite(rec.uncertainties))
        rec.save(tmp_path / "rec.txt")
        assert "n_folds=5\nn_folds_fitted=4\n" in (tmp_path / "rec.txt").read_text()

    def test_single_fold_has_no_uncertainty(self, particle, confining_trap):
        _, samples = confining_trap
        rec = reconstruct_potential(samples, particle.temperature, n_folds=1)
        assert rec.n_folds_fitted == 1
        assert all(math.isnan(u) for u in rec.uncertainties)

    @pytest.mark.parametrize("bad", [
        dict(sample=math.nan), dict(sample=math.inf), dict(sample=-math.inf),
        dict(n_bins=0), dict(n_bins=2.5), dict(n_folds=0),
        dict(n_folds=-1), dict(min_count=0), dict(support_quantile=0.0),
        dict(support_quantile=1.5), dict(support_quantile=math.nan),
    ], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
    def test_bad_input_rejected(self, particle, rng, bad):
        samples = rng.standard_normal((5000, 3)) * 1e-7
        options = dict(bad)
        value = options.pop("sample", None)
        if value is not None:
            # NaN in z, infinities in x
            samples[1234, 2 if math.isnan(value) else 0] = value
        message = "samples must be finite" if value is not None else f"{[*options][0]} must"
        with pytest.raises(ValueError, match=message) as info:
            reconstruct_potential(samples, particle.temperature, **options)
        assert not isinstance(info.value, NumericalError)

    def test_rescaling_property(self, particle, confining_trap):
        # positions in different units: k_z scales as c^-2, the quartic
        # strengths as c^-4, leaving V(c x)/kB T unchanged
        _, samples = confining_trap
        c = 2.0
        rec1 = reconstruct_potential(samples, particle.temperature)
        rec2 = reconstruct_potential(samples * c, particle.temperature)
        assert rec2.coefficients.k_z == pytest.approx(rec1.coefficients.k_z / c**2,
                                                      rel=1e-9)
        assert rec2.coefficients.k_rho_z == pytest.approx(
            rec1.coefficients.k_rho_z / c**4, rel=1e-9
        )
        assert rec2.coefficients.k_rho == pytest.approx(
            rec1.coefficients.k_rho / c**4, rel=1e-9
        )

    def test_degenerate_support_rejected(self, particle, rng):
        # all samples on a cylinder shell: rho is constant, so the radial
        # monomials are collinear with the offset and the fit cannot
        # separate the quartic terms
        theta = rng.uniform(0, 2 * math.pi, 20_000)
        samples = np.column_stack([
            1e-7 * np.cos(theta),
            1e-7 * np.sin(theta),
            rng.standard_normal(20_000) * 5e-8,
        ])
        with pytest.raises(ValueError):
            reconstruct_potential(samples, particle.temperature)

    def test_report_file(self, particle, confining_trap, tmp_path):
        _, samples = confining_trap
        rec = reconstruct_potential(samples, particle.temperature)
        path = tmp_path / "rec.txt"
        rec.save(path)
        text = path.read_text()
        for key in ("k_z=", "k_z_err=", "k_rho_z=", "k_rho=", "n_folds=5",
                    "n_folds_fitted=5"):
            assert key in text


def histogram2d_folds(rho, z, n_folds, bins, rho_max, z_max):
    """numpy.histogram2d on each numpy.array_split fold, on the range
    reconstruct_potential bins over."""
    return np.array([
        np.histogram2d(r, zf, bins=bins, range=[[0.0, rho_max], [-z_max, z_max]])[0]
        for r, zf in zip(np.array_split(rho, n_folds), np.array_split(z, n_folds))
    ])


class TestFoldCounts:
    """The single binning pass against numpy.histogram2d per fold, on the
    compiled kernel and on the reference path."""

    @pytest.fixture(autouse=True, params=["compiled", "reference"])
    def path(self, request, monkeypatch):
        if request.param == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        elif _compiled.load() is None:
            pytest.skip("no C compiler to build the binning kernel")

    @staticmethod
    def check(rho, z, n_folds, bins, rho_max, z_max):
        # the x and y columns are not read: rho arrives on its own
        positions = np.column_stack([np.full_like(z, np.nan), np.full_like(z, np.nan), z])
        counts = _fold_counts(rho, positions, n_folds, _edges(0.0, rho_max, bins[0]),
                              _edges(-z_max, z_max, bins[1]))
        expected = histogram2d_folds(rho, z, n_folds, bins, rho_max, z_max)
        assert counts.dtype == np.int64 and counts.shape == expected.shape
        np.testing.assert_array_equal(counts, expected)
        return counts

    @pytest.mark.parametrize("n,n_folds", [(100_003, 5), (100_000, 5), (10_007, 7),
                                           (1000, 1), (3, 5)])
    def test_random_samples(self, rng, n, n_folds):
        pos = rng.standard_normal((n, 3)) * 1e-7
        rho = np.hypot(pos[:, 0], pos[:, 1])
        rho_max = float(np.quantile(rho, 0.995))
        z_max = float(np.quantile(np.abs(pos[:, 2]), 0.995))
        counts = self.check(rho, pos[:, 2], n_folds, (40, 40), rho_max, z_max)
        # the fold grids sum to the whole-sample histogram
        whole = np.histogram2d(rho, pos[:, 2], bins=[40, 40],
                               range=[[0.0, rho_max], [-z_max, z_max]])[0]
        np.testing.assert_array_equal(counts.sum(axis=0), whole)

    @pytest.mark.parametrize("bins", [(1, 1), (7, 9), (40, 40)])
    def test_edges_their_neighbours_and_outliers(self, rng, bins):
        rho_max, z_max = 1.234e-7, 0.987e-7

        def around(edges):
            return np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)])

        r_values = np.concatenate([around(_edges(0.0, rho_max, bins[0])),
                                   [-1e-7, 2 * rho_max, math.nan, math.inf]])
        z_values = np.concatenate([around(_edges(-z_max, z_max, bins[1])),
                                   [-2 * z_max, 2 * z_max, math.nan, -math.inf]])
        rho, z = (a.ravel() for a in np.meshgrid(r_values, z_values))
        order = rng.permutation(len(rho))
        counts = self.check(rho[order], z[order], 3, bins, rho_max, z_max)
        # every edge and both neighbours inside the range are counted
        inside = 3 * (bins[0] + 1) - 2, 3 * (bins[1] + 1) - 2
        assert counts.sum() == inside[0] * inside[1]

    def test_empty_range_is_widened(self, rng):
        rho = np.concatenate([np.zeros(500), rng.uniform(-1.0, 1.0, 500)])
        z = np.concatenate([rng.uniform(-1.0, 1.0, 500), np.zeros(500)])
        self.check(rho, z, 2, (4, 4), 0.0, 0.0)


# finite coordinates whose hypot is finite, with subnormals, both zeros and
# values whose squares overflow
FINITE_COORDINATES = [0.0, -0.0, 5e-324, -1e-320, 2.2250738585072014e-308, 1e-310, 1e-200,
                      -1.5e-160, 1.0, -3.5, 1e154, -2e200, 8.98846567431158e307]
# coordinates that make rho or |z| non-finite: rho overflows for the first
# when x and y both hold it
NON_FINITE_COORDINATES = [1.7976931348623157e308, math.nan, math.inf, -math.inf]


class TestRhoAbsZ:
    """The rho and |z| columns against numpy.hypot and numpy.abs, bit for
    bit, on the compiled kernel and on the reference path."""

    @staticmethod
    def rows(values):
        return np.array(list(itertools.product(values, repeat=3)))

    @staticmethod
    def bits(a):
        return a.view(np.int64).tolist()

    def test_kernel_against_numpy(self):
        library = _compiled.load()
        if library is None:
            pytest.skip("no C compiler to build the binning kernel")
        pos = self.rows(FINITE_COORDINATES + NON_FINITE_COORDINATES)
        rho, abs_z = np.empty(len(pos)), np.empty(len(pos))
        bad = library.df_rho_abs_z(pos, len(pos), rho, abs_z)
        with np.errstate(over="ignore"):
            expected_rho = np.hypot(pos[:, 0], pos[:, 1])
        expected_abs_z = np.abs(pos[:, 2])
        assert self.bits(rho) == self.bits(expected_rho)
        assert self.bits(abs_z) == self.bits(expected_abs_z)
        finite = np.isfinite(expected_rho) & np.isfinite(expected_abs_z)
        assert bad == np.count_nonzero(~finite) > 0

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_blocks_on_every_width(self, monkeypatch, path, rng):
        if path == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        elif _compiled.load() is None:
            pytest.skip("no C compiler to build the binning kernel")
        # enough rows for several blocks at every width
        pos = self.rows(FINITE_COORDINATES)[rng.integers(0, 13**3, 600_001)]
        for width in (1, 2, 3):
            monkeypatch.setattr(_parallel, "width", lambda width=width: width)
            rho, abs_z = _rho_abs_z(pos)
            assert self.bits(rho) == self.bits(np.hypot(pos[:, 0], pos[:, 1]))
            assert self.bits(abs_z) == self.bits(np.abs(pos[:, 2]))
            for row in (0, 300_000, 600_000):
                for columns, value, message in (
                        ([0, 1], NON_FINITE_COORDINATES[0], r"^rho = hypot\(x, y\) overflows"),
                        ([0], math.nan, "samples must be finite"),
                        ([2], math.nan, "samples must be finite"),
                        ([1], math.inf, "samples must be finite"),
                        ([2], -math.inf, "samples must be finite")):
                    bad = pos.copy()
                    bad[row, columns] = value
                    with pytest.raises(ValueError, match=message):
                        _rho_abs_z(bad)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1000, 50_000),
       q=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       distinct=st.integers(1, 50_000), seed=st.integers(0, 2**63),
       scale=st.sampled_from([1.0, 1e-7, 5e-324, 1e300]))
@example(n=1000, q=1.0, distinct=1, seed=0, scale=1.0)
@example(n=27_000, q=0.995, distinct=50_000, seed=1, scale=1e-7)
@example(n=1002, q=0.5, distinct=1002, seed=15, scale=1.0)  # gamma 1/2, a + d / 2 != b - d / 2
@example(n=1000, q=5e-324, distinct=1000, seed=3, scale=1.0)
def test_selection_equals_numpy_quantile(n, q, distinct, seed, scale):
    # values drawn from a pool of `distinct`, so with heavy ties for a small
    # pool; + 0.0 turns -0.0 into 0.0, which rho and |z| never hold
    rng = np.random.default_rng(seed)
    values = rng.choice(rng.standard_normal(min(distinct, n)) * scale + 0.0, n)
    expected = np.quantile(values, q)
    assert np.float64(_quantile(values.copy(), q)).tobytes() == expected.tobytes()


class TestXyCounts:
    """The x and y histograms of a sweep run against numpy.histogram of each
    column, on the compiled kernel and on the reference path."""

    @pytest.fixture(autouse=True, params=["compiled", "reference"])
    def path(self, request, monkeypatch):
        if request.param == "reference":
            monkeypatch.setattr(_compiled, "load", lambda: None)
        elif _compiled.load() is None:
            pytest.skip("no C compiler to build the binning kernel")

    @staticmethod
    def check(positions, x_edges, y_edges):
        counts = _xy_counts(positions, x_edges, y_edges)
        for axis, edges in enumerate((x_edges, y_edges)):
            expected = np.histogram(positions[:, axis], bins=edges)[0]
            assert counts[axis].dtype == np.int64
            assert counts[axis].tobytes() == expected.tobytes()
        return counts

    def test_random_samples(self, rng):
        pos = rng.standard_normal((100_003, 3)) * 1e-7
        counts = self.check(pos, np.linspace(-3e-7, 3e-7, 41), np.linspace(-2e-7, 2.5e-7, 17))
        assert 0 < counts[0].sum() < len(pos)

    @pytest.mark.parametrize("n_bins", [1, 7, 40])
    def test_edges_their_neighbours_and_outliers(self, rng, n_bins):
        x_edges = np.linspace(-0.987e-7, 1.234e-7, n_bins + 1)
        y_edges = np.linspace(-2.5e-8, 7.5e-8, n_bins + 1)

        def around(edges):
            return rng.permutation(np.concatenate([
                edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                [-2e-7, 3e-7, math.nan, math.inf, -math.inf]]))

        pos = np.column_stack([around(x_edges), around(y_edges), np.zeros(3 * n_bins + 8)])
        counts = self.check(pos, x_edges, y_edges)
        # every edge and both neighbours inside the range are counted
        assert counts[0].sum() == counts[1].sum() == 3 * (n_bins + 1) - 2

    def test_uneven_edges(self, rng):
        pos = rng.uniform(-1.0, 1.0, (5000, 3))
        edges = np.array([-0.9, -0.8999, -0.5, 0.0, 1e-9, 0.3, 0.95])
        self.check(pos, edges, np.sort(rng.uniform(-1.0, 1.0, 12)))


class TestEstimateNa:
    def test_round_trip_coarse(self, beam, particle):
        true_na = 0.46
        coeffs = quartic_coefficients(beam.with_na(true_na), particle)
        target_cfg = SimConfig(particle=particle, dt=1e-5, n_steps=250_000,
                               coefficients=coeffs, seed=404)
        target = simulate(target_cfg)
        assert target.escape is None
        result = estimate_na(
            target, [0.42, 0.44, 0.46, 0.48, 0.50],
            particle=particle, beam_template=beam,
            dt=1e-5, n_steps=60_000, n_reps=4, seed=11, burn_in=2000,
        )
        assert result.argmin_na == pytest.approx(true_na)
        assert np.all(result.valid)
        assert np.all(result.kl >= 0)
        assert result.fc_interval is None  # no target_fc supplied

    def test_recorded_sweep(self, beam, particle):
        # kl and argmin recorded from a sweep that pooled every run's positions
        # before binning; summing per-run integer counts must reproduce them
        # exactly
        import warnings

        coeffs = quartic_coefficients(beam, particle)
        target = simulate(SimConfig(particle=particle, dt=1e-5, n_steps=60_000,
                                    coefficients=coeffs, seed=404))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = estimate_na(
                target, [0.42, 0.44, 0.46, 0.48, 0.50],
                particle=particle, beam_template=beam,
                dt=1e-5, n_steps=20_000, n_reps=4, seed=11, burn_in=1000,
            )
        assert result.kl.tolist() == [
            0.051324392758401546, 0.03434233365164582, 0.027752514564003246,
            0.034538519572565526, 0.05444704937030535,
        ]
        assert result.argmin_na == 0.46

    def test_self_target_gives_zero_kl(self, beam, particle):
        # reproduce the sweep's internal ensemble for one NA and feed its own
        # samples back as the target: divergence must vanish exactly
        from darkfocus.dynamics import pooled_positions

        master_seed, na, n_reps, burn_in = 5, 0.46, 3, 500
        per_na_seed = master_seed  # common-random-numbers seed assignment
        coeffs = quartic_coefficients(beam.with_na(na), particle)
        cfg = SimConfig(particle=particle, dt=1e-5, n_steps=40_000,
                        coefficients=coeffs, seed=per_na_seed)
        seeds = np.random.SeedSequence(per_na_seed).generate_state(n_reps)
        runs = [simulate(cfg.with_seed(int(s))) for s in seeds]
        pooled = pooled_positions(runs, burn_in=burn_in)
        result = estimate_na(
            (pooled[:, 0], pooled[:, 1]), [na],
            particle=particle, beam_template=beam,
            dt=1e-5, n_steps=40_000, n_reps=n_reps, seed=master_seed,
            burn_in=burn_in,
        )
        assert result.kl[0] == 0.0

    @pytest.mark.parametrize("bad,message", [
        (dict(n_reps=0), "n_reps must be an integer >= 1, got 0"),
        (dict(n_reps=True), "n_reps must be an integer >= 1, got True"),
        (dict(n_reps=2.5), "n_reps must be an integer >= 1, got 2.5"),
        (dict(burn_in=-50), "burn_in must be an integer >= 0, got -50"),
        (dict(burn_in=True), "burn_in must be an integer >= 0, got True"),
        (dict(burn_in=2.5), "burn_in must be an integer >= 0, got 2.5"),
        (dict(burn_in=4902), "burn_in=4902 leaves 99 of the 5001 samples of a run"),
        (dict(burn_in=5000), "burn_in=5000 leaves 1 of the 5001 samples of a run"),
        (dict(burn_in=9000), "burn_in=9000 leaves -3999 of the 5001 samples of a run"),
        *((dict(na_values=na_values), "na_values must be a non-empty 1-D sequence")
          for na_values in ([], 0.46, [[0.44, 0.46]], [[0.44], [0.46, 0.48]],
                            [0.44, math.nan], [0.44, math.inf], "0.46", None)),
        *((dict(target_fc=target_fc), "^target_fc must be None or a pair ")
          for target_fc in ([90.0], (90.0, "a"), (90.0, -1.0), 90.0, (90.0, 1.0, 2.0),
                            (math.nan, 1.0), (90.0, math.inf), (True, 1.0), "ab")),
    ], ids=["no_reps", "bool_reps", "fractional_reps", "negative_burn_in", "bool_burn_in",
            "fractional_burn_in", "99_left", "1_left", "past_the_run", "no_na", "scalar_na",
            "2d_na", "ragged_na", "nan_na", "inf_na", "text_na", "none_na", "one_number_fc",
            "text_fc_error", "negative_fc_error", "scalar_fc", "three_number_fc", "nan_fc",
            "inf_fc_error", "bool_fc", "text_fc"])
    def test_bad_sweep_size_rejected(self, beam, particle, bad, message, monkeypatch):
        def no_runs(cfg, *args):
            raise AssertionError("a rejected sweep must not simulate")

        monkeypatch.setattr(dynamics, "_start", no_runs)
        monkeypatch.setattr(dynamics, "_noise_chunks", no_runs)
        target = (np.random.default_rng(0).standard_normal(5000) * 1e-8,
                  np.random.default_rng(1).standard_normal(5000) * 1e-8)
        with pytest.raises(ValueError, match=message):
            estimate_na(target, particle=particle, beam_template=beam, dt=2e-5,
                        n_steps=5000, **{"na_values": [0.46], "n_reps": 2, "burn_in": 10,
                                         **bad})

    def test_bad_na_rejected_before_the_first_run(self, beam, particle, monkeypatch):
        # the last NA reaches n_medium = 1.53: no NA of the sweep is simulated.
        # every run starts with _force_model, whichever name of simulate the
        # sweep calls
        def no_runs(cfg):
            raise AssertionError("a rejected sweep must not simulate")

        monkeypatch.setattr(dynamics, "_force_model", no_runs)
        target = (np.random.default_rng(0).standard_normal(5000) * 1e-8,
                  np.random.default_rng(1).standard_normal(5000) * 1e-8)
        with pytest.raises(ValueError, match="na must satisfy 0 < na < n_medium"):
            estimate_na(target, [0.44, 0.46, 1.53], particle=particle, beam_template=beam,
                        dt=2e-5, n_steps=5000, n_reps=2, burn_in=10)

    def test_burn_in_may_leave_exactly_100_samples(self, beam, particle):
        target = (np.random.default_rng(0).standard_normal(5000) * 1e-8,
                  np.random.default_rng(1).standard_normal(5000) * 1e-8)
        result = estimate_na(target, [0.46], particle=particle, beam_template=beam,
                             dt=2e-5, n_steps=5000, n_reps=2, seed=3, burn_in=4901)
        assert result.valid.tolist() == [True]

    def test_all_escaped_raises(self, beam, particle):
        import dataclasses

        weak = dataclasses.replace(beam, p_total=1e-9)  # trap far below kB T
        target = (np.random.default_rng(0).standard_normal(5000) * 1e-7,
                  np.random.default_rng(1).standard_normal(5000) * 1e-7)
        with pytest.raises(RuntimeError, match="escaped"):
            estimate_na(
                target, [0.44, 0.46],
                particle=particle, beam_template=weak,
                dt=2e-4, n_steps=5000, n_reps=2, seed=3, burn_in=10,
            )

    def test_report_file(self, beam, particle, tmp_path, rng):
        coeffs = quartic_coefficients(beam, particle)
        cfg = SimConfig(particle=particle, dt=1e-5, n_steps=60_000,
                        coefficients=coeffs, seed=77)
        target = simulate(cfg)
        result = estimate_na(
            target, [0.45, 0.46, 0.47],
            particle=particle, beam_template=beam,
            dt=1e-5, n_steps=30_000, n_reps=3, seed=8, burn_in=1000,
            target_fc=(30.0, 10.0),
        )
        path = tmp_path / "sweep.txt"
        result.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "na kl fc fc_err valid"
        assert len([l for l in lines if not l.startswith("#")]) == 4


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_temperature_must_be_finite_and_positive(rng, temperature):
    samples = rng.standard_normal((5000, 3)) * 1e-7
    pdf = histogram_pdf(samples[:, 0])
    for invert, data in ((boltzmann_potential, pdf), (reconstruct_potential, samples)):
        with pytest.raises(ValueError, match="temperature must be finite and positive") as info:
            invert(data, temperature)
        assert not isinstance(info.value, NumericalError)


def watch_runs(monkeypatch):
    """Route dynamics._finish, which finishes every run of a batch, through a
    wrapper that, before each run, records how many trajectories it returned
    earlier are still alive after a full collection: their Trajectory
    objects and the arrays that own their positions.  Returns that list of
    counts, one per run."""
    held, refs = [], []
    finish = dynamics._finish

    def watched(*run):
        gc.collect()
        held.append(sum(r() is not None for r in refs))
        traj = finish(*run)
        owner = traj.positions if traj.positions.base is None else traj.positions.base
        refs.extend((weakref.ref(traj), weakref.ref(owner)))
        return traj

    monkeypatch.setattr(dynamics, "_finish", watched)
    return held


def test_sweep_draws_each_repetitions_noise_once(beam, particle, monkeypatch):
    # 5 NAs x 3 reps: one draw per repetition, which all five NAs' runs share
    draws = []
    noise_chunks = dynamics._noise_chunks

    def counted(cfg):
        draws.append(cfg.seed)
        return noise_chunks(cfg)

    monkeypatch.setattr(dynamics, "_noise_chunks", counted)
    target = (np.random.default_rng(0).standard_normal(5000) * 3e-8,
              np.random.default_rng(1).standard_normal(5000) * 3e-8)
    result = estimate_na(target, [0.42, 0.44, 0.46, 0.48, 0.50], particle=particle,
                         beam_template=beam, dt=1e-5, n_steps=5000, n_reps=3, seed=7,
                         burn_in=500)
    assert result.valid.all()
    assert draws == dynamics.spawn_seeds(7, 3)


@pytest.mark.parametrize("sweep", ["estimate_na", "corner_frequency_of",
                                   "simulate_ensemble"])
def test_sweeps_drop_each_run_before_the_next(beam, particle, monkeypatch, sweep):
    # on one core a sweep reduces every run as it finishes: when it asks for
    # the next run it holds no earlier trajectory and no array of their
    # positions
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if sweep == "estimate_na":
        target = simulate(SimConfig(particle=particle, dt=1e-5, n_steps=20_000,
                                    coefficients=quartic_coefficients(beam, particle), seed=4))
    held = watch_runs(monkeypatch)
    if sweep == "estimate_na":
        result = estimate_na(target, [0.44, 0.46, 0.48], particle=particle,
                             beam_template=beam, dt=1e-5, n_steps=10_000, n_reps=3,
                             seed=5, burn_in=500)
        assert result.valid.all() and np.isfinite(result.fc).all()
        assert len(held) == 9
    else:
        cfg = SimConfig(particle=particle, dt=2e-4, n_steps=20_000, force_model="harmonic",
                        stiffness=1e-6, seed=6)
        if sweep == "corner_frequency_of":
            assert corner_frequency_of(cfg, repetitions=5).n_failed == 0
        else:
            # the ensemble itself keeps no run it has yielded
            assert list(map(len, dynamics.simulate_ensemble(cfg, 5))) == [20_001] * 5
        assert len(held) == 5
    assert held == [0] * len(held)


@pytest.mark.parametrize("sweep", ["estimate_na", "corner_frequency_of",
                                   "simulate_ensemble"])
def test_ensembles_hold_at_most_width_runs(beam, particle, monkeypatch, sweep):
    # on two cores, when a batch starts a run, at most two earlier runs are
    # in memory, on the pool or held by the consumer, however many runs the
    # batch has: with the new one, width + 1.  Each run's positions array is
    # the last item _start returns
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if sweep == "estimate_na":
        target = simulate(SimConfig(particle=particle, dt=1e-5, n_steps=20_000,
                                    coefficients=quartic_coefficients(beam, particle), seed=4))
    held, arrays = [], []
    start = dynamics._start

    def watched(cfg, noise=None):
        gc.collect()
        held.append(sum(a() is not None for a in arrays))
        run = start(cfg, noise)
        arrays.append(weakref.ref(run[-1]))
        return run

    monkeypatch.setattr(dynamics, "_start", watched)
    cfg = SimConfig(particle=particle, dt=2e-4, n_steps=20_000, force_model="harmonic",
                    stiffness=1e-6, seed=6)
    if sweep == "estimate_na":
        result = estimate_na(target, [0.44, 0.45, 0.46, 0.47], particle=particle,
                             beam_template=beam, dt=1e-5, n_steps=10_000, n_reps=4,
                             seed=5, burn_in=500)
        assert result.valid.all() and np.isfinite(result.fc).all()
        assert len(held) == 16
    elif sweep == "corner_frequency_of":
        assert corner_frequency_of(cfg, repetitions=8).n_failed == 0
        assert len(held) == 8
    else:
        # the loop holds each run while the next is started
        for traj in dynamics.simulate_ensemble(cfg, 8):
            assert len(traj) == 20_001
        assert len(held) == 8
    assert max(held) <= 2
