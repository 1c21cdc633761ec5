import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import curve_fit

from darkfocus import (
    BeamParams,
    CylindricalPoint,
    GridSpec,
    bottle_geometry,
    dft_intensity,
    gaussian_intensity,
    lg_mode,
    render_intensity_grid,
)
from darkfocus.beam import load_intensity_grid_values


def transverse_norm(params, ell, p, z):
    """Quadrature of |u|^2 over the transverse plane (independent oracle)."""
    val, _ = quad(
        lambda r: np.abs(lg_mode(params, ell, p, r, z)) ** 2 * 2 * math.pi * r,
        0.0,
        12 * params.waist * math.sqrt(1 + (z / params.rayleigh_range) ** 2),
        epsabs=0.0,
        epsrel=1e-10,
        limit=300,
    )
    return val


class TestBeamParams:
    def test_derived_quantities(self, beam):
        assert beam.waist == pytest.approx(780e-9 / (math.pi * 0.46))
        assert beam.rayleigh_range == pytest.approx(1.53 * 780e-9 / (math.pi * 0.46**2))
        assert beam.focal_intensity == pytest.approx(2 * 0.05 / (math.pi * beam.waist**2))
        assert beam.wavenumber == pytest.approx(2 * math.pi * 1.53 / 780e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda0=-1e-6),
            dict(n_medium=0.9),
            dict(na=0.0),
            dict(na=1.6),
            dict(p_total=0.0),
            dict(p_index=-1),
            dict(theta_rel=math.nan),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05)
        base.update(kwargs)
        with pytest.raises(ValueError):
            BeamParams(**base)

    def test_cylindrical_point_validation(self):
        CylindricalPoint(rho=1e-6, phi=0.3, z=-2e-6)
        with pytest.raises(ValueError):
            CylindricalPoint(rho=-1e-9, phi=0.0, z=0.0)
        with pytest.raises(ValueError):
            CylindricalPoint(rho=math.inf, phi=0.0, z=0.0)


class TestLgMode:
    def test_origin_amplitude_p1(self, beam):
        # L^0_1(0) = 1, so the focus amplitude is the Gaussian one
        u = lg_mode(beam, 0, 1, 0.0, 0.0)
        assert abs(u) == pytest.approx(math.sqrt(2 / (math.pi * beam.waist**2)))

    def test_laguerre_sign_flip_at_two(self, beam):
        # at 2 rho^2/w0^2 = 2 the polynomial is L^0_1(2) = -1
        rho = beam.waist  # 2 rho^2 / w0^2 = 2
        u = lg_mode(beam, 0, 1, rho, 0.0)
        expected = -math.sqrt(2 / (math.pi * beam.waist**2)) * math.exp(-1.0)
        assert u.real == pytest.approx(expected, rel=1e-12)
        assert u.imag == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("ell,p", [(0, 0), (0, 1), (0, 2), (1, 0)])
    @pytest.mark.parametrize("z_frac", [0.0, 1.0])
    def test_normalization(self, beam, ell, p, z_frac):
        val = transverse_norm(beam, ell, p, z_frac * beam.rayleigh_range)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_azimuthal_phase_only(self, beam):
        u0 = lg_mode(beam, 1, 0, 0.3e-6, 0.5e-6, phi=0.0)
        u1 = lg_mode(beam, 1, 0, 0.3e-6, 0.5e-6, phi=1.2)
        assert abs(u0) == pytest.approx(abs(u1), rel=1e-12)
        assert np.angle(u1 / u0) == pytest.approx(1.2, rel=1e-9)

    def test_rejects_bad_inputs(self, beam):
        with pytest.raises(ValueError):
            lg_mode(beam, 0, -1, 0.0, 0.0)
        with pytest.raises(ValueError):
            lg_mode(beam, 0, 1, -1e-9, 0.0)
        with pytest.raises(ValueError):
            lg_mode(beam, 0, 1, 0.0, math.nan)


class TestGaussianIntensity:
    def test_focal_value_is_i0(self, beam):
        assert gaussian_intensity(beam, 0.0, 0.0) == pytest.approx(beam.focal_intensity)

    def test_waist_definition(self, beam):
        expected = beam.focal_intensity * math.exp(-2.0)
        assert gaussian_intensity(beam, beam.waist, 0.0) == pytest.approx(expected)

    def test_power_conservation_downstream(self, beam):
        z = 3 * beam.rayleigh_range
        val, _ = quad(
            lambda r: gaussian_intensity(beam, r, z) * 2 * math.pi * r,
            0.0, 40 * beam.waist, epsabs=0.0, epsrel=1e-10, limit=300,
        )
        assert val == pytest.approx(beam.p_total, rel=1e-6)


class TestDftIntensity:
    def test_dark_focus_exactly_zero(self, beam):
        assert dft_intensity(beam, 0.0, 0.0) == 0.0

    def test_dark_focus_zero_for_higher_p(self):
        for p in (1, 2, 3, 4, 5):
            b = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                           p_index=p)
            assert dft_intensity(b, 0.0, 0.0) == 0.0

    def test_on_axis_barrier_maximum(self, beam):
        # analytic maximization of t^2/(1+t^2)^2 puts the barrier at z_R with
        # half the Gaussian focal intensity
        val = dft_intensity(beam, 0.0, beam.rayleigh_range)
        assert val == pytest.approx(beam.p_total / (math.pi * beam.waist**2), rel=1e-12)
        zs = np.linspace(0.2, 3, 500) * beam.rayleigh_range
        assert val >= dft_intensity(beam, 0.0, zs).max() - 1e-12 * val

    def test_focal_plane_closed_form(self, beam):
        rho = np.linspace(0, 2.5 * beam.waist, 401)
        u = 2 * rho**2 / beam.waist**2
        expected = beam.p_total / (math.pi * beam.waist**2) * u**2 * np.exp(-u)
        np.testing.assert_allclose(dft_intensity(beam, rho, 0.0), expected, rtol=1e-11)
        peak = rho[np.argmax(dft_intensity(beam, rho, 0.0))]
        assert 2 * peak**2 / beam.waist**2 == pytest.approx(2.0, abs=0.05)

    def test_superposition_route_agrees(self, beam):
        # same intensity from the explicit two-mode interference
        rho = np.linspace(0, 2 * beam.waist, 7)
        z = np.linspace(-2, 2, 7)[:, None] * beam.rayleigh_range
        u0 = lg_mode(beam, 0, 0, rho, z)
        u1 = lg_mode(beam, 0, beam.p_index, rho, z)
        direct = beam.p_total * np.abs(u0 + np.exp(1j * beam.theta_rel) * u1) ** 2 / 2
        np.testing.assert_allclose(dft_intensity(beam, rho, z), direct,
                                   rtol=1e-9, atol=1e-3)

    def test_axial_mirror_symmetry(self, beam):
        rho = np.linspace(0, 2 * beam.waist, 11)
        z = np.linspace(1e-8, 2 * beam.rayleigh_range, 11)[:, None]
        np.testing.assert_array_equal(
            dft_intensity(beam, rho, z), dft_intensity(beam, rho, -z)
        )

    def test_theta_sweep(self, beam):
        bright = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                            theta_rel=0.0)
        rho = np.linspace(0, 3 * beam.waist, 400)
        prof = gaussian_like = dft_intensity(bright, rho, 0.0)
        assert np.argmax(prof) == 0  # on-axis maximum for theta = 0
        assert dft_intensity(beam, 0.0, 0.0) == 0.0  # dark for theta = pi
        mid = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                         theta_rel=math.pi / 2)
        assert 0.0 < dft_intensity(mid, 0.0, 0.0) < dft_intensity(bright, 0.0, 0.0)

    def test_focal_profile_fit_recovers_waist(self, beam, rng):
        # fitting the closed-form focal profile to a noisy rendering recovers
        # the generating waist well within half a percent
        x = np.linspace(-3 * beam.waist, 3 * beam.waist, 301)
        data = dft_intensity(beam, np.abs(x), 0.0)
        data = data * (1.0 + 0.01 * rng.standard_normal(data.shape))

        def model(x, w, amp):
            u = 2 * x**2 / w**2
            return amp * u**2 * np.exp(-u)

        popt, _ = curve_fit(model, x, data, p0=(0.8 * beam.waist, data.max() * math.e**2 / 4))
        assert popt[0] == pytest.approx(beam.waist, rel=5e-3)


class TestBottleGeometry:
    def test_closed_form_values(self, beam):
        w, h = bottle_geometry(beam)
        assert w == pytest.approx(1.079e-6, abs=1e-9)
        assert h == pytest.approx(3.590e-6, abs=1e-9)

    def test_search_matches_closed_form(self, beam):
        w_cf, h_cf = bottle_geometry(beam)
        w_s, h_s = bottle_geometry(beam, method="search")
        assert w_s == pytest.approx(w_cf, rel=1e-6)
        assert h_s == pytest.approx(h_cf, rel=1e-6)

    def test_trap_size_range_over_na(self):
        for na, lo, hi in [(0.46, 1.01e-6, 1.08e-6), (0.49, 1.01e-6, 1.08e-6)]:
            b = BeamParams(lambda0=780e-9, n_medium=1.53, na=na, p_total=0.05)
            w, _ = bottle_geometry(b)
            assert lo <= w <= hi
            assert 1.0e-6 <= w <= 1.1e-6

    def test_na_scaling_laws(self, beam):
        doubled = beam.with_na(2 * beam.na)
        w1, h1 = bottle_geometry(beam)
        w2, h2 = bottle_geometry(doubled)
        assert w2 == pytest.approx(w1 / 2)
        assert h2 == pytest.approx(h1 / 4)

    def test_higher_radial_order_search(self):
        b = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05, p_index=2)
        w, h = bottle_geometry(b)
        assert 0 < w < 4 * b.waist * 2
        assert 0 < h < 6 * b.rayleigh_range * 2

    def test_no_bottle_cases_rejected(self, beam):
        flat = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                          p_index=0)
        with pytest.raises(ValueError):
            bottle_geometry(flat)
        bright = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                            theta_rel=0.0)
        with pytest.raises(RuntimeError):
            bottle_geometry(bright, method="search")


class TestIntensityGrid:
    def test_center_of_small_grid_is_dark(self, beam):
        spec = GridSpec.centered(beam.waist, beam.rayleigh_range, 3, 3)
        grid = render_intensity_grid(beam, spec)
        assert grid.values[1, 1] == 0.0

    def test_axial_symmetry_of_grid(self, beam):
        spec = GridSpec.centered(2 * beam.waist, 2 * beam.rayleigh_range, 21, 21)
        grid = render_intensity_grid(beam, spec)
        np.testing.assert_allclose(grid.values, grid.values[:, ::-1], rtol=1e-12)
        np.testing.assert_allclose(grid.values, grid.values[::-1, :], rtol=1e-12)

    def test_axial_maximum_near_rayleigh_range(self, beam):
        spec = GridSpec.centered(beam.waist, 2 * beam.rayleigh_range, 3, 201,
                                 transverse_kind="rho")
        grid = render_intensity_grid(beam, spec)
        on_axis = grid.values[0, :]
        z = spec.z_values
        peak_z = abs(z[np.argmax(on_axis)])
        assert abs(peak_z - beam.rayleigh_range) <= spec.z_step

    def test_grid_size_cap(self, beam):
        spec = GridSpec.centered(beam.waist, beam.rayleigh_range, 20001, 20001)
        with pytest.raises(ValueError, match="cap"):
            render_intensity_grid(beam, spec)

    def test_export_import_round_trip(self, beam, tmp_path):
        spec = GridSpec.centered(beam.waist, beam.rayleigh_range, 7, 9)
        grid = render_intensity_grid(beam, spec)
        path = tmp_path / "grid.txt"
        grid.save(path)
        spec2, values = load_intensity_grid_values(path)
        assert spec2 == spec
        np.testing.assert_array_equal(values, grid.values)
