import math

import numpy as np
import pytest
from scipy.constants import c as c_light, k as k_b

from darkfocus import (
    BeamParams,
    ForceGrid,
    ParticleMedium,
    QuarticCoefficients,
    dft_intensity,
    dipole_gradient_force,
    dipole_potential,
    dipole_scattering_force,
    fit_polynomial_force,
    quartic_coefficients,
    quartic_force,
    quartic_potential,
    sample_force_grid,
)

TABLE_COEFFS = QuarticCoefficients(k_z=3.86e-7, k_rho_z=8.81e7, k_rho=2.26e8)


def finite_difference_force(beam, pm, point, h):
    """Independent oracle: central differences of the dipole potential."""
    out = np.empty(3)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        hi = point + step
        lo = point - step
        v_hi = dipole_potential(beam, pm, math.hypot(hi[0], hi[1]), hi[2])
        v_lo = dipole_potential(beam, pm, math.hypot(lo[0], lo[1]), lo[2])
        out[i] = -(v_hi - v_lo) / (2 * h)
    return out


class TestParticleMedium:
    def test_derived_quantities(self, particle):
        assert particle.index_ratio == pytest.approx(1.45 / 1.53)
        m2 = (1.45 / 1.53) ** 2
        assert particle.polarizability_factor == pytest.approx((m2 - 1) / (m2 + 2))
        assert particle.drag == pytest.approx(6 * math.pi * 0.89e-3 * 575e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(radius=0.0),
            dict(n_particle=0.5),
            dict(viscosity=-1.0),
            dict(temperature=0.0),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(radius=575e-9, n_particle=1.45, n_medium=1.53,
                    viscosity=0.89e-3, temperature=293.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ParticleMedium(**base)


class TestDipolePotential:
    def test_zero_at_dark_focus(self, beam, particle):
        assert dipole_potential(beam, particle, 0.0, 0.0) == 0.0

    def test_index_matched_particle_feels_nothing(self, beam):
        matched = ParticleMedium(radius=575e-9, n_particle=1.53, n_medium=1.53,
                                 viscosity=0.89e-3, temperature=293.0)
        rho = np.linspace(0, 2e-6, 12)
        np.testing.assert_array_equal(
            dipole_potential(beam, matched, rho, 0.5e-6), np.zeros_like(rho)
        )

    def test_confining_for_rare_particle(self, beam, particle):
        rho = np.linspace(0, 2e-6, 50)
        z = np.linspace(-4e-6, 4e-6, 50)[:, None]
        v = dipole_potential(beam, particle, rho, z)
        assert np.all(v >= 0)

    def test_power_for_hundred_kbt_barrier(self, beam, particle):
        # invert the transverse barrier height max_rho V(rho, 0) =
        # |kappa| (P/pi w0^2) 4 e^-2 for the power giving 100 kB T
        kappa = abs(
            2 * math.pi * particle.n_medium * particle.radius**3
            * particle.polarizability_factor / c_light
        )
        target = 100 * k_b * 293.0
        p_req = target * math.pi * beam.waist**2 / (kappa * 4 * math.e**-2)
        hot = BeamParams(lambda0=beam.lambda0, n_medium=beam.n_medium,
                         na=beam.na, p_total=p_req)
        rho = np.linspace(0, 3 * beam.waist, 3001)
        barrier = dipole_potential(hot, particle, rho, 0.0).max()
        assert barrier == pytest.approx(target, rel=1e-4)

    def test_sign_flips_with_index_ratio(self, beam, particle):
        dense = ParticleMedium(radius=575e-9, n_particle=1.62, n_medium=1.53,
                               viscosity=0.89e-3, temperature=293.0)
        rho = np.linspace(1e-8, 2e-6, 40)
        v_rare = dipole_potential(beam, particle, rho, 0.3e-6)
        v_dense = dipole_potential(beam, dense, rho, 0.3e-6)
        assert np.all(v_rare > 0)
        assert np.all(v_dense < 0)
        # extrema of |V| sit at the same locations
        assert np.argmax(np.abs(v_rare)) == np.argmax(np.abs(v_dense))


class TestDipoleGradientForce:
    def test_zero_at_origin(self, beam, particle):
        np.testing.assert_array_equal(
            dipole_gradient_force(beam, particle, 0.0, 0.0, 0.0), np.zeros(3)
        )

    def test_matches_finite_differences(self, beam, particle, rng):
        h = 1e-4 * beam.waist
        pts = np.column_stack([
            rng.uniform(-0.6 * beam.waist, 0.6 * beam.waist, 25),
            rng.uniform(-0.6 * beam.waist, 0.6 * beam.waist, 25),
            rng.uniform(-0.6 * beam.rayleigh_range, 0.6 * beam.rayleigh_range, 25),
        ])
        for pt in pts:
            f = dipole_gradient_force(beam, particle, *pt)
            f_fd = finite_difference_force(beam, particle, pt, h)
            assert np.linalg.norm(f - f_fd) <= 1e-6 * np.linalg.norm(f)

    def test_axial_antisymmetry(self, beam, particle):
        z = np.linspace(1e-8, 2 * beam.rayleigh_range, 15)
        f_up = dipole_gradient_force(beam, particle, 0.0, 0.0, z)
        f_dn = dipole_gradient_force(beam, particle, 0.0, 0.0, -z)
        np.testing.assert_allclose(f_up[:, 2], -f_dn[:, 2], rtol=1e-12)

    def test_curl_free(self, beam, particle, rng):
        # numerical curl, normalized by |F| per beam waist, vanishes
        h = 2e-5 * beam.waist
        for _ in range(12):
            p = np.array([
                rng.uniform(0.05, 0.5) * beam.waist * rng.choice([-1, 1]),
                rng.uniform(0.05, 0.5) * beam.waist * rng.choice([-1, 1]),
                rng.uniform(0.05, 0.5) * beam.rayleigh_range * rng.choice([-1, 1]),
            ])

            def f(q):
                return dipole_gradient_force(beam, particle, *q)

            e = np.eye(3) * h
            jac = np.column_stack([(f(p + e[i]) - f(p - e[i])) / (2 * h) for i in range(3)])
            curl = np.array([
                jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1],
            ])
            assert np.linalg.norm(curl) <= 1e-8 * np.linalg.norm(f(p)) / beam.waist


class TestDipoleScatteringForce:
    def test_zero_at_origin(self, beam, particle):
        np.testing.assert_array_equal(
            dipole_scattering_force(beam, particle, 0.0, 0.0, 0.0), np.zeros(3)
        )

    def test_always_along_positive_z(self, beam, particle, rng):
        pts = rng.uniform(-1.5e-6, 1.5e-6, size=(50, 3))
        f = dipole_scattering_force(beam, particle, pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.all(f[:, 2] >= 0)
        np.testing.assert_array_equal(f[:, :2], np.zeros((50, 2)))

    def test_scattering_to_gradient_ratio_scales_with_r3(self, beam, particle):
        point = (0.2e-6, 0.1e-6, 0.4e-6)

        def ratio(radius):
            pm = ParticleMedium(radius=radius, n_particle=1.45, n_medium=1.53,
                                viscosity=0.89e-3, temperature=293.0)
            fs = dipole_scattering_force(beam, pm, *point)[2]
            fg = np.linalg.norm(dipole_gradient_force(beam, pm, *point))
            return fs / fg

        r1, r2 = 100e-9, 200e-9
        assert ratio(r2) / ratio(r1) == pytest.approx((r2 / r1) ** 3, rel=1e-9)


class TestQuarticCoefficients:
    def test_shape_factors_at_experimental_na(self, beam, particle):
        # direct evaluation of the expansion factors for p = 1
        zr = beam.rayleigh_range
        w0 = beam.waist
        mu = 4.0 / zr**2
        eta = 16.0 / (w0**2 * zr**2)
        chi = 4.0 / w0**4
        assert mu == pytest.approx(1.241e12, rel=1e-3)
        assert eta == pytest.approx(1.704e25, rel=1e-3)
        assert chi == pytest.approx(4.714e25, rel=1e-3)
        qc = quartic_coefficients(beam, particle)
        v0 = abs(
            2 * math.pi * particle.n_medium * particle.radius**3
            * particle.polarizability_factor / c_light
        ) * beam.p_total / (math.pi * w0**2)
        assert qc.k_z == pytest.approx(2 * v0 * mu, rel=1e-12)
        assert qc.k_rho_z == pytest.approx(v0 * eta, rel=1e-12)
        assert qc.k_rho == pytest.approx(4 * v0 * chi, rel=1e-12)

    def test_matches_taylor_fit_of_dipole_potential(self, beam, particle):
        # shrinking-stencil 4th-order fit of the dipole potential is the
        # independent oracle for the coefficient mapping
        qc = quartic_coefficients(beam, particle)
        for frac, tol in [(0.05, 0.01), (0.01, 5e-4)]:
            rho = np.linspace(0, frac * beam.waist, 9)
            z = np.linspace(-frac * beam.rayleigh_range, frac * beam.rayleigh_range, 9)
            rr, zz = np.meshgrid(rho, z, indexing="ij")
            v = dipole_potential(beam, particle, rr, zz).ravel()
            a = np.column_stack([
                0.5 * zz.ravel() ** 2,
                -(rr.ravel() ** 2) * zz.ravel() ** 2,
                0.25 * rr.ravel() ** 4,
                zz.ravel() ** 4,
                np.ones(rr.size),
            ])
            s = np.linalg.norm(a, axis=0)
            coef, *_ = np.linalg.lstsq(a / s, v, rcond=None)
            coef = coef / s
            assert coef[0] == pytest.approx(qc.k_z, rel=tol)
            assert coef[1] == pytest.approx(qc.k_rho_z, rel=tol)
            assert coef[2] == pytest.approx(qc.k_rho, rel=tol)

    def test_anharmonic_to_harmonic_ratio(self, beam, particle):
        qc = quartic_coefficients(beam, particle)
        expected = (beam.p_index + 1) / beam.waist**2
        assert qc.k_rho_z / qc.k_z == pytest.approx(expected, rel=1e-12)
        # independent of power and particle
        other = ParticleMedium(radius=200e-9, n_particle=1.4, n_medium=1.53,
                               viscosity=1e-3, temperature=300.0)
        beam2 = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=1.7)
        qc2 = quartic_coefficients(beam2, other)
        assert qc2.k_rho_z / qc2.k_z == pytest.approx(expected, rel=1e-12)

    def test_linear_in_power(self, beam, particle):
        import dataclasses

        qc1 = quartic_coefficients(beam, particle)
        qc2 = quartic_coefficients(dataclasses.replace(beam, p_total=2 * beam.p_total),
                                   particle)
        assert qc2.k_z == pytest.approx(2 * qc1.k_z)
        assert qc2.k_rho_z == pytest.approx(2 * qc1.k_rho_z)
        assert qc2.k_rho == pytest.approx(2 * qc1.k_rho)

    def test_rejects_p0_and_warns_for_dense_particle(self, beam, particle):
        flat = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=0.05,
                          p_index=0)
        with pytest.raises(ValueError):
            quartic_coefficients(flat, particle)
        dense = ParticleMedium(radius=575e-9, n_particle=1.6, n_medium=1.53,
                               viscosity=0.89e-3, temperature=293.0)
        with pytest.warns(UserWarning):
            quartic_coefficients(beam, dense)


class TestQuarticPotentialAndForce:
    def test_on_axis_harmonic(self):
        z = np.linspace(-3e-7, 3e-7, 9)
        np.testing.assert_allclose(
            quartic_potential(TABLE_COEFFS, 0.0, z), 0.5 * 3.86e-7 * z**2, rtol=1e-12
        )

    def test_transverse_quartic(self):
        rho = np.linspace(0, 3e-7, 9)
        np.testing.assert_allclose(
            quartic_potential(TABLE_COEFFS, rho, 0.0), 0.25 * 2.26e8 * rho**4,
            rtol=1e-12,
        )

    def test_table_values_at_200nm(self):
        # independent evaluation: the three monomials summed separately
        rho = z = 200e-9
        expected = (
            0.5 * 3.86e-7 * z**2
            - 8.81e7 * rho**2 * z**2
            + 0.25 * 2.26e8 * rho**4
        )
        assert quartic_potential(TABLE_COEFFS, rho, z) == pytest.approx(expected, rel=1e-14)

    def test_force_zero_at_origin(self):
        np.testing.assert_array_equal(
            quartic_force(TABLE_COEFFS, 0.0, 0.0, 0.0), np.zeros(3)
        )

    def test_force_matches_finite_differences(self):
        h = 1e-12
        stencil = np.linspace(-2e-7, 2e-7, 5)
        for x in stencil:
            for y in stencil:
                for z in stencil:
                    f = quartic_force(TABLE_COEFFS, x, y, z)
                    fd = np.empty(3)
                    for i, e in enumerate(np.eye(3)):
                        vp = quartic_potential(
                            TABLE_COEFFS, math.hypot(*(np.array([x, y]) + h * e[:2])),
                            z + h * e[2],
                        )
                        vm = quartic_potential(
                            TABLE_COEFFS, math.hypot(*(np.array([x, y]) - h * e[:2])),
                            z - h * e[2],
                        )
                        fd[i] = -(vp - vm) / (2 * h)
                    scale = max(np.linalg.norm(f), 1e-25)
                    assert np.linalg.norm(f - fd) <= 1e-4 * scale

    def test_on_axis_force_is_harmonic(self):
        z = np.linspace(-3e-7, 3e-7, 7)
        f = quartic_force(TABLE_COEFFS, 0.0, 0.0, z)
        np.testing.assert_allclose(f[:, 2], -3.86e-7 * z, rtol=1e-12)


class TestForceFitting:
    def test_self_consistency_round_trip(self, beam):
        grid = sample_force_grid(
            lambda x, y, z: quartic_force(TABLE_COEFFS, x, y, z),
            (0.2 * beam.waist, 0.2 * beam.waist, 0.2 * beam.rayleigh_range),
            11,
            provenance="quartic-model",
        )
        coeffs, report = fit_polynomial_force(grid)
        assert coeffs.k_z == pytest.approx(TABLE_COEFFS.k_z, rel=1e-10)
        assert coeffs.k_rho_z == pytest.approx(TABLE_COEFFS.k_rho_z, rel=1e-10)
        assert coeffs.k_rho == pytest.approx(TABLE_COEFFS.k_rho, rel=1e-10)
        assert report.rmse_avg < 1e-12

    def test_rmse_report_arithmetic(self, beam, particle):
        grid = sample_force_grid(
            lambda x, y, z: dipole_gradient_force(beam, particle, x, y, z),
            (0.2 * beam.waist, 0.2 * beam.waist, 0.2 * beam.rayleigh_range), 11,
        )
        _, report = fit_polynomial_force(grid)
        assert report.rmse_avg == pytest.approx(
            (report.rmse_x + report.rmse_y + report.rmse_z) / 3
        )
        assert report.n_samples == 11**3

    def test_rmse_invariant_under_force_rescaling(self, beam, particle):
        grid = sample_force_grid(
            lambda x, y, z: dipole_gradient_force(beam, particle, x, y, z),
            (0.2 * beam.waist, 0.2 * beam.waist, 0.2 * beam.rayleigh_range), 11,
        )
        scaled = ForceGrid(positions=grid.positions, forces=37.0 * grid.forces,
                           provenance=grid.provenance)
        _, r1 = fit_polynomial_force(grid)
        _, r2 = fit_polynomial_force(scaled)
        assert r2.rmse_x == pytest.approx(r1.rmse_x, rel=1e-9)
        assert r2.rmse_avg == pytest.approx(r1.rmse_avg, rel=1e-9)

    def test_degenerate_geometry_rejected(self):
        z = np.linspace(-1e-6, 1e-6, 125)
        positions = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
        forces = quartic_force(TABLE_COEFFS, positions[:, 0], positions[:, 1],
                               positions[:, 2])
        grid = ForceGrid(positions=positions, forces=forces, provenance="axis-only")
        with pytest.raises(np.linalg.LinAlgError):
            fit_polynomial_force(grid)

    def test_too_few_samples_rejected(self):
        pos = np.zeros((10, 3))
        grid = ForceGrid(positions=pos, forces=np.zeros((10, 3)), provenance="tiny")
        with pytest.raises(ValueError, match="125"):
            fit_polynomial_force(grid)

    def test_grid_file_round_trip(self, beam, particle, tmp_path):
        grid = sample_force_grid(
            lambda x, y, z: dipole_gradient_force(beam, particle, x, y, z),
            (1e-7, 1e-7, 3e-7), 6,
        )
        path = tmp_path / "forces.txt"
        grid.save(path)
        loaded = ForceGrid.load(path)
        assert loaded.provenance == grid.provenance
        np.testing.assert_array_equal(loaded.positions, grid.positions)
        np.testing.assert_array_equal(loaded.forces, grid.forces)

    def test_grid_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# source: external\nx y z fx fy fz\n")
        with pytest.raises(ValueError, match="empty.txt"):
            ForceGrid.load(path)
