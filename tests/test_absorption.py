import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from darkfocus import (
    AbsorptionScenario,
    BeamParams,
    absorption_ratio,
    absorption_ratio_sweep,
    dft_intensity,
    effective_cross_section,
    gaussian_intensity,
    trap_comparison,
)
from darkfocus.absorption import save_absorption_sweep


@pytest.fixture(scope="module")
def beams():
    bottle = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=1.0)
    gauss = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=1.0,
                       p_index=0, theta_rel=0.0)
    return bottle, gauss


@pytest.fixture(scope="module")
def scenario(beams, request):
    particle = request.getfixturevalue("particle")
    return AbsorptionScenario.for_particle(*beams, particle)


class TestCrossSection:
    def test_experimental_value(self):
        a_p = effective_cross_section(575e-9, 780e-9)
        assert a_p == pytest.approx(1.02e-12, rel=0.005)

    def test_effective_radius(self, scenario):
        assert scenario.effective_radius == pytest.approx(285e-9, rel=0.005)
        assert scenario.effective_radius == pytest.approx(
            math.sqrt(scenario.cross_section / (4 * math.pi))
        )

    def test_validation(self, beams):
        with pytest.raises(ValueError):
            effective_cross_section(-1e-9, 780e-9)
        mismatched = dataclasses.replace(beams[1], na=0.52)
        with pytest.raises(ValueError, match="share"):
            AbsorptionScenario(beams[0], mismatched, 1e-12)
        with pytest.raises(ValueError, match="share"):
            trap_comparison(beams[0], mismatched)


class TestAbsorptionRatio:
    def test_equal_power_equal_waist(self, scenario):
        assert absorption_ratio(scenario) == pytest.approx(0.045, abs=0.003)

    def test_closed_form_oracle(self, scenario):
        # analytic disk integrals of the focal profiles:
        # Gaussian: 1 - e^-U; bottle: (2 - e^-U (U^2+2U+2)) / 2, U = 2 R^2/w0^2
        u = 2 * scenario.effective_radius**2 / scenario.bottle.waist**2
        bottle = 0.5 * (2 - math.exp(-u) * (u**2 + 2 * u + 2))
        gauss = 1 - math.exp(-u)
        assert absorption_ratio(scenario) == pytest.approx(bottle / gauss, rel=1e-8)

    def test_matched_depth_value(self, beams, particle):
        bottle, gauss = beams
        boosted = dataclasses.replace(bottle, p_total=math.e**2 / 2)
        sc = AbsorptionScenario.for_particle(boosted, gauss, particle)
        assert absorption_ratio(sc) == pytest.approx(0.17, abs=0.01)

    def test_power_rescale_invariance(self, beams, particle):
        bottle, gauss = beams
        doubled = AbsorptionScenario.for_particle(
            dataclasses.replace(bottle, p_total=7.0),
            dataclasses.replace(gauss, p_total=7.0),
            particle,
        )
        base = AbsorptionScenario.for_particle(bottle, gauss, particle)
        assert absorption_ratio(doubled) == pytest.approx(absorption_ratio(base),
                                                          rel=1e-10)

    def test_independent_of_particle_index(self, beams):
        # polarizability magnitude cancels in the ratio: only the
        # cross-section (geometry) enters
        from darkfocus import ParticleMedium

        bottle, gauss = beams
        a = AbsorptionScenario.for_particle(
            bottle, gauss,
            ParticleMedium(radius=575e-9, n_particle=1.45, n_medium=1.53,
                           viscosity=1e-3, temperature=293.0),
        )
        b = AbsorptionScenario.for_particle(
            bottle, gauss,
            ParticleMedium(radius=575e-9, n_particle=1.33, n_medium=1.53,
                           viscosity=1e-3, temperature=293.0),
        )
        assert absorption_ratio(a) == absorption_ratio(b)


class TestAbsorptionSweep:
    def test_vanishes_at_small_radius(self, scenario):
        table = absorption_ratio_sweep(scenario, [1e-9, 5e-9])
        assert np.all(table[:, 1] < 1e-3)

    def test_monotone_increasing(self, scenario):
        r = np.linspace(50e-9, 500e-9, 16)
        table = absorption_ratio_sweep(scenario, r)
        assert np.all(np.diff(table[:, 1]) > 0)

    def test_reproduces_point_value(self, scenario):
        table = absorption_ratio_sweep(scenario, [scenario.effective_radius])
        assert table[0, 1] == pytest.approx(0.045, abs=0.003)

    def test_export(self, scenario, tmp_path):
        table = absorption_ratio_sweep(scenario, [100e-9, 200e-9])
        path = tmp_path / "sweep.txt"
        save_absorption_sweep(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r_eff eta_abs"
        assert len(lines) == 3


class TestTrapComparison:
    def test_equal_power_constants(self, beams):
        tc = trap_comparison(*beams)
        assert tc.transverse_depth_ratio == pytest.approx(2 / math.e**2, abs=1e-6)
        assert tc.matched_depth_power_ratio == pytest.approx(math.e**2 / 2, abs=0.01)
        assert tc.longitudinal_stiffness_ratio == pytest.approx(2.0, abs=1e-3)
        assert tc.longitudinal_depth_ratio == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("na", [0.40, 0.46, 0.52, 0.58])
    def test_mode_shape_constants_na_independent(self, na):
        bottle = BeamParams(lambda0=780e-9, n_medium=1.53, na=na, p_total=1.0)
        gauss = dataclasses.replace(bottle, p_index=0, theta_rel=0.0)
        tc = trap_comparison(bottle, gauss)
        assert tc.transverse_depth_ratio == pytest.approx(2 / math.e**2, rel=1e-5)
        assert tc.longitudinal_stiffness_ratio == pytest.approx(2.0, abs=1e-3)

    def test_matched_power_consistency(self, beams, particle):
        # eta at matched depth equals the matched power ratio times the
        # equal-power eta
        bottle, gauss = beams
        tc = trap_comparison(bottle, gauss)
        eta_equal = absorption_ratio(AbsorptionScenario.for_particle(bottle, gauss,
                                                                     particle))
        boosted = dataclasses.replace(bottle,
                                      p_total=tc.matched_depth_power_ratio)
        eta_matched = absorption_ratio(
            AbsorptionScenario.for_particle(boosted, gauss, particle)
        )
        assert eta_matched == pytest.approx(tc.matched_depth_power_ratio * eta_equal,
                                            rel=1e-9)
        assert eta_matched == pytest.approx(0.165, abs=0.005)

    def test_report_file(self, beams, tmp_path):
        tc = trap_comparison(*beams)
        path = tmp_path / "comparison.txt"
        tc.save(path)
        text = path.read_text()
        for key in ("transverse_depth_ratio=", "matched_depth_power_ratio=",
                    "longitudinal_stiffness_ratio=", "longitudinal_depth_ratio="):
            assert key in text

    def test_intensity_normalization_against_quadrature(self, beams):
        # the unit-power profiles used in the ratio really carry unit power
        bottle, gauss = beams
        for profile in (
            lambda r: dft_intensity(bottle.with_unit_power(), r, 0.0),
            lambda r: gaussian_intensity(gauss.with_unit_power(), r, 0.0),
        ):
            total, _ = quad(lambda r: profile(r) * 2 * math.pi * r, 0, 20e-6,
                            epsabs=0.0, epsrel=1e-10, limit=200)
            assert total == pytest.approx(1.0, rel=1e-8)
