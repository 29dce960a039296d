import math
import sys

import numpy as np
import pytest

from mfswipt import (
    ArrayConfig,
    FresnelRegionWarning,
    PolarLocation,
    aod_to_spatial_angle,
    channel_gain,
    element_distance,
    element_distance_taylor,
    far_steering,
    fresnel_min_distance,
    near_steering,
    rayleigh_distance,
)
from mfswipt.geometry import warn_if_outside_fresnel


class TestRayleighDistance:
    def test_half_meter_aperture_at_30ghz(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9, aperture=0.5)
        assert rayleigh_distance(cfg) == 50.0

    def test_vanishes_for_long_wavelengths(self):
        base = ArrayConfig(n_antennas=64, carrier_freq=30e9, aperture=0.5)
        low = ArrayConfig(n_antennas=64, carrier_freq=30e3, aperture=0.5)
        assert rayleigh_distance(low) == pytest.approx(rayleigh_distance(base) * 1e-6)
        assert rayleigh_distance(low) < 1e-4

    def test_default_aperture_convention(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9)
        assert cfg.d == pytest.approx(0.005)
        assert cfg.D == pytest.approx(255 * 0.005)
        assert rayleigh_distance(cfg) == pytest.approx(2 * 1.275**2 / 0.01)
        assert rayleigh_distance(cfg) == pytest.approx(325.125)


class TestFresnelMinDistance:
    def test_reference_value(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9, aperture=0.5)
        assert fresnel_min_distance(cfg) == pytest.approx(1.768, abs=1e-3)

    def test_branch_crossover_is_continuous(self):
        # branches sqrt(D^3/lam)/2 and 1.2 D meet at D = 5.76 lam
        lam = 0.01
        d_cross = (2.4) ** 2 * lam
        cfg = ArrayConfig(n_antennas=8, carrier_freq=3e8 / lam, aperture=d_cross)
        assert 0.5 * math.sqrt(d_cross**3 / lam) == pytest.approx(1.2 * d_cross)
        assert fresnel_min_distance(cfg) == pytest.approx(1.2 * d_cross)

    def test_max_of_both_branches(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9)
        lam, d_ap = cfg.wavelength, cfg.D
        expected = max(0.5 * math.sqrt(d_ap**3 / lam), 1.2 * d_ap)
        assert fresnel_min_distance(cfg) == expected


class TestElementDistance:
    def test_center_element_sees_exact_range(self):
        cfg = ArrayConfig(n_antennas=255, carrier_freq=30e9)  # odd N: delta=0 exists
        loc = PolarLocation(0.0, 12.0)
        center = (cfg.n_antennas - 1) // 2
        assert element_distance(cfg, loc, center) == pytest.approx(12.0, abs=0.0)

    def test_collinear_limit_matches_expansion(self):
        cfg = ArrayConfig(n_antennas=64, carrier_freq=30e9)
        loc = PolarLocation(1.0, 500.0)  # r much larger than the aperture
        n = np.arange(cfg.n_antennas)
        exact = element_distance(cfg, loc, n)
        taylor = element_distance_taylor(cfg, loc, n)
        assert np.max(np.abs(exact - taylor)) < 1e-9

    def test_direct_formula_value(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9)
        loc = PolarLocation(0.05, 4.9)
        delta0 = (2 * 0 - 256 + 1) / 2.0
        expected = math.sqrt(4.9**2 + (delta0 * 0.005) ** 2 - 2 * 4.9 * 0.05 * delta0 * 0.005)
        assert element_distance(cfg, loc, 0) == pytest.approx(expected, rel=1e-15)

    def test_index_out_of_range(self):
        cfg = ArrayConfig(n_antennas=16, carrier_freq=30e9)
        with pytest.raises(ValueError):
            element_distance(cfg, PolarLocation(0.0, 5.0), 16)


class TestElementDistanceTaylor:
    def test_quadratic_term_vanishes_at_endfire(self):
        cfg = ArrayConfig(n_antennas=64, carrier_freq=30e9)
        n = np.arange(cfg.n_antennas)
        delta = (2 * n - 64 + 1) / 2.0
        for theta in (1.0, -1.0):
            loc = PolarLocation(theta, 9.0)
            expected = 9.0 - delta * cfg.d * theta
            assert np.allclose(element_distance_taylor(cfg, loc, n), expected, atol=0)

    def test_center_element_exact(self):
        cfg = ArrayConfig(n_antennas=255, carrier_freq=30e9)
        center = (cfg.n_antennas - 1) // 2
        assert element_distance_taylor(cfg, PolarLocation(0.3, 7.7), center) == 7.7

    def test_accuracy_inside_fresnel_region(self):
        # the third-order residual theta (1 - theta^2) (delta d)^3 / (2 r^2)
        # peaks at the Fresnel edge near theta = 1/sqrt(3); the scan bounds
        # below are frozen from this oracle
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9)
        rmin = fresnel_min_distance(cfg)
        n = np.arange(cfg.n_antennas)

        def worst_over(r_lo: float) -> float:
            worst = 0.0
            for theta in np.linspace(-0.95, 0.95, 11):
                for r in np.geomspace(r_lo, 100 * rmin, 11):
                    loc = PolarLocation(float(theta), float(r))
                    err = np.max(
                        np.abs(
                            element_distance(cfg, loc, n) - element_distance_taylor(cfg, loc, n)
                        )
                    )
                    worst = max(worst, float(err))
            return worst

        assert worst_over(rmin) <= 1.05e-3  # meters, about a tenth of a wavelength
        assert worst_over(12 * rmin) <= 1e-3 * cfg.wavelength

    def test_error_decays_with_distance(self):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9)
        n = np.arange(cfg.n_antennas)
        loc_err = []
        for r in np.geomspace(10.0, 1e5, 8):
            loc = PolarLocation(0.4, float(r))
            loc_err.append(
                float(
                    np.max(
                        np.abs(
                            element_distance(cfg, loc, n) - element_distance_taylor(cfg, loc, n)
                        )
                    )
                )
            )
        assert all(a >= b for a, b in zip(loc_err, loc_err[1:]))
        assert loc_err[-1] < 1e-10


class TestSteering:
    def test_unit_norm_and_entry_modulus(self, array256):
        for loc in (PolarLocation(0.05, 4.9), PolarLocation(-0.7, 60.0)):
            vec = near_steering(array256, loc)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.max(np.abs(np.abs(vec) - 1 / 16)) < 1e-12
        vec = far_steering(array256, 0.3)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.max(np.abs(np.abs(vec) - 1 / 16)) < 1e-12

    def test_self_inner_product(self, array256):
        vec = near_steering(array256, PolarLocation(0.1, 9.0))
        assert abs(np.vdot(vec, vec)) == pytest.approx(1.0, abs=1e-12)

    def test_near_degenerates_to_far(self, array256):
        z = rayleigh_distance(array256)
        for theta in (-0.5, 0.0, 0.35):
            b = near_steering(array256, PolarLocation(theta, 1e6 * z))
            a = far_steering(array256, theta)
            assert abs(np.vdot(b, a)) > 1 - 1e-3

    def test_near_to_far_convergence_is_monotone(self, array256):
        z = rayleigh_distance(array256)
        thetas = np.linspace(-0.8, 0.8, 9)
        gaps = []
        for mult in (1.0, 10.0, 100.0):
            gap = max(
                1.0
                - abs(
                    np.vdot(
                        near_steering(array256, PolarLocation(float(t), mult * z)),
                        far_steering(array256, float(t)),
                    )
                )
                for t in thetas
            )
            gaps.append(gap)
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 1e-3

    def test_first_entry_phase(self, array256):
        z = rayleigh_distance(array256)
        loc = PolarLocation(0.0, 0.015 * z)
        vec = near_steering(array256, loc)
        r0 = element_distance(array256, loc, 0)
        expected = np.exp(-2j * np.pi * (r0 - loc.distance) / array256.wavelength) / 16
        assert vec[0] == pytest.approx(expected, abs=1e-12)

    def test_far_pair_matches_dirichlet_kernel(self, array256):
        rng = np.random.default_rng(7)
        n = array256.n_antennas
        for _ in range(20):
            t1, t2 = rng.uniform(-1, 1, 2)
            inner = abs(np.vdot(far_steering(array256, t1), far_steering(array256, t2)))
            diff = t2 - t1
            num = math.sin(n * math.pi * diff / 2)
            den = n * math.sin(math.pi * diff / 2)
            assert inner == pytest.approx(abs(num / den), abs=1e-10)

    def test_fourier_orthogonality(self, array256):
        n = array256.n_antennas
        inner = abs(np.vdot(far_steering(array256, 0.1), far_steering(array256, 0.1 + 2 / n)))
        assert inner < 1e-12


class TestChannelGain:
    def test_reference_path_loss(self, array256):
        # single-element gain at 1 m is (lambda / 4 pi)^2, about -62 dB
        cfg = ArrayConfig(n_antennas=1 + 1, carrier_freq=30e9)  # N factored out below
        g = channel_gain(cfg, PolarLocation(0.0, 1.0)) / cfg.n_antennas
        assert 10 * math.log10(g) == pytest.approx(-62.0, abs=0.05)

    def test_inverse_square(self, array256):
        g1 = channel_gain(array256, PolarLocation(0.0, 10.0))
        g2 = channel_gain(array256, PolarLocation(0.0, 20.0))
        assert g1 == pytest.approx(4 * g2, rel=1e-12)

    def test_direct_value(self, array256):
        g = channel_gain(array256, PolarLocation(0.0, 4.92))
        expected = 256 * (0.01 / (4 * math.pi * 4.92)) ** 2
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(2.9e-4 * expected / expected, abs=1e-2)  # order check

    def test_linear_in_element_count(self):
        small = ArrayConfig(n_antennas=64, carrier_freq=30e9, spacing=0.005)
        big = ArrayConfig(n_antennas=128, carrier_freq=30e9, spacing=0.005)
        loc = PolarLocation(0.0, 25.0)
        assert channel_gain(big, loc) == pytest.approx(2 * channel_gain(small, loc), rel=1e-12)

    def test_rejects_far_field_sentinel(self, array256):
        with pytest.raises(ValueError):
            channel_gain(array256, PolarLocation(0.0, math.inf))


class TestValidation:
    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            PolarLocation(0.0, 0.0)

    def test_distance_whose_square_overflows_rejected(self):
        limit = math.sqrt(sys.float_info.max)
        assert PolarLocation(0.0, limit).distance == limit
        assert PolarLocation(0.0, math.inf).is_far_field
        for r in (1.35e154, 1e160, sys.float_info.max, np.float64(1e200)):
            with pytest.raises(ValueError, match="finite square"):
                PolarLocation(0.3, r)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PolarLocation(1.5, 10.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=1, carrier_freq=30e9)
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=4, carrier_freq=-1.0)

    def test_aod_conversion(self, array256):
        assert aod_to_spatial_angle(array256, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert aod_to_spatial_angle(array256, 0.0) == pytest.approx(1.0)

    def test_fresnel_warning_fires(self, array256):
        with pytest.warns(FresnelRegionWarning):
            warn_if_outside_fresnel(array256, PolarLocation(0.0, 4.9))
