import math

import numpy as np
import pytest

from conftest import random_geometry_instance
from mfswipt import (
    PolarLocation,
    PowerAllocation,
    Receiver,
    Scenario,
    build_matrices,
    eh_power,
    far_steering,
    id_rate,
    near_steering,
    rayleigh_distance,
    sum_rate,
    weighted_sum_power,
)
from mfswipt.metrics import _ordered_sum


def steering_oracle(cfg, scn, y):
    """Rates and harvested powers straight from steering-vector inner products,
    bypassing the coupling-matrix machinery entirely."""
    k, m = scn.n_eh, scn.n_id
    vecs = [near_steering(cfg, r.location) for r in scn.eh_receivers]
    vecs += [far_steering(cfg, r.location.spatial_angle) for r in scn.id_receivers]
    gains = []
    for rec in scn.eh_receivers + scn.id_receivers:
        amp = cfg.wavelength / (4 * math.pi * rec.location.distance)
        gains.append(cfg.n_antennas * amp**2)
    rates = []
    for j in range(m):
        slot = k + j
        sig = y[slot] * gains[slot]
        interf = sum(
            y[p] * gains[slot] * abs(np.vdot(vecs[slot], vecs[p])) ** 2
            for p in range(k + m)
            if p != slot
        )
        rates.append(math.log2(1 + sig / (interf + scn.sigma2[j])))
    harvested = []
    for i in range(k):
        total = sum(
            y[p] * gains[i] * abs(np.vdot(vecs[i], vecs[p])) ** 2 for p in range(k + m)
        )
        harvested.append(scn.zeta * total)
    return rates, harvested


@pytest.fixture(scope="module")
def small_instance(array256):
    z = rayleigh_distance(array256)
    scn = Scenario(
        eh_receivers=(
            Receiver(PolarLocation(0.0, 0.015 * z)),
            Receiver(PolarLocation(0.1, 0.02 * z), weight=2.0),
        ),
        id_receivers=(
            Receiver(PolarLocation(0.0, 1.05 * z)),
            Receiver(PolarLocation(0.05, 1.2 * z)),
        ),
        sigma2=(1e-11, 1e-11),
        p0=1.0,
        rate_floor=5.0,
    )
    return array256, scn, build_matrices(array256, scn)


class TestIdRate:
    def test_zero_allocation(self, small_instance):
        _, scn, mats = small_instance
        y = np.zeros(4)
        assert id_rate(mats, scn.sigma2, y, 0) == 0.0
        assert id_rate(mats, scn.sigma2, y, 1) == 0.0

    def test_interference_free_single_decoder(self, array256):
        z = rayleigh_distance(array256)
        scn = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        y = np.array([0.7])
        expected = math.log2(1 + mats.g_id[0] * 0.7 / 1e-11)
        assert id_rate(mats, scn.sigma2, y, 0) == pytest.approx(expected, rel=1e-12)

    def test_equal_split_matches_steering_oracle(self, small_instance):
        cfg, scn, mats = small_instance
        y = np.full(4, 0.25)
        rates, _ = steering_oracle(cfg, scn, y)
        for m in range(2):
            assert id_rate(mats, scn.sigma2, y, m) == pytest.approx(rates[m], abs=1e-10)
        assert sum_rate(mats, scn.sigma2, y) == pytest.approx(sum(rates), abs=1e-10)

    def test_monotone_in_own_power_and_interference(self, small_instance):
        _, scn, mats = small_instance
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = rng.uniform(0.01, 0.4, 4)
            base = id_rate(mats, scn.sigma2, y, 0)
            up = y.copy()
            up[2] += 0.01  # decoder 0 sits at slot 2
            assert id_rate(mats, scn.sigma2, up, 0) > base
            for other in (0, 1, 3):
                bumped = y.copy()
                bumped[other] += 0.01
                assert id_rate(mats, scn.sigma2, bumped, 0) <= base + 1e-15


class TestSumRate:
    def test_ordered_sum_adds_left_to_right(self):
        # compensated summation (the builtin sum from Python 3.12 on) gives 2.0
        assert _ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert _ordered_sum([]) == 0.0

    @pytest.mark.parametrize("n_id", [3, 4])
    def test_sum_of_rates_left_to_right(self, array256, n_id):
        rng = np.random.default_rng(40 + n_id)
        for _ in range(10):
            mats, scn = random_geometry_instance(rng, array256, n_eh=2, n_id=n_id)
            y = rng.uniform(0.0, 1.0, mats.n_slots)
            total = 0.0
            for m in range(n_id):
                total += id_rate(mats, scn.sigma2, y, m)
            assert float(sum_rate(mats, scn.sigma2, y)).hex() == total.hex()


class TestEhPower:
    def test_own_beam_only(self, small_instance):
        _, scn, mats = small_instance
        y = np.array([0.8, 0.0, 0.0, 0.0])
        assert eh_power(mats, y, 0) == pytest.approx(
            scn.zeta * mats.g_eh[0] * 0.8, rel=1e-12
        )

    def test_distant_orthogonal_beam_is_negligible(self, array256):
        n = array256.n_antennas
        z = rayleigh_distance(array256)
        # far-like harvester and a decoder beam at a Fourier-orthogonal angle
        scn = Scenario(
            eh_receivers=(Receiver(PolarLocation(0.1, 50 * z)),),
            id_receivers=(Receiver(PolarLocation(0.1 + 2 / n, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        y = np.array([0.0, 1.0])
        # the Fourier zero is exact only for two planar wavefronts; the
        # residual curvature at 50 Z leaves a coupling of order 1e-6
        assert eh_power(mats, y, 0) < 1e-5 * mats.zeta * mats.g_eh[0]

    def test_decoder_beam_charges_within_angular_window(self, array256):
        # decoder beam fixed at theta = 0.05; sweep the harvester angle and
        # compare against the raw steering-product oracle
        z = rayleigh_distance(array256)
        window, outside = [], []
        for theta in np.linspace(-0.5, 0.5, 41):
            scn = Scenario(
                eh_receivers=(Receiver(PolarLocation(float(theta), 0.015 * z)),),
                id_receivers=(Receiver(PolarLocation(0.05, 1.05 * z)),),
                sigma2=(1e-11,),
                p0=1.0,
                rate_floor=0.0,
            )
            mats = build_matrices(array256, scn)
            y = np.array([0.0, 1.0])
            got = eh_power(mats, y, 0)
            _, harvested = steering_oracle(array256, scn, y)
            assert got == pytest.approx(harvested[0], abs=1e-12)
            if abs(theta - 0.05) <= 0.05:
                window.append(got)
            elif abs(theta - 0.05) >= 0.25:
                outside.append(got)
        assert min(window) > 100 * max(outside)

    def test_linearity(self, small_instance):
        _, scn, mats = small_instance
        rng = np.random.default_rng(2)
        y1, y2 = rng.uniform(0, 0.3, 4), rng.uniform(0, 0.3, 4)
        for k in range(2):
            left = eh_power(mats, 2.0 * y1 + 0.5 * y2, k)
            right = 2.0 * eh_power(mats, y1, k) + 0.5 * eh_power(mats, y2, k)
            assert left == pytest.approx(right, rel=1e-12)
        left = weighted_sum_power(mats, 2.0 * y1 + 0.5 * y2)
        right = 2.0 * weighted_sum_power(mats, y1) + 0.5 * weighted_sum_power(mats, y2)
        assert left == pytest.approx(right, rel=1e-12)


class TestWeightedSumPower:
    def test_zero_allocation(self, small_instance):
        _, _, mats = small_instance
        assert weighted_sum_power(mats, np.zeros(4)) == 0.0

    def test_two_computation_paths_agree(self, small_instance):
        _, scn, mats = small_instance
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.uniform(0, 0.5, 4)
            per_k = sum(r.weight * eh_power(mats, y, k) for k, r in enumerate(scn.eh_receivers))
            assert weighted_sum_power(mats, y) == pytest.approx(per_k, abs=1e-10 * max(per_k, 1))

    def test_weights_scale_contributions(self, small_instance):
        cfg, scn, mats = small_instance
        # weight 2 on harvester 1 doubles its contribution relative to alpha=1
        y = np.array([0.3, 0.3, 0.2, 0.2])
        base = sum(r.weight * eh_power(mats, y, k) for k, r in enumerate(scn.eh_receivers))
        assert weighted_sum_power(mats, y) == pytest.approx(base, rel=1e-12)
        assert scn.eh_receivers[1].weight == 2.0

    def test_report_consistency(self, small_instance):
        # the totals over a PowerAllocation equal the sums of their per-receiver terms
        _, scn, mats = small_instance
        y = PowerAllocation(np.array([0.4, 0.1, 0.3, 0.2]))
        rates = [id_rate(mats, scn.sigma2, y, m) for m in range(scn.n_id)]
        assert sum_rate(mats, scn.sigma2, y) == pytest.approx(sum(rates), rel=1e-12)
        weighted = sum(r.weight * eh_power(mats, y, k) for k, r in enumerate(scn.eh_receivers))
        assert weighted_sum_power(mats, y) == pytest.approx(weighted, rel=1e-12)


class TestPowerAllocation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([0.1, -0.2]))

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            PowerAllocation(np.ones((2, 2)))

    def test_scheduling_support(self):
        y = PowerAllocation(np.array([0.5, 2e-7, 0.0]))
        assert y.scheduled_mask(1.0).tolist() == [True, False, False]

