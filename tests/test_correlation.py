import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from mfswipt import (
    ArrayConfig,
    CorrelationMatrices,
    DegenerateGeometryError,
    PolarLocation,
    Receiver,
    Scenario,
    build_matrices,
    correlation_approx,
    correlation_exact,
    correlation_grid,
    eh_priority,
    fresnel,
    fresnel_min_distance,
    rayleigh_distance,
)
from mfswipt.correlation import _CLOSED_FORM_BLOCK, _fresnl

# the array256 fixture's array, for strategy bounds
_CFG256 = ArrayConfig(n_antennas=256, carrier_freq=30e9)
RMIN, Z256 = fresnel_min_distance(_CFG256), rayleigh_distance(_CFG256)
# angles whose C pow square (Python's theta ** 2) differs in the last bit from
# theta * theta, which numpy's array ** 2 computes; about 0.1% of all angles
POW_SQUARE_ANGLES = [t for t in np.linspace(0.71, 1.0, 20001).tolist() if t**2 != t * t][:8]


def quad_fresnel(beta: float) -> tuple[float, float]:
    """Adaptive-quadrature oracle for the Fresnel integrals."""
    c, _ = integrate.quad(lambda t: math.cos(math.pi * t * t / 2), 0, beta, epsabs=1e-13, limit=400)
    s, _ = integrate.quad(lambda t: math.sin(math.pi * t * t / 2), 0, beta, epsabs=1e-13, limit=400)
    return c, s


def summed_correlation(cfg: ArrayConfig, loc_p: PolarLocation, loc_q: PolarLocation) -> float:
    """Element-by-element summation oracle, independent of the library path."""

    def entry(loc, n):
        if math.isinf(loc.distance):
            return complex(math.cos(math.pi * n * loc.spatial_angle),
                           math.sin(math.pi * n * loc.spatial_angle))
        delta = (2 * n - cfg.n_antennas + 1) / 2.0
        rn = math.sqrt(
            loc.distance**2
            + (delta * cfg.d) ** 2
            - 2 * loc.distance * loc.spatial_angle * delta * cfg.d
        )
        phase = -2 * math.pi * (rn - loc.distance) / cfg.wavelength
        return complex(math.cos(phase), math.sin(phase))

    acc = 0j
    for n in range(cfg.n_antennas):
        acc += entry(loc_p, n).conjugate() * entry(loc_q, n)
    return abs(acc) / cfg.n_antennas


class TestFresnel:
    def test_zero(self):
        pair = fresnel(0.0)
        assert pair.c_val == 0.0 and pair.s_val == 0.0

    def test_unit_argument_against_quadrature(self):
        c_ref, s_ref = quad_fresnel(1.0)
        pair = fresnel(1.0)
        assert pair.c_val == pytest.approx(c_ref, abs=1e-12)
        assert pair.s_val == pytest.approx(s_ref, abs=1e-12)
        assert pair.c_val == pytest.approx(0.7798934, abs=1e-7)
        assert pair.s_val == pytest.approx(0.4382591, abs=1e-7)

    def test_quadrature_agreement_over_range(self):
        for beta in (0.25, 0.5, 2.0, 3.7, 6.0):
            c_ref, s_ref = quad_fresnel(beta)
            pair = fresnel(beta)
            assert pair.c_val == pytest.approx(c_ref, abs=1e-9)
            assert pair.s_val == pytest.approx(s_ref, abs=1e-9)

    def test_odd_symmetry(self):
        plus, minus = fresnel(1.0), fresnel(-1.0)
        assert minus.c_val == -plus.c_val
        assert minus.s_val == -plus.s_val

    def test_asymptotic_half(self):
        pair = fresnel(500.0)
        assert pair.c_val == pytest.approx(0.5, abs=1e-3)
        assert pair.s_val == pytest.approx(0.5, abs=1e-3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fresnel(math.inf)

    def test_port_equals_scipy_bit_for_bit(self):
        # the numpy port must reproduce scipy's sinpi/cospi reduction: with
        # sin(pi x^2 / 2) taken directly, about 0.5% of the +-40 draws move
        rng = np.random.default_rng(5)
        x = np.concatenate([
            rng.uniform(-1.6, 1.6, 20_000),
            rng.uniform(-40.0, 40.0, 20_000),
            10.0 ** rng.uniform(-8.0, 6.0, 20_000),
        ])  # fmt: skip
        got_s, got_c = _fresnl(x)
        want_s, want_c = special.fresnel(x)
        assert got_s.tobytes() == want_s.tobytes()
        assert got_c.tobytes() == want_c.tobytes()

    def test_huge_argument_is_quiet(self):
        # x^2 overflows past ~1e154; the result is NaN, as in scipy, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = fresnel(1e300)
        assert math.isnan(pair.c_val) and math.isnan(pair.s_val)


class TestCorrelationExact:
    def test_self_correlation(self, array256):
        loc = PolarLocation(0.2, 12.0)
        assert correlation_exact(array256, loc, loc) == pytest.approx(1.0, abs=1e-12)

    def test_fourier_orthogonal_far_pair(self, array256):
        n = array256.n_antennas
        p = PolarLocation(0.1, math.inf)
        q = PolarLocation(0.1 + 2 / n, math.inf)
        assert correlation_exact(array256, p, q) < 1e-12

    def test_symmetry_and_range(self, array256):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = PolarLocation(float(rng.uniform(-1, 1)), float(rng.uniform(5, 2000)))
            q = PolarLocation(float(rng.uniform(-1, 1)), float(rng.uniform(5, 2000)))
            c_pq = correlation_exact(array256, p, q)
            c_qp = correlation_exact(array256, q, p)
            assert c_pq == c_qp
            assert 0.0 <= c_pq <= 1.0 + 1e-12

    def test_near_far_reference_pair_matches_summation_oracle(self, array256):
        z = rayleigh_distance(array256)
        near = PolarLocation(0.05, 0.015 * z)
        far = PolarLocation(0.05, math.inf)
        got = correlation_exact(array256, near, far)
        assert got == pytest.approx(summed_correlation(array256, near, far), abs=1e-12)
        # the aligned decoder beam couples noticeably into the near receiver
        assert got > 0.15


class TestCorrelationApprox:
    def test_swap_symmetry(self, array256):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = PolarLocation(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(8, 900)))
            q = PolarLocation(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(8, 900)))
            try:
                a_pq = correlation_approx(array256, p, q)
                a_qp = correlation_approx(array256, q, p)
            except DegenerateGeometryError:
                continue
            assert a_pq == pytest.approx(a_qp, rel=1e-12)

    def test_grid_agreement_with_exact(self, array256):
        z = rayleigh_distance(array256)
        rmin = fresnel_min_distance(array256)
        ref = PolarLocation(0.05, 0.03 * z)
        errs = []
        for theta in np.linspace(-1.0, 1.0, 30):
            for r in np.geomspace(rmin, 2 * z, 30):
                loc = PolarLocation(float(theta), float(r))
                try:
                    approx = correlation_approx(array256, ref, loc)
                except DegenerateGeometryError:
                    continue
                errs.append(abs(approx - correlation_exact(array256, ref, loc)))
        errs = np.asarray(errs)
        assert errs.max() <= 0.05
        assert np.median(errs) <= 0.01

    def test_far_field_sentinel_drops_curvature_term(self, array256):
        near = PolarLocation(0.2, 40.0)
        far = PolarLocation(0.33, math.inf)
        got = correlation_approx(array256, near, far)
        # manual evaluation with 1/r = 0 for the planar participant
        kappa = array256.d * (1 - near.spatial_angle**2) / near.distance
        b1 = (far.spatial_angle - near.spatial_angle) / math.sqrt(kappa)
        b2 = array256.n_antennas / 2 * math.sqrt(kappa)
        cp, sp = quad_fresnel(b1 + b2)
        cm, sm = quad_fresnel(b1 - b2)
        expected = abs(complex(cp - cm, sp - sm)) / (2 * b2)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_degenerate_curvature_raises(self, array256):
        loc = PolarLocation(0.3, 25.0)
        with pytest.raises(DegenerateGeometryError):
            correlation_approx(array256, loc, loc)
        mirrored = PolarLocation(-0.3, 25.0)  # same (1 - theta^2)/r
        with pytest.raises(DegenerateGeometryError):
            correlation_approx(array256, loc, mirrored)
        # both far-field: curvatures are both zero
        with pytest.raises(DegenerateGeometryError):
            correlation_approx(
                array256, PolarLocation(0.1, math.inf), PolarLocation(0.4, math.inf)
            )


class TestCorrelationGrid:
    def _scalar_grid(self, cfg, ref, thetas, radii):
        exact, approx = [], []
        for theta in thetas:
            for r in radii:
                loc = PolarLocation(theta, r)
                exact.append(correlation_exact(cfg, ref, loc))
                try:
                    approx.append(correlation_approx(cfg, ref, loc))
                except DegenerateGeometryError:
                    approx.append(math.nan)
        shape = (len(thetas), len(radii))
        return np.reshape(exact, shape), np.reshape(approx, shape)

    @pytest.mark.parametrize(
        "ref, thetas, radii",
        [
            # (+-0.2, 30 m) share the reference's curvature (1 - theta^2)/r;
            # 95.97 ** 2 (C pow) and 95.97 * 95.97 differ in the last bit
            (PolarLocation(0.2, 30.0), [-0.7, -0.2, 0.0, 0.2, 0.95], [8.0, 30.0, 95.97, 900.0]),
            # a planar reference is degenerate against theta = +-1 at any distance
            (PolarLocation(-0.4, math.inf), [-1.0, -0.4, 0.3, 1.0], [7.2, 30.0, 1e4]),
        ],
        ids=["near_ref", "far_ref"],
    )
    def test_equals_scalar_functions_bit_for_bit(self, array256, ref, thetas, radii):
        exact, approx = correlation_grid(array256, ref, thetas, radii)
        want_exact, want_approx = self._scalar_grid(array256, ref, thetas, radii)
        assert exact.tobytes() == want_exact.tobytes()
        degenerate = np.isnan(want_approx)
        assert degenerate.any()
        assert np.array_equal(np.isnan(approx), degenerate)
        assert approx[~degenerate].tobytes() == want_approx[~degenerate].tobytes()

    @given(
        ref_theta=st.floats(-1.0, 1.0),
        ref_r=st.one_of(st.just(math.inf), st.floats(RMIN, 3.0 * Z256)),
        thetas=st.lists(
            st.floats(-1.0, 1.0) | st.sampled_from(POW_SQUARE_ANGLES), min_size=1, max_size=4
        ),
        radii=st.lists(st.floats(RMIN, 3.0 * Z256), min_size=1, max_size=4),
        twins=st.booleans(),
    )
    def test_random_grid_equals_scalar_functions(
        self, array256, ref_theta, ref_r, thetas, radii, twins
    ):
        # a last-bit move in the grid's curvature shows only on some points,
        # such as POW_SQUARE_ANGLES; `twins` adds points that share the
        # reference's curvature: (+-ref_theta, ref_r), and theta = 1 against a
        # planar reference
        ref = PolarLocation(ref_theta, ref_r)
        if twins:
            thetas = thetas + [ref_theta, -ref_theta, 1.0]
            radii = radii + ([ref_r] if math.isfinite(ref_r) else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exact, approx = correlation_grid(array256, ref, thetas, radii)
        want_exact, want_approx = self._scalar_grid(array256, ref, thetas, radii)
        assert exact.tobytes() == want_exact.tobytes()
        degenerate = np.isnan(want_approx)
        assert np.array_equal(np.isnan(approx), degenerate)
        assert approx[~degenerate].tobytes() == want_approx[~degenerate].tobytes()

    def test_closed_form_blocks_join_bit_for_bit(self, array256):
        # 150 radii give blocks of 66 rows; 140 rows span three blocks
        radii = np.geomspace(RMIN, 3.0 * Z256, 150)
        rows = _CLOSED_FORM_BLOCK // len(radii)
        thetas = np.linspace(-0.9, 0.9, 2 * rows + 8)
        ref = PolarLocation(0.1, 20.0)
        _, approx = correlation_grid(array256, ref, thetas, radii)
        for i in (rows - 1, rows, 2 * rows - 1, 2 * rows):
            want = [correlation_approx(array256, ref, PolarLocation(thetas[i], r)) for r in radii]
            assert approx[i].tobytes() == np.array(want).tobytes()

    def test_rejects_points_off_the_grid_domain(self, array256):
        ref = PolarLocation(0.0, 30.0)
        with pytest.raises(ValueError, match="grid"):
            correlation_grid(array256, ref, [0.0, 1.2], [30.0])
        with pytest.raises(ValueError, match="grid"):
            correlation_grid(array256, ref, [0.0], [30.0, math.inf])


def _scenario(eh_locs, id_locs, alphas=None, zeta=0.5, rate_floor=5.0):
    alphas = alphas or [1.0] * len(eh_locs)
    return Scenario(
        eh_receivers=tuple(
            Receiver(PolarLocation(t, r), weight=a) for (t, r), a in zip(eh_locs, alphas)
        ),
        id_receivers=tuple(Receiver(PolarLocation(t, r)) for t, r in id_locs),
        sigma2=tuple(1e-11 for _ in id_locs),
        p0=1.0,
        rate_floor=rate_floor,
        zeta=zeta,
    )


class TestBuildMatrices:
    def test_single_harvester(self, array256):
        scn = _scenario([(0.0, 10.0)], [], rate_floor=0.0)
        mats = build_matrices(array256, scn)
        assert mats.lambda_full.shape == (1, 1)
        assert mats.lambda_full[0, 0] == 1.0
        assert mats.lambda_masked[0, 0] == 1.0
        g = 256 * (0.01 / (4 * math.pi * 10.0)) ** 2
        assert mats.c_eh[0] == pytest.approx(0.5 * g, rel=1e-12)

    def test_orthogonal_decoders_decouple(self, array256):
        n = array256.n_antennas
        scn = _scenario([], [(0.1, 400.0), (0.1 + 2 / n, 400.0)])
        mats = build_matrices(array256, scn)
        assert mats.lambda_masked[0, 1] < 1e-20
        assert mats.lambda_masked[0, 0] == 0.0 and mats.lambda_masked[1, 1] == 0.0

    def test_reference_deployment_against_summation_oracle(self, reference_setup):
        cfg, scn, mats = reference_setup
        locs = [r.location for r in scn.eh_receivers] + [
            PolarLocation(r.location.spatial_angle, math.inf) for r in scn.id_receivers
        ]
        n = len(locs)
        assert mats.lambda_full.shape == (5, 5)
        for i in range(n):
            for j in range(n):
                expected = summed_correlation(cfg, locs[i], locs[j]) ** 2
                assert mats.lambda_full[i, j] == pytest.approx(expected, abs=1e-10)

    def test_structure_invariants(self, reference_setup):
        _, scn, mats = reference_setup
        lam, masked = mats.lambda_full, mats.lambda_masked
        assert np.max(np.abs(lam - lam.T)) < 1e-12
        assert np.max(np.abs(masked - masked.T)) < 1e-12
        assert lam.min() >= 0.0 and lam.max() <= 1.0
        assert np.allclose(np.diag(lam), 1.0)
        k = scn.n_eh
        assert np.allclose(np.diag(masked)[:k], 1.0)
        assert np.allclose(np.diag(masked)[k:], 0.0)
        assert (mats.c_eh >= 0).all() and (mats.g_id >= 0).all()


class TestEhPriority:
    @staticmethod
    def _mats_from(lam_masked, c_eh):
        n = lam_masked.shape[0]
        k = int(np.count_nonzero(c_eh))
        lam = lam_masked.copy()
        np.fill_diagonal(lam, 1.0)
        return CorrelationMatrices(
            lambda_full=lam,
            lambda_masked=lam_masked,
            c_eh=np.asarray(c_eh, dtype=float),
            g_eh=np.asarray(c_eh[:k], dtype=float) * 2.0,
            g_id=np.ones(n - k),
            alpha=np.ones(k),
            zeta=0.5,
        )

    def test_single_harvester(self, array256):
        scn = _scenario([(0.0, 10.0)], [], rate_floor=0.0)
        mats = build_matrices(array256, scn)
        best, rho = eh_priority(mats)
        assert best == 0
        assert rho[0] == pytest.approx(mats.c_eh[0])

    def test_uncoupled_harvesters_ranked_by_weighted_gain(self):
        masked = np.eye(2)
        mats = self._mats_from(masked, np.array([1.0, 3.0]))
        best, rho = eh_priority(mats)
        assert best == 1
        assert np.allclose(rho, [1.0, 3.0])

    def test_decoder_takes_over_past_coupling_threshold(self):
        # two equal harvesters, one decoder: the decoder slot wins exactly when
        # the sum of its couplings exceeds 1 plus the harvester cross-coupling
        eta12 = 0.2

        def build(eta13, eta23):
            masked = np.array(
                [[1.0, eta12, eta13], [eta12, 1.0, eta23], [eta13, eta23, 0.0]]
            )
            return self._mats_from(masked, np.array([1.0, 1.0, 0.0]))

        below, _ = eh_priority(build(0.55, 0.55))  # sum 1.1 < 1.2
        above, _ = eh_priority(build(0.65, 0.65))  # sum 1.3 > 1.2
        assert below in (0, 1)
        assert above == 2

    def test_argmax_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(5)
        sym = rng.uniform(0, 0.4, (4, 4))
        masked = (sym + sym.T) / 2
        np.fill_diagonal(masked, 1.0)
        masked[3, 3] = 0.0
        c = np.array([2.0, 1.0, 4.0, 0.0])
        best1, _ = eh_priority(self._mats_from(masked, c))
        best2, _ = eh_priority(self._mats_from(masked, 7.5 * c))
        assert best1 == best2

    def test_tie_breaks_to_lowest_index(self):
        masked = np.eye(3)
        masked[2, 2] = 0.0
        mats = self._mats_from(masked, np.array([2.0, 2.0, 0.0]))
        best, _ = eh_priority(mats)
        assert best == 0
