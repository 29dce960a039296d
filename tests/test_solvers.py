import dataclasses
import itertools
import logging
import math
import re

import numpy as np
import pytest

from conftest import (
    achieved_sinr,
    lp_vertex_oracle,
    random_geometry_instance,
    simplex_grid_best_rate,
    synthetic_single_decoder,
)
from mfswipt import (
    PolarLocation,
    Receiver,
    Scenario,
    SolveStatus,
    SolverOptions,
    build_matrices,
    closed_form_eh_only,
    closed_form_mixed,
    eh_priority,
    exhaustive_search,
    fp_rate_max,
    inner_convex,
    rayleigh_distance,
    sca_solve,
    sum_rate,
    weighted_sum_power,
)
from mfswipt.solvers import FEASIBILITY_TOLERANCE, _Reduced, _schedules

TIGHT = SolverOptions(convergence_threshold=1e-6)


def two_orthogonal_decoders(array256, rate_floor=0.0, p0=1.0):
    n = array256.n_antennas
    z = rayleigh_distance(array256)
    scn = Scenario(
        eh_receivers=(),
        id_receivers=(
            Receiver(PolarLocation(0.1, 1.1 * z)),
            Receiver(PolarLocation(0.1 + 2 / n, 1.1 * z)),
        ),
        sigma2=(1e-11, 1e-11),
        p0=p0,
        rate_floor=rate_floor,
    )
    return build_matrices(array256, scn), scn


class TestFpRateMax:
    def test_single_decoder_closed_form(self, array256):
        z = rayleigh_distance(array256)
        scn = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        res = fp_rate_max(mats, scn)
        expected = math.log2(1 + mats.g_id[0] * 1.0 / 1e-11)
        assert res.r_star == pytest.approx(expected, abs=1e-9)
        assert res.allocation.powers[0] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_equal_gain_split(self, array256):
        mats, scn = two_orthogonal_decoders(array256)
        res = fp_rate_max(mats, scn)
        assert res.allocation.powers[0] == pytest.approx(0.5, abs=1e-6)
        assert res.allocation.powers[1] == pytest.approx(0.5, abs=1e-6)
        single = math.log2(1 + mats.g_id[0] * 0.5 / 1e-11)
        assert res.r_star == pytest.approx(2 * single, abs=1e-6)

    def test_reference_two_decoder_geometry_vs_grid(self, reference_setup):
        _, scn, mats = reference_setup
        res = fp_rate_max(mats, scn)
        grid_best = simplex_grid_best_rate(mats, scn)
        assert res.r_star >= grid_best - 1e-9
        assert abs(res.r_star - grid_best) <= 0.01

    def test_gamma_is_achieved_sinr(self, reference_setup):
        _, scn, mats = reference_setup
        res = fp_rate_max(mats, scn)
        sinr = achieved_sinr(mats, scn, res.allocation.powers)
        assert np.max(np.abs(res.gamma - sinr) / sinr) < 1e-9

    def test_needs_a_decoder(self, array256):
        scn = Scenario(
            eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),),
            id_receivers=(),
            sigma2=(),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        with pytest.raises(ValueError):
            fp_rate_max(mats, scn)


class TestFeasibilityCheck:
    def test_zero_floor_always_feasible(self, reference_setup):
        _, scn, mats = reference_setup
        relaxed = dataclasses.replace(scn, rate_floor=0.0)
        assert sca_solve(mats, relaxed).status is SolveStatus.OPTIMAL

    def test_single_decoder_threshold(self, array256):
        z = rayleigh_distance(array256)
        base = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, base)
        cap = math.log2(1 + mats.g_id[0] / 1e-11)
        ok = sca_solve(mats, dataclasses.replace(base, rate_floor=cap - 0.01))
        bad = sca_solve(mats, dataclasses.replace(base, rate_floor=cap + 0.01))
        assert ok.status is SolveStatus.OPTIMAL and bad.status is SolveStatus.INFEASIBLE
        assert fp_rate_max(mats, base).r_star == pytest.approx(cap, abs=1e-9)

    def test_reference_max_rate_vs_grid(self, reference_setup):
        _, scn, mats = reference_setup
        res = fp_rate_max(mats, scn)
        grid_best = simplex_grid_best_rate(mats, scn)
        assert res.r_star >= scn.rate_floor - FEASIBILITY_TOLERANCE
        assert abs(res.r_star - grid_best) <= 0.01

    def test_no_decoders(self, array256):
        scn = Scenario(
            eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),),
            id_receivers=(),
            sigma2=(),
            p0=1.0,
            rate_floor=1.0,
        )
        mats = build_matrices(array256, scn)
        report = sca_solve(mats, scn)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.residuals == {"r_star": 0.0}
        with pytest.raises(ValueError):
            fp_rate_max(mats, scn)


class TestInnerConvex:
    def test_decoder_only_uses_rate_achieving_power(self, array256):
        # zero harvesting coefficients: the tie-break picks the least-power
        # point, which at a self-consistent linearization is exactly the
        # power that meets the floor
        z = rayleigh_distance(array256)
        scn = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=4.0,
        )
        mats = build_matrices(array256, scn)
        need = (2.0**4.0 - 1.0) * 1e-11 / mats.g_id[0]
        alloc = inner_convex(np.array([need]), mats, scn)
        assert alloc.powers[0] == pytest.approx(need, rel=1e-5)

    def test_decoder_only_fixed_point_from_elsewhere(self, array256):
        # iterating round + re-expansion walks the tangent solutions onto
        # the true rate-achieving power
        z = rayleigh_distance(array256)
        scn = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 1.1 * z)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=4.0,
        )
        mats = build_matrices(array256, scn)
        need = (2.0**4.0 - 1.0) * 1e-11 / mats.g_id[0]
        x = 0.5
        for _ in range(12):
            alloc = inner_convex(np.array([x]), mats, scn)
            x = float(alloc.powers[0])
        assert x == pytest.approx(need, rel=1e-4)

    def test_solution_satisfies_constraints(self, array256):
        rng = np.random.default_rng(17)
        for _ in range(5):
            mats, scn = random_geometry_instance(rng, array256, n_eh=2, n_id=2, rate_floor=4.0)
            best = fp_rate_max(mats, scn)
            assert best.r_star >= scn.rate_floor - FEASIBILITY_TOLERANCE
            alloc = inner_convex(best.allocation.powers, mats, scn)
            y = alloc.powers
            assert (y >= 0).all()
            assert y.sum() <= scn.p0 * (1 + 1e-7)
            assert sum_rate(mats, scn.sigma2, y) >= scn.rate_floor - 1e-7


class TestScaSolve:
    def test_zero_floor_reduces_to_best_priority_slot(self, array256):
        rng = np.random.default_rng(23)
        mats, scn = random_geometry_instance(rng, array256, n_eh=3, n_id=1, rate_floor=0.0)
        report = sca_solve(mats, scn)
        cf = closed_form_eh_only(mats, scn)
        best, rho = eh_priority(mats)
        if best < mats.n_eh:  # harvester slot dominates: exact agreement expected
            assert report.objective == pytest.approx(cf.objective, rel=1e-6)
            assert report.allocation.powers[best] == pytest.approx(scn.p0)

    def test_reference_scenario_converges_fast(self, reference_setup):
        _, scn, mats = reference_setup
        for floor in (5.0, 10.0):
            report = sca_solve(mats, dataclasses.replace(scn, rate_floor=floor))
            assert report.status is SolveStatus.OPTIMAL
            assert report.iterations <= 10
            diffs = np.diff(report.trace)
            assert (diffs >= -1e-9 * max(abs(t) for t in report.trace)).all()
            achieved = sum_rate(mats, scn.sigma2, report.allocation)
            assert achieved >= floor - 1e-5

    def test_matches_single_decoder_closed_form(self, array256):
        rng = np.random.default_rng(31)
        for _ in range(8):
            mats, scn = synthetic_single_decoder(rng, n_eh=2)
            report = sca_solve(mats, scn, TIGHT)
            cf = closed_form_mixed(mats, scn)
            if cf.status is not SolveStatus.OPTIMAL:
                assert report.status is SolveStatus.INFEASIBLE
                continue
            assert report.status is SolveStatus.OPTIMAL
            assert report.objective == pytest.approx(cf.objective, rel=1e-4)

    def test_infeasible_floor_reported(self, reference_setup):
        _, scn, mats = reference_setup
        report = sca_solve(mats, dataclasses.replace(scn, rate_floor=15.0))
        assert report.status is SolveStatus.INFEASIBLE
        assert math.isnan(report.objective)
        assert report.residuals == {"r_star": fp_rate_max(mats, scn).r_star}

    def test_monotone_trace_on_random_instances(self, array256):
        rng = np.random.default_rng(41)
        for _ in range(6):
            mats, scn = random_geometry_instance(
                rng, array256, n_eh=int(rng.integers(1, 4)), n_id=2, rate_floor=5.0
            )
            report = sca_solve(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            scale = max(abs(t) for t in report.trace) or 1.0
            assert all(b >= a - 1e-9 * scale for a, b in zip(report.trace, report.trace[1:]))

    def test_returned_allocations_are_feasible(self, array256):
        rng = np.random.default_rng(43)
        for _ in range(6):
            mats, scn = random_geometry_instance(rng, array256, n_eh=2, n_id=2, rate_floor=6.0)
            report = sca_solve(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            y = report.allocation.powers
            assert (y >= -1e-12).all()
            assert y.sum() <= scn.p0 * (1 + 1e-7)
            assert sum_rate(mats, scn.sigma2, y) >= scn.rate_floor - 1e-5

    def test_debug_log_has_one_line_per_round(self, reference_setup, caplog):
        _, scn, mats = reference_setup
        with caplog.at_level(logging.DEBUG, logger="mfswipt.solvers"):
            report = sca_solve(mats, scn)
        rounds = [r.message for r in caplog.records if r.message.startswith("round ")]
        assert report.iterations > 0 and len(rounds) == report.iterations
        for i, line in enumerate(rounds, start=1):
            match = re.fullmatch(
                r"round (\d+) objective=(\S+) dual_evals=(\d+) rate_price=(\S+) bound_slack=(\S+)",
                line,
            )
            assert match and int(match[1]) == i and int(match[3]) >= 1
            assert float(match[2]) == report.trace[i]
            assert math.isfinite(float(match[4])) and float(match[4]) > 0
            assert float(match[5]) >= 0

    def test_mask_pins_slots(self, reference_setup):
        _, scn, mats = reference_setup
        mask = np.array([False, True, True, True, True])
        report = sca_solve(mats, scn, mask=mask)
        assert report.status is SolveStatus.OPTIMAL
        assert report.allocation.powers[0] == 0.0


class TestClosedFormEhOnly:
    def test_single_harvester(self, array256):
        scn = Scenario(
            eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),),
            id_receivers=(),
            sigma2=(),
            p0=2.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        report = closed_form_eh_only(mats, scn)
        assert report.allocation.powers[0] == 2.0
        assert report.objective == pytest.approx(mats.c_eh[0] * 2.0, rel=1e-12)

    def test_reference_harvesters_beat_simplex_grid(self, reference_setup):
        _, scn, mats = reference_setup
        relaxed = dataclasses.replace(scn, rate_floor=0.0)
        report = closed_form_eh_only(mats, relaxed)
        best, rho = eh_priority(mats)
        assert np.argmax(report.allocation.powers) == np.argmax(rho[:3])
        # vertex dominance
        for k in range(3):
            y = np.zeros(5)
            y[k] = scn.p0
            assert report.objective >= weighted_sum_power(mats, y) - 1e-15
        # coarse grid over the 3-simplex cannot beat the vertex solution
        steps = 20  # P0/20 granularity keeps this fast; vertices included
        best_grid = 0.0
        for a in range(steps + 1):
            for b in range(steps + 1 - a):
                y = np.zeros(5)
                y[0] = scn.p0 * a / steps
                y[1] = scn.p0 * b / steps
                y[2] = scn.p0 - y[0] - y[1]
                best_grid = max(best_grid, weighted_sum_power(mats, y))
        assert report.objective >= best_grid - 1e-12

    def test_uniform_weight_scaling_keeps_argmax(self, array256):
        rng = np.random.default_rng(53)
        mats, scn = random_geometry_instance(rng, array256, n_eh=4, n_id=0, rate_floor=0.0)
        scaled = dataclasses.replace(
            scn,
            eh_receivers=tuple(
                dataclasses.replace(r, weight=r.weight * 3.5) for r in scn.eh_receivers
            ),
        )
        mats_scaled = build_matrices(array256, scaled)
        a = closed_form_eh_only(mats, scn)
        b = closed_form_eh_only(mats_scaled, scaled)
        assert np.argmax(a.allocation.powers) == np.argmax(b.allocation.powers)

    @pytest.mark.parametrize("decoders", [True, False], ids=["decoders", "no_decoders"])
    def test_rejects_positive_floor_with_decoders(self, reference_setup, decoders):
        # no harvester-only allocation meets a positive floor, with or without
        # decoders in the scenario
        cfg, scn, mats = reference_setup
        if not decoders:
            scn = dataclasses.replace(scn, id_receivers=(), sigma2=(), rate_floor=3.0)
            mats = build_matrices(cfg, scn)
            assert sca_solve(mats, scn).status is SolveStatus.INFEASIBLE
        with pytest.raises(ValueError):
            closed_form_eh_only(mats, scn)


class TestClosedFormMixed:
    def test_zero_floor_degenerates_to_priority_vertex(self, array256):
        rng = np.random.default_rng(61)
        mats, scn = synthetic_single_decoder(rng, n_eh=3)
        scn = dataclasses.replace(scn, rate_floor=0.0)
        report = closed_form_mixed(mats, scn)
        best, _ = eh_priority(mats)
        assert report.allocation.powers[best] == pytest.approx(scn.p0)
        assert report.allocation.powers.sum() == pytest.approx(scn.p0)

    def test_zero_coupling_gives_exact_rate_power(self, array256):
        rng = np.random.default_rng(67)
        mats, scn = synthetic_single_decoder(rng, n_eh=2, common_coupling=0.0)
        report = closed_form_mixed(mats, scn)
        if report.status is not SolveStatus.OPTIMAL:
            pytest.skip("infeasible draw")
        k = mats.n_eh
        need = (2.0**scn.rate_floor - 1.0) * scn.sigma2[0] / mats.g_id[0]
        assert report.allocation.powers[k] == pytest.approx(need, rel=1e-12)
        assert report.allocation.powers.sum() == scn.p0  # budget exactly tight

    def test_budget_tight_and_rate_tight(self, array256):
        rng = np.random.default_rng(71)
        for _ in range(20):
            mats, scn = synthetic_single_decoder(rng)
            report = closed_form_mixed(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            y = report.allocation.powers
            assert y.sum() == scn.p0
            best, _ = eh_priority(mats)
            if best != mats.n_eh:
                assert abs(report.residuals["rate_slack"]) < 1e-6

    @pytest.mark.parametrize("decoders", [(False, False), (True, True)], ids=["none", "two"])
    def test_needs_exactly_one_decoder(self, reference_setup, decoders):
        _, scn, mats = reference_setup
        mask = np.array((True,) * mats.n_eh + decoders)
        with pytest.raises(ValueError, match="exactly one active decoder"):
            closed_form_mixed(mats, scn, mask)

    def test_infeasible_when_budget_below_rate_power(self, array256):
        rng = np.random.default_rng(73)
        mats, scn = synthetic_single_decoder(rng, n_eh=1)
        tiny = dataclasses.replace(scn, p0=1e-9, rate_floor=10.0)
        report = closed_form_mixed(mats, tiny)
        assert report.status is SolveStatus.INFEASIBLE

    def test_all_power_to_decoder_past_coupling_threshold(self, array256):
        # two equal harvesters; sweep the common coupling across the point
        # where the decoder slot's priority overtakes the harvesters'
        rng = np.random.default_rng(79)
        k_slot = 2
        for coupling, expect_decoder in ((0.55, False), (0.65, True)):
            mats, scn = synthetic_single_decoder(rng, n_eh=2, common_coupling=coupling)
            mats = dataclasses.replace(
                mats,
                c_eh=np.array([1e-6, 1e-6, 0.0]),
                g_eh=np.array([2e-6, 2e-6]),
            )
            lam = mats.lambda_masked.copy()
            lam[0, 1] = lam[1, 0] = 0.2
            mats = dataclasses.replace(mats, lambda_masked=lam)
            report = closed_form_mixed(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            decoder_took_all = report.allocation.powers[k_slot] == pytest.approx(scn.p0)
            assert decoder_took_all == expect_decoder

    def test_vertex_oracle_agreement(self, array256):
        rng = np.random.default_rng(83)
        for _ in range(30):
            mats, scn = synthetic_single_decoder(rng)
            report = closed_form_mixed(mats, scn)
            best_val, _ = lp_vertex_oracle(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                assert best_val is None
                continue
            assert report.objective == pytest.approx(best_val, rel=1e-6)


class TestExhaustiveSearch:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_schedules_count_in_binary(self, n):
        # the tie-break relies on this order: slot 0 is the most significant bit
        order = [mask.tolist() for mask in _schedules(n)]
        assert order == [[bool(code >> (n - 1 - p) & 1) for p in range(n)] for code in range(2**n)]

    def test_single_harvester_matches_closed_form(self, array256):
        scn = Scenario(
            eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),),
            id_receivers=(),
            sigma2=(),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        report = exhaustive_search(mats, scn)
        cf = closed_form_eh_only(mats, scn)
        assert report.objective == pytest.approx(cf.objective, rel=1e-12)

    def test_matches_single_decoder_closed_form(self, array256):
        rng = np.random.default_rng(89)
        for _ in range(3):
            mats, scn = synthetic_single_decoder(rng, n_eh=2)
            report = exhaustive_search(mats, scn, TIGHT)
            cf = closed_form_mixed(mats, scn)
            if cf.status is not SolveStatus.OPTIMAL:
                assert report.status is SolveStatus.INFEASIBLE
                continue
            assert report.objective == pytest.approx(cf.objective, rel=1e-4)

    def test_dominates_direct_solve(self, array256):
        rng = np.random.default_rng(97)
        mats, scn = random_geometry_instance(rng, array256, n_eh=2, n_id=2, rate_floor=5.0)
        direct = sca_solve(mats, scn)
        oracle = exhaustive_search(mats, scn)
        assert oracle.objective >= direct.objective * (1 - 1e-9)

    def test_guard_on_slot_count(self, array256):
        rng = np.random.default_rng(101)
        mats, scn = synthetic_single_decoder(rng, n_eh=1)
        big = dataclasses.replace(
            scn, eh_receivers=tuple(Receiver(PolarLocation(0.0, 10.0)) for _ in range(21))
        )
        with pytest.raises(ValueError):
            exhaustive_search(
                dataclasses.replace(
                    mats,
                    lambda_full=np.eye(22),
                    lambda_masked=np.eye(22),
                    c_eh=np.ones(22),
                    g_eh=np.ones(21),
                ),
                big,
            )


class TestEdgeCases:
    def test_iteration_limit_status(self, reference_setup):
        _, scn, mats = reference_setup
        starved = SolverOptions(convergence_threshold=1e-12, max_outer_iters=2)
        report = sca_solve(mats, scn, starved)
        assert report.status is SolveStatus.ITER_LIMIT
        assert report.iterations == 2
        # the iterate returned is still feasible
        assert sum_rate(mats, scn.sigma2, report.allocation) >= scn.rate_floor - 1e-5

    def test_coincident_decoders_not_reported_infeasible(self, reference_setup):
        # two decoders at one point interfere fully, and the rate-maximizing
        # fixed point stalls at the even split [0.5, 0.5] W (1.98 bps/Hz);
        # one decoder alone at the budget reaches 7.13 bps/Hz, above R = 5
        cfg, scn, _ = reference_setup
        first = scn.id_receivers[0]
        scn = dataclasses.replace(scn, id_receivers=(first, first))
        mats = build_matrices(cfg, scn)
        k = mats.n_eh
        single = []
        for m in range(mats.n_id):
            y = np.zeros(mats.n_slots)
            y[k + m] = scn.p0
            single.append(sum_rate(mats, scn.sigma2, y))
        assert fp_rate_max(mats, scn).r_star >= max(single) > scn.rate_floor
        for mask in (None, np.arange(mats.n_slots) >= k):  # proposed, far-field
            report = sca_solve(mats, scn, mask=mask)
            assert report.status is SolveStatus.OPTIMAL
            y = report.allocation.powers
            assert (y >= 0).all() and y.sum() <= scn.p0 * (1 + 1e-12)
            assert sum_rate(mats, scn.sigma2, y) >= scn.rate_floor - 1e-9

    def test_harvester_only_closed_form_needs_harvesters(self, array256):
        scn = Scenario(
            eh_receivers=(),
            id_receivers=(Receiver(PolarLocation(0.0, 400.0)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=0.0,
        )
        mats = build_matrices(array256, scn)
        with pytest.raises(ValueError):
            closed_form_eh_only(mats, scn)

    def test_rate_max_respects_decoder_mask(self, reference_setup):
        _, scn, mats = reference_setup
        mask = np.array([True, True, True, True, False])
        res = fp_rate_max(mats, scn, mask=mask)
        assert res.allocation.powers[4] == 0.0
        cap = math.log2(1 + mats.g_id[0] * scn.p0 / scn.sigma2[0])
        assert res.r_star == pytest.approx(cap, abs=1e-9)

    @pytest.mark.parametrize(
        "decoders", [(True, False), (False, True), (True, True)], ids=["first", "second", "both"]
    )
    def test_rate_max_ignores_harvester_bits(self, reference_setup, decoders):
        # fp_rate_max pins every harvester to zero, so the harvester bits of
        # the mask cannot change a single output bit
        _, scn, mats = reference_setup
        results = [
            fp_rate_max(mats, scn, mask=np.array(harvesters + decoders))
            for harvesters in itertools.product((False, True), repeat=mats.n_eh)
        ]
        first = results[0]
        for res in results[1:]:
            assert res.r_star == first.r_star
            assert res.gamma.tobytes() == first.gamma.tobytes()
            assert res.iterations == first.iterations
            assert res.allocation.powers.tobytes() == first.allocation.powers.tobytes()

    @pytest.mark.parametrize("rate_floor", [0.0, 3.0])
    @pytest.mark.parametrize(
        "call",
        [
            _Reduced,
            lambda mats, scn, mask: sca_solve(mats, scn, mask=mask),
            lambda mats, scn, mask: inner_convex(np.ones(mats.n_slots), mats, scn, mask),
            fp_rate_max,
            closed_form_mixed,
        ],
        ids=["reduced", "sca_solve", "inner_convex", "fp_rate_max", "closed_form_mixed"],
    )
    def test_empty_mask_rejected(self, reference_setup, call, rate_floor):
        _, scn, mats = reference_setup
        scn = dataclasses.replace(scn, rate_floor=rate_floor)
        with pytest.raises(ValueError, match="mask must keep at least one slot active"):
            call(mats, scn, np.zeros(mats.n_slots, dtype=bool))

    def test_mask_shape_checked(self, reference_setup):
        _, scn, mats = reference_setup
        with pytest.raises(ValueError):
            sca_solve(mats, scn, mask=np.array([True, False]))

    def test_closed_form_mixed_needs_one_decoder(self, reference_setup):
        _, scn, mats = reference_setup
        with pytest.raises(ValueError):
            closed_form_mixed(mats, scn)  # two active decoders

    def test_solver_options_validation(self):
        for bad in (0.0, -1e-3, math.nan, math.inf, "0.001", True):
            with pytest.raises(ValueError):
                SolverOptions(convergence_threshold=bad)
        for bad in (0, -1, 2.5, 2.0, "5", True):
            with pytest.raises(ValueError):
                SolverOptions(max_outer_iters=bad)
        opts = SolverOptions(convergence_threshold=1, max_outer_iters=np.int64(1))
        assert opts.max_outer_iters == 1


class TestComplexityTrend:
    def test_outer_round_cost_scales_politely(self, array256):
        # wall time per convexified round should grow no faster than the
        # cubic-and-a-half envelope in the slot count
        import time

        rng = np.random.default_rng(103)
        sizes = [3, 6, 12]
        per_iter = []
        for n in sizes:
            mats, scn = random_geometry_instance(
                rng, array256, n_eh=n - 2, n_id=2, rate_floor=4.0
            )
            start = time.perf_counter()
            report = sca_solve(mats, scn)
            elapsed = time.perf_counter() - start
            per_iter.append(elapsed / max(report.iterations, 1))
        ratio = per_iter[-1] / max(per_iter[0], 1e-9)
        assert ratio <= (sizes[-1] / sizes[0]) ** 3.5
