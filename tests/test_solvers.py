import collections
import dataclasses
import itertools
import logging
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    achieved_sinr,
    lp_vertex_oracle,
    random_geometry_instance,
    simplex_grid_best_rate,
    simplex_grid_best_rate_3,
    synthetic_single_decoder,
)
from mfswipt import (
    ArrayConfig,
    PolarLocation,
    Receiver,
    Scenario,
    SchemeId,
    SolveStatus,
    SolverOptions,
    build_matrices,
    dbm_to_watts,
    exhaustive_search,
    fp_rate_max,
    inner_convex,
    rayleigh_distance,
    run_scheme,
    sca_solve,
    sum_rate,
    weighted_sum_power,
)
from mfswipt.solvers import (
    FEASIBILITY_TOLERANCE,
    _least_decoder_power,
    _objective_bound,
    _Reduced,
    _schedules,
)

TIGHT = SolverOptions(convergence_threshold=1e-6)


def harvesters_only(mats):
    """The schedule of every harvester and no decoder."""
    return np.arange(mats.n_slots) < mats.n_eh


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
        harvesters = sca_solve(mats, scn, mask=harvesters_only(mats))
        best = np.argmax(mats.priorities)
        if best < mats.n_eh:  # harvester slot dominates: exact agreement expected
            assert report.objective == pytest.approx(harvesters.objective, rel=1e-6)
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
            best_val, _ = lp_vertex_oracle(mats, scn)
            if best_val is None:
                assert report.status is SolveStatus.INFEASIBLE
                continue
            assert report.status is SolveStatus.OPTIMAL
            assert report.objective == pytest.approx(best_val, rel=1e-4)

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
        report = sca_solve(mats, scn, mask=harvesters_only(mats))
        assert report.allocation.powers[0] == 2.0
        assert report.objective == pytest.approx(mats.c_eh[0] * 2.0, rel=1e-12)

    def test_reference_harvesters_beat_simplex_grid(self, reference_setup):
        _, scn, mats = reference_setup
        relaxed = dataclasses.replace(scn, rate_floor=0.0)
        report = sca_solve(mats, relaxed, mask=harvesters_only(mats))
        assert np.argmax(report.allocation.powers) == np.argmax(mats.priorities[:3])
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
        a = sca_solve(mats, scn, mask=harvesters_only(mats))
        b = sca_solve(mats_scaled, scaled, mask=harvesters_only(mats_scaled))
        assert np.argmax(a.allocation.powers) == np.argmax(b.allocation.powers)

    @pytest.mark.parametrize("decoders", [True, False], ids=["decoders", "no_decoders"])
    def test_rejects_positive_floor_with_decoders(self, reference_setup, decoders):
        # no harvester-only allocation meets a positive floor, with or without
        # decoders in the scenario: the schedule is infeasible at r* = 0
        cfg, scn, mats = reference_setup
        if not decoders:
            scn = dataclasses.replace(scn, id_receivers=(), sigma2=(), rate_floor=3.0)
            mats = build_matrices(cfg, scn)
            assert sca_solve(mats, scn).status is SolveStatus.INFEASIBLE
        report = sca_solve(mats, scn, mask=harvesters_only(mats))
        assert report.status is SolveStatus.INFEASIBLE
        assert report.residuals == {"r_star": 0.0}


class TestClosedFormMixed:
    def test_zero_floor_degenerates_to_priority_vertex(self, array256):
        rng = np.random.default_rng(61)
        mats, scn = synthetic_single_decoder(rng, n_eh=3)
        scn = dataclasses.replace(scn, rate_floor=0.0)
        report = sca_solve(mats, scn)
        best = np.argmax(mats.priorities)
        assert report.allocation.powers[best] == pytest.approx(scn.p0)
        assert report.allocation.powers.sum() == pytest.approx(scn.p0)

    def test_zero_coupling_gives_exact_rate_power(self, array256):
        rng = np.random.default_rng(67)
        mats, scn = synthetic_single_decoder(rng, n_eh=2, common_coupling=0.0)
        report = sca_solve(mats, scn)
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
            report = sca_solve(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            y = report.allocation.powers
            assert y.sum() == scn.p0
            if np.argmax(mats.priorities) != mats.n_eh:
                assert abs(report.residuals["sum_rate"] - scn.rate_floor) < 1e-6

    def test_infeasible_when_budget_below_rate_power(self, array256):
        rng = np.random.default_rng(73)
        mats, scn = synthetic_single_decoder(rng, n_eh=1)
        tiny = dataclasses.replace(scn, p0=1e-9, rate_floor=10.0)
        report = sca_solve(mats, tiny)
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
            report = sca_solve(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                continue
            decoder_took_all = report.allocation.powers[k_slot] == pytest.approx(scn.p0)
            assert decoder_took_all == expect_decoder

    def test_vertex_oracle_agreement(self, array256):
        rng = np.random.default_rng(83)
        for _ in range(30):
            mats, scn = synthetic_single_decoder(rng)
            report = sca_solve(mats, scn)
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
        single = sca_solve(mats, scn)
        assert report.objective == pytest.approx(single.objective, rel=1e-12)

    def test_matches_single_decoder_closed_form(self, array256):
        rng = np.random.default_rng(89)
        for _ in range(3):
            mats, scn = synthetic_single_decoder(rng, n_eh=2)
            report = exhaustive_search(mats, scn, TIGHT)
            single = sca_solve(mats, scn)
            if single.status is not SolveStatus.OPTIMAL:
                assert report.status is SolveStatus.INFEASIBLE
                continue
            assert report.objective == pytest.approx(single.objective, rel=1e-4)

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


def brute_force(mats, scn):
    """`exhaustive_search` without pruning, retracing or skipping:
    `sca_solve` on every schedule that has a slot.  Returns the first strict
    maximum as (objective, allocation), or None when no schedule is feasible
    (the empty schedule scores 0 under a floor R <= FEASIBILITY_TOLERANCE),
    and each solved schedule's report by its bits."""
    best, reports = None, {}
    for mask in _schedules(mats.n_slots):
        if not mask.any():
            if scn.rate_floor <= FEASIBILITY_TOLERANCE:
                best = (0.0, np.zeros(mats.n_slots))
            continue
        report = sca_solve(mats, scn, mask=mask)
        reports["".join("01"[b] for b in mask.tolist())] = report
        if report.status is SolveStatus.OPTIMAL and (best is None or report.objective > best[0]):
            best = (report.objective, report.allocation.powers)
    return best, reports


def report_bits(report):
    """Status, objective, allocation, trace and iterations, floats as bits."""
    return (
        report.status,
        float(report.objective).hex(),
        report.allocation.powers.tobytes(),
        [float(v).hex() for v in report.trace],
        report.iterations,
    )


class SearchLines(logging.Handler):
    """Collects `exhaustive_search`'s debug lines: one per schedule, and the
    search's count line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines, self.counts = [], []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("schedule "):
            self.lines.append(message)
        elif message.startswith("exhaustive "):
            self.counts.append(message)


def logged_search(mats, scn):
    """`exhaustive_search`'s report and its debug lines."""
    logger = logging.getLogger("mfswipt.solvers")
    handler, level = SearchLines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return exhaustive_search(mats, scn), handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


PRUNE_CFG = ArrayConfig(n_antennas=256, carrier_freq=30e9)
PRUNE_Z = rayleigh_distance(PRUNE_CFG)


def drawn_case(eh, idr, p0_dbm, rate_floor):
    """(mats, scenario) of a drawn deployment: [theta, r / Z] per receiver,
    or [theta, r / Z, weight] per harvester, P0 in dBm and the floor R (None
    for r* - 5e-8)."""

    def rx(entry):
        return Receiver(PolarLocation(entry[0], entry[1] * PRUNE_Z), *entry[2:])

    scn = Scenario(
        eh_receivers=tuple(rx(e) for e in eh),
        id_receivers=tuple(rx(e) for e in idr),
        sigma2=(dbm_to_watts(-80.0),) * len(idr),
        p0=dbm_to_watts(p0_dbm),
        rate_floor=0.0,
    )
    mats = build_matrices(PRUNE_CFG, scn)
    if rate_floor is None:
        rate_floor = fp_rate_max(mats, scn).r_star - 5e-8
    return mats, dataclasses.replace(scn, rate_floor=rate_floor)


def three_decoder_draw(seed):
    """Three decoders and no harvester, drawn as the benchmark draws its
    instances: departure angle within 60 degrees of broadside, 1.05-1.3 Z,
    P0 20-44 dBm."""
    rng = np.random.default_rng(seed)
    idr = []
    for _ in range(3):
        phi = math.pi / 2.0 + rng.uniform(-math.pi / 3.0, math.pi / 3.0)
        idr.append((math.cos(phi), float(rng.uniform(1.05, 1.3))))
    return drawn_case((), idr, float(rng.uniform(20.0, 44.0)), 0.0)


@pytest.mark.parametrize("seed", range(16))
def test_three_decoder_rate_max_reaches_grid(seed):
    # no other test checks the sum-rate maximum of three decoders
    mats, scn = three_decoder_draw(seed)
    assert fp_rate_max(mats, scn).r_star >= simplex_grid_best_rate_3(mats, scn) - 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: fp_rate_max switches decoders off for good, as its SQUAREM "
    "step clamps a decoder to 0 W, which the fixed-point map never revives "
    "(r* = 11.42, grid 16.30)",
)
def test_three_close_decoders_rate_max_reaches_grid():
    idr = [(-0.0141, 1.2378), (-0.0251, 1.143), (-0.0306, 1.0807)]
    mats, scn = drawn_case((), idr, 43.2, 0.0)
    assert fp_rate_max(mats, scn).r_star >= simplex_grid_best_rate_3(mats, scn) - 1e-9


FLOORS = ("zero", "drawn", "below_edge", "above_edge", "above")


@st.composite
def pruning_cases(draw, k=st.integers(0, 4), m=st.integers(1, 3), floors=FLOORS):
    """K = 0-4 harvesters at 0.015-0.3 Z, M = 1-3 decoders at 1.05-1.3 Z (K
    and M drawn from `k` and `m`, at least one receiver), P0 20-44 dBm, and a floor of 0, one in
    (0, FEASIBILITY_TOLERANCE] ("tiny"), a drawn 5-95% of the deployment's
    maximum sum-rate r* (0 without a decoder), r* - 5e-8 (at least 0) or
    r* + 5e-8 (where the decoder-only start is `Optimal` within
    FEASIBILITY_TOLERANCE of the floor), or 0.5 bps/Hz above r*.  The
    harvesters weigh 1 each, or "close" weights rho_max / rho_k U(0.97, 1)
    (rho under unit weights) bring their priorities within a few percent of
    each other, so that a slot below the top priority often is a leftover
    candidate."""

    def rx(lo, hi):
        theta = draw(st.floats(-0.8, 0.8))
        return Receiver(PolarLocation(theta, draw(st.floats(lo, hi)) * PRUNE_Z))

    k, m = draw(k), draw(m)
    assume(k or m)
    scn = Scenario(
        eh_receivers=tuple(rx(0.015, 0.3) for _ in range(k)),
        id_receivers=tuple(rx(1.05, 1.3) for _ in range(m)),
        sigma2=(dbm_to_watts(-80.0),) * m,
        p0=dbm_to_watts(draw(st.floats(20.0, 44.0))),
        rate_floor=0.0,
    )
    mats = build_matrices(PRUNE_CFG, scn)
    if k and draw(st.booleans()):  # "close" weights
        rho = mats.priorities[:k]
        eh = tuple(
            dataclasses.replace(r, weight=float(rho.max() / rho[i]) * draw(st.floats(0.97, 1.0)))
            for i, r in enumerate(scn.eh_receivers)
        )
        scn = dataclasses.replace(scn, eh_receivers=eh)
        mats = build_matrices(PRUNE_CFG, scn)
    floor = draw(st.sampled_from(floors))
    if floor == "tiny":
        tiny = draw(st.floats(0.0, FEASIBILITY_TOLERANCE, exclude_min=True))
        scn = dataclasses.replace(scn, rate_floor=tiny)
    elif floor != "zero":
        r_star = fp_rate_max(mats, scn).r_star if m else 0.0
        rate_floor = {
            "drawn": draw(st.floats(0.05, 0.95)) * r_star,
            "below_edge": max(r_star - 5e-8, 0.0),
            "above_edge": r_star + 5e-8,
            "above": r_star + 0.5,
        }[floor]
        scn = dataclasses.replace(scn, rate_floor=rate_floor)
    return mats, scn


# M >= 2 and a positive floor, so that the full solve runs SCA rounds and the
# retrace rule acts: under no floor or one decoder a schedule is an LP
RETRACE_FLOORS = ("drawn", "below_edge", "above_edge")


# two "close"-weight draws of `pruning_cases` (K = 4, M = 2, a drawn floor)
# whose full solves each have two leftover candidates below the top priority,
# harvesters 0 and 3, then 1 and 2, and pinning any of them moves the solve's
# bits: a retrace set missing one of them retraces a schedule wrongly
@example(
    drawn_case(
        [
            [0.6550630953368408, 0.14422956165745943, 6.824572754058605],
            [0.5166658019948938, 0.20206123128696502, 13.43249809870297],
            [-0.5905482149194914, 0.05495712706567977, 0.9728812019460972],
            [-0.3508097229616361, 0.2702631347038466, 23.82580767359742],
        ],
        [[-0.7916634249339565, 1.050609604591966], [0.5663369055435334, 1.2396871672800946]],
        40.368883299073715,
        6.90033741973097,
    )
)
@example(
    drawn_case(
        [
            [-0.5015618918614264, 0.25144817033677097, 80.03389967237192],
            [0.0436432680668426, 0.197384938776746, 48.47349011803924],
            [0.5845872469726547, 0.02808716634023617, 0.9886255071796815],
            [-0.6074424103419045, 0.22320202960688273, 61.38042761751959],
        ],
        [[-0.6363939150374995, 1.051324399906189], [0.7642688774193196, 1.0616987622253522]],
        40.65668601314701,
        18.236674674427036,
    )
)
@settings(max_examples=50)
@given(pruning_cases(m=st.integers(2, 3), floors=RETRACE_FLOORS))
def test_pruning_changes_no_answer(case):
    mats, scn = case
    got, logged = logged_search(mats, scn)
    want, reports = brute_force(mats, scn)
    if want is None:
        assert got.status is SolveStatus.INFEASIBLE
        assert not got.allocation.powers.any()
        # the search states the full schedule's r*, when that solve has one
        full = reports["1" * mats.n_slots]
        assert got.residuals.get("r_star") == full.residuals.get("r_star")
    else:
        assert got.status is SolveStatus.OPTIMAL
        assert float(got.objective).hex() == float(want[0]).hex()
        assert got.allocation.powers.tobytes() == want[1].tobytes()
    # every schedule solved inside the search reports as it does alone;
    # every retraced one takes the full schedule's report, which is bit for
    # bit what it gives alone; every pruned one loses strictly
    assert len(logged.lines) == 2**mats.n_slots
    outcomes = {}
    for line in logged.lines:
        bits, outcome = re.match(r"schedule (\d+) -> (\S+)", line).groups()
        report = reports.get(bits)
        if outcome == "pruned":
            assert report.status is not SolveStatus.OPTIMAL or report.objective < got.objective
        elif outcome == "skipped":
            assert report.status is SolveStatus.INFEASIBLE
        elif outcome == "retraced":
            assert report_bits(report) == report_bits(reports["1" * mats.n_slots])
            assert line.endswith(f"-> retraced {report.status.value} objective={report.objective}")
        elif outcome != "empty":
            assert line.endswith(f"-> {report.status.value} objective={report.objective}")
            outcome = "solved"
        outcomes.setdefault(outcome, []).append(bits)
    kinds = ("solved", "retraced", "pruned", "skipped", "empty")
    counts = {o: len(outcomes.get(o, ())) for o in kinds}
    assert logged.counts == [
        f"exhaustive schedules={2**mats.n_slots} " + " ".join(f"{o}={c}" for o, c in counts.items())
    ]
    # `iterations` counts the rounds of the solved and the retraced schedules
    if want is not None:
        spent = outcomes.get("solved", []) + outcomes.get("retraced", [])
        assert got.iterations == sum(reports[bits].iterations for bits in spent)


# the harvesters alone under a floor that binds nothing: every scheme that
# runs is `Optimal`
@example(drawn_case([[0.3, 0.1], [-0.4, 0.2]], [], 30.0, 5e-8))
@settings(max_examples=100)
@given(
    pruning_cases(m=st.integers(0, 3), floors=("zero", "tiny", "drawn", "below_edge", "above_edge"))
)
def test_oracle_dominates_the_optimizing_schemes(case):
    # `exhaustive` maximizes over the `sca_solve` reports of every schedule,
    # among them the full one (`proposed`), the decoders (`far_field_swipt`)
    # and the greedy pair (`gs_opa`), so it is `Optimal` whenever one of them
    # is, with an objective at least theirs, compared exactly
    mats, scn = case
    oracle = run_scheme(SchemeId.EXHAUSTIVE, mats, scn)
    schemes = [SchemeId.PROPOSED]
    if mats.n_id:
        schemes.append(SchemeId.FAR_FIELD_SWIPT)
        if mats.n_eh:
            schemes.append(SchemeId.GS_OPA)
    for scheme in schemes:
        report = run_scheme(scheme, mats, scn)
        if report.status is SolveStatus.OPTIMAL:
            assert oracle.status is SolveStatus.OPTIMAL, scheme
            assert oracle.objective >= report.objective, scheme


def least_power_by_active_sets(noise, rate):
    """Least total power whose interference-free sum-rate
    sum_m log2(1 + p_m / noise_m) reaches `rate`, by brute force over the
    decoders that take power: each subset S with a common water level mu,
    log2 mu = (rate + sum_S log2 noise_m) / |S|, at or above every noise in S
    is a feasible allocation of power sum_S (mu - noise_m), and the optimum's
    own subset is one of them."""
    best = math.inf
    finite = [v for v in noise if v < math.inf]
    for size in range(1, len(finite) + 1):
        for subset in itertools.combinations(finite, size):
            level = 2.0 ** ((rate + sum(math.log2(v) for v in subset)) / size)
            if all(level >= v for v in subset):
                best = min(best, sum(level - v for v in subset))
    return best


def least_power_on_rate_grid(noise, rate, steps=200):
    """The same minimum over a grid of rate splits r_m >= 0, sum_m r_m = rate,
    each decoder then taking noise_m (2^r_m - 1)."""
    head = np.zeros((1, 0))
    if len(noise) > 1:
        head = itertools.product(range(steps + 1), repeat=len(noise) - 1)
        head = np.array(list(head), dtype=float)
    shares = np.column_stack([head, steps - head.sum(axis=1)])
    r = rate * shares[shares[:, -1] >= 0] / steps
    return float((np.array(noise) * np.expm1(np.log(2.0) * r)).sum(axis=1).min())


@settings(max_examples=40)
@given(pruning_cases())
def test_objective_bound_covers_every_report(case):
    # the prune's bound on every schedule: at most the budget bound it
    # refines, at least every `Optimal` report of the schedule, and at least
    # the computed objective of the relaxation's own best (the decoders at
    # the least interference-free power for R - FEASIBILITY_TOLERANCE, which
    # every report meets, the rest of a budget over by rounding on the
    # top-priority slot); its P_min equals a brute-force minimum
    mats, scn = case
    k, p0 = mats.n_eh, scn.p0
    rho = mats.priorities
    noise = np.array(scn.sigma2) / mats.g_id
    rate = scn.rate_floor - 2.0 * FEASIBILITY_TOLERANCE
    for mask in _schedules(mats.n_slots):
        decoders = mask[k:]
        if not mask.any() or (scn.rate_floor > FEASIBILITY_TOLERANCE and not decoders.any()):
            continue
        least = _least_decoder_power(mats, scn, decoders)
        if rate > 0:
            want = least_power_by_active_sets(noise[decoders].tolist(), rate)
            grid = least_power_on_rate_grid(noise[decoders].tolist(), rate)
            assert want <= grid * (1 + 1e-12) and grid <= want * (1 + 1e-2)
            assert least == pytest.approx(min(want * (1 - 1e-9), p0), rel=1e-10)
        else:
            assert least == 0.0
        bound = _objective_bound(mats, scn, mask, least)
        top = float(rho[mask].max())
        assert bound <= p0 * top * (1 + 1e-12)

        report = sca_solve(mats, scn, mask=mask)
        if report.status is SolveStatus.OPTIMAL:
            assert report.objective <= bound
        met = scn.rate_floor - FEASIBILITY_TOLERANCE
        need = least_power_by_active_sets(noise[decoders].tolist(), met) if met > 0 else 0.0
        if need <= p0:
            dec = float(rho[k:][decoders].max()) if decoders.any() else 0.0
            assert (top * (p0 - need) + dec * need) * (1 + 2.0**-50) <= bound


@settings(max_examples=25)
@given(
    pruning_cases(k=st.integers(1, 3), m=st.integers(2, 3), floors=("drawn",)),
    st.integers(0, 2**32 - 1),
)
def test_masked_solve_ignores_couplings_of_switched_off_slots(case, seed):
    # every solve runs on all K+M slots; a switched-off slot stays at 0 W, so
    # its couplings into the active decoders' interference rows move no bit
    mats, scn = case
    k = mats.n_eh
    rng = np.random.default_rng(seed)
    for mask in _schedules(mats.n_slots):
        decoders = k + np.flatnonzero(mask[k:])
        if len(decoders) < 2 or mask.all():
            continue
        lam = mats.lambda_masked.copy()
        off = np.flatnonzero(~mask)
        lam[np.ix_(decoders, off)] = rng.uniform(0.0, 1.0, (len(decoders), len(off)))
        moved = dataclasses.replace(mats, lambda_masked=lam)
        # decoder rows carry no harvesting weight, so the priorities stay put
        assert moved.priorities.tobytes() == mats.priorities.tobytes()
        want = sca_solve(mats, scn, mask=mask)
        assert report_bits(sca_solve(moved, scn, mask=mask)) == report_bits(want)


# drawn deployments ([theta, r / Z] per receiver, P0 in dBm, floor R, None
# for r* - 5e-8) on which a schedule that keeps every decoder ends off the
# full schedule's report, although it drops only one slot the retrace rule
# asks for
RETRACE_CASES = {
    # harvester 0 has the top priority, but only harvester 1 is ever the
    # leftover candidate: 0111 lacks the top-priority slot and starts its
    # price search elsewhere, 1011 lacks harvester 1
    "top_never_takes_leftover": (
        [[0.13842734062170015, 0.11124174541084872], [-0.6567699392990296, 0.11452386099760099]],
        [[0.24480152360761176, 1.0964946030547804], [0.14749126728108908, 1.2780273219398683]],
        28.76798882889927,
        7.306846769982733,
        ("0111", "1011"),
    ),
    # the decoders fill the budget at every maximization, so no slot ever
    # takes a leftover, yet candidate harvester 1's reduced cost bounds their
    # price
    "candidate_without_budget": (
        [
            [-0.6088047392739917, 0.14377429575681044],
            [0.048465906237189715, 0.09011665671618628],
            [0.16719652799966167, 0.18498335790318093],
            [0.35175829761319943, 0.08025273133495385],
        ],
        [
            [0.35204783750220914, 1.2219359904883251],
            [-0.546563896014278, 1.174266608479979],
            [0.1817024552427846, 1.179183412244626],
        ],
        26.948218208957226,
        None,
        ("1011111",),
    ),
}


@pytest.mark.parametrize("name", RETRACE_CASES)
def test_retrace_needs_every_condition(name):
    *deployment, schedules = RETRACE_CASES[name]
    mats, scn = drawn_case(*deployment)
    full = sca_solve(mats, scn)
    assert full.iterations > 0
    _, logged = logged_search(mats, scn)
    outcome = dict(re.match(r"schedule (\d+) -> (\S+)", line).groups() for line in logged.lines)
    for bits in schedules:
        alone = sca_solve(mats, scn, mask=np.array([b == "1" for b in bits]))
        assert report_bits(alone) != report_bits(full)
        assert outcome[bits] != "retraced"


def test_search_counts_each_outcome_on_bundled_scenario(reference_setup):
    # at 20 dBm the full schedule's report has only harvester 0 as its
    # leftover candidate, and the three schedules that keep it and both
    # decoders (harvester 0 has the top priority) retrace the full solve
    cfg, scn, _ = reference_setup
    scn = dataclasses.replace(scn, p0=dbm_to_watts(20.0))
    mats = build_matrices(cfg, scn)
    assert sca_solve(mats, scn).leftover == frozenset({0})
    got, logged = logged_search(mats, scn)
    assert logged.counts == [
        "exhaustive schedules=32 solved=1 retraced=3 pruned=20 skipped=7 empty=1"
    ]
    retraced = [line.split()[1] for line in logged.lines if "-> retraced " in line]
    assert retraced == ["10011", "10111", "11011"]
    full = sca_solve(mats, scn)
    for bits in retraced:
        mask = np.array([b == "1" for b in bits])
        assert report_bits(sca_solve(mats, scn, mask=mask)) == report_bits(full)
    # the full schedule is solved once and retraced three times
    assert report_bits(got) == report_bits(
        dataclasses.replace(full, iterations=4 * full.iterations)
    )


def test_leftover_is_none_without_rounds(reference_setup):
    # the LP path (no floor, or one decoder) and an unmet floor run no round
    _, scn, mats = reference_setup
    no_floor = sca_solve(mats, dataclasses.replace(scn, rate_floor=0.0))
    one_decoder = sca_solve(mats, scn, mask=np.arange(mats.n_slots) <= mats.n_eh)
    unmet = sca_solve(mats, dataclasses.replace(scn, rate_floor=15.0))
    assert no_floor.status is SolveStatus.OPTIMAL
    assert one_decoder.status is SolveStatus.OPTIMAL
    assert unmet.status is SolveStatus.INFEASIBLE
    for report in (no_floor, one_decoder, unmet):
        assert report.iterations == 0
        assert report.leftover is None


class ThreadLines(logging.Handler):
    """Collects `exhaustive_search`'s schedule and count lines per thread."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = collections.defaultdict(list)

    def emit(self, record):
        message = record.getMessage()
        if message.startswith(("schedule ", "exhaustive ")):
            self.lines[record.threadName].append(message)


def test_concurrent_searches_match_sequential(reference_setup, array256):
    # two searches at once, on instances with two decoders each: each
    # reports and logs as it does alone, so no state of one search leaks
    # into the other
    cfg, scn, _ = reference_setup
    scn = dataclasses.replace(scn, p0=dbm_to_watts(20.0))
    drawn, drawn_scn = random_geometry_instance(
        np.random.default_rng(6), array256, n_eh=4, n_id=2, rate_floor=0.0
    )
    r_star = fp_rate_max(drawn, drawn_scn).r_star
    cases = {
        "bundled": (build_matrices(cfg, scn), scn),
        "drawn": (drawn, dataclasses.replace(drawn_scn, rate_floor=0.9 * r_star)),
    }
    want = {}
    for name, (mats, s) in cases.items():
        report, logged = logged_search(mats, s)
        want[name] = (report_bits(report), logged.lines + logged.counts)
    # the drawn search solves schedules besides the full one
    assert int(re.search(r" solved=(\d+) ", want["drawn"][1][-1]).group(1)) > 1

    repeats = 3
    barrier = threading.Barrier(len(cases))
    got, errors = collections.defaultdict(list), []

    def search(name):
        try:
            barrier.wait()
            for _ in range(repeats):
                got[name].append(report_bits(exhaustive_search(*cases[name])))
        except Exception as exc:  # reaches the main thread through `errors`
            errors.append(exc)

    logger = logging.getLogger("mfswipt.solvers")
    handler, level = ThreadLines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=search, args=(n,), name=n) for n in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert errors == []
    for name, (bits, lines) in want.items():
        assert got[name] == [bits] * repeats
        assert handler.lines[name] == lines * repeats


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
        # the harvester-only schedule of a scenario without harvesters is empty
        with pytest.raises(ValueError, match="mask must keep at least one slot active"):
            sca_solve(mats, scn, mask=harvesters_only(mats))

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
        ],
        ids=["reduced", "sca_solve", "inner_convex", "fp_rate_max"],
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
