import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfswipt import (
    ArrayConfig,
    PolarLocation,
    Receiver,
    Scenario,
    SchemeId,
    SolveStatus,
    SolverOptions,
    SweepSpec,
    build_matrices,
    dbm_to_watts,
    rayleigh_distance,
    run_scheme,
    run_sweep,
    sum_rate,
    weighted_sum_power,
)
from mfswipt import benchmarks, solvers
from mfswipt.benchmarks import ResultRow
from mfswipt.solvers import FEASIBILITY_TOLERANCE
from mfswipt.cli import _fmt


class TestRunScheme:
    def test_all_scheduled_equal_split(self, reference_setup):
        _, scn, mats = reference_setup
        report = run_scheme(SchemeId.AS_EPA, mats, scn)
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.allocation.powers, 0.2)
        assert report.objective == pytest.approx(
            weighted_sum_power(mats, report.allocation.powers), rel=1e-12
        )

    def test_all_scheduled_infeasible_floor(self, reference_setup):
        _, scn, mats = reference_setup
        hard = dataclasses.replace(scn, rate_floor=9.0)  # equal split tops out near 6.4
        report = run_scheme(SchemeId.AS_EPA, mats, hard)
        assert report.status is SolveStatus.INFEASIBLE

    def test_optimized_schedule_equal_split_beats_full_schedule(self, reference_setup):
        _, scn, mats = reference_setup
        os_epa = run_scheme(SchemeId.OS_EPA, mats, scn)
        as_epa = run_scheme(SchemeId.AS_EPA, mats, scn)
        assert os_epa.status is SolveStatus.OPTIMAL
        assert os_epa.objective >= as_epa.objective - 1e-15

    def test_greedy_pairing_schedules_two_slots(self, reference_setup):
        _, scn, mats = reference_setup
        report = run_scheme(SchemeId.GS_OPA, mats, scn)
        assert report.status is SolveStatus.OPTIMAL
        scheduled = report.allocation.scheduled_mask(scn.p0)
        assert scheduled.sum() <= 2
        achieved = sum_rate(mats, scn.sigma2, report.allocation)
        assert achieved >= scn.rate_floor - 1e-6

    def test_far_field_scheme_ignores_harvest_beams(self, reference_setup):
        _, scn, mats = reference_setup
        report = run_scheme(SchemeId.FAR_FIELD_SWIPT, mats, scn)
        assert report.status is SolveStatus.OPTIMAL
        assert np.all(report.allocation.powers[:3] == 0.0)
        assert report.objective > 0  # leakage from decoder beams still harvests

    def test_far_field_objective_flat_below_single_decoder_cap(self, reference_setup):
        # resolving the flatness needs solver precision well above the
        # convergence threshold's noise floor
        _, scn, mats = reference_setup
        tight = SolverOptions(convergence_threshold=1e-7)
        values = []
        for floor in (1.0, 3.0, 5.0, 7.0):
            report = run_scheme(
                SchemeId.FAR_FIELD_SWIPT, mats, dataclasses.replace(scn, rate_floor=floor), tight
            )
            assert report.status is SolveStatus.OPTIMAL
            values.append(report.objective)
        spread = (max(values) - min(values)) / max(values)
        assert spread < 1e-9

    def test_scheme_ordering_on_reference_instance(self, reference_setup):
        _, scn, mats = reference_setup
        proposed = run_scheme(SchemeId.PROPOSED, mats, scn)
        greedy = run_scheme(SchemeId.GS_OPA, mats, scn)
        oracle = run_scheme(SchemeId.EXHAUSTIVE, mats, scn)
        assert greedy.objective <= proposed.objective * (1 + 1e-9)
        assert proposed.objective <= oracle.objective * (1 + 1e-9)

    def test_greedy_needs_both_kinds(self, array256):
        import mfswipt

        scn = mfswipt.Scenario(
            eh_receivers=(),
            id_receivers=(mfswipt.Receiver(mfswipt.PolarLocation(0.0, 400.0)),),
            sigma2=(1e-11,),
            p0=1.0,
            rate_floor=1.0,
        )
        mats = mfswipt.build_matrices(array256, scn)
        with pytest.raises(ValueError):
            run_scheme(SchemeId.GS_OPA, mats, scn)

    def test_far_field_needs_a_decoder(self, reference_setup):
        cfg, scn, _ = reference_setup
        scn = dataclasses.replace(scn, id_receivers=(), sigma2=(), rate_floor=0.0)
        mats = build_matrices(cfg, scn)
        with pytest.raises(ValueError, match="far-field scheme needs at least one decoder"):
            run_scheme(SchemeId.FAR_FIELD_SWIPT, mats, scn)

    def test_equal_split_schedule_search_guard_on_slot_count(self, reference_setup, monkeypatch):
        # os_epa enumerates schedules as exhaustive_search does, and refuses
        # 22 slots before it splits power over any of them
        def no_split(*args):
            pytest.fail("os_epa enumerated schedules past the slot guard")

        monkeypatch.setattr("mfswipt.benchmarks._equal_split_report", no_split)
        _, scn, mats = reference_setup
        big = dataclasses.replace(
            scn, eh_receivers=tuple(Receiver(PolarLocation(0.0, 10.0)) for _ in range(20))
        )
        mats = dataclasses.replace(
            mats,
            lambda_full=np.eye(22),
            lambda_masked=np.eye(22),
            c_eh=np.ones(22),
            g_eh=np.ones(20),
        )
        with pytest.raises(ValueError, match="22 slots exceeds"):
            run_scheme(SchemeId.OS_EPA, mats, big)


FAST_SCHEMES = [SchemeId.PROPOSED, SchemeId.GS_OPA, SchemeId.AS_EPA]


class TestRunSweep:
    def test_deterministic_rows(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="P0_dBm", grid=(20.0, 28.0), seed=11)
        rows1 = run_sweep(spec, cfg, scn, FAST_SCHEMES)
        rows2 = run_sweep(spec, cfg, scn, FAST_SCHEMES)
        assert rows1 == rows2

    def test_cardinality_and_order(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="P0_dBm", grid=(20.0, 24.0, 28.0), seed=1)
        rows = run_sweep(spec, cfg, scn, FAST_SCHEMES)
        assert len(rows) == 3 * len(FAST_SCHEMES)
        assert [r.sweep_value for r in rows[:3]] == [20.0, 20.0, 20.0]
        assert rows[0].scheme == "proposed"

    def test_budget_sweep_increases_proposed_objective(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="P0_dBm", grid=(20.0, 28.0, 36.0), seed=1)
        rows = [
            r
            for r in run_sweep(spec, cfg, scn, [SchemeId.PROPOSED])
            if r.scheme == "proposed"
        ]
        objectives = [r.objective_W for r in rows]
        assert objectives == sorted(objectives)
        assert objectives[0] < objectives[1] < objectives[2]

    def test_rate_sweep_non_increasing(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="R", grid=(2.0, 6.0, 10.0), seed=1)
        rows = run_sweep(spec, cfg, scn, [SchemeId.PROPOSED])
        objectives = [r.objective_W for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(objectives, objectives[1:]))

    def test_added_harvesters_nest_across_grid(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="K", grid=(4, 5), seed=5)
        rows = run_sweep(spec, cfg, scn, [SchemeId.AS_EPA])
        assert all(r.status == "Optimal" for r in rows)
        assert len(rows[0].scheduled_mask) == 6
        assert len(rows[1].scheduled_mask) == 7

    def test_grid_below_base_count_rejected(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="K", grid=(2,), seed=5)
        rows = run_sweep(spec, cfg, scn, [SchemeId.AS_EPA])
        assert rows[0].status.startswith("Error")

    def test_failures_do_not_abort(self, reference_setup):
        cfg, scn, _ = reference_setup
        # greedy pairing errors on a decoder-only deployment; other rows survive
        decoder_only = dataclasses.replace(
            scn, eh_receivers=(), rate_floor=2.0
        )
        spec = SweepSpec(variable="R", grid=(1.0, 2.0), seed=1)
        rows = run_sweep(spec, cfg, decoder_only, [SchemeId.GS_OPA, SchemeId.PROPOSED])
        statuses = {(r.scheme, r.sweep_value): r.status for r in rows}
        assert statuses[("gs_opa", 1.0)].startswith("Error")
        assert statuses[("proposed", 1.0)] == "Optimal"

    def test_optimal_rows_revalidate(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="R", grid=(3.0, 6.0), seed=1)
        rows = run_sweep(spec, cfg, scn, FAST_SCHEMES)
        for row in rows:
            if row.status != "Optimal":
                continue
            assert row.sum_rate_bpshz >= row.sweep_value - 1e-5
            if row.objective_W > 0:
                assert row.objective_dBm == pytest.approx(
                    10 * math.log10(row.objective_W) + 30.0, abs=1e-9
                )

    def test_wall_time_suppressed_by_default(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="R", grid=(3.0,), seed=1)
        rows = run_sweep(spec, cfg, scn, [SchemeId.AS_EPA])
        assert rows[0].wall_ms is None
        timed = SweepSpec(variable="R", grid=(3.0,), seed=1, record_timing=True)
        rows = run_sweep(timed, cfg, scn, [SchemeId.AS_EPA])
        assert rows[0].wall_ms is not None and rows[0].wall_ms >= 0.0

    def test_bad_variable_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="bandwidth", grid=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(variable="R", grid=())
        with pytest.raises(ValueError):
            SweepSpec(variable="R", grid=(3.0, 1.0))

    @pytest.mark.parametrize("variable", ["K", "M"])
    def test_receiver_counts_must_be_whole(self, variable):
        with pytest.raises(ValueError, match="whole numbers"):
            SweepSpec(variable=variable, grid=(3.0, 3.5))
        with pytest.raises(ValueError, match="whole numbers"):
            SweepSpec(variable=variable, grid=(math.nan,))
        assert SweepSpec(variable=variable, grid=(3, 4.0)).grid == (3, 4.0)
        assert SweepSpec(variable="R", grid=(3.5,)).grid == (3.5,)

    @pytest.mark.parametrize("variable", ["R", "P0_dBm"])
    @pytest.mark.parametrize(
        "grid", [(math.nan,), (5.0, math.nan, 1.0), (math.inf,), (-math.inf, 20.0)]
    )
    def test_grid_values_must_be_finite(self, variable, grid):
        # NaN compares false either way, so it passed the sortedness check
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(variable=variable, grid=grid)

    @pytest.mark.parametrize("variable", ["P0_dBm", "R", "K", "M"])
    def test_negative_seed_refused(self, variable):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SweepSpec(variable=variable, grid=(3.0,), seed=-1)
        assert SweepSpec(variable=variable, grid=(3.0,), seed=0).seed == 0


EPA_CFG = ArrayConfig(n_antennas=256, carrier_freq=30e9)
EPA_Z = rayleigh_distance(EPA_CFG)


def unscreened_equal_split(mats, scn, masks):
    """The equal-power baselines without the interference-free screen: the
    first split, in `masks` order, whose sum-rate reaches
    R - FEASIBILITY_TOLERANCE and that beats every earlier one strictly.
    Returns (allocation, objective, sum-rate) or None."""
    best = None
    for mask in masks:
        count = int(mask.sum())
        if count == 0:
            continue
        y = np.where(mask, scn.p0 / count, 0.0)
        obj = float(mats.priorities @ y)
        if best is not None and not obj > best[1]:
            continue
        rate = sum_rate(mats, scn.sigma2, y)
        if rate >= scn.rate_floor - FEASIBILITY_TOLERANCE:
            best = (y, obj, rate)
    return best


@st.composite
def equal_split_cases(draw):
    """K = 0-4 harvesters at 0.015-0.3 Z and M = 0-3 decoders at 1.05-1.3 Z
    (at least one receiver), P0 20-44 dBm, and a floor of 0, a drawn
    0.05-12 bps/Hz, or one at the edge of a drawn schedule's equal split:
    within a few ulps of where its sum-rate r passes the floor test
    (R = r + FEASIBILITY_TOLERANCE), or of where its interference-free bound
    b passes the screen (R - FEASIBILITY_TOLERANCE - 1e-12 R = b)."""

    def rx(lo, hi):
        theta = draw(st.floats(-0.8, 0.8))
        return Receiver(PolarLocation(theta, draw(st.floats(lo, hi)) * EPA_Z))

    k = draw(st.integers(0, 4))
    m = draw(st.integers(0 if k else 1, 3))
    scn = Scenario(
        eh_receivers=tuple(rx(0.015, 0.3) for _ in range(k)),
        id_receivers=tuple(rx(1.05, 1.3) for _ in range(m)),
        sigma2=(dbm_to_watts(-80.0),) * m,
        p0=dbm_to_watts(draw(st.floats(20.0, 44.0))),
        rate_floor=0.0,
    )
    mats = build_matrices(EPA_CFG, scn)
    kind = draw(st.sampled_from(["zero", "drawn", "rate_edge", "screen_edge"]))
    if kind == "drawn":
        floor = draw(st.floats(0.05, 12.0))
    elif kind != "zero":
        mask = np.array(draw(st.lists(st.booleans(), min_size=k + m, max_size=k + m)))
        mask[k + m - 1] = True
        p = scn.p0 / int(mask.sum())
        if kind == "rate_edge":
            rate = sum_rate(mats, scn.sigma2, np.where(mask, p, 0.0))
            edge = rate + FEASIBILITY_TOLERANCE
        else:
            free = 0.0
            for g, s2, on in zip(mats.g_id.tolist(), scn.sigma2, mask[k:].tolist()):
                free += math.log2(1.0 + g * p / s2) if on else 0.0
            edge = (free + FEASIBILITY_TOLERANCE) / (1.0 - 1e-12)
        floor = edge
        for _ in range(draw(st.integers(0, 3))):
            floor = math.nextafter(floor, draw(st.sampled_from([0.0, math.inf])))
        floor = max(floor, 0.0)
    if kind != "zero":
        scn = dataclasses.replace(scn, rate_floor=floor)
    return mats, scn


def assert_same_split(report, want):
    if want is None:
        assert report.status is SolveStatus.INFEASIBLE
        assert not report.allocation.powers.any()
        return
    y, obj, rate = want
    assert report.status is SolveStatus.OPTIMAL
    assert report.allocation.powers.tobytes() == y.tobytes()
    assert float(report.objective).hex() == obj.hex()
    assert float(report.residuals["sum_rate"]).hex() == rate.hex()


@settings(max_examples=150)
@given(equal_split_cases())
def test_equal_split_screen_changes_no_answer(case):
    # the interference-free screen drops only splits that fail the floor
    # test anyway, so both equal-power baselines report bit for bit what
    # the unscreened loop finds
    mats, scn = case
    n = mats.n_slots
    masks = [np.array(bits) for bits in itertools.product((False, True), repeat=n)]
    assert_same_split(
        run_scheme(SchemeId.OS_EPA, mats, scn), unscreened_equal_split(mats, scn, masks)
    )
    assert_same_split(
        run_scheme(SchemeId.AS_EPA, mats, scn),
        unscreened_equal_split(mats, scn, [np.ones(n, dtype=bool)]),
    )


def test_equal_split_screen_skips_rate_evaluations(reference_setup, monkeypatch):
    # at 20 dBm only the split that wins needs its rate evaluated; without
    # the screen, 31 splits that beat the incumbent of their turn were
    cfg, scn, _ = reference_setup
    scn = dataclasses.replace(scn, p0=dbm_to_watts(20.0))
    mats = build_matrices(cfg, scn)
    evaluated = []
    report = benchmarks._report

    def counting(mats, scenario, y, *args, **kwargs):
        evaluated.append(y)
        return report(mats, scenario, y, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "_report", counting)
    got = run_scheme(SchemeId.OS_EPA, mats, scn)
    assert got.status is SolveStatus.OPTIMAL
    assert len(evaluated) <= 2


def csv_cells(row):
    """A row's CSV cells, NaN written as an empty cell."""
    return [_fmt(v) for v in dataclasses.astuple(row)]


@pytest.fixture
def full_solves(monkeypatch):
    """The budget P0 of every full-schedule `sca_solve` call (no mask)."""
    calls = []
    inner = solvers.sca_solve

    def counting(mats, scenario, opts=SolverOptions(), mask=None):
        if mask is None:
            calls.append(scenario.p0)
        return inner(mats, scenario, opts, mask)

    monkeypatch.setattr(solvers, "sca_solve", counting)
    return calls


class TestSharedFullSolve:
    @pytest.mark.parametrize("first", [SchemeId.PROPOSED, SchemeId.EXHAUSTIVE])
    def test_one_full_solve_per_point(self, reference_setup, full_solves, first):
        # proposed and exhaustive share one full-schedule solve per grid
        # point in either order, and the rows are those of separate runs
        cfg, scn, _ = reference_setup
        schemes = [first] + [s for s in SchemeId if s is not first]
        spec = SweepSpec(variable="P0_dBm", grid=(20.0, 24.0), seed=1)
        rows = run_sweep(spec, cfg, scn, schemes)
        assert full_solves == [dbm_to_watts(20.0), dbm_to_watts(24.0)]
        alone = []
        for value in spec.grid:
            point = dataclasses.replace(scn, p0=dbm_to_watts(value))
            mats = build_matrices(cfg, point)
            for scheme in schemes:
                report = run_scheme(scheme, mats, point)
                row = ResultRow.from_report("P0_dBm", value, scheme.value, report, point, seed=1)
                alone.append(row)
        assert [csv_cells(r) for r in rows] == [csv_cells(r) for r in alone]
        assert not any(r.status.startswith("Error") for r in rows)

    def test_no_sharing_outside_a_sweep(self, reference_setup, full_solves):
        # the same objects twice, outside run_sweep: two solves
        _, scn, mats = reference_setup
        first = run_scheme(SchemeId.PROPOSED, mats, scn)
        second = run_scheme(SchemeId.PROPOSED, mats, scn)
        assert full_solves == [scn.p0, scn.p0]
        assert first is not second

    def test_scope_per_point_and_none_after(self, reference_setup, monkeypatch, full_solves):
        # each grid point opens its own scope and closes it, also when the
        # point's last row is an error row or the point fails before its runs
        cfg, scn, _ = reference_setup
        scopes = []
        inner = benchmarks.run_scheme

        def spying(scheme, mats, scenario, opts):
            scopes.append(solvers._FULL.get())
            return inner(scheme, mats, scenario, opts)

        monkeypatch.setattr(benchmarks, "run_scheme", spying)
        decoder_only = dataclasses.replace(scn, eh_receivers=(), rate_floor=2.0)
        spec = SweepSpec(variable="R", grid=(1.0, 2.0), seed=1)
        rows = run_sweep(spec, cfg, decoder_only, [SchemeId.PROPOSED, SchemeId.GS_OPA])
        assert [r.status.startswith("Error") for r in rows] == [False, True] * 2
        assert len(scopes) == 4 and all(s is not None for s in scopes)
        assert scopes[0] is scopes[1] and scopes[2] is scopes[3] and scopes[0] is not scopes[2]
        assert solvers._FULL.get() is None
        below = SweepSpec(variable="K", grid=(2,), seed=5)
        assert run_sweep(below, cfg, scn, [SchemeId.PROPOSED])[0].status.startswith("Error")
        assert solvers._FULL.get() is None
        full_solves.clear()
        run_scheme(SchemeId.PROPOSED, build_matrices(cfg, decoder_only), decoder_only)
        assert len(full_solves) == 1
