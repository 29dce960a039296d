import dataclasses
import math

import numpy as np
import pytest

from mfswipt import (
    PolarLocation,
    Receiver,
    SchemeId,
    SolveStatus,
    SolverOptions,
    SweepSpec,
    build_matrices,
    run_scheme,
    run_sweep,
    sum_rate,
    weighted_sum_power,
)


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
        objectives = [r.objective_w for r in rows]
        assert objectives == sorted(objectives)
        assert objectives[0] < objectives[1] < objectives[2]

    def test_rate_sweep_non_increasing(self, reference_setup):
        cfg, scn, _ = reference_setup
        spec = SweepSpec(variable="R", grid=(2.0, 6.0, 10.0), seed=1)
        rows = run_sweep(spec, cfg, scn, [SchemeId.PROPOSED])
        objectives = [r.objective_w for r in rows]
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
            if row.objective_w > 0:
                assert row.objective_dbm == pytest.approx(
                    10 * math.log10(row.objective_w) + 30.0, abs=1e-9
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
