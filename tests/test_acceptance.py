"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
live).  Tolerances are fixed here and nowhere else."""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    achieved_sinr,
    interference_free_rate_bound,
    lp_vertex_oracle,
    random_geometry_instance,
    simplex_grid_best_rate,
    synthetic_single_decoder,
)
from mfswipt import (
    ArrayConfig,
    DegenerateGeometryError,
    PolarLocation,
    Receiver,
    Scenario,
    SchemeId,
    SolveStatus,
    SolverOptions,
    SweepSpec,
    build_matrices,
    correlation_approx,
    correlation_exact,
    dbm_to_watts,
    exhaustive_search,
    fp_rate_max,
    fresnel_min_distance,
    rayleigh_distance,
    run_sweep,
    sca_solve,
    sum_rate,
    watts_to_dbm,
    weighted_sum_power,
)
from mfswipt.solvers import FEASIBILITY_TOLERANCE


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {title} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[PASS] criterion {num:2d}: {title} ({time.perf_counter() - start:.1f}s)")


def test_c01_rayleigh_distance_reference():
    with criterion(1, "Rayleigh distance, 0.5 m aperture at 30 GHz = 50 m"):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9, aperture=0.5)
        assert rayleigh_distance(cfg) == 50.0


def test_c02_fresnel_region_edge():
    with criterion(2, "Fresnel-region edge, 0.5 m aperture = 1.768 m"):
        cfg = ArrayConfig(n_antennas=256, carrier_freq=30e9, aperture=0.5)
        assert abs(fresnel_min_distance(cfg) - 1.768) <= 1e-3


def test_c03_closed_form_correlation_fidelity(array256):
    with criterion(3, "closed-form correlation within 0.05 (median 0.01) on a 50x50 grid"):
        z = rayleigh_distance(array256)
        rmin = fresnel_min_distance(array256)
        ref = PolarLocation(0.05, 0.03 * z)
        errors = []
        for theta in np.linspace(-1.0, 1.0, 50):
            for r in np.geomspace(rmin, 2 * z, 50):
                loc = PolarLocation(float(theta), float(r))
                exact = correlation_exact(array256, ref, loc)
                try:
                    approx = correlation_approx(array256, ref, loc)
                except DegenerateGeometryError:
                    continue
                errors.append(abs(exact - approx))
        errors = np.asarray(errors)
        assert len(errors) >= 2400
        assert errors.max() <= 0.05, f"worst error {errors.max():.4f}"
        assert np.median(errors) <= 0.01, f"median error {np.median(errors):.4f}"


def test_c04_harvester_only_closed_form_vs_vertex_oracle(array256):
    with criterion(4, "harvester-only schedule = simplex-vertex oracle, 100 instances"):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(100):
            k = int(rng.integers(1, 7))
            mats, scn = random_geometry_instance(rng, array256, n_eh=k, n_id=0, rate_floor=0.0)
            weights = rng.uniform(0.5, 2.0, k)
            scn = dataclasses.replace(
                scn,
                eh_receivers=tuple(
                    dataclasses.replace(r, weight=float(w))
                    for r, w in zip(scn.eh_receivers, weights)
                ),
            )
            mats = build_matrices(array256, scn)
            report = sca_solve(mats, scn, mask=np.arange(mats.n_slots) < k)
            vertex_best = max(
                weighted_sum_power(mats, scn.p0 * np.eye(k)[j]) for j in range(k)
            )
            rel = abs(report.objective - vertex_best) / vertex_best
            assert rel <= 1e-8, f"relative error {rel:.2e}"
            checked += 1
        assert checked == 100


def test_c05_single_decoder_closed_form_vs_lp_oracle():
    with criterion(5, "single-decoder schedule = LP vertex oracle, 100 instances"):
        rng = np.random.default_rng(2025)
        solved = 0
        for _ in range(100):
            mats, scn = synthetic_single_decoder(rng)
            report = sca_solve(mats, scn)
            oracle_value, _ = lp_vertex_oracle(mats, scn)
            if report.status is not SolveStatus.OPTIMAL:
                assert oracle_value is None
                continue
            rel = abs(report.objective - oracle_value) / max(oracle_value, 1e-300)
            assert rel <= 1e-6, f"relative error {rel:.2e}"
            y = report.allocation.powers
            assert y.sum() == scn.p0  # budget tight exactly
            best = int(np.argmax(mats.priorities))
            if best != mats.n_eh:  # decoder power set by rate tightness
                assert abs(report.residuals["rate_slack"]) <= 1e-6
            solved += 1
        assert solved >= 80


@pytest.mark.parametrize("floor", [5.0, 10.0, 15.0])
def test_c06_sca_convergence_on_reference(reference_setup, floor):
    """Each floor is solved at the bundled budget and at 40 dBm, the lowest
    point of c08's budget grid at which 15 bps/Hz is attainable.  Solver-free
    certificates decide each case: a floor above the interference-free bound
    must come back as the documented Infeasible report, a floor the grid
    oracle meets must converge."""
    _, scn, mats = reference_setup
    budgets = (scn.p0, dbm_to_watts(40.0))
    names = " and ".join(f"{watts_to_dbm(p0):g}" for p0 in budgets)
    title = f"convexification loop converges within 10 rounds at R={floor:g}, P0 = {names} dBm"
    with criterion(6, title):
        for p0 in budgets:
            case = dataclasses.replace(scn, p0=p0, rate_floor=floor)
            bound = interference_free_rate_bound(mats, case)
            best = simplex_grid_best_rate(mats, case)
            where = (
                f"R={floor:g} at P0={watts_to_dbm(p0):g} dBm (interference-free bound "
                f"{bound:.2f}, grid-oracle maximum {best:.2f} bps/Hz)"
            )
            report = sca_solve(mats, case)
            if bound < floor:
                assert report.status is SolveStatus.INFEASIBLE, (
                    f"{where} is unattainable but status={report.status.value}"
                )
                assert math.isnan(report.objective)
                assert report.iterations == 0
                assert report.trace == ()
                assert not report.allocation.powers.any()
                assert fp_rate_max(mats, case).r_star < floor
            elif best >= floor:
                assert report.status is SolveStatus.OPTIMAL, (
                    f"{where} not solved: status={report.status.value}"
                )
                assert report.iterations <= 10, f"{where} needed {report.iterations} rounds"
                scale = max(abs(t) for t in report.trace)
                assert all(
                    b >= a - 1e-9 * scale for a, b in zip(report.trace, report.trace[1:])
                ), f"{where}: objective trace decreased"
                achieved = sum_rate(mats, case.sigma2, report.allocation)
                assert achieved >= floor - FEASIBILITY_TOLERANCE, (
                    f"{where}: allocation reaches only {achieved:.6f} bps/Hz"
                )
                assert report.allocation.powers.sum() <= p0 * (1 + 1e-9), f"{where}: over budget"
            else:
                pytest.fail(f"{where}: neither certificate decides whether the floor is attainable")


def test_c07_exhaustive_vs_proposed_gap(reference_setup):
    with criterion(7, "proposed within 2% of the schedule oracle, never above it"):
        _, scn, mats = reference_setup
        proposed = sca_solve(mats, scn)
        oracle = exhaustive_search(mats, scn)
        assert proposed.status is SolveStatus.OPTIMAL
        assert oracle.status is SolveStatus.OPTIMAL
        gap = (oracle.objective - proposed.objective) / oracle.objective
        assert gap <= 0.02, f"gap {gap:.2%}"
        assert proposed.objective <= oracle.objective * (1 + 1e-6)


SWEEP_SCHEMES = [
    SchemeId.EXHAUSTIVE,
    SchemeId.PROPOSED,
    SchemeId.FAR_FIELD_SWIPT,
    SchemeId.GS_OPA,
    SchemeId.OS_EPA,
    SchemeId.AS_EPA,
]

HEURISTICS = {"far_field_swipt", "gs_opa", "os_epa", "as_epa"}


def _assert_dominance(rows):
    by_point: dict = {}
    for row in rows:
        by_point.setdefault(row.sweep_value, {})[row.scheme] = row
    for value, schemes in by_point.items():
        exhaustive = schemes["exhaustive"]
        proposed = schemes["proposed"]
        optimal_here = [s for s, r in schemes.items() if r.status == "Optimal"]
        if optimal_here:
            assert exhaustive.status == "Optimal", f"oracle infeasible at {value}"
            assert proposed.status == "Optimal", f"proposed infeasible at {value}"
        for name in optimal_here:
            row = schemes[name]
            assert row.objective_w <= exhaustive.objective_w * (1 + 1e-6), (
                f"{name} beats the schedule oracle at {value}"
            )
            if name in HEURISTICS:
                assert row.objective_w <= proposed.objective_w * (1 + 1e-6), (
                    f"{name} beats the proposed scheme at {value}"
                )


def test_c08_trend_suite(reference_setup):
    with criterion(8, "trend suite: budget/rate/receiver-count sweeps with dominance"):
        cfg, scn, mats = reference_setup
        opts = SolverOptions(convergence_threshold=1e-5)

        budget_rows = run_sweep(
            SweepSpec(variable="P0_dBm", grid=tuple(range(20, 45, 4)), seed=0),
            cfg,
            scn,
            SWEEP_SCHEMES,
            opts,
        )
        proposed = [r for r in budget_rows if r.scheme == "proposed"]
        assert all(r.status == "Optimal" for r in proposed)
        values = [r.objective_w for r in proposed]
        assert all(b > a for a, b in zip(values, values[1:])), "not strictly increasing in budget"
        _assert_dominance(budget_rows)

        rate_rows = run_sweep(
            SweepSpec(variable="R", grid=tuple(float(v) for v in range(1, 11)), seed=0),
            cfg,
            scn,
            SWEEP_SCHEMES,
            opts,
        )
        proposed = [r for r in rate_rows if r.scheme == "proposed"]
        assert all(r.status == "Optimal" for r in proposed)
        values = [r.objective_w for r in proposed]
        assert all(
            b <= a * (1 + 1e-9) for a, b in zip(values, values[1:])
        ), "not non-increasing in the rate floor"
        _assert_dominance(rate_rows)

        # the decoder-only scheme holds one flat value as long as a single
        # decoder can carry the whole floor
        cap = max(
            math.log2(1 + mats.g_id[m] * scn.p0 / scn.sigma2[m]) for m in range(mats.n_id)
        )
        tight = SolverOptions(convergence_threshold=1e-7)
        flat = []
        for floor in range(1, 11):
            if floor > cap:
                break
            report = sca_solve(
                mats,
                dataclasses.replace(scn, rate_floor=float(floor)),
                tight,
                mask=np.array([False] * 3 + [True] * 2),
            )
            assert report.status is SolveStatus.OPTIMAL
            flat.append(report.objective)
        assert len(flat) >= 5
        spread = (max(flat) - min(flat)) / max(flat)
        assert spread <= 1e-9, f"decoder-only objective varies by {spread:.2e} below the cap"

        count_rows = run_sweep(
            SweepSpec(variable="K", grid=(3, 4, 5, 6), seed=0),
            cfg,
            scn,
            SWEEP_SCHEMES,
            opts,
        )
        proposed = [r for r in count_rows if r.scheme == "proposed"]
        assert all(r.status == "Optimal" for r in proposed)
        values = [r.objective_w for r in proposed]
        assert all(
            b >= a * (1 - 1e-9) for a, b in zip(values, values[1:])
        ), "not non-decreasing in the harvester count"
        _assert_dominance(count_rows)


def test_c09_ratio_update_fixed_point(reference_setup, array256):
    with criterion(9, "rate-max auxiliary equals the achieved SINR; symmetric split"):
        _, scn, mats = reference_setup
        res = fp_rate_max(mats, scn)
        sinr = achieved_sinr(mats, scn, res.allocation.powers)
        assert np.max(np.abs(res.gamma - sinr) / sinr) <= 1e-6

        n = array256.n_antennas
        z = rayleigh_distance(array256)
        scn2 = Scenario(
            eh_receivers=(),
            id_receivers=(
                Receiver(PolarLocation(0.1, 1.1 * z)),
                Receiver(PolarLocation(0.1 + 2 / n, 1.1 * z)),
            ),
            sigma2=(1e-11, 1e-11),
            p0=1.0,
            rate_floor=0.0,
        )
        mats2 = build_matrices(array256, scn2)
        res2 = fp_rate_max(mats2, scn2)
        assert abs(res2.allocation.powers[0] - 0.5) <= 1e-6
        assert abs(res2.allocation.powers[1] - 0.5) <= 1e-6
        sinr2 = achieved_sinr(mats2, scn2, res2.allocation.powers)
        assert np.max(np.abs(res2.gamma - sinr2) / sinr2) <= 1e-6

