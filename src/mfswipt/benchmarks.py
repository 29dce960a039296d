"""Comparison schemes and parameter-sweep experiments.

Six schemes share one interface: the jointly optimized allocation
("proposed"), the brute-force schedule oracle, and four restricted
baselines (decoder-only optimization, greedy pairing, equal power over an
optimized or over the full schedule).  `run_sweep` drives them across a
grid of one system parameter and yields flat result rows ready for CSV.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .correlation import CorrelationMatrices, build_matrices
from .geometry import ArrayConfig, PolarLocation, aod_to_spatial_angle, rayleigh_distance
from .metrics import _ordered_sum, weighted_sum_power
from .scenario import Receiver, Scenario, dbm_to_watts, watts_to_dbm
from .solvers import (
    FEASIBILITY_TOLERANCE,
    SolveReport,
    SolveStatus,
    SolverOptions,
    _full_solve,
    _infeasible_report,
    _report,
    _schedules,
    _shared_full_solve,
    exhaustive_search,
    sca_solve,
)

__all__ = ["SchemeId", "SweepSpec", "ResultRow", "run_scheme", "run_sweep"]

# where receiver-count sweeps draw their added receivers (see SweepSpec)
_EH_ANNULUS = (0.015, 0.3)
_ID_ANNULUS = (1.05, 1.3)
_ANGLE_HALFWIDTH = math.pi / 3.0


class SchemeId(Enum):
    PROPOSED = "proposed"
    EXHAUSTIVE = "exhaustive"
    FAR_FIELD_SWIPT = "far_field_swipt"
    GS_OPA = "gs_opa"
    OS_EPA = "os_epa"
    AS_EPA = "as_epa"


def _equal_split_report(
    mats: CorrelationMatrices,
    scenario: Scenario,
    mask: np.ndarray,
    incumbent: float | None = None,
) -> SolveReport | None:
    """Equal power over the masked slots if that split meets the rate floor R,
    its sum-rate reaching R - FEASIBILITY_TOLERANCE.

    Given an incumbent objective, a split that does not beat it strictly is
    dropped before its rate is evaluated.  Under a binding floor, so is a
    split whose interference-free sum-rate, log2(1 + g_m P0/|mask| / sigma2_m)
    summed left to right over its decoders, falls below that mark by a
    further 1e-12 R.  Interference only lowers a rate, and the computed
    sum-rate exceeds that computed bound by a few ulps at most, so every
    dropped split would fail the floor test; a NaN bound drops nothing.
    """
    count = int(mask.sum())
    if count == 0:
        return None
    p = scenario.p0 / count
    y = np.where(mask, p, 0.0)
    if incumbent is not None and not weighted_sum_power(mats, y) > incumbent:
        return None
    floor = scenario.rate_floor
    if floor > FEASIBILITY_TOLERANCE:
        on = mask[mats.n_eh :].tolist()
        free = _ordered_sum(
            math.log2(1.0 + g * p / s2)
            for g, s2, o in zip(mats.g_id.tolist(), scenario.sigma2, on)
            if o
        )
        if free < floor - FEASIBILITY_TOLERANCE - 1e-12 * floor:
            return None
    report = _report(mats, scenario, y)
    return report if report.residuals["sum_rate"] >= floor - FEASIBILITY_TOLERANCE else None


def run_scheme(
    scheme: SchemeId,
    mats: CorrelationMatrices,
    scenario: Scenario,
    opts: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Run one scheme on a prepared instance and return its report.

    Inside a `run_sweep` grid point, `proposed` and `exhaustive`'s first
    schedule share one full-schedule solve: whichever runs second takes the
    first one's report without solving (so its wall time leaves that solve
    out).  Every other call solves afresh.
    """
    k, m, n = mats.n_eh, mats.n_id, mats.n_slots
    if scheme is SchemeId.PROPOSED:
        return _full_solve(mats, scenario, opts)

    if scheme is SchemeId.EXHAUSTIVE:
        return exhaustive_search(mats, scenario, opts)

    if scheme is SchemeId.FAR_FIELD_SWIPT:
        if m == 0:
            raise ValueError("far-field scheme needs at least one decoder")
        mask = np.zeros(n, dtype=bool)
        mask[k:] = True
        return sca_solve(mats, scenario, opts, mask)

    if scheme is SchemeId.GS_OPA:
        if k == 0 or m == 0:
            raise ValueError("greedy pairing needs a harvester and a decoder")
        best_eh = int(np.argmax(mats.priorities[:k]))
        best_id = int(np.argmax(mats.g_id))
        mask = np.zeros(n, dtype=bool)
        mask[best_eh] = True
        mask[k + best_id] = True
        return sca_solve(mats, scenario, opts, mask)

    if scheme is SchemeId.OS_EPA:
        best: SolveReport | None = None
        for mask in _schedules(n):
            incumbent = None if best is None else best.objective
            report = _equal_split_report(mats, scenario, mask, incumbent)
            if report is not None:
                best = report
        return best if best is not None else _infeasible_report(mats)

    if scheme is SchemeId.AS_EPA:
        report = _equal_split_report(mats, scenario, np.ones(n, dtype=bool))
        return report if report is not None else _infeasible_report(mats)

    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter experiment over `variable` in {P0_dBm, R, K, M}; K and M
    grid values must be whole numbers.

    For receiver-count sweeps the extra receivers beyond the base scenario
    are drawn once from a generator seeded with `seed`: uniform physical
    angle within +-60 degrees of broadside (converted to the spatial-angle
    coordinate) and uniform radius inside a Z-multiple annulus, 0.015-0.3 Z
    for harvesters and 1.05-1.3 Z for decoders.  Grid point K reuses the
    first K - K_base of those draws, so successive points nest.  Added
    decoders inherit the first decoder's noise power.
    """

    variable: str
    grid: tuple
    seed: int = 0
    record_timing: bool = False

    def __post_init__(self):
        if self.variable not in {"P0_dBm", "R", "K", "M"}:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        if self.variable in {"K", "M"} and not all(float(v).is_integer() for v in self.grid):
            raise ValueError(f"{self.variable} grid values must be whole numbers, got {self.grid}")
        if not all(math.isfinite(v) for v in self.grid):  # NaN would defeat the sort check
            raise ValueError(f"sweep grid values must be finite, got {self.grid}")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("sweep grid must be sorted")
        if self.seed < 0:
            raise ValueError(f"sweep seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ResultRow:
    sweep_var: str
    sweep_value: float
    scheme: str
    objective_w: float
    objective_dbm: float | None
    sum_rate_bpshz: float
    scheduled_mask: str
    iterations: int
    status: str
    wall_ms: float | None
    seed: int

    @classmethod
    def from_report(
        cls,
        sweep_var: str,
        sweep_value: float,
        scheme: str,
        outcome: SolveReport | Exception,
        scenario: Scenario | None = None,
        wall_ms: float | None = None,
        seed: int = 0,
    ) -> ResultRow:
        """The CSV row of one run: its report, or the exception it raised.

        The objective, sum-rate and schedule cells are filled only for an
        Optimal report: its objective, its residuals["sum_rate"], and the
        slots its allocation schedules under `scenario`'s budget; every
        other row leaves them empty.
        """
        if isinstance(outcome, Exception):
            status, iterations = f"Error: {outcome}", 0
        else:
            status, iterations = outcome.status.value, outcome.iterations
        obj, rate, mask = math.nan, math.nan, ""
        if status == SolveStatus.OPTIMAL.value:
            y = outcome.allocation
            obj = outcome.objective
            rate = outcome.residuals["sum_rate"]
            mask = "".join("01"[b] for b in y.scheduled_mask(scenario.p0).tolist())
        return cls(
            sweep_var=sweep_var,
            sweep_value=float(sweep_value),
            scheme=scheme,
            objective_w=obj,
            objective_dbm=watts_to_dbm(obj) if obj > 0 else None,
            sum_rate_bpshz=rate,
            scheduled_mask=mask,
            iterations=iterations,
            status=status,
            wall_ms=wall_ms,
            seed=seed,
        )


def _draw_receiver(rng: np.random.Generator, cfg: ArrayConfig, annulus: tuple) -> Receiver:
    z = rayleigh_distance(cfg)
    phi = math.pi / 2.0 + rng.uniform(-_ANGLE_HALFWIDTH, _ANGLE_HALFWIDTH)
    theta = aod_to_spatial_angle(cfg, phi)
    r = rng.uniform(annulus[0] * z, annulus[1] * z)
    return Receiver(location=PolarLocation(spatial_angle=theta, distance=r))


def _scenario_for_point(
    spec: SweepSpec, base: Scenario, value, extra_eh: list[Receiver], extra_id: list[Receiver]
) -> Scenario:
    if spec.variable == "P0_dBm":
        return replace(base, p0=dbm_to_watts(float(value)))
    if spec.variable == "R":
        return replace(base, rate_floor=float(value))
    count = int(value)  # SweepSpec admits only whole receiver counts
    if spec.variable == "K":
        extra = count - base.n_eh
        if extra < 0:
            raise ValueError(f"K grid value {count} below the base count {base.n_eh}")
        return replace(base, eh_receivers=base.eh_receivers + tuple(extra_eh[:extra]))
    extra = count - base.n_id
    if extra < 0:
        raise ValueError(f"M grid value {count} below the base count {base.n_id}")
    if extra > 0 and not base.sigma2:
        raise ValueError("cannot add decoders to a scenario without a noise reference")
    sigma2 = base.sigma2 + tuple(base.sigma2[0] for _ in range(extra))
    return replace(
        base, id_receivers=base.id_receivers + tuple(extra_id[:extra]), sigma2=sigma2
    )


def run_sweep(
    spec: SweepSpec,
    cfg: ArrayConfig,
    base_scenario: Scenario,
    schemes: list[SchemeId],
    opts: SolverOptions = SolverOptions(),
) -> list[ResultRow]:
    """Execute every (grid point, scheme) combination.

    Receiver-count sweeps draw their added receivers once, from the spec's
    seed; repeat the sweep with other seeds for a Monte-Carlo study.
    Coupling matrices are rebuilt per point.  Failures of individual runs
    become rows with an error status instead of aborting the sweep.  Output
    order is grid-major and deterministic for a fixed (spec, seed); wall
    times are recorded only when the spec asks for them, keeping default
    output byte-reproducible.  Each grid point solves its full schedule
    once: `proposed` and `exhaustive` share that report (see `run_scheme`),
    so the wall time of the one that runs second leaves the solve out.
    """
    rng = np.random.default_rng([spec.seed, 0])
    extra_eh: list[Receiver] = []
    extra_id: list[Receiver] = []
    if spec.variable == "K":
        n_extra = max(int(v) for v in spec.grid) - base_scenario.n_eh
        extra_eh = [_draw_receiver(rng, cfg, _EH_ANNULUS) for _ in range(max(n_extra, 0))]
    elif spec.variable == "M":
        n_extra = max(int(v) for v in spec.grid) - base_scenario.n_id
        extra_id = [_draw_receiver(rng, cfg, _ID_ANNULUS) for _ in range(max(n_extra, 0))]
    rows: list[ResultRow] = []
    for value in spec.grid:
        try:
            scenario = _scenario_for_point(spec, base_scenario, value, extra_eh, extra_id)
            mats = build_matrices(cfg, scenario)
        except Exception as exc:
            rows += [
                ResultRow.from_report(spec.variable, value, s.value, exc, seed=spec.seed)
                for s in schemes
            ]
            continue
        with _shared_full_solve():
            for scheme in schemes:
                start = time.perf_counter()
                try:
                    outcome = run_scheme(scheme, mats, scenario, opts)
                except Exception as exc:
                    outcome = exc
                wall = (time.perf_counter() - start) * 1e3
                rows.append(
                    ResultRow.from_report(
                        spec.variable,
                        value,
                        scheme.value,
                        outcome,
                        scenario,
                        wall if spec.record_timing else None,
                        spec.seed,
                    )
                )
    return rows
