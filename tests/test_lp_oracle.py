"""Single-decoder schedules against an independent linear-programming oracle.

With one active decoder d the rate floor is the linear row
g y_d >= gamma (g lambda_d @ y + sigma2), gamma = 2^R - 1, so the problem is
a linear program.  The oracle solves it with HiGHS (`scipy.optimize.linprog`)
and shares no code with `mfswipt.solvers`.  It is scaled: powers in units
of P0, the floor row divided by gamma sigma2 and the objective by max rho.
Unscaled, HiGHS's 1e-7 absolute tolerance accepts points that miss the
floor.  At R = 0 the floor row is dropped.

Instances are drawn in the benchmark's annuli on the bundled array: K = 1-5
harvesters at 0.015-0.3 Z, one decoder at 1.05-1.3 Z, theta in +-0.8,
P0 20-44 dBm, R 0 or 1e-9-10 bps/Hz, on the full schedule and on random
schedules that keep the decoder.  Positive floors below 1e-9 are not drawn:
the scaled floor row's coefficients span 1 / gamma, twelve orders of
magnitude towards R = 1e-12, where HiGHS reports feasible floors infeasible.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from mfswipt import (
    ArrayConfig,
    PolarLocation,
    Receiver,
    Scenario,
    SolveStatus,
    build_matrices,
    closed_form_mixed,
    dbm_to_watts,
    exhaustive_search,
    rayleigh_distance,
    sca_solve,
)

CFG = ArrayConfig(n_antennas=256, carrier_freq=30e9)
Z = rayleigh_distance(CFG)
SIGMA2 = dbm_to_watts(-80.0)


def instance(eh, idr, p0_dbm, rate_floor):
    """Matrices and scenario of [theta, r / Z] harvesters and one decoder."""

    def rx(pair):
        return Receiver(PolarLocation(spatial_angle=pair[0], distance=pair[1] * Z))

    scn = Scenario(
        eh_receivers=tuple(rx(p) for p in eh),
        id_receivers=(rx(idr),),
        sigma2=(SIGMA2,),
        p0=dbm_to_watts(p0_dbm),
        rate_floor=rate_floor,
    )
    return build_matrices(CFG, scn), scn


def lp_oracle(mats, scn, mask):
    """Best harvested power of the schedule, or None when HiGHS finds the
    floor unattainable."""
    n, d = mats.n_slots, mats.n_eh
    rho = mats.c_eh @ mats.lambda_masked
    growth = 2.0**scn.rate_floor - 1.0
    rows, rhs = [np.ones(n)], [1.0]
    if growth > 0:
        row = -growth * mats.lambda_masked[d]
        row[d] += 1.0
        rows.append(-(mats.g_id[0] * scn.p0 / (growth * scn.sigma2[0])) * row)
        rhs.append(-1.0)
    bounds = [(0.0, None) if on else (0.0, 0.0) for on in mask]
    res = linprog(-rho / rho.max(), A_ub=np.array(rows), b_ub=rhs, bounds=bounds, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun * rho.max() * scn.p0


def check_against_oracle(report, best, mats, scn):
    if best is None:
        assert report.status is SolveStatus.INFEASIBLE
        return
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(best, rel=1e-9)
    y = report.allocation.powers
    assert (y >= 0).all() and y.sum() <= scn.p0 * (1 + 1e-12)
    d = mats.n_eh
    g = mats.g_id[0]
    rate = math.log2(1.0 + g * y[d] / (g * float(mats.lambda_masked[d] @ y) + scn.sigma2[0]))
    assert rate >= scn.rate_floor - 1e-7


receivers = st.tuples(st.floats(-0.8, 0.8), st.floats(0.015, 0.3))


@st.composite
def draws(draw):
    eh = draw(st.lists(receivers, min_size=1, max_size=5))
    idr = draw(st.tuples(st.floats(-0.8, 0.8), st.floats(1.05, 1.3)))
    p0_dbm = draw(st.floats(20.0, 44.0))
    rate_floor = draw(st.one_of(st.just(0.0), st.floats(1e-9, 10.0)))
    keep = draw(st.lists(st.booleans(), min_size=len(eh), max_size=len(eh)))
    return eh, idr, p0_dbm, rate_floor, keep


@given(draws())
def test_single_decoder_schedules_match_lp(case):
    eh, idr, p0_dbm, rate_floor, keep = case
    mats, scn = instance(eh, idr, p0_dbm, rate_floor)
    full = np.ones(mats.n_slots, dtype=bool)
    best = lp_oracle(mats, scn, full)
    for report in (sca_solve(mats, scn), closed_form_mixed(mats, scn)):
        check_against_oracle(report, best, mats, scn)
    if len(eh) <= 3:
        check_against_oracle(exhaustive_search(mats, scn), best, mats, scn)

    mask = np.array(keep + [True])
    best = lp_oracle(mats, scn, mask)
    for report in (sca_solve(mats, scn, mask=mask), closed_form_mixed(mats, scn, mask)):
        check_against_oracle(report, best, mats, scn)
        assert not report.allocation.powers[~mask].any()


def test_pair_beyond_the_top_priority_harvester():
    # the LP optimum pairs the decoder with harvester 0, although harvester 1
    # has the higher priority: it shares the decoder's angle, so every watt on
    # it raises the decoder's interference.  The top-priority pairing
    # harvests 57% less, and a successive convexification stopped 7e-6 short.
    mats, scn = instance([(-0.4423, 0.2166), (0.7749, 0.2005)], (0.7688, 1.2585), 38.44, 4.79)
    assert np.argmax(mats.priorities) == 1
    best = lp_oracle(mats, scn, np.ones(mats.n_slots, dtype=bool))
    for report in (sca_solve(mats, scn), closed_form_mixed(mats, scn), exhaustive_search(mats, scn)):
        check_against_oracle(report, best, mats, scn)
        assert report.allocation.powers[0] > 0 and report.allocation.powers[1] == 0
