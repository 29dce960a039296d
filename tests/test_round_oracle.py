"""The exact SCA round (`inner_convex`) against the log-barrier oracle in
`barrier_oracle.py`, on random geometries and on a hand-built round whose
optimum splits the leftover budget between two harvesters; the accelerated
`fp_rate_max` against the plain fixed point in `fp_oracle.py` on random
geometries; and the Newton water-filling step of `fp_rate_max` against
bisection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from barrier_oracle import barrier_round
from conftest import achieved_sinr, random_geometry_instance
from fp_oracle import DecoderProblem, water_fill_by_bisection
from mfswipt import (
    CorrelationMatrices,
    NoFeasibleInterior,
    PolarLocation,
    Receiver,
    Scenario,
    dbm_to_watts,
    fp_rate_max,
    inner_convex,
)
from mfswipt.solvers import FP_TOLERANCE, _water_fill

P0_DBM = (20.0, 44.0)


def objective(mats, y):
    """What the round maximizes: harvested power, or, when every weight is
    zero, minus the total power (the least-power tie-break)."""
    w = mats.priorities
    return float(w @ y) if w.max() > 0 else -float(y.sum())


def solve_both(mats, scn, y):
    """(exact allocation, barrier allocation, bound model) of the round
    expanded at y, or the raised NoFeasibleInterior in place of each
    allocation."""
    try:
        exact = inner_convex(y, mats, scn).powers
    except NoFeasibleInterior as exc:
        exact = exc
    try:
        oracle, model = barrier_round(y, mats, scn)
    except NoFeasibleInterior as exc:
        oracle, model = exc, None
    return exact, oracle, model


@given(
    seed=st.integers(0, 2**32 - 1),
    n_eh=st.integers(0, 4),
    n_id=st.integers(1, 3),
    p0_dbm=st.floats(*P0_DBM),
    floor_share=st.floats(0.05, 1.2),
    perturb=st.booleans(),
)
def test_exact_round_agrees_with_barrier(array256, seed, n_eh, n_id, p0_dbm, floor_share, perturb):
    # The floor is a share of the maximum sum-rate R*.  Every bound lies below
    # the true rate, so a floor above R* must raise in both solvers; below R*
    # the point decides, and the perturbed points make some bounds too weak.
    rng = np.random.default_rng(seed)
    p0 = dbm_to_watts(p0_dbm)
    mats, scn = random_geometry_instance(rng, array256, n_eh, n_id, rate_floor=0.0, p0=p0)
    best = fp_rate_max(mats, scn)
    scn = dataclasses.replace(scn, rate_floor=floor_share * best.r_star)
    y = best.allocation.powers.copy()
    if perturb:
        # decoders off their rate-maximizing split, harvesters switched on
        y[n_eh:] *= np.exp(rng.uniform(-1.5, 1.5, n_id))
        y[:n_eh] = rng.uniform(0.0, 0.5 * p0 / max(n_eh, 1), n_eh)
        y *= min(1.0, p0 / y.sum())
    exact, oracle, model = solve_both(mats, scn, y)

    if isinstance(oracle, NoFeasibleInterior) or isinstance(exact, NoFeasibleInterior):
        assert type(exact) is type(oracle), f"exact {exact!r}, barrier {oracle!r}"
        return
    x = exact[model.red.idx]
    assert (exact >= 0).all()
    assert exact.sum() <= p0 * (1 + 1e-12)
    assert model.value(x) >= scn.rate_floor - 1e-9
    got, want = objective(mats, exact), objective(mats, oracle)
    assert abs(got - want) <= 1e-6 * abs(want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_eh=st.integers(0, 4),
    n_id=st.integers(1, 4),
    p0_dbm=st.floats(*P0_DBM),
)
def test_rate_max_agrees_with_plain_fixed_point(array256, seed, n_eh, n_id, p0_dbm):
    # the extrapolated iteration never ends below the plain loop, returns a
    # budget-feasible allocation whose SINR is gamma, and stops only where a
    # plain step no longer raises the sum-rate
    rng = np.random.default_rng(seed)
    p0 = dbm_to_watts(p0_dbm)
    mats, scn = random_geometry_instance(rng, array256, n_eh, n_id, rate_floor=0.0, p0=p0)
    res = fp_rate_max(mats, scn)
    problem = DecoderProblem(mats, scn)
    r_star = res.r_star
    assert r_star >= problem.max_rate() - 1e-10 * max(1.0, r_star)

    y = res.allocation.powers
    assert (y >= 0).all() and not y[:n_eh].any()
    assert y.sum() <= p0 * (1 + 1e-12)
    sinr = achieved_sinr(mats, scn, y)
    assert (np.abs(res.gamma - sinr) <= 1e-9 * sinr).all()

    x = y[n_eh:]
    assert problem.rate(problem.step(x)) - problem.rate(x) <= FP_TOLERANCE * max(1.0, r_star)


def two_harvester_round(coupling=0.05, rate_floor=4.0):
    """Two orthogonal harvesters and one decoder at 1 W.  Only harvester 0
    leaks into the decoder, and it has the higher weight; the decoder is
    linearized at the whole budget."""
    lam = np.eye(3)
    lam[0, 2] = lam[2, 0] = coupling
    masked = lam.copy()
    masked[2, 2] = 0.0
    mats = CorrelationMatrices(
        lambda_full=lam,
        lambda_masked=masked,
        c_eh=np.array([2e-6, 1e-6, 0.0]),
        g_eh=np.array([4e-6, 2e-6]),
        g_id=np.array([1e-9]),
        alpha=np.ones(2),
        zeta=0.5,
    )
    scn = Scenario(
        eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),) * 2,
        id_receivers=(Receiver(PolarLocation(0.0, 400.0)),),
        sigma2=(1e-11,),
        p0=1.0,
        rate_floor=rate_floor,
    )
    return mats, scn, np.array([0.0, 0.0, 1.0])


def test_optimum_splits_leftover_between_two_harvesters():
    # at the optimal rate price both harvesters have the same reduced cost;
    # giving the whole leftover to either one alone is strictly worse
    mats, scn, y = two_harvester_round()
    exact, oracle, model = solve_both(mats, scn, y)
    assert exact[0] > 0.1 and exact[1] > 0.1
    assert exact.sum() == pytest.approx(scn.p0, rel=1e-12)
    assert model.value(exact) == pytest.approx(scn.rate_floor, abs=1e-9)
    assert objective(mats, exact) == pytest.approx(objective(mats, oracle), rel=1e-6)
    for keep in ([True, False, True], [False, True, True]):
        alone = inner_convex(y, mats, scn, mask=np.array(keep)).powers
        assert objective(mats, alone) < objective(mats, exact) * (1 - 1e-3)


def test_zero_power_decoder_is_named(reference_setup):
    _, scn, mats = reference_setup
    y = np.zeros(mats.n_slots)
    y[mats.n_eh] = scn.p0  # decoder 0 takes the budget, decoder 1 has no power
    with pytest.raises(NoFeasibleInterior, match="decoder 1"):
        inner_convex(y, mats, scn)


@given(
    u=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
    w_scale=st.floats(1e-4, 1e2),
    p0=st.floats(1e-2, 1e2),
)
def test_water_fill_matches_bisection(u, w_scale, p0):
    u = np.array(u)
    w = w_scale * np.linspace(1.0, 2.0, len(u))
    assume(((u / w) ** 2).sum() > p0)  # the budget binds, so there is a price to find
    assert _water_fill(u, w, p0) == pytest.approx(water_fill_by_bisection(u, w, p0), rel=1e-12)
