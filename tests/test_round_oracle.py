"""The exact SCA round (`inner_convex`) against the log-barrier oracle in
`barrier_oracle.py`, on random geometries and on a hand-built round whose
optimum splits the leftover budget between two harvesters; the round's
Lagrangian maximizer against its numpy array form in `dual_oracle.py`, bit
for bit, on random bound models; the closed-form slope of the bound along
the maximizers against finite differences, and the warm-started price search
against the cold one, on random bound models; a round whose optimum is
the top-priority decoder alone at the budget, found by the general price
search; the accelerated `fp_rate_max` against the plain fixed point in
`fp_oracle.py` on random geometries; and the Newton water-filling step of
`fp_rate_max` against bisection."""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from barrier_oracle import barrier_round
from conftest import achieved_sinr, random_geometry_instance
from dual_oracle import lagrangian_argmax
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
from mfswipt.solvers import (
    FP_TOLERANCE,
    _bound_slope,
    _BoundModel,
    _lagrangian_argmax,
    _Reduced,
    _solve_round,
    _water_fill,
)

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
    offset=st.floats(-5.0, 5.0),
)
def test_exact_round_agrees_with_barrier(
    array256, seed, n_eh, n_id, p0_dbm, floor_share, perturb, offset
):
    # The floor is a share of the maximum sum-rate R*.  Every bound lies below
    # the true rate, so a floor above R* must raise in both solvers; below R*
    # the point decides, and the perturbed points make some bounds too weak.
    # The round is also solved from a warm rate price within +-5 in log nu
    # of the cold start, and with a prebuilt reduced view.
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
    assert (exact >= 0).all()
    assert exact.sum() <= p0 * (1 + 1e-12)
    assert model.value(exact) >= scn.rate_floor - 1e-9
    got, want = objective(mats, exact), objective(mats, oracle)
    assert abs(got - want) <= 1e-6 * abs(want)

    # the view changes no bit; the warm price moves the optimum only inside
    # the certified gap 1e-12 P0 max|w| (w = -1 for all-zero weights)
    scale = p0 * (float(mats.priorities.max()) or 1.0)
    price = scale * math.exp(offset)
    red = _Reduced(mats, scn)
    stats = {}
    warm = inner_convex(y, mats, scn, stats=stats, rate_price=price).powers
    assert inner_convex(y, mats, scn, red=red, rate_price=price).powers.tobytes() == warm.tobytes()
    assert inner_convex(y, mats, scn, red=red).powers.tobytes() == exact.tobytes()
    assert model.value(warm) >= scn.rate_floor - 1e-9
    assert abs(objective(mats, warm) - got) <= 1e-12 * scale
    assert stats["rate_price"] >= 0 and stats["bound_slack"] >= 0


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


@st.composite
def bound_models(draw, decoders):
    """(bound model, weights, rate price, budget) of a random round: `decoders`
    decoder slots among up to 4 free ones, expanded at slacks of realistic
    size.  Optionally one decoder's alpha underflows to 0 (it has almost no
    power, so it joins the free slots), two slots tie in their reduced
    costs at every price, or the weights are all zero or all -1 (what the
    round substitutes for all-zero weights)."""
    m = draw(decoders)
    n = m + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = np.sort(rng.choice(n, m, replace=False))
    gain = 10.0 ** rng.uniform(-10.0, -7.0, m)
    s = 1.0 / (gain * 10.0 ** rng.uniform(-3.0, 2.0, m))
    i = 10.0 ** rng.uniform(-11.0, -8.0, m)
    if draw(st.booleans()):
        s[0] = i[0] = 1e200  # alpha and b underflow to 0
    lam = rng.uniform(0.0, 0.5, (m, n)) * (rng.random((m, n)) < 0.8)
    lam[np.arange(m), pos] = 0.0
    brow = gain[:, None] * lam
    weights = draw(st.sampled_from(["random", "random", "random", "zero", "minus_one"]))
    w = {"random": 10.0 ** rng.uniform(-7.0, -4.0, n), "zero": np.zeros(n), "minus_one": -np.ones(n)}[weights]
    if n >= 2 and draw(st.booleans()):
        u, v = rng.choice(n, 2, replace=False)
        brow[:, v] = brow[:, u]
        w[v] = w[u]
    red = SimpleNamespace(
        mask=np.ones(n, dtype=bool), pos=pos, gain=gain, brow=brow, sigma2=np.full(m, 1e-11)
    )
    with np.errstate(over="ignore"):
        model = _BoundModel(red, s, i)
    # rate prices around the one where interference costs match the weights
    ratio = (np.abs(w).max() or 1.0) / (model.c_vec.max() or 1.0)
    nu = 10.0 ** draw(st.floats(-3.0, 3.0)) * ratio
    p0 = 10.0 ** draw(st.floats(-1.0, 2.0))
    return model, w, nu, p0


@given(case=bound_models(st.integers(1, 7)))
def test_float_dual_search_matches_array_form_bits(case):
    model, w, nu, p0 = case
    got, _, _ = _lagrangian_argmax(model, w.tolist(), nu, p0)
    want = lagrangian_argmax(model, w, nu, p0)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@given(case=bound_models(st.integers(8, 10)))
def test_float_dual_search_matches_array_form_many_decoders(case):
    # numpy sums 8 or more elements pairwise, the float search left to right
    model, w, nu, p0 = case
    got, _, _ = _lagrangian_argmax(model, w.tolist(), nu, p0)
    want = lagrangian_argmax(model, w, nu, p0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * p0)


def bound_along_price(model, w, p0, nu):
    """G(x(nu)) at the Lagrangian maximizer, with the maximizer's regime."""
    x, p, full = _lagrangian_argmax(model, w.tolist(), nu, p0)
    return model.value(x), x, (p, full)


@given(case=bound_models(st.integers(1, 5)))
def test_bound_slope_matches_finite_difference(case):
    # central differences of G(x(nu)) in log nu at steps h and h/2,
    # Richardson-extrapolated (near a change of the active set the third
    # derivative is large), on draws whose active set (the leftover slot,
    # whether the decoders fill the budget) stays put within +-h
    model, w, nu, p0 = case
    h = 1e-5
    g0, x, regime = bound_along_price(model, w, p0, nu)
    diffs = []
    for step in (h, h / 2):
        g_up, _, regime_up = bound_along_price(model, w, p0, nu * math.exp(step))
        g_down, _, regime_down = bound_along_price(model, w, p0, nu * math.exp(-step))
        assume(math.isfinite(g_up) and math.isfinite(g_down) and math.isfinite(g0))
        assume(regime_up == regime == regime_down)
        diffs.append((g_up - g_down) / (2 * step))
    fd = (4 * diffs[1] - diffs[0]) / 3
    slope = _bound_slope(model, x.tolist(), w.tolist(), nu, *regime)
    # rounding of fd itself: G = const - sum alpha/x - c @ x, whose terms are
    # at most |const| + |G| in size
    rounding = 4 * 8 * np.finfo(float).eps * (abs(model.const) + abs(g0)) / h
    assert abs(slope - fd) <= 1e-6 * abs(slope) + rounding


def jump_floor(model, w, p0):
    """A floor inside a jump of G(x(nu)): where the leftover passes from one
    free slot to another, G jumps, and the optimum splits the leftover."""
    c = model.c
    for u, v in itertools.combinations(model.free, 2):
        if c[u] == c[v]:
            continue
        nu = (w[u] - w[v]) / (c[u] - c[v])  # the two reduced costs cross
        if not nu > 0:
            continue
        below = bound_along_price(model, w, p0, nu * (1 - 1e-9))[0]
        above = bound_along_price(model, w, p0, nu * (1 + 1e-9))[0]
        if math.isfinite(below) and above - below > 1e-6 * max(1.0, abs(above)):
            return 0.5 * (below + above)
    return None


@given(
    case=bound_models(st.integers(1, 5)),
    at_jump=st.booleans(),
    offset=st.floats(-5.0, 5.0),
)
def test_warm_started_round_agrees_with_cold_start(case, at_jump, offset):
    # the round's price search, started anywhere within +-5 in log nu of the
    # cold start, meets the floor and reaches the cold start's optimum to
    # the certified gap 1e-12 P0 max|w|, plus what the rounding of G (terms
    # up to |const| + |floor| in size) contributes to the dual bound
    model, w, nu, p0 = case
    w_round = w if w.max() > 0 else -np.ones(len(w))  # what the round maximizes
    floor = jump_floor(model, w_round, p0) if at_jump else None
    if floor is None:
        floor = bound_along_price(model, w_round, p0, nu)[0]
    assume(math.isfinite(floor))
    try:
        cold = _solve_round(model, w, floor, p0)
    except NoFeasibleInterior:
        with pytest.raises(NoFeasibleInterior):
            _solve_round(model, w, floor, p0, 1.0)
        return
    scale = float(np.abs(w_round).max()) * p0
    warm = _solve_round(model, w, floor, p0, scale * math.exp(offset))
    for x, evals, price, slack, _ in (cold, warm):
        assert (x >= 0).all() and x.sum() <= p0 * (1 + 1e-12)
        assert model.value(x) >= floor - 1e-9 * max(1.0, abs(floor))
        assert math.isfinite(price) and price >= 0 and slack >= 0
    gap = abs(float(w_round @ warm[0]) - float(w_round @ cold[0]))
    rounding = 8 * np.finfo(float).eps * max(cold[2], warm[2]) * (abs(model.const) + abs(floor))
    assert gap <= 1e-12 * scale + rounding


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
    # G jumps at that price; a warm start anywhere near it ends at the same
    # split, within the certified gap
    scale = float(mats.priorities.max()) * scn.p0
    for offset in (-5.0, -2.0, 2.0, 5.0):
        warm = inner_convex(y, mats, scn, rate_price=scale * math.exp(offset)).powers
        assert warm[0] > 0.1 and warm[1] > 0.1
        assert abs(objective(mats, warm) - objective(mats, exact)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "y", [[0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5]], ids=["vertex", "even", "pair"]
)
def test_top_priority_decoder_vertex_found_by_the_price_search(y):
    # two orthogonal harvesters and one decoder coupled 0.9 to both, so the
    # decoder slot has the top priority; alone at the budget it clears R = 1,
    # and that vertex is the round's optimum, at a rate price near 0
    lam = np.eye(3)
    lam[0, 2] = lam[2, 0] = lam[1, 2] = lam[2, 1] = 0.9
    masked = lam.copy()
    masked[2, 2] = 0.0
    mats = CorrelationMatrices(
        lambda_full=lam,
        lambda_masked=masked,
        c_eh=np.array([2e-6, 1e-6, 0.0]),
        g_eh=np.array([4e-6, 2e-6]),
        g_id=np.array([1e-9]),
        zeta=0.5,
    )
    scn = Scenario(
        eh_receivers=(Receiver(PolarLocation(0.0, 10.0)),) * 2,
        id_receivers=(Receiver(PolarLocation(0.0, 400.0)),),
        sigma2=(1e-11,),
        p0=1.0,
        rate_floor=1.0,
    )
    assert np.argmax(mats.priorities) == 2
    y = np.array(y)
    stats = {}
    x = inner_convex(y, mats, scn, stats=stats).powers
    assert x.tolist() == [0.0, 0.0, scn.p0]
    red = _Reduced(mats, scn)
    model = _BoundModel(red, 1.0 / red.signal(y), red.interference(y))
    assert stats["bound_slack"] == model.value(x) - scn.rate_floor > 0
    # the price's share of the dual bound stays inside the certified gap
    scale = float(mats.priorities.max()) * scn.p0
    assert 0 < stats["rate_price"] * stats["bound_slack"] <= 1e-12 * scale
    assert stats["dual_evals"] >= 2


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
