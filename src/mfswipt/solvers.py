"""Optimization routines for joint beam scheduling and power allocation.

The master problem: maximize the weighted harvested sum-power c_eh' Lbar y
over allocations y >= 0 with 1'y <= P0 and a sum-rate floor over the
information decoders.  Binary scheduling is already eliminated (a slot is
scheduled iff its power entry is positive), so everything below works on the
continuous vector y.

Solvers provided:

* `fp_rate_max` - decoder-only sum-rate maximization by alternating
  closed-form ratio updates with an exactly solvable water-filling step,
  accelerated by SQUAREM extrapolation whose points are clamped to the
  allocation simplex and kept only when they do not lower the sum-rate.
* `sca_solve` - outer linearization of the rate constraint, each round
  expanded at the previous allocation and solved exactly by `inner_convex`
  through the round's Lagrange dual in a rate price and a budget price.
  A floor above the maximum sum-rate of `fp_rate_max` is infeasible.  One
  solve builds the reduced view of its schedule once, and each round's
  search for the rate price starts at the previous round's optimal price
  and takes safeguarded Newton steps on the bound's closed-form slope, so
  a round spends about six Lagrangian maximizations.  The starting price
  and the steps move only last bits inside the round's certified duality
  gap.  The Lagrangian maximizer runs on Python floats: a round has a
  handful of active slots, where numpy's per-call overhead outweighs the
  arithmetic.  It repeats the array arithmetic operation for operation, its
  sums over the decoders run left to right as numpy's do below 8 elements,
  and the dot products stay in numpy (BLAS does not sum in order), so the
  bits are those of the array form.
* `closed_form_eh_only`, `closed_form_mixed` - the harvester-only and
  single-decoder cases.  Schedules with at most one decoder are solved
  exactly as a linear program by comparing its vertices; `sca_solve` does
  the same for them and runs no rounds.
* `exhaustive_search` - brute force over all 2^(K+M) schedules, the
  benchmark oracle.

Every solver accepts an optional boolean `mask` pinning the complementary
slots to zero power; unscheduled harvesters still collect leakage in the
objective.  All routines are deterministic.  A `SolveReport` carries no
label; the comparison harness in `benchmarks` names its runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .correlation import CorrelationMatrices
from .metrics import PowerAllocation, sum_rate
from .scenario import Scenario

__all__ = [
    "SolveStatus",
    "SolverOptions",
    "SolveReport",
    "RateMaxResult",
    "SolverNumericalError",
    "NoFeasibleInterior",
    "fp_rate_max",
    "inner_convex",
    "sca_solve",
    "closed_form_eh_only",
    "closed_form_mixed",
    "exhaustive_search",
]

log = logging.getLogger(__name__)

LN2 = math.log(2.0)

# slack (bps/Hz) allowed when comparing the maximum sum-rate with the floor
FEASIBILITY_TOLERANCE = 1e-7
# relative sum-rate change that stops the fractional-programming iteration
FP_TOLERANCE = 1e-11
MAX_FP_ITERS = 3000


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    ITER_LIMIT = "IterLimit"


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the outer linearization loop: it stops when the
    fractional objective increase falls below convergence_threshold, or
    after max_outer_iters rounds."""

    convergence_threshold: float = 1e-3
    max_outer_iters: int = 50

    def __post_init__(self):
        t, n = self.convergence_threshold, self.max_outer_iters
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 < t < math.inf:
            raise ValueError(f"convergence_threshold must be a finite number > 0, got {t!r}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_outer_iters must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class SolveReport:
    allocation: PowerAllocation
    objective: float
    trace: tuple
    status: SolveStatus
    residuals: dict
    iterations: int


@dataclass(frozen=True)
class RateMaxResult:
    """Decoder-only sum-rate maximum: r_star (bps/Hz) at `allocation`, gamma
    the achieved SINR of each active decoder there, and `iterations` the
    number of fixed-point map evaluations spent."""

    r_star: float
    allocation: PowerAllocation
    gamma: np.ndarray
    iterations: int


class SolverNumericalError(RuntimeError):
    """Numerical failure inside a solver."""


class NoFeasibleInterior(SolverNumericalError):
    """The convexified round cannot clear the rate floor: the bound is tight
    at the linearization point, or a decoder has no power there."""


# ---------------------------------------------------------------------------
# reduced problem data


class _Reduced:
    """Arrays of the allocation problem restricted to the active slots.

    x indexes active slots only.  For active decoder j (deployment index
    act_ids[j]): signal A_j(x) = gain_j * x[pos_j], interference-plus-noise
    B_j(x) = brow_j @ x + sigma2_j with brow_j = gain_j * lam_j, lam_j its
    couplings to the active slots.  The objective keeps the full priority
    vector, so pinned harvesters still account for harvested leakage.
    """

    def __init__(self, mats: CorrelationMatrices, scenario: Scenario, mask=None):
        mask = _full_mask(mats, mask)
        self.idx = np.flatnonzero(mask)
        self.act_ids = np.flatnonzero(mask[mats.n_eh :])
        self.n = len(self.idx)
        self.w = mats.priorities[self.idx]
        self.p0 = scenario.p0
        self.rate_floor = scenario.rate_floor
        slots = mats.n_eh + self.act_ids
        self.gain = mats.g_id[self.act_ids]
        self.sigma2 = np.array(scenario.sigma2)[self.act_ids]
        self.lam = mats.lambda_masked[np.ix_(slots, self.idx)]
        self.brow = self.gain[:, None] * self.lam
        self.pos = np.searchsorted(self.idx, slots)
        self.n_slots = mats.n_slots

    def embed(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n_slots)
        y[self.idx] = x
        return y

    def signal(self, x: np.ndarray) -> np.ndarray:
        return self.gain * x[self.pos]

    def interference(self, x: np.ndarray) -> np.ndarray:
        return self.brow @ x + self.sigma2


def _full_mask(mats: CorrelationMatrices, mask) -> np.ndarray:
    if mask is None:
        return np.ones(mats.n_slots, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mats.n_slots,):
        raise ValueError(f"mask must have one entry per slot ({mats.n_slots})")
    if not mask.any():
        raise ValueError("mask must keep at least one slot active")
    return mask


def _schedules(n: int):
    """Every schedule of n slots as a boolean mask, in lexicographic order
    (slot 0 is the most significant position), starting with the empty one."""
    for bits in itertools.product((False, True), repeat=n):
        yield np.array(bits)


def _report(
    mats: CorrelationMatrices,
    scenario: Scenario,
    y: np.ndarray,
    status: SolveStatus = SolveStatus.OPTIMAL,
    trace: tuple | None = None,
    iterations: int = 0,
) -> SolveReport:
    """Report of allocation y: its objective, and its rate and budget residuals
    measured on y itself.  The trace defaults to the objective alone."""
    obj = _objective(mats, y)
    residuals = {
        "rate_slack": sum_rate(mats, scenario.sigma2, y) - scenario.rate_floor,
        "power_slack": scenario.p0 - float(y.sum()),
    }
    return SolveReport(
        allocation=PowerAllocation(y),
        objective=obj,
        trace=(obj,) if trace is None else tuple(trace),
        status=status,
        residuals=residuals,
        iterations=iterations,
    )


def _infeasible_report(mats: CorrelationMatrices, r_star: float | None = None) -> SolveReport:
    """Report of an unmet floor; r_star, when given, is the maximum sum-rate
    the schedule can reach, kept as residuals["r_star"]."""
    return SolveReport(
        allocation=PowerAllocation(np.zeros(mats.n_slots)),
        objective=math.nan,
        trace=(),
        status=SolveStatus.INFEASIBLE,
        residuals={} if r_star is None else {"r_star": r_star},
        iterations=0,
    )


def _objective(mats: CorrelationMatrices, y: np.ndarray) -> float:
    return float(mats.priorities @ y)


# ---------------------------------------------------------------------------
# decoder-only rate maximization (fractional programming)


def fp_rate_max(mats: CorrelationMatrices, scenario: Scenario, mask=None) -> RateMaxResult:
    """Maximize the decoder sum-rate with harvester powers pinned to zero.

    The map F alternates three exact updates: the ratio auxiliary gamma_m is
    set to the achieved SINR of decoder m, a second auxiliary decouples the
    remaining signal/total-power ratio, and the allocation step is a
    water-filling problem solved in closed form per slot under a budget
    multiplier found by Newton.  Each update can only raise the surrogate,
    so F never lowers the sum-rate.

    F converges slowly where the optimum switches a decoder off, so it is
    accelerated by SQUAREM (Varadhan & Roland, 2008): from x0 take
    x1 = F(x0) and x2 = F(x1), form r = x1 - x0 and v = x2 - 2 x1 + x0, and
    extrapolate to x0 - 2 alpha r + alpha^2 v with alpha = -|r| / |v|.  The
    extrapolated point has its negative entries clamped to 0 and is
    rescaled onto the budget (the sum-rate rises with a common power
    scale), and it replaces x2 only if its sum-rate is at least that of x2,
    so the sum-rate never decreases.  The iteration stops when one plain
    step F from the accepted point changes the sum-rate by at most
    FP_TOLERANCE relative, and returns that step's result, unless one
    decoder alone at the whole budget reaches a higher sum-rate, in which case
    the best such vertex is returned.  At the returned allocation gamma
    equals the achieved SINR exactly.  `iterations` counts the evaluations
    of F.
    """
    mask = _full_mask(mats, mask)
    if not mask[mats.n_eh :].any():
        raise ValueError("fp_rate_max needs at least one active decoder")
    red = _Reduced(mats, scenario, mask & (np.arange(mats.n_slots) >= mats.n_eh))
    g, s2, eta, p0 = red.gain, red.sigma2, red.lam, red.p0

    def signal_interference(x):
        return g * x, g * (eta @ x) + s2

    def rate(x):
        a, b = signal_interference(x)
        return float(np.log2(1.0 + a / b).sum())

    def step(x):
        a, b = signal_interference(x)
        gamma = a / b
        z = np.sqrt((1.0 + gamma) * a) / (a + b)
        u = z * np.sqrt((1.0 + gamma) * g)
        # linear price of each slot: own total-power coefficient plus leakage
        # into the other decoders' denominators
        w = (z**2) * g + (z**2 * g) @ eta
        x_free = (u / np.maximum(w, 1e-300)) ** 2
        return x_free if x_free.sum() <= p0 else _water_fill(u, w, p0)

    x = np.full(red.n, p0 / red.n)
    r = rate(x)
    iters = 0
    while iters < MAX_FP_ITERS:
        x1 = step(x)
        r1 = rate(x1)
        iters += 1
        if abs(r1 - r) <= FP_TOLERANCE * max(1.0, abs(r)):
            x, r = x1, r1
            break
        x2 = step(x1)
        r2 = rate(x2)
        iters += 1
        d1, d2 = x1 - x, x2 - 2.0 * x1 + x
        curvature = float(np.linalg.norm(d2))
        if curvature > 0.0:
            alpha = -float(np.linalg.norm(d1)) / curvature
            xe = np.maximum(x - 2.0 * alpha * d1 + alpha * alpha * d2, 0.0)
            total = float(xe.sum())
            if total > 0.0:
                xe *= p0 / total
                re = rate(xe)
                if re >= r2:
                    x2, r2 = xe, re
        x, r = x2, r2

    # the map can stall at a saddle that splits power between decoders which
    # interfere fully (coincident decoders); a single decoder at full power
    # then rates higher
    for m in range(red.n):
        vertex = np.zeros(red.n)
        vertex[m] = p0
        r_vertex = rate(vertex)
        if r_vertex > r:
            x, r = vertex, r_vertex

    a, b = signal_interference(x)
    alloc = PowerAllocation(red.embed(x))
    return RateMaxResult(r_star=r, allocation=alloc, gamma=a / b, iterations=iters)


def _water_fill(u: np.ndarray, w: np.ndarray, p0: float) -> np.ndarray:
    """Allocation (u / (w + lam))^2 whose budget price lam > 0 solves
    S(lam) = sum_i (u_i / (w_i + lam))^2 = P0, renormalised onto the budget.

    S^-1/2 is concave and increasing in lam (linear for one slot), so Newton
    on it rises monotonically to the root from the lower bound
    max_i(u_i / sqrt(P0) - w_i), where one slot alone spends the budget; it
    stops once a step no longer raises lam.
    """
    lam = max(0.0, float((u / math.sqrt(p0) - w).max()))
    for _ in range(100):
        den = np.maximum(w + lam, 1e-300)
        x = (u / den) ** 2
        s = float(x.sum())
        step = s * (math.sqrt(s / p0) - 1.0) / float((x / den).sum())
        if not lam + step > lam:
            break
        lam += step
    return x * (p0 / s)


# ---------------------------------------------------------------------------
# convexified subproblem: exact solve through the two-multiplier dual


def _bound_coeffs(s_tilde: np.ndarray, i_tilde: np.ndarray):
    """Tangent-plane coefficients of log2(1 + 1/(S I)) at the expansion point.

    The function is jointly convex in (S, I), so the tangent plane is a
    global lower bound; evaluating it at the slack lower bounds S = 1/A(y),
    I = B(y) yields a concave global lower bound G(y) on the true sum-rate.
    """
    a = (1.0 / LN2) / (s_tilde + s_tilde**2 * i_tilde)
    b = (1.0 / LN2) / (i_tilde + i_tilde**2 * s_tilde)
    c0 = np.log2(1.0 + 1.0 / (s_tilde * i_tilde))
    return a, b, c0


class _BoundModel:
    """The linearized rate bound in separable form,

        G(x) = const - sum_j alpha_j / x[pos_j] - c @ x,

    where pos_j is the slot of active decoder j, alpha > 0 and c >= 0 (the
    interference rows enter linearly).  `free` lists the other slots, which
    G depends on linearly; they include any decoder whose alpha underflows
    to 0 because it has almost no power at the expansion point.  pos, free,
    alpha and c are Python lists, read element by element by the dual
    search; c_vec keeps c as an array for the dot product in G.
    """

    def __init__(self, red: _Reduced, s: np.ndarray, i: np.ndarray):
        a, b, c0 = _bound_coeffs(s, i)
        alpha = a / red.gain
        on = alpha > 0
        free = np.ones(red.n, dtype=bool)
        free[red.pos[on]] = False
        self.pos = red.pos[on].tolist()
        self.alpha = alpha[on].tolist()
        self.free = np.flatnonzero(free).tolist()
        self.c_vec = b @ red.brow
        self.c = self.c_vec.tolist()
        self.const = float((c0 + a * s + b * (i - red.sigma2)).sum())

    def value(self, x: np.ndarray) -> float:
        xs = x.tolist()
        # summed left to right, as numpy sums below 8 elements; a decoder
        # power that underflowed to 0 makes G = -inf
        inverse = 0.0
        for a, q in zip(self.alpha, self.pos):
            v = xs[q]
            inverse += a / v if v else math.inf
        return self.const - inverse - float(self.c_vec @ x)


def _ordered_sum(values) -> float:
    """Left-to-right sum from 0.0, which is how numpy sums fewer than 8
    elements; Python's builtin sum compensates rounding from 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _lagrangian_argmax(model: _BoundModel, w: list, nu: float, p0: float):
    """Maximize w @ x + nu G(x) over 1'x <= P0, x >= 0, for a rate price nu > 0.
    Returns (x, p, full): p is the free slot that takes the leftover budget,
    or None, and full tells whether the decoders spend the whole budget.

    With tau the budget price, decoder slot q takes sqrt(nu alpha_q / beta_q),
    beta_q = tau + nu c_q - w_q.  The free slots are linear: the leftover
    budget goes to the one with the best reduced cost w_p - nu c_p when that
    cost is positive, and stays unspent otherwise.  The betas are measured
    from beta0, that of the decoder q0 with the largest w_q - nu c_q, because
    in tau terms beta0 cancels to 0 at tiny nu.  beta0 is the leftover slot's
    price if the decoders then fit in the budget, else the root of
    sum_q x_q = P0, found by Newton on (sum_q x_q)^-2: that is concave in
    beta0 (linear for one decoder), so the iterates rise monotonically to the
    root from the lower bound nu alpha_q0 / P0^2.

    The search runs on Python floats, element by element: a round has at
    most a few active slots, where each numpy call would cost more than its
    arithmetic.  Every step is the same correctly rounded IEEE operation, in
    the same order, as the array form, and the sums over the decoders run
    left to right as numpy's do below 8 elements, so the result has the same
    bits (from 8 decoders on numpy sums pairwise; the two then agree to the
    last few bits).  The weights w come as a list of floats.
    """
    pos, free, c = model.pos, model.free, model.c
    d = [wq - nu * cq for wq, cq in zip(w, c)]
    x = [0.0] * len(w)
    spend = False
    if free:
        d_free = [d[q] for q in free]
        p = free[d_free.index(max(d_free))]
        spend = d[p] > 0
    if not pos:  # G is affine: a linear program over the budget
        if spend:
            x[p] = p0
        return np.array(x), p if spend else None, False
    d_pos = [d[q] for q in pos]
    j0 = d_pos.index(max(d_pos))
    q0 = pos[j0]
    w0, c0 = w[q0], c[q0]
    delta = [max(-((w[q] - w0) - nu * (c[q] - c0)), 0.0) for q in pos]
    num = [nu * a for a in model.alpha]
    beta_h = (w[p] - w0) - nu * (c[p] - c0) if spend else -d[q0]
    beta = max(beta_h, num[j0] / p0**2)
    if not beta > 0.0:  # nu alpha_q0 underflowed: no finite maximizer at this price
        return np.full(len(w), math.nan), None, False
    t = [math.sqrt(n / (beta + e)) for n, e in zip(num, delta)]
    s = _ordered_sum(t)
    if s > p0 or beta > beta_h:  # the decoders spend the whole budget
        for _ in range(100):
            slope = _ordered_sum([tj / (beta + e) for tj, e in zip(t, delta)])
            step = s * ((s / p0) ** 2 - 1.0) / slope
            if not beta + step > beta:
                break
            beta += step
            t = [math.sqrt(n / (beta + e)) for n, e in zip(num, delta)]
            s = _ordered_sum(t)
        ratio = p0 / s
        for q, tj in zip(pos, t):
            x[q] = tj * ratio
        return np.array(x), None, True
    for q, tj in zip(pos, t):
        x[q] = tj
    if spend:
        x[p] = p0 - s
    return np.array(x), p if spend else None, False


def _bound_slope(model: _BoundModel, x: list, w: list, nu: float, p, full: bool) -> float:
    """Slope dG/d(log nu) of the bound along the Lagrangian maximizers x(nu),
    at x = x(nu) from `_lagrangian_argmax` with its regime (p, full).

    Each decoder keeps x_q^2 D_q = nu alpha_q with D_q = nu alpha_q / x_q^2
    = tau + nu c_q - w_q, tau the budget price, so
    nu dx_q/dnu = (x_q / 2)(1 - nu (tau' + c_q) / D_q).  tau' = -c_p when the
    free slot p takes the leftover, 0 when the budget is slack, and it makes
    sum_q dx_q/dnu = 0 when the decoders spend the whole budget.  Using the
    stationarity once more, 1 - nu (tau' + c_q) / D_q = (b - w_q) / D_q with
    b = w_p, 0, or the mean of w_q weighted by r_q = x_q / D_q in those three
    cases, and G's gradient on every slot that moves is (tau - w_i) / nu, so

        dG/d(log nu) = sum_q r_q (b - w_q)^2 / (2 nu).

    Every term is >= 0, where the same slope written with
    alpha_q / x_q^2 - c_q cancels large terms.  NaN where a decoder power or
    price underflows.
    """
    pos = model.pos
    try:
        r = [x[q] ** 3 / (nu * a) for a, q in zip(model.alpha, pos)]
        if p is not None:
            b = w[p]
        elif full:
            b = _ordered_sum(rq * w[q] for rq, q in zip(r, pos)) / _ordered_sum(r)
        else:
            b = 0.0
    except (ZeroDivisionError, OverflowError):
        return math.nan
    return _ordered_sum(rq * (b - w[q]) ** 2 for rq, q in zip(r, pos)) / (2.0 * nu)


# step past the root of G(x(nu)) - floor, in log nu, that makes a Newton
# iterate land on the feasible side
NEWTON_PUSH = 1e-9


def _solve_round(
    model: _BoundModel, w: np.ndarray, floor: float, p0: float, price: float = 0.0
) -> tuple[np.ndarray, int, float, float]:
    """Maximize w @ x subject to G(x) >= floor, 1'x <= P0 and x >= 0, exactly.
    Returns (x, evaluations, rate price, bound slack): the Lagrangian
    evaluations spent, and the price nu and G - floor at the feasible end of
    the final bracket (price 0 when the floor does not bind).

    G(x(nu)) at the Lagrangian maximizer x(nu) is non-decreasing in the rate
    price nu, so a safeguarded search on t = log nu finds the optimal price.
    It starts at `price` (the previous round's optimal price) when that is
    > 0, else at P0 max|w|.  After every evaluation it proposes a Newton
    step on phi(t) = G(x(e^t)) - floor with the slope of `_bound_slope`,
    pushed NEWTON_PUSH past the root: where phi is concave in t, the usual
    case, Newton nears the root from the infeasible side and the push lands
    the last iterate feasible.  phi is not concave everywhere (it steepens
    where a decoder's reduced cost nears 0), so the step is taken only when
    it lands strictly inside the bracket (a missing end stands 16x away from
    the known one) and is shorter than half the move before last, the
    safeguard of `rtsafe` (Press et al., Numerical Recipes).  Otherwise the
    price moves by 16x until the root is bracketed, and then by a regula
    falsi (Illinois variant) or bisection step.

    The feasible end of the bracket bounds the optimum by weak duality,
    w @ x_hi + nu_hi (G_hi - floor), and the convex combination of the two
    ends that meets the floor (feasible because G is concave) is the primal
    candidate; the search stops once they agree to 1e-12 of P0 max|w|.  The
    starting price and the Newton steps decide which prices are evaluated,
    so they move only the last bits inside that gap.  Where two linear slots
    tie at the optimal price G jumps, and that combination is exactly the
    optimum that splits the leftover between them.  All-zero weights select
    the least total power.  The products w @ x of the evaluated points stay
    numpy dots, whose summation order the bits of the stopping test depend
    on; the candidate's product is the same combination of theirs.
    """
    if not w.max() > 0:
        w = -np.ones(len(w))
    weights = w.tolist()
    top, _, _ = _lagrangian_argmax(model, [0.0] * len(weights), 1.0, p0)  # maximizes G
    if not model.value(top) > floor + 1e-9 * max(1.0, abs(floor)):
        raise NoFeasibleInterior("rate floor is tight at the current linearization")
    q = weights.index(max(weights))
    if w[q] > 0 and all(j == q for j in model.pos):  # the LP vertex keeps G finite
        vertex = np.zeros(len(w))
        vertex[q] = p0
        slack = model.value(vertex) - floor
        if slack >= 0:  # rate price 0: the vertex is optimal
            return vertex, 1, 0.0, slack

    scale = float(np.abs(w).max()) * p0
    t = math.log(price if price > 0 else scale)  # log nu
    # G >= floor (True) or not -> [log nu, G - floor, x, interpolation weight,
    # nu, w @ x, the dual bound w @ x + nu (G - floor)]
    ends = {}
    side = hi = None
    older = last = math.inf  # lengths of the two latest moves in t
    for evals in range(2, 202):  # evaluation 1 was `top`
        nu = math.exp(t)
        x, p, full = _lagrangian_argmax(model, weights, nu, p0)
        phi = model.value(x) - floor
        if (phi >= 0) == side and (not side) in ends:
            ends[not side][3] *= 0.5  # Illinois: the same end moved twice
        side = phi >= 0
        wx = float(w @ x)
        ends[side] = [t, phi, x, phi, nu, wx, wx + nu * phi]
        hi, lo = ends.get(True), ends.get(False)
        if hi is not None:
            # the primal candidate is x_hi + share (x_lo - x_hi), formed on return
            share, w_best, bound = 0.0, hi[5], hi[6]
            if lo is not None:
                share = hi[1] / (hi[1] - lo[1])
                w_best += share * (lo[5] - hi[5])
                if math.isfinite(lo[6]):  # an underflowed decoder power gives G = -inf
                    bound = min(bound, lo[6])
            if bound - w_best <= 1e-12 * scale:
                break
        t_now = t
        slope = _bound_slope(model, x.tolist(), weights, nu, p, full)
        newton = t - phi / slope + NEWTON_PUSH if slope > 0 else math.nan
        left = lo[0] if lo is not None else t - math.log(16.0)
        right = hi[0] if hi is not None else t + math.log(16.0)
        if left < newton < right and abs(newton - t) < 0.5 * older:
            t = newton
        elif hi is None or lo is None:
            t += math.log(16.0) if hi is None else -math.log(16.0)
        else:
            t = lo[0] + (hi[0] - lo[0]) * lo[3] / (lo[3] - hi[3])
            if not lo[0] < t < hi[0]:
                t = 0.5 * (lo[0] + hi[0])
                if not lo[0] < t < hi[0]:
                    break  # the bracket is at floating-point resolution
        older, last = last, abs(t - t_now)
    if hi is None:
        raise SolverNumericalError("no rate price meets the floor")
    best = hi[2] if lo is None else hi[2] + share * (lo[2] - hi[2])
    return best, evals, hi[4], hi[1]


def inner_convex(
    y: np.ndarray,
    mats: CorrelationMatrices,
    scenario: Scenario,
    mask=None,
    *,
    stats: dict | None = None,
    red: _Reduced | None = None,
    rate_price: float = 0.0,
) -> PowerAllocation:
    """Solve one convexified round expanded at allocation y: maximize
    harvested power under the tangent lower bound on the sum-rate, the
    budget and nonnegativity.

    The bound is expanded at the slacks of y, S = 1/A(y) and I = B(y).  The
    slack pair of each decoder enters the objective nowhere and the bound
    monotonically prefers both at those lower limits, so they are eliminated
    exactly and the round is solved exactly over the allocation alone.
    Raises NoFeasibleInterior when the bound cannot clear the floor, and
    when a decoder has no power at y (its slack is infinite).

    `red`, when given, is the reduced view of (mats, scenario, mask), which
    `sca_solve` builds once per solve; the result does not depend on it.
    `rate_price` > 0 warm-starts the dual search there (see `_solve_round`);
    it moves only last bits inside the search's certified gap.  A `stats`
    dict, when given, receives "dual_evals", the number of Lagrangian
    maximizations the round spent, "rate_price", the round's optimal rate
    price (0 when the floor does not bind), and "bound_slack", G - R at the
    feasible end of the final bracket.
    """
    if red is None:
        red = _Reduced(mats, scenario, mask)
    x = np.asarray(y, dtype=float)[red.idx]
    with np.errstate(divide="ignore"):
        s = 1.0 / red.signal(x)
    i = red.interference(x)
    for m, s_m, i_m in zip(red.act_ids, s, i):
        if not (math.isfinite(s_m) and math.isfinite(i_m)):
            raise NoFeasibleInterior(
                f"decoder {m} has a non-finite linearization slack (S={s_m}, I={i_m}): it has no power"
            )
    model = _BoundModel(red, s, i)
    x, evals, price, slack = _solve_round(model, red.w, red.rate_floor, red.p0, rate_price)
    if stats is not None:
        stats.update(dual_evals=evals, rate_price=price, bound_slack=slack)
    return PowerAllocation(red.embed(x))


# ---------------------------------------------------------------------------
# outer loop


def _lp_report(mats: CorrelationMatrices, scenario: Scenario, mask: np.ndarray) -> SolveReport:
    """Exact solution of a schedule with no floor or at most one decoder: the
    best vertex of its linear program, ties going to the lowest slot.

    Every priority is >= 0, so the budget is tight.  Without a floor the
    vertices are the slots alone at P0.  With one decoder d the floor is the
    row g y_d >= gamma (g lambda_d @ y + sigma2), gamma = 2^R - 1, met when
    r* = log2(1 + g P0 / sigma2) reaches R - FEASIBILITY_TOLERANCE; the
    vertices are d alone at P0 and each pair (j, d) with both rows tight:
    y_j = (P0 - need) / (1 + gamma lambda_dj), y_d = P0 - y_j, where
    need = gamma sigma2 / g, clamped to P0.
    """
    idx = np.flatnonzero(mask)
    act_ids = np.flatnonzero(mask[mats.n_eh :])
    rho, p0, floor = mats.priorities, scenario.p0, scenario.rate_floor
    y = np.zeros(mats.n_slots)
    if len(act_ids) == 0 or floor <= 0:
        if len(act_ids) == 0 and floor > FEASIBILITY_TOLERANCE:
            return _infeasible_report(mats, r_star=0.0)
        y[idx[np.argmax(rho[idx])]] = p0
        return _report(mats, scenario, y)

    m = int(act_ids[0])
    d, g, s2 = mats.n_eh + m, mats.g_id[m], scenario.sigma2[m]
    r_star = math.log2(1.0 + g * p0 / s2)
    if not r_star >= floor - FEASIBILITY_TOLERANCE:  # NaN is infeasible
        return _infeasible_report(mats, r_star=r_star)
    growth = 2.0**floor - 1.0
    need = min(growth * s2 / g, p0) if g > 0 else p0
    share = (p0 - need) / (1.0 + growth * mats.lambda_masked[d, idx])  # y_j of each pair
    share[idx == d] = 0.0  # d alone
    j = int(np.argmax(rho[idx] * share + rho[d] * (p0 - share)))
    y[idx[j]] = share[j]
    y[d] = p0 - share[j]
    return _report(mats, scenario, y)


def sca_solve(
    mats: CorrelationMatrices,
    scenario: Scenario,
    opts: SolverOptions = SolverOptions(),
    mask=None,
) -> SolveReport:
    """Successive convexification of the rate constraint.

    A schedule with no floor or at most one active decoder is solved exactly
    by `_lp_report`, with no rounds.  Otherwise the loop starts from the
    decoder-only rate-maximizing allocation (feasible whenever the problem
    is), then repeats: expand the rate bound at the current allocation,
    solve the convexified round, move to its optimum.
    Each round's feasible region contains the previous optimum and the bound
    touches the true rate there, so the objective trace is non-decreasing;
    the loop stops when the fractional increase falls under the threshold.
    """
    mask = _full_mask(mats, mask)
    if scenario.rate_floor <= 0 or np.count_nonzero(mask[mats.n_eh :]) <= 1:
        return _lp_report(mats, scenario, mask)

    best = fp_rate_max(mats, scenario, mask)
    if not best.r_star >= scenario.rate_floor - FEASIBILITY_TOLERANCE:  # NaN is infeasible
        return _infeasible_report(mats, r_star=best.r_star)

    y = best.allocation.powers.copy()
    trace = [_objective(mats, y)]
    status = SolveStatus.ITER_LIMIT
    iterations = 0
    red = _Reduced(mats, scenario, mask)
    stats = {"rate_price": 0.0}
    for iterations in range(1, opts.max_outer_iters + 1):
        try:
            alloc = inner_convex(
                y, mats, scenario, mask, stats=stats, red=red, rate_price=stats["rate_price"]
            )
        except NoFeasibleInterior:
            status = SolveStatus.OPTIMAL
            iterations -= 1
            break
        obj_new = _objective(mats, alloc.powers)
        trace.append(obj_new)
        log.debug(
            "round %d objective=%s dual_evals=%d rate_price=%s bound_slack=%s",
            iterations,
            obj_new,
            stats["dual_evals"],
            stats["rate_price"],
            stats["bound_slack"],
        )
        if obj_new > trace[-2] or iterations == 1:
            y = alloc.powers
        if trace[-1] - trace[-2] < opts.convergence_threshold * max(abs(trace[-2]), 1e-300):
            status = SolveStatus.OPTIMAL
            break

    return _report(mats, scenario, y, status, trace, iterations)


# ---------------------------------------------------------------------------
# closed forms


def closed_form_eh_only(mats: CorrelationMatrices, scenario: Scenario) -> SolveReport:
    """Harvester-only allocation: the whole budget to the highest-priority harvester.

    Valid when the rate floor is zero: no decoder is scheduled, so no
    positive floor can be met.
    """
    k = mats.n_eh
    if k == 0:
        raise ValueError("no harvesters in the scenario")
    if scenario.rate_floor > 0:
        raise ValueError("closed_form_eh_only needs a zero rate floor")
    return _lp_report(mats, scenario, np.arange(mats.n_slots) < k)


def closed_form_mixed(
    mats: CorrelationMatrices, scenario: Scenario, mask=None
) -> SolveReport:
    """Exact allocation with a single active decoder: the best vertex of the
    schedule's linear program (see `_lp_report`).  Infeasible, with r*, when
    even the full budget on the decoder cannot reach the floor.
    """
    mask = _full_mask(mats, mask)
    if np.count_nonzero(mask[mats.n_eh :]) != 1:
        raise ValueError("closed_form_mixed needs exactly one active decoder")
    return _lp_report(mats, scenario, mask)


# ---------------------------------------------------------------------------
# exhaustive oracle


def exhaustive_search(
    mats: CorrelationMatrices,
    scenario: Scenario,
    opts: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Brute force over all 2^(K+M) schedules, keeping the best optimized branch.

    Schedules without a decoder are skipped whenever the rate floor is
    positive; ties resolve to the lexicographically smallest schedule
    (slot 0 is the most significant position).
    """
    n = mats.n_slots
    if n > 20:
        raise ValueError(f"exhaustive search guard: {n} slots exceeds the 2^20 budget")
    best: SolveReport | None = None
    total_iters = 0
    for mask in _schedules(n):
        schedule = "".join("01"[b] for b in mask.tolist())
        if not mask.any():
            log.debug("schedule %s -> empty", schedule)
            if scenario.rate_floor <= 0:
                best = _report(mats, scenario, np.zeros(n))
            continue
        if scenario.rate_floor > 0 and not mask[mats.n_eh :].any():
            log.debug("schedule %s -> skipped (no decoder under a positive floor)", schedule)
            continue
        report = sca_solve(mats, scenario, opts, mask)
        total_iters += report.iterations
        log.debug(
            "schedule %s -> %s objective=%s", schedule, report.status.value, report.objective
        )
        if report.status is not SolveStatus.OPTIMAL:
            continue
        if best is None or report.objective > best.objective:
            best = report
    if best is None:
        return _infeasible_report(mats)
    return replace(best, iterations=total_iters)
