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
  through the round's Lagrange dual in a rate price and a budget price.  One
  rule decides the rate floor R here and in `benchmarks`: R binds only when
  R > FEASIBILITY_TOLERANCE, and a sum-rate meets R when it reaches
  R - FEASIBILITY_TOLERANCE, so a floor further above the maximum sum-rate
  of `fp_rate_max` is infeasible.  A schedule under a floor that binds
  nothing or with at most one decoder (the paper's harvester-only and
  single-decoder cases) is a linear program, solved exactly by comparing
  its vertices, with no rounds.  One solve builds its view of all K+M slots
  once (the schedule marks which may take power), and a round spends about
  five Lagrangian maximizations (`_solve_round`).  The rounds and the
  water-filling of `fp_rate_max` run on Python floats, as a solve has a
  handful of active slots and numpy's per-call overhead would outweigh the
  arithmetic.  They repeat the array form operation for operation, with the
  dot and matrix products and the logarithms left in numpy (BLAS and SIMD
  do not round as a loop does), so the bits are the array form's.
* `exhaustive_search` - the best `sca_solve` report over all 2^(K+M)
  schedules, the benchmark oracle.  A schedule that provably repeats the
  full schedule's solve (by that report's `leftover`) takes its report, a
  schedule whose objective bound (from the interference-free power its
  decoders need) cannot beat the incumbent is pruned.  Inside
  `_shared_full_solve`, which `benchmarks.run_sweep` opens around each grid
  point, it shares its full-schedule solve with `proposed` (`_full_solve`).

Every solver accepts an optional boolean `mask` pinning the complementary
slots to zero power; unscheduled harvesters still collect leakage in the
objective.  All routines are deterministic.  A solve writes nothing outside
the `SolveReport` it returns; the report carries no label, as the
comparison harness in `benchmarks` names its runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .correlation import CorrelationMatrices
from .metrics import PowerAllocation, _ordered_sum, sum_rate, weighted_sum_power
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
    "exhaustive_search",
]

log = logging.getLogger(__name__)

LN2 = math.log(2.0)

# slack (bps/Hz) of the rate-floor rule (see the module docstring)
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
    """Everything one solve produces.

    `residuals` holds "sum_rate", the sum-rate of the allocation (bps/Hz), on
    every report with an allocation, and "r_star", the schedule's maximum
    sum-rate, on an `Infeasible` report that knows it.  `leftover` is the set
    of slots that were a leftover candidate (see `_lagrangian_argmax`) in
    any SCA round, and None where the SCA loop did not run: the LP path, an
    unmet floor, and the equal-power baselines.
    """

    allocation: PowerAllocation
    objective: float
    trace: tuple
    status: SolveStatus
    residuals: dict
    iterations: int
    leftover: frozenset | None = None


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
    """Arrays of the allocation problem over every slot, with the schedule's
    slots in `mask`: only those may take power.

    x indexes all n slots, so a schedule's solve forms the same array
    products, of the same length, as the full schedule's, and a pinned slot
    only ever adds an exact zero to them.  For active decoder j (deployment
    index act_ids[j], slot pos_j): signal A_j(x) = gain_j * x[pos_j],
    interference-plus-noise B_j(x) = brow_j @ x + sigma2_j with
    brow_j = gain_j * lam_j, lam_j its couplings to every slot.  The weights
    w are the priorities with pinned slots at 0; the objective keeps the full
    priority vector, so pinned harvesters still account for harvested leakage.
    """

    def __init__(self, mats: CorrelationMatrices, scenario: Scenario, mask=None):
        self.mask = _full_mask(mats, mask)
        self.act_ids = np.flatnonzero(self.mask[mats.n_eh :])
        self.n = mats.n_slots
        self.w = np.where(self.mask, mats.priorities, 0.0)
        self.p0 = scenario.p0
        self.rate_floor = scenario.rate_floor
        self.pos = mats.n_eh + self.act_ids
        self.gain = mats.g_id[self.act_ids]
        self.sigma2 = np.array(scenario.sigma2)[self.act_ids]
        self.brow = self.gain[:, None] * mats.lambda_masked[self.pos]

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


# most slots whose 2^n schedules are enumerated
MAX_SCHEDULE_SLOTS = 20


def _schedules(n: int):
    """Every schedule of n slots as a boolean mask, in lexicographic order
    (slot 0 is the most significant position), starting with the empty one.
    Refuses more than MAX_SCHEDULE_SLOTS slots."""
    if n > MAX_SCHEDULE_SLOTS:
        raise ValueError(
            f"schedule enumeration guard: {n} slots exceeds the 2^{MAX_SCHEDULE_SLOTS} budget"
        )
    return (np.array(bits) for bits in itertools.product((False, True), repeat=n))


def _report(
    mats: CorrelationMatrices,
    scenario: Scenario,
    y: np.ndarray,
    status: SolveStatus = SolveStatus.OPTIMAL,
    trace: tuple | None = None,
    iterations: int = 0,
    leftover: frozenset | None = None,
) -> SolveReport:
    """Report of allocation y: its objective, and its sum-rate measured on y
    itself.  The trace defaults to the objective alone."""
    obj = weighted_sum_power(mats, y)
    return SolveReport(
        allocation=PowerAllocation(y),
        objective=obj,
        trace=(obj,) if trace is None else tuple(trace),
        status=status,
        residuals={"sum_rate": sum_rate(mats, scenario.sigma2, y)},
        iterations=iterations,
        leftover=leftover,
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
    extrapolate to x0 - 2 alpha r + alpha^2 v with alpha = -|r| / |v|,
    clamped to x >= 0 and rescaled onto the budget (the sum-rate rises with
    a common power scale).  That point replaces x2 only if its sum-rate is
    at least that of x2.  The iteration stops when one plain step F from the
    accepted point changes the sum-rate by at most FP_TOLERANCE relative,
    and returns that step's result, or the best decoder alone at the whole
    budget where that rates higher.  gamma is the achieved SINR there, and
    `iterations` counts the evaluations of F.
    """
    mask = _full_mask(mats, mask)
    if not mask[mats.n_eh :].any():
        raise ValueError("fp_rate_max needs at least one active decoder")
    act = np.flatnonzero(mask[mats.n_eh :])
    slots = mats.n_eh + act
    g, s2, p0 = mats.g_id[act], np.array(scenario.sigma2)[act], scenario.p0
    eta = mats.lambda_masked[np.ix_(slots, slots)]

    def point(x):  # x, its signals A, interference-plus-noise B and sum-rate
        a, b = g * x, g * (eta @ x) + s2
        return x, a, b, float(np.log2(1.0 + a / b).sum())

    def step(a, b):
        gamma = a / b
        z = np.sqrt((1.0 + gamma) * a) / (a + b)
        u = z * np.sqrt((1.0 + gamma) * g)
        # linear price of each slot: own total-power coefficient plus leakage
        # into the other decoders' denominators
        w = (z**2) * g + (z**2 * g) @ eta
        x_free = (u / np.maximum(w, 1e-300)) ** 2
        return point(x_free if x_free.sum() <= p0 else _water_fill(u, w, p0))

    x, a, b, r = point(np.full(len(act), p0 / len(act)))
    iters = 0
    while iters < MAX_FP_ITERS:
        x1, a1, b1, r1 = step(a, b)
        iters += 1
        if abs(r1 - r) <= FP_TOLERANCE * max(1.0, abs(r)):
            x, a, b, r = x1, a1, b1, r1
            break
        x2, a2, b2, r2 = step(a1, b1)
        iters += 1
        d1, d2 = x1 - x, x2 - 2.0 * x1 + x
        curvature = math.sqrt(float(d2 @ d2))  # np.linalg.norm, as it computes it
        if curvature > 0.0:
            alpha = -math.sqrt(float(d1 @ d1)) / curvature
            xe = np.maximum(x - 2.0 * alpha * d1 + alpha * alpha * d2, 0.0)
            total = float(xe.sum())
            if total > 0.0:
                xe *= p0 / total
                ext = point(xe)
                if ext[3] >= r2:
                    x2, a2, b2, r2 = ext
        x, a, b, r = x2, a2, b2, r2

    # the map can stall at a saddle that splits power between decoders which
    # interfere fully (coincident decoders); a single decoder at full power
    # then rates higher
    for unit in np.eye(len(act)):
        corner = point(p0 * unit)
        if corner[3] > r:
            x, a, b, r = corner

    y = np.zeros(mats.n_slots)
    y[slots] = x
    return RateMaxResult(r_star=r, allocation=PowerAllocation(y), gamma=a / b, iterations=iters)


def _water_fill(u: np.ndarray, w: np.ndarray, p0: float) -> np.ndarray:
    """Allocation (u / (w + lam))^2 whose budget price lam > 0 solves
    S(lam) = sum_i (u_i / (w_i + lam))^2 = P0, renormalised onto the budget.

    S^-1/2 is concave and increasing in lam (linear for one slot), so Newton
    on it rises monotonically to the root from the lower bound
    max_i(u_i / sqrt(P0) - w_i), where one slot alone spends the budget; it
    stops once a step no longer raises lam.  It runs on Python floats, its
    sums in numpy's order, so the bits are those of the array form.
    """
    u, w = u.tolist(), w.tolist()
    lam = max(0.0, max([ui / math.sqrt(p0) - wi for ui, wi in zip(u, w)]))
    for _ in range(100):
        den = [max(wi + lam, 1e-300) for wi in w]
        x = [q * q for q in (ui / di for ui, di in zip(u, den))]
        s = _numpy_sum(x)
        step = s * (math.sqrt(s / p0) - 1.0) / _numpy_sum([xi / di for xi, di in zip(x, den)])
        if not lam + step > lam:
            break
        lam += step
    return np.array(x) * (p0 / s)


def _numpy_sum(values: list) -> float:
    """Sum of floats in the order of numpy's pairwise `sum` (left to right below
    8 terms, 8 running sums to 128, halves beyond), and so with its bits."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    if n < 8:
        return _ordered_sum(values)
    m = n - n % 8
    r = [_ordered_sum(values[j:m:8]) for j in range(8)]
    pairs = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return _ordered_sum([pairs, *values[m:]])


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
    interference rows enter linearly).  `free` lists the other slots of the
    schedule, which G depends on linearly; they include any decoder whose
    alpha underflows to 0 because it has almost no power at the expansion
    point.  A slot off the schedule is in neither list and keeps 0 W.  pos,
    free, alpha and c are Python lists, read element by element by the dual
    search; c_vec keeps c as an array for the dot product in G.
    """

    def __init__(self, red: _Reduced, s: np.ndarray, i: np.ndarray):
        a, b, c0 = _bound_coeffs(s, i)
        on = [(q, al) for q, al in zip(red.pos.tolist(), (a / red.gain).tolist()) if al > 0]
        self.pos = [q for q, _ in on]
        self.alpha = [al for _, al in on]
        self.free = [q for q, m in enumerate(red.mask.tolist()) if m and q not in self.pos]
        self.c_vec = b @ red.brow
        self.c = self.c_vec.tolist()
        terms = zip(c0.tolist(), a.tolist(), s.tolist(), b.tolist(), (i - red.sigma2).tolist())
        self.const = _numpy_sum([cj + aj * sj + bj * ij for cj, aj, sj, bj, ij in terms])

    def value(self, x: np.ndarray, xs: list | None = None) -> float:
        xs = x.tolist() if xs is None else xs  # xs is x as a list, where the caller has it
        # summed left to right, as numpy sums below 8 elements; a decoder
        # power that underflowed to 0 makes G = -inf
        inverse = 0.0
        for a, q in zip(self.alpha, self.pos):
            v = xs[q]
            inverse += a / v if v else math.inf
        return self.const - inverse - float(self.c_vec @ x)


def _lagrangian_argmax(model: _BoundModel, w: list, nu: float, p0: float):
    """Maximize w @ x + nu G(x) over 1'x <= P0, x >= 0, for a rate price nu > 0.
    Returns (x, p, full): x a list of slot powers, p the free slot of best
    positive reduced cost, or None, and full whether the decoders spend the
    whole budget.  p takes the leftover budget unless they do; either way its
    price bounds theirs, so p shapes x.  Every other free slot has exactly 0 W.

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

    It runs on Python floats, the weights w as a list; its sums run left to
    right, numpy's order below 8 decoders (from 8 on they agree to rounding).
    """
    pos, free, c = model.pos, model.free, model.c
    d = [wq - nu * cq for wq, cq in zip(w, c)]
    x = [0.0] * len(w)
    p = None
    if free:
        d_free = [d[q] for q in free]
        q = free[d_free.index(max(d_free))]
        if d[q] > 0:
            p = q
    if not pos:  # G is affine: a linear program over the budget
        if p is not None:
            x[p] = p0
        return x, p, False
    d_pos = [d[q] for q in pos]
    j0 = d_pos.index(max(d_pos))
    q0 = pos[j0]
    w0, c0 = w[q0], c[q0]
    delta = [max(-((w[q] - w0) - nu * (c[q] - c0)), 0.0) for q in pos]
    num = [nu * a for a in model.alpha]
    beta_h = (w[p] - w0) - nu * (c[p] - c0) if p is not None else -d[q0]
    beta = max(beta_h, num[j0] / p0**2)
    if not beta > 0.0:  # nu alpha_q0 underflowed: no finite maximizer at this price
        return [math.nan] * len(w), p, False
    full = None
    for steps in range(101):
        t, s, slope = [], 0.0, 0.0  # t, its sum, the Newton slope sum_q t_q / (beta + delta_q)
        for n, e in zip(num, delta):
            den = beta + e
            tj = math.sqrt(n / den)
            t.append(tj)
            s += tj
            slope += tj / den
        if full is None:  # the decoders spend the whole budget
            full = s > p0 or beta > beta_h
        if not full or steps == 100:
            break
        step = s * ((s / p0) ** 2 - 1.0) / slope
        if not beta + step > beta:
            break
        beta += step
    if full:
        ratio = p0 / s
        for q, tj in zip(pos, t):
            x[q] = tj * ratio
        return x, p, True
    for q, tj in zip(pos, t):
        x[q] = tj
    if p is not None:
        x[p] = p0 - s
    return x, p, False


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
        if full:
            b = _ordered_sum([rq * w[q] for rq, q in zip(r, pos)]) / _ordered_sum(r)
        else:
            b = w[p] if p is not None else 0.0
    except (ZeroDivisionError, OverflowError):
        return math.nan
    return _ordered_sum([rq * (b - w[q]) ** 2 for rq, q in zip(r, pos)]) / (2.0 * nu)


# step past the root of G(x(nu)) - floor, in log nu, that makes a Newton
# iterate land on the feasible side
NEWTON_PUSH = 1e-9


def _solve_round(
    model: _BoundModel, w: np.ndarray, floor: float, p0: float, price: float = 0.0, start=None
) -> tuple[np.ndarray, int, float, float, set]:
    """Maximize w @ x subject to G(x) >= floor, 1'x <= P0 and x >= 0, exactly.
    Returns (x, evaluations, rate price, bound slack, leftover candidates):
    the Lagrangian evaluations that ran, the price nu and G - floor at the
    feasible end of the final bracket (the price tends to 0 when the floor
    does not bind), and the slots p that `_lagrangian_argmax` returned in
    any evaluation; every other free slot ends at 0 W and shaped none.

    The first evaluation is G's maximizer (zero weights), which must clear the
    floor by 1e-9 max(1, |floor|) or NoFeasibleInterior is raised; it is
    skipped where G at `start`, the expansion point in the budget, clears it.

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
    weights = w.tolist()
    if not max(weights) > 0:
        w, weights = -np.ones(len(w)), [-1.0] * len(w)
    margin = floor + 1e-9 * max(1.0, abs(floor))
    searched = start is None or not model.value(start) > margin
    if searched:
        top, _, _ = _lagrangian_argmax(model, [0.0] * len(weights), 1.0, p0)  # maximizes G
        if not model.value(np.array(top), top) > margin:
            raise NoFeasibleInterior("rate floor is tight at the current linearization")

    scale = max(map(abs, weights)) * p0
    t = math.log(price if price > 0 else scale)  # log nu
    # G >= floor (True) or not -> [log nu, G - floor, x, interpolation weight,
    # nu, w @ x, the dual bound w @ x + nu (G - floor)]
    ends = {}
    leftover = set()
    side = hi = None
    older = last = math.inf  # lengths of the two latest moves in t
    for evals in range(1, 201):
        nu = math.exp(t)
        xs, p, full = _lagrangian_argmax(model, weights, nu, p0)
        if p is not None:
            leftover.add(p)
        x = np.array(xs)
        phi = model.value(x, xs) - floor
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
        slope = _bound_slope(model, xs, weights, nu, p, full)
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
    return best, evals + searched, hi[4], hi[1], leftover


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
    maximizations that ran in the round, "rate_price", the round's optimal rate
    price (near 0 when the floor does not bind), "bound_slack", G - R at the
    feasible end of the final bracket, and "leftover", the round's leftover
    candidates: each maximization's free slot of best positive reduced cost
    (see `_lagrangian_argmax`).
    """
    if red is None:
        red = _Reduced(mats, scenario, mask)
    x = np.where(red.mask, np.asarray(y, dtype=float), 0.0)  # a pinned slot has no power
    s = [1.0 / a if a else math.inf for a in red.signal(x).tolist()]
    i = red.interference(x)
    for m, s_m, i_m in zip(red.act_ids.tolist(), s, i.tolist()):
        if not (math.isfinite(s_m) and math.isfinite(i_m)):
            raise NoFeasibleInterior(
                f"decoder {m} has a non-finite linearization slack (S={s_m}, I={i_m}): it has no power"
            )
    model = _BoundModel(red, np.array(s), i)
    x, evals, price, slack, leftover = _solve_round(
        model, red.w, red.rate_floor, red.p0, rate_price, x
    )
    if stats is not None:
        stats.update(dual_evals=evals, rate_price=price, bound_slack=slack, leftover=leftover)
    return PowerAllocation(x)


# ---------------------------------------------------------------------------
# outer loop


def _lp_report(mats: CorrelationMatrices, scenario: Scenario, mask: np.ndarray) -> SolveReport:
    """Exact solution of a schedule under a floor that binds nothing or with
    at most one decoder: its LP's best vertex, ties going to the lowest slot.

    Every priority is >= 0, so the budget is tight.  Under such a floor the
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
    if len(act_ids) == 0 or floor <= FEASIBILITY_TOLERANCE:
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

    A schedule under a floor that binds nothing or with at most one active
    decoder is solved by `_lp_report`'s LP.  Otherwise the loop starts from the
    decoder-only rate-maximizing allocation (feasible whenever the problem
    is), then repeats: expand the rate bound at the current allocation,
    solve the convexified round, move to its optimum.
    Each round's feasible region contains the previous optimum and the bound
    touches the true rate there, so the objective trace is non-decreasing;
    the loop stops when the fractional increase falls under the threshold.

    Every round works on all K+M slots, so pinning a slot that was never a
    leftover candidate (`_lagrangian_argmax`) leaves the iterates as they
    were; the report's `leftover` holds every round's candidates.
    """
    mask = _full_mask(mats, mask)
    if scenario.rate_floor <= FEASIBILITY_TOLERANCE or np.count_nonzero(mask[mats.n_eh :]) <= 1:
        return _lp_report(mats, scenario, mask)

    best = fp_rate_max(mats, scenario, mask)
    if not best.r_star >= scenario.rate_floor - FEASIBILITY_TOLERANCE:  # NaN is infeasible
        return _infeasible_report(mats, r_star=best.r_star)

    y = best.allocation.powers.copy()
    trace = [weighted_sum_power(mats, y)]
    status = SolveStatus.ITER_LIMIT
    iterations = 0
    red = _Reduced(mats, scenario, mask)
    stats = {"rate_price": 0.0}
    leftover = set()
    for iterations in range(1, opts.max_outer_iters + 1):
        try:
            alloc = inner_convex(
                y, mats, scenario, mask, stats=stats, red=red, rate_price=stats["rate_price"]
            )
        except NoFeasibleInterior:
            status = SolveStatus.OPTIMAL
            iterations -= 1
            break
        leftover |= stats["leftover"]
        obj_new = weighted_sum_power(mats, alloc.powers)
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
    return _report(mats, scenario, y, status, trace, iterations, frozenset(leftover))


# ---------------------------------------------------------------------------
# one full-schedule solve per sweep point

# [(mats, scenario, opts, report)] of the open `_shared_full_solve` scope, else None
_FULL = contextvars.ContextVar("mfswipt_full_solve", default=None)


@contextlib.contextmanager
def _shared_full_solve():
    """Within the block, `_full_solve` solves the full schedule of one
    (mats, scenario, opts) once and hands that report to every later call.
    The scope lives in the context that opened it; a thread started without
    a copy of that context, and every call after the block, solves afresh."""
    token = _FULL.set([])
    try:
        yield
    finally:
        _FULL.reset(token)


def _full_solve(
    mats: CorrelationMatrices, scenario: Scenario, opts: SolverOptions
) -> SolveReport:
    """`sca_solve(mats, scenario, opts)` on the full schedule.  Inside
    `_shared_full_solve` a call on the same `mats` and `scenario` objects
    with equal `opts` returns the report of the first such call: the solve
    is deterministic, so the report is the one a second solve would give,
    bit for bit.  A solve that raises is not kept."""
    shared = _FULL.get()
    if shared is None:
        return sca_solve(mats, scenario, opts)
    if shared:
        m, scn, o, report = shared[0]
        if m is mats and scn is scenario and o == opts:
            return report
    report = sca_solve(mats, scenario, opts)
    shared[:] = [(mats, scenario, opts, report)]
    return report


# ---------------------------------------------------------------------------
# exhaustive oracle


def _least_decoder_power(mats: CorrelationMatrices, scenario: Scenario, decoders) -> float:
    """P_min of the exhaustive search's bound for the decoders in `decoders`
    (one entry per decoder): the least total power whose sum-rate, each
    decoder free of interference, reaches R - 2 FEASIBILITY_TOLERANCE,
    lowered by 1e-9 relative and clamped to P0; 0 where that rate is not
    positive.

    The minimum is water-filling: with noise_m = sigma2_m / g_m, decoder m
    takes max(0, mu - noise_m).  With the k decoders of least noise on, the
    level is log2 mu = (rate + sum_{m <= k} log2 noise_m) / k, and k grows
    while that level tops the next decoder's noise.  Each power is formed as
    noise_m (2^(log2 mu - log2 noise_m) - 1), which keeps its digits when
    the level sits just above the noise.  A decoder without gain (infinite
    noise) cannot help; with none left, or a power that overflows, P_min is
    P0."""
    rate = scenario.rate_floor - 2.0 * FEASIBILITY_TOLERANCE
    if not rate > 0:
        return 0.0
    with np.errstate(divide="ignore"):
        noise = np.array(scenario.sigma2)[decoders] / mats.g_id[decoders]
    levels = sorted(v for v in noise.tolist() if v < math.inf)
    logs = [math.log2(v) for v in levels]
    total = 0.0
    for k, lg in enumerate(logs, 1):
        total += lg
        level = (rate + total) / k
        if k == len(logs) or level <= logs[k]:
            break
    else:
        return scenario.p0
    try:
        least = math.fsum(v * math.expm1(LN2 * (level - lg)) for v, lg in zip(levels, logs[:k]))
    except OverflowError:
        return scenario.p0
    return min(least * (1.0 - 1e-9), scenario.p0)


def _objective_bound(
    mats: CorrelationMatrices, scenario: Scenario, mask: np.ndarray, least_power: float
) -> float:
    """Bound on the objective of every `Optimal` report of schedule `mask`
    whose decoders take at least `least_power` (`_least_decoder_power`):
    rho_top P0 - (rho_top - rho_dec) least_power, raised by 1e-12 relative.

    Rounding: the computed priorities @ y and the stored y's sum exceed their
    exact values by at most a few n u relative (u = 2^-53), under 1e-14 for
    n <= 20 slots, so the raised bound still covers every computed objective."""
    rho = mats.priorities
    top = float(rho[mask].max())
    bound = scenario.p0 * top
    if least_power > 0:
        bound -= (top - float(rho[mats.n_eh :][mask[mats.n_eh :]].max())) * least_power
    return bound * (1.0 + 1e-12)


def exhaustive_search(
    mats: CorrelationMatrices,
    scenario: Scenario,
    opts: SolverOptions = SolverOptions(),
) -> SolveReport:
    """The best `sca_solve` report over all 2^(K+M) schedules.

    The empty schedule scores 0 unless the floor binds; under a binding
    floor the schedules without a decoder, all Infeasible, are skipped.
    Ties resolve to the lexicographically smallest schedule (slot 0 is the
    most significant position).  With no `Optimal` schedule the report is
    Infeasible with the full schedule's r*, if it states one.  More than
    MAX_SCHEDULE_SLOTS slots are refused.

    The full schedule, the `proposed` solve, is solved first and seeds the
    incumbent; inside `_shared_full_solve` that solve is shared with
    `proposed` (`_full_solve`), and it counts as solved here either way.
    When it runs SCA rounds, its report's `leftover` holds the leftover
    candidates of their Lagrangian maximizations (`_lagrangian_argmax`).  A
    schedule that keeps every decoder, every slot of `leftover` and a slot
    of the largest priority repeats that solve bit for bit: it starts from
    the same decoder-only allocation, every maximization picks the same
    candidate, its pinned slots only add exact zeros to the same array
    products, and its price scale P0 max rho is the same.  Such a schedule
    is *retraced*: it takes the full schedule's report without a solve.

    Every other schedule is pruned (branch and bound, Land & Doig 1960) when
    its objective bound falls strictly below the incumbent.  With rho_top the
    largest priority on the schedule, rho_dec the largest among its decoders
    and P_min the least decoder power whose interference-free sum-rate
    reaches R - 2 FEASIBILITY_TOLERANCE (`_least_decoder_power`), the
    bound is rho_top P0 - (rho_top - rho_dec) P_min: every `Optimal` report
    meets R - FEASIBILITY_TOLERANCE, interference only lowers a rate, so
    the decoders take at least P_min and the other slots at most P0 - P_min
    (with margins against rounding).  A pruned schedule would lose to the
    final best, so it moves neither the answer nor the tie-break.

    `iterations` sums the rounds of the solved and the retraced schedules; a
    retraced schedule counts the full schedule's rounds, as if it had been
    solved.  At debug level every schedule logs one line with its outcome
    (the status of a solved schedule, or retraced, pruned, skipped or
    empty), and the search logs one line with the count of each outcome.
    """
    n, k, binds = mats.n_slots, mats.n_eh, scenario.rate_floor > FEASIBILITY_TOLERANCE
    best: SolveReport | None = None
    counts = dict.fromkeys(("solved", "retraced", "pruned", "skipped", "empty"), 0)
    full = _full_solve(mats, scenario, opts)  # solved first: it seeds the incumbent
    total_iters = full.iterations
    seed = full.objective if full.status is SolveStatus.OPTIMAL else -math.inf
    keep = None  # the slots a schedule keeps to retrace the full solve
    if full.leftover is not None:
        keep = np.arange(n) >= k
        keep[list(full.leftover)] = True
        top = mats.priorities == mats.priorities.max()
    least = {}  # P_min per decoder subset
    for mask in _schedules(n):
        schedule = "".join("01"[b] for b in mask.tolist())
        if not mask.any():
            counts["empty"] += 1
            log.debug("schedule %s -> empty", schedule)
            if not binds:
                best = _report(mats, scenario, np.zeros(n))
            continue
        if binds and not mask[k:].any():
            counts["skipped"] += 1
            log.debug("schedule %s -> skipped (no decoder under a binding floor)", schedule)
            continue
        if mask.all():
            report, outcome = full, ""
        elif keep is not None and mask[keep].all() and mask[top].any():
            report, outcome = full, "retraced "
            total_iters += full.iterations
        else:
            key = mask[k:].tobytes()
            if key not in least:
                least[key] = _least_decoder_power(mats, scenario, mask[k:])
            bound = _objective_bound(mats, scenario, mask, least[key])
            bar = seed if best is None else max(seed, best.objective)
            if bound < bar:
                counts["pruned"] += 1
                log.debug("schedule %s -> pruned bound=%s incumbent=%s", schedule, bound, bar)
                continue
            report, outcome = sca_solve(mats, scenario, opts, mask), ""
            total_iters += report.iterations
        counts["retraced" if outcome else "solved"] += 1
        log.debug(
            "schedule %s -> %s%s objective=%s",
            schedule,
            outcome,
            report.status.value,
            report.objective,
        )
        if report.status is not SolveStatus.OPTIMAL:
            continue
        if best is None or report.objective > best.objective:
            best = report
    log.debug("exhaustive schedules=%d %s", 2**n, " ".join(f"{o}={c}" for o, c in counts.items()))
    if best is None:
        return _infeasible_report(mats, full.residuals.get("r_star"))
    return replace(best, iterations=total_iters)
