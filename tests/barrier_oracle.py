"""Log-barrier interior-point solve of one convexified SCA round.

The agreement oracle for `inner_convex`, which solves the round exactly
through its Lagrange dual.  It shares no solving code with it: it evaluates
the linearized rate bound from the signal and interference of the reduced
problem (not from the separable coefficients the dual solve uses) and runs a
generic barrier method (Boyd & Vandenberghe, ch. 11) with damped Newton
centering steps, accurate to about 1e-9 of the normalized objective.
"""

from __future__ import annotations

import math

import numpy as np

from mfswipt.solvers import NoFeasibleInterior, SolverNumericalError, _bound_coeffs, _Reduced

BARRIER_T0 = 1.0
BARRIER_MU = 20.0
NEWTON_TOL = 1e-9
MAX_NEWTON_STEPS = 100
BARRIER_GAP = 1e-9


class BoundModel:
    """G(y), gradient and Hessian data for the rate bound linearized at the
    slacks S = 1/A(x0), I = B(x0) of the expansion point x0."""

    def __init__(self, red: _Reduced, x0: np.ndarray):
        self.red = red
        self.s_tilde = 1.0 / red.signal(x0)
        self.i_tilde = red.interference(x0)
        self.a, self.b, self.c0 = _bound_coeffs(self.s_tilde, self.i_tilde)
        # constant part of the gradient: the interference rows enter linearly
        self.grad_lin = -(self.b[:, None] * red.brow).sum(axis=0)

    def value(self, x: np.ndarray) -> float:
        a_sig = self.red.signal(x)
        b_int = self.red.interference(x)
        # a decoder with almost no power at the expansion point has a = 0 and
        # adds no curvature, also where it gets no power now
        with np.errstate(divide="ignore", invalid="ignore"):
            curve = np.where(self.a > 0, self.a * (1.0 / a_sig - self.s_tilde), 0.0)
        return float((self.c0 - curve - self.b * (b_int - self.i_tilde)).sum())

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = self.grad_lin.copy()
        a_sig = self.red.signal(x)
        np.add.at(g, self.red.pos, self.a * self.red.gain / a_sig**2)
        return g

    def hess_diag(self, x: np.ndarray) -> np.ndarray:
        h = np.zeros(self.red.n)
        a_sig = self.red.signal(x)
        np.add.at(h, self.red.pos, -2.0 * self.a * self.red.gain**2 / a_sig**3)
        return h


def interior_start(red: _Reduced, model: BoundModel) -> np.ndarray:
    """Point with G(x) strictly above the floor, strictly inside the simplex.

    Tries a shrunk equal split, then pushes G uphill with a damped Newton
    ascent on the simplex-barriered surrogate.  Raises NoFeasibleInterior
    when the bound cannot clear the floor by any margin.
    """
    floor = red.rate_floor
    margin = 1e-9 * max(1.0, abs(floor))
    x = np.full(red.n, 0.999 * red.p0 / red.n)
    if model.value(x) > floor + margin:
        return x
    x = np.full(red.n, 0.5 * red.p0 / red.n)
    t = 1.0
    for _ in range(80):
        slack_p = red.p0 - x.sum()
        grad = -t * model.grad(x) + 1.0 / slack_p - 1.0 / x
        hess = np.ones((red.n, red.n)) / slack_p**2 + np.diag(1.0 / x**2)
        hess[np.diag_indices(red.n)] -= t * model.hess_diag(x)
        try:
            dx = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            dx = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        # backtrack into the simplex while the surrogate decreases
        step = 1.0
        cur = -t * model.value(x) - math.log(slack_p) - float(np.log(x).sum())
        while step > 1e-14:
            xn = x + step * dx
            if (xn > 0).all() and xn.sum() < red.p0:
                nxt = -t * model.value(xn) - math.log(red.p0 - xn.sum()) - float(np.log(xn).sum())
                if nxt <= cur + 0.25 * step * float(grad @ dx):
                    break
            step *= 0.5
        if step <= 1e-14:
            t *= 4.0
            continue
        x = x + step * dx
        if model.value(x) > floor + margin:
            return x
        if float(grad @ dx) > -NEWTON_TOL:
            t *= 4.0
    raise NoFeasibleInterior("rate floor is tight at the current linearization")


def barrier_maximize(red: _Reduced, model: BoundModel, x0: np.ndarray) -> np.ndarray:
    """Maximize w @ x subject to G(x) >= floor, 1'x <= P0, x >= 0 from the
    strictly feasible x0.  With all-zero weights the total power is
    minimized instead (the least-budget point among equally good ones)."""
    n = red.n
    scale = float(red.w.max()) * red.p0
    if scale > 0:
        f0 = -red.w / (scale / red.p0)  # minimize; normalized to O(1)
    else:
        f0 = np.ones(n)  # tie-break: least total power
    floor = red.rate_floor
    n_constraints = n + 2

    def barrier(x, t):
        g_val = model.value(x) - floor
        slack_p = red.p0 - x.sum()
        if g_val <= 0 or slack_p <= 0 or (x <= 0).any():
            return None
        val = t * float(f0 @ x) - math.log(g_val) - math.log(slack_p) - float(np.log(x).sum())
        grad_g = model.grad(x)
        grad = t * f0 - grad_g / g_val + 1.0 / slack_p - 1.0 / x
        hess = np.outer(grad_g, grad_g) / g_val**2 + np.ones((n, n)) / slack_p**2
        hess[np.diag_indices(n)] += 1.0 / x**2 - model.hess_diag(x) / g_val
        return val, grad, hess

    x = x0.copy()
    t = BARRIER_T0
    while True:
        for _ in range(MAX_NEWTON_STEPS):
            out = barrier(x, t)
            if out is None:
                raise SolverNumericalError("barrier iterate left the domain")
            val, grad, hess = out
            try:
                dx = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            if float(-grad @ dx) / 2.0 <= NEWTON_TOL:
                break
            step = 1.0
            while step > 1e-14:
                trial = barrier(x + step * dx, t)
                if trial is not None and trial[0] <= val + 0.25 * step * float(grad @ dx):
                    break
                step *= 0.5
            if step <= 1e-14:
                break
            x = x + step * dx
        if n_constraints / t < BARRIER_GAP:
            return x
        t *= BARRIER_MU


def barrier_round(y, mats, scenario):
    """One round of the full schedule expanded at allocation y, solved by the
    barrier: returns (allocation, bound model) or raises NoFeasibleInterior like
    `inner_convex`, also where a decoder has no power at y (an infinite slack;
    the bound there evaluated to NaN, so the interior search never succeeded)."""
    red = _Reduced(mats, scenario)
    with np.errstate(divide="ignore"):
        model = BoundModel(red, np.asarray(y, dtype=float))
    if not (np.isfinite(model.s_tilde).all() and np.isfinite(model.i_tilde).all()):
        raise NoFeasibleInterior("a decoder has no power at the expansion point")
    return barrier_maximize(red, model, interior_start(red, model)), model
