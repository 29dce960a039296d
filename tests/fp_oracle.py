"""Plain fractional-programming fixed point for the decoder-only sum-rate.

The reference for `fp_rate_max`, which accelerates the same map.  It shares
no code with `solvers.py`: the map is derived here from the quadratic
transform of Shen & Yu ("Fractional programming for communication systems",
IEEE TSP 2018) and its water-filling step finds the budget price by
bisection.  With SINR_m = A_m / B_m, A_m = g_m x_m and
B_m = g_m (eta x)_m + sigma2_m, one step sets gamma_m = SINR_m and
z_m = sqrt((1 + gamma_m) A_m) / (A_m + B_m), and then maximizes

    sum_j 2 u_j sqrt(x_j) - c_j x_j   over x >= 0, sum_j x_j <= P0,

with u_j = z_j sqrt((1 + gamma_j) g_j) and c_j = sum_m z_m^2 g_m (delta_mj +
eta_mj), whose solution is x_j = (u_j / (c_j + lam))^2 for a budget price
lam >= 0.  The loop stops when one step changes the sum-rate by at most
PLAIN_TOLERANCE relative, or after PLAIN_MAX_STEPS steps.
"""

from __future__ import annotations

import math

import numpy as np

PLAIN_TOLERANCE = 1e-11
PLAIN_MAX_STEPS = 3000


class DecoderProblem:
    """The decoder-only problem of a scenario: all decoders scheduled, the
    harvesters off."""

    def __init__(self, mats, scn):
        k = mats.n_eh
        self.gain = np.asarray(mats.g_id, dtype=float)
        self.noise = np.asarray(scn.sigma2, dtype=float)
        self.leak = np.asarray(mats.lambda_masked, dtype=float)[k:, k:]
        self.p0 = float(scn.p0)

    def sinr(self, x):
        return self.gain * x / (self.gain * (self.leak @ x) + self.noise)

    def rate(self, x):
        return float(sum(np.log2(1.0 + s) for s in self.sinr(x)))

    def step(self, x):
        """One update of the plain fixed-point map."""
        sig = self.gain * x
        den = self.gain * (self.leak @ x) + self.noise
        gamma = sig / den
        z = np.sqrt((1.0 + gamma) * sig) / (sig + den)
        u = z * np.sqrt((1.0 + gamma) * self.gain)
        zg = z * z * self.gain
        c = zg + self.leak.T @ zg
        with np.errstate(divide="ignore", invalid="ignore"):
            free = (u / c) ** 2
        if np.all(np.isfinite(free)) and free.sum() <= self.p0:
            return free
        return water_fill_by_bisection(u, c, self.p0)

    def max_rate(self):
        """Maximum sum-rate the plain loop reaches from the equal split."""
        x = np.full(len(self.gain), self.p0 / len(self.gain))
        r = self.rate(x)
        for _ in range(PLAIN_MAX_STEPS):
            x = self.step(x)
            r_new = self.rate(x)
            done = abs(r_new - r) <= PLAIN_TOLERANCE * max(1.0, abs(r))
            r = r_new
            if done:
                break
        return r


def water_fill_by_bisection(u, w, p0):
    """Budget price of sum_i (u_i / (w_i + lam))^2 = P0 by 100 halvings.
    The budget is summed over Python floats: a handful of slots is far
    cheaper that way than through numpy."""
    pairs = list(zip(u.tolist(), w.tolist()))

    def spent(lam):
        return sum((ui / (wi + lam)) ** 2 for ui, wi in pairs)

    lo, hi = 0.0, math.sqrt(float((u**2).sum()) / p0)
    for _ in range(100):
        lam = 0.5 * (lo + hi)
        if spent(lam) > p0:
            lo = lam
        else:
            hi = lam
    x = (u / (w + 0.5 * (lo + hi))) ** 2
    return x * (p0 / x.sum())
