"""Water-filling step of `fp_rate_max` in numpy arrays.

The reference for `solvers._water_fill`, which runs the same Newton search
on Python floats element by element.  This is the array form that search
replaced, kept as it was; it shares nothing with `solvers.py`.  Every
elementwise step is the same IEEE operation in both forms, numpy's square
is the product q * q, and the float form sums in numpy's order, so the two
agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def water_fill(u: np.ndarray, w: np.ndarray, p0: float) -> np.ndarray:
    """Allocation (u / (w + lam))^2 whose budget price lam > 0 solves
    sum_i (u_i / (w_i + lam))^2 = P0, by Newton on the sum's -1/2 power from
    max_i(u_i / sqrt(P0) - w_i), renormalised onto the budget."""
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
