"""Lagrangian maximizer of one SCA round in numpy arrays.

The reference for `solvers._lagrangian_argmax`, which runs the same search
on Python floats element by element.  This is the array form that search
replaced, kept as it was; it shares nothing with `solvers.py` but the bound
model it reads, whose list fields it turns into arrays first.  Every
elementwise step is the same IEEE operation in both forms, and numpy sums
fewer than 8 elements left to right, so up to 7 decoders the two agree bit
for bit; from 8 on numpy sums pairwise and they agree to rounding.
"""

from __future__ import annotations

import numpy as np


def lagrangian_argmax(model, w: np.ndarray, nu: float, p0: float) -> np.ndarray:
    """Maximize w @ x + nu G(x) over 1'x <= P0, x >= 0, for a rate price nu > 0
    and the bound model G of `solvers._BoundModel`."""
    pos = np.array(model.pos, dtype=int)
    free = np.array(model.free, dtype=int)
    alpha = np.array(model.alpha, dtype=float)
    c = np.array(model.c, dtype=float)
    d = w - nu * c
    spend = False
    if free.size:
        p = free[int(np.argmax(d[free]))]
        spend = d[p] > 0
    x = np.zeros(len(w))
    if not pos.size:  # G is affine: a linear program over the budget
        if spend:
            x[p] = p0
        return x
    j0 = int(np.argmax(d[pos]))
    q0 = pos[j0]
    rel = (w - w[q0]) - nu * (c - c[q0])  # reduced costs relative to q0's
    delta = np.maximum(-rel[pos], 0.0)
    num = nu * alpha
    beta_h = rel[p] if spend else -d[q0]
    beta = max(beta_h, num[j0] / p0**2)
    t = np.sqrt(num / (beta + delta))
    s = float(t.sum())
    if s > p0 or beta > beta_h:  # the decoders spend the whole budget
        for _ in range(100):
            step = s * ((s / p0) ** 2 - 1.0) / float((t / (beta + delta)).sum())
            if not beta + step > beta:
                break
            beta += step
            t = np.sqrt(num / (beta + delta))
            s = float(t.sum())
        x[pos] = t * (p0 / s)
    else:
        x[pos] = t
        if spend:
            x[p] = p0 - s
    return x
