"""Rate and harvested-power evaluation for a given power allocation.

Allocations live in the eliminated-binary form: a nonnegative vector y with
one entry per slot, where a positive entry means the slot's beam is
scheduled with that transmit power.  Everything here is a pure function of
(coupling matrices, allocation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrices

__all__ = [
    "SCHEDULING_EPS",
    "PowerAllocation",
    "id_rate",
    "eh_power",
    "weighted_sum_power",
    "sum_rate",
]

# fraction of the budget below which a solver residual does not count as scheduled
SCHEDULING_EPS = 1e-6


@dataclass(frozen=True)
class PowerAllocation:
    """Per-slot transmit powers [harvesters..., decoders...] in watts."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 1:
            raise ValueError("powers must be a 1-D vector")
        if (p < 0).any():
            raise ValueError("powers must be nonnegative")
        object.__setattr__(self, "powers", p)

    def scheduled_mask(self, budget: float) -> np.ndarray:
        """Support of the allocation; entries above SCHEDULING_EPS * budget count."""
        return self.powers > SCHEDULING_EPS * budget


def _as_vector(y) -> np.ndarray:
    if isinstance(y, PowerAllocation):
        return y.powers
    return np.asarray(y, dtype=float)


def id_rate(mats: CorrelationMatrices, sigma2, y, m: int) -> float:
    """Achievable rate of decoder m in bps/Hz.

    The masked coupling matrix has a zero at the decoder's own slot, so the
    interference term sums every other scheduled beam's leakage.
    """
    yv = _as_vector(y)
    s2 = np.asarray(sigma2, dtype=float)
    g, slot = mats.g_id[m], mats.n_eh + m
    signal = float(g * yv[slot])
    interference = float((g * mats.lambda_masked[slot]) @ yv)
    return float(np.log2(1.0 + signal / (interference + s2[m])))


def _ordered_sum(values) -> float:
    """Left-to-right sum from 0.0, which is how numpy sums fewer than 8
    elements; Python's builtin sum compensates rounding from 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def sum_rate(mats: CorrelationMatrices, sigma2, y) -> float:
    """Sum of the decoders' rates, added left to right on every Python."""
    return _ordered_sum(id_rate(mats, sigma2, y, m) for m in range(mats.n_id))


def eh_power(mats: CorrelationMatrices, y, k: int) -> float:
    """Power harvested by receiver k: own beam plus leakage from every other beam."""
    yv = _as_vector(y)
    return float(mats.zeta * mats.g_eh[k] * (mats.lambda_masked[k] @ yv))


def weighted_sum_power(mats: CorrelationMatrices, y) -> float:
    """Weighted harvested sum-power, the objective of every solver: the
    per-slot priorities (c_eh @ lambda_masked, cached) times y, which equals
    sum(alpha_k * eh_power(k)) up to rounding."""
    return float(mats.priorities @ _as_vector(y))

