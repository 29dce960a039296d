"""Steering-vector correlations, exact and Fresnel-approximate, and the
coupling matrices that turn receiver geometry into a power-allocation problem.

The squared correlation eta^2(p, q) = |v_p^H v_q|^2 between two steering
vectors measures how much power a beam aimed at q leaks to p.  Collecting
every pairwise value gives the coupling matrix Lambda; zeroing the diagonal
entries of the decoder slots (decoders do not harvest their own beam's
energy budget twice) gives the masked variant used throughout the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import (
    ArrayConfig,
    PolarLocation,
    _spherical_steering,
    channel_gain,
    far_steering,
    near_steering,
    warn_if_outside_fresnel,
)
from .scenario import Scenario

__all__ = [
    "FresnelPair",
    "DegenerateGeometryError",
    "CorrelationMatrices",
    "fresnel",
    "correlation_exact",
    "correlation_approx",
    "correlation_grid",
    "build_matrices",
    "eh_priority",
]


class DegenerateGeometryError(ValueError):
    """The closed-form correlation is undefined: both locations share the
    same effective curvature (1 - theta^2)/r, so the Fresnel argument
    collapses to zero.  Fall back to correlation_exact."""


@dataclass(frozen=True)
class FresnelPair:
    """Values of the cosine and sine Fresnel integrals at one argument."""

    c_val: float
    s_val: float


def fresnel(beta: float) -> FresnelPair:
    """Fresnel integrals C(beta) = int_0^beta cos(pi t^2/2) dt and the sine analogue."""
    if not math.isfinite(beta):
        raise ValueError(f"fresnel needs a finite argument, got {beta}")
    s, c = special.fresnel(beta)
    return FresnelPair(c_val=float(c), s_val=float(s))


def _coherence(v_p: np.ndarray, v_q: np.ndarray) -> float:
    return min(float(abs(np.vdot(v_p, v_q))), 1.0)


def correlation_exact(cfg: ArrayConfig, loc_p: PolarLocation, loc_q: PolarLocation) -> float:
    """|v_p^H v_q| by direct N-term summation; far-field locations use the planar vector."""
    return _coherence(near_steering(cfg, loc_p), near_steering(cfg, loc_q))


def _curvature(theta, r):
    # (1 - theta^2)/r, which is 0 at the far-field sentinel r = inf
    return (1.0 - theta**2) / r


def _closed_form(cfg: ArrayConfig, theta_p, curv_p, theta_q, curv_q) -> np.ndarray:
    """The Fresnel closed form over broadcast arrays; NaN where the curvatures coincide."""
    kappa = cfg.d * np.abs(curv_p - curv_q)
    root = np.sqrt(kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (theta_q - theta_p) / root
        b2 = cfg.n_antennas / 2.0 * root
        s_plus, c_plus = special.fresnel(b1 + b2)
        s_minus, c_minus = special.fresnel(b1 - b2)
        value = np.hypot(c_plus - c_minus, s_plus - s_minus) / (2.0 * b2)
    return np.where(kappa == 0.0, np.nan, value)


def correlation_approx(cfg: ArrayConfig, loc_p: PolarLocation, loc_q: PolarLocation) -> float:
    """Closed-form correlation via shifted Fresnel integrals.

    With kappa = d * |(1-theta_p^2)/r_p - (1-theta_q^2)/r_q|, the arguments
    are b1 = (theta_q - theta_p)/sqrt(kappa) and b2 = (N/2) sqrt(kappa), and
    the correlation is |Chat + j Shat| / (2 b2) where Chat, Shat are the
    Fresnel integral differences over [b1 - b2, b1 + b2].

    Raises DegenerateGeometryError when the curvatures coincide (b2 = 0);
    callers fall back to correlation_exact.
    """
    theta_p, theta_q = loc_p.spatial_angle, loc_q.spatial_angle
    curv_p, curv_q = _curvature(theta_p, loc_p.distance), _curvature(theta_q, loc_q.distance)
    value = float(_closed_form(cfg, theta_p, curv_p, theta_q, curv_q))
    if math.isnan(value):
        raise DegenerateGeometryError(
            "equal effective curvatures; use correlation_exact for this pair"
        )
    return value


def correlation_grid(
    cfg: ArrayConfig, ref: PolarLocation, thetas, radii
) -> tuple[np.ndarray, np.ndarray]:
    """correlation_exact and correlation_approx of `ref` against every grid point.

    Entry [i, j] of both arrays belongs to the point (thetas[i], radii[j]),
    whose distance must be finite.  `approx` is NaN where correlation_approx
    raises DegenerateGeometryError.  Both equal the scalar functions bit for
    bit.  The grid is built one theta-row at a time, so memory stays at
    O(len(radii) * N).
    """
    thetas = np.asarray(thetas, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if not (np.all(np.abs(thetas) <= 1.0) and np.all(np.isfinite(radii) & (radii > 0.0))):
        raise ValueError("grid angles must lie in [-1, 1] and grid distances be finite and > 0")
    v_ref = near_steering(cfg, ref)
    curv_ref = _curvature(ref.spatial_angle, ref.distance)
    exact = np.empty((len(thetas), len(radii)))
    approx = np.empty_like(exact)
    for i, theta in enumerate(thetas.tolist()):
        block = _spherical_steering(cfg, theta, radii[:, None])
        exact[i] = [_coherence(v_ref, v) for v in block]
        approx[i] = _closed_form(cfg, ref.spatial_angle, curv_ref, theta, _curvature(theta, radii))
    return exact, approx


@dataclass(frozen=True)
class CorrelationMatrices:
    """Pairwise beam couplings plus the linear coefficients of the allocation problem.

    Slot order is [harvesters 0..K-1, decoders K..K+M-1].  `c_eh` carries
    alpha_k * zeta * g_k for harvester slots (zeros on decoder slots), so the
    weighted harvested sum-power of an allocation y is c_eh @ lambda_masked @ y.
    """

    lambda_full: np.ndarray
    lambda_masked: np.ndarray
    c_eh: np.ndarray
    g_eh: np.ndarray
    g_id: np.ndarray
    alpha: np.ndarray
    zeta: float

    @property
    def n_eh(self) -> int:
        return len(self.g_eh)

    @property
    def n_id(self) -> int:
        return len(self.g_id)

    @property
    def n_slots(self) -> int:
        return self.lambda_full.shape[0]

    @property
    def priorities(self) -> np.ndarray:
        """Marginal weighted harvested power per allocated watt, per slot."""
        return self.c_eh @ self.lambda_masked


def build_matrices(cfg: ArrayConfig, scenario: Scenario) -> CorrelationMatrices:
    """Evaluate every pairwise coupling of the deployment by exact summation.

    The Fresnel closed form exists for validation studies only; matrix
    entries always come from the N-term inner products so the optimizers
    never inherit its approximation error.
    """
    locs = [r.location for r in scenario.eh_receivers] + [
        r.location for r in scenario.id_receivers
    ]
    for i, rec in enumerate(scenario.eh_receivers):
        warn_if_outside_fresnel(cfg, rec.location, label=f"harvester {i}")
    k, m = scenario.n_eh, scenario.n_id
    # harvesters carry spherical-wavefront vectors, decoders planar ones; a
    # decoder's finite distance only sets its gain
    vecs = np.array(
        [near_steering(cfg, loc) for loc in locs[:k]]
        + [far_steering(cfg, loc.spatial_angle) for loc in locs[k:]]
    )
    inner = vecs.conj() @ vecs.T
    lam = np.minimum(np.abs(inner) ** 2, 1.0)
    np.fill_diagonal(lam, 1.0)
    lam = (lam + lam.T) / 2.0

    masked = lam.copy()
    for j in range(k, k + m):
        masked[j, j] = 0.0

    g_eh = np.array([channel_gain(cfg, loc) for loc in locs[:k]])
    g_id = np.array([channel_gain(cfg, loc) for loc in locs[k:]])
    alpha = np.array([r.weight for r in scenario.eh_receivers])
    c_eh = np.concatenate([alpha * scenario.zeta * g_eh, np.zeros(m)])

    return CorrelationMatrices(
        lambda_full=lam,
        lambda_masked=masked,
        c_eh=c_eh,
        g_eh=g_eh,
        g_id=g_id,
        alpha=alpha,
        zeta=scenario.zeta,
    )


def eh_priority(mats: CorrelationMatrices) -> tuple[int, np.ndarray]:
    """Harvesting priority of every slot and the argmax (ties go to the lowest index).

    Slot p's priority is the weighted power harvested across all harvesters
    per watt allocated to p, including decoder slots whose beams charge the
    harvesters through leakage.
    """
    rho = mats.priorities
    return int(np.argmax(rho)), rho
