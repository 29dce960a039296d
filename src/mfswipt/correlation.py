"""Steering-vector correlations, exact and Fresnel-approximate, and the
coupling matrices that turn receiver geometry into a power-allocation problem.

The squared correlation eta^2(p, q) = |v_p^H v_q|^2 between two steering
vectors measures how much power a beam aimed at q leaks to p.  Collecting
every pairwise value gives the coupling matrix Lambda; zeroing the diagonal
entries of the decoder slots (decoders do not harvest their own beam's
energy budget twice) gives the masked variant used throughout the solvers.

The Fresnel integrals are a numpy port of `fresnl` from the Cephes library
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989),
with the trigonometric terms reduced as scipy's `xsf` does, so they equal
`scipy.special.fresnel` (scipy 1.17.1) bit for bit without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    s, c = _fresnl(beta)
    return FresnelPair(c_val=float(c), s_val=float(s))


# Cephes fresnl.c rational approximations, highest power first: S and C for
# x^2 < 2.5625 in t = x^4, the auxiliary f and g beyond it in u = 1/(pi x^2)^2
_SN = (-2.99181919401019853726e3, 7.08840045257738576863e5, -6.29741486205862506537e7,
       2.54890880573376359104e9, -4.42979518059697779103e10, 3.18016297876567817986e11)
_SD = (2.81376268889994315696e2, 4.55847810806532581675e4, 5.17343888770096400730e6,
       4.19320245898111231129e8, 2.24411795645340920940e10, 6.07366389490084639049e11)
_CN = (-4.98843114573573548651e-8, 9.50428062829859605134e-6, -6.45191435683965050962e-4,
       1.88843319396703850064e-2, -2.05525900955013891793e-1, 9.99999999999999998822e-1)
_CD = (3.99982968972495980367e-12, 9.15439215774657478799e-10, 1.25001862479598821474e-7,
       1.22262789024179030997e-5, 8.68029542941784300606e-4, 4.12142090722199792936e-2,
       1.00000000000000000118e0)
_FN = (4.21543555043677546506e-1, 1.43407919780758885261e-1, 1.15220955073585758835e-2,
       3.45017939782574027900e-4, 4.63613749287867322088e-6, 3.05568983790257605827e-8,
       1.02304514164907233465e-10, 1.72010743268161828879e-13, 1.34283276233062758925e-16,
       3.76329711269987889006e-20)
_FD = (7.51586398353378947175e-1, 1.16888925859191382142e-1, 6.44051526508858611005e-3,
       1.55934409164153020873e-4, 1.84627567348930545870e-6, 1.12699224763999035261e-8,
       3.60140029589371370404e-11, 5.88754533621578410010e-14, 4.52001434074129701496e-17,
       1.25443237090011264384e-20)
_GN = (5.04442073643383265887e-1, 1.97102833525523411709e-1, 1.87648584092575249293e-2,
       6.84079380915393090172e-4, 1.15138826111884280931e-5, 9.82852443688422223854e-8,
       4.45344415861750144738e-10, 1.08268041139020870318e-12, 1.37555460633261799868e-15,
       8.36354435630677421531e-19, 1.86958710162783235106e-22)
_GD = (1.47495759925128324529e0, 3.37748989120019970451e-1, 2.53603741420338795122e-2,
       8.14679107184306179049e-4, 1.27545075667729118702e-5, 1.04314589657571990585e-7,
       4.60680728146520428211e-10, 1.10273215066240270757e-12, 1.38796531259578871258e-15,
       8.39158816283118707363e-19, 1.86958710162783236342e-22)


def _horner(x, coef, monic=False):
    """Cephes polevl, or p1evl (an implied leading coefficient 1) when `monic`."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _sinpi_cospi(x):
    """sin(pi x) and cos(pi x) for x >= 0, reduced by fmod(x, 2) as xsf does."""
    r = np.fmod(x, 2.0)
    sin = np.where(
        r < 0.5,
        np.sin(np.pi * r),
        np.where(r > 1.5, np.sin(np.pi * (r - 2.0)), -np.sin(np.pi * (r - 1.0))),
    )
    cos = np.where(r < 1.0, -np.sin(np.pi * (r - 0.5)), np.sin(np.pi * (r - 1.5)))
    return sin, np.where(r == 0.5, 0.0, cos)


def _fresnl(x) -> tuple[np.ndarray, np.ndarray]:
    """(S(x), C(x)) elementwise, every branch evaluated and the right one kept."""
    x = np.asarray(x, dtype=float)
    # |x| above ~1e154 overflows x^2; such arguments give NaN, as in Cephes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.abs(x)
        x2 = a * a
        t = x2 * x2
        s_small = a * x2 * _horner(t, _SN) / _horner(t, _SD, monic=True)
        c_small = a * _horner(t, _CN) / _horner(t, _CD)
        sin, cos = _sinpi_cospi(x2 / 2)
        pia = np.pi * a
        s_far = 0.5 - 1.0 / pia * cos
        c_far = 0.5 + 1.0 / pia * sin
        pix2 = np.pi * x2
        u = 1.0 / (pix2 * pix2)
        f = 1.0 - u * _horner(u, _FN) / _horner(u, _FD, monic=True)
        g = 1.0 / pix2 * _horner(u, _GN) / _horner(u, _GD, monic=True)
        s_mid = 0.5 - (f * cos + g * sin) / pia
        c_mid = 0.5 + (f * sin - g * cos) / pia
    branch = [np.isinf(a), x2 < 2.5625, a > 36974.0]
    s = np.select(branch, [0.5, s_small, s_far], s_mid)
    c = np.select(branch, [0.5, c_small, c_far], c_mid)
    negative = x < 0.0
    return np.where(negative, -s, s), np.where(negative, -c, c)


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
        s_plus, c_plus = _fresnl(b1 + b2)
        s_minus, c_minus = _fresnl(b1 - b2)
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


# grid points per closed-form call in correlation_grid
_CLOSED_FORM_BLOCK = 10_000


def correlation_grid(
    cfg: ArrayConfig, ref: PolarLocation, thetas, radii
) -> tuple[np.ndarray, np.ndarray]:
    """correlation_exact and correlation_approx of `ref` against every grid point.

    Entry [i, j] of both arrays belongs to the point (thetas[i], radii[j]),
    whose distance must be finite.  `approx` is NaN where correlation_approx
    raises DegenerateGeometryError.  Both equal the scalar functions bit for
    bit.  The steering vectors are built one theta-row at a time, so memory
    stays at O(len(radii) * N).  The closed form evaluates every branch of the
    Fresnel integrals, so its temporaries are ~28x its output: it runs over
    blocks of whole rows of at most _CLOSED_FORM_BLOCK points (at least one
    row), on curvatures taken per row from the Python-float theta as the
    scalar path takes them.
    """
    thetas = np.asarray(thetas, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if not (np.all(np.abs(thetas) <= 1.0) and np.all(np.isfinite(radii) & (radii > 0.0))):
        raise ValueError("grid angles must lie in [-1, 1] and grid distances be finite and > 0")
    v_ref = near_steering(cfg, ref)
    curv_ref = _curvature(ref.spatial_angle, ref.distance)
    exact = np.empty((len(thetas), len(radii)))
    curv = np.empty_like(exact)
    for i, theta in enumerate(thetas.tolist()):
        block = _spherical_steering(cfg, theta, radii[:, None])
        exact[i] = [_coherence(v_ref, v) for v in block]
        curv[i] = _curvature(theta, radii)
    approx = np.empty_like(exact)
    rows = max(1, _CLOSED_FORM_BLOCK // max(len(radii), 1))
    for i in range(0, len(thetas), rows):
        block = slice(i, i + rows)
        approx[block] = _closed_form(
            cfg, ref.spatial_angle, curv_ref, thetas[block, None], curv[block]
        )
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
