"""Uniform linear array geometry, steering vectors and large-scale gains.

The base station is an N-element ULA centered at the origin with element n
at (0, delta_n * d), delta_n = (2n - N + 1) / 2.  Receiver positions are
polar (spatial angle theta, distance r) where theta = 2*d*cos(phi)/lambda
for a physical departure angle phi measured from the array axis.  All
distances are meters, powers are linear watts.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s, round convention so 30 GHz -> lambda = 1 cm exactly

__all__ = [
    "SPEED_OF_LIGHT",
    "ArrayConfig",
    "PolarLocation",
    "FresnelRegionWarning",
    "rayleigh_distance",
    "fresnel_min_distance",
    "element_distance",
    "element_distance_taylor",
    "near_steering",
    "far_steering",
    "channel_gain",
    "aod_to_spatial_angle",
]


class FresnelRegionWarning(UserWarning):
    """A receiver sits outside the radiative Fresnel region of the array."""


@dataclass(frozen=True)
class ArrayConfig:
    """XL-array geometry: element count, carrier and spacing.

    `spacing` defaults to half a wavelength.  `aperture` defaults to the
    physical extent (n_antennas - 1) * spacing; pass it explicitly to match
    an alternative aperture convention when computing the Rayleigh distance.
    """

    n_antennas: int
    carrier_freq: float
    spacing: float | None = None
    aperture: float | None = None

    def __post_init__(self):
        n = self.n_antennas
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"n_antennas must be an integer >= 2, got {n!r}")
        if not 0 < self.carrier_freq < math.inf:
            raise ValueError(f"carrier_freq must be finite and > 0, got {self.carrier_freq}")
        if self.spacing is not None and not 0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing}")
        if self.aperture is not None and not 0 < self.aperture < math.inf:
            raise ValueError(f"aperture must be finite and > 0, got {self.aperture}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def d(self) -> float:
        return self.spacing if self.spacing is not None else self.wavelength / 2.0

    @property
    def D(self) -> float:
        return self.aperture if self.aperture is not None else (self.n_antennas - 1) * self.d


@dataclass(frozen=True)
class PolarLocation:
    """Receiver position as (spatial angle, distance).

    spatial_angle lies in [-1, 1].  distance must be positive; math.inf is
    the far-field sentinel accepted by the correlation routines.  A finite
    distance must have a finite square (below about 1.34e154 m), because the
    exact element distances square it.
    """

    spatial_angle: float
    distance: float

    def __post_init__(self):
        if not -1.0 <= self.spatial_angle <= 1.0:
            raise ValueError(f"spatial_angle must lie in [-1, 1], got {self.spatial_angle}")
        if not self.distance > 0.0:
            raise ValueError(f"distance must be > 0, got {self.distance}")
        r = float(self.distance)
        if math.isfinite(r) and math.isinf(r * r):
            raise ValueError(f"distance must have a finite square, got {self.distance}")

    @property
    def is_far_field(self) -> bool:
        return math.isinf(self.distance)


def rayleigh_distance(cfg: ArrayConfig) -> float:
    """Near/far-field boundary 2*D^2 / lambda."""
    return 2.0 * cfg.D**2 / cfg.wavelength


def fresnel_min_distance(cfg: ArrayConfig) -> float:
    """Inner edge of the radiative Fresnel region, max(sqrt(D^3/lambda)/2, 1.2*D)."""
    return max(0.5 * math.sqrt(cfg.D**3 / cfg.wavelength), 1.2 * cfg.D)


def element_distance(cfg: ArrayConfig, loc: PolarLocation, n) -> np.ndarray | float:
    """Exact element-to-receiver distance sqrt(r^2 + delta_n^2 d^2 - 2 r theta delta_n d)."""
    _check_element_index(cfg, n)
    return _exact_distance(_element_delta(cfg, n), cfg.d, loc.spatial_angle, loc.distance)


def element_distance_taylor(cfg: ArrayConfig, loc: PolarLocation, n) -> np.ndarray | float:
    """Second-order expansion r - delta_n d theta + delta_n^2 d^2 (1 - theta^2) / (2r)."""
    _check_element_index(cfg, n)
    offset, theta, r = _element_delta(cfg, n) * cfg.d, loc.spatial_angle, loc.distance
    return r - offset * theta + offset**2 * (1.0 - theta**2) / (2.0 * r)


def _check_element_index(cfg: ArrayConfig, n) -> None:
    n = np.asarray(n)
    if np.any(n < 0) or np.any(n > cfg.n_antennas - 1):
        raise ValueError(f"element index out of range 0..{cfg.n_antennas - 1}")


def _element_delta(cfg: ArrayConfig, n) -> np.ndarray:
    return (2.0 * np.asarray(n) - cfg.n_antennas + 1.0) / 2.0


def _exact_distance(delta, d, theta, r):
    # float_power squares r with the C library's pow, as Python's float ** 2
    # does; numpy's `r**2` multiplies and differs in the last bit for about
    # 1 value in 1,300, so scalar and batched distances would disagree
    return np.sqrt(np.float_power(r, 2) + (delta * d) ** 2 - 2.0 * r * theta * delta * d)


def _spherical_steering(cfg: ArrayConfig, theta, r) -> np.ndarray:
    """Spherical-wavefront steering vectors exp(-2j*pi*(r_n - r)/lambda) / sqrt(N).

    `theta` and `r` broadcast against the element axis, which comes last:
    scalars give one vector, a (G, 1) column of distances gives G rows.  Each
    row equals the vector of its own (theta, r) bit for bit.
    """
    delta = _element_delta(cfg, np.arange(cfg.n_antennas))
    rn = _exact_distance(delta, cfg.d, theta, r)
    phase = -2.0 * np.pi * (rn - r) / cfg.wavelength
    # cos and sin written into one complex buffer are exp(1j * phase) bit for
    # bit (checked on an AVX-512 Xeon with numpy 2.4.6) and skip the complex exp
    vec = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=vec.real)
    np.sin(phase, out=vec.imag)
    vec /= math.sqrt(cfg.n_antennas)
    return vec


def near_steering(cfg: ArrayConfig, loc: PolarLocation) -> np.ndarray:
    """Unit-norm spherical-wavefront steering vector, phase-referenced to the array center.

    Entry n is exp(-2j*pi*(r_n - r)/lambda) / sqrt(N) with r_n the exact
    element distance.
    """
    if loc.is_far_field:
        return far_steering(cfg, loc.spatial_angle)
    return _spherical_steering(cfg, loc.spatial_angle, loc.distance)


def far_steering(cfg: ArrayConfig, angle: float) -> np.ndarray:
    """Unit-norm planar-wavefront steering vector; entry n is exp(j*pi*n*theta)/sqrt(N)."""
    if not -1.0 <= angle <= 1.0:
        raise ValueError(f"spatial angle must lie in [-1, 1], got {angle}")
    n = np.arange(cfg.n_antennas)
    return np.exp(1j * np.pi * n * angle) / math.sqrt(cfg.n_antennas)


def channel_gain(cfg: ArrayConfig, loc: PolarLocation) -> float:
    """Line-of-sight power gain N * (lambda / (4 pi r))^2."""
    if loc.is_far_field:
        raise ValueError("channel_gain needs a finite distance")
    amp = cfg.wavelength / (4.0 * np.pi * loc.distance)
    return cfg.n_antennas * amp**2


def aod_to_spatial_angle(cfg: ArrayConfig, phi: float) -> float:
    """Map a physical departure angle (radians, from the array axis) to theta = 2 d cos(phi) / lambda."""
    theta = 2.0 * cfg.d * math.cos(phi) / cfg.wavelength
    if not -1.0 <= theta <= 1.0:
        raise ValueError(
            f"spacing {cfg.d} maps phi={phi} outside the spatial-angle range [-1, 1]"
        )
    return theta


def warn_if_outside_fresnel(cfg: ArrayConfig, loc: PolarLocation, label: str = "receiver") -> None:
    """Emit FresnelRegionWarning for finite distances below the radiative-region edge."""
    if loc.is_far_field:
        return
    rmin = fresnel_min_distance(cfg)
    if loc.distance < rmin:
        warnings.warn(
            f"{label} at r={loc.distance:.3f} m lies inside the Fresnel edge "
            f"r_min={rmin:.3f} m; the common-gain model is evaluated anyway",
            FresnelRegionWarning,
            stacklevel=2,
        )
