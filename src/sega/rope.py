"""Rotary frequency schedules, training-free extrapolation variants, rotation.

A schedule along one grid axis is a vector of angular frequencies
``theta[d] = base ** (-2d / dim)`` for d = 0 .. dim/2 - 1. Extrapolation to a
token count ``ratio`` times the training length recalibrates theta:

* ``pi``         divides every frequency by the ratio,
* ``ntk``        rebuilds theta from an enlarged base ``b * ratio**(D/(D-2))``,
* ``ntk_strong`` uses the exponent ``2D/(D-2)`` instead, preserving more
  positional contrast on 2D grids,
* ``yarn``       blends per dimension between the pi-compressed and the
  untouched frequency, driven by a wavelength ramp,
* ``dype``       applies the ntk rule with a time-dependent effective ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AXES = ("H", "W")
METHODS = ("none", "pi", "ntk", "ntk_strong", "yarn", "dype")
# Largest rotary size per axis, 8x the largest head dimension in use; checked
# before a schedule's frequencies, token features or keys are allocated.
MAX_DIM = 1024


def _check_ratio(ratio: float) -> None:
    if not ratio >= 1.0:  # NaN fails this test too
        raise ValueError("ratio must be >= 1")
    if ratio == math.inf:
        raise ValueError("ratio must be finite")


@dataclass(frozen=True)
class YarnParams:
    """Wavelength ramp bounds (in units of wavelength / train length) and train length."""

    alpha: float = 1.0
    beta: float = 32.0
    train_len: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta:
            raise ValueError("need 0 < alpha < beta")
        if not 0.0 < self.train_len < math.inf:
            raise ValueError("train_len must be finite and > 0")


@dataclass(frozen=True, eq=False)
class RopeSchedule:
    """Immutable per-axis frequency vector plus its provenance."""

    dim: int
    base: float
    theta: np.ndarray
    axis: str
    method: str = "none"
    ratio: float = 1.0

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError("dim must be an even integer >= 2")
        if not 0.0 < self.base < math.inf:
            raise ValueError("base must be finite and > 0")
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        _check_ratio(self.ratio)
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.shape != (self.dim // 2,):
            raise ValueError(f"theta must have length {self.dim // 2}")
        if not np.all(theta > 0):
            raise ValueError("theta must be strictly positive")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


def base_frequencies(dim: int, base: float) -> np.ndarray:
    """theta_d = base ** (-2d / dim) for d in 0 .. dim/2 - 1."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be an even integer >= 2")
    if dim > MAX_DIM:
        raise ValueError(f"dim must be <= {MAX_DIM}")
    if not 0.0 < base < math.inf:
        raise ValueError("base must be finite and > 0")
    d = np.arange(dim // 2, dtype=np.float64)
    return base ** (-2.0 * d / dim)


def pi_frequencies(theta: np.ndarray, ratio: float) -> np.ndarray:
    """Uniform contraction theta_d / ratio (position interpolation)."""
    _check_ratio(ratio)
    return np.asarray(theta, dtype=np.float64) / ratio


def ntk_base(base: float, ratio: float, dim: int, strong: bool = False) -> float:
    """Enlarged rotary base: base * ratio**(D/(D-2)), or 2D/(D-2) for the strong variant."""
    if dim <= 2:
        raise ValueError("dim must exceed 2 for base modification")
    _check_ratio(ratio)
    exponent = (2.0 if strong else 1.0) * dim / (dim - 2)
    try:
        enlarged = base * ratio**exponent
    except OverflowError:
        enlarged = math.inf
    if not math.isfinite(enlarged):
        raise ValueError(f"ntk base overflows at ratio {ratio:g}")
    return enlarged


def yarn_ramp(r, params: YarnParams):
    """Piecewise-linear ramp: 0 below alpha, 1 above beta, linear in between."""
    r = np.asarray(r, dtype=np.float64)
    lam = (r - params.alpha) / (params.beta - params.alpha)
    lam = np.clip(lam, 0.0, 1.0)
    if lam.ndim == 0:
        return float(lam)
    return lam


def yarn_frequencies(theta: np.ndarray, ratio: float, params: YarnParams) -> np.ndarray:
    """Per-dimension blend (1 - lam) * theta/ratio + lam * theta.

    lam is the ramp evaluated at the normalized wavelength ratio
    r_d = T_d / train_len with T_d = 2*pi / theta_d.
    """
    _check_ratio(ratio)
    theta = np.asarray(theta, dtype=np.float64)
    r = (2.0 * np.pi / theta) / params.train_len
    lam = yarn_ramp(r, params)
    return (1.0 - lam) * theta / ratio + lam * theta


def yarn_temperature(ratio: float) -> float:
    """Uniform logit scaling 0.1 * ln(ratio) + 1 that sharpens attention under extrapolation."""
    _check_ratio(ratio)
    return 0.1 * math.log(ratio) + 1.0


def dype_ratio(ratio: float, t: float, p: float = 1.0) -> float:
    """Time-dependent effective ratio 1 + (ratio - 1) * (1 - t)**p.

    t runs in [0, 1] with 1 at the pure-noise end of denoising, so the
    schedule starts unmodified and reaches the full correction at t = 0.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    _check_ratio(ratio)
    if not 0.0 < p < math.inf:
        raise ValueError("dype_p must be finite and > 0")
    return 1.0 + (ratio - 1.0) * (1.0 - t) ** p


def make_schedule(
    axis: str,
    dim: int,
    base: float = 10000.0,
    method: str = "none",
    ratio: float = 1.0,
    yarn: YarnParams | None = None,
    dype_time: float = 0.0,
    dype_p: float = 1.0,
    dype_strong: bool = False,
) -> RopeSchedule:
    """Build the frequency schedule for one axis under the named method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    theta0 = base_frequencies(dim, base)
    if method == "none":
        theta = theta0
    elif method == "pi":
        theta = pi_frequencies(theta0, ratio)
    elif method in ("ntk", "ntk_strong"):
        theta = base_frequencies(dim, ntk_base(base, ratio, dim, strong=method == "ntk_strong"))
    elif method == "yarn":
        if yarn is None:
            raise ValueError("yarn method requires YarnParams")
        theta = yarn_frequencies(theta0, ratio, yarn)
    else:  # dype
        s_t = dype_ratio(ratio, dype_time, dype_p)
        theta = base_frequencies(dim, ntk_base(base, s_t, dim, strong=dype_strong))
    return RopeSchedule(dim=dim, base=base, theta=theta, axis=axis, method=method, ratio=ratio)


def scale_vector(scale: np.ndarray | None, schedule: RopeSchedule) -> np.ndarray:
    """The per-subspace magnitudes for schedule as float64; None means unit scaling."""
    half = schedule.dim // 2
    if scale is None:
        return np.ones(half)
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (half,):
        raise ValueError(f"scale must have length {half}")
    if not np.all(scale > 0):
        raise ValueError("scale entries must be positive")
    return scale


def apply_rotary(
    x: np.ndarray,
    position,
    schedule: RopeSchedule,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Rotate each 2D subspace of x by position * theta_d, then scale it by scale[d].

    x has shape (..., dim) with subspace d occupying components (2d, 2d+1);
    position is a scalar or an array broadcastable against x's leading axes.
    scale=None means unit scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != schedule.dim:
        raise ValueError(f"vector length {x.shape[-1]} != schedule dim {schedule.dim}")
    scale = scale_vector(scale, schedule)
    # cos/sin once per distinct position (a grid axis has few), then gathered
    position = np.asarray(position, dtype=np.float64)
    distinct, index = np.unique(position, return_inverse=True)
    angles = distinct[:, None] * schedule.theta  # (distinct, dim/2)
    index = index.reshape(position.shape)  # numpy 1.x flattens it
    cos, sin = np.cos(angles)[index], np.sin(angles)[index]  # (..., dim/2)
    xe, xo = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = scale * (cos * xe - sin * xo)
    out[..., 1::2] = scale * (sin * xe + cos * xo)
    return out
