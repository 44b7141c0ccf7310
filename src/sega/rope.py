"""Rotary frequency schedules and their training-free extrapolation variants.

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
        if not 0.0 < self.alpha < self.beta < math.inf:
            raise ValueError("need 0 < alpha < beta < inf")
        if not 0.0 < self.train_len < math.inf:
            raise ValueError("train_len must be finite and > 0")


@dataclass(frozen=True, eq=False)
class RopeSchedule:
    """Immutable per-axis frequency vector theta; its rotary size is 2 * len(theta)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a nonempty vector")
        if not np.all(theta > 0):
            raise ValueError("theta must be strictly positive")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return 2 * self.theta.size


def base_frequencies(dim: int, base: float) -> np.ndarray:
    """theta_d = base ** (-2d / dim) for d in 0 .. dim/2 - 1."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be an even integer >= 2")
    if dim > MAX_DIM:
        raise ValueError(f"dim must be <= {MAX_DIM}")
    if not 0.0 < base < math.inf:
        raise ValueError("base must be finite and > 0")
    d = np.arange(dim // 2, dtype=np.float64)
    with np.errstate(over="ignore"):
        theta = base ** (-2.0 * d / dim)
    if not np.isfinite(theta).all():
        raise ValueError(f"base {base:g} is too small for dim {dim}: its frequencies overflow")
    return theta


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
    return np.clip(lam, 0.0, 1.0)


def yarn_weights(theta: np.ndarray, params: YarnParams) -> np.ndarray:
    """The ramp at r_d = T_d / train_len, T_d = 2*pi / theta_d the wavelength.

    An r past float64's range is inf, whose ramp of 1 is the limit, not an error.
    """
    with np.errstate(over="ignore"):
        r = (2.0 * np.pi / np.asarray(theta, dtype=np.float64)) / params.train_len
    return yarn_ramp(r, params)


def yarn_frequencies(theta: np.ndarray, ratio: float, params: YarnParams) -> np.ndarray:
    """Per-dimension blend (1 - lam) * theta/ratio + lam * theta, lam = yarn_weights."""
    _check_ratio(ratio)
    theta = np.asarray(theta, dtype=np.float64)
    lam = yarn_weights(theta, params)
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
        raise ValueError("dype time t must lie in [0, 1]")
    _check_ratio(ratio)
    if not 0.0 < p < math.inf:
        raise ValueError("dype_p must be finite and > 0")
    return 1.0 + (ratio - 1.0) * (1.0 - t) ** p


def make_schedule(
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
    _check_ratio(ratio)
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
    return RopeSchedule(theta)


def scale_vector(scale: np.ndarray | None, schedule: RopeSchedule) -> np.ndarray:
    """The per-subspace magnitudes for schedule as float64; None means unit scaling."""
    half = schedule.dim // 2
    if scale is None:
        return np.ones(half)
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (half,):
        raise ValueError(f"scale must have length {half}")
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ValueError("scale entries must be finite and > 0")
    return scale
