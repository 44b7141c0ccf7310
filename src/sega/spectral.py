"""From latent grid to per-dimension rotary scaling.

Pipeline: center the grid, take one 2D FFT, fold the power spectrum into
axis-wise profiles (marginalized over the orthogonal frequency axis) and a
radial profile (ring averages). Per axis, each rotary dimension looks up the
band matching its wavelength; log-energies are standardized across dimensions
and pushed through tanh with the mean subtracted, giving a strictly zero-sum
correction s_d. The radial profile's spectral flatness gates the correction
strength sigma, and a resolution-ratio anchor m_ref sets the shared magnitude:

    m_d = m_ref * (1 - sigma * s_d)

High-energy bands get s_d > 0 and thus weaker scaling; flat (structureless)
spectra drive sigma toward 0, switching the correction off.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .rope import RopeSchedule
from .tensorio import LatentGrid, center_map, check_fields, normalized_radius

logger = logging.getLogger(__name__)

REF_FORMS = ("power", "log")

# Positivity floor for the modulator; 1 - sigma*s_d can in principle approach
# -1, so clamp and log rather than emit a nonpositive scaling.
MODULATOR_FLOOR = 0.05


@dataclass(frozen=True)
class SegaConfig:
    """Tuning knobs for the scaling pipeline."""

    kappa: float = 0.08
    gamma: float = 1.5
    ref_form: Literal[REF_FORMS] = "power"
    eps: float = 1e-12
    n_bins_iso: int | None = None

    def __post_init__(self):
        # Each message starts with the field it faults, as in RopeParams.
        check_fields(self)
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.gamma >= 1.0:
            raise ValueError("gamma must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.n_bins_iso is not None and not self.n_bins_iso >= 2:
            raise ValueError("n_bins_iso must be >= 2")


@dataclass(frozen=True, eq=False)
class SpectralProfiles:
    """Axis-marginalized and radial energy profiles of one height x width latent.

    The axis lengths are kept because band lookup needs them: a profile holds
    floor(L/2) bins, so its length alone cannot tell an odd axis from an even one.
    """

    axis_h: np.ndarray
    axis_w: np.ndarray
    radial: np.ndarray
    occupied: np.ndarray
    height: int
    width: int


@dataclass(frozen=True, eq=False)
class ScalingVector:
    """Per-dimension scaling magnitudes for one axis, plus the pieces they came from."""

    axis: str
    m: np.ndarray
    sigma: float
    m_ref: float
    s_corr: np.ndarray


def power_spectrum_2d(cmap: np.ndarray) -> np.ndarray:
    """|FFT2(map)|^2 on the full (wrapped) frequency grid of an (H, W) map."""
    return np.abs(np.fft.fft2(cmap)) ** 2


def axis_profiles(spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginalize the power spectrum onto each axis, folding conjugate halves.

    Bin i of the H profile sums rows i and H-i of the spectrum (row 0 alone
    for i = 0); profile lengths are floor(H/2) and floor(W/2).
    """

    def fold(rows: np.ndarray) -> np.ndarray:
        bins = rows[: len(rows) // 2].copy()
        bins[1:] += rows[: -len(bins) : -1]  # rows L-1 down to L-len(bins)+1
        return bins

    return fold(spectrum.sum(axis=1)), fold(spectrum.T.sum(axis=1))


def radial_profile(spectrum: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Ring-average the power spectrum over normalized isotropic frequency.

    Sample (i, j) falls in the bin of its normalized_radius, which is 1 at the
    grid corner regardless of aspect ratio. The DC sample is excluded. Returns
    the per-bin means and an occupancy mask; empty bins hold 0. Past the
    spectrum's N samples every extra bin is empty, so n_bins lies in [2, N].
    """
    if not 2 <= n_bins <= spectrum.size:  # NaN fails this test too, and no bin is allocated
        raise ValueError(f"bins must lie in [2, {spectrum.size}], the latent's token count")
    rho = normalized_radius(*spectrum.shape)
    bins = np.minimum((rho * n_bins).astype(np.int64), n_bins - 1)
    flat_bins = bins.ravel()[1:]  # DC sits at flat index 0
    counts = np.bincount(flat_bins, minlength=n_bins)
    sums = np.bincount(flat_bins, weights=spectrum.ravel()[1:], minlength=n_bins)
    occupied = counts > 0
    e_iso = np.zeros(n_bins, dtype=np.float64)
    e_iso[occupied] = sums[occupied] / counts[occupied]
    return e_iso, occupied


def band_lookup(theta, axis_len: int) -> np.ndarray | int:
    """Profile bin of each rotary frequency in theta, a vector or a scalar.

    The frequency in cycles/token is theta_d / (2*pi); the bin is its cycle
    count over the axis, rounded half up and clamped to the profile range.
    Wavelengths longer than the axis map to bin 0. A vector gives an integer
    array of bins, a scalar one Python int.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(theta > 0):
        raise ValueError("theta_d must be positive")
    cycles = theta * axis_len / (2.0 * np.pi)
    top = max(axis_len // 2 - 1, 0)
    bins = np.where(cycles < 1.0, 0, np.minimum(np.floor(cycles + 0.5), top).astype(np.int64))
    return bins.item() if bins.ndim == 0 else bins


def per_dim_correction(
    profile: np.ndarray,
    schedule: RopeSchedule,
    axis_len: int,
    eps: float = SegaConfig.eps,
) -> np.ndarray:
    """Zero-sum correction over rotary dimensions from banded log-energies.

    Log-energies ln(E[band(theta_d)] + eps) are standardized across d (all
    zeros when degenerate), passed through tanh, and mean-centered. axis_len
    is the length of the axis the profile came from, which band lookup needs.
    """
    profile = np.asarray(profile, dtype=np.float64)
    if profile.size < 1:
        raise ValueError("profile must be nonempty")
    banded = profile[band_lookup(schedule.theta, axis_len)]
    log_e = np.log(banded + eps)
    mu = log_e.mean()
    nu = log_e.std()
    z = np.zeros_like(log_e) if nu < 1e-12 else (log_e - mu) / nu
    t = np.tanh(z)
    return t - t.mean()


def spectral_flatness(
    e_iso: np.ndarray, occupied: np.ndarray, eps: float = SegaConfig.eps
) -> float:
    """Geometric over arithmetic mean of the occupied radial bins, floored at eps, at most 1."""
    e_iso = np.asarray(e_iso, dtype=np.float64)
    occupied = np.asarray(occupied, dtype=bool)
    if not occupied.any():
        raise ValueError("flatness needs at least one occupied bin")
    vals = np.maximum(e_iso[occupied], eps)
    # Bins near the float maximum (a huge eps) overflow the arithmetic mean to
    # inf, so the flatness is 0, which amplitude_factor reports.
    with np.errstate(over="ignore"):
        arithmetic = np.mean(vals)
    # The geometric mean never exceeds the arithmetic mean; equal values
    # (a constant latent) can round the ratio to just above 1.
    return min(float(np.exp(np.mean(np.log(vals))) / arithmetic), 1.0)


def amplitude_factor(flatness: float, gamma: float) -> float:
    """sigma = 1 - flatness**gamma, clipped into [0, 1] against roundoff."""
    if not 0.0 < flatness <= 1.0:
        raise ValueError("flatness must lie in (0, 1]")
    if not gamma >= 1.0:  # NaN fails this test too
        raise ValueError("gamma must be >= 1")
    return min(max(1.0 - flatness**gamma, 0.0), 1.0)


def reference_scale(ratio: float, cfg: SegaConfig) -> float:
    """Shared anchor magnitude: ratio**kappa, or 1 + kappa*ln(ratio) for the log form."""
    if not ratio >= 1.0:
        raise ValueError("ratio must be >= 1")
    try:
        m_ref = ratio**cfg.kappa if cfg.ref_form == "power" else 1.0 + cfg.kappa * math.log(ratio)
    except OverflowError:
        m_ref = math.inf
    if not m_ref < math.inf:
        raise ValueError(f"reference scale overflows at ratio {ratio:g} and kappa {cfg.kappa:g}")
    return m_ref


def analyze(grid: LatentGrid, n_bins: int | None = None) -> SpectralProfiles:
    """Centered map -> power spectrum -> axis and radial profiles."""
    spectrum = power_spectrum_2d(center_map(grid))
    e_h, e_w = axis_profiles(spectrum)
    if n_bins is None:
        n_bins = max(2, min(grid.height, grid.width) // 2)
    e_iso, occupied = radial_profile(spectrum, n_bins)
    return SpectralProfiles(e_h, e_w, e_iso, occupied, grid.height, grid.width)


@dataclass(frozen=True, eq=False)
class ModulationResult:
    """Both axis scaling vectors plus the flatness that gated them."""

    vec_h: ScalingVector
    vec_w: ScalingVector
    flatness: float


def _scaling_vector(axis, profile, axis_len, schedule, sigma, m_ref, eps) -> ScalingVector:
    s = per_dim_correction(profile, schedule, eps=eps, axis_len=axis_len)
    modulator = 1.0 - sigma * s
    floored = np.maximum(modulator, MODULATOR_FLOOR)
    n_clamped = int(np.count_nonzero(floored != modulator))
    if n_clamped:
        logger.warning(
            "axis %s: clamped %d modulator value(s) at floor %.2f; "
            "mean scaling is no longer exactly m_ref",
            axis,
            n_clamped,
            MODULATOR_FLOOR,
        )
    return ScalingVector(axis=axis, m=m_ref * floored, sigma=sigma, m_ref=m_ref, s_corr=s)


def modulate_detailed(
    profiles: SpectralProfiles,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    ratio: float,
    cfg: SegaConfig | None = None,
) -> ModulationResult:
    """Scaling vectors for both axes from one latent's profiles (see :func:`analyze`)."""
    cfg = cfg or SegaConfig()
    flatness = spectral_flatness(profiles.radial, profiles.occupied, cfg.eps)
    sigma = amplitude_factor(flatness, cfg.gamma)
    m_ref = reference_scale(ratio, cfg)
    vec_h = _scaling_vector("H", profiles.axis_h, profiles.height, sched_h, sigma, m_ref, cfg.eps)
    vec_w = _scaling_vector("W", profiles.axis_w, profiles.width, sched_w, sigma, m_ref, cfg.eps)
    return ModulationResult(vec_h=vec_h, vec_w=vec_w, flatness=flatness)
