"""Simulated denoising trajectories driving per-step scaling and entropy traces.

Real diffusion latents are out of reach here, so each step blends seeded
Gaussian noise with a deterministic structure field (noise-heavy early,
structure-heavy late). Every step is analyzed spectrally, each configured
method gets its schedules and scaling vectors, and attention entropy is
measured on seeded Gaussian token features so it responds to positional
scaling without a learned model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .attention import rotary_entropy
from .rope import MAX_DIM, METHODS, RopeSchedule, YarnParams, make_schedule, yarn_temperature
from .spectral import SegaConfig, SpectralProfiles, reference_scale
from .tensorio import TrajectoryConfig, generate_latent, token_features

SCALING_MODES = ("none", "fixed", "sega")
GRID_KINDS = ("target", "train")


@dataclass(frozen=True)
class MethodSpec:
    """One configuration under comparison: a rope method plus a scaling mode.

    scaling: "none" leaves rotary magnitudes at 1, "fixed" applies the uniform
    anchor m_ref to every dimension, "sega" applies the spectral modulator.
    grid "train" evaluates at the training-scale grid (ratio 1), which is how
    the baseline for entropy deltas is defined.
    """

    name: str = ""
    rope: str = "ntk_strong"
    scaling: str = "sega"
    temperature: bool = False
    grid: str = "target"

    def __post_init__(self):
        # Each message starts with the field it faults, as in RopeParams.
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("name must be a nonempty string")
        for name, allowed in (("rope", METHODS), ("scaling", SCALING_MODES), ("grid", GRID_KINDS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")


@dataclass(frozen=True)
class RopeParams:
    """Experiment-level rotary settings shared by all methods."""

    dim: int = 64
    base: float = 10000.0
    ratio_h: float = 2.0
    ratio_w: float = 2.0
    yarn_alpha: float = YarnParams.alpha
    yarn_beta: float = YarnParams.beta
    dype_p: float = 1.0
    dype_strong: bool = False

    def __post_init__(self):
        # Each message starts with the field it faults, which the config loader
        # prefixes with the section: "rope.dim must be ...".
        if not 4 <= self.dim <= MAX_DIM or self.dim % 2 != 0:
            raise ValueError(f"dim must be an even integer in [4, {MAX_DIM}]")
        if not 0.0 < self.base < math.inf:
            raise ValueError("base must be finite and > 0")
        for name in ("ratio_h", "ratio_w"):
            if not getattr(self, name) >= 1.0:  # NaN fails this test too
                raise ValueError(f"{name} must be >= 1")

    @property
    def ratio_scalar(self) -> float:
        """Single resolution ratio feeding m_ref; geometric mean when axes differ."""
        return math.sqrt(self.ratio_h * self.ratio_w)


@dataclass
class MethodStepRecord:
    m_h: np.ndarray
    m_w: np.ndarray
    mean_entropy: float


@dataclass
class StepRecord:
    step: int
    alpha: float
    time: float
    flatness: float
    sigma: float
    radial: np.ndarray  # the target latent's radial profile, unnormalized
    methods: dict


def axis_schedules(
    rope: RopeParams, method: str, height: int, width: int,
    ratio_h: float, ratio_w: float, t: float = 0.0,
) -> tuple[RopeSchedule, RopeSchedule]:
    """Per-axis schedules for a height x width grid extrapolated by (ratio_h, ratio_w).

    yarn's training length on each axis is that axis's length over its ratio;
    t is the denoising time that drives dype.
    """

    def one(length: int, ratio: float) -> RopeSchedule:
        yarn = YarnParams(rope.yarn_alpha, rope.yarn_beta, length / ratio) if method == "yarn" else None
        return make_schedule(
            rope.dim, rope.base, method, ratio, yarn, t, rope.dype_p, rope.dype_strong
        )

    return one(height, ratio_h), one(width, ratio_w)


def scaling_vectors(
    scaling: str,
    profiles: SpectralProfiles | None,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    ratio: float,
    sega_cfg: SegaConfig,
    fixed_value: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(m_h, m_w) for one scaling mode; only "sega" reads the latent's profiles.

    "fixed" fills every dimension with fixed_value, or with m_ref when it is None.
    """
    half = sched_h.dim // 2
    if scaling == "none":
        return np.ones(half), np.ones(half)
    if scaling == "fixed":
        value = reference_scale(ratio, sega_cfg) if fixed_value is None else fixed_value
        return np.full(half, value), np.full(half, value)
    result = spectral.modulate_detailed(profiles, sched_h, sched_w, ratio, sega_cfg)
    return result.vec_h.m, result.vec_w.m


def train_shape(cfg: TrajectoryConfig, rope: RopeParams) -> tuple[int, int]:
    """The training-scale grid: each axis divided by its ratio, at least 2 tokens."""
    th = max(2, round(cfg.height / rope.ratio_h))
    tw = max(2, round(cfg.width / rope.ratio_w))
    return th, tw


def run_trajectory(
    cfg: TrajectoryConfig,
    methods: list,
    sega_cfg: SegaConfig | None = None,
    rope: RopeParams | None = None,
) -> list:
    """Evaluate every method at every step of one simulated denoising run.

    Each step generates each latent once, analyzes the target (and the train
    latent only when a sega method runs on it) once, and draws the token
    features of each grid a method runs on once; the methods on a grid share
    them. The features are TokenFeatures, whose tokens and projection the
    attention kernel reads without forming an N x D matrix. Returns one
    StepRecord per step.
    """
    sega_cfg = sega_cfg or SegaConfig()
    rope = rope or RopeParams()
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")

    used = {m.grid for m in methods}
    grids = {"target": (cfg, rope.ratio_h, rope.ratio_w, rope.ratio_scalar)}
    if "train" in used:
        grids["train"] = (cfg.with_shape(*train_shape(cfg, rope)), 1.0, 1.0, 1.0)
    analyzed = {"target"} | {m.grid for m in methods if m.scaling == "sega"}

    steps = []
    for step in range(cfg.steps):
        time = cfg.time(step)
        inputs = {}
        for kind, (grid_cfg, *ratios) in grids.items():
            latent = generate_latent(grid_cfg, step)
            profiles = spectral.analyze(latent, sega_cfg.n_bins_iso) if kind in analyzed else None
            feats = token_features(latent, 2 * rope.dim, cfg.seed, step) if kind in used else None
            inputs[kind] = (latent, profiles, feats, *ratios)

        target = inputs["target"][1]
        flatness = spectral.spectral_flatness(target.radial, target.occupied, sega_cfg.eps)
        sigma = spectral.amplitude_factor(flatness, sega_cfg.gamma)
        step_rec = StepRecord(step, cfg.alpha(step), time, flatness, sigma, target.radial, {})
        for method in methods:
            latent, profiles, feats, ratio_h, ratio_w, ratio = inputs[method.grid]
            shape = (latent.height, latent.width)
            sched_h, sched_w = axis_schedules(rope, method.rope, *shape, ratio_h, ratio_w, time)
            m_h, m_w = scaling_vectors(method.scaling, profiles, sched_h, sched_w, ratio, sega_cfg)
            tau = yarn_temperature(ratio) if method.temperature else 1.0
            mean_entropy = rotary_entropy(feats, *shape, sched_h, sched_w, m_h, m_w, tau)[1]
            step_rec.methods[method.name] = MethodStepRecord(m_h, m_w, mean_entropy)
        steps.append(step_rec)
    return steps


def heatmap_rows(radials: list) -> tuple[np.ndarray, list]:
    """Stack per-step radial profiles, each row normalized to sum 1.

    Rows with no spectral energy at all (possible for degenerate structure
    fields) are left as zeros and their step indices returned as flags.
    """
    rows = np.zeros((len(radials), len(radials[0])), dtype=np.float64)
    degenerate = []
    for step, radial in enumerate(radials):
        total = radial.sum()
        if total <= 0.0:
            degenerate.append(step)
            continue
        rows[step] = radial / total
    return rows, degenerate


def spectral_heatmap(
    cfg: TrajectoryConfig, n_bins: int | None = None
) -> tuple[np.ndarray, list]:
    """Per-step normalized radial profiles of a trajectory's target latents."""
    return heatmap_rows(
        [spectral.analyze(generate_latent(cfg, step), n_bins).radial for step in range(cfg.steps)]
    )


def entropy_trace(
    cfg: TrajectoryConfig,
    methods: list,
    baseline: MethodSpec,
    sega_cfg: SegaConfig | None = None,
    rope: RopeParams | None = None,
) -> tuple[np.ndarray, list, list]:
    """Per-step mean-entropy deltas of each method against the baseline.

    The baseline is usually evaluated at the training-scale grid; deltas are
    method minus baseline, so positive means the method is more diffuse.
    """
    steps = run_trajectory(cfg, [*methods, baseline], sega_cfg, rope)
    deltas = np.zeros((cfg.steps, len(methods)), dtype=np.float64)
    for t, step_rec in enumerate(steps):
        base_e = step_rec.methods[baseline.name].mean_entropy
        for j, m in enumerate(methods):
            deltas[t, j] = step_rec.methods[m.name].mean_entropy - base_e
    return deltas, [m.name for m in methods], steps
