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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import spectral
from .attention import grid_positions, rotary_entropy
from .rope import METHODS, RopeSchedule, YarnParams, make_schedule, yarn_temperature
from .spectral import SegaConfig, reference_scale
from .tensorio import LatentGrid, TrajectoryConfig, generate_latent, token_features
from .fmtio import canonical_json

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

    name: str
    rope: str = "ntk_strong"
    scaling: str = "sega"
    temperature: bool = False
    grid: str = "target"

    def __post_init__(self):
        if not self.name:
            raise ValueError("method needs a name")
        if self.rope not in METHODS:
            raise ValueError(f"unknown rope method {self.rope!r}")
        if self.scaling not in SCALING_MODES:
            raise ValueError(f"unknown scaling mode {self.scaling!r}")
        if self.grid not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.grid!r}")


@dataclass(frozen=True)
class RopeParams:
    """Experiment-level rotary settings shared by all methods."""

    dim: int = 64
    base: float = 10000.0
    ratio_h: float = 2.0
    ratio_w: float = 2.0
    yarn_alpha: float = 1.0
    yarn_beta: float = 32.0
    dype_p: float = 1.0
    dype_strong: bool = False

    def __post_init__(self):
        if self.dim < 4 or self.dim % 2 != 0:
            raise ValueError("dim must be an even integer >= 4")
        if self.base <= 0:
            raise ValueError("base must be positive")
        if self.ratio_h < 1.0 or self.ratio_w < 1.0:
            raise ValueError("ratios must be >= 1")

    @property
    def ratio_scalar(self) -> float:
        """Single resolution ratio feeding m_ref; geometric mean when axes differ."""
        return math.sqrt(self.ratio_h * self.ratio_w)


@dataclass
class MethodStepRecord:
    m_ref: float
    m_h: np.ndarray
    m_w: np.ndarray
    mean_entropy: float | None


@dataclass
class StepRecord:
    step: int
    alpha: float
    time: float
    flatness: float
    sigma: float
    radial: np.ndarray  # the target latent's radial profile, unnormalized
    methods: dict


@dataclass
class TrajectoryRecord:
    config: dict
    steps: list = field(default_factory=list)

    def to_json_bytes(self) -> bytes:
        return (canonical_json(asdict(self)) + "\n").encode("utf-8")


def axis_schedules(
    rope: RopeParams, method: str, height: int, width: int,
    ratio_h: float, ratio_w: float, t: float = 0.0,
) -> tuple[RopeSchedule, RopeSchedule]:
    """Per-axis schedules for a height x width grid extrapolated by (ratio_h, ratio_w).

    yarn's training length on each axis is that axis's length over its ratio;
    t is the denoising time that drives dype.
    """

    def one(axis: str, length: int, ratio: float) -> RopeSchedule:
        yarn = YarnParams(rope.yarn_alpha, rope.yarn_beta, length / ratio) if method == "yarn" else None
        return make_schedule(
            axis, rope.dim, rope.base, method, ratio, yarn, t, rope.dype_p, rope.dype_strong
        )

    return one("H", height, ratio_h), one("W", width, ratio_w)


def scaling_vectors(
    scaling: str,
    grid: LatentGrid,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    ratio: float,
    sega_cfg: SegaConfig,
    fixed_value: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(m_ref, m_h, m_w) for one scaling mode; "none" reports m_ref as 1.0.

    "fixed" fills every dimension with fixed_value, or with m_ref when it is None.
    """
    half = sched_h.dim // 2
    if scaling == "none":
        return 1.0, np.ones(half), np.ones(half)
    m_ref = reference_scale(ratio, sega_cfg)
    if scaling == "fixed":
        value = m_ref if fixed_value is None else fixed_value
        return m_ref, np.full(half, value), np.full(half, value)
    result = spectral.modulate_detailed(grid, sched_h, sched_w, ratio, sega_cfg)
    return m_ref, result.vec_h.m, result.vec_w.m


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
    with_attention: bool = True,
) -> TrajectoryRecord:
    """Evaluate every method at every step of one simulated denoising run."""
    sega_cfg = sega_cfg or SegaConfig()
    rope = rope or RopeParams()
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")

    train_cfg = cfg.with_shape(*train_shape(cfg, rope))
    record = TrajectoryRecord(
        config={
            "trajectory": asdict(cfg),
            "rope": asdict(rope),
            "sega": asdict(sega_cfg),
            "methods": [asdict(m) for m in methods],
            "with_attention": with_attention,
        }
    )

    for step in range(cfg.steps):
        latents = {"target": generate_latent(cfg, step)}
        if any(m.grid == "train" for m in methods):
            latents["train"] = generate_latent(train_cfg, step)

        profiles = spectral.analyze(
            latents["target"], sega_cfg.bins_for(cfg.height, cfg.width)
        )
        flatness = spectral.spectral_flatness(profiles.radial, profiles.occupied, sega_cfg.eps)
        step_rec = StepRecord(
            step=step,
            alpha=cfg.alpha(step),
            time=cfg.time(step),
            flatness=flatness,
            sigma=spectral.amplitude_factor(flatness, sega_cfg.gamma),
            radial=profiles.radial,
            methods={},
        )

        for method in methods:
            latent = latents[method.grid]
            if method.grid == "target":
                ratio_h, ratio_w, ratio = rope.ratio_h, rope.ratio_w, rope.ratio_scalar
            else:
                ratio_h = ratio_w = ratio = 1.0
            sched_h, sched_w = axis_schedules(
                rope, method.rope, latent.height, latent.width, ratio_h, ratio_w, step_rec.time
            )
            m_ref, m_h, m_w = scaling_vectors(
                method.scaling, latent, sched_h, sched_w, ratio, sega_cfg
            )

            mean_entropy = None
            if with_attention:
                feats = token_features(latent, 2 * rope.dim, cfg.seed, step)
                positions = grid_positions(latent.height, latent.width)
                tau = yarn_temperature(ratio) if method.temperature else 1.0
                mean_entropy = rotary_entropy(
                    feats, positions, sched_h, sched_w, m_h, m_w, tau
                )[1]

            step_rec.methods[method.name] = MethodStepRecord(
                m_ref=m_ref, m_h=m_h, m_w=m_w, mean_entropy=mean_entropy
            )
        record.steps.append(step_rec)
    return record


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
) -> tuple[np.ndarray, list, TrajectoryRecord]:
    """Per-step mean-entropy deltas of each method against the baseline.

    The baseline is usually evaluated at the training-scale grid; deltas are
    method minus baseline, so positive means the method is more diffuse.
    """
    record = run_trajectory(cfg, [*methods, baseline], sega_cfg, rope, with_attention=True)
    deltas = np.zeros((cfg.steps, len(methods)), dtype=np.float64)
    for t, step_rec in enumerate(record.steps):
        base_e = step_rec.methods[baseline.name].mean_entropy
        for j, m in enumerate(methods):
            deltas[t, j] = step_rec.methods[m.name].mean_entropy - base_e
    return deltas, [m.name for m in methods], record
