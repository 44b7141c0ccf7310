"""Simulated denoising trajectories driving per-step scaling and entropy traces.

Real diffusion latents are out of reach here, so each step blends seeded
Gaussian noise with a deterministic structure field (noise-heavy early,
structure-heavy late). Every step is analyzed spectrally, each configured
method gets its kernel arguments from method_inputs, and attention entropy is
measured on seeded Gaussian token features so it responds to positional
scaling without a learned model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import spectral
from .attention import rotary_entropy
from .rope import MAX_DIM, METHODS, RopeSchedule, YarnParams, make_schedule, yarn_temperature
from .spectral import SegaConfig, SpectralProfiles, reference_scale
from .tensorio import TrajectoryConfig, check_fields, generate_latent, structure_field, token_features

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
    rope: Literal[METHODS] = "ntk_strong"
    scaling: Literal[SCALING_MODES] = "sega"
    temperature: bool = False
    grid: Literal[GRID_KINDS] = "target"

    def __post_init__(self):
        # Each message starts with the field it faults, as in RopeParams.
        check_fields(self)
        if not self.name:
            raise ValueError("name must be a nonempty string")
        # A name is a raw cell of entropy_trace.csv's header, which starts with "step"
        if self.name == "step" or any(c in self.name for c in ',"\r\n'):
            raise ValueError('name must not be "step" or contain a comma, quote or line break')

    @property
    def reads_profiles(self) -> bool:
        """Whether the magnitudes come from the latent's spectral analysis."""
        return self.scaling == "sega"


@dataclass(frozen=True)
class RopeParams:
    """The rotary side of one grid: the settings every method shares, and the grid's ratios.

    method is the rope of a configured method that names none, and the one that
    modulate, attn-map and entropy use; run_trajectory reads each method's own rope.
    """

    dim: int = 64
    base: float = 10000.0
    ratio_h: float = 2.0
    ratio_w: float = 2.0
    yarn_alpha: float = YarnParams.alpha
    yarn_beta: float = YarnParams.beta
    dype_p: float = 1.0
    dype_strong: bool = False
    method: Literal[METHODS] = MethodSpec.rope

    def __post_init__(self):
        # Each message starts with the field it faults, which the config loader
        # prefixes with the section: "rope.dim must be ...".
        check_fields(self)
        if not 4 <= self.dim <= MAX_DIM or self.dim % 2 != 0:
            raise ValueError(f"dim must be an even integer in [4, {MAX_DIM}]")
        if not self.base > 0.0:
            raise ValueError("base must be finite and > 0")
        for name in ("ratio_h", "ratio_w"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be >= 1")

    @property
    def ratio_scalar(self) -> float:
        """Single resolution ratio feeding m_ref: the geometric mean, finite for finite ratios."""
        product = self.ratio_h * self.ratio_w
        if math.isinf(product):  # scaling by a power of two is exact
            return math.sqrt((self.ratio_h * 2.0**-512) * (self.ratio_w * 2.0**-512)) * 2.0**512
        return math.sqrt(product)


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
    rope: RopeParams, method: str, height: int, width: int, t: float = 0.0
) -> tuple[RopeSchedule, RopeSchedule]:
    """Per-axis schedules for a height x width grid extrapolated by rope's (ratio_h, ratio_w).

    yarn's training length on each axis is that axis's length over its ratio;
    t is the denoising time that drives dype.
    """

    def one(length: int, ratio: float) -> RopeSchedule:
        yarn = YarnParams(rope.yarn_alpha, rope.yarn_beta, length / ratio) if method == "yarn" else None
        return make_schedule(
            rope.dim, rope.base, method, ratio, yarn, t, rope.dype_p, rope.dype_strong
        )

    return one(height, rope.ratio_h), one(width, rope.ratio_w)


def method_inputs(method: MethodSpec, profiles: SpectralProfiles | None, rope: RopeParams,
                  height: int, width: int, t: float, sega_cfg: SegaConfig) -> tuple:
    """(sched_h, sched_w, m_h, m_w, logit_factor), the arguments after the features of
    rotary_entropy and rotary_attention_row, for one method on a height x width grid at
    time t. profiles are the grid's analysis, read only when method.reads_profiles."""
    ratio = rope.ratio_scalar
    sched_h, sched_w = axis_schedules(rope, method.rope, height, width, t)
    if method.reads_profiles:
        result = spectral.modulate_detailed(profiles, sched_h, sched_w, ratio, sega_cfg)
        m_h, m_w = result.m_h, result.m_w
    else:
        value = reference_scale(ratio, sega_cfg) if method.scaling == "fixed" else 1.0
        m_h = m_w = np.full(rope.dim // 2, value)
    return sched_h, sched_w, m_h, m_w, yarn_temperature(ratio) if method.temperature else 1.0


def run_grids(cfg: TrajectoryConfig, rope: RopeParams, methods) -> dict:
    """{kind: (TrajectoryConfig, RopeParams)} for the target and each grid the methods run on.

    The train grid is each axis over its ratio (at least 2 tokens), at ratio 1.
    """
    grids = {"target": (cfg, rope)}
    if any(m.grid == "train" for m in methods):
        th = max(2, round(cfg.height / rope.ratio_h))
        tw = max(2, round(cfg.width / rope.ratio_w))
        grids["train"] = (replace(cfg, height=th, width=tw), replace(rope, ratio_h=1.0, ratio_w=1.0))
    return grids


def run_trajectory(
    cfg: TrajectoryConfig,
    methods: list,
    sega_cfg: SegaConfig | None = None,
    rope: RopeParams | None = None,
) -> list:
    """Evaluate every method at every step of one simulated denoising run.

    The grids are run_grids over the methods, each one's structure field built
    once per run. Each step generates each latent once, analyzes the target's
    latent and those a method reading profiles runs on once, and draws the
    token features of each grid a method runs on once; the
    methods on a grid share them. The features are TokenFeatures, whose
    token grid and projection the attention kernel reads without forming an
    N x D matrix. Returns one StepRecord per step.
    """
    sega_cfg = sega_cfg or SegaConfig()
    rope = rope or RopeParams()
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")

    used = {m.grid for m in methods}
    grids = run_grids(cfg, rope, methods)
    analyzed = {"target", *(m.grid for m in methods if m.reads_profiles)}
    structures = {kind: structure_field(grid_cfg) for kind, (grid_cfg, _) in grids.items()}

    steps = []
    for step in range(cfg.steps):
        time = cfg.time(step)
        inputs = {}
        for kind, (grid_cfg, grid_rope) in grids.items():
            latent = generate_latent(grid_cfg, step, structures[kind])
            profiles = spectral.analyze(latent, sega_cfg.n_bins_iso) if kind in analyzed else None
            feats = token_features(latent, 2 * rope.dim, cfg.seed, step) if kind in used else None
            inputs[kind] = (latent, profiles, feats, grid_rope)

        target = inputs["target"][1]
        flatness = spectral.spectral_flatness(target.radial, target.occupied, sega_cfg.eps)
        sigma = spectral.amplitude_factor(flatness, sega_cfg.gamma)
        step_rec = StepRecord(step, cfg.alpha(step), time, flatness, sigma, target.radial, {})
        for method in methods:
            latent, profiles, feats, grid_rope = inputs[method.grid]
            args = method_inputs(method, profiles, grid_rope, latent.height, latent.width, time, sega_cfg)
            m_h, m_w = args[2:4]
            step_rec.methods[method.name] = MethodStepRecord(m_h, m_w, rotary_entropy(feats, *args)[1])
        steps.append(step_rec)
    return steps


def _heatmap_files(radials: list) -> dict:
    """spectral_heatmap.csv from per-step radial profiles, each row normalized to sum 1.

    Rows with no spectral energy at all (possible for degenerate structure
    fields) are left as zeros, and summary.json lists their step indices.
    """
    heat = np.array(radials, dtype=np.float64)
    totals = heat.sum(axis=1, keepdims=True)
    degenerate = np.flatnonzero(totals <= 0.0).tolist()
    heat = np.divide(heat, totals, out=np.zeros_like(heat), where=~(totals <= 0.0))
    header = ["step"] + [f"bin_{b}" for b in range(heat.shape[1])]
    return {
        "spectral_heatmap.csv": (header, [np.arange(len(heat)), *heat.T]),
        "summary.json": {"degenerate_heatmap_rows": degenerate},
    }


def spectral_heatmap(cfg: TrajectoryConfig, sega_cfg: SegaConfig | None = None) -> dict:
    """The heatmap command's files: the target radials of a run with no methods."""
    return _heatmap_files([s.radial for s in run_trajectory(cfg, [], sega_cfg)])


def trajectory_files(
    cfg: TrajectoryConfig,
    methods: list,
    baseline: MethodSpec,
    sega_cfg: SegaConfig | None = None,
    rope: RopeParams | None = None,
) -> dict:
    """Every file of one trajectory run by name, in the order they are written.

    A CSV is a (header, columns) pair; summary.json is a dict without the config
    echo. The scaling maps come from the first sega method, else the first
    method. The entropy deltas are each method minus the baseline, so
    positive means the method is more diffuse; the baseline usually runs on
    the training-scale grid. The sega-vs-fixed comparison is None unless both
    a sega and a fixed method run.
    """
    if not methods:
        raise ValueError("methods must be a nonempty list")
    steps = run_trajectory(cfg, [*methods, baseline], sega_cfg, rope)
    names = [m.name for m in methods]
    sega_name, fixed_name = (
        next((m.name for m in methods if m.scaling == kind), None) for kind in ("sega", "fixed")
    )
    map_method = sega_name or names[0]
    step_column = np.arange(len(steps))
    files = {}
    for axis, key in (("H", "m_h"), ("W", "m_w")):
        maps = np.array([getattr(s.methods[map_method], key) for s in steps])
        header = ["step"] + [f"m_{d}" for d in range(maps.shape[1])]
        files[f"scaling_map_{axis}.csv"] = (header, [step_column, *maps.T])

    entropies = np.array([[s.methods[name].mean_entropy for name in names] for s in steps])
    deltas = entropies - np.array([[s.methods[baseline.name].mean_entropy] for s in steps])
    files["entropy_trace.csv"] = (["step"] + names, [step_column, *deltas.T])
    heat = _heatmap_files([s.radial for s in steps])
    files["spectral_heatmap.csv"] = heat["spectral_heatmap.csv"]

    abs_means = {name: float(np.mean(np.abs(deltas[:, j]))) for j, name in enumerate(names)}
    comparison = None
    if sega_name and fixed_name:
        comparison = {
            "sega_method": sega_name,
            "fixed_method": fixed_name,
            "sega_abs_delta_mean": abs_means[sega_name],
            "fixed_abs_delta_mean": abs_means[fixed_name],
            "sega_no_worse": abs_means[sega_name] <= abs_means[fixed_name],
        }
    files["summary.json"] = {
        "scaling_map_method": map_method,
        "per_step": [
            {
                "step": s.step,
                "alpha": s.alpha,
                "time": s.time,
                "flatness": s.flatness,
                "sigma": s.sigma,
                "mean_entropy": {name: rec.mean_entropy for name, rec in s.methods.items()},
            }
            for s in steps
        ],
        "entropy_delta_abs_mean": abs_means,
        "entropy_shift_comparison": comparison,
        **heat["summary.json"],
    }
    return files
