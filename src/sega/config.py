"""Experiment configuration: JSON in, validated dataclasses out.

Every field has a default; unknown keys are rejected so a typo cannot
silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .harness import MethodSpec, RopeParams, axis_schedules, train_shape
from .rope import METHODS
from .spectral import SegaConfig, reference_scale
from .tensorio import TrajectoryConfig, finite_number


class ConfigError(ValueError):
    """Raised for malformed or contradictory experiment configs."""


_ROPE_KEYS = {
    "dim", "base", "method", "ratio", "ratio_h", "ratio_w",
    "yarn_alpha", "yarn_beta", "dype_p", "dype_strong",
}
_SEGA_KEYS = {"kappa", "gamma", "ref_form", "eps", "n_bins_iso"}
_TRAJ_KEYS = {
    "steps", "seed", "height", "width", "channels",
    "structure_kind", "structure_params", "noise_blend", "methods", "baseline",
}
_METHOD_KEYS = {"name", "rope", "scaling", "temperature", "grid"}
_OUTPUT_KEYS = {"dir"}
_TOP_KEYS = {"rope", "sega", "trajectory", "output"}


@dataclass(frozen=True)
class ExperimentConfig:
    trajectory: TrajectoryConfig
    sega: SegaConfig
    rope: RopeParams
    rope_method: str
    methods: tuple
    baseline: MethodSpec
    output_dir: str

    def snapshot(self) -> dict:
        """Fully resolved config echo for summaries."""
        return {
            "rope": {**asdict(self.rope), "method": self.rope_method},
            "sega": asdict(self.sega),
            "trajectory": {
                **asdict(self.trajectory),
                "methods": [asdict(m) for m in self.methods],
                "baseline": asdict(self.baseline),
            },
            "output": {"dir": self.output_dir},
        }


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _section(raw: dict, name: str, allowed: set) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    _check_keys(section, allowed, name)
    return section


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {token}")
    return value


# JSON values are checked for type, never coerced: "false" is not False, 16.9 is not 16.
def _integer(section: dict, key: str, default: int | None, where: str) -> int:
    value = section.get(key, default)
    if type(value) is not int:
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def _number(section: dict, key: str, default: float, where: str) -> float:
    return finite_number(section.get(key, default), f"{where}.{key}")


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    value = section.get(key, default)
    if type(value) is not bool:
        raise ConfigError(f"{where}.{key} must be true or false")
    return value


def _method_spec(raw: dict, default_rope: str, where: str) -> MethodSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(raw, _METHOD_KEYS, where)
    temperature = _flag(raw, "temperature", False, where)
    try:
        return MethodSpec(
            name=raw.get("name", ""),
            rope=raw.get("rope", default_rope),
            scaling=raw.get("scaling", "sega"),
            temperature=temperature,
            grid=raw.get("grid", "target"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")

    rope_raw = _section(raw, "rope", _ROPE_KEYS)
    sega_raw = _section(raw, "sega", _SEGA_KEYS)
    traj_raw = _section(raw, "trajectory", _TRAJ_KEYS)
    out_raw = _section(raw, "output", _OUTPUT_KEYS)

    rope_method = rope_raw.get("method", "ntk_strong")
    if rope_method not in METHODS:
        raise ConfigError(f"rope.method must be one of {METHODS}")
    try:
        ratio = _number(rope_raw, "ratio", 2.0, "rope")
        rope = RopeParams(
            dim=_integer(rope_raw, "dim", 64, "rope"),
            base=_number(rope_raw, "base", 10000.0, "rope"),
            ratio_h=_number(rope_raw, "ratio_h", ratio, "rope"),
            ratio_w=_number(rope_raw, "ratio_w", ratio, "rope"),
            yarn_alpha=_number(rope_raw, "yarn_alpha", 1.0, "rope"),
            yarn_beta=_number(rope_raw, "yarn_beta", 32.0, "rope"),
            dype_p=_number(rope_raw, "dype_p", 1.0, "rope"),
            dype_strong=_flag(rope_raw, "dype_strong", False, "rope"),
        )
        sega = SegaConfig(
            kappa=_number(sega_raw, "kappa", 0.08, "sega"),
            gamma=_number(sega_raw, "gamma", 1.5, "sega"),
            ref_form=sega_raw.get("ref_form", "power"),
            eps=_number(sega_raw, "eps", 1e-12, "sega"),
            n_bins_iso=(
                None if sega_raw.get("n_bins_iso") is None
                else _integer(sega_raw, "n_bins_iso", None, "sega")
            ),
        )
        trajectory = TrajectoryConfig(
            steps=_integer(traj_raw, "steps", 8, "trajectory"),
            seed=_integer(traj_raw, "seed", 0, "trajectory"),
            height=_integer(traj_raw, "height", 64, "trajectory"),
            width=_integer(traj_raw, "width", 64, "trajectory"),
            channels=_integer(traj_raw, "channels", 4, "trajectory"),
            structure_kind=traj_raw.get("structure_kind", "sinusoid"),
            structure_params=dict(traj_raw.get("structure_params", {"cycles_w": 4.0})),
            noise_blend=dict(traj_raw.get("noise_blend", {"kind": "linear"})),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    if sega.n_bins_iso is not None and sega.n_bins_iso > trajectory.height * trajectory.width:
        raise ConfigError("sega.n_bins_iso must not exceed trajectory height * width")
    try:
        reference_scale(rope.ratio_scalar, sega)
    except ValueError as exc:
        raise ConfigError(f"sega.kappa: {exc}") from exc

    methods_raw = traj_raw.get(
        "methods",
        [
            {"name": "sega", "scaling": "sega"},
            {"name": "fixed", "scaling": "fixed"},
        ],
    )
    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("trajectory.methods must be a nonempty list")
    methods = tuple(
        _method_spec(m, rope_method, f"trajectory.methods[{i}]") for i, m in enumerate(methods_raw)
    )
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    baseline = _method_spec(
        traj_raw.get(
            "baseline",
            {"name": "baseline", "rope": "none", "scaling": "none", "grid": "train"},
        ),
        "none",
        "trajectory.baseline",
    )
    if baseline.name in names:
        raise ConfigError("baseline name collides with a method name")
    runs = (*methods, baseline)
    used = {rope_method, *(m.rope for m in runs)}
    if "yarn" in used and not 0.0 < rope.yarn_alpha < rope.yarn_beta:
        raise ConfigError("a yarn method needs 0 < rope.yarn_alpha < rope.yarn_beta")
    if "dype" in used and not 0.0 < rope.dype_p < math.inf:
        raise ConfigError("a dype method needs rope.dype_p > 0")
    # Build each target-grid schedule once, at the last step: its denoising time is
    # the smallest, so dype's effective ratio is the largest.
    last_t = trajectory.time(trajectory.steps - 1)
    for name in dict.fromkeys(m.rope for m in runs if m.grid == "target"):
        try:
            axis_schedules(rope, name, trajectory.height, trajectory.width,
                           rope.ratio_h, rope.ratio_w, last_t)
        except ValueError as exc:
            raise ConfigError(f"rope method {name!r}: {exc}") from exc
    shape = (trajectory.height, trajectory.width)
    if (
        trajectory.structure_kind == "file"
        and any(m.grid == "train" for m in runs)
        and train_shape(trajectory, rope) != shape
    ):
        raise ConfigError(
            "structure_kind 'file' cannot run on a train grid: the file holds the "
            f"{shape[0]}x{shape[1]} target field only; give every method and the "
            "baseline grid 'target'"
        )

    return ExperimentConfig(
        trajectory=trajectory,
        sega=sega,
        rope=rope,
        rope_method=rope_method,
        methods=methods,
        baseline=baseline,
        output_dir=str(out_raw.get("dir", "out")),
    )
