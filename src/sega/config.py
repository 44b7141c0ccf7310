"""Experiment configuration: JSON in, validated dataclasses out.

The dataclass of each section (RopeParams, SegaConfig, TrajectoryConfig and
MethodSpec) is the one statement of its keys and their defaults, and each
field's annotation names the JSON type its value must have: values are
checked, never coerced. The few keys that belong to no dataclass are read
here, once each. Unknown keys are rejected, in each section and inside the
structure_params and noise_blend objects (where each kind reads its own
keys), so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .harness import MethodSpec, RopeParams, axis_schedules, train_shape
from .rope import METHODS
from .spectral import SegaConfig, reference_scale
from .tensorio import BLEND_KEYS, TrajectoryConfig, checked_structure_params, finite_number


class ConfigError(ValueError):
    """Raised for malformed or contradictory experiment configs."""


# The JSON type each field annotation asks for; float fields take finite JSON numbers.
_JSON_TYPES = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}
_type_hints = functools.cache(get_type_hints)  # evaluated once per class, not on every load


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


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {token}")
    return value


def _checked(value, hint, where: str):
    """value if its JSON type is the one the annotation hint names (int | None also takes null)."""
    if get_args(hint):
        if value is None:
            return None
        hint = get_args(hint)[0]
    if hint is float:
        try:
            return finite_number(value, where)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if type(value) is not hint:  # so true is not an integer, nor "2" a number
        raise ConfigError(f"{where} must be {_JSON_TYPES[hint]}")
    return dict(value) if hint is dict else value  # a copy: the caller's dict stays theirs


def _fields(section: dict, cls, where: str) -> dict:
    """The values section gives for cls's fields, each checked against its annotation.

    The loader pops a section's keys that belong to no dataclass first, so any
    key left over that names no field is unknown.
    """
    hints = _type_hints(cls)
    _check_keys(section, hints, where)
    return {key: _checked(value, hints[key], f"{where}.{key}") for key, value in section.items()}


def _built(cls, values: dict, where: str):
    """cls(**values), with a range fault named by its dotted key.

    Each section's __post_init__ starts its messages with the field at fault,
    so prefixing where gives the key: "trajectory.steps must be >= 1".
    """
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _section(raw: dict, name: str) -> dict:
    """A copy of one top-level section, popped from raw."""
    section = raw.pop(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    return dict(section)


def _method_spec(raw, default_rope: str, where: str) -> MethodSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    return _built(MethodSpec, {"rope": default_rope, **_fields(raw, MethodSpec, where)}, where)


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
    raw = dict(raw)
    rope_raw, sega_raw, traj_raw, out_raw = (
        _section(raw, name) for name in ("rope", "sega", "trajectory", "output")
    )
    _check_keys(raw, (), "config")

    # Every method's rope defaults to the experiment's, and that to MethodSpec's.
    rope_method = rope_raw.pop("method", MethodSpec.rope)
    if rope_method not in METHODS:
        raise ConfigError(f"rope.method must be one of {METHODS}")
    if "ratio" in rope_raw:  # shorthand for both axes; ratio_h and ratio_w override it
        ratio = _checked(rope_raw.pop("ratio"), float, "rope.ratio")
        if not ratio >= 1.0:  # checked here, so the fault names the key the config holds
            raise ConfigError("rope.ratio must be >= 1")
        rope_raw = {"ratio_h": ratio, "ratio_w": ratio, **rope_raw}
    methods_raw = traj_raw.pop(
        "methods", [{"name": "sega", "scaling": "sega"}, {"name": "fixed", "scaling": "fixed"}]
    )
    baseline_raw = traj_raw.pop(
        "baseline", {"name": "baseline", "rope": "none", "scaling": "none", "grid": "train"}
    )
    output_dir = _checked(out_raw.pop("dir", "out"), str, "output.dir")
    _check_keys(out_raw, (), "output")
    rope = _built(RopeParams, _fields(rope_raw, RopeParams, "rope"), "rope")
    sega = _built(SegaConfig, _fields(sega_raw, SegaConfig, "sega"), "sega")
    trajectory = _built(TrajectoryConfig, _fields(traj_raw, TrajectoryConfig, "trajectory"),
                        "trajectory")
    # A dict the config gives holds only keys its kind reads. The default
    # structure_params, {"cycles_w": 4.0}, is echoed whatever the kind.
    if "structure_params" in traj_raw:
        _check_keys(trajectory.structure_params, checked_structure_params(trajectory),
                    "trajectory.structure_params")
    blend = trajectory.noise_blend
    _check_keys(blend, BLEND_KEYS[blend.get("kind", "linear")], "trajectory.noise_blend")

    if sega.n_bins_iso is not None and sega.n_bins_iso > trajectory.height * trajectory.width:
        raise ConfigError("sega.n_bins_iso must not exceed trajectory height * width")
    try:
        reference_scale(rope.ratio_scalar, sega)
    except ValueError as exc:
        raise ConfigError(f"sega.kappa: {exc}") from exc

    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("trajectory.methods must be a nonempty list")
    methods = tuple(
        _method_spec(m, rope_method, f"trajectory.methods[{i}]") for i, m in enumerate(methods_raw)
    )
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    baseline = _method_spec(baseline_raw, "none", "trajectory.baseline")
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
        output_dir=output_dir,
    )
