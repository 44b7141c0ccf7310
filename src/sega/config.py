"""Experiment configuration: JSON in, validated dataclasses out.

The dataclass of each section (RopeParams, SegaConfig, TrajectoryConfig and
MethodSpec) states its keys and defaults and checks each field against its
annotation, for library callers too: nothing is coerced, except that an integer
in a float field is stored as a float; TrajectoryConfig also refuses a
noise_blend key its kind does not read. The loader checks what JSON alone needs,
reads the keys no dataclass holds and rejects unknown keys in each section and in
a structure_params the config gives (the default, {"cycles_w": 4.0}, is echoed
whatever the structure kind), so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .harness import MethodSpec, RopeParams, axis_schedules, run_grids
from .spectral import SegaConfig, reference_scale
from .tensorio import TrajectoryConfig, finite_number


@dataclass(frozen=True)
class ExperimentConfig:
    trajectory: TrajectoryConfig
    sega: SegaConfig
    rope: RopeParams
    methods: tuple
    baseline: MethodSpec
    output_dir: str

    def snapshot(self) -> dict:
        """Fully resolved config echo for summaries."""
        return {
            "rope": asdict(self.rope),
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
        raise ValueError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _built(cls, values: dict, where: str):
    """cls(**values), refusing keys that name no field; a fault names its dotted key.

    The loader pops the keys that belong to no dataclass first. Each
    __post_init__ starts its messages with the field at fault, so prefixing
    where gives the key: "trajectory.steps must be >= 1".
    """
    _check_keys(values, [f.name for f in fields(cls)], where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from exc


def _section(raw: dict, name: str) -> dict:
    """A copy of one top-level section, popped from raw."""
    section = raw.pop(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be an object")
    return dict(section)


def _method_spec(raw, default_rope: str, where: str) -> MethodSpec:
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object")
    return _built(MethodSpec, {"rope": default_rope, **raw}, where)


def load_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    raw = dict(raw)
    rope_raw, sega_raw, traj_raw, out_raw = (
        _section(raw, name) for name in ("rope", "sega", "trajectory", "output")
    )
    _check_keys(raw, (), "config")

    if "ratio" in rope_raw:  # shorthand for both axes; ratio_h and ratio_w override it
        ratio = finite_number(rope_raw.pop("ratio"), "rope.ratio")
        if not ratio >= 1.0:  # checked here, so the fault names the key the config holds
            raise ValueError("rope.ratio must be >= 1")
        rope_raw = {"ratio_h": ratio, "ratio_w": ratio, **rope_raw}
    methods_raw = traj_raw.pop(
        "methods", [{"name": "sega", "scaling": "sega"}, {"name": "fixed", "scaling": "fixed"}]
    )
    baseline_raw = traj_raw.pop(
        "baseline", {"name": "baseline", "rope": "none", "scaling": "none", "grid": "train"}
    )
    output_dir = out_raw.pop("dir", "out")
    if type(output_dir) is not str:
        raise ValueError("output.dir must be a string")
    _check_keys(out_raw, (), "output")
    rope = _built(RopeParams, rope_raw, "rope")
    sega = _built(SegaConfig, sega_raw, "sega")
    trajectory = _built(TrajectoryConfig, traj_raw, "trajectory")
    # given structure_params hold only keys their kind reads; the default is echoed whatever the kind
    if "structure_params" in traj_raw:
        _check_keys(trajectory.structure_params, trajectory.structure, "trajectory.structure_params")

    try:
        reference_scale(rope.ratio_scalar, sega)
    except ValueError as exc:
        raise ValueError(f"sega.kappa: {exc}") from exc

    if not isinstance(methods_raw, list) or not methods_raw:
        raise ValueError("trajectory.methods must be a nonempty list")
    # Every method's rope defaults to the experiment's, and that to MethodSpec's.
    methods = tuple(
        _method_spec(m, rope.method, f"trajectory.methods[{i}]") for i, m in enumerate(methods_raw)
    )
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")
    baseline = _method_spec(baseline_raw, "none", "trajectory.baseline")
    if baseline.name in names:
        raise ValueError("baseline name collides with a method name")
    runs = (*methods, baseline)
    # The rope layer owns every schedule rule, so build each named rope on the target
    # grid at t = 0, where dype's ratio is largest; a train grid's ratio 1 then builds too.
    for name in dict.fromkeys((rope.method, *(m.rope for m in runs))):
        try:
            axis_schedules(rope, name, trajectory.height, trajectory.width)
        except ValueError as exc:
            raise ValueError(f"rope method {name!r}: {exc}") from exc
    # Past the token count of a grid a sega run analyzes, every extra radial bin is empty.
    for kind, (grid, _) in run_grids(trajectory, rope, [m for m in runs if m.reads_profiles]).items():
        if sega.n_bins_iso is not None and sega.n_bins_iso > grid.height * grid.width:
            raise ValueError("sega.n_bins_iso must not exceed trajectory height * width" if kind == "target"
                             else f"sega.n_bins_iso must not exceed the token count of the "
                             f"{grid.height}x{grid.width} {kind} grid a sega method runs on")
    # Only a file structure builds every run's grids here, as each build rechecks the config.
    shape = (trajectory.height, trajectory.width)
    if trajectory.structure_kind == "file" and any(
        (grid.height, grid.width) != shape for grid, _ in run_grids(trajectory, rope, runs).values()
    ):
        raise ValueError(
            "structure_kind 'file' cannot run on a train grid: the file holds the "
            f"{shape[0]}x{shape[1]} target field only; give every method and the "
            "baseline grid 'target'"
        )

    return ExperimentConfig(
        trajectory=trajectory,
        sega=sega,
        rope=rope,
        methods=methods,
        baseline=baseline,
        output_dir=output_dir,
    )
