"""The three benchmark workloads: inputs from a seed, CLI commands, output checks.

Every unit gets its own inputs, derived from (--seed, unit index), so that no
unit repeats the previous one's work. Unit 0 at seed 0 reproduces the
committed configs and is also compared against ``reference.json``.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

REFERENCE_SEED = 0
MODULATOR_FLOOR = 0.05  # sega's documented floor on 1 - sigma * s_d
SUM_TOL = 1e-6  # a row of weights printed at 9 significant digits sums to 1 within this
MEAN_TOL = 2e-8  # relative; mean(m) of 9-digit values against m_ref
ENTROPY_TOL = 1e-7  # absolute slack on [0, ln N] for 9-digit entropies


def unit_seed(base, seed, index):
    return base + seed * 1_000_000 + index


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text):
    """CSV text as {column: [cells]}; numeric cells become floats."""
    lines = text.splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(_cell(cell))
    return columns


def read_csv(path):
    with open(path) as fh:
        return parse_csv(fh.read())


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _rows(columns, prefix):
    keys = [k for k in columns if k.startswith(prefix)]
    return [list(row) for row in zip(*(columns[k] for k in keys))]


def _reference_scale(config):
    """m_ref of the target grid, recomputed from the echoed config."""
    rope, sega = config["rope"], config["sega"]
    ratio = math.sqrt(rope["ratio_h"] * rope["ratio_w"])
    if sega["ref_form"] == "power":
        return ratio ** sega["kappa"]
    return 1.0 + sega["kappa"] * math.log(ratio)


def check_mean_scaling(m, m_ref, where):
    """mean(m) == m_ref unless the modulator floor clamped a dimension."""
    if min(m) <= MODULATOR_FLOOR * m_ref * (1.0 + 1e-7):
        return []
    if abs(sum(m) / len(m) - m_ref) > MEAN_TOL * m_ref:
        return [f"{where}: mean m {sum(m) / len(m)!r} != m_ref {m_ref!r}"]
    return []


def check_heatmap(columns, steps, bins, degenerate, where):
    rows = _rows(columns, "bin_")
    errors = []
    if len(rows) != steps or any(len(r) != bins for r in rows):
        return [f"{where}: heatmap is not {steps}x{bins}"]
    for step, row in enumerate(rows):
        if min(row) < 0.0:
            errors.append(f"{where}: step {step} has a negative share")
        if step not in degenerate and abs(sum(row) - 1.0) > SUM_TOL:
            errors.append(f"{where}: step {step} sums to {sum(row)!r}")
    return errors


def check_entropy(value, tokens, where):
    if not -ENTROPY_TOL <= value <= math.log(tokens) + ENTROPY_TOL:
        return [f"{where}: entropy {value!r} outside [0, ln {tokens}]"]
    return []


def _close(ref, got):
    scale = max(abs(ref), abs(got))
    ulp9 = 10.0 ** (math.floor(math.log10(scale)) - 8) if scale > 0 else 0.0
    return abs(ref - got) <= ulp9 + 1e-12


def compare_reference(ref, got, where="", errors=None):
    """Compare ``got`` with ``ref`` to one unit in the 9th significant digit.

    Keys (and CSV columns) absent from the reference are ignored, so outputs
    may gain fields without failing the check.
    """
    errors = [] if errors is None else errors
    if len(errors) >= 5:
        return errors
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            errors.append(f"{where}: expected an object")
            return errors
        for key, value in ref.items():
            if key not in got:
                errors.append(f"{where}/{key}: missing")
            else:
                compare_reference(value, got[key], f"{where}/{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{where}: expected a list of {len(ref)}")
            return errors
        for i, (r, g) in enumerate(zip(ref, got)):
            compare_reference(r, g, f"{where}[{i}]", errors)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(ref, got):
            errors.append(f"{where}: {got!r} != reference {ref!r}")
    elif ref != got:
        errors.append(f"{where}: {got!r} != reference {ref!r}")
    return errors


def write_segl(path, values):
    """Write a SEGL v1 latent (the README's format) without going through sega."""
    h, w, c = values.shape
    header = b"SEGL" + bytes([1]) + struct.pack("<III", h, w, c)
    with open(path, "wb") as fh:
        fh.write(header + values.astype("<f4").tobytes(order="C"))


class Workload:
    """One set of inputs. A unit is a fixed list of ``sega`` commands."""

    name = ""
    items_per_unit = 1
    cycle = 1  # units per round of distinct inputs; timed runs hold whole cycles
    warmup_units = 0
    trace_units = 1
    config_base_seed = 0

    def __init__(self, work_dir, seed):
        self.dir = os.path.join(work_dir, self.name)
        self.seed = seed
        os.makedirs(self.dir, exist_ok=True)

    def config_path(self):
        """The experiment config the unit's commands load (setup_s loads it too)."""
        raise NotImplementedError

    def commands(self, index):
        """Write unit ``index``'s inputs (untimed) and return its CLI argument lists."""
        raise NotImplementedError

    def view(self, index, stdouts):
        """The unit's outputs, parsed into plain JSON values."""
        raise NotImplementedError

    def check(self, index, view):
        """Invariant violations in one unit's outputs, as messages."""
        raise NotImplementedError

    def rows_printed(self, view):
        """Attention rows the commands print without taking their entropy."""
        return 0


class _ConfigWorkload(Workload):
    """A single config-driven command; each unit rewrites the config's seed."""

    command = ""
    files = ()

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self._write_config(0)

    def base_config(self):
        raise NotImplementedError

    def config_path(self):
        return os.path.join(self.dir, "config.json")

    def _write_config(self, index):
        config = self.base_config()
        config["trajectory"]["seed"] = unit_seed(self.config_base_seed, self.seed, index)
        with open(self.config_path(), "w") as fh:
            json.dump(config, fh)

    def commands(self, index):
        self._write_config(index)
        out = os.path.join(self.dir, "out")
        return [[self.command, "--config", self.config_path(), "--out-dir", out]]

    def view(self, index, stdouts):
        out = os.path.join(self.dir, "out")
        view = {"summary.json": read_json(os.path.join(out, "summary.json"))}
        for name in self.files:
            view[name] = read_csv(os.path.join(out, name))
        return view

    def _check_common(self, index, view):
        summary = view["summary.json"]
        traj = summary["config"]["trajectory"]
        expected = unit_seed(self.config_base_seed, self.seed, index)
        if traj["seed"] != expected:
            return [f"summary seed {traj['seed']} != {expected}"], traj, summary
        bins = summary["config"]["sega"]["n_bins_iso"] or max(2, min(traj["height"], traj["width"]) // 2)
        errors = check_heatmap(
            view["spectral_heatmap.csv"], traj["steps"], bins,
            set(summary.get("degenerate_heatmap_rows", ())), "spectral_heatmap.csv",
        )
        return errors, traj, summary


class TrajLarge(_ConfigWorkload):
    """`sega trajectory` at 64x64x4, dim 64, 8 steps, default methods."""

    name = "traj_large"
    command = "trajectory"
    items_per_unit = 8
    warmup_units = 1
    files = ("scaling_map_H.csv", "scaling_map_W.csv", "entropy_trace.csv", "spectral_heatmap.csv")

    def base_config(self):
        return {"rope": {"dim": 64},
                "trajectory": {"steps": 8, "seed": 0, "height": 64, "width": 64, "channels": 4}}

    def check(self, index, view):
        errors, traj, summary = self._check_common(index, view)
        config = summary["config"]
        m_ref = _reference_scale(config)
        for axis in "HW":
            for step, m in enumerate(_rows(view[f"scaling_map_{axis}.csv"], "m_")):
                errors += check_mean_scaling(m, m_ref, f"scaling_map_{axis}.csv step {step}")
        rope = config["rope"]
        train = max(2, round(traj["height"] / rope["ratio_h"])) * max(2, round(traj["width"] / rope["ratio_w"]))
        grids = {m["name"]: m["grid"] for m in [*traj["methods"], traj["baseline"]]}
        for rec in summary["per_step"]:
            for name, value in rec["mean_entropy"].items():
                tokens = train if grids[name] == "train" else traj["height"] * traj["width"]
                errors += check_entropy(value, tokens, f"step {rec['step']} {name}")
        return errors


class HeatmapNoise(_ConfigWorkload):
    """`sega heatmap` on the committed configs/heatmap_noise.json."""

    name = "heatmap_noise"
    command = "heatmap"
    items_per_unit = 8
    warmup_units = 20
    trace_units = 50
    config_base_seed = 7  # the committed config's own seed
    files = ("spectral_heatmap.csv",)

    def base_config(self):
        return read_json(os.path.join("configs", "heatmap_noise.json"))

    def check(self, index, view):
        return self._check_common(index, view)[0]


class LatentProbe(Workload):
    """modulate, spectrum, attn-map and entropy on one written SEGL latent."""

    name = "latent_probe"
    shapes = ((32, 32, 4), (48, 64, 4), (64, 64, 4))
    cycle = len(shapes)
    warmup_units = 3
    trace_units = 6
    config = os.path.join("configs", "trajectory_small.json")

    def config_path(self):
        return self.config

    def _inputs(self, index):
        shape = self.shapes[index % len(self.shapes)]
        rng = np.random.default_rng([self.seed, index])
        h, w, c = shape
        alpha = rng.uniform(0.2, 0.8)
        cycles = rng.uniform(2.0, 6.0)
        structure = np.cos(2.0 * np.pi * cycles * np.arange(w) / w)[None, :, None]
        values = alpha * rng.standard_normal(shape) + (1.0 - alpha) * structure
        query = (int(rng.integers(h)), int(rng.integers(w)))
        return values, query

    def commands(self, index):
        values, (qh, qw) = self._inputs(index)
        path = os.path.join(self.dir, "latent.segl")
        write_segl(path, values)
        cfg = self.config
        return [
            ["modulate", "--latent", path, "--config", cfg],
            ["spectrum", "--latent", path],
            ["attn-map", "--latent", path, "--query-h", str(qh), "--query-w", str(qw),
             "--config", cfg, "--scaling", "sega"],
            ["entropy", "--latent", path, "--config", cfg, "--scaling", "sega"],
        ]

    def view(self, index, stdouts):
        modulate, spectrum, attn_map, entropy = stdouts
        return {
            "modulate": json.loads(modulate),
            "spectrum": parse_csv(spectrum),
            "attn-map": parse_csv(attn_map),
            "entropy": parse_csv(entropy),
        }

    def check(self, index, view):
        h, w, _ = self.shapes[index % len(self.shapes)]
        errors = []
        for axis in view["modulate"]["axes"]:
            errors += check_mean_scaling(axis["m"], axis["m_ref"], f"modulate axis {axis['axis']}")
        spectrum = view["spectrum"]
        if any(not 0.0 <= e < math.inf for e in spectrum["energy"]):
            errors.append("spectrum: energy outside [0, inf)")
        if spectrum["profile"].count("radial") != max(2, min(h, w) // 2):
            errors.append("spectrum: wrong radial bin count")
        weights = _rows(view["attn-map"], "w")
        flat = [x for row in weights for x in row]
        if len(weights) != h or len(flat) != h * w:
            errors.append(f"attn-map: not an {h}x{w} map")
        elif min(flat) < 0.0 or abs(sum(flat) - 1.0) > SUM_TOL:
            errors.append(f"attn-map: weights sum to {sum(flat)!r}")
        entropy = view["entropy"]
        per_token = entropy["entropy"][:-1]
        if len(per_token) != h * w or entropy["token"][-1] != "mean":
            errors.append("entropy: wrong row count")
        for value in per_token:
            errors += check_entropy(value, h * w, "entropy")
        mean = entropy["entropy"][-1]
        if per_token and abs(mean - sum(per_token) / len(per_token)) > SUM_TOL:
            errors.append(f"entropy: mean row {mean!r} is not the mean")
        return errors[:5]

    def rows_printed(self, view):
        return 1  # attn-map prints one query row of the N x N weights


WORKLOADS = {cls.name: cls for cls in (TrajLarge, HeatmapNoise, LatentProbe)}
