"""Latent grids, the SEGL binary file format, and synthetic latent generators.

A latent grid is an H x W x C real field standing in for transformer hidden
states laid out on a 2D token grid. Grids are stored and serialized as
float32; all downstream analysis promotes to float64.

SEGL format (little-endian throughout)::

    bytes 0..3    magic "SEGL"
    byte  4       version, currently 0x01
    bytes 5..16   H, W, C as uint32
    rest          H*W*C float32 values, row-major (h outer, w middle, c inner)
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from copy import deepcopy
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

MAGIC = b"SEGL"
VERSION = 1

STRUCTURE_KINDS = ("sinusoid", "band_limited", "checker", "file")
BLEND_KEYS = {"linear": ("kind",), "constant": ("kind", "value"), "table": ("kind", "values")}
MAX_STEPS = 1000  # DDPM's T = 1000 is the longest schedule a sampler runs

# Sub-stream tags so noise, structure and feature draws never collide.
_STREAM_NOISE = 0
_STREAM_STRUCTURE = 1
_STREAM_FEATURES = 2


class LatentIOError(Exception):
    """A SEGL file that cannot be read as a latent grid; the message names the file."""


@dataclass(frozen=True, eq=False)
class LatentGrid:
    """An H x W x C float32 field with H, W >= 2 and C >= 1, all values finite.

    Built from an (H, W, C) array, or (H, W) for one channel, of which it keeps
    a read-only float32 copy: the caller's array stays writeable and its own.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3:
            raise ValueError(f"expected 2D or 3D array, got ndim={vals.ndim}")
        height, width, channels = vals.shape
        if height < 2 or width < 2:
            raise ValueError(f"grid must be at least 2x2, got {height}x{width}")
        if channels < 1:
            raise ValueError("grid needs at least one channel")
        # float32 rounds a magnitude from 2**128 - 2**103 up to inf: refuse one before the cast
        if not np.all(np.abs(vals) < 2.0**128 - 2.0**103):
            raise ValueError("grid values must be finite")
        vals = np.array(vals, dtype=np.float32, order="C")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def normalized_radius(height: int, width: int) -> np.ndarray:
    """The (H, W) radius rho = sqrt(u^2 + v^2) / sqrt(0.5) of each 2D FFT sample (i, j), with
    u = min(i, H-i)/H and v = min(j, W-j)/W: the grid corner is at 1 for any aspect ratio."""
    i = np.arange(height, dtype=np.float64)[:, None]
    j = np.arange(width, dtype=np.float64)[None, :]
    u, v = np.minimum(i, height - i) / height, np.minimum(j, width - j) / width
    return np.sqrt(u**2 + v**2) / math.sqrt(0.5)


def center_map(grid: LatentGrid) -> np.ndarray:
    """Average a grid across channels and remove the spatial mean: a float64 (H, W) array."""
    mean_field = grid.values.astype(np.float64).mean(axis=2)
    return mean_field - mean_field.mean()


@dataclass(frozen=True)
class TrajectoryConfig:
    """Shape, seed and noise/structure blend of a simulated denoising run.

    ``noise_blend`` maps step t to a mixing weight alpha(t) in [0, 1] and must
    be non-increasing: noise dominates early steps, structure late ones.
    Supported descriptors: ``{"kind": "linear"}`` (1 at step 0 down to 0 at the
    final step), ``{"kind": "constant", "value": a}``, and
    ``{"kind": "table", "values": [...]}`` with one entry per step. Both dicts are
    resolved once: ``alphas`` holds one checked weight per step and ``structure``
    the checked structure parameters, read-only; the run reads only these.
    """

    steps: int = 8
    seed: int = 0
    height: int = 64
    width: int = 64
    channels: int = 4
    structure_kind: Literal[STRUCTURE_KINDS] = "sinusoid"
    structure_params: dict = field(default_factory=lambda: {"cycles_w": 4.0})
    noise_blend: dict = field(default_factory=lambda: {"kind": "linear"})

    def __post_init__(self):
        # Each message starts with the field it faults, which the config loader
        # prefixes with the section: "trajectory.steps must be >= 1".
        check_fields(self)
        for name, least in (("steps", 1), ("seed", 0), ("height", 2), ("width", 2), ("channels", 1)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}")
        # as Python ints, which a numpy integer's product could wrap past
        if int(self.height) * int(self.width) * int(self.channels) * 8 > sys.maxsize:
            raise ValueError("height * width * channels * 8 bytes exceeds the addressable size")
        # attributes, not fields: asdict, the config echo and replace see the dicts as given
        object.__setattr__(self, "structure", MappingProxyType(checked_structure_params(self)))
        object.__setattr__(self, "alphas", checked_blend(self))

    def alpha(self, step: int) -> float:
        self._check_step(step)
        return self.alphas[step]

    def time(self, step: int) -> float:
        """Denoising time coordinate: 1.0 at the pure-noise end, 0.0 at the last step."""
        self._check_step(step)
        return 1.0 - step / max(self.steps - 1, 1)  # one step is pure noise

    def _check_step(self, step: int) -> None:
        if not 0 <= step < self.steps:
            raise ValueError(f"step {step} outside [0, {self.steps})")


def _normalize_field(arr: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance normalization; a constant field collapses to zeros.

    A non-finite field is an error, never a constant one: zeroing it would run
    the trajectory without its structure.
    """
    if not np.all(np.isfinite(arr)):
        raise ValueError("structure field is not finite")
    arr = arr - arr.mean()
    sd = arr.std()
    return arr / sd if sd > 1e-12 else np.zeros_like(arr)


def finite_number(value, name: str) -> float:
    """value as a float if it is a finite int or float, numpy's too; not a bool."""
    value = value.item() if isinstance(value, np.number) else value
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number")
    return float(value)


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


_KINDS = {bool: "true or false", str: "a string", dict: "an object"}
_type_hints = functools.cache(get_type_hints)  # evaluated once per class, not on every build


def check_fields(obj) -> None:
    """Check each field of the dataclass obj against its annotation, in field order.

    int also takes a numpy integer, and float a finite real, numpy's too, stored
    as a Python float; neither takes a bool. bool, str and dict take their own
    type (a dict is copied deeply), Literal a str from its set, and X | None also None.
    """
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        if type(None) in get_args(hint):
            if value is None:
                continue
            hint = get_args(hint)[0]
        if get_origin(hint) is Literal:
            if type(value) is not str:
                raise ValueError(f"{name} must be a string")
            if value not in get_args(hint):
                raise ValueError(f"{name} must be one of {get_args(hint)}")
        elif hint is float:
            object.__setattr__(obj, name, finite_number(value, name))
        elif hint is int:
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer")
        elif type(value) is not hint:
            raise ValueError(f"{name} must be {_KINDS[hint]}")
        elif hint is dict:
            object.__setattr__(obj, name, deepcopy(value))


def checked_structure_params(cfg: TrajectoryConfig) -> dict:
    """cfg's structure parameters with defaults filled in, checked for type and range.

    Its keys are the ones cfg's structure kind reads.
    """
    kind, params = cfg.structure_kind, cfg.structure_params
    try:
        if kind == "sinusoid":
            defaults = {"cycles_h": 0.0, "cycles_w": 4.0, "phase": 0.0}
            values = {key: finite_number(params.get(key, d), key) for key, d in defaults.items()}
            # Bound the cosine's argument in structure_field, whose largest terms are
            # at the last row and column: one that overflows makes the field NaN.
            reach = abs(values["phase"])
            for key, length in (("cycles_h", cfg.height), ("cycles_w", cfg.width)):
                term = 2.0 * math.pi * (abs(values[key]) * (length - 1) / length)
                if not term < math.inf:
                    raise ValueError(f"{key} overflows the sinusoid's phase over {length} tokens")
                reach += term
            if not reach < math.inf:
                raise ValueError("cycles_h, cycles_w and phase overflow the sinusoid's phase")
            return values
        if kind == "checker":
            blocks = {key: params.get(key, 1) for key in ("block_h", "block_w")}
            if not all(_is_integer(b) and b >= 1 for b in blocks.values()):
                raise ValueError("block_h and block_w must be integers >= 1")
            return {key: int(b) for key, b in blocks.items()}
        if kind == "band_limited":
            low = finite_number(params.get("low", 0.0), "low")
            high = finite_number(params.get("high", 0.25), "high")
            if not 0.0 <= low < high <= 1.0:
                raise ValueError("band edges must satisfy 0 <= low < high <= 1")
            return {"low": low, "high": high}
        if type(params.get("path")) is not str:
            raise ValueError("structure_kind 'file' requires a 'path' parameter that is a string")
        return {"path": params["path"]}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"structure_params for {kind!r}: {exc}") from exc


def checked_blend(cfg: TrajectoryConfig) -> tuple:
    """cfg's noise blend as one weight per step, each in [0, 1] and none above the one
    before; the blend may hold only the keys its kind reads, as BLEND_KEYS lists them."""
    blend = cfg.noise_blend
    kind = blend.get("kind", "linear")
    if kind not in tuple(BLEND_KEYS):
        raise ValueError(f"noise_blend.kind must be one of {tuple(BLEND_KEYS)}")
    unknown = ", ".join(sorted(map(str, set(blend) - set(BLEND_KEYS[kind]))))
    if unknown:
        raise ValueError(f"noise_blend has unknown key(s) for kind {kind!r}: {unknown}")
    try:
        if kind == "linear":  # the noise weight falls with the denoising time
            alphas = tuple(map(cfg.time, range(cfg.steps)))
        elif kind == "constant":
            alphas = (finite_number(blend["value"], "noise_blend.value"),) * cfg.steps
        elif len(blend["values"]) != cfg.steps:
            raise ValueError("noise_blend.values must hold one weight per step")
        else:
            alphas = tuple(finite_number(blend["values"][t], f"noise_blend.values[{t}]")
                           for t in range(cfg.steps))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"noise_blend is malformed: {blend!r}") from exc
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("noise_blend weights must lie in [0, 1]")
    if any(b > a + 1e-12 for a, b in zip(alphas, alphas[1:])):
        raise ValueError("noise_blend weights must be non-increasing in step index")
    return alphas


def structure_field(cfg: TrajectoryConfig) -> np.ndarray:
    """The deterministic structure component, normalized, shape (H, W, C)."""
    h_idx = np.arange(cfg.height, dtype=np.float64)[:, None]
    w_idx = np.arange(cfg.width, dtype=np.float64)[None, :]
    params, kind = cfg.structure, cfg.structure_kind

    if kind == "sinusoid":
        cyc_h, cyc_w, phase = params["cycles_h"], params["cycles_w"], params["phase"]
        field2d = np.cos(2.0 * np.pi * (cyc_h * h_idx / cfg.height + cyc_w * w_idx / cfg.width) + phase)
    elif kind == "checker":
        # A block at least its axis long is one block; clamped, it fits a C long.
        bh, bw = min(params["block_h"], cfg.height), min(params["block_w"], cfg.width)
        parity = (h_idx.astype(int) // bh + w_idx.astype(int) // bw) % 2
        field2d = np.where(parity == 0, 1.0, -1.0)
    elif kind == "band_limited":
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_STRUCTURE]))
        noise = rng.standard_normal((cfg.height, cfg.width))
        spec = np.fft.fft2(noise)
        rho = normalized_radius(cfg.height, cfg.width)
        mask = (rho >= params["low"]) & (rho <= params["high"])
        field2d = np.fft.ifft2(spec * mask).real
    else:  # file
        grid = read_latent(params["path"])
        if (grid.height, grid.width, grid.channels) != (cfg.height, cfg.width, cfg.channels):
            raise LatentIOError(
                f"structure file shape {grid.height}x{grid.width}x{grid.channels} does not "
                f"match config {cfg.height}x{cfg.width}x{cfg.channels}"
            )
        return _normalize_field(grid.values.astype(np.float64))

    field3d = np.broadcast_to(field2d[:, :, None], (cfg.height, cfg.width, cfg.channels)).copy()
    return _normalize_field(field3d)


def generate_latent(cfg: TrajectoryConfig, step: int, structure: np.ndarray) -> LatentGrid:
    """alpha(step) * seeded Gaussian noise + (1 - alpha(step)) * structure.

    structure is structure_field(cfg), built once per run. Noise is drawn from
    an independent stream keyed by (seed, step), so any single step is
    reproducible in isolation.
    """
    a = cfg.alpha(step)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_NOISE, step]))
    noise = rng.standard_normal((cfg.height, cfg.width, cfg.channels))
    blended = a * noise + (1.0 - a) * structure
    return LatentGrid(blended)


@dataclass(frozen=True, eq=False)
class TokenFeatures:
    """The (H, W, D) token features tokens @ proj, kept as their two factors.

    tokens is the (H, W, C) token grid and proj (C, D), with C the few latent
    channels, so the product has rank C and storing it densely would cost
    H * W * D floats for nothing. The attention kernels read the factors,
    never the product, and the grid's shape from tokens.
    """

    tokens: np.ndarray
    proj: np.ndarray

    def __post_init__(self):
        tokens = np.ascontiguousarray(self.tokens, dtype=np.float64)
        proj = np.ascontiguousarray(self.proj, dtype=np.float64)
        if tokens.ndim != 3 or proj.ndim != 2 or tokens.shape[2] != proj.shape[0]:
            raise ValueError(f"cannot project {tokens.shape} tokens by a {proj.shape} matrix")
        if tokens.shape[0] < 1 or tokens.shape[1] < 1:
            raise ValueError(f"token grid {tokens.shape[0]}x{tokens.shape[1]} has no tokens")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "proj", proj)


def token_features(grid: LatentGrid, feature_dim: int, seed: int, step: int) -> TokenFeatures:
    """Seeded Gaussian projection of grid channels to (H, W, feature_dim) token features.

    The features stay the grid's tokens and the projection; the attention
    kernels build their logits from these two factors.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_FEATURES, step]))
    proj = rng.standard_normal((grid.channels, feature_dim)) / np.sqrt(grid.channels)
    return TokenFeatures(grid.values, proj)


def write_latent(grid: LatentGrid, path) -> None:
    header = MAGIC + bytes([VERSION]) + struct.pack("<III", grid.height, grid.width, grid.channels)
    payload = grid.values.astype("<f4").tobytes(order="C")
    Path(path).write_bytes(header + payload)


def read_latent(path) -> LatentGrid:
    """The grid a SEGL file holds. A format fault, or a grid LatentGrid refuses,
    raises LatentIOError."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise LatentIOError(f"{path}: not a SEGL file")
    if raw[4:5] != bytes([VERSION]):
        raise LatentIOError(f"{path}: unsupported version {raw[4] if len(raw) > 4 else None!r}")
    if len(raw) < 17:
        raise LatentIOError(f"{path}: header truncated")
    h, w, c = struct.unpack("<III", raw[5:17])
    payload = raw[17:]
    if len(payload) != h * w * c * 4:
        raise LatentIOError(
            f"{path}: payload holds {len(payload)} bytes, not the {h * w * c * 4} of {h}x{w}x{c} floats"
        )
    try:
        return LatentGrid(np.frombuffer(payload, dtype="<f4").reshape(h, w, c))
    except ValueError as exc:
        raise LatentIOError(f"{path}: {exc}") from exc
