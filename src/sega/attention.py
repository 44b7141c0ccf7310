"""Single-head rotary self-attention over 2D token grids, plus entropy metrics.

The CLI and the harness use the blocked path: :func:`rotary_entropy` takes
each query row's entropy from one block of logits at a time, and
:func:`rotary_attention_row` computes the one row ``sega attn-map`` prints.
Neither forms the N x N weight matrix, so memory stays O(block * N).

The dense path (:func:`attend`, :func:`attend_rotary`, :class:`AttentionField`,
:func:`attention_entropy`) materializes the full row-stochastic matrix. It is
kept as the reference oracle the blocked path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rope import RopeSchedule, axial_rotary

# Logits per query block of rotary_entropy: 2 MiB of float64, 64 rows at N=4096.
BLOCK_LOGITS = 1 << 18
# Logits per reduction slice of a block: 512 KiB, 16 rows at N=4096. A slice and
# its exp buffer stay in a 2 MiB L2 cache through all six reduction passes.
REDUCE_LOGITS = 1 << 16


@dataclass(frozen=True, eq=False)
class AttentionField:
    """Row-stochastic attention weights; rows are query tokens, columns keys."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("weights must be a 2D matrix")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-5:
            raise ValueError("every row must sum to 1 within 1e-5")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, logit_scale: float = 1.0
) -> tuple[np.ndarray, AttentionField]:
    """softmax(logit_scale * Q K^T / sqrt(D)) V."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("Q, K, V must be 2D matrices")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ValueError(f"shape mismatch: Q{q.shape} K{k.shape} V{v.shape}")
    if logit_scale <= 0:
        raise ValueError("logit_scale must be positive")
    for name, mat in (("Q", q), ("K", k), ("V", v)):
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"{name} contains non-finite values")
    logits = logit_scale * (q @ k.T) / np.sqrt(q.shape[1])
    field = AttentionField(softmax_rows(logits))
    return field.weights @ v, field


def grid_positions(height: int, width: int) -> np.ndarray:
    """(h, w) coordinates of each token in row-major order, shape (H*W, 2)."""
    hh, ww = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.stack([hh.ravel(), ww.ravel()], axis=1)


def attend_rotary(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    positions: np.ndarray,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    extra_logit_scale: float = 1.0,
) -> tuple[np.ndarray, AttentionField]:
    """Apply (scaled) axial rotary to Q and K at their grid positions, then attend.

    Scaling both sides means a constant per-dimension scale c multiplies the
    logits by c^2 relative to the unscaled case.
    """
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (N, 2)")
    if positions.shape[0] != np.asarray(q).shape[0] or positions.shape[0] != np.asarray(k).shape[0]:
        raise ValueError("positions must cover every query and key token")
    ph, pw = positions[:, 0], positions[:, 1]
    q_rot = axial_rotary(q, ph, pw, sched_h, sched_w, scale_h, scale_w)
    k_rot = axial_rotary(k, ph, pw, sched_h, sched_w, scale_h, scale_w)
    return attend(q_rot, k_rot, v, logit_scale=extra_logit_scale)


def _rotated_keys(
    x, positions, sched_h, sched_w, scale_h, scale_w, logit_scale
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the shared Q = K features once; return them and the keys pre-scaled
    by logit_scale / sqrt(D), so that x_rot @ keys are the logits."""
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions)
    if x.ndim != 2:
        raise ValueError("features must be a 2D matrix")
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (N, 2)")
    if positions.shape[0] != x.shape[0]:
        raise ValueError("positions must cover every query and key token")
    if not logit_scale > 0:
        raise ValueError("logit_scale must be positive")
    x_rot = axial_rotary(x, positions[:, 0], positions[:, 1], sched_h, sched_w, scale_h, scale_w)
    if not np.all(np.isfinite(x_rot)):
        raise ValueError("rotated features contain non-finite values")
    return x_rot, x_rot.T * (logit_scale / np.sqrt(x.shape[1]))


def _check_finite(values: np.ndarray) -> np.ndarray:
    """Shifted logits or entropies; a non-finite one means the logits overflowed."""
    if not np.all(np.isfinite(values)):
        raise ValueError("attention logits overflowed; lower the logit or rotary scale")
    return values


def rotary_entropy(
    x: np.ndarray,
    positions: np.ndarray,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Per-row entropy (natural log) and mean of rotary self-attention with Q = K = x.

    Equals attention_entropy(attend_rotary(x, x, x, ...)[1]) without forming
    the N x N matrix: per block of query rows, with l the row-max-shifted
    logits, H = log Z - sum(e^l * l) / Z where Z = sum(e^l).

    Each block's logits come from one matrix product and are then reduced in
    slices of rows that stay in cache. Every row goes through the same
    operations whatever the slice size, so the result does not depend on it.
    """
    x_rot, keys = _rotated_keys(x, positions, sched_h, sched_w, scale_h, scale_w, logit_scale)
    n = x_rot.shape[0]
    step = max(1, BLOCK_LOGITS // n)
    rows = min(step, max(1, REDUCE_LOGITS // n))
    per_row = np.empty(n)
    exp_buf = np.empty((rows, n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for start in range(0, n, step):
            block = x_rot[start : start + step] @ keys
            for first in range(0, block.shape[0], rows):
                logits = block[first : first + rows]
                logits -= logits.max(axis=1, keepdims=True)
                e = np.exp(logits, out=exp_buf[: logits.shape[0]])
                z = e.sum(axis=1)
                e *= logits
                at = start + first
                per_row[at : at + logits.shape[0]] = np.log(z) - e.sum(axis=1) / z
    _check_finite(per_row)
    return per_row, float(per_row.mean())


def rotary_attention_row(
    x: np.ndarray,
    positions: np.ndarray,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
    *,
    query: int,
) -> np.ndarray:
    """One query token's attention weights over all N tokens, in O(N * D)."""
    x_rot, keys = _rotated_keys(x, positions, sched_h, sched_w, scale_h, scale_w, logit_scale)
    if not 0 <= query < x_rot.shape[0]:
        raise ValueError("query index outside the token range")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        logits = x_rot[query] @ keys
        logits -= logits.max()
    return softmax_rows(_check_finite(logits))


def attention_entropy(field: AttentionField) -> tuple[np.ndarray, float]:
    """Shannon entropy of each query's weight row (natural log), plus the mean."""
    w = field.weights
    terms = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    per_row = -terms.sum(axis=1)
    return per_row, float(per_row.mean())


def entropy_delta(field_a: AttentionField, field_b: AttentionField) -> float:
    """Mean entropy of a minus mean entropy of b; positive means a is more diffuse."""
    return attention_entropy(field_a)[1] - attention_entropy(field_b)[1]
