"""Single-head rotary self-attention over 2D token grids, as entropy or one row.

:func:`rotary_entropy` takes each query row's entropy from one block of
logits at a time, and :func:`rotary_attention_row` computes the one row
``sega attn-map`` prints. Neither forms the N x N weight matrix, so memory
stays O(block * N).
"""

from __future__ import annotations

import numpy as np

from .rope import RopeSchedule, axial_rotary

# Logits per query block of rotary_entropy: 2 MiB of float64, 64 rows at N=4096.
BLOCK_LOGITS = 1 << 18
# Logits per reduction slice of a block: 512 KiB, 16 rows at N=4096. A slice and
# its exp buffer stay in a 2 MiB L2 cache through all six reduction passes.
REDUCE_LOGITS = 1 << 16


def grid_positions(height: int, width: int) -> np.ndarray:
    """(h, w) coordinates of each token in row-major order, shape (H*W, 2)."""
    hh, ww = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.stack([hh.ravel(), ww.ravel()], axis=1)


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

    The logits are logit_scale * x_rot @ x_rot.T / sqrt(D), with x_rot the
    rotated features. Without forming the N x N matrix: per block of query
    rows, with l the row-max-shifted logits, H = log Z - sum(e^l * l) / Z
    where Z = sum(e^l).

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
    e = np.exp(_check_finite(logits))
    return e / e.sum()
