"""Single-head rotary self-attention over 2D token grids, as entropy or one row.

:func:`rotary_entropy` takes each query row's entropy from one block of
logits at a time, and :func:`rotary_attention_row` computes the one row
``sega attn-map`` prints. Neither forms the N x N weight matrix or a full
copy of the rotated features: both read and rotate the features a few rows at
a time into one N x D key matrix, and rotary_entropy reads and rotates its
query rows again, a few blocks at a time. The features are a dense matrix or
a :class:`~sega.tensorio.TokenFeatures`, which projects each row where it is
read, so with those the key matrix plus one block of logits, O(N * (D +
block)), is all the memory that grows with N.
"""

from __future__ import annotations

import numpy as np

from .rope import RopeSchedule, axial_rotary
from .tensorio import TokenFeatures

# Logits per query block of rotary_entropy: 2 MiB of float64, 64 rows at N=4096.
BLOCK_LOGITS = 1 << 18
# Logits per reduction slice of a block: 512 KiB, 16 rows at N=4096. A slice and
# its exp buffer stay in a 2 MiB L2 cache through all six reduction passes.
REDUCE_LOGITS = 1 << 16


def grid_positions(height: int, width: int) -> np.ndarray:
    """(h, w) coordinates of each token in row-major order, shape (H*W, 2)."""
    hh, ww = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.stack([hh.ravel(), ww.ravel()], axis=1)


def _checked(x, positions, logit_scale) -> tuple[np.ndarray | TokenFeatures, np.ndarray]:
    """x as float64 features whose rows the kernels read by index; TokenFeatures stay lazy."""
    if not isinstance(x, TokenFeatures):
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
    return x, positions


def _rotate(x, positions, rope, rows) -> np.ndarray:
    """Rotated features of the tokens x[rows]; rope is (sched_h, sched_w, scale_h, scale_w).

    x[rows] is the one read of the features, dense or TokenFeatures alike."""
    pos = positions[rows]
    return axial_rotary(x[rows], pos[..., 0], pos[..., 1], *rope)


def _rotated_keys(x, positions, rope, logit_scale) -> np.ndarray:
    """The shared Q = K features rotated chunk by chunk into one N x D array
    scaled by logit_scale / sqrt(D), returned transposed: a rotated query row
    times it is a row of logits. Its layout and bits are those of x_rot.T * c;
    a one-row product with C-ordered keys would differ in the last bits.
    Every row is checked here, so a query row rotated again is finite."""
    n, d = x.shape
    c = logit_scale / np.sqrt(d)
    keys = np.empty((n, d))
    # one reduction slice of features at a time: few rotary calls, and their
    # temporaries peak below the logit block and query chunks that come later
    chunk = max(1, REDUCE_LOGITS // d)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        x_rot = _rotate(x, positions, rope, rows)
        if not np.all(np.isfinite(x_rot)):
            raise ValueError("rotated features contain non-finite values")
        np.multiply(x_rot, c, out=keys[rows])
    return keys.T


def _check_finite(values: np.ndarray) -> np.ndarray:
    """Shifted logits or entropies; a non-finite one means the logits overflowed."""
    if not np.all(np.isfinite(values)):
        raise ValueError("attention logits overflowed; lower the logit or rotary scale")
    return values


def rotary_entropy(
    x: np.ndarray | TokenFeatures,
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

    Query rows are rotated from x a few blocks at a time; each block of them is
    multiplied by the resident keys into one reused logits buffer and then
    reduced in slices of rows that stay in cache. Every row goes through the
    same operations whatever the slice size, so the result does not depend on
    it.
    """
    x, positions = _checked(x, positions, logit_scale)
    rope = (sched_h, sched_w, scale_h, scale_w)
    keys = _rotated_keys(x, positions, rope, logit_scale)
    n = x.shape[0]
    step = max(1, BLOCK_LOGITS // n)
    # query rows rotated at once: whole blocks, about half a reduction slice of
    # features, so that with their temporaries they fit beside the logit block
    chunk = step * max(1, REDUCE_LOGITS // (2 * step * x.shape[1]))
    rows = min(step, max(1, REDUCE_LOGITS // n))
    per_row = np.empty(n)
    block_buf = np.empty((step, n))
    exp_buf = np.empty((rows, n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for start in range(0, n, step):
            if start % chunk == 0:
                queries = _rotate(x, positions, rope, slice(start, start + chunk))
            query_block = queries[start % chunk : start % chunk + step]
            block = np.matmul(query_block, keys, out=block_buf[: query_block.shape[0]])
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
    x: np.ndarray | TokenFeatures,
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
    x, positions = _checked(x, positions, logit_scale)
    if not 0 <= query < x.shape[0]:
        raise ValueError("query index outside the token range")
    rope = (sched_h, sched_w, scale_h, scale_w)
    keys = _rotated_keys(x, positions, rope, logit_scale)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        logits = _rotate(x, positions, rope, query) @ keys
        logits -= logits.max()
    e = np.exp(_check_finite(logits))
    return e / e.sum()
