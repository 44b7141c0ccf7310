"""Single-head rotary self-attention over 2D token grids, as entropy or one row.

:func:`rotary_entropy` takes each query token's entropy from one block of
logits at a time, and :func:`rotary_attention_row` computes the one row
``sega attn-map`` prints. Neither rotates a feature or forms the N x N
matrix: the features t P have rank C (:class:`~sega.tensorio.TokenFeatures`)
and rotary embedding is relative, R(a)^T R(b) = R(b - a), on each axial half
of the D columns, so the logit of tokens i and j is t_i^T (M_H(h_j - h_i) +
M_W(w_j - w_i)) t_j, with C x C tables over the 2H - 1 and 2W - 1 grid offsets
that hold the schedules, magnitudes and logit scale. The entropy costs
O(N^2 * 2C + N * (H + W) * C^2); the tokens, tables and one block of logits
are all the memory that grows with N. Each row is reduced with its largest
term held out, so every entropy is right to the printed digit.
"""

from __future__ import annotations

import numpy as np

from .rope import RopeSchedule, scale_vector
from .tensorio import TokenFeatures

# Logits per query block of rotary_entropy: 512 KiB of float64, 16 rows at
# N=4096. A block and its exp buffer stay in a 2 MiB L2 cache through all five
# reduction passes, which run under a ufunc buffer of one row (see rotary_entropy).
BLOCK_LOGITS = 1 << 16


def _axis_table(proj: np.ndarray, sched: RopeSchedule, scale, extent: int, c: float) -> np.ndarray:
    """(2 * extent - 1, C, C) tables M(delta) for delta = 1 - extent .. extent - 1.

    proj is the (C, sched.dim) part of the projection that this axis rotates,
    pe and po its even and odd columns. Subspace d turns a query by
    theta_d * delta against its key, so M(delta) = sum_d c s_d^2
    [cos(theta_d delta) (pe pe^T + po po^T)_d + sin(theta_d delta) (po pe^T - pe po^T)_d].
    """
    weight = c * scale_vector(scale, sched) ** 2
    angles = np.arange(1 - extent, extent, dtype=np.float64)[:, None] * sched.theta
    cos, sin = np.cos(angles) * weight, np.sin(angles) * weight  # (2 * extent - 1, dim / 2)
    pe, po = proj[:, 0::2], proj[:, 1::2]
    left = np.concatenate([pe * cos[:, None] + po * sin[:, None],
                           po * cos[:, None] - pe * sin[:, None]], axis=2)
    return left @ np.concatenate([pe, po], axis=1).T


def _tables(feats, height, width, sched_h, sched_w, scale_h, scale_w, logit_scale):
    """The (N, C) tokens and the H and W tables of the logits, checked finite."""
    tokens, proj = feats.tokens, feats.proj
    if height < 1 or width < 1 or height * width != tokens.shape[0]:
        raise ValueError("grid shape must cover every token")
    if proj.shape[1] != sched_h.dim + sched_w.dim:
        raise ValueError(f"feature length {proj.shape[1]} != {sched_h.dim} + {sched_w.dim}")
    if not logit_scale > 0:
        raise ValueError("logit_scale must be positive")
    if not (np.all(np.isfinite(tokens)) and np.all(np.isfinite(proj))):
        raise ValueError("features contain non-finite values")
    c = logit_scale / np.sqrt(proj.shape[1])
    # overflow is reported below; underflow to 0 or a subnormal is only rounding
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        m_h = _axis_table(proj[:, : sched_h.dim], sched_h, scale_h, height, c)
        m_w = _axis_table(proj[:, sched_h.dim :], sched_w, scale_w, width, c)
    return tokens, _check_finite(m_h), _check_finite(m_w)


def _check_finite(values: np.ndarray) -> np.ndarray:
    """Tables, shifted logits or entropies; a non-finite one means the logits overflow."""
    if not np.all(np.isfinite(values)):
        raise ValueError("attention logits overflowed; lower the logit or rotary scale")
    return values


def _logit_blocks(grid: np.ndarray, m_h: np.ndarray, m_w: np.ndarray, step: int):
    """Yield (w, first, block): the logits of the query tokens (first .. first +
    step - 1, w) of the (H, W, C) token grid against every key, row-major.

    Per query grid column w, rhs[h'] = [M_W(w' - w) t_{h'w'} ; t_{h'w'}] over
    key columns w', and per block lhs[h'] = [t_{hw} | t_{hw}^T M_H(h' - h)]
    over its query rows h, so one batched GEMM over key rows h', of inner
    dimension 2C, forms both terms. Its output is the block viewed (h', h, w'),
    so BLAS writes the block's row-major rows in place. Its buffers, lhs and
    the M_H products are allocated once and reused: each block is valid until
    the next is yielded.
    """
    height, width, rank = grid.shape
    block_buf = np.empty((step, height * width))
    lhs_buf = np.empty(height * step * 2 * rank)
    products_buf = np.empty((step, (2 * height - 1) * rank))
    rhs = np.empty((height, 2 * rank, width))
    rhs[:, rank:] = grid.transpose(0, 2, 1)
    by_col = np.ascontiguousarray(grid.transpose(1, 2, 0))  # (w', C, h')
    m_h_flat = m_h.transpose(1, 0, 2).reshape(rank, -1)  # (C, (2H - 1) * C)
    for w in range(width):
        rhs[:, :rank] = np.matmul(m_w[width - 1 - w : 2 * width - 1 - w], by_col).transpose(2, 1, 0)
        for first in range(0, height, step):
            queries = grid[first : first + step, w]
            q = queries.shape[0]
            lhs = lhs_buf[: height * q * 2 * rank].reshape(height, q, 2 * rank)
            lhs[:, :, :rank] = queries
            # t^T M_H(k + 1 - H) for query row first + r at [r, k], read through a
            # strided (r, h') view at k = h' - first - r + H - 1
            products = np.matmul(queries, m_h_flat, out=products_buf[:q]).reshape(q, -1, rank)
            s0, s1, s2 = products.strides
            lhs[:, :, rank:] = np.lib.stride_tricks.as_strided(
                products[:, height - 1 - first :], (q, height, rank), (s0 - s1, s1, s2)
            ).transpose(1, 0, 2)
            block = block_buf[:q]
            np.matmul(lhs, rhs, out=block.reshape(q, height, width).transpose(1, 0, 2))
            yield w, first, block


def rotary_entropy(
    feats: TokenFeatures,
    height: int,
    width: int,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Per-token entropy (natural log) and mean of rotary self-attention with Q = K.

    The tokens are the height x width grid in row-major order, and the logits
    logit_scale * x_rot @ x_rot.T / sqrt(D) of the rotated features come from
    the tables. With l a row's logits minus the one at its argmax, Z' the sum
    of e^l over the other keys and S = sum(e^l * l), H = log1p(Z') - S / (1 + Z').
    Both terms are non-negative, so nothing cancels even on nearly one-hot
    rows. Five passes: argmax, subtract, exp and two BLAS dots per row, which
    write Z' and S in place; H is then taken for the whole grid at once.

    A block is one query grid column, or part of one within BLOCK_LOGITS, and
    stays in cache while each of its rows is reduced by its own operations and
    dots. The block size decides which rows share a GEMM, which BLAS may round
    differently, so it moves only the last bits.

    The loop runs under a ufunc buffer of one row (np.setbufsize, restored on
    return): with numpy's default 8192 elements, the subtract of each row's
    top logit buffers that (r, 1) column to fuse rows, at three times the cost
    of a scalar subtract. The buffer size does not change any result.
    """
    tokens, m_h, m_w = _tables(feats, height, width, sched_h, sched_w, scale_h, scale_w, logit_scale)
    n = tokens.shape[0]
    step = min(height, max(1, BLOCK_LOGITS // n))
    z, s = np.empty((height, width)), np.empty((height, width))
    exp_buf = np.empty((step, n))
    ones, index = np.ones((n, 1)), np.arange(step)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # as in _tables
        # one row, as a multiple of 16 in [16, 2**20] (numpy's range); longer rows go unbuffered
        bufsize = np.setbufsize(max(16, min(n, 1 << 20) // 16 * 16))
        try:
            for w, first, logits in _logit_blocks(tokens.reshape(height, width, -1), m_h, m_w, step):
                r = len(logits)
                top = index[:r], logits.argmax(axis=1)
                logits -= logits[top][:, None]
                e = np.exp(logits, out=exp_buf[:r])
                e[top] = 0.0
                # a dot per row, not a gemv, written straight into Z' and S
                np.matmul(e[:, None], ones, out=z[first : first + r, w, None, None])
                np.matmul(e[:, None], logits[:, :, None], out=s[first : first + r, w, None, None])
        finally:
            np.setbufsize(bufsize)
        per_row = np.log1p(z) - s / (1.0 + z)
    per_row = _check_finite(per_row.ravel())
    return per_row, float(per_row.mean())


def rotary_attention_row(
    feats: TokenFeatures,
    height: int,
    width: int,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
    *,
    query: int,
) -> np.ndarray:
    """One query token's attention weights over all N tokens.

    Given the tables, its logits cost O(N * C + (H + W) * C^2): the query
    times M_H and M_W at every offset, then one C-long dot per key.
    """
    tokens, m_h, m_w = _tables(feats, height, width, sched_h, sched_w, scale_h, scale_w, logit_scale)
    if not 0 <= query < tokens.shape[0]:
        raise ValueError("query index outside the token range")
    h, w = divmod(query, width)
    t = tokens[query]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # as in _tables
        along_h = t @ m_h[height - 1 - h : 2 * height - 1 - h]  # t^T M_H(h' - h), (H, C)
        along_w = t @ m_w[width - 1 - w : 2 * width - 1 - w]
        logits = ((along_h[:, None] + along_w) * tokens.reshape(height, width, -1)).sum(axis=2)
        logits = logits.ravel()
        logits -= logits.max()
        e = np.exp(_check_finite(logits))
        return e / e.sum()
