"""Single-head rotary self-attention over 2D token grids, as entropy or one row.

:func:`rotary_entropy` takes each query token's entropy from one block of
logits at a time, and :func:`rotary_attention_row` computes the one row
``sega attn-map`` prints from a one-row block of the same GEMM, so every
logit is formed in :func:`_logit_blocks`. Neither rotates a feature or forms
the N x N matrix: the features t P have rank C (:class:`~sega.tensorio.TokenFeatures`)
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
# N=4096. A block and its exp buffer stay in a 2 MiB L2 cache through its four
# reduction passes (five when it is shifted).
BLOCK_LOGITS = 1 << 16
# The largest |row top| t at which rotary_entropy exponentiates a block's raw
# logits. No logit of a row exceeds its t, so over N <= 2**62 keys z <= N e^t and
# |s|, |t z| <= N t e^t stay below float64's largest value e^709.78 while t <=
# 709.78 - ln(2**62 * t) ~ 660, and no e^-t nears the subnormals below e^-708.
RAW_TOP = 640.0
# OpenBLAS 0.3.31 may run a GEMM of more than 2**18 multiply-adds (M * N * K)
# on more than one thread, and a dot of more than 10000 terms, and a threaded
# split rounds differently. Each larger product is cut into parts within these
# bounds, chosen from its shape alone. The row sums Z are a gemv, which is not
# cut; it gave the same bits at one and two threads on every core tested.
SERIAL_GEMM = 1 << 18
SERIAL_DOT = 10000


def _parts(length: int, most: int) -> list:
    """0 .. length as the fewest near-equal slices of at most `most` each."""
    count = -(-length // most)
    return [slice(i * length // count, (i + 1) * length // count) for i in range(count)]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.matmul(a, b, out), each (M, K) @ (K, N) product cut into row (and, if
    one row exceeds it, column) parts of at most SERIAL_GEMM multiply-adds
    while K is within it. Rows are counted against the widest column part."""
    (m, k), n = a.shape[-2:], b.shape[-1]
    cols = _parts(n, max(1, SERIAL_GEMM // k))
    for r in _parts(m, max(1, SERIAL_GEMM // (k * -(-n // len(cols))))):
        for c in cols:
            np.matmul(a[..., r, :], b[..., c], out=out[..., r, c])
    return out


def _gemm(m: int, k: int, n: int):
    """The matmul for (M, K) @ (K, N) products of at most these sizes: np.matmul,
    one call, within SERIAL_GEMM multiply-adds, else _matmul."""
    return np.matmul if m * k * n <= SERIAL_GEMM else _matmul


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
    right = np.concatenate([pe, po], axis=1).T
    out = np.empty((*left.shape[:2], right.shape[1]))
    return _gemm(*left.shape[1:], right.shape[1])(left, right, out)


def _tables(feats, sched_h, sched_w, scale_h, scale_w, logit_scale):
    """The (H, W, C) tokens and the H and W tables of the logits, checked finite."""
    tokens, proj = feats.tokens, feats.proj
    height, width, _ = tokens.shape
    if proj.shape[1] != sched_h.dim + sched_w.dim:
        raise ValueError(f"feature length {proj.shape[1]} != {sched_h.dim} + {sched_w.dim}")
    if not 0 < logit_scale < np.inf:
        raise ValueError("logit_scale must be finite and > 0")
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


def _logit_blocks(grid: np.ndarray, m_h: np.ndarray, m_w: np.ndarray, step: int, query=None):
    """Yield (w, first, block): the logits of the query tokens (first .. first +
    step - 1, w) of the (H, W, C) token grid against every key, row-major.
    With query = (h, w), only the block from that token down is formed (at
    step 1, its one row).

    Per query grid column w, rhs[h'] = [M_W(w' - w) t_{h'w'} ; t_{h'w'}] over
    key columns w', and per block lhs[h'] = [t_{hw} | t_{hw}^T M_H(h' - h)]
    over its query rows h, so one batched GEMM over key rows h', of inner
    dimension 2C, forms both terms. Its output is the block viewed (h', h, w'),
    so BLAS writes the block's row-major rows in place. lhs is read in place
    from one matmul of the block's tokens by [I | M_H]; that product, rhs and
    the block are allocated once and reused; a block is valid until the next.
    """
    height, width, rank = grid.shape
    # On a 64-byte line: heap offsets vary by process, and a block off one ran ~5% slower
    raw = np.empty(step * height * width + 7)
    block_buf = raw[-(raw.ctypes.data // 8) % 8 :][: step * height * width].reshape(step, -1)
    pairs_buf = np.empty((step, 2 * height - 1, 2 * rank))
    # [t | t^T M_H(k + 1 - H)] for query row first + r sits at pairs_buf[r, k],
    # and lhs_at[first, h', r] views it at k = h' - first - r + H - 1
    s0, s1, s2 = pairs_buf.strides
    lhs_at = np.lib.stride_tricks.as_strided(
        pairs_buf[:, height - 1 :], (height, height, step, 2 * rank), (-s1, s1, s0 - s1, s2)
    )
    rhs = np.empty((height, 2 * rank, width))
    rhs[:, rank:] = grid.transpose(0, 2, 1)
    col_buf = np.empty((width, rank, height))
    by_col = np.ascontiguousarray(grid.transpose(1, 2, 0))  # (w', C, h')
    eye = np.broadcast_to(np.eye(rank)[:, None], (rank, 2 * height - 1, rank))
    m_h_pairs = np.concatenate([eye, m_h.transpose(1, 0, 2)], axis=2).reshape(rank, -1)  # (C, (2H - 1) * 2C)
    firsts, columns = (range(0, height, step), range(width)) if query is None else ([query[0]], [query[1]])
    # chosen once per call: a block's products take these shapes at q <= step rows
    col_gemm, pairs_gemm, row_gemm = (_gemm(rank, rank, height), _gemm(step, rank, m_h_pairs.shape[1]),
                                      _gemm(step, 2 * rank, width))
    for w in columns:
        rhs[:, :rank] = col_gemm(m_w[width - 1 - w : 2 * width - 1 - w], by_col, col_buf).transpose(2, 1, 0)
        for first in firsts:
            queries = grid[first : first + step, w]
            q = queries.shape[0]
            pairs_gemm(queries, m_h_pairs, pairs_buf[:q].reshape(q, -1))
            block = block_buf[:q]
            row_gemm(lhs_at[first, :, :q], rhs, block.reshape(q, height, width).transpose(1, 0, 2))
            yield w, first, block


def rotary_entropy(
    feats: TokenFeatures,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Per-token entropy (natural log) and mean of rotary self-attention with Q = K.

    The entropies are flat over the token grid in row-major order, and the logits
    logit_scale * x_rot @ x_rot.T / sqrt(D) of the rotated features come from
    the tables. With l a row's logits minus the one at its argmax t, Z' the sum
    of e^l over the other keys and S = sum(e^l * l), H = log1p(Z') - S / (1 + Z').
    Both terms are non-negative, so nothing cancels even on nearly one-hot rows.
    Per row: an argmax, an exp, a gemv for Z' and a dot for S, in place.

    Each block takes its row tops t from the argmax. If every |t| is at most
    RAW_TOP, its sums take raw logits, which stay finite (see RAW_TOP), and each
    row is shifted once at the end, Z' = e^-t Z and S = e^-t (S - t Z), cancelling
    ~|t| eps per unit of Z' (the GEMM's own rounding). Else, or at a non-finite t,
    the block subtracts t first.

    A block is one query grid column, or part of one within BLOCK_LOGITS, and
    stays in cache while its rows are reduced. The block size decides which rows
    share a GEMM, which BLAS may round differently, so it moves only the last bits.
    One and two BLAS threads give the same bits (SERIAL_GEMM, SERIAL_DOT).
    """
    tokens, m_h, m_w = _tables(feats, sched_h, sched_w, scale_h, scale_w, logit_scale)
    height, width, _ = tokens.shape
    n = height * width
    step = min(height, max(1, BLOCK_LOGITS // n))
    z, s, tops = np.empty((height, width)), np.empty((height, width)), np.zeros((height, width))
    exp_buf = np.empty((step, n))
    ones, index, dots = np.ones(n), np.arange(step), _parts(n, SERIAL_DOT)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # as in _tables
        for w, first, logits in _logit_blocks(tokens, m_h, m_w, step):
            r = len(logits)
            top = index[:r], logits.argmax(axis=1)
            t = logits[top]
            if np.abs(t).max() <= RAW_TOP:
                tops[first : first + r, w] = t
            else:
                logits -= t[:, None]
            e = np.exp(logits, out=exp_buf[:r])
            e[top] = 0.0
            np.matmul(e, ones, out=z[first : first + r, w])
            dst = s[first : first + r, w]
            np.vecdot(e[:, dots[0]], logits[:, dots[0]], out=dst)
            for part in dots[1:]:
                dst += np.vecdot(e[:, part], logits[:, part])
        scale = np.exp(-tops)  # 1 where tops is 0: then these steps are exact
        z, s = z * scale, (s - tops * z) * scale
        per_row = np.log1p(z) - s / (1.0 + z)
    per_row = _check_finite(per_row.ravel())
    return per_row, float(per_row.mean())


def rotary_attention_row(
    feats: TokenFeatures,
    sched_h: RopeSchedule,
    sched_w: RopeSchedule,
    scale_h: np.ndarray | None = None,
    scale_w: np.ndarray | None = None,
    logit_scale: float = 1.0,
    *,
    query: tuple[int, int],
) -> np.ndarray:
    """The attention weights of the query token (h, w) over all N tokens, row-major.

    Its logits are the one-row block of :func:`_logit_blocks`, the same GEMM
    that forms rotary_entropy's blocks. Given the tables, they cost O(N * C^2)
    for its column's operands plus O(N * 2C) for the row.
    """
    tokens, m_h, m_w = _tables(feats, sched_h, sched_w, scale_h, scale_w, logit_scale)
    (height, width, _), (h, w) = tokens.shape, query
    if not (0 <= h < height and 0 <= w < width):
        raise ValueError(f"query {query} outside the {height}x{width} token grid")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # as in _tables
        ((_, _, (logits,)),) = _logit_blocks(tokens, m_h, m_w, 1, query=query)
        logits -= logits.max()
        e = np.exp(_check_finite(logits))
        return e / e.sum()
