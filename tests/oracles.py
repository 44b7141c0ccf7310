"""Independent reference implementations used only by the tests.

Nothing in here calls into the package's own numerics, and nothing imports
``sega``: the DFT is the direct double-sum definition, the closed forms are
re-derived with plain math, the expected reference-scale anchors are frozen
constants, dense attention is a plain softmax over features the caller has
already rotated, and the rotary embedding is applied one token at a time.
The rotated features and their key product are the reference for the
logits that the attention kernels build from relative-position tables, and
an entropy evaluated in stdlib ``decimal`` is the reference for their
reduction. ``sega modulate``'s spectral stage is recomputed from its formulas
with one loop per sample and per rotary dimension.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OracleReport:
    case_id: str
    expected: float
    actual: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.actual - self.expected)

    @property
    def rel_error(self) -> float:
        denom = max(abs(self.expected), 1e-300)
        return self.abs_error / denom

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance


def naive_dft2(map2d: np.ndarray) -> np.ndarray:
    """Direct double-summation 2D DFT; small grids only."""
    map2d = np.asarray(map2d, dtype=np.float64)
    h, w = map2d.shape
    if h > 32 or w > 32:
        raise ValueError("naive oracle is restricted to grids up to 32x32")
    i = np.arange(h)
    j = np.arange(w)
    eh = np.exp(-2j * np.pi * np.outer(i, i) / h)   # (freq_row, h)
    ew = np.exp(-2j * np.pi * np.outer(j, j) / w)   # (freq_col, w)
    return eh @ map2d.astype(complex) @ ew.T


def dense_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by each row's max."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dense_entropy(x_rot: np.ndarray, logit_scale: float = 1.0) -> tuple[np.ndarray, float]:
    """Per-row entropy (natural log) of the full N x N self-attention matrix with
    Q = K = x_rot and logits logit_scale * x_rot x_rot^T / sqrt(D); plus the mean."""
    x_rot = np.asarray(x_rot, dtype=np.float64)
    w = dense_softmax(logit_scale * (x_rot @ x_rot.T) / np.sqrt(x_rot.shape[1]))
    per_row = -np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0).sum(axis=1)
    return per_row, float(per_row.mean())


def rotate_tokens(x: np.ndarray, positions, theta: np.ndarray, scale=None) -> np.ndarray:
    """Rotary embedding one token at a time: subspace d of token i, the components
    (2d, 2d+1), turns by positions[i] * theta[d] and is then scaled by scale[d].

    x has shape (N, 2 * len(theta)). The arithmetic is written out per token
    in the order of the rotation formula, so equal inputs give equal bits.
    """
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    scale = np.ones(theta.shape) if scale is None else np.asarray(scale, dtype=np.float64)
    out = np.empty_like(x)
    for i, position in enumerate(np.asarray(positions, dtype=np.float64)):
        angle = position * theta
        cos, sin = np.cos(angle), np.sin(angle)
        even, odd = x[i, 0::2], x[i, 1::2]
        out[i, 0::2] = scale * (cos * even - sin * odd)
        out[i, 1::2] = scale * (sin * even + cos * odd)
    return out


def grid_positions(height: int, width: int) -> np.ndarray:
    """(h, w) coordinates of each token of a height x width grid, row-major, shape (H*W, 2)."""
    hh, ww = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.stack([hh.ravel(), ww.ravel()], axis=1)


def rotated_features(x, height, width, theta_h, theta_w, scale_h=None, scale_w=None) -> np.ndarray:
    """Axial rotary embedding of the (H*W, D) features of a row-major grid: the
    first 2 * len(theta_h) columns turn with the token's row h, the rest with
    its column w."""
    x = np.asarray(x, dtype=np.float64)
    positions = grid_positions(height, width)
    split = 2 * len(theta_h)
    return np.concatenate([
        rotate_tokens(x[:, :split], positions[:, 0], theta_h, scale_h),
        rotate_tokens(x[:, split:], positions[:, 1], theta_w, scale_w),
    ], axis=1)


def rotary_logits(x, height, width, theta_h, theta_w, scale_h=None, scale_w=None,
                  logit_scale: float = 1.0) -> np.ndarray:
    """The N x N logits logit_scale * x_rot x_rot^T / sqrt(D): the features
    rotated one token at a time, then multiplied by the scaled keys x_rot^T."""
    x_rot = rotated_features(x, height, width, theta_h, theta_w, scale_h, scale_w)
    return x_rot @ (x_rot.T * (logit_scale / np.sqrt(x_rot.shape[1])))


def decimal_entropy(x_rot: np.ndarray, logit_scale: float = 1.0, digits: int = 40) -> list[float]:
    """Per-row entropy of softmax(logit_scale * x_rot x_rot^T / sqrt(D)) in stdlib decimal.

    The float64 features are taken exactly. With a row's logits shifted by
    their max, Z' = sum of e^l over every other key and S = sum of e^l * l,
    H = ln(1 + Z') - S / (1 + Z'): both terms are non-negative, so nothing
    cancels. The last step runs at `digits` plus the leading zero digits of
    Z', or 1 + Z' would round to 1 on a sharp row and lose H's first term.
    """
    x_rot = np.asarray(x_rot, dtype=np.float64)
    n, dim = x_rot.shape
    if n > 64:
        raise ValueError("decimal oracle is restricted to 64 tokens")
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits
        rows = [[decimal.Decimal(v) for v in row] for row in x_rot.tolist()]
        c = decimal.Decimal(logit_scale) / decimal.Decimal(dim).sqrt()
        logits = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                logits[i][j] = logits[j][i] = c * sum(a * b for a, b in zip(rows[i], rows[j]))
        entropies = []
        for row in logits:
            top = max(range(n), key=row.__getitem__)
            shifted = [value - row[top] for value in row]
            exps = [value.exp() for value in shifted]
            exps[top] = decimal.Decimal(0)
            z, s = sum(exps), sum(e * value for e, value in zip(exps, shifted))
            with decimal.localcontext() as last:
                last.prec = digits + max(0, -z.adjusted()) if z else digits
                entropies.append(float((1 + z).ln() - s / (1 + z)))
        return entropies


# Anchor magnitudes at kappa = 0.08 for ratios 1..32: ratio**0.08 (power) and
# 1 + 0.08*ln(ratio) (log), each rounded to 3 decimals.
# Power entries 4/8/16 once read 1.118/1.182/1.249, 7e-4 to 1e-3 off ratio**0.08.
REFERENCE_SCALE_TABLE = (
    (1, "power", 1.000),
    (2, "power", 1.057),
    (4, "power", 1.117),
    (8, "power", 1.181),
    (16, "power", 1.248),
    (32, "power", 1.320),
    (1, "log", 1.000),
    (2, "log", 1.055),
    (4, "log", 1.111),
    (8, "log", 1.166),
    (16, "log", 1.222),
    (32, "log", 1.277),
)


def reference_scale_direct(ratio: float, form: str, kappa: float = 0.08) -> float:
    if form == "power":
        return math.exp(kappa * math.log(ratio))
    return 1.0 + kappa * math.log(ratio)


def temperature_direct(ratio: float) -> float:
    return 0.1 * math.log(ratio) + 1.0


def ntk_base_direct(base: float, ratio: float, dim: int, strong: bool) -> float:
    expo = (2 * dim if strong else dim) / (dim - 2)
    return base * math.exp(expo * math.log(ratio))


def flatness_direct(values) -> float:
    """Geometric over arithmetic mean via plain Python math."""
    values = [float(v) for v in values]
    gm = math.exp(sum(math.log(v) for v in values) / len(values))
    am = sum(values) / len(values)
    return gm / am


def modulate_direct(values, theta_h, theta_w, ratio: float, kappa: float = 0.08, gamma: float = 1.5,
                    ref_form: str = "power", eps: float = 1e-12, n_bins=None) -> dict:
    """The payload of ``sega modulate`` for an (H, W, C) latent, from the spectral formulas.

    The channel mean less its spatial mean goes through naive_dft2; after that
    every step is plain Python over samples and rotary dimensions:
    - axis profile bin i sums spectrum rows (columns) i and L - i, row 0 alone
      for i = 0, for i < L // 2;
    - radial bin of sample (i, j) is floor(rho * n_bins), at most n_bins - 1,
      with rho = sqrt(u^2 + v^2) / sqrt(0.5), u = min(i, H - i) / H and
      v = min(j, W - j) / W; DC is left out, a bin holds the mean of its
      samples and an empty bin is unoccupied. n_bins defaults to
      max(2, min(H, W) // 2). rho is rounded before it is scaled, in that
      order: a sample whose exact rho * n_bins is an integer, such as (2, 2)
      of a 6 x 6 grid at 3 bins, falls below the edge;
    - SF is the geometric over the arithmetic mean of the occupied bins, each
      floored at eps, at most 1; sigma = 1 - SF**gamma within [0, 1];
    - m_ref is ratio**kappa, or 1 + kappa ln ratio for the log form;
    - theta_d has c = theta_d L / (2 pi) cycles over its axis. Its band is 0
      for c < 1, else floor(c + 1/2), at most L // 2 - 1;
    - s_d is tanh of the standardized ln(E[band] + eps), less its mean (all
      zeros when their standard deviation is below 1e-12);
    - m_d = m_ref * max(1 - sigma s_d, 0.05).
    """
    values = np.asarray(values, dtype=np.float64)
    h, w, c = values.shape
    plane = [[math.fsum(values[i, j].tolist()) / c for j in range(w)] for i in range(h)]
    mean = math.fsum(v for row in plane for v in row) / (h * w)
    dft = naive_dft2(np.array([[v - mean for v in row] for row in plane]))
    power = [[z.real**2 + z.imag**2 for z in row] for row in dft.tolist()]

    def fold(rows):
        length = len(rows)
        return [rows[0]] + [rows[i] + rows[length - i] for i in range(1, length // 2)]

    profile_h = fold([math.fsum(row) for row in power])
    profile_w = fold([math.fsum(power[i][j] for i in range(h)) for j in range(w)])

    n_bins = max(2, min(h, w) // 2) if n_bins is None else n_bins
    sums, counts = [0.0] * n_bins, [0] * n_bins
    for i in range(h):
        for j in range(w):
            if i == j == 0:
                continue
            u, v = min(i, h - i) / h, min(j, w - j) / w
            rho = math.sqrt(u * u + v * v) / math.sqrt(0.5)
            b = min(int(rho * n_bins), n_bins - 1)
            sums[b] += power[i][j]
            counts[b] += 1
    ring = [max(s / n, eps) for s, n in zip(sums, counts) if n]
    arithmetic = math.fsum(ring) / len(ring)
    geometric = math.exp(math.fsum(math.log(e) for e in ring) / len(ring))
    flatness = min(geometric / arithmetic, 1.0)
    sigma = min(max(1.0 - flatness**gamma, 0.0), 1.0)
    m_ref = ratio**kappa if ref_form == "power" else 1.0 + kappa * math.log(ratio)

    def axis(name, profile, length, thetas):
        logs = []
        for theta in thetas:
            cycles = float(theta) * length / (2.0 * math.pi)
            band = 0 if cycles < 1.0 else min(math.floor(cycles + 0.5), max(length // 2 - 1, 0))
            logs.append(math.log(profile[band] + eps))
        mu = math.fsum(logs) / len(logs)
        nu = math.sqrt(math.fsum((x - mu) ** 2 for x in logs) / len(logs))
        t = [math.tanh((x - mu) / nu) if nu >= 1e-12 else 0.0 for x in logs]
        t_mean = math.fsum(t) / len(t)
        s = [x - t_mean for x in t]
        m = [m_ref * max(1.0 - sigma * x, 0.05) for x in s]
        return {"axis": name, "m_ref": m_ref, "sigma": sigma, "SF": flatness, "s_corr": s, "m": m}

    return {"axes": [axis("H", profile_h, h, theta_h), axis("W", profile_w, w, theta_w)]}


def yarn_theta_direct(theta_d: float, ratio: float, alpha: float, beta: float, train_len: float) -> float:
    r = (2.0 * math.pi / theta_d) / train_len
    if r < alpha:
        lam = 0.0
    elif r > beta:
        lam = 1.0
    else:
        lam = (r - alpha) / (beta - alpha)
    return (1.0 - lam) * theta_d / ratio + lam * theta_d


def relative_position_reports(rotate, dim: int, schedule, rng, samples: int, tol: float):
    """Check <rotate(q, n), rotate(k, m)> == <rotate(q, n - m), k> over random draws.

    `rotate(x, position, schedule)` is the function under test; the equality
    itself is what makes the embedding relative, so the check needs no
    reference rotation code.
    """
    reports = []
    for case in range(samples):
        q = rng.standard_normal(dim)
        k = rng.standard_normal(dim)
        n = float(rng.integers(0, 256))
        m = float(rng.integers(0, 256))
        lhs = float(np.dot(rotate(q, n, schedule), rotate(k, m, schedule)))
        rhs = float(np.dot(rotate(q, n - m, schedule), k))
        reports.append(OracleReport(f"case{case}:n={n},m={m}", rhs, lhs, tol))
    return reports
