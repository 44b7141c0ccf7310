"""Attention contracts: stochasticity, entropy bounds, rotary composition.

The library has one attention path, which builds its logits from
relative-position tables. ``oracles.rotary_logits`` rotates the features and
multiplies them out, and ``oracles.dense_entropy`` and ``oracles.dense_softmax``
form the full N x N matrix; the kernels are checked against both.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sega import TokenFeatures, YarnParams, make_schedule
from sega import attention
from sega.attention import rotary_attention_row, rotary_entropy
from oracles import decimal_entropy, dense_entropy, dense_softmax, rotary_logits, rotated_features


def dense(x, height, width):
    """Dense (N, D) features as the kernels take them: the row-major tokens x as a
    height x width grid, projection I_D."""
    x = np.asarray(x, dtype=np.float64).reshape(height, width, -1)
    return TokenFeatures(x, np.eye(x.shape[2]))


def rotated(x, height, width, sh, sw, mh=None, mw=None):
    return rotated_features(x, height, width, sh.theta, sw.theta, mh, mw)


def record_products(monkeypatch):
    """From now on, the M * K * N of each np.matmul call on matrices and the
    length of each np.vecdot call, as the kernels hand them to BLAS."""
    gemms, dots = [], []
    matmul, vecdot = np.matmul, np.vecdot

    def recording_matmul(a, b, *args, **kwargs):
        if a.ndim > 1 and b.ndim > 1:
            gemms.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    def recording_vecdot(a, b, *args, **kwargs):
        dots.append(a.shape[-1])
        return vecdot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(np, "vecdot", recording_vecdot)
    return gemms, dots


def all_rows(x, height, width, sh, sw, mh=None, mw=None, logit_scale=1.0):
    feats = dense(x, height, width)
    return np.stack([
        rotary_attention_row(feats, sh, sw, mh, mw, logit_scale, query=divmod(q, width))
        for q in range(height * width)
    ])


class TestAttend:
    """One query's weight row, and the oracle softmax it is compared with."""

    def test_zero_queries_give_uniform_attention(self):
        sh, sw = make_schedule(4), make_schedule(4)
        weights = all_rows(np.zeros((15, 8)), 3, 5, sh, sw)
        np.testing.assert_allclose(weights, 1.0 / 15, atol=1e-12)

    def test_hand_two_by_two(self):
        # logits [[0, ln 3], [0, 0]] -> row 0 weights [0.25, 0.75]
        weights = dense_softmax(np.array([[0.0, math.log(3.0)], [0.0, 0.0]]))
        np.testing.assert_allclose(weights[0], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(weights[1], [0.5, 0.5], atol=1e-12)

    def test_unit_scale_matches_unscaled_definition(self, rng):
        sh, sw = make_schedule(4), make_schedule(4)
        feats = rng.standard_normal((6, 8))
        x_rot = rotated(feats, 2, 3, sh, sw)
        expected = dense_softmax((x_rot @ x_rot.T) / np.sqrt(8))
        np.testing.assert_allclose(all_rows(feats, 2, 3, sh, sw, logit_scale=1.0), expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_stochastic(self, seed):
        gen = np.random.default_rng(seed)
        sh, sw = make_schedule(4), make_schedule(4)
        weights = all_rows(gen.normal(0, 5, (7, 8)), 1, 7, sh, sw)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-5
        assert np.all(weights >= 0)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(0, 3, (5, 9))
        a = dense_softmax(logits)
        b = dense_softmax(logits + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestAttendRotary:
    """Per-dimension rotary scaling, seen through the blocked path."""

    def setup_method(self):
        self.sh = make_schedule(8)
        self.sw = make_schedule(8)

    def test_unit_scaling_matches_plain_rope(self, rng):
        feats = rng.standard_normal((16, 16))
        ones = np.ones(4)
        h1, mean1 = rotary_entropy(dense(feats, 4, 4), self.sh, self.sw)
        h2, mean2 = rotary_entropy(dense(feats, 4, 4), self.sh, self.sw, ones, ones)
        np.testing.assert_array_equal(h1, h2)
        assert mean1 == mean2
        np.testing.assert_array_equal(
            all_rows(feats, 4, 4, self.sh, self.sw),
            all_rows(feats, 4, 4, self.sh, self.sw, ones, ones),
        )

    def test_constant_scale_squares_into_logits(self, rng):
        feats = rng.standard_normal((16, 16))
        c = 1.7
        w1 = all_rows(feats, 4, 4, self.sh, self.sw)
        scale = np.full(4, c)
        w2 = all_rows(feats, 4, 4, self.sh, self.sw, scale, scale)
        expected = dense_softmax(c**2 * np.log(w1))
        np.testing.assert_allclose(w2, expected, atol=1e-8)

    def test_relative_offset_determines_logits(self):
        # constant q = k field: rotary inner products depend only on the 2D offset,
        # and every self logit is |x|^2 / sqrt(D), so log(w[i, j] / w[i, i]) does too
        log_w = np.log(all_rows(np.ones((16, 16)), 4, 4, self.sh, self.sw))
        logits = log_w - np.diag(log_w)[:, None]
        seen = {}
        for i in range(16):
            for j in range(16):
                key = (i // 4 - j // 4, i % 4 - j % 4)
                if key in seen:
                    assert abs(logits[i, j] - seen[key]) < 1e-5
                else:
                    seen[key] = logits[i, j]

    @pytest.mark.parametrize("scale, logit_scale, message", [
        (np.array([1.0, -1.0, 1.0, 1.0]), 1.0, "scale entries must be finite and > 0"),
        (np.array([1.0, np.inf, 1.0, 1.0]), 1.0, "scale entries must be finite and > 0"),
        (np.ones(3), 1.0, "scale must have length 4"),
        (None, np.inf, "logit_scale must be finite and > 0"),
    ])
    def test_rejects_bad_scale(self, rng, scale, logit_scale, message):
        # an infinite magnitude or logit scale is refused by name, not as a logit overflow
        feats = dense(rng.standard_normal((16, 16)), 4, 4)
        with pytest.raises(ValueError, match=message):
            rotary_entropy(feats, self.sh, self.sw, scale, None, logit_scale)
        with pytest.raises(ValueError, match=message):
            rotary_attention_row(feats, self.sh, self.sw, None, scale, logit_scale, query=(0, 0))


class TestEntropy:
    """Limits of the dense oracle, and the bounds of the blocked entropy."""

    def test_uniform_row_hits_log_n(self):
        per_row, mean = dense_entropy(np.zeros((7, 4)))
        np.testing.assert_allclose(per_row, math.log(7), atol=1e-12)
        assert math.isclose(mean, math.log(7), rel_tol=1e-12)

    def test_one_hot_row_is_zero(self):
        # orthogonal, large features: every row attends to itself alone
        per_row, _ = dense_entropy(100.0 * np.eye(5))
        np.testing.assert_allclose(per_row, 0.0, atol=1e-15)

    def test_half_half_row(self):
        # tokens 0 and 1 share a feature; 2 and 3 are orthogonal to it and each other
        x = 100.0 * np.eye(4)[[0, 0, 1, 2]]
        per_row, _ = dense_entropy(x)
        assert math.isclose(per_row[0], math.log(2), rel_tol=1e-12)
        assert math.isclose(per_row[1], math.log(2), rel_tol=1e-12)
        np.testing.assert_allclose(per_row[2:], 0.0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed, n):
        gen = np.random.default_rng(seed)
        sh, sw = make_schedule(2), make_schedule(2)
        per_row, mean = rotary_entropy(dense(gen.normal(0, 4, (n, 4)), 1, n), sh, sw)
        assert np.all(per_row >= -1e-12)
        assert np.all(per_row <= math.log(n) + 1e-9)
        assert -1e-12 <= mean <= math.log(n) + 1e-9


def dense_rotary(feats, height, width, sh, sw, mh=None, mw=None, logit_scale=1.0):
    return dense_entropy(rotated(feats, height, width, sh, sw, mh, mw), logit_scale)


def schedules(method, dim):
    """The H and W schedules of one rope method at ratio 2, as the harness would build them."""
    extra = {"yarn": dict(yarn=YarnParams(train_len=16.0)), "dype": dict(dype_time=0.3)}
    return tuple(
        make_schedule(dim, method=method, ratio=2.0, **extra.get(method, {})) for _ in "HW"
    )


class TestTableLogits:
    """The kernel's table-built logit blocks against the rotated-feature oracle."""

    @pytest.mark.parametrize("height, width", [(15, 13), (41, 25), (3, 50), (2, 2), (1, 7), (7, 1)])
    @pytest.mark.parametrize("method", ["none", "pi", "ntk", "ntk_strong", "yarn", "dype"])
    @pytest.mark.parametrize("rank", [1, 3, 4, 16])
    def test_blocks_match_the_rotation_oracle(self, height, width, method, rank):
        # Whole query columns and parts of 5 rows (41 = 8 * 5 + 1 leaves a one-row
        # part); on a one-row grid the left operand's view has a zero query-row
        # stride. The bound is relative to the block's largest logit: the two
        # forms sum the same products in different orders and groupings. Every
        # block starts on a 64-byte line, wherever the process's heap puts it.
        gen = np.random.default_rng(height * width + rank)
        dim = 16
        sh, sw = schedules(method, dim)
        mh, mw = gen.uniform(0.5, 2.0, dim // 2), gen.uniform(0.5, 2.0, dim // 2)
        tokens = gen.standard_normal((height * width, rank))
        proj = gen.standard_normal((rank, 2 * dim)) / np.sqrt(rank)
        expected = rotary_logits(tokens @ proj, height, width, sh.theta, sw.theta, mh, mw, 1.7)
        feats = TokenFeatures(tokens.reshape(height, width, -1), proj)
        grid, m_h, m_w = attention._tables(feats, sh, sw, mh, mw, 1.7)
        for step in {height, min(5, height)}:
            seen = 0
            for w, first, block in attention._logit_blocks(grid, m_h, m_w, step):
                want = expected[(first + np.arange(block.shape[0])) * width + w]
                assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(want))
                assert block.ctypes.data % 64 == 0
                seen += block.shape[0]
            assert seen == height * width
        # the one-query block that rotary_attention_row takes, at the grid's corners
        for h in (0, height - 1):
            for w in (0, width - 1):
                ((_, _, block),) = attention._logit_blocks(grid, m_h, m_w, 1, query=(h, w))
                want = expected[h * width + w]
                assert block.shape == (1, height * width) and block.ctypes.data % 64 == 0
                assert np.max(np.abs(block[0] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("height, width, step, parts", [(48, 64, 21, (21, 21, 6)), (51, 51, 25, (25, 25, 1))])
    def test_remainder_blocks_match_the_rotation_oracle(self, height, width, step, parts):
        # Each block reads its left operand from one view of the pairs buffer
        # built per call, at its first row and its row count; the last part of
        # each column (6 rows, and a one-row gemv) reads the view's last rows.
        gen = np.random.default_rng(height * width)
        sh, sw = schedules("ntk_strong", 16)
        mh, mw = gen.uniform(0.5, 2.0, 8), gen.uniform(0.5, 2.0, 8)
        tokens, proj = gen.standard_normal((height * width, 4)), gen.standard_normal((4, 32)) / 2.0
        expected = rotary_logits(tokens @ proj, height, width, sh.theta, sw.theta, mh, mw, 1.3)
        feats = TokenFeatures(tokens.reshape(height, width, 4), proj)
        grid, m_h, m_w = attention._tables(feats, sh, sw, mh, mw, 1.3)
        seen = []
        for w, first, block in attention._logit_blocks(grid, m_h, m_w, step):
            want = expected[(first + np.arange(block.shape[0])) * width + w]
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
            seen.append((w, first, block.shape[0]))
        starts = range(0, height, step)
        assert seen == [(w, first, part) for w in range(width) for first, part in zip(starts, parts)]
        for h, w in [(0, 0), (height // 2, width - 1), (height - 1, 7)]:
            ((_, _, block),) = attention._logit_blocks(grid, m_h, m_w, 1, query=(h, w))
            want = expected[h * width + w]
            assert np.max(np.abs(block[0] - want)) <= 1e-12 * np.max(np.abs(want))


def self_logits(feats, sh, sw, mh=None, mw=None, logit_scale=1.0):
    """The (H, W) self-logits t^T (M_H(0) + M_W(0)) t; each is at most its row's top."""
    grid, m_h, m_w = attention._tables(feats, sh, sw, mh, mw, logit_scale)
    height, width, _ = grid.shape
    return np.einsum("hwc,cd,hwd->hw", grid, m_h[height - 1] + m_w[width - 1], grid)


def peak_logit(feats, sh, sw, mh=None, mw=None, logit_scale=1.0):
    """The largest self-logit. With Q = K it bounds every logit, so at most
    RAW_TOP every block of rotary_entropy sums raw logits."""
    return self_logits(feats, sh, sw, mh, mw, logit_scale).max()


class TestRawAndShiftedPaths:
    """rotary_entropy sums a block's raw logits when none of its row tops
    exceeds RAW_TOP in magnitude and shifts each row once at the end; otherwise
    the block subtracts each row's top logit first."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 4, 16]))
    @settings(max_examples=25, deadline=None)
    def test_peak_bounds_every_logit(self, seed, height, width, rank):
        # Cauchy-Schwarz with Q = K: |l_ij| <= sqrt(l_ii l_jj), so the bound is
        # attained on the diagonal and no logit exceeds it
        gen = np.random.default_rng(seed)
        sh, sw = schedules("ntk", 16)
        mh, mw = gen.uniform(0.5, 2.0, 8), gen.uniform(0.5, 2.0, 8)
        tokens, proj = gen.standard_normal((height * width, rank)), gen.standard_normal((rank, 32))
        logits = rotary_logits(tokens @ proj, height, width, sh.theta, sw.theta, mh, mw, 1.7)
        feats = TokenFeatures(tokens.reshape(height, width, rank), proj)
        peak = peak_logit(feats, sh, sw, mh, mw, 1.7)
        assert np.all(np.abs(logits) <= peak * (1 + 1e-12))
        assert math.isclose(peak, np.diag(logits).max(), rel_tol=1e-12)

    @pytest.mark.parametrize("fraction", [0.9, 0.999])
    @pytest.mark.parametrize("height, width",
                             [(2, 2), (3, 50), (24, 25), (41, 25), (51, 51), (64, 64)])
    def test_shifted_path_matches_raw(self, rng, monkeypatch, height, width, fraction):
        # With the peak just below RAW_TOP the raw sums are largest (up to
        # e^639) and their shift cancels the most; RAW_TOP = 0 sends every call
        # down the shifted path.
        sh, sw = schedules("yarn", 16)
        mh, mw = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        feats = TokenFeatures(rng.standard_normal((height, width, 4)), rng.standard_normal((4, 32)))
        logit_scale = fraction * attention.RAW_TOP / peak_logit(feats, sh, sw, mh, mw)
        assert peak_logit(feats, sh, sw, mh, mw, logit_scale) <= attention.RAW_TOP
        raw = rotary_entropy(feats, sh, sw, mh, mw, logit_scale)[0]
        monkeypatch.setattr(attention, "RAW_TOP", 0.0)
        shifted = rotary_entropy(feats, sh, sw, mh, mw, logit_scale)[0]
        np.testing.assert_allclose(raw, shifted, rtol=1e-12, atol=0)

    def test_one_shifted_column_among_raw_ones(self, monkeypatch):
        # Token (3, 5)'s self-logit is 720, past RAW_TOP (a raw e^720 would
        # overflow), so its query column, one block of 8 x 8 tokens, must
        # shift. Every other self-logit is at most 40, so by Cauchy-Schwarz no
        # other row top passes sqrt(720 * 40) ~ 170, and those columns sum raw.
        height, width, dim = 8, 8, 8
        gen = np.random.default_rng(33)
        sh = make_schedule(dim, method="ntk", ratio=2.0)
        sw = make_schedule(dim, method="pi", ratio=1.5)
        x = gen.standard_normal((height * width, 2 * dim))
        logit_scale = 40.0 * np.sqrt(2 * dim) / np.max(np.sum(x**2, axis=1))
        big = 3 * width + 5
        x[big] *= np.sqrt(720.0 * np.sqrt(2 * dim) / logit_scale / np.sum(x[big] ** 2))
        tops = rotary_logits(x, height, width, sh.theta, sw.theta, logit_scale=logit_scale).max(axis=1)
        assert tops[big] > 709.79 and np.delete(tops, big).max() <= 170.0
        expected = np.array(decimal_entropy(rotated(x, height, width, sh, sw), logit_scale))
        mixed, _ = rotary_entropy(dense(x, height, width), sh, sw, logit_scale=logit_scale)
        np.testing.assert_allclose(mixed, expected, rtol=1e-12, atol=0)
        monkeypatch.setattr(attention, "RAW_TOP", 0.0)
        shifted, _ = rotary_entropy(dense(x, height, width), sh, sw, logit_scale=logit_scale)
        np.testing.assert_allclose(mixed, shifted, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("peak", [64.0, 126.72, 256.0, 634.0, 646.0, 768.0])
    def test_near_tie_rows_match_decimal_oracle(self, peak):
        # Tokens come in neighbouring pairs whose rotated features differ by
        # ~1e-4, so each row's top two logits nearly tie and S - t Z cancels.
        # logit_scale puts the largest self-logit at peak. Up to 634 every
        # block sums raw; from 646 the blocks with a row top past 640 shift
        # (RAW_TOP is 640, fixed here so that a changed bound moves no case),
        # and at 768 a raw e^l would overflow.
        height, width, dim = 6, 8, 8
        gen = np.random.default_rng(31)
        sh = make_schedule(dim, method="ntk", ratio=2.0)
        sw = make_schedule(dim, method="pi", ratio=1.5)
        pairs = np.repeat(gen.standard_normal((height * width // 2, 2 * dim)), 2, axis=0)
        want = pairs + 1e-4 * gen.standard_normal(pairs.shape)
        x = rotated_features(want, height, width, -sh.theta, -sw.theta)
        x_rot = rotated(x, height, width, sh, sw)
        logit_scale = peak * np.sqrt(2 * dim) / np.max(np.sum(x_rot**2, axis=1))
        expected = np.array(decimal_entropy(x_rot, logit_scale))
        per_row, _ = rotary_entropy(dense(x, height, width), sh, sw, logit_scale=logit_scale)
        rel = np.abs(per_row - expected) / np.maximum(np.abs(expected), 1e-300)
        assert rel.max() <= 1e-11, (rel.max(), expected[rel.argmax()])


class TestExactEntropy:
    """rotary_entropy against stdlib decimal on the same float64 features.

    The bound is 1e-11 relative, with a 1e-300 absolute floor for entropies
    that underflow. The logits' float64 rounding moves an entropy by ~1e-13
    relative. The earlier reduction, log Z - sum(e^l * l) / Z, cancelled on
    sharp rows and missed this bound by up to 2.6e-2 on these cases.
    """

    @pytest.mark.parametrize("height, width, dim, factor, logit_scale", [
        (7, 8, 8, 0.2, 0.5),  # flat: every entropy near log N
        (5, 7, 16, 1.0, 1.7),
        (5, 8, 8, 1.5, 4.0),
        (6, 8, 8, 2.0, 3.0),
        (8, 7, 16, 3.0, 1.3),
        (8, 8, 16, 4.0, 2.5),  # sharp: entropies down to ~1e-124
    ])
    def test_entropy_matches_decimal_oracle(self, height, width, dim, factor, logit_scale):
        gen = np.random.default_rng(100 * height + width + dim)
        sh = make_schedule(dim, method="ntk", ratio=2.0)
        sw = make_schedule(dim, method="pi", ratio=1.5)
        mh = factor * np.linspace(0.8, 1.2, dim // 2)
        mw = factor * np.linspace(1.2, 0.8, dim // 2)
        x = gen.standard_normal((height * width, 2 * dim))
        expected = np.array(decimal_entropy(rotated(x, height, width, sh, sw, mh, mw), logit_scale))
        per_row, _ = rotary_entropy(dense(x, height, width), sh, sw, mh, mw, logit_scale)
        rel = np.abs(per_row - expected) / np.maximum(np.abs(expected), 1e-300)
        assert rel.max() <= 1e-11, (rel.max(), expected[rel.argmax()])


class TestBlockedRotary:
    """rotary_entropy and rotary_attention_row against the dense oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(2, 12),
        st.sampled_from([4, 8, 16]),
        st.floats(0.1, 4.0),
    )
    @example(seed=7, height=24, width=25, dim=16, logit_scale=1.3)  # 600 tokens, 24 x 600 blocks
    @settings(max_examples=30, deadline=None)
    def test_entropy_matches_dense(self, seed, height, width, dim, logit_scale):
        gen = np.random.default_rng(seed)
        sh = make_schedule(dim, method="ntk", ratio=2.0)
        sw = make_schedule(dim, method="pi", ratio=1.5)
        mh, mw = gen.uniform(0.05, 3.0, dim // 2), gen.uniform(0.05, 3.0, dim // 2)
        feats = gen.standard_normal((height * width, 2 * dim))
        expected, expected_mean = dense_rotary(feats, height, width, sh, sw, mh, mw, logit_scale)
        per_row, mean = rotary_entropy(dense(feats, height, width), sh, sw, mh, mw, logit_scale)
        np.testing.assert_allclose(per_row, expected, rtol=0, atol=1e-12)
        assert abs(mean - expected_mean) <= 1e-12

    def test_rank_c_entropy_matches_dense(self, rng):
        # the real workload: C = 4 latent channels projected to D = 2 * dim
        sh, sw = schedules("ntk_strong", 32)
        mh, mw = rng.uniform(0.5, 2.0, 16), rng.uniform(0.5, 2.0, 16)
        tokens, proj = rng.standard_normal((27 * 31, 4)), rng.standard_normal((4, 64)) / 2.0
        expected, _ = dense_rotary(tokens @ proj, 27, 31, sh, sw, mh, mw, 1.3)
        feats = TokenFeatures(tokens.reshape(27, 31, 4), proj)
        per_row, _ = rotary_entropy(feats, sh, sw, mh, mw, 1.3)
        np.testing.assert_allclose(per_row, expected, rtol=0, atol=1e-12)

    def test_many_small_blocks_match_dense(self, rng, monkeypatch):
        # 7 rows per block on 24 x 25 tokens: each query column in parts of 7,
        # 7, 7 and 3 rows.
        monkeypatch.setattr(attention, "BLOCK_LOGITS", 7 * 600)
        sh, sw = make_schedule(8), make_schedule(8)
        feats = rng.standard_normal((600, 16))
        expected, _ = dense_rotary(feats, 24, 25, sh, sw, logit_scale=2.0)
        per_row, _ = rotary_entropy(dense(feats, 24, 25), sh, sw, logit_scale=2.0)
        np.testing.assert_allclose(per_row, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bound", [40, 50])
    def test_parts_within_blas_bounds_match_dense(self, rng, monkeypatch, bound):
        # Bounds far below every product of a 7 x 9, C = 3, dim 16 call: the pairs
        # GEMM and the per-row GEMM split into row parts of a few columns, the
        # right operand and the tables into row parts, and each row's dot into 7.
        # At 50 the per-row GEMM's 9 columns split 4 + 5, and two rows of the
        # narrower part fit where two of the wider (60) would not.
        monkeypatch.setattr(attention, "SERIAL_GEMM", bound)
        monkeypatch.setattr(attention, "SERIAL_DOT", 10)
        sh, sw = schedules("ntk_strong", 16)
        mh, mw = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        tokens, proj = rng.standard_normal((63, 3)), rng.standard_normal((3, 32))
        expected, _ = dense_rotary(tokens @ proj, 7, 9, sh, sw, mh, mw, 1.3)
        weights = dense_softmax(rotary_logits(tokens @ proj, 7, 9, sh.theta, sw.theta, mh, mw, 1.3))
        feats = TokenFeatures(tokens.reshape(7, 9, 3), proj)
        gemms, dots = record_products(monkeypatch)
        per_row, _ = rotary_entropy(feats, sh, sw, mh, mw, 1.3)
        np.testing.assert_allclose(per_row, expected, rtol=0, atol=1e-12)
        for query in (0, 40, 62):
            row = rotary_attention_row(feats, sh, sw, mh, mw, 1.3, query=divmod(query, 9))
            np.testing.assert_allclose(row, weights[query], rtol=0, atol=1e-12)
        assert 0 < max(gemms) <= bound
        assert sorted(set(dots)) == [9]

    @pytest.mark.parametrize("m, k, n", [(2, 32, 8193), (3, 64, 4097), (16, 16, 16385), (21, 16, 3040)])
    def test_every_part_is_within_serial_gemm(self, rng, monkeypatch, m, k, n):
        # Uneven column parts (the per-row GEMM of 2 x 8193 at C = 16 and of
        # 3 x 4097 at C = 32, the right operand of H = 16385 at C = 16), and
        # row parts alone (the pairs GEMM of 48 x 64 at C = 16).
        a, b = rng.standard_normal((2, m, k)), rng.standard_normal((2, k, n))
        gemms, _ = record_products(monkeypatch)
        product = attention._gemm(m, k, n)(a, b, np.empty((2, m, n)))
        assert m * k * n > attention.SERIAL_GEMM >= max(gemms)
        np.testing.assert_allclose(product, a @ b, rtol=1e-13, atol=1e-12)

    @given(st.integers(1, 60), st.integers(1, 25))
    def test_parts_are_the_fewest_near_equal_slices(self, length, most):
        parts = attention._parts(length, most)
        sizes = [part.stop - part.start for part in parts]
        assert parts[0].start == 0 and parts[-1].stop == length
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        assert len(parts) == -(-length // most)

    def test_numpy_state_is_the_callers(self, rng):
        # The caller's buffer size and error state are back on return and after
        # the overflow error, which huge tokens raise past the (finite) tables,
        # and no buffer size the caller set changes a bit, on the raw path or on
        # the shifted one. Every self-logit, and so every row top, is 350 at
        # logit scale 0.5 (raw) and 700 at 1 (shifted). Nor does a caller's
        # all="raise": 5x tokens push some e^l below float64's normal range,
        # and that underflow is rounding, which neither kernel raises.
        sh, sw = make_schedule(8), make_schedule(8)
        feats = TokenFeatures(rng.standard_normal((51, 51, 4)), rng.standard_normal((4, 16)))
        stretch = np.sqrt(700.0 / self_logits(feats, sh, sw))[..., None]
        feats = TokenFeatures(stretch * feats.tokens, feats.proj)
        assert attention.RAW_TOP < self_logits(feats, sh, sw).min()
        assert peak_logit(feats, sh, sw, logit_scale=0.5) <= attention.RAW_TOP
        results = []
        for bufsize in (16, 8192, 2**20):
            with np.errstate(over="raise", divide="raise"):
                saved = np.setbufsize(bufsize)
                try:
                    state = np.geterr()
                    results.append([rotary_entropy(feats, sh, sw, logit_scale=scale)[0]
                                    for scale in (0.5, 1.0)])
                    assert (np.getbufsize(), np.geterr()) == (bufsize, state)
                    with pytest.raises(ValueError, match="attention logits overflowed"):
                        rotary_entropy(TokenFeatures(1e160 * feats.tokens, feats.proj), sh, sw)
                    assert (np.getbufsize(), np.geterr()) == (bufsize, state)
                finally:
                    np.setbufsize(saved)
        for raw, shifted in results[1:]:
            assert np.array_equal(raw, results[0][0]) and np.array_equal(shifted, results[0][1])
        feats = TokenFeatures(5.0 * rng.standard_normal((8, 8, 4)), rng.standard_normal((4, 16)))
        for kernel in (lambda: rotary_entropy(feats, sh, sw)[0],
                       lambda: rotary_attention_row(feats, sh, sw, query=(1, 1))):
            expected = kernel()
            with np.errstate(all="raise"):
                state = np.geterr()
                assert np.array_equal(kernel(), expected)
                assert np.geterr() == state

    @pytest.mark.parametrize("path", ["raw", "shifted"])
    @pytest.mark.parametrize("height, width",
                             [(41, 25), (24, 25), (64, 64), (51, 51), (3, 50), (2, 2)])
    def test_block_size_moves_only_last_bits(self, rng, monkeypatch, height, width, path):
        # The block size decides which query rows share a GEMM (a one-row part
        # goes through gemv), and BLAS kernels may round those differently. So
        # one-row blocks, parts of 5 rows, the default and whole columns agree
        # within a bound, not bitwise: 1e-12 relative, two orders above the
        # logits' rounding. The peaks (138-498) take the raw path at the default
        # RAW_TOP, and RAW_TOP = 0 sends the same calls down the shifted one.
        n = height * width
        sh, sw = schedules("yarn", 16)
        mh, mw = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        feats = TokenFeatures(rng.standard_normal((height, width, 4)), rng.standard_normal((4, 32)))
        if path == "raw":
            assert peak_logit(feats, sh, sw, mh, mw, 1.5) <= attention.RAW_TOP
        else:
            monkeypatch.setattr(attention, "RAW_TOP", 0.0)
        results = []
        for block_logits in (n, 5 * n, attention.BLOCK_LOGITS, height * n):
            monkeypatch.setattr(attention, "BLOCK_LOGITS", block_logits)
            results.append(rotary_entropy(feats, sh, sw, mh, mw, 1.5)[0])
        for per_row in results[1:]:
            np.testing.assert_allclose(per_row, results[0], rtol=1e-12, atol=0)

    def test_attention_row_matches_dense(self, rng):
        sh = make_schedule(8, method="ntk_strong", ratio=2.0)
        sw = make_schedule(8, method="ntk_strong", ratio=2.0)
        mh, mw = rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        feats = rng.standard_normal((63, 16))
        x_rot = rotated(feats, 7, 9, sh, sw, mh, mw)
        weights = dense_softmax(1.7 * (x_rot @ x_rot.T) / np.sqrt(16))
        for query in (0, 31, 62):
            row = rotary_attention_row(
                dense(feats, 7, 9), sh, sw, mh, mw, 1.7, query=divmod(query, 9)
            )
            np.testing.assert_allclose(row, weights[query], rtol=0, atol=1e-12)

    def test_attention_row_is_its_entropy_row(self, rng):
        # rank-4 features on an odd grid: the row's weights, taken to an
        # entropy, give rotary_entropy's value for that query
        sh, sw = schedules("dype", 16)
        feats = TokenFeatures(rng.standard_normal((51, 13, 4)), rng.standard_normal((4, 32)))
        per_row, _ = rotary_entropy(feats, sh, sw, logit_scale=2.0)
        for query in (0, 1, 330, 51 * 13 - 1):
            row = rotary_attention_row(feats, sh, sw, logit_scale=2.0, query=divmod(query, 13))
            assert abs(-np.sum(row * np.log(row)) - per_row[query]) <= 1e-12

    def test_memory_stays_blocked(self, rng):
        # dense attention at 64 x 64 traces ~513 MiB; one 512 KiB logit block needs far less
        sh, sw = make_schedule(16), make_schedule(16)
        feats = dense(rng.standard_normal((4096, 32)), 64, 64)
        tracemalloc.start()
        try:
            rotary_entropy(feats, sh, sw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fn, bound_mib", [(rotary_entropy, 3), (rotary_attention_row, 1)])
    def test_memory_is_tables_plus_one_block(self, rng, fn, bound_mib):
        # At 64 x 64, D = 128 with C = 4 the tokens take 128 KiB and the tables
        # 16 KiB, so rotary_entropy holds one 512 KiB logit block and its 512 KiB
        # exp buffer and traces ~1.8 MiB (a 2 MiB block reduced in 512 KiB
        # slices traced 3.65 MiB), and the one row needs no block. Rotated
        # N x D keys alone would take 4 MiB.
        sh, sw = make_schedule(64), make_schedule(64)
        feats = TokenFeatures(rng.standard_normal((64, 64, 4)), rng.standard_normal((4, 128)))
        kw = {"query": (63, 63)} if fn is rotary_attention_row else {}
        tracemalloc.start()
        try:
            fn(feats, sh, sw, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("fn", [rotary_entropy, rotary_attention_row])
    def test_validation(self, rng, fn):
        sh, sw = make_schedule(8), make_schedule(8)
        x = rng.standard_normal((4, 4, 16))
        feats = TokenFeatures(x, np.eye(16))
        kw = {"query": (0, 3)} if fn is rotary_attention_row else {}
        bad = x.copy()
        bad[0, 2, 5] = np.nan
        bad_proj = np.eye(16)
        bad_proj[1, 1] = np.inf
        cases = [
            dict(feats=TokenFeatures(bad, np.eye(16))),
            dict(feats=TokenFeatures(x, bad_proj)),
            # 12 feature columns, schedules for 8 + 8
            dict(feats=TokenFeatures(x[:, :, :12], np.eye(12))),
            dict(feats=feats, logit_scale=0.0),
            dict(feats=feats, logit_scale=float("nan")),
            dict(feats=feats, logit_scale=1e308),  # logits overflow
            dict(feats=feats, scale_h=np.full(4, 1e300), scale_w=np.ones(4)),  # tables overflow
            dict(feats=feats, scale_h=np.ones(3)),
            dict(feats=feats, scale_w=-np.ones(4)),
        ]
        for case in cases:
            with pytest.raises(ValueError):
                fn(sched_h=sh, sched_w=sw, **case, **kw)

    @pytest.mark.parametrize("query", [(-1, 0), (3, 0), (0, -1), (0, 5), (1, 5)])
    def test_row_refuses_a_query_outside_the_grid(self, query):
        # flattened, (0, 5) and (1, 5) fall inside the 15 tokens, so each axis is checked
        sh, sw = make_schedule(8), make_schedule(8)
        with pytest.raises(ValueError, match="outside the 3x5 token grid"):
            rotary_attention_row(dense(np.ones((15, 16)), 3, 5), sh, sw, query=query)

    def test_uniform_and_one_hot_limits(self):
        sh, sw = make_schedule(4), make_schedule(4)
        per_row, mean = rotary_entropy(dense(np.zeros((9, 8)), 3, 3), sh, sw)
        np.testing.assert_allclose(per_row, math.log(9), rtol=0, atol=1e-15)
        # orthogonal, large features: every row attends to itself alone
        per_row, _ = rotary_entropy(dense(100.0 * np.eye(9, 8), 3, 3), sh, sw, logit_scale=50.0)
        assert np.all(per_row[:8] >= 0) and np.all(per_row[:8] < 1e-12)
