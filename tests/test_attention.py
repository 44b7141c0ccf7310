"""Attention contracts: stochasticity, entropy bounds, rotary composition.

The library has one attention path, the blocked one; ``oracles.dense_entropy``
and ``oracles.dense_softmax`` form the full N x N matrix it is checked against.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sega import LatentGrid, axial_rotary, grid_positions, make_schedule, token_features
from sega import attention
from sega.attention import rotary_attention_row, rotary_entropy
from oracles import dense_entropy, dense_softmax


def rotated(feats, pos, sh, sw, mh=None, mw=None):
    return axial_rotary(feats, pos[:, 0], pos[:, 1], sh, sw, mh, mw)


def all_rows(feats, pos, sh, sw, mh=None, mw=None, logit_scale=1.0):
    return np.stack([
        rotary_attention_row(feats, pos, sh, sw, mh, mw, logit_scale, query=q)
        for q in range(len(pos))
    ])


class TestAttend:
    """One query's weight row, and the oracle softmax it is compared with."""

    def test_zero_queries_give_uniform_attention(self):
        sh, sw = make_schedule("H", 4), make_schedule("W", 4)
        weights = all_rows(np.zeros((15, 8)), grid_positions(3, 5), sh, sw)
        np.testing.assert_allclose(weights, 1.0 / 15, atol=1e-12)

    def test_hand_two_by_two(self):
        # logits [[0, ln 3], [0, 0]] -> row 0 weights [0.25, 0.75]
        weights = dense_softmax(np.array([[0.0, math.log(3.0)], [0.0, 0.0]]))
        np.testing.assert_allclose(weights[0], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(weights[1], [0.5, 0.5], atol=1e-12)

    def test_unit_scale_matches_unscaled_definition(self, rng):
        sh, sw = make_schedule("H", 4), make_schedule("W", 4)
        pos = grid_positions(2, 3)
        feats = rng.standard_normal((6, 8))
        x_rot = rotated(feats, pos, sh, sw)
        expected = dense_softmax((x_rot @ x_rot.T) / np.sqrt(8))
        np.testing.assert_allclose(all_rows(feats, pos, sh, sw, logit_scale=1.0), expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_stochastic(self, seed):
        gen = np.random.default_rng(seed)
        sh, sw = make_schedule("H", 4), make_schedule("W", 4)
        weights = all_rows(gen.normal(0, 5, (7, 8)), grid_positions(1, 7), sh, sw)
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
        self.sh = make_schedule("H", 8)
        self.sw = make_schedule("W", 8)
        self.pos = grid_positions(4, 4)

    def test_unit_scaling_matches_plain_rope(self, rng):
        feats = rng.standard_normal((16, 16))
        ones = np.ones(4)
        h1, mean1 = rotary_entropy(feats, self.pos, self.sh, self.sw)
        h2, mean2 = rotary_entropy(feats, self.pos, self.sh, self.sw, ones, ones)
        np.testing.assert_array_equal(h1, h2)
        assert mean1 == mean2
        np.testing.assert_array_equal(
            all_rows(feats, self.pos, self.sh, self.sw),
            all_rows(feats, self.pos, self.sh, self.sw, ones, ones),
        )

    def test_constant_scale_squares_into_logits(self, rng):
        feats = rng.standard_normal((16, 16))
        c = 1.7
        w1 = all_rows(feats, self.pos, self.sh, self.sw)
        scale = np.full(4, c)
        w2 = all_rows(feats, self.pos, self.sh, self.sw, scale, scale)
        expected = dense_softmax(c**2 * np.log(w1))
        np.testing.assert_allclose(w2, expected, atol=1e-8)

    def test_relative_offset_determines_logits(self):
        # constant q = k field: rotary inner products depend only on the 2D offset,
        # and every self logit is |x|^2 / sqrt(D), so log(w[i, j] / w[i, i]) does too
        log_w = np.log(all_rows(np.ones((16, 16)), self.pos, self.sh, self.sw))
        logits = log_w - np.diag(log_w)[:, None]
        seen = {}
        for i, (hi, wi) in enumerate(self.pos):
            for j, (hj, wj) in enumerate(self.pos):
                key = (hi - hj, wi - wj)
                if key in seen:
                    assert abs(logits[i, j] - seen[key]) < 1e-5
                else:
                    seen[key] = logits[i, j]

    def test_positions_must_cover_tokens(self, rng):
        feats = rng.standard_normal((16, 16))
        with pytest.raises(ValueError):
            rotary_entropy(feats, self.pos[:8], self.sh, self.sw)
        with pytest.raises(ValueError):
            rotary_attention_row(feats, self.pos[:8], self.sh, self.sw, query=0)


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
        sh, sw = make_schedule("H", 2), make_schedule("W", 2)
        per_row, mean = rotary_entropy(gen.normal(0, 4, (n, 4)), grid_positions(1, n), sh, sw)
        assert np.all(per_row >= -1e-12)
        assert np.all(per_row <= math.log(n) + 1e-9)
        assert -1e-12 <= mean <= math.log(n) + 1e-9


def dense_rotary(feats, pos, sh, sw, mh=None, mw=None, logit_scale=1.0):
    return dense_entropy(rotated(feats, pos, sh, sw, mh, mw), logit_scale)


class TestBlockedRotary:
    """rotary_entropy and rotary_attention_row against the dense oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(2, 12),
        st.sampled_from([4, 8, 16]),
        st.floats(0.1, 4.0),
    )
    @example(seed=7, height=24, width=25, dim=16, logit_scale=1.3)  # 600 tokens: blocks of 436 + 164
    @settings(max_examples=30, deadline=None)
    def test_entropy_matches_dense(self, seed, height, width, dim, logit_scale):
        gen = np.random.default_rng(seed)
        sh = make_schedule("H", dim, method="ntk", ratio=2.0)
        sw = make_schedule("W", dim, method="pi", ratio=1.5)
        mh, mw = gen.uniform(0.05, 3.0, dim // 2), gen.uniform(0.05, 3.0, dim // 2)
        feats = gen.standard_normal((height * width, 2 * dim))
        pos = grid_positions(height, width)
        dense, dense_mean = dense_rotary(feats, pos, sh, sw, mh, mw, logit_scale)
        per_row, mean = rotary_entropy(feats, pos, sh, sw, mh, mw, logit_scale)
        np.testing.assert_allclose(per_row, dense, rtol=0, atol=1e-12)
        assert abs(mean - dense_mean) <= 1e-12

    def test_many_small_blocks_match_dense(self, rng, monkeypatch):
        # 7 rows per block on 24 x 25 tokens: 85 full blocks and a last one of 5
        # rows. Queries are rotated 3 blocks at a time (a last chunk of 12 rows)
        # and keys 42 rows at a time (a last chunk of 12 rows).
        monkeypatch.setattr(attention, "BLOCK_LOGITS", 7 * 600)
        monkeypatch.setattr(attention, "REDUCE_LOGITS", 42 * 16)
        sh, sw = make_schedule("H", 8), make_schedule("W", 8)
        feats = rng.standard_normal((600, 16))
        pos = grid_positions(24, 25)
        dense, _ = dense_rotary(feats, pos, sh, sw, logit_scale=2.0)
        per_row, _ = rotary_entropy(feats, pos, sh, sw, logit_scale=2.0)
        np.testing.assert_allclose(per_row, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("height, width", [(24, 25), (64, 64)])
    def test_reduction_slices_are_bitwise_equal(self, rng, monkeypatch, height, width):
        # Every row takes the same operations in the same order whatever the
        # reduction slice, so one-row slices, the default and whole blocks agree
        # exactly, not within a tolerance.
        n = height * width
        sh = make_schedule("H", 16, method="ntk", ratio=2.0)
        sw = make_schedule("W", 16, method="pi", ratio=1.5)
        mh, mw = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        feats = rng.standard_normal((n, 32))
        pos = grid_positions(height, width)
        results = []
        for reduce_logits in (n, attention.REDUCE_LOGITS, n * n):
            monkeypatch.setattr(attention, "REDUCE_LOGITS", reduce_logits)
            results.append(rotary_entropy(feats, pos, sh, sw, mh, mw, 1.5))
        (one_row, one_mean), *others = results
        for per_row, mean in others:
            assert np.array_equal(per_row, one_row)
            assert mean == one_mean

    def test_attention_row_matches_dense(self, rng):
        sh = make_schedule("H", 8, method="ntk_strong", ratio=2.0)
        sw = make_schedule("W", 8, method="ntk_strong", ratio=2.0)
        mh, mw = rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        feats = rng.standard_normal((63, 16))
        pos = grid_positions(7, 9)
        x_rot = rotated(feats, pos, sh, sw, mh, mw)
        weights = dense_softmax(1.7 * (x_rot @ x_rot.T) / np.sqrt(16))
        for query in (0, 31, 62):
            row = rotary_attention_row(feats, pos, sh, sw, mh, mw, 1.7, query=query)
            np.testing.assert_allclose(row, weights[query], rtol=0, atol=1e-12)

    def test_attention_row_bits_are_the_transposed_key_product(self, rng):
        # A one-row product goes through BLAS gemv, whose last bits depend on
        # the key layout: the keys are x_rot.T * c, x_rot row-major. Printed to
        # 9 digits the rows rarely show it, so compare bits here.
        sh = make_schedule("H", 16, method="ntk", ratio=2.0)
        sw = make_schedule("W", 16, method="pi", ratio=1.5)
        mh, mw = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        feats = rng.standard_normal((51 * 51, 32))
        pos = grid_positions(51, 51)
        x_rot = rotated(feats, pos, sh, sw, mh, mw)
        keys = x_rot.T * (1.3 / np.sqrt(32))
        for query in (0, 1300, 2600):
            logits = x_rot[query] @ keys
            e = np.exp(logits - logits.max())
            row = rotary_attention_row(feats, pos, sh, sw, mh, mw, 1.3, query=query)
            assert np.array_equal(row, e / e.sum())

    @pytest.mark.parametrize("height, width", [(51, 51), (41, 25), (26, 52)])
    def test_lazy_features_give_the_dense_bits(self, rng, height, width):
        # At D = 128 keys are rotated 512 rows at a time, so N = 41 * 25 = 1025
        # leaves a one-row key chunk; query rows are rotated 200 at a time at
        # 51 x 51 and 193 at a time at 26 x 52, each leaving a one-row chunk.
        grid = LatentGrid.from_array(rng.standard_normal((height, width, 4)))
        lazy = token_features(grid, 128, seed=3, step=1)
        dense = np.asarray(lazy)
        pos = grid_positions(height, width)
        sh = make_schedule("H", 64, method="ntk_strong", ratio=2.0)
        sw = make_schedule("W", 64, method="ntk_strong", ratio=2.0)
        mh, mw = rng.uniform(0.5, 2.0, 32), rng.uniform(0.5, 2.0, 32)
        per_row, mean = rotary_entropy(lazy, pos, sh, sw, mh, mw, 1.3)
        dense_row, dense_mean = rotary_entropy(dense, pos, sh, sw, mh, mw, 1.3)
        assert np.array_equal(per_row, dense_row)
        assert mean == dense_mean
        n = height * width
        for query in (0, 1, n // 2, n - 1):
            rows = [rotary_attention_row(x, pos, sh, sw, mh, mw, 1.3, query=query) for x in (lazy, dense)]
            assert np.array_equal(*rows)

    def test_memory_stays_blocked(self, rng):
        # dense attention at 64 x 64 traces ~513 MiB; one 2 MiB logit block needs far less
        sh, sw = make_schedule("H", 16), make_schedule("W", 16)
        feats = rng.standard_normal((4096, 32))
        pos = grid_positions(64, 64)
        tracemalloc.start()
        try:
            rotary_entropy(feats, pos, sh, sw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fn, bound_mib", [(rotary_entropy, 8), (rotary_attention_row, 7)])
    def test_memory_is_keys_plus_one_block(self, rng, fn, bound_mib):
        # at 64 x 64, D = 128 the keys take 4 MiB and one logit block 2 MiB; a
        # full copy of the rotated features or full-size rotary temporaries
        # (12.5 and 11.1 MiB peaks) would not fit
        sh, sw = make_schedule("H", 64), make_schedule("W", 64)
        feats = rng.standard_normal((4096, 128))
        pos = grid_positions(64, 64)
        kw = {"query": 4095} if fn is rotary_attention_row else {}
        tracemalloc.start()
        try:
            fn(feats, pos, sh, sw, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("fn", [rotary_entropy, rotary_attention_row])
    def test_validation(self, rng, fn):
        sh, sw = make_schedule("H", 8), make_schedule("W", 8)
        feats = rng.standard_normal((16, 16))
        pos = grid_positions(4, 4)
        kw = {"query": 3} if fn is rotary_attention_row else {}
        bad = feats.copy()
        bad[2, 5] = np.nan
        cases = [
            dict(x=bad, positions=pos),
            dict(x=feats, positions=pos[:8]),
            dict(x=feats, positions=pos[:, :1]),
            dict(x=feats, positions=pos, logit_scale=0.0),
            dict(x=feats, positions=pos, logit_scale=float("nan")),
            dict(x=feats, positions=pos, logit_scale=1e308),  # logits overflow
            dict(x=feats, positions=pos, scale_h=np.full(4, 1e300), scale_w=np.ones(4)),
        ]
        for case in cases:
            with pytest.raises(ValueError):
                fn(sched_h=sh, sched_w=sw, **case, **kw)
        if fn is rotary_attention_row:
            with pytest.raises(ValueError):
                fn(feats, pos, sh, sw, query=16)

    def test_uniform_and_one_hot_limits(self):
        sh, sw = make_schedule("H", 4), make_schedule("W", 4)
        pos = grid_positions(3, 3)
        per_row, mean = rotary_entropy(np.zeros((9, 8)), pos, sh, sw)
        np.testing.assert_allclose(per_row, math.log(9), rtol=0, atol=1e-15)
        # orthogonal, large features: every row attends to itself alone
        per_row, _ = rotary_entropy(100.0 * np.eye(9, 8), pos[:9], sh, sw, logit_scale=50.0)
        assert np.all(per_row[:8] >= 0) and np.all(per_row[:8] < 1e-12)
