"""Attention contracts: stochasticity, entropy bounds, rotary composition."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sega import (
    AttentionField,
    attend,
    attend_rotary,
    attention_entropy,
    entropy_delta,
    grid_positions,
    make_schedule,
)
from sega import attention
from sega.attention import rotary_attention_row, rotary_entropy, softmax_rows


def uniform_field(n):
    return AttentionField(np.full((n, n), 1.0 / n))


class TestAttend:
    def test_zero_queries_give_uniform_attention(self, rng):
        n, d = 5, 4
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        out, field = attend(np.zeros((n, d)), k, v)
        np.testing.assert_allclose(field.weights, 1.0 / n, atol=1e-12)
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=0), (n, d)), atol=1e-12)

    def test_hand_two_by_two(self):
        # logits [[0, ln 3], [0, 0]] -> row 0 weights [0.25, 0.75]
        q = np.array([[1.0], [0.0]])
        k = np.array([[0.0], [math.log(3.0)]])
        v = np.eye(2)
        _, field = attend(q, k, v, logit_scale=1.0)
        np.testing.assert_allclose(field.weights[0], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(field.weights[1], [0.5, 0.5], atol=1e-12)

    def test_unit_scale_matches_unscaled_definition(self, rng):
        q = rng.standard_normal((6, 8))
        k = rng.standard_normal((6, 8))
        v = rng.standard_normal((6, 8))
        _, field = attend(q, k, v, logit_scale=1.0)
        expected = softmax_rows((q @ k.T) / np.sqrt(8))
        np.testing.assert_allclose(field.weights, expected, atol=1e-12)

    def test_shape_and_finiteness_errors(self, rng):
        with pytest.raises(ValueError):
            attend(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        bad = rng.standard_normal((4, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            attend(bad, rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_stochastic(self, seed):
        gen = np.random.default_rng(seed)
        q = gen.normal(0, 5, (7, 6))
        k = gen.normal(0, 5, (7, 6))
        _, field = attend(q, k, gen.standard_normal((7, 6)))
        assert np.max(np.abs(field.weights.sum(axis=1) - 1.0)) < 1e-5
        assert np.all(field.weights >= 0)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(0, 3, (5, 9))
        a = softmax_rows(logits)
        b = softmax_rows(logits + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestAttendRotary:
    def setup_method(self):
        self.sh = make_schedule("H", 8)
        self.sw = make_schedule("W", 8)
        self.pos = grid_positions(4, 4)

    def test_unit_scaling_matches_plain_rope(self, rng):
        feats = rng.standard_normal((16, 16))
        out1, f1 = attend_rotary(feats, feats, feats, self.pos, self.sh, self.sw)
        ones = np.ones(4)
        out2, f2 = attend_rotary(feats, feats, feats, self.pos, self.sh, self.sw, ones, ones)
        np.testing.assert_array_equal(f1.weights, f2.weights)
        np.testing.assert_array_equal(out1, out2)

    def test_constant_scale_squares_into_logits(self, rng):
        feats = rng.standard_normal((16, 16))
        c = 1.7
        _, f1 = attend_rotary(feats, feats, feats, self.pos, self.sh, self.sw)
        scale = np.full(4, c)
        _, f2 = attend_rotary(feats, feats, feats, self.pos, self.sh, self.sw, scale, scale)
        logits1 = np.log(f1.weights)
        expected = softmax_rows(c**2 * logits1)
        np.testing.assert_allclose(f2.weights, expected, atol=1e-8)

    def test_relative_offset_determines_logits(self):
        # constant q = k field: rotary inner products depend only on the 2D offset
        from sega import axial_rotary

        x = np.ones(16)
        rot = np.stack([axial_rotary(x, h, w, self.sh, self.sw) for h, w in self.pos])
        logits = rot @ rot.T
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
            attend_rotary(feats, feats, feats, self.pos[:8], self.sh, self.sw)


class TestEntropy:
    def test_uniform_row_hits_log_n(self):
        per_row, mean = attention_entropy(uniform_field(7))
        np.testing.assert_allclose(per_row, math.log(7), atol=1e-12)
        assert math.isclose(mean, math.log(7), rel_tol=1e-12)

    def test_one_hot_row_is_zero(self):
        per_row, _ = attention_entropy(AttentionField(np.eye(5)))
        np.testing.assert_allclose(per_row, 0.0, atol=1e-15)

    def test_half_half_row(self):
        w = np.zeros((1, 4))
        w[0, 0] = w[0, 1] = 0.5
        per_row, _ = attention_entropy(AttentionField(w))
        assert math.isclose(per_row[0], math.log(2), rel_tol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed, n):
        gen = np.random.default_rng(seed)
        _, field = attend(
            gen.normal(0, 4, (n, 3)), gen.normal(0, 4, (n, 3)), gen.standard_normal((n, 3))
        )
        per_row, mean = attention_entropy(field)
        assert np.all(per_row >= -1e-12)
        assert np.all(per_row <= math.log(n) + 1e-9)
        assert -1e-12 <= mean <= math.log(n) + 1e-9

    def test_delta_zero_for_same_field(self):
        f = uniform_field(6)
        assert entropy_delta(f, f) == 0.0

    def test_delta_uniform_vs_onehot(self):
        assert math.isclose(
            entropy_delta(uniform_field(9), AttentionField(np.eye(4))), math.log(9), rel_tol=1e-12
        )

    def test_delta_sign_convention(self):
        diffuse = uniform_field(8)
        sharp = AttentionField(np.eye(8))
        assert entropy_delta(diffuse, sharp) > 0
        assert entropy_delta(sharp, diffuse) < 0

    def test_field_validation(self):
        with pytest.raises(ValueError):
            AttentionField(np.array([[0.7, 0.7], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            AttentionField(np.array([[1.2, -0.2], [0.5, 0.5]]))


def dense_rotary(feats, pos, sh, sw, mh=None, mw=None, logit_scale=1.0):
    return attend_rotary(feats, feats, feats, pos, sh, sw, mh, mw, logit_scale)[1]


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
        dense, dense_mean = attention_entropy(dense_rotary(feats, pos, sh, sw, mh, mw, logit_scale))
        per_row, mean = rotary_entropy(feats, pos, sh, sw, mh, mw, logit_scale)
        np.testing.assert_allclose(per_row, dense, rtol=0, atol=1e-12)
        assert abs(mean - dense_mean) <= 1e-12

    def test_many_small_blocks_match_dense(self, rng, monkeypatch):
        # 7 rows per block on 24 x 25 tokens: 85 full blocks and a last one of 5 rows
        monkeypatch.setattr(attention, "BLOCK_LOGITS", 7 * 600)
        sh, sw = make_schedule("H", 8), make_schedule("W", 8)
        feats = rng.standard_normal((600, 16))
        pos = grid_positions(24, 25)
        dense, _ = attention_entropy(dense_rotary(feats, pos, sh, sw, logit_scale=2.0))
        per_row, _ = rotary_entropy(feats, pos, sh, sw, logit_scale=2.0)
        np.testing.assert_allclose(per_row, dense, rtol=0, atol=1e-12)

    def test_attention_row_matches_dense(self, rng):
        sh = make_schedule("H", 8, method="ntk_strong", ratio=2.0)
        sw = make_schedule("W", 8, method="ntk_strong", ratio=2.0)
        mh, mw = rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        feats = rng.standard_normal((63, 16))
        pos = grid_positions(7, 9)
        weights = dense_rotary(feats, pos, sh, sw, mh, mw, 1.7).weights
        for query in (0, 31, 62):
            row = rotary_attention_row(feats, pos, sh, sw, mh, mw, 1.7, query=query)
            np.testing.assert_allclose(row, weights[query], rtol=0, atol=1e-12)

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
