"""Frequency schedules, extrapolation variants, and rotation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sega import (
    YarnParams,
    apply_rotary,
    axial_rotary,
    base_frequencies,
    dype_ratio,
    make_schedule,
    ntk_base,
    pi_frequencies,
    yarn_frequencies,
    yarn_ramp,
    yarn_temperature,
)
from oracles import ntk_base_direct, temperature_direct, yarn_theta_direct


class TestBaseFrequencies:
    def test_first_frequency_is_one(self):
        for dim in (2, 8, 64):
            assert base_frequencies(dim, 10000.0)[0] == 1.0

    def test_dim4(self):
        np.testing.assert_allclose(base_frequencies(4, 10000.0), [1.0, 0.01], rtol=1e-12)

    def test_dim8_third_entry(self):
        theta = base_frequencies(8, 10000.0)
        assert math.isclose(theta[3], 10000.0 ** (-0.75), rel_tol=1e-12)

    def test_rejects_odd_dim_and_bad_base(self):
        with pytest.raises(ValueError):
            base_frequencies(5, 10000.0)
        with pytest.raises(ValueError):
            base_frequencies(8, -1.0)


class TestPi:
    def test_identity_at_ratio_one(self):
        theta = base_frequencies(8, 10000.0)
        np.testing.assert_array_equal(pi_frequencies(theta, 1.0), theta)

    def test_direct_division(self):
        np.testing.assert_allclose(pi_frequencies(np.array([1.0, 0.01]), 2.0), [0.5, 0.005])

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            pi_frequencies(np.array([1.0]), 0.5)

    def test_index_equivalence(self, rng):
        # rotating at n with theta/s == rotating at n/s with theta
        dim, s = 16, 4.0
        sched = make_schedule("H", dim, method="none")
        sched_pi = make_schedule("H", dim, method="pi", ratio=s)
        for n in range(0, 64):
            x = rng.standard_normal(dim)
            a = apply_rotary(x, float(n), sched_pi)
            b = apply_rotary(x, n / s, sched)
            np.testing.assert_allclose(a, b, atol=1e-5)


class TestNtk:
    def test_ratio_one_keeps_base(self):
        assert ntk_base(10000.0, 1.0, 64) == 10000.0

    def test_standard_value(self):
        got = ntk_base(10000.0, 4.0, 64, strong=False)
        assert math.isclose(got, 10000.0 * 4 ** (64 / 62), rel_tol=1e-12)
        assert 41825 < got < 41835
        assert math.isclose(got, ntk_base_direct(10000.0, 4.0, 64, False), rel_tol=1e-12)

    def test_strong_value(self):
        got = ntk_base(10000.0, 4.0, 64, strong=True)
        assert math.isclose(got, 10000.0 * 4 ** (128 / 62), rel_tol=1e-12)
        assert math.isclose(got, ntk_base_direct(10000.0, 4.0, 64, True), rel_tol=1e-12)

    def test_first_dim_unchanged_by_base(self):
        for method in ("ntk", "ntk_strong"):
            sched = make_schedule("H", 64, method=method, ratio=8.0)
            assert sched.theta[0] == 1.0

    def test_rejects_dim_two(self):
        with pytest.raises(ValueError):
            ntk_base(10000.0, 2.0, 2)

    @pytest.mark.parametrize("ratio, strong", [(1e300, False), (1e200, True), (1e298, False)])
    def test_overflow_is_a_value_error(self, ratio, strong):
        # ratio**exponent raises OverflowError, or the product with base is inf
        with pytest.raises(ValueError, match="overflows"):
            ntk_base(10000.0, ratio, 64, strong=strong)


class TestYarn:
    PARAMS = YarnParams(alpha=1.0, beta=32.0, train_len=64.0)

    def test_ramp_boundaries(self):
        p = self.PARAMS
        assert yarn_ramp(p.alpha / 2, p) == 0.0
        assert yarn_ramp(2 * p.beta, p) == 1.0
        assert yarn_ramp((p.alpha + p.beta) / 2, p) == 0.5

    def test_all_interpolated_matches_pi(self):
        # every wavelength below alpha * train_len -> lambda = 0 -> theta/s
        theta = base_frequencies(8, 10.0)  # wavelengths 6.3 .. 35, all < 64
        params = YarnParams(alpha=1.0, beta=2.0, train_len=64.0)
        np.testing.assert_allclose(
            yarn_frequencies(theta, 4.0, params), pi_frequencies(theta, 4.0), rtol=1e-12
        )

    def test_all_extrapolated_matches_base(self):
        theta = base_frequencies(8, 10.0)
        params = YarnParams(alpha=0.01, beta=0.05, train_len=64.0)  # all r above beta
        np.testing.assert_allclose(yarn_frequencies(theta, 4.0, params), theta, rtol=1e-12)

    def test_mixed_blend_matches_hand_value(self):
        theta = base_frequencies(8, 10000.0)
        params = YarnParams(alpha=1.0, beta=32.0, train_len=64.0)
        got = yarn_frequencies(theta, 4.0, params)
        for d in range(4):
            expected = yarn_theta_direct(theta[d], 4.0, 1.0, 32.0, 64.0)
            assert math.isclose(got[d], expected, rel_tol=1e-12)

    def test_frequencies_bracketed(self):
        theta = base_frequencies(64, 10000.0)
        for s in (1.0, 2.0, 8.0, 32.0):
            got = yarn_frequencies(theta, s, self.PARAMS)
            assert np.all(got <= theta + 1e-15)
            assert np.all(got >= theta / s - 1e-15)

    def test_temperature(self):
        assert yarn_temperature(1.0) == 1.0
        assert math.isclose(yarn_temperature(4.0), 1 + 0.1 * math.log(4), rel_tol=1e-12)
        assert math.isclose(yarn_temperature(32.0), temperature_direct(32.0), rel_tol=1e-12)
        with pytest.raises(ValueError):
            yarn_temperature(0.5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            YarnParams(alpha=2.0, beta=1.0, train_len=64.0)


class TestDype:
    def test_endpoints(self):
        assert dype_ratio(4.0, 1.0) == 1.0
        assert dype_ratio(4.0, 0.0) == 4.0

    def test_midpoint(self):
        assert dype_ratio(4.0, 0.5, 1.0) == 2.5

    def test_schedule_endpoints_match_none_and_ntk(self):
        base = make_schedule("H", 32, method="none")
        full = make_schedule("H", 32, method="ntk", ratio=4.0)
        early = make_schedule("H", 32, method="dype", ratio=4.0, dype_time=1.0)
        late = make_schedule("H", 32, method="dype", ratio=4.0, dype_time=0.0)
        np.testing.assert_allclose(early.theta, base.theta, rtol=1e-12)
        np.testing.assert_allclose(late.theta, full.theta, rtol=1e-12)

    def test_time_domain_checked(self):
        with pytest.raises(ValueError):
            dype_ratio(4.0, 1.5)


class TestApplyRotary:
    def test_zero_position_identity(self, rng):
        sched = make_schedule("H", 8)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(apply_rotary(x, 0.0, sched), x, atol=1e-15)

    def test_quarter_turn(self):
        # one subspace at angle pi/2 maps (1, 0) to (0, 1)
        sched = make_schedule("H", 2, base=1.0)  # theta = [1]
        out = apply_rotary(np.array([1.0, 0.0]), np.pi / 2, sched)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_scale_doubles_subspace_norm(self, rng):
        sched = make_schedule("H", 8)
        x = rng.standard_normal(8)
        out = apply_rotary(x, 3.0, sched, scale=np.full(4, 2.0))
        for d in range(4):
            pair = slice(2 * d, 2 * d + 2)
            assert math.isclose(
                np.linalg.norm(out[pair]), 2.0 * np.linalg.norm(x[pair]), rel_tol=1e-12
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved_without_scaling(self, seed):
        gen = np.random.default_rng(seed)
        sched = make_schedule("H", 16)
        x = gen.standard_normal(16)
        out = apply_rotary(x, float(gen.integers(0, 512)), sched)
        for d in range(8):
            pair = slice(2 * d, 2 * d + 2)
            a, b = np.linalg.norm(x[pair]), np.linalg.norm(out[pair])
            assert abs(a - b) <= 1e-6 * max(a, 1e-12)

    def test_rejects_bad_scale(self, rng):
        sched = make_schedule("H", 8)
        with pytest.raises(ValueError):
            apply_rotary(rng.standard_normal(8), 1.0, sched, scale=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            apply_rotary(rng.standard_normal(6), 1.0, sched)

    def test_relative_position_property(self, rng):
        sched = make_schedule("H", 16)
        for _ in range(100):
            q, k = rng.standard_normal(16), rng.standard_normal(16)
            n, m = rng.integers(0, 128), rng.integers(0, 128)
            lhs = np.dot(apply_rotary(q, float(n), sched), apply_rotary(k, float(m), sched))
            rhs = np.dot(apply_rotary(q, float(n - m), sched), k)
            assert abs(lhs - rhs) < 1e-5


class TestAxialRotary:
    def test_origin_identity(self, rng):
        sh = make_schedule("H", 8)
        sw = make_schedule("W", 8)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(axial_rotary(x, 0, 0, sh, sw), x, atol=1e-15)

    def test_zero_half_stays_zero(self, rng):
        sh = make_schedule("H", 8)
        sw = make_schedule("W", 8)
        x = np.concatenate([rng.standard_normal(8), np.zeros(8)])
        out = axial_rotary(x, 3, 5, sh, sw)
        np.testing.assert_array_equal(out[8:], 0.0)

    def test_per_axis_relative_property(self, rng):
        sh = make_schedule("H", 8)
        sw = make_schedule("W", 8)
        for _ in range(50):
            q, k = rng.standard_normal(16), rng.standard_normal(16)
            h1, h2 = rng.integers(0, 6, 2)
            w1, w2 = rng.integers(0, 6, 2)
            lhs = np.dot(axial_rotary(q, h1, w1, sh, sw), axial_rotary(k, h2, w2, sh, sw))
            rhs = np.dot(axial_rotary(q, int(h1) - int(h2), int(w1) - int(w2), sh, sw), k)
            assert abs(lhs - rhs) < 1e-5

    def test_dimension_mismatch(self, rng):
        sh = make_schedule("H", 8)
        sw = make_schedule("W", 8)
        with pytest.raises(ValueError):
            axial_rotary(rng.standard_normal(12), 0, 0, sh, sw)


class TestScheduleInvariants:
    @pytest.mark.parametrize("method", ["none", "pi", "ntk", "ntk_strong", "dype"])
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 8.0, 32.0])
    def test_monotone_non_increasing(self, method, ratio):
        sched = make_schedule("H", 64, method=method, ratio=ratio, dype_time=0.25)
        assert np.all(np.diff(sched.theta) <= 1e-15)

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 8.0, 16.0, 32.0])
    def test_yarn_monotone_at_default_ramp(self, ratio):
        # Holds for the default wide ramp at dim >= 32; narrow ramps with
        # large ratios can locally reorder frequencies (see design notes).
        yarn = YarnParams(alpha=1.0, beta=32.0, train_len=64.0)
        sched = make_schedule("H", 64, method="yarn", ratio=ratio, yarn=yarn)
        assert np.all(np.diff(sched.theta) <= 1e-15)

    def test_all_schedules_positive(self):
        yarn = YarnParams(alpha=1.0, beta=32.0, train_len=64.0)
        for method in ("none", "pi", "ntk", "ntk_strong", "yarn", "dype"):
            sched = make_schedule("H", 32, method=method, ratio=4.0, yarn=yarn, dype_time=0.5)
            assert np.all(sched.theta > 0)
