"""Sanity checks on the reference implementations themselves."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sega import make_schedule
from oracles import (
    REFERENCE_SCALE_TABLE,
    OracleReport,
    decimal_entropy,
    dense_entropy,
    naive_dft2,
    reference_scale_direct,
    relative_position_reports,
    rotate_tokens,
)


class TestNaiveDft:
    def test_impulse_gives_constant_spectrum(self):
        m = np.zeros((6, 5))
        m[0, 0] = 1.0
        np.testing.assert_allclose(naive_dft2(m), np.ones((6, 5), dtype=complex), atol=1e-12)

    def test_matches_fft_on_random_grid(self, rng):
        m = rng.standard_normal((8, 8))
        np.testing.assert_allclose(naive_dft2(m), np.fft.fft2(m), atol=1e-6)

    def test_linearity(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        lhs = naive_dft2(a + b)
        rhs = naive_dft2(a) + naive_dft2(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            naive_dft2(np.zeros((33, 4)))


class TestReferenceScaleTable:
    @pytest.mark.parametrize("ratio,form,expected", REFERENCE_SCALE_TABLE)
    def test_entry_is_rounded_formula(self, ratio, form, expected):
        # Oracle only: a failure here faults the frozen table, not the program.
        assert round(reference_scale_direct(ratio, form, 0.08), 3) == expected


class TestOracleReport:
    def test_pass_iff_within_tolerance(self):
        good = OracleReport("a", 1.0, 1.0 + 5e-7, 1e-6)
        bad = OracleReport("b", 1.0, 1.01, 1e-6)
        assert good.passed and not bad.passed
        assert good.abs_error <= good.tolerance < bad.abs_error
        assert bad.rel_error > 1e-3


class TestDecimalEntropy:
    @pytest.mark.parametrize("gap", [0.5, 30.0, 138.0, 700.0])
    def test_two_tokens_match_the_closed_form(self, gap):
        # Token 0 sees logits (gap, 0), so H = log1p(e^-gap) + gap e^-gap / (1 + e^-gap).
        # At gap 138, e^-gap ~ 1e-60: a fixed 50-digit context rounds 1 + e^-gap to 1,
        # drops the first term and is off by 1 / gap ~ 7e-3.
        a = math.sqrt(gap * math.sqrt(2.0))
        x_rot = np.array([[a, 0.0], [0.0, 1e-3]])
        d = a * a / math.sqrt(2.0)
        t = math.exp(-d)
        expected = math.log1p(t) + d * t / (1.0 + t)
        assert abs(decimal_entropy(x_rot)[0] - expected) <= 1e-13 * expected

    def test_flat_rows_match_the_dense_entropy(self, rng):
        # well-spread rows, where the float64 softmax entropy does not cancel
        x_rot = 0.3 * rng.standard_normal((12, 6))
        expected, _ = dense_entropy(x_rot, 1.5)
        np.testing.assert_allclose(decimal_entropy(x_rot, 1.5), expected, rtol=1e-14, atol=0)


class TestRelativePositionOracle:
    def rotate(self, x, n, sched):
        return rotate_tokens(x[None], [n], sched.theta)[0]

    def test_equal_positions_reduce_to_plain_inner_product(self, rng):
        sched = make_schedule(12)
        q, k = rng.standard_normal(12), rng.standard_normal(12)
        lhs = np.dot(*rotate_tokens([q, k], [17.0, 17.0], sched.theta))
        assert abs(lhs - np.dot(q, k)) < 1e-9

    def test_random_sweep_all_pass(self, rng):
        sched = make_schedule(16)
        reports = relative_position_reports(self.rotate, 16, sched, rng, 200, 1e-5)
        assert all(r.passed for r in reports)

    def test_pi_schedule_keeps_property(self, rng):
        sched = make_schedule(16, method="pi", ratio=4.0)
        reports = relative_position_reports(self.rotate, 16, sched, rng, 200, 1e-5)
        assert all(r.passed for r in reports)


class TestRotateTokens:
    """Closed-form cases of the rotation oracle that the kernel tests compare against."""

    def test_zero_position_identity(self, rng):
        x = rng.standard_normal((1, 8))
        np.testing.assert_allclose(rotate_tokens(x, [0.0], make_schedule(8).theta), x, atol=1e-15)

    def test_quarter_turn(self):
        # one subspace at angle pi/2 maps (1, 0) to (0, 1)
        out = rotate_tokens([[1.0, 0.0]], [np.pi / 2], np.array([1.0]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_scale_doubles_subspace_norm(self, rng):
        x = rng.standard_normal((1, 8))
        out = rotate_tokens(x, [3.0], make_schedule(8).theta, scale=np.full(4, 2.0))
        for d in range(4):
            pair = slice(2 * d, 2 * d + 2)
            assert math.isclose(
                np.linalg.norm(out[0, pair]), 2.0 * np.linalg.norm(x[0, pair]), rel_tol=1e-12
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved_without_scaling(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((1, 16))
        out = rotate_tokens(x, [float(gen.integers(0, 512))], make_schedule(16).theta)
        for d in range(8):
            pair = slice(2 * d, 2 * d + 2)
            a, b = np.linalg.norm(x[0, pair]), np.linalg.norm(out[0, pair])
            assert abs(a - b) <= 1e-6 * max(a, 1e-12)


def test_oracles_do_not_import_the_package():
    # An oracle that called sega's numerics would check the package against itself.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "sega"]
