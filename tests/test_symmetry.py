"""Grid symmetries: transposing or reflecting the grid does the same to every output, with no oracle.

Transposing the token grid, and swapping the projection's two axial halves,
the schedules and the magnitudes, relabels the axes and nothing else, so
rotary_entropy's per-token entropies come back transposed. Reflecting one
axis reverses its offsets, and M(delta)^T = M(-delta): swapping that axis's
even and odd projection columns negates the sin term, so M(delta) comes back
and the entropies come back reflected. Neither is bit-equal: the kernel blocks
its query rows by grid column, so the two calls put different rows in each
GEMM, and BLAS may round a row differently depending on which rows share a
call. The bound is 1e-12 relative: the gaps seen were at most 4.9e-14
(transpose, 48x64, C = 4) and 5.8e-14 (reflection, 48x64, H axis), and a sin
term of the wrong sign on one axis moved the transposed entropies by 4.6 to
4.7e2 relative. The spectral stage sees the same relabelling: m_h and m_w
swap, and sigma stays (gaps at most 7.8e-16); a circular shift, a flip of
both axes or a uniform scale leaves m_h, m_w and sigma (gaps at most 4.1e-15).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sega import LatentGrid, SegaConfig, TokenFeatures, analyze, make_schedule, modulate_detailed
from sega.attention import BLOCK_LOGITS, rotary_entropy

DIM = 32  # per axis
RATIO = 2.0
LOGIT_SCALE = 1.7
SCHED_H = make_schedule(DIM, method="ntk_strong", ratio=RATIO)
SCHED_W = make_schedule(DIM, method="pi", ratio=RATIO)


GRIDS = [(9, 7, 4), (3, 50, 4), (48, 64, 4), (33, 20, 16), (64, 64, 16), (2, 2, 1)]
# Any grid from 2x2 to 64x64 at C in {1, 4, 16}. The examples are the two blocking
# regimes: a query block is a whole grid column at 16x16, and a 16-row part of
# one at 64x64. A 64x64 call at C = 16 takes ~0.1 s, so the sweep stays small.
SHAPES = dict(height=st.integers(2, 64), width=st.integers(2, 64), channels=st.sampled_from([1, 4, 16]))
SWEEP = settings(max_examples=8, deadline=None)
WHOLE_COLUMN = example(height=16, width=16, channels=4)
PART_COLUMN = example(height=64, width=64, channels=4)
LATENTS = [(16, 16), (32, 24), (15, 13), (64, 48)]


def _features(height, width, channels):
    """Seeded tokens, projection and per-axis magnitudes for one grid."""
    gen = np.random.default_rng([height, width, channels])
    tokens = gen.standard_normal((height, width, channels))
    proj = gen.standard_normal((channels, 2 * DIM)) / np.sqrt(channels)
    scale_h, scale_w = gen.uniform(0.5, 1.5, (2, DIM // 2))
    return tokens, proj, scale_h, scale_w


def _entropies(tokens, proj, scale_h, scale_w):
    per_token, mean = rotary_entropy(
        TokenFeatures(tokens, proj), SCHED_H, SCHED_W, scale_h, scale_w, LOGIT_SCALE
    )
    return per_token.reshape(tokens.shape[:2]), mean


def _latent(height, width):
    """Noise plus a diagonal wave, so the spectral correction is live."""
    gen = np.random.default_rng([height, width])
    h = np.arange(height)[:, None, None]
    w = np.arange(width)[None, :, None]
    return gen.standard_normal((height, width, 4)) + 0.5 * np.cos(2 * np.pi * (h / height + 3 * w / width))


@pytest.mark.parametrize("height, width, channels", GRIDS)
def test_transposed_grid_gives_transposed_entropies(height, width, channels):
    tokens, proj, scale_h, scale_w = _features(height, width, channels)

    per_token, mean = _entropies(tokens, proj, scale_h, scale_w)
    swapped = TokenFeatures(tokens.transpose(1, 0, 2), np.concatenate([proj[:, DIM:], proj[:, :DIM]], axis=1))
    per_token_t, mean_t = rotary_entropy(swapped, SCHED_W, SCHED_H, scale_w, scale_h, LOGIT_SCALE)

    np.testing.assert_allclose(per_token_t.reshape(width, height), per_token.T, rtol=1e-12, atol=0)
    assert mean_t == pytest.approx(mean, rel=1e-12, abs=0)


def test_the_examples_are_the_two_blocking_regimes():
    # rotary_entropy's block is min(H, BLOCK_LOGITS // N) query rows of one grid column
    assert BLOCK_LOGITS // (16 * 16) >= 16
    assert BLOCK_LOGITS // (64 * 64) == 16


@WHOLE_COLUMN
@PART_COLUMN
@SWEEP
@given(**SHAPES)
def test_transposed_grid_gives_transposed_entropies_on_any_shape(height, width, channels):
    test_transposed_grid_gives_transposed_entropies(height, width, channels)


def _reflected(tokens, proj, axis, swap=True):
    """tokens flipped along grid axis 0 (H) or 1 (W); with swap, that axis's even and
    odd projection columns trade places, which turns each of its rotations back."""
    proj = proj.copy()
    if swap:
        half = proj[:, axis * DIM : (axis + 1) * DIM]
        half[:] = half.reshape(-1, DIM // 2, 2)[:, :, ::-1].reshape(-1, DIM)
    return np.flip(tokens, axis), proj


@pytest.mark.parametrize("axis", [0, 1], ids=["H", "W"])
@pytest.mark.parametrize("height, width, channels", GRIDS)
def test_reflected_grid_gives_reflected_entropies(height, width, channels, axis):
    tokens, proj, scale_h, scale_w = _features(height, width, channels)

    per_token, mean = _entropies(tokens, proj, scale_h, scale_w)
    per_token_r, mean_r = _entropies(*_reflected(tokens, proj, axis), scale_h, scale_w)

    np.testing.assert_allclose(per_token_r, np.flip(per_token, axis), rtol=1e-12, atol=0)
    assert mean_r == pytest.approx(mean, rel=1e-12, abs=0)


@WHOLE_COLUMN
@PART_COLUMN
@SWEEP
@given(**SHAPES)
def test_reflected_grid_gives_reflected_entropies_on_any_shape(height, width, channels):
    tokens, proj, scale_h, scale_w = _features(height, width, channels)

    per_token, mean = _entropies(tokens, proj, scale_h, scale_w)
    for axis in (0, 1):
        per_token_r, mean_r = _entropies(*_reflected(tokens, proj, axis), scale_h, scale_w)
        np.testing.assert_allclose(per_token_r, np.flip(per_token, axis), rtol=1e-12, atol=0)
        assert mean_r == pytest.approx(mean, rel=1e-12, abs=0)


@pytest.mark.parametrize("axis", [0, 1], ids=["H", "W"])
def test_reflection_without_the_column_swap_is_no_symmetry(axis):
    # the flip alone reverses the axis's rotations; the relation above must see that
    tokens, proj, scale_h, scale_w = _features(9, 7, 4)

    per_token, _ = _entropies(tokens, proj, scale_h, scale_w)
    per_token_r, _ = _entropies(*_reflected(tokens, proj, axis, swap=False), scale_h, scale_w)

    assert np.max(np.abs(per_token_r - np.flip(per_token, axis)) / per_token) > 1e-3


def _modulated(values):
    return modulate_detailed(analyze(LatentGrid(values)), SCHED_H, SCHED_W, RATIO, SegaConfig())


@pytest.mark.parametrize("height, width", LATENTS)
def test_transposed_latent_swaps_the_magnitudes(height, width):
    values = _latent(height, width)

    result = _modulated(values)
    result_t = modulate_detailed(
        analyze(LatentGrid(values.transpose(1, 0, 2))), SCHED_W, SCHED_H, RATIO, SegaConfig()
    )

    assert result.sigma > 0.01  # the correction is live, so the swap is seen
    np.testing.assert_allclose(result_t.m_h, result.m_w, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result_t.m_w, result.m_h, rtol=1e-12, atol=0)
    assert result_t.sigma == pytest.approx(result.sigma, rel=1e-12, abs=0)


@pytest.mark.parametrize("move", [
    lambda v: np.roll(v, (5, -3), axis=(0, 1)),
    lambda v: v[::-1, ::-1],
    lambda v: 4.0 * v,
], ids=["roll", "flip_both", "scale_4"])
@pytest.mark.parametrize("height, width", LATENTS)
def test_magnitudes_ignore_shift_flip_and_scale(height, width, move):
    # each leaves every |FFT| sample's energy in its ring and band, up to one factor
    values = _latent(height, width)

    result = _modulated(values)
    moved = _modulated(move(values))

    assert result.sigma > 0.01
    np.testing.assert_allclose(moved.m_h, result.m_h, rtol=1e-12, atol=0)
    np.testing.assert_allclose(moved.m_w, result.m_w, rtol=1e-12, atol=0)
    assert moved.sigma == pytest.approx(result.sigma, rel=1e-12, abs=0)
