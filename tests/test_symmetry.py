"""Grid symmetries: transposing the grid transposes every output, checked with no oracle.

Transposing the token grid, and swapping the projection's two axial halves,
the schedules and the magnitudes, relabels the axes and nothing else, so
rotary_entropy's per-token entropies come back transposed. They are not
bit-equal: the kernel blocks its query rows by grid column, so the two calls
put different rows in each GEMM, and BLAS may round a row differently
depending on which rows share a call. The bound is 1e-12 relative: the gaps
seen were at most 4.9e-14 (48x64, C = 4), and a sin term of the wrong sign on
one axis moved the entropies by 4.6 to 4.7e2 relative. The spectral stage
sees the same relabelling: m_h and m_w swap, and sigma stays (gaps at most
7.8e-16).
"""

import numpy as np
import pytest

from sega import LatentGrid, SegaConfig, TokenFeatures, analyze, make_schedule, modulate_detailed
from sega.attention import rotary_entropy

DIM = 32  # per axis
RATIO = 2.0
LOGIT_SCALE = 1.7
SCHED_H = make_schedule(DIM, method="ntk_strong", ratio=RATIO)
SCHED_W = make_schedule(DIM, method="pi", ratio=RATIO)


@pytest.mark.parametrize("height, width, channels", [
    (9, 7, 4), (3, 50, 4), (48, 64, 4), (33, 20, 16), (64, 64, 16), (2, 2, 1),
])
def test_transposed_grid_gives_transposed_entropies(height, width, channels):
    gen = np.random.default_rng([height, width, channels])
    tokens = gen.standard_normal((height, width, channels))
    proj = gen.standard_normal((channels, 2 * DIM)) / np.sqrt(channels)
    scale_h, scale_w = gen.uniform(0.5, 1.5, (2, DIM // 2))

    per_token, mean = rotary_entropy(
        TokenFeatures(tokens, proj), SCHED_H, SCHED_W, scale_h, scale_w, LOGIT_SCALE
    )
    swapped = TokenFeatures(tokens.transpose(1, 0, 2), np.concatenate([proj[:, DIM:], proj[:, :DIM]], axis=1))
    per_token_t, mean_t = rotary_entropy(swapped, SCHED_W, SCHED_H, scale_w, scale_h, LOGIT_SCALE)

    np.testing.assert_allclose(
        per_token_t.reshape(width, height), per_token.reshape(height, width).T, rtol=1e-12, atol=0
    )
    assert mean_t == pytest.approx(mean, rel=1e-12, abs=0)


@pytest.mark.parametrize("height, width", [(16, 16), (32, 24), (15, 13), (64, 48)])
def test_transposed_latent_swaps_the_magnitudes(height, width):
    gen = np.random.default_rng([height, width])
    h = np.arange(height)[:, None, None]
    w = np.arange(width)[None, :, None]
    values = gen.standard_normal((height, width, 4)) + 0.5 * np.cos(2 * np.pi * (h / height + 3 * w / width))
    latent = LatentGrid(values)

    result = modulate_detailed(analyze(latent), SCHED_H, SCHED_W, RATIO, SegaConfig())
    result_t = modulate_detailed(
        analyze(LatentGrid(latent.values.transpose(1, 0, 2))), SCHED_W, SCHED_H, RATIO, SegaConfig()
    )

    assert result.sigma > 0.01  # the correction is live, so the swap is seen
    np.testing.assert_allclose(result_t.m_h, result.m_w, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result_t.m_w, result.m_h, rtol=1e-12, atol=0)
    assert result_t.sigma == pytest.approx(result.sigma, rel=1e-12, abs=0)
