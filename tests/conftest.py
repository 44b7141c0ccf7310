"""Shared fixtures: seeded grids and committed seed lists for averaged checks."""

from __future__ import annotations

import numpy as np
import pytest

from sega import LatentGrid


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"[acceptance] {status} {name} ({report.duration:.2f}s)")

# Fixed seed lists so seed-averaged assertions are reproducible in CI.
SEEDS_16 = list(range(16))
SEEDS_32 = list(range(32))
SEEDS_64 = list(range(64))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def noise_grid(seed: int, height: int = 64, width: int = 64, channels: int = 4) -> LatentGrid:
    gen = np.random.default_rng(seed)
    return LatentGrid(gen.standard_normal((height, width, channels)))


def sinusoid_grid(cycles_w: float, height: int = 64, width: int = 64, channels: int = 1) -> LatentGrid:
    w = np.arange(width)
    plane = np.cos(2.0 * np.pi * cycles_w * w / width)
    field = np.broadcast_to(plane[None, :, None], (height, width, channels)).copy()
    return LatentGrid(field)


def structured_latent(kind, h, w, channels, seed, a, b):
    """A random, sinusoid (a, b cycles) or checker ((a + 1) x (b + 1) blocks) latent."""
    if kind == "random":
        return LatentGrid(np.random.default_rng(seed).standard_normal((h, w, channels)))
    i = np.arange(h)[:, None]
    j = np.arange(w)[None, :]
    if kind == "sinusoid":
        plane = np.cos(2.0 * np.pi * (a * i / h + b * j / w))
    else:
        plane = np.where((i // (a + 1) + j // (b + 1)) % 2 == 0, 1.0, -1.0)
    return LatentGrid(np.repeat(plane[:, :, None], channels, axis=2))


# An 8x8 sinusoid of (1, 3) cycles at dim 8: sigma is 1 and one modulator on
# each axis falls below zero, so the floor decides those magnitudes.
CLAMPED_STEP = dict(kind="sinusoid", h=8, w=8, channels=1, seed=0, a=1, b=3)
