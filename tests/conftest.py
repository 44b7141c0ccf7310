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
