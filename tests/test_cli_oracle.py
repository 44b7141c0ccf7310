"""Every number the CLI prints, against tests/oracles.py rather than a rerun of the code.

The latent values come from the package (a LatentGrid, written as a SEGL
file); everything computed from them is recomputed by the oracle. A printed
number passes within one unit of its 9th significant digit, the precision
the CLI prints at.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sega import LatentGrid, write_latent
from sega.cli import main
from conftest import CLAMPED_STEP, structured_latent
from oracles import modulate_direct, ntk_base_direct

# (height, width, channels) of the random-plus-sinusoid latents.
SHAPES = [(6, 6, 4), (5, 7, 2), (2, 3, 1), (15, 13, 3), (16, 12, 4)]
# (ref_form, dim), each under ntk_strong at ratio 2. At dims 8 and 16 an axis
# of at most 16 tokens reads only two profile bins, and standardizing two
# log-energies keeps only their order; dim 64 reads up to four bins, so the
# energies themselves reach the printed s_corr.
SETTINGS = [("power", 8), ("log", 16), ("power", 64)]


def sinusoid_plus_noise(h, w, c):
    i, j = np.arange(h)[:, None], np.arange(w)[None, :]
    plane = 2.0 * np.cos(2.0 * np.pi * (i / h + 2 * j / w))
    return LatentGrid(np.random.default_rng([h, w, c]).standard_normal((h, w, c)) + plane[:, :, None])


LATENTS = {f"{h}x{w}x{c}": sinusoid_plus_noise(h, w, c) for h, w, c in SHAPES}
LATENTS["clamped_8x8"] = structured_latent(**CLAMPED_STEP)


def assert_printed_close(printed, expected, name, absolute=0.0):
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 8) if printed else 0.0
    assert abs(printed - expected) <= max(unit, absolute), f"{name}: printed {printed!r}, oracle {expected!r}"


@pytest.mark.parametrize("ref_form,dim", SETTINGS, ids=[f"{f}_dim{d}" for f, d in SETTINGS])
@pytest.mark.parametrize("name", list(LATENTS))
def test_modulate_matches_oracle(tmp_path, name, ref_form, dim):
    grid = LATENTS[name]
    write_latent(grid, tmp_path / "latent.segl")
    config = {"rope": {"dim": dim, "method": "ntk_strong", "ratio": 2.0}, "sega": {"ref_form": ref_form}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    res = CliRunner().invoke(
        main, ["modulate", "--latent", str(tmp_path / "latent.segl"), "--config", str(tmp_path / "config.json")]
    )
    assert res.exit_code == 0, res.output

    base = ntk_base_direct(10000.0, 2.0, dim, strong=True)
    theta = [base ** (-2.0 * d / dim) for d in range(dim // 2)]
    expected = modulate_direct(grid.values, theta, theta, 2.0, ref_form=ref_form)
    printed = json.loads(res.stdout)
    assert [ax["axis"] for ax in printed["axes"]] == ["H", "W"]
    for got, want in zip(printed["axes"], expected["axes"]):
        assert list(got) == list(want)
        for key in ("m_ref", "sigma", "SF"):
            assert_printed_close(got[key], want[key], f"{got['axis']}.{key}")
        for key, absolute in (("s_corr", 1e-12), ("m", 0.0)):
            assert len(got[key]) == len(want[key]) == dim // 2
            for d, (p, e) in enumerate(zip(got[key], want[key])):
                assert_printed_close(p, e, f"{got['axis']}.{key}[{d}]", absolute)
