"""Golden outputs: sha256 digests of CLI outputs, pinned across refactors.

A rerun-equals-rerun check cannot see a refactor that moves a byte on every
run alike, so these digests were recorded once and every change is compared
against them. If a change moves an output on purpose, it records the new
digest and CHANGES.md says which bytes moved and why.

The inline ``yarn_dype`` config pins each way a per-axis schedule is derived:
yarn on the target grid with ratio_h != ratio_w, a sega method and a yarn
baseline on the train grid, dype with its time schedule, the log anchor form
and an explicit radial bin count. ``modulate``, ``entropy`` and ``attn-map``
pin the derivation from a latent file's own shape; the two ``attn-map`` cases
pin one query row under sega and under unit scaling. The 16x12 latent is too
small for ``entropy`` to split its rows into blocks, so ``entropy`` is also
pinned on a 64x64 latent (several blocks of whole rows) and on a 48x64 latent
(blocks that do not divide the row count). ``modulate`` and ``entropy`` are
also pinned on a 15x13 latent, where both axes are odd and a profile's length
is not half its axis. ``entropy`` and ``attn-map`` are pinned on a 51x51
latent: its 2601 tokens split into 100-row blocks and a last block of one
row, which BLAS takes as a matrix-vector product whose bits differ from the
same row inside a larger block. ``spectrum`` and three
``rope-table`` schedules pin the remaining stdout writers.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sega
from sega import LatentGrid, write_latent
from sega.cli import main

REPO = Path(__file__).resolve().parents[1]

TRAJECTORY_FILES = (
    "scaling_map_H.csv",
    "scaling_map_W.csv",
    "entropy_trace.csv",
    "spectral_heatmap.csv",
    "summary.json",
)
HEATMAP_FILES = ("spectral_heatmap.csv", "summary.json")

YARN_DYPE = {
    "rope": {
        "dim": 16, "method": "yarn", "ratio_h": 2.0, "ratio_w": 1.5,
        "yarn_alpha": 0.5, "yarn_beta": 8.0, "dype_p": 2.0, "dype_strong": True,
    },
    "sega": {"ref_form": "log", "n_bins_iso": 5},
    "trajectory": {
        "steps": 3, "seed": 5, "height": 16, "width": 14, "channels": 2,
        "structure_kind": "sinusoid", "structure_params": {"cycles_h": 2.0, "cycles_w": 3.0},
        "methods": [
            {"name": "yarn_sega", "rope": "yarn", "scaling": "sega"},
            {"name": "train_sega", "rope": "dype", "scaling": "sega", "grid": "train"},
            {"name": "dype_fixed", "rope": "dype", "scaling": "fixed", "temperature": True},
        ],
        "baseline": {"name": "baseline", "rope": "yarn", "scaling": "none", "grid": "train"},
    },
}

# (case, argv with {placeholders}, files written into {out}; None means stdout)
CASES = (
    ("trajectory_small",
     ["trajectory", "--config", "{trajectory_small}", "--out-dir", "{out}"], TRAJECTORY_FILES),
    ("heatmap_small",
     ["heatmap", "--config", "{trajectory_small}", "--out-dir", "{out}"], HEATMAP_FILES),
    ("heatmap_noise",
     ["heatmap", "--config", "{heatmap_noise}", "--out-dir", "{out}"], HEATMAP_FILES),
    ("trajectory_yarn_dype",
     ["trajectory", "--config", "{yarn_dype}", "--out-dir", "{out}"], TRAJECTORY_FILES),
    ("modulate", ["modulate", "--latent", "{latent}"], None),
    ("modulate_yarn_ratio",
     ["modulate", "--latent", "{latent}", "--config", "{yarn_dype}", "--ratio", "3"], None),
    ("entropy_sega", ["entropy", "--latent", "{latent}", "--scaling", "sega"], None),
    ("entropy_sega_yarn",
     ["entropy", "--latent", "{latent}", "--config", "{yarn_dype}", "--scaling", "sega"], None),
    ("attn_map_sega",
     ["attn-map", "--latent", "{latent}", "--query-h", "5", "--query-w", "7",
      "--scaling", "sega"], None),
    ("attn_map_none",
     ["attn-map", "--latent", "{latent}", "--query-h", "0", "--query-w", "11",
      "--scaling", "none"], None),
    ("entropy_sega_64x64", ["entropy", "--latent", "{latent_64x64}", "--scaling", "sega"], None),
    ("entropy_sega_48x64", ["entropy", "--latent", "{latent_48x64}", "--scaling", "sega"], None),
    ("spectrum", ["spectrum", "--latent", "{latent}"], None),
    ("modulate_15x13", ["modulate", "--latent", "{latent_15x13}"], None),
    ("entropy_sega_15x13", ["entropy", "--latent", "{latent_15x13}", "--scaling", "sega"], None),
    ("entropy_sega_51x51", ["entropy", "--latent", "{latent_51x51}", "--scaling", "sega"], None),
    ("attn_map_sega_51x51",
     ["attn-map", "--latent", "{latent_51x51}", "--query-h", "50", "--query-w", "50",
      "--scaling", "sega"], None),
    ("rope_table_none", ["rope-table", "--dim", "64", "--method", "none"], None),
    ("rope_table_ntk_strong",
     ["rope-table", "--dim", "64", "--method", "ntk_strong", "--ratio", "4"], None),
    ("rope_table_yarn",
     ["rope-table", "--dim", "64", "--method", "yarn", "--ratio", "4", "--train-len", "64"], None),
)

DIGESTS = {
    "trajectory_small": {
        "scaling_map_H.csv": "4a48202672bc1b0dd7da8dd7b9f156abf928364b911ac35a7a41ad0f41308721",
        "scaling_map_W.csv": "50f10a5fc08ee173936056b0d59aaeeec875a9bf9ea0da7eb8002c660ba6ba28",
        "entropy_trace.csv": "50d2eaf3b8353cb18e01bdd44b089e761670c544d784489a9f12f67c4e58897f",
        "spectral_heatmap.csv": "30308edcb8719629e921f2c6115573a0ec168e03bc58c771962d51c07b4e66f5",
        "summary.json": "7082f0ccea398026db7078cf76ccbbde2e49db01c4953496a621700adccebd34",
    },
    "heatmap_small": {
        "spectral_heatmap.csv": "30308edcb8719629e921f2c6115573a0ec168e03bc58c771962d51c07b4e66f5",
        "summary.json": "de211a745730891a3ecc948811ede729b900ddf61addc66eb59f32a748c9c24b",
    },
    "heatmap_noise": {
        "spectral_heatmap.csv": "390e1407072308ed08d82a8eb45154f39c554ea7aa3fe161b1954517bbd4dced",
        "summary.json": "cbffa4e4232715321fe4593e19b0f92cafcf8641cc62d285e100fa130558c90f",
    },
    "trajectory_yarn_dype": {
        "scaling_map_H.csv": "53e4c58c65843c4b337837eafe18434e8036198e8110ee2dd881923252daed93",
        "scaling_map_W.csv": "03662dd8a6089f730a13b2b0116bf2227f4a466a06748f5db037f653f3dccc2f",
        "entropy_trace.csv": "0b924d193dd17fb64bfc1c303c0153a9373b4a8a5ef694d26d2f8c6156e4c748",
        "spectral_heatmap.csv": "15191ad94520e64badf20c61efb6b1cbd3170d29202877fe3bdd9ff204f7a7df",
        "summary.json": "1eea27e745b3dcaee2d52d54e4fa66dba4953baa378973a31ef6ab2b24596349",
    },
    "modulate": {
        "stdout": "2fb5b6fa2071ebdf15c793d3b8340258d6d87c900fbbdf2901684d89f605a720",
    },
    "modulate_yarn_ratio": {
        "stdout": "36443044125825c6d98cb42218d0784a465f42806802a2b188c2be9ac0d8d895",
    },
    "entropy_sega": {
        "stdout": "e43acdc34b2b2e12a2a3e19159d690a714118c70771bb7bcac5f8c101fc30de5",
    },
    "entropy_sega_yarn": {
        "stdout": "c2fd025b05350e1343430b874e426c813e2704e27bebea0bb9b1ce63da8e3a38",
    },
    "attn_map_sega": {
        "stdout": "52cfbf3c5d410c7d04d68f80d30f847f7ffbcd83f4dfd2413537f08e4885d91a",
    },
    "attn_map_none": {
        "stdout": "1ce1e83f5ca210e40c05ac33e97627cd405805cbbe27944b370ed70158302c45",
    },
    "entropy_sega_64x64": {
        "stdout": "32a0e13681f0f87d428b94cc5b71bdd14bb9877059969855df9a4d9719f5ae79",
    },
    "entropy_sega_48x64": {
        "stdout": "874f822b8b7b2d6c9f65aae8db8f2a0f400519b6e3a081714c7eee5316dd2ad0",
    },
    "spectrum": {
        "stdout": "739e77e82e13b6d2dd2f6fa1a13ccb50dc99817280dc9f89e721ff6ce846986b",
    },
    "modulate_15x13": {
        "stdout": "615273dfb37d33cc6fcf5ecc25d55b521703431c36b205c59945577ade4c2af0",
    },
    "entropy_sega_15x13": {
        "stdout": "0b94464bfa0dbefaf371c26c5d371b18c856f8893d249d1826a9a4c8f8c7da02",
    },
    "entropy_sega_51x51": {
        "stdout": "fa630abfcb00c0907759458a122882a208661060759ada708a51056481e7c92d",
    },
    "attn_map_sega_51x51": {
        "stdout": "1584b33f87dcabff1fd06807aa44a72648a044a14fbe3af2560010bc9c20d392",
    },
    "rope_table_none": {
        "stdout": "d93a383d7231e8ee417de3729167d2e86608bbdf832ca44539af575b6a171806",
    },
    "rope_table_ntk_strong": {
        "stdout": "e2bdcce0f457d9f5fb9b05aee74ef8ae20b9c6c140e390f825e7edaec59acc51",
    },
    "rope_table_yarn": {
        "stdout": "6a970488b6ebe23b0b9119e7896461f44f17f064ee681cbef14febbc2d60d706",
    },
}


def _inputs(tmp_path):
    latent = tmp_path / "latent.segl"
    grid = LatentGrid(np.random.default_rng(31).standard_normal((16, 12, 3)))
    write_latent(grid, latent)
    for seed, (height, width) in ((64, (64, 64)), (48, (48, 64)), (51, (51, 51))):
        values = np.random.default_rng(seed).standard_normal((height, width, 4))
        write_latent(LatentGrid(values), tmp_path / f"latent_{height}x{width}.segl")
    odd = np.random.default_rng(15).standard_normal((15, 13, 3))
    write_latent(LatentGrid(odd), tmp_path / "latent_15x13.segl")
    yarn_dype = tmp_path / "yarn_dype.json"
    yarn_dype.write_text(json.dumps(YARN_DYPE))
    return {
        "trajectory_small": str(REPO / "configs" / "trajectory_small.json"),
        "heatmap_noise": str(REPO / "configs" / "heatmap_noise.json"),
        "yarn_dype": str(yarn_dype),
        "latent": str(latent),
        "latent_64x64": str(tmp_path / "latent_64x64.segl"),
        "latent_48x64": str(tmp_path / "latent_48x64.segl"),
        "latent_15x13": str(tmp_path / "latent_15x13.segl"),
        "latent_51x51": str(tmp_path / "latent_51x51.segl"),
        "out": str(tmp_path / "out"),
    }


def _argv(case, tmp_path):
    _, template, files = next(c for c in CASES if c[0] == case)
    inputs = _inputs(tmp_path)
    return [arg.format(**inputs) for arg in template], files, Path(inputs["out"])


def _digests(files, out, stdout):
    if files is None:
        return {"stdout": hashlib.sha256(stdout).hexdigest()}
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path):
    argv, files, out = _argv(case, tmp_path)
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert _digests(files, out, res.stdout_bytes) == DIGESTS[case]


def test_single_blas_thread_matches_golden(tmp_path):
    argv, files, out = _argv("trajectory_small", tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(sega.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "sega.cli", *argv], env=env, capture_output=True, timeout=300
    )
    assert res.returncode == 0, res.stderr.decode()
    assert _digests(files, out, res.stdout) == DIGESTS["trajectory_small"]
