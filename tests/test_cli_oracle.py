"""Every number the CLI prints, against tests/oracles.py rather than a rerun of the code.

The latent values come from the package (a LatentGrid, written as a SEGL
file, or generate_latent for sega trajectory and sega heatmap), and so do the
token features of the attention commands and of trajectory (token_features,
as in the kernel tests); everything computed from them is recomputed by the
oracle. rope-table's columns are closed forms of its flags. A printed number
passes within one unit of its 9th significant digit, the precision the CLI
prints at.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sega import LatentGrid, TrajectoryConfig, generate_latent, token_features, write_latent
from sega.cli import main
from sega.tensorio import structure_field
from conftest import CLAMPED_STEP, structured_latent
from oracles import (decimal_entropy, dense_softmax, modulate_direct, ntk_base_direct, profiles_direct,
                     reference_scale_direct, rotary_logits, rotated_features)

# (height, width, channels) of the random-plus-sinusoid latents.
SHAPES = [(6, 6, 4), (5, 7, 2), (2, 3, 1), (15, 13, 3), (16, 12, 4)]
# (ref_form, dim), each under ntk_strong at ratio 2. At dims 8 and 16 an axis
# of at most 16 tokens reads only two profile bins, and standardizing two
# log-energies keeps only their order; dim 64 reads up to four bins, so the
# energies themselves reach the printed s_corr.
SETTINGS = [("power", 8), ("log", 16), ("power", 64)]
# The latents of at most 64 tokens, which the decimal entropy oracle takes,
# and the rope dim that sega entropy and sega attn-map run them at.
SMALL = ["6x6x4", "5x7x2", "2x3x1"]
ATTENTION_DIM = 16


def sinusoid_plus_noise(h, w, c):
    i, j = np.arange(h)[:, None], np.arange(w)[None, :]
    plane = 2.0 * np.cos(2.0 * np.pi * (i / h + 2 * j / w))
    return LatentGrid(np.random.default_rng([h, w, c]).standard_normal((h, w, c)) + plane[:, :, None])


LATENTS = {f"{h}x{w}x{c}": sinusoid_plus_noise(h, w, c) for h, w, c in SHAPES}
LATENTS["clamped_8x8"] = structured_latent(**CLAMPED_STEP)


def assert_printed_close(printed, expected, name, absolute=0.0):
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 8) if printed else 0.0
    assert abs(printed - expected) <= max(unit, absolute), f"{name}: printed {printed!r}, oracle {expected!r}"


def invoke(argv):
    """The stdout of a successful `sega ARGV`."""
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    return res.stdout


def run_cli(tmp_path, grid, config, *args):
    """The stdout of `sega ARGS --latent L --config C`, with grid written to L and config to C."""
    write_latent(grid, tmp_path / "latent.segl")
    (tmp_path / "config.json").write_text(json.dumps(config))
    return invoke([*args, "--latent", str(tmp_path / "latent.segl"), "--config", str(tmp_path / "config.json")])


def theta_direct(base, dim):
    """theta_d = base ** (-2d / dim), d = 0 .. dim/2 - 1."""
    return [base ** (-2.0 * d / dim) for d in range(dim // 2)]


def ntk_strong_theta(dim):
    """theta_d of ntk_strong at ratio 2, from the oracle's base."""
    return theta_direct(ntk_base_direct(10000.0, 2.0, dim, strong=True), dim)


@pytest.mark.parametrize("ref_form,dim", SETTINGS, ids=[f"{f}_dim{d}" for f, d in SETTINGS])
@pytest.mark.parametrize("name", list(LATENTS))
def test_modulate_matches_oracle(tmp_path, name, ref_form, dim):
    grid = LATENTS[name]
    config = {"rope": {"dim": dim, "method": "ntk_strong", "ratio": 2.0}, "sega": {"ref_form": ref_form}}
    printed = json.loads(run_cli(tmp_path, grid, config, "modulate"))

    theta = ntk_strong_theta(dim)
    expected = modulate_direct(grid.values, theta, theta, 2.0, ref_form=ref_form)
    assert [ax["axis"] for ax in printed["axes"]] == ["H", "W"]
    for got, want in zip(printed["axes"], expected["axes"]):
        assert list(got) == list(want)
        for key in ("m_ref", "sigma", "SF"):
            assert_printed_close(got[key], want[key], f"{got['axis']}.{key}")
        for key, absolute in (("s_corr", 1e-12), ("m", 0.0)):
            assert len(got[key]) == len(want[key]) == dim // 2
            for d, (p, e) in enumerate(zip(got[key], want[key])):
                assert_printed_close(p, e, f"{got['axis']}.{key}[{d}]", absolute)


@pytest.mark.parametrize("bins", [None, 3], ids=["default_bins", "bins3"])
@pytest.mark.parametrize("name", [f"{h}x{w}x{c}" for h, w, c in SHAPES])
def test_spectrum_matches_oracle(tmp_path, name, bins):
    grid = LATENTS[name]
    write_latent(grid, tmp_path / "latent.segl")
    stdout = invoke(["spectrum", "--latent", str(tmp_path / "latent.segl"),
                     *([] if bins is None else ["--bins", str(bins)])])
    profile_h, profile_w, radial, occupied = profiles_direct(grid.values, bins)
    expected = [("axis_h", i, e, True) for i, e in enumerate(profile_h)]
    expected += [("axis_w", i, e, True) for i, e in enumerate(profile_w)]
    expected += [("radial", i, e, full) for i, (e, full) in enumerate(zip(radial, occupied))]
    header, *rows = [line.split(",") for line in stdout.splitlines()]
    assert header == ["profile", "bin", "energy", "occupied"]
    assert [(p, b, o) for p, b, _, o in rows] == [(p, str(b), str(int(o))) for p, b, _, o in expected]
    for (profile, b, energy, _), (_, _, want, _) in zip(rows, expected):
        assert_printed_close(float(energy), want, f"{profile}[{b}]")


# rope-table's flags for each method, and its theta' from base and dim; each runs at ratio 3.
DYPE = ["--method", "dype", "--ratio", "3", "--dype-t", "0.25", "--dype-p", "2"]
ROPE_TABLE = {
    "none": ([], lambda base, dim: theta_direct(base, dim)),
    "pi": (["--method", "pi", "--ratio", "3"], lambda base, dim: [t / 3.0 for t in theta_direct(base, dim)]),
    "ntk": (["--method", "ntk", "--ratio", "3"],
            lambda base, dim: theta_direct(ntk_base_direct(base, 3.0, dim, False), dim)),
    "ntk_strong": (["--method", "ntk_strong", "--ratio", "3"],
                   lambda base, dim: theta_direct(ntk_base_direct(base, 3.0, dim, True), dim)),
    # dype's effective ratio is 1 + (3 - 1) * (1 - 0.25)**2 = 2.125
    "dype": (DYPE, lambda base, dim: theta_direct(ntk_base_direct(base, 2.125, dim, False), dim)),
    "dype_strong": ([*DYPE, "--dype-strong"],
                    lambda base, dim: theta_direct(ntk_base_direct(base, 2.125, dim, True), dim)),
}


@pytest.mark.parametrize("base,dim", [(10000.0, 16), (500.0, 64)], ids=["base10000_dim16", "base500_dim64"])
@pytest.mark.parametrize("case", list(ROPE_TABLE))
def test_rope_table_matches_oracle(case, base, dim):
    # yarn is left out: yarn_theta_direct copies the package's ramp argument
    flags, theta_prime = ROPE_TABLE[case]
    stdout = invoke(["rope-table", "--dim", str(dim), "--base", repr(base), *flags])
    header, *rows = [line.split(",") for line in stdout.splitlines()]
    assert header == ["d", "theta", "theta_prime", "wavelength"]
    assert [row[0] for row in rows] == [str(d) for d in range(dim // 2)]
    for d, (row, theta, prime) in enumerate(zip(rows, theta_direct(base, dim), theta_prime(base, dim))):
        for name, printed, want in zip(header[1:], row[1:], (theta, prime, 2.0 * math.pi / theta)):
            assert_printed_close(float(printed), want, f"{name}[{d}]")


def attention_oracle(tmp_path, name, scaling, *args):
    """The stdout of an attention command on latent `name` at ATTENTION_DIM under
    ntk_strong at ratio 2, and the oracle's rotary arguments for it: the dense
    features of the package's token_features, theta and the magnitudes."""
    grid = LATENTS[name]
    config = {"rope": {"dim": ATTENTION_DIM, "method": "ntk_strong", "ratio": 2.0}}
    stdout = run_cli(tmp_path, grid, config, *args, "--scaling", scaling)
    feats = token_features(grid, 2 * ATTENTION_DIM, 0, 0)
    x = feats.tokens.reshape(grid.height * grid.width, grid.channels) @ feats.proj
    theta = ntk_strong_theta(ATTENTION_DIM)
    if scaling == "sega":
        m_h, m_w = (axis["m"] for axis in modulate_direct(grid.values, theta, theta, 2.0)["axes"])
    else:
        m_h = m_w = [reference_scale_direct(2.0, "power") if scaling == "fixed" else 1.0] * len(theta)
    return grid, stdout, (x, grid.height, grid.width, theta, theta, m_h, m_w)


@pytest.mark.parametrize("scaling", ["none", "fixed", "sega"])
@pytest.mark.parametrize("name", SMALL)
def test_entropy_matches_oracle(tmp_path, name, scaling):
    grid, stdout, rotary = attention_oracle(tmp_path, name, scaling, "entropy")
    expected = decimal_entropy(rotated_features(*rotary))
    header, *rows, mean = [line.split(",") for line in stdout.splitlines()]
    assert header == ["token", "h", "w", "entropy"]
    assert [row[:3] for row in rows] == [[str(i), str(i // grid.width), str(i % grid.width)]
                                         for i in range(len(expected))]
    for i, (row, want) in enumerate(zip(rows, expected)):
        assert_printed_close(float(row[3]), want, f"entropy[{i}]")
    assert mean[:3] == ["mean", "", ""]
    assert_printed_close(float(mean[3]), math.fsum(expected) / len(expected), "mean")


@pytest.mark.parametrize("scaling", ["none", "fixed", "sega"])
@pytest.mark.parametrize("name", SMALL)
def test_attn_map_matches_oracle(tmp_path, name, scaling):
    h, w = LATENTS[name].height // 2, LATENTS[name].width - 1
    grid, stdout, rotary = attention_oracle(
        tmp_path, name, scaling, "attn-map", "--query-h", str(h), "--query-w", str(w)
    )
    expected = dense_softmax(rotary_logits(*rotary)[h * grid.width + w]).reshape(grid.height, grid.width)
    header, *rows = [line.split(",") for line in stdout.splitlines()]
    assert header == ["h"] + [f"w{j}" for j in range(grid.width)]
    assert [row[0] for row in rows] == [str(i) for i in range(grid.height)]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            assert_printed_close(float(cell), expected[i, j], f"weight[{i}, {j}]")


def mean_entropy(grid, step, theta, m_h, m_w):
    """The oracle's mean entropy of one trajectory method on grid at step: the
    package's token features at seed 0, rotated by theta and scaled by m_h, m_w.
    20 digits are 11 past the printed 9 and halve the decimal oracle's time."""
    feats = token_features(grid, 2 * TRAJECTORY_DIM, 0, step)
    x = feats.tokens.reshape(grid.height * grid.width, grid.channels) @ feats.proj
    x_rot = rotated_features(x, grid.height, grid.width, theta, theta, m_h, m_w)
    per_token = decimal_entropy(x_rot, digits=20)
    return math.fsum(per_token) / len(per_token)


def heatmap_row(grid):
    """One spectral_heatmap.csv row: the radial profile normalized to sum 1."""
    radial = profiles_direct(grid.values)[2]
    return [e / math.fsum(radial) for e in radial]


def run_files(tmp_path, command, config):
    """The stdout of `sega COMMAND --config C --out-dir O` and O, with config written to C."""
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    return invoke([command, "--config", str(tmp_path / "config.json"), "--out-dir", str(out)]), out


def assert_table_close(path, header, expected):
    """A CSV of a step column and one row of numbers per step, against expected rows."""
    got_header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert got_header == header
    assert [row[0] for row in rows] == [str(step) for step in range(len(expected))]
    for step, (row, want) in enumerate(zip(rows, expected)):
        assert len(row) == len(want) + 1
        for j, (cell, value) in enumerate(zip(row[1:], want)):
            assert_printed_close(float(cell), value, f"{path.name}[{step}, {header[j + 1]}]")


# Non-integer cycles leak energy into every ring, so no heatmap cell of the
# pure-structure step is rounding noise that no oracle could reproduce.
LEAKY = {"cycles_h": 1.5, "cycles_w": 2.5}
TRAJECTORY_DIM = 8
# (shape, structure, noise blend and its weights, whether a step clamps a modulator).
# At 6x6 every theta at dim 8 falls in band 0, so sega's maps are m_ref; at 8x8
# theta_0 reaches band 1, and integer cycles with some noise clamp a value.
TRAJECTORIES = {
    "6x6x2": ((6, 6, 2), LEAKY, {"kind": "linear"}, [1.0, 0.5, 0.0], False),
    "8x8x2_clamped": ((8, 8, 2), {"cycles_h": 1.0, "cycles_w": 3.0},
                      {"kind": "table", "values": [1.0, 0.5, 0.1]}, [1.0, 0.5, 0.1], True),
}
TRAJECTORY_FILES = ["scaling_map_H.csv", "scaling_map_W.csv", "entropy_trace.csv", "spectral_heatmap.csv",
                    "summary.json"]


@pytest.mark.parametrize("case", list(TRAJECTORIES))
def test_trajectory_matches_oracle(tmp_path, case):
    # sega and fixed under ntk_strong at ratio 2 on the target, against the none
    # baseline on the train grid: each axis over the ratio, at ratio 1
    (h, w, c), structure, blend, alphas, clamps = TRAJECTORIES[case]
    trajectory = {"steps": 3, "height": h, "width": w, "channels": c, "structure_params": structure,
                  "noise_blend": blend}
    runs = {"methods": [{"name": "sega", "scaling": "sega"}, {"name": "fixed", "scaling": "fixed"}],
            "baseline": {"name": "none", "rope": "none", "scaling": "none", "grid": "train"}}
    config = {"rope": {"dim": TRAJECTORY_DIM, "method": "ntk_strong", "ratio": 2.0},
              "trajectory": {**trajectory, **runs}}
    stdout, out = run_files(tmp_path, "trajectory", config)
    assert stdout.splitlines() == [f"wrote {out / name}" for name in TRAJECTORY_FILES]

    target_cfg = TrajectoryConfig(**trajectory)
    train_cfg = TrajectoryConfig(**{**trajectory, "height": h // 2, "width": w // 2})
    theta, train_theta = ntk_strong_theta(TRAJECTORY_DIM), theta_direct(10000.0, TRAJECTORY_DIM)
    m_ref = reference_scale_direct(2.0, "power")
    fixed, unit = [m_ref] * len(theta), [1.0] * len(theta)
    steps = []
    for step in range(3):
        target = generate_latent(target_cfg, step, structure_field(target_cfg))
        train = generate_latent(train_cfg, step, structure_field(train_cfg))
        axis_h, axis_w = modulate_direct(target.values, theta, theta, 2.0)["axes"]
        steps.append({
            "flatness": axis_h["SF"], "sigma": axis_h["sigma"], "m_h": axis_h["m"], "m_w": axis_w["m"],
            "heat": heatmap_row(target),
            "mean_entropy": {"sega": mean_entropy(target, step, theta, axis_h["m"], axis_w["m"]),
                             "fixed": mean_entropy(target, step, theta, fixed, fixed),
                             "none": mean_entropy(train, step, train_theta, unit, unit)},
        })
    assert any(min(s["m_h"] + s["m_w"]) == 0.05 * m_ref for s in steps) == clamps
    deltas = [[s["mean_entropy"][name] - s["mean_entropy"]["none"] for name in ("sega", "fixed")] for s in steps]
    abs_means = {name: math.fsum(abs(d[j]) for d in deltas) / 3 for j, name in enumerate(("sega", "fixed"))}

    m_header = ["step"] + [f"m_{d}" for d in range(len(theta))]
    assert_table_close(out / "scaling_map_H.csv", m_header, [s["m_h"] for s in steps])
    assert_table_close(out / "scaling_map_W.csv", m_header, [s["m_w"] for s in steps])
    assert_table_close(out / "entropy_trace.csv", ["step", "sega", "fixed"], deltas)
    heat_header = ["step"] + [f"bin_{b}" for b in range(min(h, w) // 2)]
    assert_table_close(out / "spectral_heatmap.csv", heat_header, [s["heat"] for s in steps])

    summary = json.loads((out / "summary.json").read_text())
    assert trajectory.items() <= summary["config"]["trajectory"].items()
    assert summary["scaling_map_method"] == "sega" and summary["degenerate_heatmap_rows"] == []
    for step, (got, want) in enumerate(zip(summary["per_step"], steps)):
        assert got["step"] == step and list(got["mean_entropy"]) == ["sega", "fixed", "none"]
        for key, value in (("alpha", alphas[step]), ("time", 1.0 - step / 2), ("flatness", want["flatness"]),
                           ("sigma", want["sigma"]), *want["mean_entropy"].items()):
            printed = got[key] if key in got else got["mean_entropy"][key]
            assert_printed_close(printed, value, f"per_step[{step}].{key}")
    for name, value in abs_means.items():
        assert_printed_close(summary["entropy_delta_abs_mean"][name], value, f"{name} abs delta mean")
    comparison = summary["entropy_shift_comparison"]
    assert (comparison["sega_method"], comparison["fixed_method"]) == ("sega", "fixed")
    assert_printed_close(comparison["sega_abs_delta_mean"], abs_means["sega"], "sega_abs_delta_mean")
    assert_printed_close(comparison["fixed_abs_delta_mean"], abs_means["fixed"], "fixed_abs_delta_mean")
    assert comparison["sega_no_worse"] == (abs_means["sega"] <= abs_means["fixed"])


def test_heatmap_matches_oracle(tmp_path):
    # 16x16 at the default 8 bins puts 37 samples on a ring edge
    trajectory = {"steps": 3, "height": 16, "width": 16, "channels": 2, "structure_params": LEAKY}
    stdout, out = run_files(tmp_path, "heatmap", {"trajectory": trajectory})
    assert stdout.splitlines() == [f"wrote {out / name}" for name in ("spectral_heatmap.csv", "summary.json")]
    cfg = TrajectoryConfig(**trajectory)
    rows = [heatmap_row(generate_latent(cfg, step, structure_field(cfg))) for step in range(3)]
    assert_table_close(out / "spectral_heatmap.csv", ["step"] + [f"bin_{b}" for b in range(8)], rows)
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["config", "degenerate_heatmap_rows"] and summary["degenerate_heatmap_rows"] == []
