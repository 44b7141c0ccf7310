"""CLI surface: flags, exit codes, output formats, run-to-run determinism."""

import contextlib
import gc
import io
import json
import math
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sega import LatentGrid, TrajectoryConfig, write_latent
from sega.cli import main
from sega.config import load_experiment_config
from sega.spectral import SegaConfig, reference_scale
from sega.tensorio import MAX_STEPS
from oracles import dense_softmax

REPO = Path(__file__).resolve().parents[1]
PI_CONFIG = '{"rope": {"method": "pi", "dim": 8}}'
TRAJECTORY_CONFIG = REPO / "configs" / "trajectory_small.json"
HEATMAP_CONFIG = REPO / "configs" / "heatmap_noise.json"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def noise_latent(tmp_path):
    gen = np.random.default_rng(2024)
    grid = LatentGrid(gen.standard_normal((16, 16, 4)))
    path = tmp_path / "noise.segl"
    write_latent(grid, path)
    return path


def parse_csv(text):
    lines = [l for l in text.strip().splitlines()]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestRopeTable:
    def test_base_schedule(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "4", "--base", "10000", "--method", "none"])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header == ["d", "theta", "theta_prime", "wavelength"]
        assert float(rows[0][1]) == 1.0
        assert float(rows[1][1]) == 0.01
        assert float(rows[0][2]) == 1.0

    def test_pi_ratio_one_is_identity(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "pi", "--ratio", "1"])
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        for row in rows:
            assert row[1] == row[2]

    def test_missing_dim_exits_2(self, runner):
        res = runner.invoke(main, ["rope-table"])
        assert res.exit_code == 2
        assert "Usage" in res.output or "usage" in res.output

    def test_yarn_flags_only_with_yarn(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "pi", "--alpha", "1"])
        assert res.exit_code == 2

    def test_yarn_requires_train_len(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "yarn", "--ratio", "2"])
        assert res.exit_code == 2

    def test_yarn_adds_lambda_column(self, runner):
        res = runner.invoke(
            main,
            ["rope-table", "--dim", "8", "--method", "yarn", "--ratio", "2", "--train-len", "32"],
        )
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header[-1] == "lambda"
        lams = [float(r[-1]) for r in rows]
        assert all(0.0 <= l <= 1.0 for l in lams)

    def test_yarn_wavelength_past_float_range(self, runner):
        # 2*pi / theta over a subnormal train length overflows r to inf, whose
        # ramp is 1: every frequency is kept, and nothing warns
        argv = ["rope-table", "--dim", "8", "--method", "yarn", "--ratio", "2", "--train-len", "5e-324"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert all(row[2] == row[1] and row[-1] == "1" for row in rows)

    @pytest.mark.parametrize("flags", [["--dype-t", "0.5"], ["--dype-strong"]],
                             ids=["dype_t", "dype_strong"])
    def test_dype_flags_only_with_dype(self, runner, flags):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "ntk", *flags])
        assert res.exit_code == 2
        assert flags[0] in res.output and "only valid with --method dype" in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("method", [["--method", "none"], []], ids=["none", "default"])
    @pytest.mark.parametrize("ratio", ["4", "1"])
    def test_ratio_not_with_method_none(self, runner, method, ratio):
        # the base schedule has no ratio to apply, so one given would be ignored
        res = runner.invoke(main, ["rope-table", "--dim", "8", *method, "--ratio", ratio])
        assert res.exit_code == 2
        assert "--ratio is not valid with --method none" in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("method, given, defaults", [
        ("yarn", ["--train-len", "8"], ["--alpha", "1", "--beta", "32"]),
        ("yarn", ["--train-len", "8", "--beta", "16"], ["--alpha", "1"]),
        ("dype", [], ["--dype-t", "0", "--dype-p", "1"]),
        ("dype", ["--dype-t", "0.5"], ["--dype-p", "1"]),
    ])
    def test_omitted_flags_take_the_documented_defaults(self, runner, method, given, defaults):
        base = ["rope-table", "--dim", "16", "--method", method, "--ratio", "3", *given]
        omitted = runner.invoke(main, base)
        assert omitted.exit_code == 0, omitted.output
        assert omitted.output == runner.invoke(main, [*base, *defaults]).output


class TestModulate:
    def test_emits_per_axis_json(self, runner, noise_latent):
        res = runner.invoke(main, ["modulate", "--latent", str(noise_latent), "--ratio", "2"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        axes = payload["axes"]
        assert [a["axis"] for a in axes] == ["H", "W"]
        for a in axes:
            assert a["sigma"] < 0.2  # white-noise latent stays near-flat
            m = np.array(a["m"])
            # values travel through 9-significant-digit serialization
            assert abs(m.mean() - a["m_ref"]) < 1e-7
            assert abs(sum(a["s_corr"])) < 1e-7 * len(a["s_corr"])

    def test_reference_scale_at_ratio_two(self, runner, noise_latent):
        res = runner.invoke(main, ["modulate", "--latent", str(noise_latent), "--ratio", "2"])
        payload = json.loads(res.output)
        assert abs(payload["axes"][0]["m_ref"] - 1.057) <= 5e-4

    def test_missing_latent_exits_3(self, runner, tmp_path):
        res = runner.invoke(main, ["modulate", "--latent", str(tmp_path / "none.segl")])
        assert res.exit_code == 3

    def test_bad_config_exits_2(self, runner, noise_latent, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"rope": {"dims": 16}}')  # unknown key
        res = runner.invoke(
            main, ["modulate", "--latent", str(noise_latent), "--config", str(cfg)]
        )
        assert res.exit_code == 2

    def test_malformed_json_exits_2(self, runner, noise_latent, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        res = runner.invoke(
            main, ["modulate", "--latent", str(noise_latent), "--config", str(cfg)]
        )
        assert res.exit_code == 2

    def test_corrupt_latent_exits_3(self, runner, tmp_path):
        path = tmp_path / "corrupt.segl"
        path.write_bytes(b"XXXX" + bytes(40))
        res = runner.invoke(main, ["modulate", "--latent", str(path)])
        assert res.exit_code == 3

    def test_ratio_feeds_the_reference_scale_unsquared(self, runner, noise_latent, tmp_path):
        # R * R overflows at R = 1e200, but the reference scale R**0.08 is finite
        cfg = tmp_path / "pi.json"
        cfg.write_text(PI_CONFIG)
        argv = ["modulate", "--latent", str(noise_latent), "--config", str(cfg)]
        res = runner.invoke(main, [*argv, "--ratio", "1e200"])
        assert res.exit_code == 0, res.output
        m_ref = json.loads(res.output)["axes"][0]["m_ref"]
        assert math.isclose(m_ref, reference_scale(1e200, SegaConfig()), rel_tol=1e-8)
        # where R * R is finite, the same bytes as the config's own ratio
        cfg.write_text('{"rope": {"method": "pi", "dim": 8, "ratio": 3}}')
        assert runner.invoke(main, [*argv, "--ratio", "3"]).output == runner.invoke(main, argv).output

    def test_reference_scale_overflow_exits_2(self, runner, noise_latent, tmp_path):
        cfg = tmp_path / "kappa.json"
        cfg.write_text('{"sega": {"kappa": 5}}')
        res = runner.invoke(main, ["modulate", "--latent", str(noise_latent), "--config", str(cfg),
                                   "--ratio", "1e100"])
        assert res.exit_code == 2, res.output
        assert "reference scale overflows" in res.output
        assert res.stdout == ""


class TestSpectrum:
    def test_profiles_listed(self, runner, noise_latent):
        res = runner.invoke(main, ["spectrum", "--latent", str(noise_latent)])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header == ["profile", "bin", "energy", "occupied"]
        profiles = {r[0] for r in rows}
        assert profiles == {"axis_h", "axis_w", "radial"}
        assert all(float(r[2]) >= 0 for r in rows)

    @pytest.mark.parametrize("bins", ["1", "257", "100000000000000000000"])
    def test_bins_outside_token_count_exit_2(self, runner, noise_latent, bins):
        # past the 256 tokens of a 16 x 16 latent every extra bin is empty
        res = runner.invoke(main, ["spectrum", "--latent", str(noise_latent), "--bins", bins])
        assert res.exit_code == 2, res.output
        assert "--bins must lie in [2, 256]" in res.output

    def test_bins_up_to_token_count_accepted(self, runner, noise_latent):
        res = runner.invoke(main, ["spectrum", "--latent", str(noise_latent), "--bins", "256"])
        assert res.exit_code == 0, res.output
        assert sum(r[0] == "radial" for r in parse_csv(res.output)[1]) == 256


class TestAttnMapAndEntropy:
    @pytest.mark.parametrize("command", [["entropy"], ["attn-map", "--query-h", "3", "--query-w", "5"]],
                             ids=["entropy", "attn_map"])
    def test_flatness_fault_exits_2(self, runner, noise_latent, tmp_path, command):
        # radial bins floored at 1e308 overflow the flatness's arithmetic mean
        config = tmp_path / "eps.json"
        config.write_text('{"sega": {"eps": 1e308}}')
        res = runner.invoke(main, [*command, "--latent", str(noise_latent), "--config", str(config),
                                   "--scaling", "sega"])
        assert res.exit_code == 2, res.output
        assert "flatness must lie in (0, 1]" in res.output
        assert res.stdout == ""

    def test_attn_map_shape_and_normalization(self, runner, noise_latent):
        res = runner.invoke(
            main,
            ["attn-map", "--latent", str(noise_latent), "--query-h", "3", "--query-w", "5"],
        )
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert len(rows) == 16 and len(rows[0]) == 17
        total = sum(float(x) for row in rows for x in row[1:])
        assert math.isclose(total, 1.0, abs_tol=1e-6)

    def test_attn_map_query_bounds(self, runner, noise_latent):
        res = runner.invoke(
            main,
            ["attn-map", "--latent", str(noise_latent), "--query-h", "99", "--query-w", "0"],
        )
        assert res.exit_code == 2

    def test_fixed_scale_changes_only_logit_sharpness(self, runner, noise_latent):
        base = runner.invoke(
            main,
            ["attn-map", "--latent", str(noise_latent), "--query-h", "0", "--query-w", "0",
             "--scaling", "none"],
        )
        c = 2.0
        scaled = runner.invoke(
            main,
            ["attn-map", "--latent", str(noise_latent), "--query-h", "0", "--query-w", "0",
             "--scaling", "fixed", "--fixed-value", str(c)],
        )
        assert base.exit_code == 0 and scaled.exit_code == 0
        _, rows_a = parse_csv(base.output)
        _, rows_b = parse_csv(scaled.output)
        w1 = np.array([[float(x) for x in row[1:]] for row in rows_a]).ravel()
        w2 = np.array([[float(x) for x in row[1:]] for row in rows_b]).ravel()
        expected = dense_softmax(c**2 * np.log(w1))
        np.testing.assert_allclose(w2, expected, atol=5e-6)

    @pytest.mark.parametrize("command", ["attn-map", "entropy"])
    @pytest.mark.parametrize("scaling", ["none", "sega"])
    def test_fixed_value_only_with_fixed_scaling(self, runner, noise_latent, command, scaling):
        query = QUERY if command == "attn-map" else []
        res = runner.invoke(main, [command, "--latent", str(noise_latent), *query,
                                   "--scaling", scaling, "--fixed-value", "3"])
        assert res.exit_code == 2, res.output
        assert "--fixed-value is only valid with --scaling fixed" in res.output
        assert res.stdout == ""

    def test_entropy_rows_and_mean(self, runner, noise_latent):
        res = runner.invoke(main, ["entropy", "--latent", str(noise_latent)])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header == ["token", "h", "w", "entropy"]
        assert rows[-1][0] == "mean"
        values = [float(r[3]) for r in rows[:-1]]
        assert len(values) == 256
        assert all(0.0 <= v <= math.log(256) + 1e-9 for v in values)
        assert math.isclose(float(rows[-1][3]), float(np.mean(values)), rel_tol=1e-6)


EXPECTED_FILES = [
    "scaling_map_H.csv",
    "scaling_map_W.csv",
    "entropy_trace.csv",
    "spectral_heatmap.csv",
    "summary.json",
]


class TestTrajectoryCommand:
    def test_outputs_and_determinism(self, runner, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            res = runner.invoke(
                main, ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(out)]
            )
            assert res.exit_code == 0, res.output
        for name in EXPECTED_FILES:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_summary_contents(self, runner, tmp_path):
        out = tmp_path / "run"
        res = runner.invoke(
            main, ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(out)]
        )
        assert res.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["rope"]["dim"] == 16
        assert len(summary["per_step"]) == 6
        comp = summary["entropy_shift_comparison"]
        assert set(comp) >= {"sega_abs_delta_mean", "fixed_abs_delta_mean", "sega_no_worse"}

    def test_heatmap_rows_sum_to_one(self, runner, tmp_path):
        out = tmp_path / "run"
        res = runner.invoke(
            main, ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(out)]
        )
        assert res.exit_code == 0
        _, rows = parse_csv((out / "spectral_heatmap.csv").read_text())
        for row in rows:
            assert math.isclose(sum(float(x) for x in row[1:]), 1.0, abs_tol=1e-6)

    def test_unwritable_out_dir_exits_3(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        res = runner.invoke(
            main,
            ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(blocker / "sub")],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    @pytest.mark.parametrize("name", ["spectral_heatmap.csv", "summary.json"])
    def test_unwritable_output_file_exits_3(self, runner, tmp_path, command, name):
        # the directory is writable, but a directory stands where the file goes
        (tmp_path / "out" / name).mkdir(parents=True)
        res, _ = run_config(runner, tmp_path, command, small_config())
        assert res.exit_code == 3, res.output
        assert name in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("key, axis", [("block_h", "height"), ("block_w", "width")])
    def test_checker_block_past_a_c_long_runs(self, runner, tmp_path, key, axis):
        # 2**63 once overflowed the floor division and exited 1; every output but the
        # config echo equals the run whose block is the whole axis
        outputs = []
        for block in (2**63, SMALL_TRAJECTORY[axis]):
            cfg = small_config({"structure_kind": "checker", "structure_params": {key: block}})
            res, out = run_config(runner, tmp_path, "trajectory", cfg)
            assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_bytes()
                            for name in EXPECTED_FILES if name != "summary.json"])
        assert outputs[0] == outputs[1]

    def test_missing_config_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["trajectory", "--config", str(tmp_path / "none.json"), "--out-dir", str(tmp_path / "o")],
        )
        assert res.exit_code == 2


class TestHelpText:
    @pytest.mark.parametrize(
        "cmd", ["modulate", "attn-map", "entropy", "trajectory", "heatmap"]
    )
    def test_config_defaults_documented(self, runner, cmd):
        res = runner.invoke(main, [cmd, "--help"])
        assert res.exit_code == 0
        assert "kappa=0.08" in res.output
        assert "gamma=1.5" in res.output

    @pytest.mark.parametrize(
        "cmd",
        ["rope-table", "modulate", "spectrum", "attn-map", "entropy", "trajectory", "heatmap"],
    )
    def test_every_subcommand_has_help(self, runner, cmd):
        res = runner.invoke(main, [cmd, "--help"])
        assert res.exit_code == 0

    def test_logit_scale_sharpens_entropy(self, runner, noise_latent):
        plain = runner.invoke(main, ["entropy", "--latent", str(noise_latent)])
        sharp = runner.invoke(
            main, ["entropy", "--latent", str(noise_latent), "--logit-scale", "3.0"]
        )
        mean = lambda out: float(parse_csv(out)[1][-1][3])
        assert mean(sharp.output) < mean(plain.output)


class TestHeatmapCommand:
    def test_heatmap_outputs(self, runner, tmp_path):
        out1 = tmp_path / "h1"
        out2 = tmp_path / "h2"
        for out in (out1, out2):
            res = runner.invoke(
                main, ["heatmap", "--config", str(HEATMAP_CONFIG), "--out-dir", str(out)]
            )
            assert res.exit_code == 0, res.output
        assert (out1 / "spectral_heatmap.csv").read_bytes() == (out2 / "spectral_heatmap.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["degenerate_heatmap_rows"] == []


SMALL_TRAJECTORY = {"steps": 3, "seed": 1, "height": 8, "width": 8, "channels": 1}
TARGET_BASELINE = {"name": "baseline", "rope": "none", "scaling": "none", "grid": "target"}
FILE_STRUCTURE = {"structure_kind": "file", "structure_params": {"path": "{dir}/s4.segl"}}


def small_config(trajectory=None, rope=None):
    return {"rope": {"dim": 8, **(rope or {})}, "trajectory": {**SMALL_TRAJECTORY, **(trajectory or {})}}


def run_config(runner, tmp_path, command, cfg):
    """Write cfg ({dir} standing for tmp_path) beside a 4x4x1 latent and run command on it."""
    write_latent(LatentGrid(np.random.default_rng(3).standard_normal((4, 4, 1))),
                 tmp_path / "s4.segl")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace("{dir}", str(tmp_path)))
    out = tmp_path / "out"
    return runner.invoke(main, [command, "--config", str(path), "--out-dir", str(out)]), out


# Each config is malformed in one way; (config, exit code) with 3 for file faults.
MALFORMED_CONFIGS = {
    "missing_structure_file": (small_config(
        {"structure_kind": "file", "structure_params": {"path": "{dir}/nope.segl"},
         "baseline": TARGET_BASELINE}), 3),
    "structure_file_shape": (small_config({**FILE_STRUCTURE, "baseline": TARGET_BASELINE}), 3),
    "file_structure_on_train_grid": (small_config({**FILE_STRUCTURE, "height": 4, "width": 4}), 2),
    "file_structure_without_path": (small_config(
        {"structure_kind": "file", "structure_params": {}, "baseline": TARGET_BASELINE}), 2),
    "constant_blend_without_value": (small_config({"noise_blend": {"kind": "constant"}}), 2),
    "table_blend_without_values": (small_config({"noise_blend": {"kind": "table"}}), 2),
    "checker_block_zero": (small_config(
        {"structure_kind": "checker", "structure_params": {"block_h": 0}}), 2),
    "cycles_not_a_number": (small_config({"structure_params": {"cycles_w": "x"}}), 2),
    "band_low_not_below_high": (small_config(
        {"structure_kind": "band_limited", "structure_params": {"low": 0.5, "high": 0.2}}), 2),
    "yarn_alpha_not_below_beta": (small_config(
        rope={"method": "yarn", "yarn_alpha": 40.0, "yarn_beta": 32.0}), 2),
    "dype_p_zero": (small_config(rope={"method": "dype", "dype_p": 0}), 2),
    "ratio_not_a_number": (small_config(rope={"ratio": "x"}), 2),
    "ratio_nan": (small_config(rope={"ratio": float("nan")}), 2),
    "base_zero": (small_config(rope={"base": 0}), 2),
    "ratio_overflows_ntk_base": (small_config(rope={"ratio": 1e300}), 2),
    "rope_not_an_object": ({"rope": 5}, 2),
    "n_bins_iso_above_tokens": ({**small_config(), "sega": {"n_bins_iso": 65}}, 2),
    "n_bins_iso_overflows": ({**small_config(), "sega": {"n_bins_iso": 10**20}}, 2),
}

# Each config holds one value of the wrong JSON type, or one that overflows at load;
# (config, the key its message names). All exit 2.
TYPED_FAULTS = {
    "dype_strong_string": (small_config(rope={"dype_strong": "false"}), "rope.dype_strong"),
    "temperature_string": (small_config({"methods": [{"name": "a", "temperature": "no"}]}),
                           "trajectory.methods[0].temperature"),
    "height_fraction": (small_config({"height": 16.9}), "trajectory.height"),
    "dim_fraction": (small_config(rope={"dim": 16.5}), "rope.dim"),
    "steps_bool": (small_config({"steps": True}), "trajectory.steps"),
    "height_string": (small_config({"height": "16"}), "trajectory.height"),
    "ratio_numeric_string": (small_config(rope={"ratio": "2"}), "rope.ratio"),
    "kappa_string_nan": ({**small_config(), "sega": {"kappa": "nan"}}, "sega.kappa"),
    "gamma_string_inf": ({**small_config(), "sega": {"gamma": "inf"}}, "sega.gamma"),
    "eps_string_nan": ({**small_config(), "sega": {"eps": "nan"}}, "sega.eps"),
    "kappa_overflows_reference": ({**small_config(), "sega": {"kappa": 1e308}}, "sega.kappa"),
    # rejected from the sizes alone, before anything is allocated
    "grid_past_addressable": (small_config({"height": 2**32, "width": 2**32}),
                              "height * width * channels"),
    "method_name_list": (small_config({"methods": [{"name": ["a"]}]}), "trajectory.methods[0]"),
    "checker_block_fraction": (small_config(
        {"structure_kind": "checker", "structure_params": {"block_h": 1.5}}), "block_h"),
    # a string "nan" once loaded as NaN, and the NaN field was zeroed: a run without structure
    **{
        f"{key}_string_{text}": (
            small_config({"structure_kind": kind, "structure_params": {key: text}}), key)
        for key, kind in (("cycles_w", "sinusoid"), ("phase", "sinusoid"),
                          ("low", "band_limited"), ("high", "band_limited"))
        for text in ("nan", "inf", "3")
    },
    "cycles_h_bool": (small_config({"structure_params": {"cycles_h": True}}), "cycles_h"),
    "blend_constant_string": (small_config({"noise_blend": {"kind": "constant", "value": "1"}}),
                              "noise_blend.value"),
    "blend_table_strings": (small_config({"noise_blend": {"kind": "table", "values": ["1", "0.5", "0"]}}),
                            "noise_blend.values[0]"),
    "blend_table_one_string": (
        small_config({"noise_blend": {"kind": "table", "values": [1, "0.5", 0]}}),
        "noise_blend.values[1]"),
    # once read with str() and dict(), so each loaded and ran, or failed naming no key
    "output_dir_number": ({**small_config(), "output": {"dir": 5}}, "output.dir"),
    "structure_params_pairs": (small_config({"structure_params": [["cycles_w", 3.0]]}),
                               "trajectory.structure_params"),
    "noise_blend_pairs": (small_config({"noise_blend": [["kind", "linear"]]}),
                          "trajectory.noise_blend"),
    "structure_params_string": (small_config({"structure_params": "ab"}),
                                "trajectory.structure_params"),
    # once read_latent(5) raised a TypeError, and the run exited 1
    "file_path_number": (small_config(
        {"structure_kind": "file", "structure_params": {"path": 5}, "baseline": TARGET_BASELINE}),
        "path"),
    # once the cosine's argument overflowed, and the NaN field was zeroed
    "cycles_h_overflow": (small_config({"structure_params": {"cycles_h": 1e308}}), "cycles_h"),
    "cycles_w_overflow": (small_config({"structure_params": {"cycles_w": 1e308}}), "cycles_w"),
    "sinusoid_argument_overflow": (
        small_config({"structure_params": {"cycles_h": 2.5e307, "cycles_w": 2.5e307}}), "phase"),
}
# Each config holds one well-typed value out of its range; (config, the dotted key
# its message names). All exit 2. These messages once named a bare field.
RANGE_FAULTS = {
    "ref_form_unknown": ({**small_config(), "sega": {"ref_form": "x"}}, "sega.ref_form"),
    "gamma_below_one": ({**small_config(), "sega": {"gamma": 0.5}}, "sega.gamma"),
    "steps_zero": (small_config({"steps": 0}), "trajectory.steps"),
    "steps_huge": (small_config({"steps": 2**63}), "trajectory.steps"),
    "structure_kind_unknown": (small_config({"structure_kind": "x"}), "trajectory.structure_kind"),
    "height_one": (small_config({"height": 1}), "trajectory.height"),
    "channels_zero": (small_config({"channels": 0}), "trajectory.channels"),
    "blend_kind_unknown": (small_config({"noise_blend": {"kind": "x"}}),
                           "trajectory.noise_blend.kind"),
    "blend_constant_above_one": (small_config({"noise_blend": {"kind": "constant", "value": 2}}),
                                 "trajectory.noise_blend"),
    "blend_table_short": (small_config({"noise_blend": {"kind": "table", "values": [1, 0]}}),
                          "trajectory.noise_blend.values"),
    "ratio_below_one": (small_config(rope={"ratio": 0.5}), "rope.ratio"),
    "ratio_w_below_one": (small_config(rope={"ratio_w": 0.5}), "rope.ratio_w"),
    "dim_odd": (small_config(rope={"dim": 7}), "rope.dim"),
    # past MAX_DIM: refused before a schedule, the features or the keys are allocated
    "dim_above_bound": (small_config(rope={"dim": 1026}), "rope.dim"),
    "dim_huge": (small_config(rope={"dim": 10**18}), "rope.dim"),
    "method_rope_unknown": (small_config({"methods": [{"name": "a", "rope": "x"}]}),
                            "trajectory.methods[0].rope"),
    "method_name_empty": (small_config({"methods": [{"name": ""}]}), "trajectory.methods[0].name"),
    "method_scaling_unknown": (small_config({"methods": [{"name": "a", "scaling": "x"}]}),
                               "trajectory.methods[0].scaling"),
    "baseline_grid_unknown": (small_config({"baseline": {"name": "b", "grid": "x"}}),
                              "trajectory.baseline.grid"),
}
MALFORMED_CONFIGS.update(
    {case: (cfg, 2) for faults in (TYPED_FAULTS, RANGE_FAULTS) for case, (cfg, _) in faults.items()}
)


class TestMalformedConfigs:
    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_exit_code_without_traceback(self, runner, tmp_path, command, case):
        cfg, code = MALFORMED_CONFIGS[case]
        res, _ = run_config(runner, tmp_path, command, cfg)
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case", sorted(TYPED_FAULTS))
    def test_typed_fault_names_its_key(self, runner, tmp_path, case):
        cfg, key = TYPED_FAULTS[case]
        res, _ = run_config(runner, tmp_path, "trajectory", cfg)
        assert key in res.output

    @pytest.mark.parametrize("case", sorted(TYPED_FAULTS))
    def test_typed_fault_names_its_key_in_heatmap(self, runner, tmp_path, case):
        cfg, key = TYPED_FAULTS[case]
        res, _ = run_config(runner, tmp_path, "heatmap", cfg)
        assert key in res.output

    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    @pytest.mark.parametrize("case", sorted(RANGE_FAULTS))
    def test_range_fault_names_its_dotted_key(self, runner, tmp_path, command, case):
        cfg, key = RANGE_FAULTS[case]
        res, _ = run_config(runner, tmp_path, command, cfg)
        assert res.exit_code == 2, res.output
        assert f"{key} " in res.output
        assert res.stdout == ""
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    def test_ratio_shorthand_fault_names_the_shorthand(self, runner, tmp_path, command):
        # the shorthand expands into ratio_h and ratio_w, keys this config does not hold
        res, _ = run_config(runner, tmp_path, command, small_config(rope={"ratio": 0.5}))
        assert res.exit_code == 2, res.output
        assert "rope.ratio must be >= 1" in res.output
        assert "ratio_h" not in res.output
        assert res.stdout == ""

    def test_logit_overflow_during_a_run_exits_2(self, runner, tmp_path):
        # m_ref = 2**1000 is finite, so the config loads; the squared logits are not
        cfg = {**small_config(), "sega": {"kappa": 1000}}
        res, _ = run_config(runner, tmp_path, "trajectory", cfg)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "attention logits overflowed" in res.output

    def test_file_structure_on_train_grid_is_named(self, runner, tmp_path):
        res, _ = run_config(runner, tmp_path, "trajectory",
                            MALFORMED_CONFIGS["file_structure_on_train_grid"][0])
        assert "structure_kind 'file' cannot run on a train grid" in res.output

    def test_n_bins_iso_bound_is_the_token_count(self, runner, tmp_path):
        res, _ = run_config(runner, tmp_path, "heatmap", {**small_config(), "sega": {"n_bins_iso": 65}})
        assert "sega.n_bins_iso must not exceed trajectory height * width" in res.output
        res, out = run_config(runner, tmp_path, "heatmap", {**small_config(), "sega": {"n_bins_iso": 64}})
        assert res.exit_code == 0, res.output
        assert (out / "spectral_heatmap.csv").read_text().splitlines()[0].count(",bin_") == 64

    @pytest.mark.parametrize("rope, baseline", [
        ({"ratio": 1.0}, {}),  # the train grid is the target grid
        ({"ratio": 2.0}, {"baseline": TARGET_BASELINE}),
    ])
    def test_file_structure_runs_where_the_file_fits(self, runner, tmp_path, rope, baseline):
        cfg = small_config({**FILE_STRUCTURE, "height": 4, "width": 4, **baseline}, rope)
        res, out = run_config(runner, tmp_path, "trajectory", cfg)
        assert res.exit_code == 0, res.output
        assert (out / "summary.json").exists()


# Every config key and the JSON type it takes, written out by hand so that a key the
# loader stops checking, or checks against the wrong type, shows up here.
CONFIG_KEYS = {
    "rope": "object", "sega": "object", "trajectory": "object", "output": "object",
    "rope.dim": "integer", "rope.base": "number", "rope.method": "string",
    "rope.ratio": "number", "rope.ratio_h": "number", "rope.ratio_w": "number",
    "rope.yarn_alpha": "number", "rope.yarn_beta": "number", "rope.dype_p": "number",
    "rope.dype_strong": "boolean",
    "sega.kappa": "number", "sega.gamma": "number", "sega.ref_form": "string",
    "sega.eps": "number", "sega.n_bins_iso": "integer or null",
    "trajectory.steps": "integer", "trajectory.seed": "integer", "trajectory.height": "integer",
    "trajectory.width": "integer", "trajectory.channels": "integer",
    "trajectory.structure_kind": "string", "trajectory.structure_params": "object",
    "trajectory.noise_blend": "object", "trajectory.methods": "list",
    "trajectory.baseline": "object",
    **{f"trajectory.{spec}.{key}": kind
       for spec in ("methods[0]", "baseline")
       for key, kind in (("name", "string"), ("rope", "string"), ("scaling", "string"),
                         ("temperature", "boolean"), ("grid", "string"))},
    "output.dir": "string",
}
# One value of each JSON type; a list of pairs and a numeric string are the forms
# that dict(), int() and float() would once have coerced.
JSON_VALUES = {"string": "8", "integer": 8, "number": 8.5, "boolean": True,
               "list": [["cycles_w", 3.0]], "object": {"kind": "linear"}, "null": None}


def with_key(path, value):
    """small_config() with the key at path (as CONFIG_KEYS writes it) set to value."""
    cfg = small_config()
    if path.startswith("trajectory.methods[0]."):
        cfg["trajectory"]["methods"] = [{"name": "m", path.rsplit(".", 1)[1]: value}]
    elif path.startswith("trajectory.baseline."):
        cfg["trajectory"]["baseline"] = {"name": "b", path.rsplit(".", 1)[1]: value}
    elif "." in path:
        section, key = path.split(".")
        cfg.setdefault(section, {})[key] = value
    else:
        cfg[path] = value
    return cfg


WRONG_TYPES = [
    (path, kind)
    for path, takes in CONFIG_KEYS.items()
    for kind in JSON_VALUES
    if kind not in takes and not (kind == "integer" and takes == "number")
]


class TestConfigSchema:
    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    @pytest.mark.parametrize("path, kind", WRONG_TYPES)
    def test_wrong_json_type_is_refused_by_name(self, runner, tmp_path, command, path, kind):
        res, _ = run_config(runner, tmp_path, command, with_key(path, JSON_VALUES[kind]))
        assert res.exit_code == 2, res.output
        assert path in res.output
        assert res.stdout == ""
        assert "Traceback" not in res.output

    def test_readme_config_block_is_the_defaults(self):
        text = (REPO / "README.md").read_text()
        block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
        readme = json.loads(re.sub(r"//.*", "", block))
        assert load_experiment_config(readme).snapshot() == load_experiment_config({}).snapshot()

    @pytest.mark.parametrize("blend", [{"kind": "linear"}, {"kind": "constant", "value": 0.5}])
    def test_untabled_blend_loads_in_constant_memory(self, blend, monkeypatch):
        # only a table has a weight per step to check; a million-step linear blend
        # once built a 38.6 MiB table at load, so an untabled blend is checked at
        # step 0 alone
        blend_at, steps = TrajectoryConfig._blend_at, []
        monkeypatch.setattr(TrajectoryConfig, "_blend_at",
                            lambda cfg, step: steps.append(step) or blend_at(cfg, step))
        load_experiment_config({"trajectory": {"steps": MAX_STEPS, "noise_blend": blend}})
        assert steps == [0]

    @pytest.mark.parametrize("trajectory, where", [
        ({"structure_params": {"cycle_w": 3.0}}, "trajectory.structure_params"),
        ({"structure_kind": "checker", "structure_params": {"block_h": 2, "cycles_w": 4.0}},
         "trajectory.structure_params"),
        ({"structure_kind": "band_limited", "structure_params": {"low": 0.1, "hi": 0.3}},
         "trajectory.structure_params"),
        ({"noise_blend": {"kind": "linear", "value": 0.3}}, "trajectory.noise_blend"),
        ({"noise_blend": {"value": 0.3}}, "trajectory.noise_blend"),
        ({"noise_blend": {"kind": "constant", "value": 0.3, "values": [1, 0.5, 0]}},
         "trajectory.noise_blend"),
        ({"noise_blend": {"kind": "table", "values": [1, 0.5, 0], "value": 1}},
         "trajectory.noise_blend"),
    ], ids=["sinusoid", "checker", "band_limited", "linear", "kindless", "constant", "table"])
    def test_key_its_kind_does_not_read_is_refused(self, runner, tmp_path, trajectory, where):
        # once loaded, and the run fell back to the default the typo meant to replace
        res, _ = run_config(runner, tmp_path, "heatmap", small_config(trajectory))
        assert res.exit_code == 2, res.output
        assert f"unknown key(s) in {where}: " in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("kind", ["sinusoid", "band_limited", "checker"])
    def test_default_structure_params_load_for_every_kind(self, kind):
        cfg = load_experiment_config({"trajectory": {"structure_kind": kind}})
        assert cfg.snapshot()["trajectory"]["structure_params"] == {"cycles_w": 4.0}

    def test_loaded_dicts_are_copies(self):
        trajectory = {"structure_params": {"cycles_w": 3.0}, "noise_blend": {"kind": "linear"}}
        cfg = load_experiment_config({"trajectory": trajectory})
        assert cfg.trajectory.structure_params == trajectory["structure_params"]
        assert cfg.trajectory.structure_params is not trajectory["structure_params"]
        assert cfg.trajectory.noise_blend is not trajectory["noise_blend"]


QUERY = ["--query-h", "3", "--query-w", "5"]

# Each flag set is rejected up front or overflows the logits; all exit 2.
FLAG_FAULTS = {
    "attn_map_logit_scale_zero": ["attn-map", *QUERY, "--logit-scale", "0"],
    "entropy_logit_scale_negative": ["entropy", "--logit-scale", "-1"],
    "entropy_logit_scale_nan": ["entropy", "--logit-scale", "nan"],
    "entropy_logit_scale_inf": ["entropy", "--logit-scale", "inf"],
    "entropy_logit_scale_overflow": ["entropy", "--logit-scale", "1e308"],
    "attn_map_logit_scale_overflow": ["attn-map", *QUERY, "--logit-scale", "1e308"],
    "entropy_fixed_value_nan": ["entropy", "--scaling", "fixed", "--fixed-value", "nan"],
    "attn_map_fixed_value_inf": ["attn-map", *QUERY, "--scaling", "fixed", "--fixed-value", "inf"],
    "entropy_fixed_value_overflow": ["entropy", "--scaling", "fixed", "--fixed-value", "1e300"],
    "entropy_feature_seed_negative": ["entropy", "--feature-seed", "-1"],
    "attn_map_feature_seed_negative": ["attn-map", *QUERY, "--feature-seed", "-1"],
}


class TestFlagFaults:
    @pytest.mark.parametrize("case", sorted(FLAG_FAULTS))
    def test_exit_2_without_traceback(self, runner, noise_latent, case):
        command, *flags = FLAG_FAULTS[case]
        res = runner.invoke(main, [command, "--latent", str(noise_latent), *flags])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("dim", ["1026", str(10**18)])
    def test_rope_table_dim_above_bound_exits_2(self, runner, dim):
        # refused by the flag's range, before dim / 2 frequencies are allocated
        res = runner.invoke(main, ["rope-table", "--dim", dim])
        assert res.exit_code == 2, res.output
        assert "'--dim'" in res.output
        assert res.stdout == ""

    def test_rope_table_ntk_overflow_exits_2(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "ntk", "--ratio", "1e300"])
        assert res.exit_code == 2, res.output
        assert "overflows" in res.output

    @pytest.mark.parametrize("command, flags", [
        ("rope-table", ["--method", "none"]),
        ("rope-table", ["--method", "pi"]),
        ("rope-table", ["--method", "ntk"]),
        ("rope-table", ["--method", "yarn", "--train-len", "8"]),
        ("modulate", []),
    ], ids=["rope_table_none", "rope_table_pi", "rope_table_ntk", "rope_table_yarn", "modulate"])
    def test_nan_ratio_exits_2(self, runner, noise_latent, command, flags):
        # NaN compares false with everything, so a `ratio < 1` check lets it through
        source = ["--dim", "8"] if command == "rope-table" else ["--latent", str(noise_latent)]
        res = runner.invoke(main, [command, *source, *flags, "--ratio", "nan"])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--ratio': must be finite and >= 1" in res.output

    @pytest.mark.parametrize("flags, message", [
        (["--method", "dype", "--ratio", "2", "--dype-p", "nan"], "'--dype-p': must be finite"),
        (["--method", "dype", "--ratio", "2", "--dype-p", "inf", "--dype-t", "0.5"],
         "'--dype-p': must be finite"),
        (["--method", "yarn", "--ratio", "2", "--train-len", "inf"], "'--train-len': must be finite"),
        (["--method", "pi", "--ratio", "inf"], "'--ratio': must be finite"),
        (["--method", "dype", "--ratio", "inf", "--dype-t", "1"], "'--ratio': must be finite"),
        (["--base", "nan"], "'--base': must be finite"),
    ], ids=["dype_p_nan", "dype_p_inf", "train_len_inf", "pi_ratio_inf", "dype_ratio_inf",
            "base_nan"])
    def test_non_finite_rope_flag_exits_2(self, runner, flags, message):
        res = runner.invoke(main, ["rope-table", "--dim", "8", *flags])
        assert res.exit_code == 2, res.output
        assert message in res.output

    @pytest.mark.parametrize("flags, flag", [
        (["--method", "dype", "--dype-t", "nan"], "'--dype-t'"),
        (["--method", "dype", "--dype-t", "1.5"], "'--dype-t'"),
        (["--method", "yarn", "--train-len", "8", "--alpha", "nan"], "'--alpha'"),
        (["--method", "yarn", "--train-len", "8", "--alpha", "-1"], "'--alpha'"),
        (["--method", "yarn", "--train-len", "8", "--beta", "nan"], "'--beta'"),
        (["--method", "dype", "--dype-p", "nan"], "'--dype-p'"),
        (["--method", "yarn", "--train-len", "inf"], "'--train-len'"),
        (["--base", "nan"], "'--base'"),
        (["--ratio", "nan"], "'--ratio'"),
        (["--dim", "7"], "'--dim'"),
    ], ids=["dype_t_nan", "dype_t_above_one", "alpha_nan", "alpha_negative", "beta_nan",
            "dype_p_nan", "train_len_inf", "base_nan", "ratio_nan", "dim_odd"])
    def test_range_fault_names_its_flag(self, runner, flags, flag):
        # the last --dim given wins, so "--dim 7" replaces the 8
        res = runner.invoke(main, ["rope-table", "--dim", "8", *flags])
        assert res.exit_code == 2, res.output
        assert flag in res.output
        assert res.stdout == ""
        assert "Traceback" not in res.output

    def test_cli_never_builds_the_dense_matrix(self, tmp_path):
        # One float64 N x N matrix at N = 4096 is 128 MiB; the blocked path peaks
        # near 17 MiB on a 64 x 64 latent.
        path = tmp_path / "big.segl"
        write_latent(LatentGrid(np.random.default_rng(5).standard_normal((64, 64, 4))), path)
        latent = ["--latent", str(path)]
        for argv in (["entropy", *latent, "--scaling", "sega"], ["attn-map", *latent, *QUERY]):
            buf = io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(buf):
                    main.main(argv, standalone_mode=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert buf.getvalue()
            assert peak < 48 * 2**20, (argv[0], peak)


# Every numeric flag of the latent and table commands, in each context that reads
# it, takes each of these values; the last of a repeated flag wins.
SWEEP_VALUES = ["nan", "inf", "-inf", "0", "-1", "-0.0", "1e308", str(2**63), "5e-324"]
ROPE_CONTEXTS = {
    "none": [],
    "pi": ["--method", "pi", "--ratio", "2"],
    "ntk": ["--method", "ntk", "--ratio", "2"],
    "ntk_strong": ["--method", "ntk_strong", "--ratio", "2"],
    "yarn": ["--method", "yarn", "--ratio", "2", "--train-len", "8"],
    "dype": ["--method", "dype", "--ratio", "2", "--dype-t", "0.5"],
}
FLAG_SWEEP = {
    **{f"rope_table_{m}_{flag[2:]}": ("rope-table", ["--dim", "8", *ctx], flag)
       for m, ctx in ROPE_CONTEXTS.items() for flag in ("--dim", "--base", "--ratio")},
    **{f"rope_table_yarn_{flag[2:]}": ("rope-table", ["--dim", "8", *ROPE_CONTEXTS["yarn"]], flag)
       for flag in ("--alpha", "--beta", "--train-len")},
    **{f"rope_table_dype_{flag[2:]}": ("rope-table", ["--dim", "8", *ROPE_CONTEXTS["dype"]], flag)
       for flag in ("--dype-t", "--dype-p")},
    "modulate_ratio": ("modulate", [], "--ratio"),
    "modulate_pi_ratio": ("modulate", ["--config", "{dir}/pi.json"], "--ratio"),
    "spectrum_bins": ("spectrum", [], "--bins"),
    "attn_map_query_h": ("attn-map", ["--query-w", "5"], "--query-h"),
    "attn_map_query_w": ("attn-map", ["--query-h", "3"], "--query-w"),
    **{f"{cmd.replace('-', '_')}_{scaling}_{flag[2:]}": (cmd, [*query, "--scaling", scaling], flag)
       for cmd, query in (("attn-map", QUERY), ("entropy", []))
       for scaling, flag in [("fixed", "--fixed-value")] + [
           (scaling, flag) for scaling in ("none", "fixed", "sega")
           for flag in ("--logit-scale", "--feature-seed")]},
}


class TestFlagSweep:
    @pytest.mark.parametrize("case", sorted(FLAG_SWEEP))
    def test_every_value_exits_cleanly(self, runner, tmp_path, case):
        # A documented exit code, no traceback, and nothing on stdout unless the
        # command succeeded, for every value; config keys are not swept here.
        command, context, flag = FLAG_SWEEP[case]
        source = []
        if command != "rope-table":
            source = ["--latent", str(tmp_path / "small.segl")]
            grid = LatentGrid(np.random.default_rng(8).standard_normal((8, 8, 4)))
            write_latent(grid, source[1])
            (tmp_path / "pi.json").write_text(PI_CONFIG)
        context = [arg.replace("{dir}", str(tmp_path)) for arg in context]
        for value in SWEEP_VALUES:
            res = runner.invoke(main, [command, *source, *context, flag, value])
            assert res.exit_code in (0, 2, 3), (value, res.output, res.exception)
            assert "Traceback" not in res.output, value
            assert res.exit_code == 0 or res.stdout == "", (value, res.stdout)


# Every numeric config key, in a context that reads it, takes each of these values
# (written into the JSON for SWEPT); the yarn and dype keys run under their own method.
CONFIG_SWEEP_VALUES = [math.inf, 0, -1, -0.0, 1e308, 2**63, 5e-324]
SWEPT = "@swept"
SWEEP_GRID = {"steps": 2, "seed": 0, "height": 4, "width": 4, "channels": 2}
STRUCTURE_KEYS = {"sinusoid": ("cycles_h", "cycles_w", "phase"), "checker": ("block_h", "block_w"),
                  "band_limited": ("low", "high")}
CONFIG_SWEEP = {
    **{f"rope_{key}": {"rope": {key: SWEPT}}
       for key in ("dim", "base", "ratio", "ratio_h", "ratio_w")},
    **{f"rope_{key}": {"rope": {"method": "yarn", "ratio": 2, key: SWEPT}}
       for key in ("yarn_alpha", "yarn_beta")},
    "rope_dype_p": {"rope": {"method": "dype", "ratio": 2, "dype_p": SWEPT}},
    **{f"sega_{key}": {"sega": {key: SWEPT}} for key in ("kappa", "gamma", "eps", "n_bins_iso")},
    **{f"trajectory_{key}": {"trajectory": {key: SWEPT}} for key in SWEEP_GRID},
    **{f"{kind}_{key}": {"trajectory": {"structure_kind": kind, "structure_params": {key: SWEPT}}}
       for kind, keys in STRUCTURE_KEYS.items() for key in keys},
    "blend_value": {"trajectory": {"noise_blend": {"kind": "constant", "value": SWEPT}}},
    "blend_values": {"trajectory": {"noise_blend": {"kind": "table", "values": [SWEPT, SWEPT]}}},
}


class TestConfigSweep:
    @pytest.mark.parametrize("case", sorted(CONFIG_SWEEP))
    def test_every_value_exits_cleanly(self, runner, tmp_path, case):
        # A documented exit code, no traceback, and nothing on stdout unless the
        # command succeeded, for every value and every command that reads a config.
        sections = CONFIG_SWEEP[case]
        cfg = {"rope": {"dim": 8, **sections.get("rope", {})}, "sega": sections.get("sega", {}),
               "trajectory": {**SWEEP_GRID, **sections.get("trajectory", {})}}
        latent, config, out = tmp_path / "grid.segl", tmp_path / "cfg.json", tmp_path / "out"
        write_latent(LatentGrid(np.random.default_rng(9).standard_normal((4, 4, 2))), latent)
        source = ["--latent", str(latent), "--config", str(config)]
        commands = [
            ["trajectory", "--config", str(config), "--out-dir", str(out)],
            ["heatmap", "--config", str(config), "--out-dir", str(out)],
            ["modulate", *source],
            ["entropy", *source, "--scaling", "sega"],
            ["attn-map", *source, "--scaling", "sega", "--query-h", "1", "--query-w", "2"],
        ]
        for value in CONFIG_SWEEP_VALUES:
            config.write_text(json.dumps(cfg).replace(json.dumps(SWEPT), json.dumps(value)))
            for argv in commands:
                res = runner.invoke(main, argv)
                assert res.exit_code in (0, 2, 3), (value, argv[0], res.output, res.exception)
                assert "Traceback" not in res.output, (value, argv[0])
                assert res.exit_code == 0 or res.stdout == "", (value, argv[0], res.stdout)


class TestConstantLatent:
    def test_modulate_and_entropy_succeed(self, runner, tmp_path):
        path = tmp_path / "const.segl"
        write_latent(LatentGrid(np.full((8, 8, 2), 0.5)), path)
        res = runner.invoke(main, ["modulate", "--latent", str(path)])
        assert res.exit_code == 0, res.output
        for axis in json.loads(res.output)["axes"]:
            assert axis["SF"] == 1 and axis["sigma"] == 0
            assert all(m == axis["m_ref"] for m in axis["m"])
        res = runner.invoke(main, ["entropy", "--latent", str(path), "--scaling", "sega"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    def test_constant_step_reported_degenerate(self, runner, tmp_path, command):
        # One checker block covers the grid, so the last, pure-structure step is constant.
        cfg = small_config({"structure_kind": "checker",
                            "structure_params": {"block_h": 8, "block_w": 8}})
        res, out = run_config(runner, tmp_path, command, cfg)
        assert res.exit_code == 0, res.output
        assert json.loads((out / "summary.json").read_text())["degenerate_heatmap_rows"] == [2]


class TestInProcessStdout:
    @pytest.mark.parametrize("command", [
        "rope-table", "modulate", "spectrum", "attn-map", "entropy", "trajectory", "heatmap",
    ])
    def test_captured_stdout_is_released(self, noise_latent, tmp_path, command):
        # An in-process call must not keep the stream it wrote to alive; each
        # retained capture would grow a long-lived caller's memory.
        latent = ["--latent", str(noise_latent)]
        out = ["--out-dir", str(tmp_path / "out")]
        argv = {
            "rope-table": ["--dim", "8"],
            "modulate": latent,
            "spectrum": latent,
            "attn-map": [*latent, *QUERY],
            "entropy": latent,
            "trajectory": ["--config", str(TRAJECTORY_CONFIG), *out],
            "heatmap": ["--config", str(HEATMAP_CONFIG), *out],
        }[command]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main([command, *argv], standalone_mode=False)
        assert buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None
