"""CLI surface: flags, exit codes, output formats, run-to-run determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sega import LatentGrid, write_latent
from sega.attention import softmax_rows
from sega.cli import main

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY_CONFIG = REPO / "configs" / "trajectory_small.json"
HEATMAP_CONFIG = REPO / "configs" / "heatmap_noise.json"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def noise_latent(tmp_path):
    gen = np.random.default_rng(2024)
    grid = LatentGrid.from_array(gen.standard_normal((16, 16, 4)))
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

    def test_dype_flags_only_with_dype(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "ntk", "--dype-t", "0.5"])
        assert res.exit_code == 2


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


class TestSpectrum:
    def test_profiles_listed(self, runner, noise_latent):
        res = runner.invoke(main, ["spectrum", "--latent", str(noise_latent)])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header == ["profile", "bin", "energy", "occupied"]
        profiles = {r[0] for r in rows}
        assert profiles == {"axis_h", "axis_w", "radial"}
        assert all(float(r[2]) >= 0 for r in rows)


class TestAttnMapAndEntropy:
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
        expected = softmax_rows(c**2 * np.log(w1)[None, :])[0]
        np.testing.assert_allclose(w2, expected, atol=5e-6)

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
    write_latent(LatentGrid.from_array(np.random.default_rng(3).standard_normal((4, 4, 1))),
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
}


class TestMalformedConfigs:
    @pytest.mark.parametrize("command", ["trajectory", "heatmap"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_exit_code_without_traceback(self, runner, tmp_path, command, case):
        cfg, code = MALFORMED_CONFIGS[case]
        res, _ = run_config(runner, tmp_path, command, cfg)
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    def test_file_structure_on_train_grid_is_named(self, runner, tmp_path):
        res, _ = run_config(runner, tmp_path, "trajectory",
                            MALFORMED_CONFIGS["file_structure_on_train_grid"][0])
        assert "structure_kind 'file' cannot run on a train grid" in res.output

    @pytest.mark.parametrize("rope, baseline", [
        ({"ratio": 1.0}, {}),  # the train grid is the target grid
        ({"ratio": 2.0}, {"baseline": TARGET_BASELINE}),
    ])
    def test_file_structure_runs_where_the_file_fits(self, runner, tmp_path, rope, baseline):
        cfg = small_config({**FILE_STRUCTURE, "height": 4, "width": 4, **baseline}, rope)
        res, out = run_config(runner, tmp_path, "trajectory", cfg)
        assert res.exit_code == 0, res.output
        assert (out / "summary.json").exists()


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

    def test_rope_table_ntk_overflow_exits_2(self, runner):
        res = runner.invoke(main, ["rope-table", "--dim", "8", "--method", "ntk", "--ratio", "1e300"])
        assert res.exit_code == 2, res.output
        assert "overflows" in res.output

    def test_cli_never_builds_the_dense_matrix(self, runner, noise_latent, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense N x N attention on a CLI path")

        monkeypatch.setattr("sega.attention.attend", refuse)
        latent = ["--latent", str(noise_latent)]
        for argv in (
            ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(tmp_path / "t")],
            ["entropy", *latent, "--scaling", "sega"],
            ["attn-map", *latent, *QUERY, "--scaling", "fixed"],
        ):
            res = runner.invoke(main, argv)
            assert res.exit_code == 0, (argv[0], res.output)


class TestConstantLatent:
    def test_modulate_and_entropy_succeed(self, runner, tmp_path):
        path = tmp_path / "const.segl"
        write_latent(LatentGrid.from_array(np.full((8, 8, 2), 0.5)), path)
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
