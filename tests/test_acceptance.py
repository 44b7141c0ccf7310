"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (the conftest hook prints one
PASS/FAIL line per criterion). Every tolerance and runtime budget is pinned
here, not deferred to later calibration.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sega import (
    LatentGrid,
    MethodSpec,
    RopeParams,
    SegaConfig,
    TrajectoryConfig,
    amplitude_factor,
    analyze,
    TokenFeatures,
    band_lookup,
    center_map,
    make_schedule,
    modulate_detailed,
    power_spectrum_2d,
    radial_profile,
    reference_scale,
    rotary_attention_row,
    rotary_entropy,
    run_trajectory,
    spectral_flatness,
    write_latent,
    yarn_ramp,
    YarnParams,
)
from sega.cli import main as cli_main
from sega.fmtio import canonical_json
from conftest import noise_grid, sinusoid_grid
from oracles import REFERENCE_SCALE_TABLE, dense_softmax, naive_dft2, rotary_logits, rotate_tokens

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY_CONFIG = REPO / "configs" / "trajectory_small.json"


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion exceeded its {seconds}s runtime budget ({elapsed:.1f}s)"


def test_reference_scale_table_reproduction():
    """All 12 anchor values at kappa=0.08, both forms, within 5e-4.

    The table holds ratio**0.08 (power) and 1 + 0.08*ln(ratio) (log), rounded to 3 decimals.
    """
    with budget(1.0):
        lines = []
        ok = True
        for ratio, form, expected in REFERENCE_SCALE_TABLE:
            actual = reference_scale(float(ratio), SegaConfig(kappa=0.08, ref_form=form))
            err = abs(actual - expected)
            passed = err <= 5e-4
            ok &= passed
            lines.append(
                f"s={ratio:>2} {form:<5} expected={expected:.3f} "
                f"actual={actual:.6f} |err|={err:.2e} {'ok' if passed else 'MISS'}"
            )
        assert ok, "reference-scale table mismatches:\n" + "\n".join(lines)


def test_zero_sum_redistribution():
    """500 random latents: corrections sum to 0 and mean scaling equals the anchor."""
    with budget(30.0):
        rng = np.random.default_rng(20240501)
        sega_cfg = SegaConfig()
        half = 32
        for case in range(500):
            h = int(rng.integers(8, 65))
            w = int(rng.integers(8, 65))
            c = int(rng.choice([1, 4, 16]))
            grid = LatentGrid(rng.standard_normal((h, w, c)))
            sched_h = make_schedule(64)
            sched_w = make_schedule(64)
            ratio = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
            result = modulate_detailed(analyze(grid), sched_h, sched_w, ratio, sega_cfg)
            for vec in (result.vec_h, result.vec_w):
                assert abs(vec.s_corr.sum()) <= 1e-9 * half
                assert abs(vec.m.mean() - vec.m_ref) <= 1e-9


def test_flatness_gate():
    """Flat spectrum switches the correction off; peaking lowers flatness."""
    with budget(20.0):
        # SF = 1 -> sigma = 0 exactly
        assert amplitude_factor(1.0, 1.5) == 0.0
        e_const = np.full(32, 2.25)
        occ_all = np.ones(32, dtype=bool)
        assert amplitude_factor(spectral_flatness(e_const, occ_all), 1.5) == 0.0

        for seed in range(32):
            spec = power_spectrum_2d(center_map(noise_grid(seed)))
            e_iso, occ = radial_profile(spec, 32)
            sf = spectral_flatness(e_iso, occ)
            sigma = amplitude_factor(sf, 1.5)
            assert sigma < 0.2

            # multiplying the strongest occupied bin by 10 must lower flatness
            hot = int(np.argmax(np.where(occ, e_iso, -np.inf)))
            boosted = e_iso.copy()
            boosted[hot] *= 10.0
            assert spectral_flatness(boosted, occ) < sf


def test_dft_oracle_equivalence():
    """Fast spectrum matches the direct-sum DFT; Parseval holds at 64x64."""
    with budget(60.0):
        rng = np.random.default_rng(99)
        for _ in range(50):
            h = int(rng.integers(2, 17))
            w = int(rng.integers(2, 17))
            cmap = center_map(LatentGrid(rng.standard_normal((h, w, 1))))
            fast = power_spectrum_2d(cmap)
            slow = np.abs(naive_dft2(cmap)) ** 2
            scale = np.linalg.norm(slow)
            assert np.linalg.norm(fast - slow) <= 1e-4 * max(scale, 1e-12)
        for _ in range(100):
            h = int(rng.integers(2, 65))
            w = int(rng.integers(2, 65))
            cmap = center_map(LatentGrid(rng.standard_normal((h, w, 1))))
            spec = power_spectrum_2d(cmap)
            rhs = h * w * np.sum(cmap**2)
            assert abs(spec.sum() - rhs) <= 1e-4 * max(rhs, 1e-12)


def test_relative_position_invariance():
    """1000 random (q, k, n, m, D) samples across every schedule family."""
    with budget(10.0):
        rng = np.random.default_rng(31337)
        methods = ["none", "pi", "ntk", "ntk_strong", "yarn"]
        per_method = 200
        for method in methods:
            for _ in range(per_method):
                dim = int(rng.choice([8, 16, 32, 64]))
                ratio = float(rng.choice([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
                yarn = YarnParams(1.0, 32.0, 64.0) if method == "yarn" else None
                sched = make_schedule(dim, method=method, ratio=ratio, yarn=yarn)
                q = rng.standard_normal(dim)
                k = rng.standard_normal(dim)
                n = float(rng.integers(0, 256))
                m = float(rng.integers(0, 256))
                q_n, k_m, q_rel = rotate_tokens([q, k, q], [n, m, n - m], sched.theta)
                lhs = np.dot(q_n, k_m)
                rhs = np.dot(q_rel, k)
                assert abs(lhs - rhs) < 1e-5


def test_pi_equivalence():
    """Rotating with theta/s at n equals rotating with theta at n/s."""
    with budget(5.0):
        rng = np.random.default_rng(555)
        for ratio in (2.0, 4.0):
            base = make_schedule(16)
            compressed = make_schedule(16, method="pi", ratio=ratio)
            for n in range(64):
                x = rng.standard_normal(16)
                a = rotate_tokens(x[None], [float(n)], compressed.theta)[0]
                b = rotate_tokens(x[None], [n / ratio], base.theta)[0]
                assert np.max(np.abs(a - b)) < 1e-5


def test_yarn_ramp_boundary_table():
    """Ramp is exactly 0 below alpha, 1 above beta, one half at the midpoint."""
    with budget(1.0):
        params = YarnParams(alpha=1.0, beta=32.0, train_len=64.0)
        assert yarn_ramp(0.5, params) == 0.0
        assert yarn_ramp(64.0, params) == 1.0
        assert yarn_ramp((1.0 + 32.0) / 2.0, params) == 0.5
        narrow = YarnParams(alpha=2.0, beta=4.0, train_len=64.0)
        assert yarn_ramp(1.0, narrow) == 0.0
        assert yarn_ramp(8.0, narrow) == 1.0
        assert yarn_ramp(3.0, narrow) == 0.5


def test_sinusoid_redistribution():
    """A single-band latent pushes that band's dimensions below the anchor."""
    with budget(5.0):
        k = 4
        grid = sinusoid_grid(cycles_w=float(k))
        sched_h = make_schedule(64)
        sched_w = make_schedule(64)
        result = modulate_detailed(analyze(grid), sched_h, sched_w, 2.0)
        vec = result.vec_w
        bins = [band_lookup(t, grid.width) for t in sched_w.theta]
        hot_dims = [d for d, b in enumerate(bins) if b == k]
        assert hot_dims, "no rotary dimension samples the sinusoid band"
        hot_min = min(vec.s_corr[d] for d in hot_dims)
        for d in hot_dims:
            assert vec.s_corr[d] > 0
            assert vec.m[d] < vec.m_ref
        empty_bins = {b for b in bins if b != k}
        for d, b in enumerate(bins):
            if b in empty_bins:
                assert vec.s_corr[d] < hot_min


def test_scaling_map_fingerprint():
    """Distinct structures leave distinct final scaling maps; reruns are byte-equal."""
    with budget(60.0):
        rope = RopeParams(dim=16, ratio_h=2.0, ratio_w=2.0)
        method = MethodSpec("sega", rope="ntk_strong", scaling="sega")

        def config(cycles):
            return TrajectoryConfig(
                steps=5, seed=42, height=32, width=32, channels=4,
                structure_kind="sinusoid", structure_params={"cycles_w": cycles},
            )

        rec_a = run_trajectory(config(5.0), [method], rope=rope)
        rec_b = run_trajectory(config(1.0), [method], rope=rope)
        final_a = np.concatenate([rec_a[-1].methods["sega"].m_h, rec_a[-1].methods["sega"].m_w])
        final_b = np.concatenate([rec_b[-1].methods["sega"].m_h, rec_b[-1].methods["sega"].m_w])
        assert np.linalg.norm(final_a - final_b) > 1e-3

        rec_a2 = run_trajectory(config(5.0), [method], rope=rope)
        def dump(steps):
            return canonical_json([asdict(s) for s in steps])

        assert dump(rec_a) == dump(rec_a2)


def test_attention_contracts():
    """Stochastic rows, entropy bounds, unit temperature, unit-scaling equivalence."""
    with budget(30.0):
        rng = np.random.default_rng(777)
        sched_h = make_schedule(4)
        sched_w = make_schedule(4)
        # row-stochasticity and entropy bounds over random grids of 2..40 tokens
        for _ in range(20):
            height, width = int(rng.integers(1, 5)), int(rng.integers(2, 11))
            n = height * width
            feats = TokenFeatures(rng.normal(0, 3, (n, 8)), np.eye(8))
            for query in range(n):
                row = rotary_attention_row(feats, height, width, sched_h, sched_w, query=query)
                assert abs(row.sum() - 1.0) < 1e-5
            per_row, mean = rotary_entropy(feats, height, width, sched_h, sched_w)
            assert np.all(per_row >= -1e-12)
            assert np.all(per_row <= np.log(n) + 1e-9)
            assert -1e-12 <= mean <= np.log(n) + 1e-9

        # tau = 1 reproduces the unscaled definition
        feats = rng.standard_normal((10, 8))
        expected = dense_softmax(rotary_logits(feats, 2, 5, sched_h.theta, sched_w.theta))
        for query in range(10):
            row = rotary_attention_row(
                TokenFeatures(feats, np.eye(8)), 2, 5, sched_h, sched_w, logit_scale=1.0,
                query=query,
            )
            np.testing.assert_allclose(row, expected[query], atol=1e-12)

        # unit per-dimension scaling is bit-identical to plain rotary attention
        sched_h = make_schedule(8)
        sched_w = make_schedule(8)
        feats = TokenFeatures(np.random.default_rng(123).standard_normal((36, 16)), np.eye(16))
        ones = np.ones(4)
        plain = rotary_entropy(feats, 6, 6, sched_h, sched_w)
        unit = rotary_entropy(feats, 6, 6, sched_h, sched_w, ones, ones)
        assert np.array_equal(plain[0], unit[0]) and plain[1] == unit[1]
        for query in range(36):
            assert np.array_equal(
                rotary_attention_row(feats, 6, 6, sched_h, sched_w, query=query),
                rotary_attention_row(feats, 6, 6, sched_h, sched_w, ones, ones, query=query),
            )


def test_cli_regression(tmp_path):
    """Committed config produces byte-identical outputs; exit codes hold per subcommand."""
    with budget(60.0):
        runner = CliRunner()

        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = runner.invoke(
                cli_main,
                ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(out)],
            )
            assert res.exit_code == 0, res.output
        for name in (
            "scaling_map_H.csv",
            "scaling_map_W.csv",
            "entropy_trace.csv",
            "spectral_heatmap.csv",
            "summary.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        latent_path = tmp_path / "probe.segl"
        write_latent(noise_grid(0, height=16, width=16, channels=2), latent_path)

        # exit-code contract: 0 success, 2 usage/config, 3 I/O
        checks = [
            (["rope-table", "--dim", "8"], 0),
            (["rope-table"], 2),
            (["rope-table", "--dim", "8", "--method", "pi", "--alpha", "2"], 2),
            (["modulate", "--latent", str(latent_path)], 0),
            (["modulate", "--latent", str(tmp_path / "missing.segl")], 3),
            (["spectrum", "--latent", str(latent_path)], 0),
            (["attn-map", "--latent", str(latent_path), "--query-h", "0", "--query-w", "0"], 0),
            (["attn-map", "--latent", str(latent_path), "--query-h", "40", "--query-w", "0"], 2),
            (["entropy", "--latent", str(latent_path)], 0),
            (["trajectory", "--config", str(tmp_path / "no.json"), "--out-dir", str(tmp_path / "o")], 2),
            (["heatmap", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(tmp_path / "h")], 0),
        ]
        for args, expected in checks:
            res = runner.invoke(cli_main, args)
            assert res.exit_code == expected, f"{args} -> {res.exit_code}, wanted {expected}"

        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        res = runner.invoke(
            cli_main,
            ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(blocker / "sub")],
        )
        assert res.exit_code == 3


def test_directional_entropy_report(tmp_path):
    """Reported, not asserted: the modulated run should shift entropy no more
    than fixed scaling on the committed scenario; emitted into summary.json."""
    runner = CliRunner()
    out = tmp_path / "report"
    res = runner.invoke(
        cli_main, ["trajectory", "--config", str(TRAJECTORY_CONFIG), "--out-dir", str(out)]
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "summary.json").read_text())
    comp = summary["entropy_shift_comparison"]
    assert comp is not None
    for key in ("sega_abs_delta_mean", "fixed_abs_delta_mean", "sega_no_worse"):
        assert key in comp
    print(
        "[directional] |entropy delta| sega={:.4f} fixed={:.4f} sega_no_worse={}".format(
            comp["sega_abs_delta_mean"], comp["fixed_abs_delta_mean"], comp["sega_no_worse"]
        )
    )
