"""Trajectory simulation: determinism, invariants, heatmaps, entropy traces."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sega import (
    MethodSpec,
    RopeParams,
    SegaConfig,
    TrajectoryConfig,
    analyze,
    entropy_trace,
    generate_latent,
    make_schedule,
    modulate_detailed,
    reference_scale,
    run_trajectory,
    spectral_heatmap,
)
from sega.fmtio import canonical_json
from conftest import SEEDS_16


def small_cfg(seed=0, **kw):
    defaults = dict(
        steps=4, seed=seed, height=16, width=16, channels=4,
        structure_kind="sinusoid", structure_params={"cycles_w": 3.0},
    )
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


SEGA_METHOD = MethodSpec("sega", rope="ntk_strong", scaling="sega")
FIXED_METHOD = MethodSpec("fixed", rope="ntk_strong", scaling="fixed")
BASELINE = MethodSpec("baseline", rope="none", scaling="none", grid="train")
ROPE = RopeParams(dim=16, ratio_h=2.0, ratio_w=2.0)


class TestRunTrajectory:
    def test_record_length_and_fields(self):
        cfg = small_cfg()
        rec = run_trajectory(cfg, [SEGA_METHOD, FIXED_METHOD], rope=ROPE)
        assert len(rec) == cfg.steps
        for step in rec:
            assert 0.0 <= step.sigma <= 1.0
            assert 0.0 < step.flatness <= 1.0
            assert set(step.methods) == {"sega", "fixed"}
            for m in step.methods.values():
                assert len(m.m_h) == ROPE.dim // 2
                assert len(m.m_w) == ROPE.dim // 2
                assert m.mean_entropy is not None

    def test_byte_identical_reruns(self):
        cfg = small_cfg(seed=3)
        a = run_trajectory(cfg, [SEGA_METHOD], rope=ROPE)
        b = run_trajectory(cfg, [SEGA_METHOD], rope=ROPE)
        assert canonical_json([asdict(s) for s in a]) == canonical_json([asdict(s) for s in b])

    def test_different_structures_diverge(self):
        # cycles 5 and 1 land in bands sampled by dims 0 and 1 of this schedule
        cfg_a = small_cfg(height=32, width=32, structure_params={"cycles_w": 5.0})
        cfg_b = small_cfg(height=32, width=32, structure_params={"cycles_w": 1.0})
        rec_a = run_trajectory(cfg_a, [SEGA_METHOD], rope=ROPE)
        rec_b = run_trajectory(cfg_b, [SEGA_METHOD], rope=ROPE)
        m_a = np.asarray(rec_a[-1].methods["sega"].m_w)
        m_b = np.asarray(rec_b[-1].methods["sega"].m_w)
        assert np.linalg.norm(m_a - m_b) > 1e-3

    # The two pure-noise tests check spectral properties of trajectory latents,
    # so they run the trajectory's analysis and modulator without attention.
    @staticmethod
    def pure_noise_modulations():
        sched_h = make_schedule(ROPE.dim, method="ntk_strong", ratio=ROPE.ratio_h)
        sched_w = make_schedule(ROPE.dim, method="ntk_strong", ratio=ROPE.ratio_w)
        for seed in SEEDS_16:
            cfg = TrajectoryConfig(
                steps=2, seed=seed, height=64, width=64, channels=4,
                noise_blend={"kind": "constant", "value": 1.0},
            )
            yield [
                modulate_detailed(
                    analyze(generate_latent(cfg, step)), sched_h, sched_w, ROPE.ratio_scalar
                )
                for step in range(cfg.steps)
            ]

    def test_pure_noise_sigma_stays_small(self):
        sigmas = [[r.vec_h.sigma for r in run] for run in self.pure_noise_modulations()]
        per_step = np.asarray(sigmas).mean(axis=0)
        assert np.all(per_step < 0.2)

    def test_pure_noise_scaling_hugs_reference(self):
        devs = []
        for run in self.pure_noise_modulations():
            for result in run:
                m, m_ref = result.vec_h.m, result.vec_h.m_ref
                devs.append(np.mean(np.abs(m - m_ref)) / m_ref)
        assert float(np.mean(devs)) < 0.15

    def test_structure_emerges_late(self):
        # noise -> sinusoid: sigma rises and the hot band dims end below m_ref
        cfg = small_cfg(steps=5, height=32, width=32, structure_params={"cycles_w": 5.0})
        rec = run_trajectory(cfg, [SEGA_METHOD], rope=ROPE)
        assert rec[-1].sigma > rec[0].sigma
        from sega import band_lookup

        sched_w = make_schedule(ROPE.dim, method="ntk_strong", ratio=2.0)
        hot = [d for d in range(ROPE.dim // 2) if band_lookup(sched_w.theta[d], 32) == 5]
        assert hot
        final = rec[-1].methods["sega"]
        m_ref = reference_scale(ROPE.ratio_scalar, SegaConfig())
        for d in hot:
            assert final.m_w[d] < m_ref

    def test_duplicate_method_names_rejected(self):
        with pytest.raises(ValueError):
            run_trajectory(small_cfg(), [SEGA_METHOD, SEGA_METHOD], rope=ROPE)

    @pytest.mark.parametrize("ratio_h, ratio_w", [(0.5, 2.0), (2.0, math.nan), (math.nan, 2.0)])
    def test_rope_params_reject_bad_ratios(self, ratio_h, ratio_w):
        with pytest.raises(ValueError, match=r"ratio_[hw] must be >= 1"):
            RopeParams(dim=16, ratio_h=ratio_h, ratio_w=ratio_w)

    def test_logit_temperature_sharpens_attention(self):
        cfg = small_cfg(seed=8)
        warm = MethodSpec("warm", rope="yarn", scaling="none", temperature=False)
        cool = MethodSpec("cool", rope="yarn", scaling="none", temperature=True)
        rec = run_trajectory(cfg, [warm, cool], rope=ROPE)
        for step in rec:
            assert step.methods["cool"].mean_entropy < step.methods["warm"].mean_entropy


class TestSpectralHeatmap:
    def test_rows_normalized(self):
        heat, degenerate = spectral_heatmap(small_cfg())
        assert heat.shape == (4, 8)
        assert degenerate == []
        np.testing.assert_allclose(heat.sum(axis=1), 1.0, atol=1e-9)

    def test_pure_noise_rows_roughly_flat(self):
        acc = None
        for seed in SEEDS_16:
            cfg = TrajectoryConfig(
                steps=1, seed=seed, height=64, width=64, channels=4,
                noise_blend={"kind": "constant", "value": 1.0},
            )
            heat, _ = spectral_heatmap(cfg)
            acc = heat if acc is None else acc + heat
        mean_row = acc[0] / len(SEEDS_16)
        occupied = mean_row > 0
        assert mean_row[occupied].max() / mean_row[occupied].min() < 5.0

    def test_low_frequency_structure_concentrates_low_bins(self):
        cfg = TrajectoryConfig(
            steps=3, seed=1, height=64, width=64, channels=2,
            structure_kind="sinusoid", structure_params={"cycles_w": 2.0},
        )
        heat, _ = spectral_heatmap(cfg)
        final = heat[-1]
        quartile = len(final) // 4
        assert final[:quartile].sum() >= 0.6

    def test_degenerate_rows_flagged_not_nan(self):
        cfg = TrajectoryConfig(
            steps=2, seed=0, height=8, width=8, channels=1,
            structure_kind="sinusoid", structure_params={"cycles_w": 0.0},
            noise_blend={"kind": "constant", "value": 0.0},
        )
        heat, degenerate = spectral_heatmap(cfg)
        assert degenerate == [0, 1]
        assert np.all(np.isfinite(heat))
        np.testing.assert_array_equal(heat, 0.0)


class TestEntropyTrace:
    def test_same_method_same_grid_gives_zero(self):
        cfg = small_cfg()
        probe = MethodSpec("probe", rope="ntk_strong", scaling="fixed")
        twin = MethodSpec("twin", rope="ntk_strong", scaling="fixed", grid="target")
        deltas, names, _ = entropy_trace(cfg, [probe], twin, rope=ROPE)
        assert names == ["probe"]
        np.testing.assert_allclose(deltas, 0.0, atol=1e-12)

    def test_baseline_on_train_grid(self):
        cfg = small_cfg(steps=3)
        deltas, names, record = entropy_trace(
            cfg, [SEGA_METHOD, FIXED_METHOD], BASELINE, rope=ROPE
        )
        assert deltas.shape == (3, 2)
        assert names == ["sega", "fixed"]
        # baseline attends over an 8x8 grid, methods over 16x16
        for step in record:
            assert step.methods["baseline"].mean_entropy <= math.log(64) + 1e-9
            assert step.methods["sega"].mean_entropy <= math.log(256) + 1e-9

    def test_uniform_standins_differ_by_log_ratio(self):
        # closed-form sanity: uniform attention at N1 vs N2 -> ln N1 - ln N2
        # (zero features make every logit 0, on a 4x4 and a 2x2 grid)
        from sega import TokenFeatures, make_schedule, rotary_entropy

        sh, sw = make_schedule(4), make_schedule(4)
        _, h16 = rotary_entropy(TokenFeatures(np.zeros((16, 8)), np.eye(8)), 4, 4, sh, sw)
        _, h4 = rotary_entropy(TokenFeatures(np.zeros((4, 8)), np.eye(8)), 2, 2, sh, sw)
        assert math.isclose(h16 - h4, math.log(16) - math.log(4), rel_tol=1e-12)


class TestTrajectoryMemory:
    def test_step_holds_no_dense_feature_matrix(self):
        # One 64 x 64 step at dim 64: the kernel's 512 KiB logit block and its
        # exp buffer peak near 2.14 MiB (a 2 MiB block reduced in 512 KiB slices
        # peaked at 4.02 MiB). 4 MiB of rotated keys, or a dense target feature
        # matrix, would each pass the bound on their own.
        cfg = TrajectoryConfig(steps=1, seed=0)
        methods = [MethodSpec("sega"), MethodSpec("fixed", scaling="fixed"),
                   MethodSpec("baseline", rope="none", scaling="none", grid="train")]
        tracemalloc.start()
        try:
            run_trajectory(cfg, methods, rope=RopeParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestOneAnalysisPerLatent:
    @staticmethod
    def counter(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_latent_is_analyzed_and_featurized_once_per_step(self, monkeypatch):
        import sega.harness
        import sega.spectral

        analyses = self.counter(monkeypatch, sega.spectral, "analyze")
        draws = self.counter(monkeypatch, sega.harness, "token_features")
        cfg = small_cfg(steps=3)
        run_trajectory(cfg, [SEGA_METHOD, FIXED_METHOD, BASELINE], rope=ROPE)
        assert (len(analyses), len(draws)) == (3, 6)

        analyses.clear()
        draws.clear()
        train_sega = MethodSpec("train_sega", rope="ntk_strong", scaling="sega", grid="train")
        run_trajectory(cfg, [SEGA_METHOD, FIXED_METHOD, train_sega, BASELINE], rope=ROPE)
        assert (len(analyses), len(draws)) == (6, 6)

        analyses.clear()
        draws.clear()
        run_trajectory(cfg, [BASELINE], rope=ROPE)  # the target is analyzed, never attended
        assert (len(analyses), len(draws)) == (3, 3)
