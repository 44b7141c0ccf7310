"""Trajectory simulation: determinism, invariants, heatmaps, entropy traces, findings."""

import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sega import (
    LatentGrid,
    MethodSpec,
    RopeParams,
    SegaConfig,
    TrajectoryConfig,
    analyze,
    generate_latent,
    make_schedule,
    modulate_detailed,
    reference_scale,
    run_trajectory,
    spectral_heatmap,
    trajectory_files,
    write_latent,
)
from sega.fmtio import canonical_json
from sega.harness import SCALING_MODES, axis_schedules, method_inputs, run_grids
from sega.rope import yarn_temperature
from sega.tensorio import structure_field
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
TRAJECTORY_FILES = [
    "scaling_map_H.csv", "scaling_map_W.csv", "entropy_trace.csv", "spectral_heatmap.csv",
    "summary.json",
]


def table(files, name):
    """One CSV of a run's files: its header and its rows as floats, the step column dropped."""
    header, (steps, *columns) = files[name]
    assert list(steps) == list(range(len(steps)))
    return header, np.column_stack(columns)


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
            structure = structure_field(cfg)
            yield [
                modulate_detailed(
                    analyze(generate_latent(cfg, step, structure)), sched_h, sched_w,
                    ROPE.ratio_scalar,
                )
                for step in range(cfg.steps)
            ]

    def test_pure_noise_sigma_stays_small(self):
        sigmas = [[r.sigma for r in run] for run in self.pure_noise_modulations()]
        per_step = np.asarray(sigmas).mean(axis=0)
        assert np.all(per_step < 0.2)

    def test_pure_noise_scaling_hugs_reference(self):
        devs = []
        for run in self.pure_noise_modulations():
            for result in run:
                m, m_ref = result.m_h, result.m_ref
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

    def test_rope_params_reject_bad_ratios(self):
        with pytest.raises(ValueError, match=r"^ratio_h must be >= 1$"):
            RopeParams(dim=16, ratio_h=0.5, ratio_w=2.0)

    @pytest.mark.parametrize("ratio_h, ratio_w, name", [
        (2.0, math.nan, "ratio_w"), (math.nan, 2.0, "ratio_h"),
    ])
    def test_rope_params_reject_nan_ratios(self, ratio_h, ratio_w, name):
        # a NaN is refused by the field's type check, before any range test
        with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
            RopeParams(dim=16, ratio_h=ratio_h, ratio_w=ratio_w)

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 3.7, 1e154, 1e200, 1.7e308])
    def test_ratio_scalar_of_equal_ratios_is_the_ratio(self, ratio):
        # sqrt(R * R) was inf past R = 1.3e154
        assert RopeParams(ratio_h=ratio, ratio_w=ratio).ratio_scalar == ratio

    @given(st.floats(1.0, 1.7e308), st.floats(1.0, 1.7e308))
    @settings(max_examples=200, deadline=None)
    def test_ratio_scalar_is_the_geometric_mean(self, ratio_h, ratio_w):
        scalar = RopeParams(ratio_h=ratio_h, ratio_w=ratio_w).ratio_scalar
        if math.isfinite(ratio_h * ratio_w):  # as in every committed config and golden
            assert scalar == math.sqrt(ratio_h * ratio_w)
        else:
            assert math.isclose(scalar, math.sqrt(ratio_h) * math.sqrt(ratio_w), rel_tol=1e-15)

    def test_train_grid_runs_at_ratio_one(self):
        # Without this test, only the trajectory_yarn_dype digest sees a train grid
        # that runs at the target's ratios.
        fixed = MethodSpec("fixed", rope="ntk_strong", scaling="fixed", grid="train")
        warm = MethodSpec("warm", rope="yarn", scaling="none", grid="train")
        cool = MethodSpec("cool", rope="yarn", scaling="none", temperature=True, grid="train")
        for step in run_trajectory(small_cfg(steps=2), [fixed, warm, cool], rope=ROPE):
            np.testing.assert_array_equal(step.methods["fixed"].m_h, 1.0)
            np.testing.assert_array_equal(step.methods["fixed"].m_w, 1.0)
            assert step.methods["cool"].mean_entropy == step.methods["warm"].mean_entropy

    def test_logit_temperature_sharpens_attention(self):
        cfg = small_cfg(seed=8)
        warm = MethodSpec("warm", rope="yarn", scaling="none", temperature=False)
        cool = MethodSpec("cool", rope="yarn", scaling="none", temperature=True)
        rec = run_trajectory(cfg, [warm, cool], rope=ROPE)
        for step in rec:
            assert step.methods["cool"].mean_entropy < step.methods["warm"].mean_entropy


class TestRunGrids:
    @pytest.mark.parametrize("shape, ratios, train", [
        ((5, 7), (2.0, 2.0), (2, 4)),  # 2.5 and 3.5 round half to even
        ((3, 3), (4.0, 4.0), (2, 2)),  # 0.75 rounds to 1, below the 2-token floor
        ((16, 12), (2.0, 3.0), (8, 4)),  # each axis over its own ratio
    ])
    def test_train_grid_is_each_axis_over_its_ratio_at_ratio_1(self, shape, ratios, train):
        cfg = small_cfg(height=shape[0], width=shape[1])
        rope = RopeParams(dim=16, ratio_h=ratios[0], ratio_w=ratios[1])
        grids = run_grids(cfg, rope, [SEGA_METHOD, BASELINE])
        assert list(grids) == ["target", "train"]
        assert grids["target"] == (cfg, rope)
        assert grids["train"] == (replace(cfg, height=train[0], width=train[1]),
                                  replace(rope, ratio_h=1.0, ratio_w=1.0))

    def test_no_train_entry_unless_a_method_runs_on_it(self):
        for methods in ([], [SEGA_METHOD, FIXED_METHOD]):
            assert list(run_grids(small_cfg(), ROPE, methods)) == ["target"]


class TestMethodInputs:
    """The kernel's arguments for one method, as run_trajectory, entropy and attn-map take them."""

    CFG = small_cfg()
    PROFILES = analyze(generate_latent(CFG, 3, structure_field(CFG)))

    def inputs(self, method, profiles=None, rope=ROPE, t=0.5):
        return method_inputs(method, profiles, rope, 16, 16, t, SegaConfig())

    def test_only_sega_reads_profiles(self):
        assert [mode for mode in SCALING_MODES if MethodSpec("m", scaling=mode).reads_profiles] == ["sega"]

    def test_none_is_ones(self):
        _, _, m_h, m_w, factor = self.inputs(MethodSpec("none", scaling="none"))
        for m in (m_h, m_w):
            assert m.shape == (ROPE.dim // 2,)
            np.testing.assert_array_equal(m, 1.0)
        assert factor == 1.0

    def test_fixed_is_the_reference_scale_on_every_d_and_1_at_ratio_1(self):
        fixed = MethodSpec("fixed", scaling="fixed")
        m_ref = reference_scale(ROPE.ratio_scalar, SegaConfig())
        assert m_ref > 1.0
        train_rope = run_grids(self.CFG, ROPE, [replace(fixed, grid="train")])["train"][1]
        for rope, value in ((ROPE, m_ref), (train_rope, 1.0)):
            _, _, m_h, m_w, _ = self.inputs(fixed, rope=rope)
            for m in (m_h, m_w):
                assert m.shape == (ROPE.dim // 2,)
                np.testing.assert_array_equal(m, value)

    @pytest.mark.parametrize("rope", ["ntk_strong", "dype", "yarn"])
    def test_sega_is_modulate_detailed_bit_for_bit(self, rope):
        method = MethodSpec("sega", rope=rope, scaling="sega")
        sched_h, sched_w, m_h, m_w, factor = self.inputs(method, self.PROFILES, t=0.5)
        expect_h, expect_w = axis_schedules(ROPE, rope, 16, 16, 0.5)
        np.testing.assert_array_equal(sched_h.theta, expect_h.theta)
        np.testing.assert_array_equal(sched_w.theta, expect_w.theta)
        result = modulate_detailed(self.PROFILES, expect_h, expect_w, ROPE.ratio_scalar, SegaConfig())
        assert result.sigma > 0.01  # the correction is live
        np.testing.assert_array_equal(m_h, result.m_h)
        np.testing.assert_array_equal(m_w, result.m_w)
        assert factor == 1.0

    @pytest.mark.parametrize("scaling", SCALING_MODES)
    def test_temperature_alone_sets_the_logit_factor(self, scaling):
        warm = MethodSpec("warm", rope="yarn", scaling=scaling)
        cool = replace(warm, name="cool", temperature=True)
        *args_warm, factor_warm = self.inputs(warm, self.PROFILES)
        *args_cool, factor_cool = self.inputs(cool, self.PROFILES)
        assert factor_warm == 1.0
        assert factor_cool == yarn_temperature(ROPE.ratio_scalar) > 1.0
        for a, b in zip(args_warm, args_cool):
            np.testing.assert_array_equal(getattr(a, "theta", a), getattr(b, "theta", b))


class TestSpectralHeatmap:
    def test_rows_normalized(self):
        files = spectral_heatmap(small_cfg())
        assert list(files) == ["spectral_heatmap.csv", "summary.json"]
        header, heat = table(files, "spectral_heatmap.csv")
        assert header == ["step"] + [f"bin_{b}" for b in range(8)]
        assert heat.shape == (4, 8)
        assert files["summary.json"] == {"degenerate_heatmap_rows": []}
        np.testing.assert_allclose(heat.sum(axis=1), 1.0, atol=1e-9)

    def test_pure_noise_rows_roughly_flat(self):
        acc = None
        for seed in SEEDS_16:
            cfg = TrajectoryConfig(
                steps=1, seed=seed, height=64, width=64, channels=4,
                noise_blend={"kind": "constant", "value": 1.0},
            )
            heat = table(spectral_heatmap(cfg), "spectral_heatmap.csv")[1]
            acc = heat if acc is None else acc + heat
        mean_row = acc[0] / len(SEEDS_16)
        occupied = mean_row > 0
        assert mean_row[occupied].max() / mean_row[occupied].min() < 5.0

    def test_low_frequency_structure_concentrates_low_bins(self):
        cfg = TrajectoryConfig(
            steps=3, seed=1, height=64, width=64, channels=2,
            structure_kind="sinusoid", structure_params={"cycles_w": 2.0},
        )
        final = table(spectral_heatmap(cfg), "spectral_heatmap.csv")[1][-1]
        quartile = len(final) // 4
        assert final[:quartile].sum() >= 0.6

    def test_degenerate_rows_flagged_not_nan(self):
        cfg = TrajectoryConfig(
            steps=2, seed=0, height=8, width=8, channels=1,
            structure_kind="sinusoid", structure_params={"cycles_w": 0.0},
            noise_blend={"kind": "constant", "value": 0.0},
        )
        files = spectral_heatmap(cfg)
        heat = table(files, "spectral_heatmap.csv")[1]
        assert files["summary.json"]["degenerate_heatmap_rows"] == [0, 1]
        assert np.all(np.isfinite(heat))
        np.testing.assert_array_equal(heat, 0.0)


class TestTrajectoryFiles:
    def test_same_method_same_grid_gives_zero(self):
        cfg = small_cfg()
        probe = MethodSpec("probe", rope="ntk_strong", scaling="fixed")
        twin = MethodSpec("twin", rope="ntk_strong", scaling="fixed", grid="target")
        header, deltas = table(trajectory_files(cfg, [probe], twin, rope=ROPE), "entropy_trace.csv")
        assert header == ["step", "probe"]
        np.testing.assert_allclose(deltas, 0.0, atol=1e-12)

    def test_baseline_on_train_grid(self):
        cfg = small_cfg(steps=3)
        files = trajectory_files(cfg, [SEGA_METHOD, FIXED_METHOD], BASELINE, rope=ROPE)
        assert list(files) == TRAJECTORY_FILES
        header, deltas = table(files, "entropy_trace.csv")
        assert deltas.shape == (3, 2)
        assert header == ["step", "sega", "fixed"]
        # baseline attends over an 8x8 grid, methods over 16x16
        for step in files["summary.json"]["per_step"]:
            assert step["mean_entropy"]["baseline"] <= math.log(64) + 1e-9
            assert step["mean_entropy"]["sega"] <= math.log(256) + 1e-9

    def test_abs_delta_means_are_the_trace_columns(self):
        files = trajectory_files(small_cfg(steps=3), [SEGA_METHOD, FIXED_METHOD], BASELINE, rope=ROPE)
        header, deltas = table(files, "entropy_trace.csv")
        summary = files["summary.json"]
        means = summary["entropy_delta_abs_mean"]
        assert list(means) == header[1:]
        for j, name in enumerate(header[1:]):
            assert means[name] == np.mean(np.abs(deltas[:, j]))
        comparison = summary["entropy_shift_comparison"]
        assert comparison == {
            "sega_method": "sega",
            "fixed_method": "fixed",
            "sega_abs_delta_mean": means["sega"],
            "fixed_abs_delta_mean": means["fixed"],
            "sega_no_worse": means["sega"] <= means["fixed"],
        }

    def test_maps_fall_back_to_the_first_method_and_comparison_to_none(self):
        cfg = small_cfg(steps=2)
        unit = MethodSpec("unit", rope="ntk_strong", scaling="none")
        files = trajectory_files(cfg, [unit, FIXED_METHOD], BASELINE, rope=ROPE)
        assert files["summary.json"]["scaling_map_method"] == "unit"
        np.testing.assert_array_equal(table(files, "scaling_map_H.csv")[1], 1.0)
        assert files["summary.json"]["entropy_shift_comparison"] is None

        files = trajectory_files(cfg, [unit, SEGA_METHOD], BASELINE, rope=ROPE)
        assert files["summary.json"]["scaling_map_method"] == "sega"
        assert files["summary.json"]["entropy_shift_comparison"] is None

    def test_sega_no_worse_on_a_tie(self):
        # A constant latent has flatness 1, so sigma is 0 and sega's magnitudes
        # are exactly fixed's m_ref: both runs give the same entropies.
        cfg = small_cfg(
            steps=2, structure_params={"cycles_w": 0.0}, noise_blend={"kind": "constant", "value": 0.0}
        )
        files = trajectory_files(cfg, [SEGA_METHOD, FIXED_METHOD], BASELINE, rope=ROPE)
        comparison = files["summary.json"]["entropy_shift_comparison"]
        assert comparison["sega_abs_delta_mean"] == comparison["fixed_abs_delta_mean"]
        assert comparison["sega_no_worse"] is True

    def test_empty_method_list_is_refused(self):
        # names[0] once raised an IndexError
        with pytest.raises(ValueError, match="^methods must be a nonempty list$"):
            trajectory_files(small_cfg(), [], BASELINE, rope=ROPE)

    def test_uniform_standins_differ_by_log_ratio(self):
        # closed-form sanity: uniform attention at N1 vs N2 -> ln N1 - ln N2
        # (zero features make every logit 0, on a 4x4 and a 2x2 grid)
        from sega import TokenFeatures, make_schedule, rotary_entropy

        sh, sw = make_schedule(4), make_schedule(4)
        _, h16 = rotary_entropy(TokenFeatures(np.zeros((4, 4, 8)), np.eye(8)), sh, sw)
        _, h4 = rotary_entropy(TokenFeatures(np.zeros((2, 2, 8)), np.eye(8)), sh, sw)
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

        analyses.clear()
        draws.clear()
        spectral_heatmap(cfg)  # the run with no methods: the target's profiles alone
        assert (len(analyses), len(draws)) == (3, 0)

    @pytest.mark.parametrize("scaling", SCALING_MODES)
    def test_a_train_grid_is_analyzed_only_for_a_mode_that_reads_profiles(self, monkeypatch, scaling):
        import sega.spectral

        analyses = self.counter(monkeypatch, sega.spectral, "analyze")
        train = MethodSpec("train", rope="ntk_strong", scaling=scaling, grid="train")
        run_trajectory(small_cfg(steps=3), [SEGA_METHOD, train], rope=ROPE)
        per_step = [(16, 16)] + ([(8, 8)] if train.reads_profiles else [])
        assert [a[0].values.shape[:2] for a in analyses] == per_step * 3

    def test_each_grid_config_is_built_once_per_run(self, monkeypatch):
        # the analyzed grids once came from a second run_grids, which built the train
        # grid's TrajectoryConfig again when a sega method ran on it
        import sega.tensorio

        cfg = small_cfg(steps=3)
        builds = self.counter(monkeypatch, sega.tensorio, "checked_blend")
        train_sega = MethodSpec("train_sega", rope="ntk_strong", scaling="sega", grid="train")
        run_trajectory(cfg, [SEGA_METHOD, train_sega], rope=ROPE)
        assert [(c.height, c.width) for c, in builds] == [(8, 8)]

    def test_a_structure_file_is_read_once_per_run(self, monkeypatch, tmp_path):
        # each step once read it again, so a file rewritten mid-run mixed two fields
        import sega.tensorio

        path = tmp_path / "structure.segl"
        write_latent(LatentGrid(np.random.default_rng(2).standard_normal((16, 16, 4))), path)
        cfg = small_cfg(steps=3, structure_kind="file", structure_params={"path": str(path)})
        reads = self.counter(monkeypatch, sega.tensorio, "read_latent")
        run_trajectory(cfg, [SEGA_METHOD, FIXED_METHOD], rope=ROPE)
        assert len(reads) == 1
        reads.clear()
        spectral_heatmap(cfg)
        assert len(reads) == 1
