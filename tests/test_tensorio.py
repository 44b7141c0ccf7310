"""Latent grid type, SEGL round-trips, and generator determinism."""

import math
import struct
from dataclasses import asdict, fields, replace
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sega import (
    LatentGrid,
    MethodSpec,
    RopeParams,
    SegaConfig,
    TokenFeatures,
    TrajectoryConfig,
    center_map,
    generate_latent,
    read_latent,
    token_features,
    write_latent,
)
from sega.cli import main
from sega.tensorio import (
    MAX_STEPS,
    LatentIOError,
    _normalize_field,
    checked_structure_params,
    structure_field,
)


class TestLatentGrid:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            LatentGrid(np.zeros((1, 4, 1)))
        with pytest.raises(ValueError):
            LatentGrid(np.zeros((4, 1, 1)))
        with pytest.raises(ValueError):
            LatentGrid(np.zeros((2, 2, 0)))
        with pytest.raises(ValueError, match="expected 2D or 3D array"):
            LatentGrid(np.zeros((2, 2, 1, 1)))

    def test_shape_is_the_values_shape(self):
        grid = LatentGrid(np.zeros((5, 3)))  # one channel
        assert (grid.height, grid.width, grid.channels) == (5, 3, 1) == grid.values.shape

    def test_keeps_a_copy_of_the_callers_array(self):
        # float32 and contiguous already, so only the constructor's own copy
        # keeps the caller's array writeable and apart from the grid
        arr = np.ones((4, 3, 2), dtype=np.float32)
        grid = LatentGrid(arr)
        assert arr.flags.writeable and not grid.values.flags.writeable
        arr[0, 0, 0] = 7.0
        assert np.all(grid.values == 1.0)

    def test_rejects_non_finite(self):
        arr = np.zeros((2, 2, 1))
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LatentGrid(arr)

    def test_refuses_a_value_float32_cannot_hold_without_a_warning(self):
        # 1e39 once cast to inf with "overflow encountered in cast" before the
        # refusal; Tier-1 runs with RuntimeWarning as an error
        with pytest.raises(ValueError, match="^grid values must be finite$"):
            LatentGrid(np.full((2, 2), 1e39))
        # float32 rounds from 2**128 - 2**103 up to inf, and just below it down
        # to its largest finite value
        limit = 2.0**128 - 2.0**103
        with pytest.raises(ValueError, match="^grid values must be finite$"):
            LatentGrid(np.full((2, 2), -limit))
        grid = LatentGrid(np.full((2, 2), np.nextafter(limit, 0.0)))
        assert np.all(grid.values == np.finfo(np.float32).max)


class TestTokenFeatures:
    def test_seeded_projection_of_the_tokens(self):
        grid = LatentGrid(np.random.default_rng(4).standard_normal((5, 7, 3)))
        feats = token_features(grid, 16, seed=9, step=2)
        rng = np.random.default_rng(np.random.SeedSequence([9, 2, 2]))  # the feature stream
        proj = rng.standard_normal((3, 16)) / np.sqrt(3)
        # the two factors are kept, not multiplied out, so their bits are fixed;
        # the tokens are the grid itself, in float64
        assert feats.tokens.dtype == np.float64 and np.array_equal(feats.tokens, grid.values)
        assert np.array_equal(feats.proj, proj)
        with pytest.raises(ValueError):
            token_features(grid, 0, seed=9, step=2)

    @pytest.mark.parametrize("tokens, proj, message", [
        (np.ones((4, 3)), np.ones((3, 8)), "cannot project"),  # flat tokens: no grid
        (np.ones((2, 2, 3)), np.ones((2, 8)), "cannot project"),  # 3 channels, 2 projected
        (np.ones((2, 2, 2)), np.ones(8), "cannot project"),
        # an empty axis once reached the kernel's block size as a ZeroDivisionError
        (np.zeros((0, 5, 2)), np.ones((2, 8)), "has no tokens"),
        (np.zeros((5, 0, 2)), np.ones((2, 8)), "has no tokens"),
        (np.zeros((0, 0, 2)), np.ones((2, 8)), "has no tokens"),
    ])
    def test_rejects_mismatched_projection(self, tokens, proj, message):
        with pytest.raises(ValueError, match=message):
            TokenFeatures(tokens, proj)


class TestCenterMap:
    def test_constant_grid_becomes_zero(self):
        grid = LatentGrid(np.full((4, 5, 3), 7.0))
        out = center_map(grid)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_hand_2x2(self):
        grid = LatentGrid(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
        out = center_map(grid)
        assert out.dtype == np.float64 and out.shape == (2, 2)
        np.testing.assert_allclose(out, [[-1.5, -0.5], [0.5, 1.5]], atol=1e-12)

    def test_opposite_channels_cancel(self):
        a = np.random.default_rng(3).standard_normal((6, 6)).astype(np.float32)
        grid = LatentGrid(np.stack([a, -a], axis=2))
        out = center_map(grid)
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    @given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sum_is_always_tiny(self, h, w, c, seed):
        gen = np.random.default_rng(seed)
        grid = LatentGrid(gen.standard_normal((h, w, c)))
        out = center_map(grid)
        assert abs(out.sum()) <= 1e-6 * h * w


def segl(h=2, w=2, c=1, values=None, version=1):
    """A SEGL file's bytes: its header for h x w x c and values (h * w * c ones if None)."""
    values = np.ones(h * w * c) if values is None else values
    return b"SEGL" + bytes([version]) + struct.pack("<III", h, w, c) + np.asarray(values, "<f4").tobytes()


class TestSeglFormat:
    @given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, tmp_path_factory, h, w, c, seed):
        gen = np.random.default_rng(seed)
        grid = LatentGrid(gen.standard_normal((h, w, c)))
        path = tmp_path_factory.mktemp("segl") / "grid.segl"
        write_latent(grid, path)
        back = read_latent(path)
        assert (back.height, back.width, back.channels) == (h, w, c)
        np.testing.assert_array_equal(back.values, grid.values)

    @pytest.mark.parametrize("data, fault", [
        (b"", "not a SEGL file"),
        (b"XXXX" + bytes(20), "not a SEGL file"),
        (segl(version=2), "unsupported version 2"),
        (segl()[:16], "header truncated"),
        (segl()[:-4], "payload holds 12 bytes, not the 16 of 2x2x1 floats"),
        (segl() + bytes(4), "payload holds 20 bytes, not the 16 of 2x2x1 floats"),
        (segl(values=[1.0, math.nan, 1.0, 1.0]), "grid values must be finite"),
        (segl(values=[1.0, 1.0, math.inf, 1.0]), "grid values must be finite"),
        (segl(values=[-math.inf, 1.0, 1.0, 1.0]), "grid values must be finite"),
        (segl(1, 4, 1), "grid must be at least 2x2, got 1x4"),
        (segl(2, 2, 0), "grid needs at least one channel"),
    ], ids=["empty", "bad_magic", "version_2", "header_16_bytes", "payload_short", "payload_long",
            "nan", "pos_inf", "neg_inf", "dims_1x4", "zero_channels"])
    def test_malformed_file_names_its_path_and_fault(self, tmp_path, data, fault):
        # Each fault is a LatentIOError, whether the reader or LatentGrid finds
        # it, so every command that reads a latent exits 3 on it.
        path = tmp_path / "bad.segl"
        path.write_bytes(data)
        message = f"{path}: {fault}"
        with pytest.raises(LatentIOError) as info:
            read_latent(path)
        assert str(info.value) == message
        res = CliRunner().invoke(main, ["modulate", "--latent", str(path)])
        assert res.exit_code == 3
        assert message in res.stderr and res.stdout == ""


class TestTrajectoryConfig:
    def test_blend_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(steps=3, seed=0, noise_blend={"kind": "table", "values": [0.1, 0.5, 0.9]})

    def test_blend_range_checked(self):
        with pytest.raises(ValueError, match=r"blend weights must lie in \[0, 1\]"):
            TrajectoryConfig(steps=2, seed=0, noise_blend={"kind": "constant", "value": 1.5})
        nan_blend = {"kind": "constant", "value": float("nan")}  # named by its key, not the range
        with pytest.raises(ValueError, match="noise_blend.value must be a finite number"):
            TrajectoryConfig(steps=2, seed=0, noise_blend=nan_blend)
        with pytest.raises(ValueError, match=r"noise_blend.values\[1\] must be a number"):
            TrajectoryConfig(steps=2, seed=0, noise_blend={"kind": "table", "values": [1.0, "0.5"]})

    def test_grid_past_addressable_size_rejected(self):
        # checked from the sizes alone: nothing is allocated
        with pytest.raises(ValueError, match="addressable"):
            TrajectoryConfig(steps=1, seed=0, height=2**32, width=2**32, channels=1)

    @pytest.mark.parametrize("block", [1.5, True, np.True_, "2", 0, np.int64(0)])
    def test_checker_blocks_are_positive_integers(self, block):
        with pytest.raises(ValueError, match="^structure_params for 'checker': block_h and block_w "
                                             "must be integers >= 1$"):
            TrajectoryConfig(steps=1, seed=0, structure_kind="checker",
                             structure_params={"block_w": block})

    def test_numpy_integer_checker_blocks(self):
        # as every int field does, a checker block takes a numpy integer
        def config(block_h, block_w):
            return TrajectoryConfig(steps=1, height=6, width=8, channels=1, structure_kind="checker",
                                    structure_params={"block_h": block_h, "block_w": block_w})

        blocks = checked_structure_params(config(np.int64(2), np.uint8(3)))
        assert blocks == {"block_h": 2, "block_w": 3}
        assert all(type(b) is int for b in blocks.values())
        np.testing.assert_array_equal(structure_field(config(np.int64(2), np.uint8(3))),
                                      structure_field(config(2, 3)))

    def test_blend_table_is_not_the_callers_list(self):
        # a shallow copy kept the caller's list, so a weight set after the [0, 1]
        # check reached alpha
        values = [1.0, 0.5, 0.0]
        cfg = TrajectoryConfig(steps=3, noise_blend={"kind": "table", "values": values})
        values[2] = 7.0
        assert cfg.alpha(2) == 0.0
        assert cfg.noise_blend == {"kind": "table", "values": [1.0, 0.5, 0.0]}

    def test_dicts_changed_after_construction_do_not_change_the_run(self):
        # the run read both dicts on every call, so a value set after the checks reached it
        cfg = TrajectoryConfig(steps=3, height=8, width=8, channels=2,
                               structure_params={"cycles_h": 1.0, "cycles_w": 2.0},
                               noise_blend={"kind": "table", "values": [1.0, 0.5, 0.0]})
        field = structure_field(cfg)
        cfg.noise_blend["values"][2] = 7.0
        cfg.structure_params["cycles_w"] = 1e308
        assert cfg.alpha(2) == 0.0
        assert structure_field(cfg).tobytes() == field.tobytes()
        with pytest.raises(TypeError):
            cfg.structure["cycles_w"] = 3.0

    def test_resolved_values_are_not_fields(self):
        # asdict, the config echo and replace see only the dicts as given
        cfg = TrajectoryConfig(steps=2, noise_blend={"kind": "constant", "value": 0.5})
        assert asdict(cfg)["noise_blend"] == {"kind": "constant", "value": 0.5}
        assert set(asdict(cfg)) == {f.name for f in fields(TrajectoryConfig)}
        assert replace(cfg, steps=3).alphas == (0.5, 0.5, 0.5)

    def test_library_callers_get_the_blend_key_check(self):
        # once accepted, and the run was linear
        with pytest.raises(ValueError, match=r"^noise_blend has unknown key\(s\) for kind 'linear': value$"):
            TrajectoryConfig(steps=3, noise_blend={"kind": "linear", "value": 0.3})

    @pytest.mark.parametrize("blend", [{"kind": "linear"}, {"kind": "constant", "value": 0.5},
                                       {"kind": "table", "values": [0.5] * MAX_STEPS}],
                             ids=["linear", "constant", "table"])
    def test_every_blend_kind_resolves_one_weight_per_step(self, blend):
        cfg = TrajectoryConfig(steps=MAX_STEPS, height=2, width=2, channels=1, noise_blend=blend)
        assert len(cfg.alphas) == MAX_STEPS
        assert all(type(a) is float for a in cfg.alphas)
        if blend["kind"] == "linear":
            times = [cfg.time(t) for t in range(MAX_STEPS)]
            assert np.array(cfg.alphas).tobytes() == np.array(times).tobytes()

    def test_linear_blend_endpoints(self):
        cfg = TrajectoryConfig(steps=5, seed=0)
        assert cfg.alpha(0) == 1.0
        assert cfg.alpha(4) == 0.0
        assert cfg.time(0) == 1.0
        assert cfg.time(4) == 0.0

    def test_unknown_structure_kind(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(steps=1, seed=0, structure_kind="plasma")

    @pytest.mark.parametrize("name", ["steps", "seed", "height", "width", "channels"])
    def test_nan_size_is_refused_by_name(self, name):
        # NaN compares false with everything, so a `steps < 1` test lets it through
        with pytest.raises(ValueError, match=f"^{name} must"):
            TrajectoryConfig(**{name: math.nan})

    def test_numpy_integer_fields_are_integers(self):
        cfg = TrajectoryConfig(steps=np.int64(2), seed=np.uint32(3), height=np.int32(4),
                               width=np.int16(5), channels=np.int8(2))
        assert latent(cfg, 1).values.shape == (4, 5, 2)
        # the addressable-size product is taken in Python ints, which do not wrap
        with pytest.raises(ValueError, match="addressable"):
            TrajectoryConfig(height=np.int32(2**20), width=np.int32(2**20), channels=np.int32(2**20))

    @pytest.mark.parametrize("key, axis", [("block_h", "height"), ("block_w", "width")])
    def test_checker_block_past_a_c_long_is_one_block(self, key, axis):
        # 2**63 once overflowed the floor division; a block at least its axis long is one block
        def field(block):
            return structure_field(TrajectoryConfig(
                steps=1, height=6, width=8, channels=1, structure_kind="checker",
                structure_params={"block_h": 2, "block_w": 3, key: block}))
        np.testing.assert_array_equal(field(2**63), field({"height": 6, "width": 8}[axis]))


class TestCheckFields:
    """Each section's annotations are its type checks, for a direct construction too."""

    @pytest.mark.parametrize("cls, values, message", [
        # Each of these once constructed; the first two then raised TypeError in
        # run_trajectory, the other three were never refused.
        (RopeParams, {"dim": 16.0}, "dim must be an integer"),
        (SegaConfig, {"n_bins_iso": 3.5}, "n_bins_iso must be an integer"),
        (RopeParams, {"base": True}, "base must be a number"),
        (RopeParams, {"dype_strong": 3}, "dype_strong must be true or false"),
        (MethodSpec, {"name": "a", "temperature": "no"}, "temperature must be true or false"),
        # Each of these once constructed, and generate_latent (or, for steps,
        # run_trajectory's range) then raised TypeError.
        (TrajectoryConfig, {"seed": 1.5}, "seed must be an integer"),
        (TrajectoryConfig, {"seed": math.inf}, "seed must be an integer"),
        (TrajectoryConfig, {"seed": True}, "seed must be an integer"),
        (TrajectoryConfig, {"height": 4.5}, "height must be an integer"),
        (TrajectoryConfig, {"width": 3.0}, "width must be an integer"),
        (TrajectoryConfig, {"channels": 1.5}, "channels must be an integer"),
        (TrajectoryConfig, {"steps": 2.5}, "steps must be an integer"),
        (SegaConfig, {"kappa": True}, "kappa must be a number"),
        (SegaConfig, {"eps": math.inf}, "eps must be a finite number"),
        (SegaConfig, {"gamma": "2"}, "gamma must be a number"),
        (SegaConfig, {"gamma": np.bool_(True)}, "gamma must be a number"),
        (RopeParams, {"ratio_h": np.float64(math.nan)}, "ratio_h must be a finite number"),
        (SegaConfig, {"ref_form": 1}, "ref_form must be a string"),
        (SegaConfig, {"ref_form": "cubic"}, "ref_form must be one of ('power', 'log')"),
        # rope.method, once checked by the config loader alone
        (RopeParams, {"method": "rope2d"},
         "method must be one of ('none', 'pi', 'ntk', 'ntk_strong', 'yarn', 'dype')"),
        (RopeParams, {"method": 5}, "method must be a string"),
        (TrajectoryConfig, {"structure_kind": "plasma"},
         "structure_kind must be one of ('sinusoid', 'band_limited', 'checker', 'file')"),
        (TrajectoryConfig, {"noise_blend": [["kind", "linear"]]}, "noise_blend must be an object"),
        (MethodSpec, {"name": 5}, "name must be a string"),
        (MethodSpec, {"name": "a", "grid": "both"}, "grid must be one of ('target', 'train')"),
    ])
    def test_wrong_type_is_refused_by_name(self, cls, values, message):
        with pytest.raises(ValueError) as err:
            cls(**values)
        assert str(err.value) == message

    def test_accepted_values(self):
        assert RopeParams(dim=np.int64(16)).dim == 16
        base = RopeParams(base=10000).base
        assert type(base) is float and base == 10000.0
        ratio = RopeParams(ratio_h=np.float32(2.5)).ratio_h
        assert type(ratio) is float and ratio == 2.5
        assert SegaConfig(n_bins_iso=None).n_bins_iso is None
        assert SegaConfig(n_bins_iso=np.int32(4)).n_bins_iso == 4
        params = {"cycles_w": 3.0}
        cfg = TrajectoryConfig(structure_params=params)
        assert cfg.structure_params == params and cfg.structure_params is not params

    @pytest.mark.parametrize("cls", [RopeParams, SegaConfig, TrajectoryConfig, MethodSpec],
                             ids=lambda cls: cls.__name__)
    def test_every_annotation_is_one_check_fields_handles(self, cls):
        # A new field whose annotation check_fields cannot read fails here, not
        # with a KeyError at its first construction.
        for name, hint in get_type_hints(cls).items():
            args = get_args(hint)
            if type(None) in args:  # X | None, as check_fields reads it
                assert len(args) == 2 and args[1] is type(None), f"{name}: {hint}"
                hint = args[0]
            literal = get_origin(hint) is Literal and all(type(a) is str for a in get_args(hint))
            assert literal or hint in (int, float, bool, str, dict), f"{name}: {hint}"


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb", "step"])
def test_method_name_must_fit_one_csv_header_cell(name):
    # entropy_trace.csv writes each name raw into a header that starts with "step"
    with pytest.raises(ValueError) as err:
        MethodSpec(name)
    assert str(err.value) == 'name must not be "step" or contain a comma, quote or line break'


def latent(cfg, step):
    """generate_latent at one step, with cfg's structure field built for it."""
    return generate_latent(cfg, step, structure_field(cfg))


class TestGenerateLatent:
    def test_pure_noise_is_the_seeded_stream(self):
        cfg = TrajectoryConfig(
            steps=2, seed=11, height=8, width=8, channels=2,
            noise_blend={"kind": "constant", "value": 1.0},
        )
        grid = latent(cfg, 1)
        rng = np.random.default_rng(np.random.SeedSequence([11, 0, 1]))
        expected = rng.standard_normal((8, 8, 2)).astype(np.float32)
        np.testing.assert_array_equal(grid.values, expected)

    def test_pure_structure_is_the_normalized_sinusoid(self):
        cfg = TrajectoryConfig(
            steps=1, seed=5, height=8, width=16, channels=1,
            structure_kind="sinusoid", structure_params={"cycles_w": 3.0},
            noise_blend={"kind": "constant", "value": 0.0},
        )
        grid = latent(cfg, 0)
        field = structure_field(cfg)
        np.testing.assert_allclose(grid.values, field.astype(np.float32), atol=1e-6)
        assert abs(field.mean()) < 1e-12
        assert abs(field.std() - 1.0) < 1e-9

    def test_deterministic_across_calls(self):
        cfg = TrajectoryConfig(steps=4, seed=9, height=8, width=8, channels=3)
        a = latent(cfg, 2)
        b = latent(cfg, 2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_step_bounds_checked(self):
        cfg = TrajectoryConfig(steps=2, seed=0, height=4, width=4, channels=1)
        with pytest.raises(ValueError):
            latent(cfg, 2)

    def test_file_structure_missing(self, tmp_path):
        cfg = TrajectoryConfig(
            steps=1, seed=0, height=4, width=4, channels=1,
            structure_kind="file", structure_params={"path": str(tmp_path / "nope.segl")},
        )
        with pytest.raises(OSError):
            latent(cfg, 0)

    def test_file_structure_round_trip(self, tmp_path):
        src = LatentGrid(np.random.default_rng(1).standard_normal((4, 4, 1)))
        path = tmp_path / "src.segl"
        write_latent(src, path)
        cfg = TrajectoryConfig(
            steps=1, seed=0, height=4, width=4, channels=1,
            structure_kind="file", structure_params={"path": str(path)},
            noise_blend={"kind": "constant", "value": 0.0},
        )
        grid = latent(cfg, 0)
        norm = src.values.astype(np.float64)
        norm = (norm - norm.mean()) / norm.std()
        np.testing.assert_allclose(grid.values, norm.astype(np.float32), atol=1e-6)

    def test_all_zero_structure_stays_finite(self):
        cfg = TrajectoryConfig(
            steps=1, seed=0, height=4, width=4, channels=1,
            structure_kind="sinusoid", structure_params={"cycles_w": 0.0},
            noise_blend={"kind": "constant", "value": 0.0},
        )
        grid = latent(cfg, 0)
        np.testing.assert_array_equal(grid.values, 0.0)

    def test_non_finite_structure_is_refused_not_zeroed(self):
        # Zeroing it, as a constant field is zeroed, would run without structure.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not finite"):
                _normalize_field(np.array([[0.0, 1.0], [bad, 2.0]]))
