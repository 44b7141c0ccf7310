"""Spectrum, profiles, flatness, and the scaling modulator."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sega import (
    LatentGrid,
    SegaConfig,
    amplitude_factor,
    analyze,
    axis_profiles,
    band_lookup,
    center_map,
    make_schedule,
    modulate_detailed,
    per_dim_correction,
    power_spectrum_2d,
    radial_profile,
    reference_scale,
    spectral_flatness,
)
from sega.rope import METHODS
from sega.spectral import MODULATOR_FLOOR
from conftest import CLAMPED_STEP, SEEDS_64, noise_grid, sinusoid_grid, structured_latent
from oracles import flatness_direct, naive_dft2, reference_scale_direct


def centered(arr2d):
    return center_map(LatentGrid(np.asarray(arr2d, dtype=np.float64)[:, :, None]))


class TestPowerSpectrum:
    def test_zero_map(self):
        spec = power_spectrum_2d(centered(np.zeros((4, 4))))
        np.testing.assert_array_equal(spec, 0.0)

    def test_dc_is_removed(self, rng):
        spec = power_spectrum_2d(centered(rng.standard_normal((8, 8))))
        assert spec[0, 0] < 1e-18 * spec.max()

    def test_cosine_two_impulses(self):
        h, w, k = 8, 16, 3
        grid = np.broadcast_to(np.cos(2 * np.pi * k * np.arange(w) / w)[None, :], (h, w))
        spec = power_spectrum_2d(centered(grid))
        expected = np.zeros((h, w))
        expected[0, k] = expected[0, w - k] = (h * w / 2) ** 2
        np.testing.assert_allclose(spec, expected, atol=1e-6 * (h * w / 2) ** 2)

    def test_matches_naive_dft(self, rng):
        m = centered(rng.standard_normal((8, 8)))
        fast = power_spectrum_2d(m)
        slow = np.abs(naive_dft2(m)) ** 2
        np.testing.assert_allclose(fast, slow, atol=1e-6 * max(1.0, slow.max()))

    @given(st.integers(2, 16), st.integers(2, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_parseval(self, h, w, seed):
        gen = np.random.default_rng(seed)
        m = centered(gen.standard_normal((h, w)))
        spec = power_spectrum_2d(m)
        lhs = spec.sum()
        rhs = h * w * np.sum(m**2)
        assert abs(lhs - rhs) <= 1e-4 * max(rhs, 1e-12)


class TestAxisProfiles:
    def test_lengths(self):
        for h, w in [(8, 8), (9, 12), (6, 7)]:
            e_h, e_w = axis_profiles(np.ones((h, w)))
            assert len(e_h) == h // 2 and len(e_w) == w // 2

    def test_cosine_lands_in_band(self):
        h, w, k = 16, 16, 5
        grid = np.broadcast_to(np.cos(2 * np.pi * k * np.arange(w) / w)[None, :], (h, w))
        e_h, e_w = axis_profiles(power_spectrum_2d(centered(grid)))
        total = e_w.sum()
        assert e_w[k] > 0.999 * total          # all width energy at bin k
        assert e_h[0] > 0.999 * e_h.sum()       # height profile collapses to bin 0

    def test_zero_spectrum(self):
        e_h, e_w = axis_profiles(np.zeros((6, 6)))
        np.testing.assert_array_equal(e_h, 0.0)
        np.testing.assert_array_equal(e_w, 0.0)

    @given(st.integers(2, 11), st.integers(2, 11), st.integers(0, 2**32 - 1))
    @example(2, 2, 0)
    @example(3, 3, 0)
    @example(2, 3, 0)  # lengths 2 and 3 fold nothing: each profile is one bin
    @settings(max_examples=30, deadline=None)
    def test_fold_matches_loop_reference(self, h, w, seed):
        spec = np.random.default_rng(seed).uniform(0, 5, (h, w))
        e_h, e_w = axis_profiles(spec)
        for i in range(h // 2):
            expected = sum(spec[i, j] for j in range(w))
            if i > 0:
                expected += sum(spec[h - i, j] for j in range(w))
            assert abs(e_h[i] - expected) < 1e-9 * max(expected, 1.0)
        for j in range(w // 2):
            expected = sum(spec[i, j] for i in range(h))
            if j > 0:
                expected += sum(spec[i, w - j] for i in range(h))
            assert abs(e_w[j] - expected) < 1e-9 * max(expected, 1.0)

    def test_white_noise_profiles_flat(self):
        # average over committed seeds; folded bins share one expectation,
        # bin 0 holds a single spectrum row so it sits near half the others
        acc_h = np.zeros(32)
        acc_w = np.zeros(32)
        for seed in SEEDS_64:
            spec = power_spectrum_2d(center_map(noise_grid(seed)))
            e_h, e_w = axis_profiles(spec)
            acc_h += e_h
            acc_w += e_w
        for acc in (acc_h, acc_w):
            prof = acc / len(SEEDS_64)
            cv = prof.std() / prof.mean()
            assert cv < 0.1


class TestRadialProfile:
    def test_constant_spectrum(self):
        e, occ = radial_profile(np.full((8, 8), 3.5), 4)
        assert occ.all()
        np.testing.assert_allclose(e[occ], 3.5, rtol=1e-12)

    def test_single_ring_energy(self):
        h = w = 16
        grid = np.broadcast_to(np.cos(2 * np.pi * 2 * np.arange(w) / w)[None, :], (h, w))
        e, occ = radial_profile(power_spectrum_2d(centered(grid)), 8)
        hot = np.flatnonzero(e > 1e-9 * e.max())
        assert len(hot) == 1
        # (0, +-2) has rho = (2/16)/sqrt(0.5) = 0.1768 -> bin 1 of 8
        assert hot[0] == 1

    def test_corner_sample_lands_in_last_bin(self):
        h = w = 8
        spec = np.zeros((h, w))
        spec[h // 2, w // 2] = 1.0
        e, occ = radial_profile(spec, 4)
        assert e[3] > 0 and occ[3]

    @pytest.mark.parametrize("n_bins", [1, math.nan])
    def test_needs_two_bins(self, n_bins):
        with pytest.raises(ValueError, match=r"bins must lie in \[2, 16\]"):
            radial_profile(np.ones((4, 4)), n_bins)

    @pytest.mark.parametrize("n_bins", [17, 10**15])
    def test_at_most_one_bin_per_sample(self, n_bins):
        # refused before any bin is allocated; 10**15 bins would take 7.11 PiB
        with pytest.raises(ValueError, match=r"bins must lie in \[2, 16\], the latent's token count"):
            radial_profile(np.ones((4, 4)), n_bins)
        e, occupied = radial_profile(np.ones((4, 4)), 16)
        assert e.shape == occupied.shape == (16,)


class TestBandLookup:
    def test_one_cycle_maps_to_bin_one(self):
        L = 64
        assert band_lookup(2 * np.pi / L, L) == 1

    def test_tiny_frequency_maps_to_zero(self):
        assert band_lookup(1e-9, 64) == 0

    def test_sub_grid_wavelength_maps_to_zero(self):
        # wavelength longer than the axis, even if cycles*L rounds to 1
        L = 64
        assert band_lookup(0.9 * 2 * np.pi / L, L) == 0

    def test_nyquist_clamped(self):
        L = 64
        assert band_lookup(np.pi, L) == L // 2 - 1

    @pytest.mark.parametrize("theta", [0.0, math.nan, [1.0, 0.0], [math.nan, 1.0]])
    def test_rejects_nonpositive(self, theta):
        with pytest.raises(ValueError, match="theta_d must be positive"):
            band_lookup(theta, 64)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "yarn"])
    def test_vector_is_the_scalar_calls(self, method):
        for dim in range(4, 65, 2):
            theta = make_schedule(dim, method=method, ratio=2.0, dype_time=0.5).theta
            for axis_len in (2, 3, 17, 64, 65):
                bins = band_lookup(theta, axis_len)
                scalars = [band_lookup(t, axis_len) for t in theta]
                assert np.issubdtype(bins.dtype, np.integer)
                assert all(type(b) is int for b in scalars)
                assert bins.tolist() == scalars


class TestPerDimCorrection:
    def test_flat_profile_gives_zero(self):
        sched = make_schedule(16)
        s = per_dim_correction(np.full(32, 2.0), sched, axis_len=64)
        np.testing.assert_array_equal(s, 0.0)

    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError, match="profile must be nonempty"):
            per_dim_correction(np.array([]), make_schedule(16), axis_len=64)

    def test_two_point_standardization(self):
        # energies (e, 10e) in the two bins hit by a 2-dim schedule -> z = +-1
        sched = make_schedule(4, base=4.0)  # theta = [1, 0.5]
        L = 64
        bins = [band_lookup(t, L) for t in sched.theta]
        assert bins[0] != bins[1]
        profile = np.full(L // 2, 1e-30)
        profile[bins[0]] = 10.0
        profile[bins[1]] = 1.0
        s = per_dim_correction(profile, sched, axis_len=L)
        expect = math.tanh(1.0)
        np.testing.assert_allclose(s, [expect, -expect], atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_sum(self, seed):
        gen = np.random.default_rng(seed)
        sched = make_schedule(32)
        profile = np.exp(gen.normal(0, 3, 32))
        s = per_dim_correction(profile, sched, axis_len=64)
        assert abs(s.sum()) <= 1e-9 * len(s)
        assert np.all(np.abs(s) < 2.0)

    @given(st.integers(0, 2**32 - 1), st.floats(1.5, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_raising_a_band_never_lowers_its_correction(self, seed, factor):
        gen = np.random.default_rng(seed)
        sched = make_schedule(16)
        profile = np.exp(gen.normal(0, 2, 32))
        d = int(gen.integers(0, 8))
        bin_d = band_lookup(sched.theta[d], 64)
        before = per_dim_correction(profile, sched, axis_len=64)[d]
        boosted = profile.copy()
        boosted[bin_d] *= factor
        after = per_dim_correction(boosted, sched, axis_len=64)[d]
        assert after >= before - 1e-12


class TestFlatness:
    def test_constant_bins_give_one(self):
        e = np.full(32, 4.0)
        occ = np.ones(32, dtype=bool)
        assert spectral_flatness(e, occ) == 1.0

    def test_two_bins_hand_value(self):
        e = np.array([4.0, 1.0])
        occ = np.ones(2, dtype=bool)
        got = spectral_flatness(e, occ)
        assert math.isclose(got, 0.8, rel_tol=1e-12)
        assert math.isclose(got, flatness_direct(e), rel_tol=1e-12)

    def test_peaked_spectrum_goes_small(self):
        e = np.full(16, 1e-12)
        e[3] = 1.0
        occ = np.ones(16, dtype=bool)
        assert spectral_flatness(e, occ) < 1e-2

    def test_unoccupied_bins_ignored(self):
        e = np.array([5.0, 0.0, 5.0])
        occ = np.array([True, False, True])
        assert math.isclose(spectral_flatness(e, occ), 1.0, rel_tol=1e-12)

    def test_requires_occupied_bin(self):
        with pytest.raises(ValueError):
            spectral_flatness(np.zeros(4), np.zeros(4, dtype=bool))

    def test_all_floored_bins_give_exactly_one(self):
        # Every bin at the eps floor (a constant latent): the ratio of means
        # rounds to 1.000000000000001 unless capped at 1.
        e = np.zeros(32)
        occ = np.ones(32, dtype=bool)
        assert spectral_flatness(e, occ) == 1.0


class TestAmplitude:
    def test_flat_gives_zero_exactly(self):
        assert amplitude_factor(1.0, 1.5) == 0.0

    def test_peaked_goes_to_one(self):
        assert amplitude_factor(1e-9, 1.5) > 0.999

    def test_hand_value(self):
        assert math.isclose(amplitude_factor(0.8, 1.5), 1 - 0.8**1.5, rel_tol=1e-12)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            amplitude_factor(0.0, 1.5)
        with pytest.raises(ValueError):
            amplitude_factor(1.2, 1.5)
        with pytest.raises(ValueError):
            amplitude_factor(math.nan, 1.5)
        for gamma in (0.5, math.nan):  # NaN compares false, so `gamma < 1` would pass it
            with pytest.raises(ValueError, match="gamma must be >= 1"):
                amplitude_factor(0.5, gamma)


class TestSegaConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", 0.0), ("kappa", -1.0), ("kappa", math.nan),
            ("gamma", 0.5), ("gamma", math.nan),
            ("eps", 0.0), ("eps", math.nan),
            ("n_bins_iso", 1), ("n_bins_iso", math.nan),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        # The message starts with the field, which the config loader prefixes
        # with its section.
        with pytest.raises(ValueError, match=f"^{field} must"):
            SegaConfig(**{field: value})


class TestReferenceScale:
    def test_both_forms_at_one(self):
        assert reference_scale(1.0, SegaConfig(ref_form="power")) == 1.0
        assert reference_scale(1.0, SegaConfig(ref_form="log")) == 1.0

    @pytest.mark.parametrize("form", ["power", "log"])
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 3.7])
    def test_matches_direct_formula(self, form, ratio):
        got = reference_scale(ratio, SegaConfig(ref_form=form))
        assert math.isclose(got, reference_scale_direct(ratio, form), rel_tol=1e-12)

    @pytest.mark.parametrize("form, ratio", [("power", 2.0), ("log", 1e10)])
    def test_overflow_is_a_value_error(self, form, ratio):
        # ratio**kappa raises OverflowError; kappa * ln(ratio) is inf
        with pytest.raises(ValueError, match="overflows"):
            reference_scale(ratio, SegaConfig(kappa=1e308, ref_form=form))

    def test_rejects_sub_one_ratio(self):
        for ratio in (0.9, math.nan):  # NaN compares false, so `ratio < 1` would pass it
            with pytest.raises(ValueError):
                reference_scale(ratio, SegaConfig())


class TestModulate:
    def make_scheds(self, dim=64):
        return make_schedule(dim), make_schedule(dim)

    def test_mean_scaling_equals_reference(self, rng):
        sh, sw = self.make_scheds()
        grid = noise_grid(0)
        result = modulate_detailed(analyze(grid), sh, sw, 2.0)
        for m, s in ((result.m_h, result.s_h), (result.m_w, result.s_w)):
            assert abs(m.mean() - result.m_ref) < 1e-9
            assert abs(s.sum()) < 1e-9 * len(s)
            assert np.all(m > 0)

    def test_white_noise_stays_near_reference(self):
        sh, sw = self.make_scheds()
        devs = []
        for seed in range(32):
            result = modulate_detailed(analyze(noise_grid(seed)), sh, sw, 2.0)
            devs.append(np.mean(np.abs(result.m_h - result.m_ref)) / result.m_ref)
        assert float(np.mean(devs)) < 0.1

    def test_sinusoid_band_is_suppressed(self):
        sh, sw = self.make_scheds()
        grid = sinusoid_grid(cycles_w=4.0)
        result = modulate_detailed(analyze(grid), sh, sw, 2.0)
        bins = [band_lookup(t, grid.width) for t in sw.theta]
        hot_dims = [d for d, b in enumerate(bins) if b == 4]
        cold_dims = [d for d, b in enumerate(bins) if b != 4]
        assert hot_dims
        for d in hot_dims:
            assert result.s_w[d] > 0
            assert result.m_w[d] < result.m_ref
        hot = max(result.s_w[d] for d in hot_dims)
        assert all(result.s_w[d] < hot for d in cold_dims)

    def test_deterministic(self):
        sh, sw = self.make_scheds()
        grid = noise_grid(5)
        a = modulate_detailed(analyze(grid), sh, sw, 2.0)
        b = modulate_detailed(analyze(grid), sh, sw, 2.0)
        np.testing.assert_array_equal(a.m_h, b.m_h)
        np.testing.assert_array_equal(a.s_w, b.s_w)
        assert a.flatness == b.flatness

    def test_constant_latent_keeps_the_reference(self):
        sh, sw = self.make_scheds(16)
        constant = LatentGrid(np.full((8, 8, 2), 0.5))
        result = modulate_detailed(analyze(constant), sh, sw, 2.0)
        assert result.flatness == 1.0
        assert result.sigma == 0.0
        for m in (result.m_h, result.m_w):
            np.testing.assert_array_equal(m, result.m_ref)

    def test_default_bin_count_tracks_grid(self):
        def bins(h, w):
            return analyze(LatentGrid(np.zeros((h, w)))).radial.size

        assert bins(64, 64) == 32
        assert bins(8, 64) == 4
        assert bins(2, 2) == 2


class TestModulationInvariants:
    """What analyze and modulate_detailed guarantee, for every latent.

    SpectralProfiles and ModulationResult hold these arrays as built and check
    nothing on construction; this test holds the invariants instead.
    """

    def test_pinned_step_reaches_the_floor(self):
        sched = make_schedule(8)
        result = modulate_detailed(analyze(structured_latent(**CLAMPED_STEP)), sched, sched, 2.0)
        for m, s in ((result.m_h, result.s_h), (result.m_w, result.s_w)):
            assert np.min(1.0 - result.sigma * s) < 0.0
            assert np.min(m) == result.m_ref * MODULATOR_FLOOR

    def test_each_clamped_axis_logs_one_warning(self, caplog):
        # These records are what the benchmark's spectral.floor_clamps counts.
        caplog.set_level(logging.WARNING, logger="sega.spectral")
        sched = make_schedule(8)
        modulate_detailed(analyze(structured_latent(**CLAMPED_STEP)), sched, sched, 2.0)
        assert caplog.record_tuples == [
            ("sega.spectral", logging.WARNING, f"axis {axis}: clamped 1 modulator value(s) "
             "at floor 0.05; mean scaling is no longer exactly m_ref")
            for axis in "HW"
        ]
        caplog.clear()
        sched = make_schedule(64)
        modulate_detailed(analyze(noise_grid(0)), sched, sched, 2.0)
        assert caplog.records == []

    @given(
        kind=st.sampled_from(["random", "sinusoid", "checker"]),
        h=st.integers(2, 24),
        w=st.integers(2, 24),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        a=st.integers(0, 5),
        b=st.integers(0, 5),
        dim=st.sampled_from([4, 8, 16, 32]),
        ratio=st.floats(1.0, 8.0),
        gamma=st.floats(1.0, 4.0),
        ref_form=st.sampled_from(["power", "log"]),
    )
    @example(**CLAMPED_STEP, dim=8, ratio=2.0, gamma=1.5, ref_form="power")
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, kind, h, w, channels, seed, a, b, dim, ratio, gamma, ref_form):
        cfg = SegaConfig(gamma=gamma, ref_form=ref_form)
        profiles = analyze(structured_latent(kind, h, w, channels, seed, a, b))
        assert (profiles.axis_h.size, profiles.axis_w.size) == (h // 2, w // 2)
        assert profiles.occupied.shape == profiles.radial.shape
        for arr in (profiles.axis_h, profiles.axis_w, profiles.radial):
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0)

        sched = make_schedule(dim)
        result = modulate_detailed(profiles, sched, sched, ratio, cfg)
        assert 0.0 < result.flatness <= 1.0
        for m, s in ((result.m_h, result.s_h), (result.m_w, result.s_w)):
            assert m.shape == s.shape == (dim // 2,)
            assert np.all(np.isfinite(m)) and np.all(np.isfinite(s))
            assert abs(s.sum()) <= 1e-9 * len(s)
            assert 0.0 <= result.sigma <= 1.0
            assert np.all(m > 0)
            assert np.all(m >= result.m_ref * MODULATOR_FLOOR)
            if np.all(1.0 - result.sigma * s >= MODULATOR_FLOOR):
                assert abs(m.mean() - result.m_ref) <= 1e-9 * result.m_ref
