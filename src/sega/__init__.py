"""Spectral-energy guided scaling of 2D rotary position embeddings.

Library layout:

* :mod:`sega.tensorio`  - latent grids, SEGL files, synthetic generators
* :mod:`sega.rope`      - frequency schedules and their extrapolation variants
* :mod:`sega.spectral`  - spectra, profiles, flatness, the scaling modulator
* :mod:`sega.attention` - blocked rotary attention: per-token entropy and one
  query's weight row, never the N x N matrix
* :mod:`sega.harness`   - simulated denoising trajectories and every file of a run
* :mod:`sega.cli`       - the `sega` command
"""

from .attention import rotary_attention_row, rotary_entropy
from .harness import MethodSpec, RopeParams, run_trajectory, spectral_heatmap, trajectory_files
from .rope import (
    RopeSchedule,
    YarnParams,
    base_frequencies,
    dype_ratio,
    make_schedule,
    ntk_base,
    pi_frequencies,
    yarn_frequencies,
    yarn_ramp,
    yarn_temperature,
)
from .spectral import (
    ModulationResult,
    SegaConfig,
    SpectralProfiles,
    amplitude_factor,
    analyze,
    axis_profiles,
    band_lookup,
    modulate_detailed,
    per_dim_correction,
    power_spectrum_2d,
    radial_profile,
    reference_scale,
    spectral_flatness,
)
from .tensorio import (
    LatentGrid,
    LatentIOError,
    TokenFeatures,
    TrajectoryConfig,
    center_map,
    generate_latent,
    read_latent,
    token_features,
    write_latent,
)

__version__ = "0.1.0"
