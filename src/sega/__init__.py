"""Spectral-energy guided scaling of 2D rotary position embeddings.

Library layout:

* :mod:`sega.tensorio`  - latent grids, SEGL files, synthetic generators
* :mod:`sega.rope`      - frequency schedules, extrapolation variants, rotation
* :mod:`sega.spectral`  - spectra, profiles, flatness, the scaling modulator
* :mod:`sega.attention` - blocked rotary attention entropy (the CLI path) and
  the dense reference oracle
* :mod:`sega.harness`   - simulated denoising trajectories and traces
* :mod:`sega.cli`       - the `sega` command
"""

from .attention import (
    AttentionField,
    attend,
    attend_rotary,
    attention_entropy,
    entropy_delta,
    grid_positions,
    rotary_attention_row,
    rotary_entropy,
)
from .harness import MethodSpec, RopeParams, TrajectoryRecord, entropy_trace, run_trajectory, spectral_heatmap
from .rope import (
    RopeSchedule,
    YarnParams,
    apply_rotary,
    axial_rotary,
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
    ScalingVector,
    SegaConfig,
    SpectralProfiles,
    amplitude_factor,
    analyze,
    axis_profiles,
    band_lookup,
    modulate,
    modulate_detailed,
    per_dim_correction,
    power_spectrum_2d,
    radial_profile,
    reference_scale,
    spectral_flatness,
)
from .tensorio import (
    CenteredMap,
    LatentGrid,
    LatentIOError,
    TrajectoryConfig,
    center_map,
    generate_latent,
    read_latent,
    token_features,
    write_latent,
)

__version__ = "0.1.0"
