"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 2 usage or config error, 3 I/O error (latent files,
output files and directories, a stdout whose reader has gone); every
subcommand's body is mapped to them once, by its command class. A numeric
flag's bound is checked only by the library function the flag feeds, whose
ValueError exits 2 with that function's message. All numeric output is
formatted at 9 significant digits so identical configs yield byte-identical
files, at one BLAS thread or two (checked with numpy's OpenBLAS 0.3.31 on
x86; see attention.SERIAL_GEMM). Each command's body returns its whole stdout,
which its command class prints in one flushed write.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import spectral
from .attention import rotary_attention_row, rotary_entropy
from .config import ExperimentConfig, load_experiment_config
from .fmtio import canonical_json, csv_text, fmt, write_csv, write_json
from .harness import SCALING_MODES, MethodSpec, axis_schedules, method_inputs, spectral_heatmap, trajectory_files
from .rope import MAX_DIM, METHODS, YarnParams, base_frequencies, make_schedule, yarn_weights
from .tensorio import LatentIOError, read_latent, token_features


def _config_epilog(cfg: ExperimentConfig) -> str:
    """The --help epilog: the values the loader resolves for an empty config."""
    sega, rope, traj = cfg.sega, cfg.rope, cfg.trajectory
    return (
        f"Config defaults: sega kappa={sega.kappa:g}, gamma={sega.gamma:g}, "
        f"ref_form={sega.ref_form}, eps={sega.eps:g}; rope dim={rope.dim}, "
        f"base={rope.base:g}, method={rope.method}, ratio={rope.ratio_scalar:g}; "
        f"trajectory {traj.steps} steps of {traj.height}x{traj.width}x{traj.channels} "
        f"with a {traj.noise_blend['kind']} noise blend."
    )


CONFIG_EPILOG = _config_epilog(load_experiment_config({}))


class FileError(click.ClickException):
    exit_code = 3


class _Command(click.Command):
    """A subcommand that prints the stdout its body returns in one flushed write. A fault
    in the body or that write exits with its documented code: a latent-file or filesystem
    failure 3, a ValueError (a config fault or a flag combination the math rejects) 2."""

    def invoke(self, ctx):
        try:
            print(super().invoke(ctx), end="", flush=True)
        except (LatentIOError, OSError) as exc:
            raise FileError(str(exc))
        except ValueError as exc:
            raise click.UsageError(str(exc))


class _Group(click.Group):
    command_class = _Command


def _given(**values) -> dict:
    """The keyword arguments whose flags were given; the callee's defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


@click.group(cls=_Group)
def main():
    """Spectral-energy guided rotary scaling: analysis and experiment tooling."""


@main.command("rope-table")
@click.option("--dim", type=int, required=True, help=f"Embedding size per axis (even, at most {MAX_DIM}).")
@click.option("--base", type=float, default=10000.0, show_default=True, help="Rotary base b.")
@click.option("--method", type=click.Choice(METHODS), default="none",
              show_default=True, help="Frequency recalibration method.")
@click.option("--ratio", type=float, default=None,
              help="Extrapolation ratio, target over training length "
                   "(not with --method none; default 1).")
@click.option("--alpha", type=float, default=None, help="Lower ramp bound (yarn only; default 1).")
@click.option("--beta", type=float, default=None, help="Upper ramp bound (yarn only; default 32).")
@click.option("--train-len", type=float, default=None, help="Training token count along the axis (yarn only).")
@click.option("--dype-t", type=float, default=None,
              help="Denoising time in [0,1], 1 = pure noise (dype only; default 0.0).")
@click.option("--dype-p", type=float, default=None, help="Ratio schedule exponent (dype only; default 1.0).")
@click.option("--dype-strong", is_flag=True, default=False,
              help="Use the strengthened base exponent inside dype.")
def rope_table(dim, base, method, ratio, alpha, beta, train_len, dype_t, dype_p, dype_strong):
    """Dump (d, theta, theta', wavelength[, lambda]) for a schedule as CSV."""
    if method != "yarn" and any(v is not None for v in (alpha, beta, train_len)):
        raise click.UsageError("--alpha/--beta/--train-len are only valid with --method yarn")
    if method != "dype" and (dype_strong or any(v is not None for v in (dype_t, dype_p))):
        raise click.UsageError("--dype-t/--dype-p/--dype-strong are only valid with --method dype")
    if method == "none" and ratio is not None:
        raise click.UsageError("--ratio is not valid with --method none, which has no ratio")
    if method == "yarn" and train_len is None:
        raise click.UsageError("--method yarn requires --train-len")
    yarn = None
    if method == "yarn":
        yarn = YarnParams(**_given(alpha=alpha, beta=beta), train_len=train_len)
    sched = make_schedule(
        dim, base, method, yarn=yarn, dype_strong=dype_strong,
        **_given(ratio=ratio, dype_time=dype_t, dype_p=dype_p),
    )
    theta0 = base_frequencies(dim, base)  # make_schedule has checked dim and base
    header = ["d", "theta", "theta_prime", "wavelength"]
    columns = [np.arange(dim // 2), theta0, sched.theta, 2.0 * np.pi / theta0]
    if method == "yarn":
        header.append("lambda")
        columns.append(yarn_weights(theta0, yarn))
    return csv_text(header, columns)


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--config", "config_path", default=None, help="Experiment config JSON.")
@click.option("--ratio", type=float, default=None, help="Override the config's rope ratio.")
def modulate(latent_path, config_path, ratio):
    """Emit per-axis scaling vectors for one latent as JSON."""
    cfg = load_experiment_config({} if config_path is None else config_path)
    rope = replace(cfg.rope, **_given(ratio_h=ratio, ratio_w=ratio))  # a bad --ratio exits 2 first
    grid = read_latent(latent_path)
    sched_h, sched_w = axis_schedules(rope, rope.method, grid.height, grid.width)
    result = spectral.modulate_detailed(
        spectral.analyze(grid, cfg.sega.n_bins_iso), sched_h, sched_w, rope.ratio_scalar, cfg.sega
    )
    axes = [
        {"axis": axis, "m_ref": result.m_ref, "sigma": result.sigma, "SF": result.flatness,
         "s_corr": s, "m": m}
        for axis, s, m in (("H", result.s_h, result.m_h), ("W", result.s_w, result.m_w))
    ]
    return canonical_json({"axes": axes}) + "\n"


@main.command()
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--bins", type=int, default=None, help="Radial bin count (default max(2, min(H,W)//2)).")
def spectrum(latent_path, bins):
    """Emit axis-wise and radial energy profiles as CSV (profile,bin,energy,occupied)."""
    profiles = spectral.analyze(read_latent(latent_path), bins)
    energies = (profiles.axis_h, profiles.axis_w, profiles.radial)
    sizes = [len(energy) for energy in energies]
    columns = [
        np.repeat(["axis_h", "axis_w", "radial"], sizes),
        np.concatenate([np.arange(size) for size in sizes]),
        np.concatenate(energies),
        np.concatenate([np.ones(sizes[0] + sizes[1], dtype=int), profiles.occupied.astype(int)]),
    ]
    return csv_text(["profile", "bin", "energy", "occupied"], columns)


def attention_flags(fn):
    """The config and rotary-magnitude options that attn-map and entropy share."""
    fn = click.option("--logit-scale", type=float, default=1.0, show_default=True,
                      help="Extra uniform logit factor.")(fn)
    fn = click.option("--feature-seed", type=click.IntRange(min=0), default=0, show_default=True,
                      help="Seed for the token feature projection.")(fn)
    fn = click.option("--scaling", type=click.Choice(SCALING_MODES), default="none",
                      show_default=True, help="Rotary magnitude mode.")(fn)
    fn = click.option("--config", "config_path", default=None, help="Experiment config JSON.")(fn)
    return fn


def _attention_setup(latent_path, config_path, scaling, feature_seed, logit_scale):
    """The latent and the attention call's arguments: its features, then method_inputs of
    the config's rope at t = 0, whose logit factor (1, with no temperature) scales logit_scale."""
    cfg = load_experiment_config({} if config_path is None else config_path)  # faults exit 2 first
    grid = read_latent(latent_path)
    method = MethodSpec("cli", cfg.rope.method, scaling)
    profiles = spectral.analyze(grid, cfg.sega.n_bins_iso) if method.reads_profiles else None
    *kernel, factor = method_inputs(method, profiles, cfg.rope, grid.height, grid.width, 0.0, cfg.sega)
    return grid, (token_features(grid, 2 * cfg.rope.dim, feature_seed, 0), *kernel, factor * logit_scale)


@main.command("attn-map", epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--query-h", type=int, required=True, help="Query token row.")
@click.option("--query-w", type=int, required=True, help="Query token column.")
@attention_flags
def attn_map(latent_path, query_h, query_w, config_path, scaling, feature_seed, logit_scale):
    """Emit one query token's attention weights over the 2D grid as CSV."""
    grid, args = _attention_setup(latent_path, config_path, scaling, feature_seed, logit_scale)
    row = rotary_attention_row(*args, query=(query_h, query_w))
    header = ["h"] + [f"w{j}" for j in range(grid.width)]
    return csv_text(header, [np.arange(grid.height), *row.reshape(grid.height, grid.width).T])


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@attention_flags
def entropy(latent_path, config_path, scaling, feature_seed, logit_scale):
    """Emit per-token attention entropies as CSV, with a trailing mean row."""
    grid, args = _attention_setup(latent_path, config_path, scaling, feature_seed, logit_scale)
    per_row, mean = rotary_entropy(*args)
    token = np.arange(per_row.size)
    table = csv_text(["token", "h", "w", "entropy"], [token, token // grid.width, token % grid.width, per_row])
    return table + f"mean,,,{fmt(mean)}\n"


def _run_command(name: str, doc: str, build):
    """A command that writes the files build(cfg) makes into --out-dir, the config
    echo first in each summary, and returns their listing. A config fault exits 2
    before the directory is probed, and an unwritable directory exits 3 before the run."""

    @main.command(name, help=doc, epilog=CONFIG_EPILOG)
    @click.option("--config", "config_path", required=True, help="Experiment config JSON.")
    @click.option("--out-dir", required=True, help="Directory for CSV/JSON outputs.")
    def run(config_path, out_dir):
        cfg = load_experiment_config(config_path)
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            tempfile.TemporaryFile(dir=out).close()
        except OSError as exc:
            raise OSError(f"output directory not writable: {exc}")
        files = build(cfg)
        for file, content in files.items():
            if file.endswith(".csv"):
                write_csv(out / file, *content)
            else:
                write_json(out / file, {"config": cfg.snapshot(), **content})
        return "".join(f"wrote {out / file}\n" for file in files)

    return run


trajectory = _run_command(
    "trajectory", "Run a full simulated trajectory; write scaling maps, heatmap, entropy trace, summary.",
    lambda cfg: trajectory_files(cfg.trajectory, cfg.methods, cfg.baseline, cfg.sega, cfg.rope),
)
heatmap = _run_command(
    "heatmap", "Write the per-step normalized radial spectrum matrix.",
    lambda cfg: spectral_heatmap(cfg.trajectory, cfg.sega),
)


if __name__ == "__main__":
    main()
