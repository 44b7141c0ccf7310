"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 2 usage or config error, 3 I/O error (latent files,
output files and directories); every subcommand's body is mapped to them
once, by its command class. All numeric output is formatted at 9
significant digits so identical configs yield byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import spectral
from .attention import rotary_attention_row, rotary_entropy
from .config import ExperimentConfig, load_experiment_config
from .fmtio import canonical_json, csv_text, fmt, fmt_floats, write_csv, write_json
from .harness import (
    SCALING_MODES, axis_schedules, entropy_trace, heatmap_rows, scaling_vectors, spectral_heatmap,
)
from .rope import MAX_DIM, METHODS, YarnParams, base_frequencies, make_schedule, yarn_weights
from .tensorio import LatentIOError, read_latent, token_features


def _config_epilog(cfg: ExperimentConfig) -> str:
    """The --help epilog: the values the loader resolves for an empty config."""
    sega, rope, traj = cfg.sega, cfg.rope, cfg.trajectory
    return (
        f"Config defaults: sega kappa={sega.kappa:g}, gamma={sega.gamma:g}, "
        f"ref_form={sega.ref_form}, eps={sega.eps:g}; rope dim={rope.dim}, "
        f"base={rope.base:g}, method={cfg.rope_method}, ratio={rope.ratio_scalar:g}; "
        f"trajectory {traj.steps} steps of {traj.height}x{traj.width}x{traj.channels} "
        f"with a {traj.noise_blend['kind']} noise blend."
    )


CONFIG_EPILOG = _config_epilog(load_experiment_config({}))


class FileError(click.ClickException):
    exit_code = 3


class _Command(click.Command):
    """A subcommand whose faults exit with the documented codes, wherever its body raises them.

    A latent-file or filesystem failure exits 3; a ValueError (a config fault,
    a ConfigError included, or a flag combination the math rejects) exits 2.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (LatentIOError, OSError) as exc:
            raise FileError(str(exc))
        except ValueError as exc:
            raise click.UsageError(str(exc))


class _Group(click.Group):
    command_class = _Command


def _emit(text: str) -> None:
    """Write a command's whole stdout in one write.

    The stream is passed explicitly: given none, click caches each stdout it
    sees in a way that keeps the stream alive, so every in-process call with
    a captured stdout would leak its buffer.
    """
    click.echo(text, file=sys.stdout, nl=False)


def _bounded(lo, hi, message):
    """A flag callback that refuses a value outside [lo, hi]; NaN fails the test too."""
    def check(ctx, param, value):
        if value is not None and not lo <= value <= hi:
            raise click.BadParameter(message)
        return value
    return check


_positive_finite = _bounded(np.nextafter(0.0, 1.0), np.finfo(float).max, "must be finite and > 0")
_ratio = _bounded(1.0, np.finfo(float).max, "must be finite and >= 1")
_unit_interval = _bounded(0.0, 1.0, "must lie in [0, 1]")


def _even_dim(ctx, param, value):
    if not (2 <= value <= MAX_DIM and value % 2 == 0):
        raise click.BadParameter(f"must be an even integer in [2, {MAX_DIM}]")
    return value


def _given(**values) -> dict:
    """The keyword arguments whose flags were given; the callee's defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def rope_flags(fn):
    fn = click.option("--dype-strong", is_flag=True, default=False,
                      help="Use the strengthened base exponent inside dype.")(fn)
    fn = click.option("--dype-p", type=float, default=None, callback=_positive_finite,
                      help="Ratio schedule exponent (dype only; default 1.0).")(fn)
    fn = click.option("--dype-t", type=float, default=None, callback=_unit_interval,
                      help="Denoising time in [0,1], 1 = pure noise (dype only; default 0.0).")(fn)
    fn = click.option("--train-len", type=float, default=None, callback=_positive_finite,
                      help="Training token count along the axis (yarn only).")(fn)
    fn = click.option("--beta", type=float, default=None, callback=_positive_finite,
                      help="Upper ramp bound (yarn only; default 32).")(fn)
    fn = click.option("--alpha", type=float, default=None, callback=_positive_finite,
                      help="Lower ramp bound (yarn only; default 1).")(fn)
    fn = click.option("--ratio", type=float, default=None, callback=_ratio,
                      help="Extrapolation ratio, target over training length "
                           "(not with --method none; default 1).")(fn)
    fn = click.option("--method", type=click.Choice(METHODS), default="none",
                      show_default=True, help="Frequency recalibration method.")(fn)
    fn = click.option("--base", type=float, default=10000.0, show_default=True,
                      callback=_positive_finite, help="Rotary base b.")(fn)
    return fn


@click.group(cls=_Group)
def main():
    """Spectral-energy guided rotary scaling: analysis and experiment tooling."""


@main.command("rope-table")
@click.option("--dim", type=int, required=True, callback=_even_dim,
              help=f"Embedding size per axis (even, at most {MAX_DIM}).")
@rope_flags
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
    wavelengths = 2.0 * np.pi / theta0
    header = ["d", "theta", "theta_prime", "wavelength"]
    rows = [[d, theta0[d], sched.theta[d], wavelengths[d]] for d in range(dim // 2)]
    if method == "yarn":
        header.append("lambda")
        for row, lam in zip(rows, yarn_weights(theta0, yarn)):
            row.append(lam)
    _emit(csv_text(header, rows))


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--config", "config_path", default=None, help="Experiment config JSON.")
@click.option("--ratio", type=float, default=None, callback=_ratio,
              help="Override the config's rope ratio.")
def modulate(latent_path, config_path, ratio):
    """Emit per-axis scaling vectors for one latent as JSON."""
    cfg = load_experiment_config({} if config_path is None else config_path)
    grid = read_latent(latent_path)
    ratio_h = ratio if ratio is not None else cfg.rope.ratio_h
    ratio_w = ratio if ratio is not None else cfg.rope.ratio_w
    sched_h, sched_w = axis_schedules(
        cfg.rope, cfg.rope_method, grid.height, grid.width, ratio_h, ratio_w
    )
    result = spectral.modulate_detailed(
        spectral.analyze(grid, cfg.sega.n_bins_iso),
        sched_h, sched_w, ratio if ratio is not None else cfg.rope.ratio_scalar, cfg.sega,
    )
    payload = {"axes": []}
    for vec in (result.vec_h, result.vec_w):
        payload["axes"].append(
            {
                "axis": vec.axis,
                "m_ref": vec.m_ref,
                "sigma": vec.sigma,
                "SF": result.flatness,
                "s_corr": [float(x) for x in vec.s_corr],
                "m": [float(x) for x in vec.m],
            }
        )
    _emit(canonical_json(payload) + "\n")


@main.command()
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--bins", type=int, default=None, help="Radial bin count (default min(H,W)/2).")
def spectrum(latent_path, bins):
    """Emit axis-wise and radial energy profiles as CSV (profile,bin,energy,occupied)."""
    grid = read_latent(latent_path)
    tokens = grid.height * grid.width  # past this count every extra bin is empty
    if bins is not None and not 2 <= bins <= tokens:
        raise click.UsageError(f"--bins must lie in [2, {tokens}], the latent's token count")
    profiles = spectral.analyze(grid, bins)
    rows = [
        [name, i, val, 1]
        for name, arr in (("axis_h", profiles.axis_h), ("axis_w", profiles.axis_w))
        for i, val in enumerate(arr)
    ]
    rows.extend(["radial", i, val, int(profiles.occupied[i])] for i, val in enumerate(profiles.radial))
    _emit(csv_text(["profile", "bin", "energy", "occupied"], rows))


def attention_flags(fn):
    """The config and rotary-magnitude options that attn-map and entropy share."""
    fn = click.option("--logit-scale", type=float, default=1.0, show_default=True,
                      callback=_positive_finite, help="Extra uniform logit factor.")(fn)
    fn = click.option("--feature-seed", type=click.IntRange(min=0), default=0, show_default=True,
                      help="Seed for the token feature projection.")(fn)
    fn = click.option("--fixed-value", type=float, default=None, callback=_positive_finite,
                      help="Uniform magnitude for --scaling fixed (default: the reference scale).")(fn)
    fn = click.option("--scaling", type=click.Choice(SCALING_MODES), default="none",
                      show_default=True, help="Rotary magnitude mode.")(fn)
    fn = click.option("--config", "config_path", default=None, help="Experiment config JSON.")(fn)
    return fn


def _attention_setup(grid, config_path, scaling, fixed_value, feature_seed):
    """(features, height, width, sched_h, sched_w, m_h, m_w) for the attention calls."""
    if scaling != "fixed" and fixed_value is not None:
        raise click.UsageError("--fixed-value is only valid with --scaling fixed")
    cfg = load_experiment_config({} if config_path is None else config_path)
    rope_p = cfg.rope
    sched_h, sched_w = axis_schedules(
        rope_p, cfg.rope_method, grid.height, grid.width, rope_p.ratio_h, rope_p.ratio_w
    )
    profiles = spectral.analyze(grid, cfg.sega.n_bins_iso) if scaling == "sega" else None
    m_h, m_w = scaling_vectors(
        scaling, profiles, sched_h, sched_w, rope_p.ratio_scalar, cfg.sega, fixed_value
    )
    feats = token_features(grid, 2 * rope_p.dim, feature_seed, 0)
    return feats, grid.height, grid.width, sched_h, sched_w, m_h, m_w


@main.command("attn-map", epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--query-h", type=int, required=True, help="Query token row.")
@click.option("--query-w", type=int, required=True, help="Query token column.")
@attention_flags
def attn_map(latent_path, query_h, query_w, config_path, scaling, fixed_value,
             feature_seed, logit_scale):
    """Emit one query token's attention weights over the 2D grid as CSV."""
    grid = read_latent(latent_path)
    if not (0 <= query_h < grid.height and 0 <= query_w < grid.width):
        raise click.UsageError("query position outside the grid")
    args = _attention_setup(grid, config_path, scaling, fixed_value, feature_seed)
    row = rotary_attention_row(*args, logit_scale, query=query_h * grid.width + query_w)
    cells = fmt_floats(row)
    width = grid.width
    lines = [f"{h}," + ",".join(cells[h * width : (h + 1) * width]) + "\n" for h in range(grid.height)]
    _emit(csv_text(["h"] + [f"w{j}" for j in range(width)], ()) + "".join(lines))


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@attention_flags
def entropy(latent_path, config_path, scaling, fixed_value, feature_seed, logit_scale):
    """Emit per-token attention entropies as CSV, with a trailing mean row."""
    grid = read_latent(latent_path)
    args = _attention_setup(grid, config_path, scaling, fixed_value, feature_seed)
    per_row, mean = rotary_entropy(*args, logit_scale)
    width = grid.width
    lines = [f"{i},{i // width},{i % width},{cell}\n" for i, cell in enumerate(fmt_floats(per_row))]
    _emit(csv_text(["token", "h", "w", "entropy"], ()) + "".join(lines) + f"mean,,,{fmt(mean)}\n")


def _write_heatmap(out: Path, heat: np.ndarray) -> None:
    write_csv(
        out / "spectral_heatmap.csv",
        ["step"] + [f"bin_{b}" for b in range(heat.shape[1])],
        [[t] + [heat[t, b] for b in range(heat.shape[1])] for t in range(heat.shape[0])],
    )


def _emit_wrote(out: Path, *names: str) -> None:
    _emit("".join(f"wrote {out / name}\n" for name in names))


def _prepare_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise FileError(f"output directory not writable: {exc}")
    return path


@main.command(epilog=CONFIG_EPILOG)
@click.option("--config", "config_path", required=True, help="Experiment config JSON.")
@click.option("--out-dir", required=True, help="Directory for CSV/JSON outputs.")
def trajectory(config_path, out_dir):
    """Run a full simulated trajectory; write scaling maps, heatmap, entropy trace, summary."""
    cfg = load_experiment_config(config_path)
    out = _prepare_out_dir(out_dir)
    deltas, names, steps = entropy_trace(
        cfg.trajectory, list(cfg.methods), cfg.baseline, cfg.sega, cfg.rope
    )
    heat, degenerate = heatmap_rows([s.radial for s in steps])

    sega_name = next((m.name for m in cfg.methods if m.scaling == "sega"), None)
    map_method = sega_name or cfg.methods[0].name
    half = cfg.rope.dim // 2
    for axis, key in (("H", "m_h"), ("W", "m_w")):
        rows = []
        for step_rec in steps:
            vec = getattr(step_rec.methods[map_method], key)
            rows.append([step_rec.step] + [float(x) for x in vec])
        write_csv(out / f"scaling_map_{axis}.csv",
                  ["step"] + [f"m_{d}" for d in range(half)], rows)

    write_csv(
        out / "entropy_trace.csv",
        ["step"] + names,
        [[t] + [deltas[t, j] for j in range(len(names))] for t in range(deltas.shape[0])],
    )
    _write_heatmap(out, heat)

    abs_means = {name: float(np.mean(np.abs(deltas[:, j]))) for j, name in enumerate(names)}
    directional = None
    fixed_name = next((m.name for m in cfg.methods if m.scaling == "fixed"), None)
    if sega_name and fixed_name:
        directional = {
            "sega_method": sega_name,
            "fixed_method": fixed_name,
            "sega_abs_delta_mean": abs_means[sega_name],
            "fixed_abs_delta_mean": abs_means[fixed_name],
            "sega_no_worse": abs_means[sega_name] <= abs_means[fixed_name],
        }
    summary = {
        "config": cfg.snapshot(),
        "scaling_map_method": map_method,
        "per_step": [
            {
                "step": s.step,
                "alpha": s.alpha,
                "time": s.time,
                "flatness": s.flatness,
                "sigma": s.sigma,
                "mean_entropy": {name: rec.mean_entropy for name, rec in s.methods.items()},
            }
            for s in steps
        ],
        "entropy_delta_abs_mean": abs_means,
        "entropy_shift_comparison": directional,
        "degenerate_heatmap_rows": degenerate,
    }
    write_json(out / "summary.json", summary)
    _emit_wrote(out, "scaling_map_H.csv", "scaling_map_W.csv", "entropy_trace.csv",
                "spectral_heatmap.csv", "summary.json")


@main.command(epilog=CONFIG_EPILOG)
@click.option("--config", "config_path", required=True, help="Experiment config JSON.")
@click.option("--out-dir", required=True, help="Directory for CSV/JSON outputs.")
def heatmap(config_path, out_dir):
    """Write the per-step normalized radial spectrum matrix."""
    cfg = load_experiment_config(config_path)
    out = _prepare_out_dir(out_dir)
    heat, degenerate = spectral_heatmap(cfg.trajectory, cfg.sega.n_bins_iso)
    _write_heatmap(out, heat)
    write_json(
        out / "summary.json",
        {"config": cfg.snapshot(), "degenerate_heatmap_rows": degenerate},
    )
    _emit_wrote(out, "spectral_heatmap.csv", "summary.json")


if __name__ == "__main__":
    main()
