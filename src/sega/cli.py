"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 2 usage or config error, 3 I/O error (latent files,
unwritable output directories). All numeric output is formatted at 9
significant digits so identical configs yield byte-identical files.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import spectral
from .attention import grid_positions, rotary_attention_row, rotary_entropy
from .config import ConfigError, ExperimentConfig, load_experiment_config
from .fmtio import canonical_json, csv_line, write_csv, write_json
from .harness import axis_schedules, entropy_trace, heatmap_rows, scaling_vectors, spectral_heatmap
from .rope import METHODS, YarnParams, base_frequencies, make_schedule, yarn_ramp
from .tensorio import LatentIOError, read_latent, token_features

CONFIG_EPILOG = (
    "Config defaults: sega kappa=0.08, gamma=1.5, ref_form=power, eps=1e-12; "
    "rope dim=64, base=10000, method=ntk_strong, ratio=2; "
    "trajectory 8 steps of 64x64x4 with a linear noise blend."
)


class FileError(click.ClickException):
    exit_code = 3


def _load_config(path: str | None) -> ExperimentConfig:
    try:
        return load_experiment_config(path if path is not None else {})
    except ConfigError as exc:
        raise click.UsageError(str(exc))


@contextmanager
def _io_errors():
    """Report latent-file and filesystem failures as exit code 3."""
    try:
        yield
    except (LatentIOError, OSError) as exc:
        raise FileError(str(exc))


@contextmanager
def _usage_errors():
    """Report a ValueError (a flag combination the math rejects) as exit code 2."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _positive_finite(ctx, param, value):
    if value is not None and not (np.isfinite(value) and value > 0):
        raise click.BadParameter("must be finite and > 0")
    return value


def _read_latent(path: str):
    with _io_errors():
        return read_latent(path)


def _rope_flag_schedules(dim, base, method, ratio, alpha, beta, train_len, dype_t, dype_p, dype_strong):
    """Validate the rope flag combination and build one schedule per axis."""
    if method != "yarn" and any(v is not None for v in (alpha, beta, train_len)):
        raise click.UsageError("--alpha/--beta/--train-len are only valid with --method yarn")
    if method != "dype" and any(v is not None for v in (dype_t, dype_p)):
        raise click.UsageError("--dype-t/--dype-p are only valid with --method dype")
    yarn = None
    if method == "yarn":
        if train_len is None:
            raise click.UsageError("--method yarn requires --train-len")
        try:
            yarn = YarnParams(
                alpha=alpha if alpha is not None else 1.0,
                beta=beta if beta is not None else 32.0,
                train_len=train_len,
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
    kwargs = dict(
        dim=dim,
        base=base,
        method=method,
        ratio=ratio,
        yarn=yarn,
        dype_time=dype_t if dype_t is not None else 0.0,
        dype_p=dype_p if dype_p is not None else 1.0,
        dype_strong=dype_strong,
    )
    try:
        return make_schedule("H", **kwargs), make_schedule("W", **kwargs), yarn
    except ValueError as exc:
        raise click.UsageError(str(exc))


def rope_flags(fn):
    fn = click.option("--dype-strong", is_flag=True, default=False,
                      help="Use the strengthened base exponent inside dype.")(fn)
    fn = click.option("--dype-p", type=float, default=None,
                      help="Ratio schedule exponent (dype only; default 1.0).")(fn)
    fn = click.option("--dype-t", type=float, default=None,
                      help="Denoising time in [0,1], 1 = pure noise (dype only; default 0.0).")(fn)
    fn = click.option("--train-len", type=float, default=None,
                      help="Training token count along the axis (yarn only).")(fn)
    fn = click.option("--beta", type=float, default=None,
                      help="Upper ramp bound (yarn only; default 32).")(fn)
    fn = click.option("--alpha", type=float, default=None,
                      help="Lower ramp bound (yarn only; default 1).")(fn)
    fn = click.option("--ratio", type=float, default=1.0, show_default=True,
                      help="Extrapolation ratio, target over training length.")(fn)
    fn = click.option("--method", type=click.Choice(METHODS), default="none",
                      show_default=True, help="Frequency recalibration method.")(fn)
    fn = click.option("--base", type=float, default=10000.0, show_default=True,
                      help="Rotary base b.")(fn)
    return fn


@click.group()
def main():
    """Spectral-energy guided rotary scaling: analysis and experiment tooling."""


@main.command("rope-table")
@click.option("--dim", type=int, required=True, help="Embedding size per axis (even).")
@rope_flags
def rope_table(dim, base, method, ratio, alpha, beta, train_len, dype_t, dype_p, dype_strong):
    """Dump (d, theta, theta', wavelength[, lambda]) for a schedule as CSV."""
    sched_h, _, yarn = _rope_flag_schedules(
        dim, base, method, ratio, alpha, beta, train_len, dype_t, dype_p, dype_strong
    )
    try:
        theta0 = base_frequencies(dim, base)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    wavelengths = 2.0 * np.pi / theta0
    header = ["d", "theta", "theta_prime", "wavelength"]
    if method == "yarn":
        header.append("lambda")
    click.echo(csv_line(header))
    for d in range(dim // 2):
        row = [d, theta0[d], sched_h.theta[d], wavelengths[d]]
        if method == "yarn":
            row.append(yarn_ramp(wavelengths[d] / yarn.train_len, yarn))
        click.echo(csv_line(row))


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--config", "config_path", default=None, help="Experiment config JSON.")
@click.option("--ratio", type=float, default=None, help="Override the config's rope ratio.")
def modulate(latent_path, config_path, ratio):
    """Emit per-axis scaling vectors for one latent as JSON."""
    cfg = _load_config(config_path)
    grid = _read_latent(latent_path)
    ratio_h = ratio if ratio is not None else cfg.rope.ratio_h
    ratio_w = ratio if ratio is not None else cfg.rope.ratio_w
    if ratio_h < 1.0:
        raise click.UsageError("--ratio must be >= 1")
    sched_h, sched_w = _schedules(cfg, grid, ratio_h, ratio_w)
    result = spectral.modulate_detailed(
        grid, sched_h, sched_w, float(np.sqrt(ratio_h * ratio_w)), cfg.sega
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
    click.echo(canonical_json(payload))


@main.command()
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--bins", type=int, default=None, help="Radial bin count (default min(H,W)/2).")
def spectrum(latent_path, bins):
    """Emit axis-wise and radial energy profiles as CSV (profile,bin,energy,occupied)."""
    grid = _read_latent(latent_path)
    if bins is not None and bins < 2:
        raise click.UsageError("--bins must be >= 2")
    profiles = spectral.analyze(grid, bins)
    click.echo(csv_line(["profile", "bin", "energy", "occupied"]))
    for name, arr in (("axis_h", profiles.axis_h), ("axis_w", profiles.axis_w)):
        for i, val in enumerate(arr):
            click.echo(csv_line([name, i, val, 1]))
    for i, val in enumerate(profiles.radial):
        click.echo(csv_line(["radial", i, val, int(profiles.occupied[i])]))


def _schedules(cfg: ExperimentConfig, grid, ratio_h: float, ratio_w: float):
    try:
        return axis_schedules(cfg.rope, cfg.rope_method, grid.height, grid.width, ratio_h, ratio_w)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _attention_setup(grid, config_path, scaling, fixed_value, feature_seed):
    """(features, positions, sched_h, sched_w, m_h, m_w) for the blocked attention calls."""
    cfg = _load_config(config_path)
    rope_p = cfg.rope
    sched_h, sched_w = _schedules(cfg, grid, rope_p.ratio_h, rope_p.ratio_w)
    _, m_h, m_w = scaling_vectors(
        scaling, grid, sched_h, sched_w, rope_p.ratio_scalar, cfg.sega, fixed_value
    )
    feats = token_features(grid, 2 * rope_p.dim, feature_seed, 0)
    positions = grid_positions(grid.height, grid.width)
    return feats, positions, sched_h, sched_w, m_h, m_w


@main.command("attn-map", epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--query-h", type=int, required=True, help="Query token row.")
@click.option("--query-w", type=int, required=True, help="Query token column.")
@click.option("--config", "config_path", default=None, help="Experiment config JSON.")
@click.option("--scaling", type=click.Choice(["none", "fixed", "sega"]), default="none",
              show_default=True, help="Rotary magnitude mode.")
@click.option("--fixed-value", type=float, default=None, callback=_positive_finite,
              help="Uniform magnitude for --scaling fixed (default: the reference scale).")
@click.option("--feature-seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for the token feature projection.")
@click.option("--logit-scale", type=float, default=1.0, show_default=True,
              callback=_positive_finite, help="Extra uniform logit factor.")
def attn_map(latent_path, query_h, query_w, config_path, scaling, fixed_value,
             feature_seed, logit_scale):
    """Emit one query token's attention weights over the 2D grid as CSV."""
    grid = _read_latent(latent_path)
    if not (0 <= query_h < grid.height and 0 <= query_w < grid.width):
        raise click.UsageError("query position outside the grid")
    args = _attention_setup(grid, config_path, scaling, fixed_value, feature_seed)
    with _usage_errors():
        row = rotary_attention_row(*args, logit_scale, query=query_h * grid.width + query_w)
    row = row.reshape(grid.height, grid.width)
    click.echo(csv_line(["h"] + [f"w{j}" for j in range(grid.width)]))
    for h in range(grid.height):
        click.echo(csv_line([h] + [row[h, j] for j in range(grid.width)]))


@main.command(epilog=CONFIG_EPILOG)
@click.option("--latent", "latent_path", required=True, help="Path to a SEGL latent file.")
@click.option("--config", "config_path", default=None, help="Experiment config JSON.")
@click.option("--scaling", type=click.Choice(["none", "fixed", "sega"]), default="none",
              show_default=True, help="Rotary magnitude mode.")
@click.option("--fixed-value", type=float, default=None, callback=_positive_finite,
              help="Uniform magnitude for --scaling fixed (default: the reference scale).")
@click.option("--feature-seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for the token feature projection.")
@click.option("--logit-scale", type=float, default=1.0, show_default=True,
              callback=_positive_finite, help="Extra uniform logit factor.")
def entropy(latent_path, config_path, scaling, fixed_value, feature_seed, logit_scale):
    """Emit per-token attention entropies as CSV, with a trailing mean row."""
    grid = _read_latent(latent_path)
    args = _attention_setup(grid, config_path, scaling, fixed_value, feature_seed)
    with _usage_errors():
        per_row, mean = rotary_entropy(*args, logit_scale)
    click.echo(csv_line(["token", "h", "w", "entropy"]))
    for idx, val in enumerate(per_row):
        click.echo(csv_line([idx, idx // grid.width, idx % grid.width, val]))
    click.echo(csv_line(["mean", "", "", mean]))


def _write_heatmap(out: Path, heat: np.ndarray) -> None:
    write_csv(
        out / "spectral_heatmap.csv",
        ["step"] + [f"bin_{b}" for b in range(heat.shape[1])],
        [[t] + [heat[t, b] for b in range(heat.shape[1])] for t in range(heat.shape[0])],
    )


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
    cfg = _load_config(config_path)
    out = _prepare_out_dir(out_dir)
    with _io_errors():
        deltas, names, record = entropy_trace(
            cfg.trajectory, list(cfg.methods), cfg.baseline, cfg.sega, cfg.rope
        )
    heat, degenerate = heatmap_rows([s.radial for s in record.steps])

    map_method = next((m.name for m in cfg.methods if m.scaling == "sega"), cfg.methods[0].name)
    half = cfg.rope.dim // 2
    for axis, key in (("H", "m_h"), ("W", "m_w")):
        rows = []
        for step_rec in record.steps:
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
    sega_name = next((m.name for m in cfg.methods if m.scaling == "sega"), None)
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
            for s in record.steps
        ],
        "entropy_delta_abs_mean": abs_means,
        "entropy_shift_comparison": directional,
        "degenerate_heatmap_rows": degenerate,
    }
    write_json(out / "summary.json", summary)
    click.echo(f"wrote {out / 'scaling_map_H.csv'}")
    click.echo(f"wrote {out / 'scaling_map_W.csv'}")
    click.echo(f"wrote {out / 'entropy_trace.csv'}")
    click.echo(f"wrote {out / 'spectral_heatmap.csv'}")
    click.echo(f"wrote {out / 'summary.json'}")


@main.command(epilog=CONFIG_EPILOG)
@click.option("--config", "config_path", required=True, help="Experiment config JSON.")
@click.option("--out-dir", required=True, help="Directory for CSV/JSON outputs.")
def heatmap(config_path, out_dir):
    """Write the per-step normalized radial spectrum matrix."""
    cfg = _load_config(config_path)
    out = _prepare_out_dir(out_dir)
    with _io_errors():
        heat, degenerate = spectral_heatmap(
            cfg.trajectory, cfg.sega.bins_for(cfg.trajectory.height, cfg.trajectory.width)
        )
    _write_heatmap(out, heat)
    write_json(
        out / "summary.json",
        {"config": cfg.snapshot(), "degenerate_heatmap_rows": degenerate},
    )
    click.echo(f"wrote {out / 'spectral_heatmap.csv'}")
    click.echo(f"wrote {out / 'summary.json'}")


if __name__ == "__main__":
    main()
