"""Command-line entry points: generate data, train variants, evaluate
checkpoints, compare reports.

Artifact conventions: `generate` writes <name>.csv + <name>.manifest.json;
`train` writes <name>.ckpt.npz + <name>.log; `evaluate` writes
<name>.report.txt plus plot-ready .tsv tables. Every command also writes
a <name>.run.json manifest recording how to reproduce it.

Exit codes: 0 success, 2 usage errors, 3 data/processing errors.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, data, metrics, model, training
from .gmm import MixtureBatch, grid_densities


def _out_dir(out) -> Path:
    path = Path(out) if out else Path(os.environ.get("MIXCAST_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fail(err) -> "SystemExit":
    click.echo(f"error: {err}", err=True)
    return SystemExit(3)


def _write_run_manifest(path: Path, command: str, config: dict, artifacts: dict, started: float,
                        results: dict | None = None):
    payload = {
        "command": command,
        "config": config,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "wall_clock_s": round(time.time() - started, 3),
        "version": __version__,
        **(results or {}),
    }
    missing = [str(p) for p in artifacts.values() if not Path(p).exists()]
    if missing:
        raise data.DataError(f"run manifest refers to missing artifacts: {missing}")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def dataset_paths(base):
    """<base>.csv and <base>.manifest.json for a dataset base path (the
    manifest path itself is also accepted)."""
    base = str(base)
    if base.endswith(".manifest.json"):
        base = base[: -len(".manifest.json")]
    elif base.endswith(".csv"):
        base = base[: -len(".csv")]
    return Path(base + ".csv"), Path(base + ".manifest.json")


def load_dataset(base):
    csv_path, man_path = dataset_paths(base)
    if not man_path.exists():
        raise data.DataError(f"dataset manifest not found: {man_path}")
    manifest = data.read_manifest(man_path)
    dataset = data.ingest_csv(csv_path, manifest)
    return dataset, manifest


def dataset_id(manifest: data.DatasetManifest) -> str:
    blob = json.dumps(
        [list(manifest.node_ids), manifest.sessions, manifest.session_steps,
         manifest.step_minutes, manifest.max_value, manifest.seed],
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def parse_levels(text: str) -> tuple:
    """`lo:hi:step` (inclusive) or a comma list of levels."""
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            if not step > 0:
                raise ValueError(f"step must be positive, got {step!r}")
            levels = np.round(np.arange(lo, hi + step / 2, step), 10)
        else:
            levels = np.asarray([float(p) for p in text.split(",")])
    except ValueError as err:
        raise data.DataError(f"bad levels spec {text!r}: {err}") from err
    try:
        metrics.check_levels(levels)
    except ValueError as err:
        raise data.DataError(f"{err}, got {text!r}") from err
    return tuple(float(v) for v in levels)


def _positive(ctx, param, value):
    if value is not None and value <= 0:
        raise click.BadParameter("must be positive")
    return value


# The keys each --config section may carry; anything else is a typo.
CONFIG_KEYS = {
    "train": {"k", "epochs", "batch_size", "lr", "weight_decay", "betas", "warmup_epochs",
              "clip_norm", "seed"},
    "model": {"hidden", "features", "activation", "proj_width"},
}


def _load_config_file(path):
    """The --config JSON with both sections present; DataError names a
    malformed file, section or key."""
    config = {}
    if path is not None:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as err:
            raise data.DataError(f"config {path}: malformed JSON: {err}") from err
    if not isinstance(config, dict) or not set(config) <= set(CONFIG_KEYS):
        raise data.DataError(f"config {path}: expected an object with {sorted(CONFIG_KEYS)}")
    for section, keys in CONFIG_KEYS.items():
        values = config.setdefault(section, {})
        if not isinstance(values, dict):
            raise data.DataError(f"config {path}: section {section!r} must be an object")
        unknown = sorted(set(values) - keys)
        if unknown:
            raise data.DataError(f"config {path}: unknown {section} key(s) {unknown}")
    return config


def _pick(flag_value, config: dict, key: str, default):
    """Precedence: explicit CLI flag > config file > default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def apply_quality(dataset, coverage_fraction, coverage_seed, resolution_factor):
    """Resolution first (block means), then sensor coverage masking."""
    if resolution_factor != 1:
        dataset = data.degrade_resolution(dataset, resolution_factor)
    if coverage_fraction != 1.0:
        dataset, _ = data.degrade_coverage(dataset, coverage_fraction, coverage_seed)
    return dataset


def build_model_config(variant, k, input_steps, horizon, channels, mcfg: dict) -> model.ModelConfig:
    backbone = model.BackboneConfig(
        input_steps=input_steps,
        channels=channels,
        hidden=int(mcfg.get("hidden", 64)),
        features=int(mcfg.get("features", 64)),
        activation=mcfg.get("activation", "tanh"),
    )
    head = None
    if variant != "det":
        head = model.HeadConfig(
            components=k, horizon=horizon, proj_width=int(mcfg.get("proj_width", 64))
        )
    return model.ModelConfig(variant=variant, backbone=backbone, horizon=horizon, head=head)


def train_run(dataset, manifest, variant, k, train_cfg: training.TrainConfig,
              input_steps, horizon, model_overrides=None,
              coverage_fraction=1.0, coverage_seed=0, resolution_factor=1):
    """Degrade, split, window, fit. Returns (result, model_cfg, splits, extra)."""
    worked = apply_quality(dataset, coverage_fraction, coverage_seed, resolution_factor)
    splits = data.prepare_splits(worked, input_steps, horizon, manifest.split_fractions)
    channels = splits.train.channels
    try:
        mcfg = build_model_config(variant, k, input_steps, horizon, channels,
                                  model_overrides or {})
    except (TypeError, ValueError) as err:
        raise data.DataError(f"model config: {err}") from err
    result = training.fit(splits, mcfg, train_cfg)
    extra = {
        "dataset_id": dataset_id(manifest),
        "input_steps": input_steps,
        "horizon": horizon,
        "coverage_fraction": coverage_fraction,
        "coverage_seed": coverage_seed,
        "resolution_factor": resolution_factor,
        "seed": train_cfg.seed,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    }
    return result, mcfg, splits, extra


def training_health(result: training.TrainResult) -> dict:
    """The `train` run.json's health fields: the pre-clip gradient norm
    over the completed steps (min, median, max; null without steps), how
    many of those steps clipping rescaled, the count and fraction of
    (element, component) log-variances held at a clamp bound over those
    steps, whose gradient was zero (null without log-variances), and per
    epoch the validation weight entropy and effective K of each horizon
    step (null for det)."""
    norms = result.grad_norms
    stats = None
    if norms:
        stats = {"min": min(norms), "median": float(np.median(norms)), "max": max(norms)}
    clamped = None
    if result.logvars:
        clamped = {"count": result.logvar_clamped,
                   "fraction": result.logvar_clamped / result.logvars}
    tables = {key: [h[key] for h in result.history if key in h] or None
              for key in ("weight_entropy", "effective_k")}
    return {"grad_norm": stats, "clipped_steps": sum(result.clip_fired),
            "logvar_clamped": clamped, **tables}


def _predict_in_chunks(params, mcfg, windows, chunk=512):
    """Forward the whole window set without one giant activation blob."""
    outs = []
    for start in range(0, windows.count, chunk):
        sl = slice(start, min(start + chunk, windows.count))
        outs.append(model.predict(params, mcfg, windows.inputs[sl]))
    if mcfg.variant == "det":
        return np.concatenate(outs, axis=0)
    return MixtureBatch(
        np.concatenate([o.weights for o in outs], axis=0),
        np.concatenate([o.means for o in outs], axis=0),
        np.concatenate([o.variances for o in outs], axis=0),
    )


def evaluate_run(checkpoint_path, dataset, manifest, levels=metrics.DEFAULT_LEVELS,
                 grid_points=500, normalized_space=False):
    """Score a checkpoint on the dataset's test split.

    The data-quality settings and normalizer stored at training time are
    reapplied so inputs match what the model saw. Metrics are reported in
    raw units unless normalized_space is set."""
    try:
        params, mcfg, norm_stats, extra = model.load_checkpoint(checkpoint_path)
    except (EOFError, KeyError, ValueError) as err:
        raise data.DataError(f"cannot read checkpoint {checkpoint_path}: {err}") from err
    if extra.get("dataset_id") not in (None, dataset_id(manifest)):
        raise data.DataError(
            f"checkpoint was trained on dataset {extra.get('dataset_id')}, "
            f"given {dataset_id(manifest)}"
        )
    worked = apply_quality(
        dataset,
        extra.get("coverage_fraction", 1.0),
        extra.get("coverage_seed", 0),
        extra.get("resolution_factor", 1),
    )
    t_h = extra.get("input_steps", mcfg.backbone.input_steps)
    splits = data.prepare_splits(worked, t_h, mcfg.horizon, manifest.split_fractions)
    nrm = splits.normalizer
    if norm_stats is not None and (
        abs(norm_stats["mean"] - nrm.mean) > 1e-9 or abs(norm_stats["std"] - nrm.std) > 1e-9
    ):
        raise data.DataError("normalizer mismatch between checkpoint and dataset")

    test = splits.test
    preds = _predict_in_chunks(params, mcfg, test)
    if normalized_space:
        targets = test.targets
        interval_range = (-6.0, 6.0)
    else:
        targets = test.targets_raw
        interval_range = (0.0, worked.max_value)
        preds = (
            nrm.inverse(preds) if mcfg.variant == "det"
            else preds.scale_shift(nrm.std, nrm.mean)
        )
    batch = model.ForecastBatch(inputs=test.inputs, targets=targets)
    if mcfg.variant == "det":
        batch.point_preds = preds
    else:
        batch.mixtures = preds
    scoring = metrics.ScoringConfig(
        levels=tuple(levels),
        interval_points=grid_points,
        interval_range=interval_range,
    )
    meta = {
        "variant": mcfg.variant,
        "dataset": dataset_id(manifest),
        "space": "normalized" if normalized_space else "raw",
        "elements": str(targets.size),
        "levels": ",".join(repr(v) for v in scoring.levels),
        "seed": str(extra.get("seed", "")),
    }
    try:
        report = metrics.evaluate(batch, scoring, meta=meta)
    except ValueError as err:
        raise data.DataError(str(err)) from err
    return report, splits, preds, mcfg, scoring


def density_ridge_table(preds, window_idx, node_idx, interval_range, points):
    """Grid densities for one (window, node) across all horizon steps:
    the data behind a per-step density-ridge plot."""
    x = np.linspace(interval_range[0], interval_range[1], points)
    n_windows, n_nodes, _ = preds.shape
    if not (0 <= window_idx < n_windows and 0 <= node_idx < n_nodes):
        raise data.DataError(
            f"ridge index (window {window_idx}, node {node_idx}) outside "
            f"({n_windows}, {n_nodes})"
        )
    dens = grid_densities(
        preds.weights[window_idx, node_idx],
        preds.means[window_idx, node_idx],
        preds.variances[window_idx, node_idx],
        x,
    )
    lines = ["x\t" + "\t".join(f"step{t + 1}" for t in range(dens.shape[0]))]
    for i, xv in enumerate(x):
        lines.append(repr(float(xv)) + "\t" + "\t".join(repr(float(v)) for v in dens[:, i]))
    return "\n".join(lines) + "\n"


def horizon_table(report) -> str:
    lines = ["step\tcrps\tavg_width\tcalib_error"]
    for step, crps, w, ce in report.per_horizon:
        lines.append(f"{step}\t{metrics._fmt(crps)}\t{metrics._fmt(w)}\t{metrics._fmt(ce)}")
    return "\n".join(lines) + "\n"


def calibration_table(report) -> str:
    lines = ["level\tcoverage"]
    for level, cov in report.calibration_curve:
        lines.append(f"{metrics._fmt(level)}\t{metrics._fmt(cov)}")
    return "\n".join(lines) + "\n"


def comparison_table(reports: list) -> str:
    """Side-by-side metrics with relative CRPS improvement over the det
    baseline (the baseline row reads 100%)."""
    datasets = {r.meta.get("dataset") for r in reports}
    if len(datasets) > 1:
        raise data.DataError(f"reports come from different datasets: {sorted(datasets)}")
    baseline = next((r for r in reports if r.meta.get("variant") == "det"), reports[0])
    base_crps = baseline.crps_mean
    header = "variant\tcrps\tavg_width\tcalib_error\tmae\tmape\trmse\tcrps_pct_of_det\timprovement_pct"
    lines = [header]
    for r in reports:
        pct = 100.0 * r.crps_mean / base_crps
        improvement = 100.0 * (base_crps - r.crps_mean) / base_crps
        lines.append(
            "\t".join(
                [
                    r.meta.get("variant", "?"),
                    metrics._fmt(r.crps_mean),
                    metrics._fmt(r.avg_width),
                    metrics._fmt(r.calib_error),
                    metrics._fmt(r.mae),
                    metrics._fmt(r.mape),
                    metrics._fmt(r.rmse),
                    f"{pct:.2f}",
                    f"{improvement:.2f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# click commands
# ----------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main():
    """Probabilistic forecasting with a Gaussian-mixture output layer."""


@main.command("generate")
@click.option("--nodes", type=int, default=50, callback=_positive, show_default=True)
@click.option("--sessions", type=int, default=30, callback=_positive, show_default=True)
@click.option("--session-steps", type=int, default=48, callback=_positive, show_default=True)
@click.option("--step-minutes", type=float, default=3.0, show_default=True)
@click.option("--max-value", type=float, default=14.0, show_default=True)
@click.option("--noise", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--name", default="synthetic", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output directory (default $MIXCAST_OUT or cwd).")
def cmd_generate(nodes, sessions, session_steps, step_minutes, max_value, noise, seed, name, out):
    """Write a synthetic dataset (CSV + manifest)."""
    started = time.time()
    try:
        spec = data.SyntheticSpec(
            nodes=nodes,
            sessions=sessions,
            session_steps=session_steps,
            step_minutes=step_minutes,
            max_value=max_value,
            noise_sigma=noise,
            seed=seed,
        )
        dataset = data.generate(spec)
        base = _out_dir(out) / name
        csv_path, man_path = dataset_paths(base)
        data.export_csv(dataset, csv_path)
        data.write_manifest(data.DatasetManifest.for_dataset(dataset), man_path)
        _write_run_manifest(
            Path(str(base) + ".run.json"),
            "generate",
            {"spec": spec.__dict__ | {"seed": seed}},
            {"csv": csv_path, "manifest": man_path},
            started,
        )
    except data.DataError as err:
        raise _fail(err)
    click.echo(f"wrote {csv_path} and {man_path}")


@main.command("train")
@click.option("--data", "data_path", required=True, type=click.Path(), help="Dataset base path or manifest.")
@click.option("--variant", type=click.Choice(model.VARIANTS), default="gmm", show_default=True)
@click.option("--k", type=int, default=None, help="Mixture components (gmm only; norm is always 1).")
@click.option("--epochs", type=int, default=None, callback=_positive)
@click.option("--batch-size", type=int, default=None, callback=_positive)
@click.option("--lr", type=float, default=None, callback=_positive)
@click.option("--seed", type=int, default=None)
@click.option("--input-steps", type=int, default=10, callback=_positive, show_default=True)
@click.option("--horizon", type=int, default=10, callback=_positive, show_default=True)
@click.option("--coverage-fraction", type=float, default=1.0, show_default=True)
@click.option("--coverage-seed", type=int, default=0, show_default=True)
@click.option("--resolution-factor", type=int, default=1, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config with 'train' and 'model' sections; flags win.")
@click.option("--name", default=None, help="Checkpoint base name.")
@click.option("--out", type=click.Path(), default=None)
def cmd_train(data_path, variant, k, epochs, batch_size, lr, seed, input_steps, horizon,
              coverage_fraction, coverage_seed, resolution_factor, config_path, name, out):
    """Train one variant on a dataset, saving the best checkpoint."""
    started = time.time()
    try:
        config = _load_config_file(config_path)
        tsec = config["train"]
        if variant == "norm":
            k = 1
        elif variant == "gmm":
            k = _pick(k, tsec, "k", 5)
        try:
            train_cfg = training.TrainConfig(
                epochs=_pick(epochs, tsec, "epochs", 50),
                batch_size=_pick(batch_size, tsec, "batch_size", 32),
                lr=_pick(lr, tsec, "lr", 5e-4),
                weight_decay=float(tsec.get("weight_decay", 1e-4)),
                betas=tsec.get("betas", (0.9, 0.999)),
                warmup_epochs=float(tsec.get("warmup_epochs", 2.0)),
                clip_norm=float(tsec.get("clip_norm", 5.0)),
                seed=_pick(seed, tsec, "seed", 0),
            )
        except (TypeError, ValueError) as err:
            raise data.DataError(f"train config: {err}") from err
        dataset, manifest = load_dataset(data_path)
        result, mcfg, splits, extra = train_run(
            dataset,
            manifest,
            variant,
            k,
            train_cfg,
            input_steps,
            horizon,
            model_overrides=config["model"],
            coverage_fraction=coverage_fraction,
            coverage_seed=coverage_seed,
            resolution_factor=resolution_factor,
        )
        base = _out_dir(out) / (name or f"{variant}_seed{train_cfg.seed}")
        ckpt_path = Path(str(base) + ".ckpt.npz")
        log_path = Path(str(base) + ".log")
        model.save_checkpoint(ckpt_path, result.params, mcfg,
                              normalizer=splits.normalizer, extra=extra)
        log_path.write_text("\n".join(result.log_lines) + "\n")
        _write_run_manifest(
            Path(str(base) + ".run.json"),
            "train",
            {
                "data": str(data_path),
                "variant": variant,
                "k": k,
                "train": train_cfg.__dict__,
                "input_steps": input_steps,
                "horizon": horizon,
                "coverage_fraction": coverage_fraction,
                "resolution_factor": resolution_factor,
            },
            {"checkpoint": ckpt_path, "log": log_path},
            started,
            results=training_health(result),
        )
        if result.diverged:
            click.echo(f"training diverged; best checkpoint so far at {ckpt_path}", err=True)
            raise SystemExit(3)
    except data.DataError as err:
        raise _fail(err)
    click.echo(
        f"wrote {ckpt_path} (best val loss {result.best_val_loss!r} "
        f"at epoch {result.best_epoch})"
    )


@main.command("evaluate")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--levels", default="0.5:0.95:0.05", show_default=True)
@click.option("--grid-points", type=click.IntRange(min=2), default=500, show_default=True,
              help="Interval-derivation grid points.")
@click.option("--normalized-space", is_flag=True, default=False,
              help="Score in normalized space instead of raw units.")
@click.option("--ridge-node", type=int, default=0, show_default=True)
@click.option("--ridge-window", type=int, default=0, show_default=True)
@click.option("--name", default=None, help="Report base name.")
@click.option("--out", type=click.Path(), default=None)
def cmd_evaluate(checkpoint, data_path, levels, grid_points, normalized_space,
                 ridge_node, ridge_window, name, out):
    """Score a checkpoint on the test split; write report + plot tables."""
    started = time.time()
    try:
        dataset, manifest = load_dataset(data_path)
        report, splits, preds, mcfg, scoring = evaluate_run(
            checkpoint,
            dataset,
            manifest,
            levels=parse_levels(levels),
            grid_points=grid_points,
            normalized_space=normalized_space,
        )
        base = _out_dir(out) / (name or (Path(checkpoint).name.split(".")[0] + "_eval"))
        report_path = Path(str(base) + ".report.txt")
        horizon_path = Path(str(base) + ".horizon.tsv")
        calib_path = Path(str(base) + ".calibration.tsv")
        report_path.write_text(metrics.report_to_text(report))
        horizon_path.write_text(horizon_table(report))
        calib_path.write_text(calibration_table(report))
        artifacts = {"report": report_path, "horizon": horizon_path, "calibration": calib_path}
        if mcfg.variant != "det":
            ridge_path = Path(str(base) + ".density.tsv")
            ridge_path.write_text(
                density_ridge_table(
                    preds, ridge_window, ridge_node, scoring.interval_range,
                    scoring.interval_points,
                )
            )
            artifacts["density"] = ridge_path
        _write_run_manifest(
            Path(str(base) + ".run.json"),
            "evaluate",
            {
                "checkpoint": str(checkpoint),
                "data": str(data_path),
                "levels": levels,
                "grid_points": grid_points,
                "normalized_space": normalized_space,
            },
            artifacts,
            started,
            results={"clipped_interval_elements": report.clipped_interval_elements,
                     "hpd_pit_counts": report.hpd_pit_counts,
                     "hpd_pit_counts_by_step": report.hpd_pit_counts_by_step},
        )
    except (data.DataError, IndexError) as err:
        raise _fail(err)
    click.echo(f"wrote {report_path} (crps {report.crps_mean!r})")


@main.command("compare")
@click.argument("reports", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Also write the table here.")
def cmd_compare(reports, out):
    """Side-by-side metrics for two or more evaluation reports."""
    if len(reports) < 2:
        raise click.UsageError("need at least two reports to compare")
    try:
        loaded = []
        for path in reports:
            try:
                loaded.append(metrics.report_from_text(Path(path).read_text()))
            except (KeyError, ValueError) as err:
                raise data.DataError(f"{path}: malformed report: {err!r}") from err
        table = comparison_table(loaded)
    except data.DataError as err:
        raise _fail(err)
    click.echo(table, nl=False)
    if out:
        Path(out).write_text(table)
