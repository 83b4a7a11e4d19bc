"""Command-line entry points: generate data, train variants, evaluate
checkpoints, compare reports.

Artifact conventions: `generate` writes <name>.csv + <name>.manifest.json;
`train` writes <name>.ckpt.npz + <name>.log; `evaluate` writes
<name>.report.txt plus plot-ready .tsv tables. Every command also writes
a <name>.run.json manifest recording how to reproduce it.

Exit codes: 0 success, 2 usage errors, 3 data/processing errors.
"""
from __future__ import annotations

import json
import math
import os
import time
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from . import __version__, data, intervals, metrics, model, training
from .gmm import grid_densities


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
    """The first 12 hex digits of the SHA-256 of the manifest's identity
    fields, from the interpreter's own SHA-256: hashlib's would load
    OpenSSL (about 3 MB of libcrypto) into `evaluate` for a few hundred
    bytes. The digests are the same. Imported here, so `train` loads it
    only once it has fitted."""
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    blob = json.dumps(
        [list(manifest.node_ids), manifest.sessions, manifest.session_steps,
         manifest.step_minutes, manifest.max_value, manifest.seed],
    ).encode()
    return sha256(blob).hexdigest()[:12]


def parse_levels(text: str, grid_points: int) -> tuple:
    """`lo:hi:step` (inclusive) or a comma list of levels. A range is
    counted before it is built: an empty one, or one of more levels than
    `grid_points` (each width is a count of grid cells), is rejected."""
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            if not np.all(np.isfinite((lo, hi, step))):
                raise ValueError("lo, hi and step must be finite")
            if not step > 0:
                raise ValueError(f"step must be positive, got {step!r}")
            # np.arange's length: ceil of this ratio, or none below 0.
            count = (hi + step / 2 - lo) / step
            if not count > 0:
                raise ValueError("the range is empty")
            if not count <= grid_points:
                raise ValueError(f"the range holds more levels than --grid-points ({grid_points})")
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


# The keys each --config section may carry; anything else is a typo. All
# but k are fields of TrainConfig, BackboneConfig or HeadConfig, which hold
# their defaults and checks.
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


def apply_quality(dataset, coverage_fraction, coverage_seed, resolution_factor):
    """Resolution first (block means), then sensor coverage masking."""
    if resolution_factor != 1:
        dataset = data.degrade_resolution(dataset, resolution_factor)
    if coverage_fraction != 1.0:
        dataset, _ = data.degrade_coverage(dataset, coverage_fraction, coverage_seed)
    return dataset


def build_model_config(variant, k, input_steps, horizon, channels, mcfg: dict) -> model.ModelConfig:
    """The model config; each --config model key given in `mcfg` goes to
    the dataclass that has it as a field, and the others keep their defaults."""
    head_keys = {f.name for f in fields(model.HeadConfig)}
    backbone = model.BackboneConfig(input_steps=input_steps, channels=channels,
                                    **{key: v for key, v in mcfg.items() if key not in head_keys})
    head = None
    if variant != "det":
        head = model.HeadConfig(components=k,
                                **{key: v for key, v in mcfg.items() if key in head_keys})
    return model.ModelConfig(variant=variant, backbone=backbone, horizon=horizon, head=head)


def train_run(data_path, variant, k, train_cfg: training.TrainConfig, input_steps, horizon,
              model_overrides, coverage_fraction, coverage_seed, resolution_factor):
    """Load, degrade, split, window, fit: (result, model_cfg, splits, extra).
    The splits copy the series, so the dataset is released before fitting."""
    # fit seeds numpy.random, which loads OpenSSL (through secrets and
    # hmac). Loading it first keeps OpenSSL's start-up allocations out of
    # the heap that ingest and fit grow: loaded inside fit, it raised
    # train_gmm's peak RSS by 0.04 to 0.11 MB.
    import hashlib  # noqa: F401

    dataset, manifest = load_dataset(data_path)
    worked = apply_quality(dataset, coverage_fraction, coverage_seed, resolution_factor)
    splits = data.prepare_splits(worked, input_steps, horizon, manifest.split_fractions)
    del dataset, worked
    channels = splits.train.channels
    try:
        mcfg = build_model_config(variant, k, input_steps, horizon, channels, model_overrides)
    except (TypeError, ValueError) as err:
        raise data.DataError(f"model config: {err}") from err
    result = training.fit(splits, mcfg, train_cfg)
    extra = {
        "dataset_id": dataset_id(manifest),
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
        # The median as np.median takes it, without mapping numpy's
        # selection kernels (about 1 MB of RSS) for a few hundred floats.
        ordered = sorted(norms)
        half = len(ordered) // 2
        median = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
        stats = {"min": ordered[0], "median": median, "max": ordered[-1]}
    clamped = None
    if result.logvars:
        clamped = {"count": result.logvar_clamped,
                   "fraction": result.logvar_clamped / result.logvars}
    tables = {key: [h[key] for h in result.history if key in h] or None
              for key in ("weight_entropy", "effective_k")}
    return {"grad_norm": stats, "clipped_steps": sum(result.clip_fired),
            "logvar_clamped": clamped, **tables}


def evaluate_run(checkpoint_path, data_path, levels, grid_points, normalized_space, ridge):
    """Score a checkpoint on the test split of the dataset at `data_path`:
    (report, ridge grid).

    The data-quality settings and normalizer stored at training time are
    reapplied so inputs match what the model saw, and the dataset is
    released once the splits hold their own copies. Metrics are reported
    in raw units unless normalized_space is set. The test windows are
    gathered with their targets, predicted, mapped to the reporting space
    and scored in chunks of `metrics.chunk_rows` windows, so no array
    holds the targets or the mixtures of the whole split. The ridge grid
    is (x, float64 densities (horizon, grid_points)) of the (window,
    node) `ridge`'s mixtures on the interval grid (None for det); a ridge
    index outside the test split fails before any scoring is done."""
    try:
        params, mcfg, norm_stats, extra = model.load_checkpoint(checkpoint_path)
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as err:
        raise data.DataError(f"cannot read checkpoint {checkpoint_path}: {err}") from err
    dataset, manifest = load_dataset(data_path)
    if extra.get("dataset_id") not in (None, dataset_id(manifest)):
        raise data.DataError(
            f"checkpoint was trained on dataset {extra.get('dataset_id')}, "
            f"given {dataset_id(manifest)}"
        )
    worked = apply_quality(dataset, extra.get("coverage_fraction", 1.0),
                           extra.get("coverage_seed", 0), extra.get("resolution_factor", 1))
    splits = data.prepare_splits(worked, mcfg.backbone.input_steps, mcfg.horizon,
                                 manifest.split_fractions)
    del dataset, worked
    nrm = splits.normalizer
    if norm_stats is not None and (
        abs(norm_stats["mean"] - nrm.mean) > 1e-9 or abs(norm_stats["std"] - nrm.std) > 1e-9
    ):
        raise data.DataError("normalizer mismatch between checkpoint and dataset")
    # Only the test split is scored: the train and validation series are
    # released before prediction and scoring allocate.
    test = splits.test
    del splits
    det = mcfg.variant == "det"
    window, node = ridge
    n_windows, n_nodes, t_f = test.count, test.raw.shape[2], mcfg.horizon
    if not det and not (0 <= window < n_windows and 0 <= node < n_nodes):
        raise data.DataError(
            f"ridge index (window {window}, node {node}) outside ({n_windows}, {n_nodes})"
        )
    interval_range = (-6.0, 6.0) if normalized_space else (0.0, manifest.max_value)
    scoring = metrics.ScoringConfig(
        levels=tuple(levels),
        interval_points=grid_points,
        interval_range=interval_range,
    )
    step = metrics.chunk_rows(n_nodes * t_f, grid_points)
    ridge_mixtures = []

    def pairs():
        for start in range(0, n_windows, step):
            idx = slice(start, start + step)
            if normalized_space:
                inputs, targets = test.gather(idx)
            else:
                inputs, targets = test.gather_inputs(idx), test.gather_raw(idx)
            preds = model.predict(params, mcfg, inputs)
            if not normalized_space:
                preds = nrm.inverse(preds) if det else preds.scale_shift(nrm.std, nrm.mean)
            if not det and start <= window < start + step:
                ridge_mixtures.append(preds[window - start, node])
            yield targets, preds

    meta = {
        "variant": mcfg.variant,
        "dataset": dataset_id(manifest),
        "space": "normalized" if normalized_space else "raw",
        "elements": str(n_windows * n_nodes * t_f),
        "levels": ",".join(repr(v) for v in scoring.levels),
        "seed": str(extra.get("seed", "")),
    }
    try:
        report = metrics.evaluate(pairs(), scoring, meta=meta)
    except ValueError as err:
        raise data.DataError(str(err)) from err
    if det:
        return report, None
    x = np.linspace(*interval_range, grid_points)
    mb = ridge_mixtures[0]
    return report, (x, grid_densities(mb.weights, mb.means, mb.variances, x))


def density_ridge_table(x, dens) -> str:
    """The ridge densities by grid point: the data behind a per-step
    density-ridge plot."""
    lines = ["x\t" + "\t".join(f"step{t + 1}" for t in range(dens.shape[0]))]
    for i, xv in enumerate(x):
        lines.append(repr(float(xv)) + "\t" + "\t".join(repr(float(v)) for v in dens[:, i]))
    return "\n".join(lines) + "\n"


def intervals_table(x, dens, levels) -> str:
    """The ridge densities' HPD sub-intervals, one row per sub-interval of
    each (step, level), numbered from 1 in ascending order."""
    lines = ["step\tlevel\tindex\tlower\tupper"]
    for step, sets in enumerate(intervals.derive_intervals(dens, x, levels), start=1):
        for s in sets:
            for index, (lo, hi) in enumerate(s.intervals, start=1):
                lines.append(f"{step}\t{s.level!r}\t{index}\t{lo!r}\t{hi!r}")
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
    baseline (100% on its own row; `na` when its CRPS is 0 or not finite).
    Reports of different datasets, spaces, level sets or element counts
    are a DataError that names the key and its values."""
    for key in ("dataset", "space", "levels", "elements"):
        values = sorted({r.meta.get(key) for r in reports}, key=repr)
        if len(values) > 1:
            raise data.DataError(f"reports differ in meta.{key}: {' vs '.join(map(repr, values))}")
    baseline = next((r for r in reports if r.meta.get("variant") == "det"), reports[0])
    base_crps = baseline.crps_mean
    if not (math.isfinite(base_crps) and base_crps != 0):
        base_crps = math.nan
    lines = ["variant\tcrps\tavg_width\tcalib_error\tmae\tmape\trmse\tcrps_pct_of_det\timprovement_pct"]
    for r in reports:
        pcts = (100.0 * r.crps_mean / base_crps, 100.0 * (base_crps - r.crps_mean) / base_crps)
        lines.append("\t".join([r.meta.get("variant", "?"),
                                *(metrics._fmt(getattr(r, k)) for k in metrics.SCALARS),
                                *("na" if math.isnan(p) else f"{p:.2f}" for p in pcts)]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# click commands
# ----------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main():
    """Probabilistic forecasting with a Gaussian-mixture output layer."""


@main.command("generate")
@click.option("--nodes", type=int, default=data.SyntheticSpec.nodes, callback=_positive,
              show_default=True)
@click.option("--sessions", type=int, default=data.SyntheticSpec.sessions, callback=_positive,
              show_default=True)
@click.option("--session-steps", type=int, default=data.SyntheticSpec.session_steps,
              callback=_positive, show_default=True)
@click.option("--step-minutes", type=float, default=data.SyntheticSpec.step_minutes,
              show_default=True)
@click.option("--max-value", type=float, default=data.SyntheticSpec.max_value, show_default=True)
@click.option("--noise", type=float, default=data.SyntheticSpec.noise_sigma, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=data.SyntheticSpec.seed,
              show_default=True)
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
            {"spec": asdict(spec)},
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
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--input-steps", type=int, default=10, callback=_positive, show_default=True)
@click.option("--horizon", type=int, default=10, callback=_positive, show_default=True)
@click.option("--coverage-fraction", type=float, default=1.0, show_default=True)
@click.option("--coverage-seed", type=click.IntRange(min=0), default=0, show_default=True)
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
        # Flags win over config keys; a setting given by neither keeps its
        # dataclass default.
        flags = {"k": k, "epochs": epochs, "batch_size": batch_size, "lr": lr, "seed": seed}
        given = config["train"] | {key: v for key, v in flags.items() if v is not None}
        # HeadConfig has no default K; the CLI's is 5. det has no head.
        k = {"gmm": given.pop("k", 5), "norm": 1}.get(variant)
        try:
            train_cfg = training.TrainConfig(**given)
        except (TypeError, ValueError) as err:
            raise data.DataError(f"train config: {err}") from err
        result, mcfg, splits, extra = train_run(
            data_path, variant, k, train_cfg, input_steps, horizon, config["model"],
            coverage_fraction, coverage_seed, resolution_factor)
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
                "train": train_cfg.__dict__,
                "model": model._cfg_to_meta(mcfg),
                "coverage_fraction": coverage_fraction,
                "coverage_seed": coverage_seed,
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
@click.option("--levels", default=",".join(map(str, map(float, metrics.DEFAULT_LEVELS))),
              show_default=True)
@click.option("--grid-points", type=click.IntRange(min=2, max=metrics.MAX_INTERVAL_POINTS),
              default=metrics.ScoringConfig.interval_points, show_default=True,
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
        level_values = parse_levels(levels, grid_points)
        report, ridge = evaluate_run(checkpoint, data_path, level_values, grid_points,
                                     normalized_space, (ridge_window, ridge_node))
        base = _out_dir(out) / (name or (Path(checkpoint).name.split(".")[0] + "_eval"))
        report_path = Path(str(base) + ".report.txt")
        horizon_path = Path(str(base) + ".horizon.tsv")
        calib_path = Path(str(base) + ".calibration.tsv")
        report_path.write_text(metrics.report_to_text(report))
        horizon_path.write_text(horizon_table(report))
        calib_path.write_text(calibration_table(report))
        artifacts = {"report": report_path, "horizon": horizon_path, "calibration": calib_path}
        ridge_mass = None
        if ridge is not None:
            x, dens = ridge
            ridge_path = Path(str(base) + ".density.tsv")
            intervals_path = Path(str(base) + ".intervals.tsv")
            ridge_path.write_text(density_ridge_table(x, dens))
            intervals_path.write_text(intervals_table(x, dens, level_values))
            artifacts["density"] = ridge_path
            artifacts["intervals"] = intervals_path
            ridge_mass = (dens.sum(axis=1) * (x[1] - x[0])).tolist()
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
                     "hpd_pit_counts_by_step": report.hpd_pit_counts_by_step,
                     "ridge_grid_mass": ridge_mass},
        )
    except data.DataError as err:
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
