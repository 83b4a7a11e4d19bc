"""Scoring of probabilistic and deterministic forecasts.

CRPS is the integrated squared gap between the predicted CDF and the unit
step at the observed value. For a Gaussian mixture it has a closed form;
a point prediction is treated as a step CDF, for which CRPS reduces to
the absolute error. Interval quality is summarized by the mean total
width (avg_width) and the mean absolute gap between nominal confidence
and empirical coverage (calib_error), both averaged over a set of
confidence levels. Intervals are highest-density regions on a shared
grid: an element is covered at level c iff its HPD value u
(`intervals.hpd_scores`) is below c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import intervals as iv
from .gmm import MixtureBatch, _sum_k, grid_densities

DEFAULT_LEVELS = tuple(np.round(np.arange(0.50, 0.951, 0.05), 10))
MAPE_EPSILON = 1e-3
_TAIL_SIGMAS = 8.0
PIT_BINS = 10
_CHUNK = 2048
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass
class ScoringConfig:
    """Interval grid and level choices for batch evaluation.

    interval_range is the shared interval grid range, e.g. (0, max speed)
    in raw units, and is derived from the mixtures' 8-sigma support when
    omitted. Coverage and width are conditional on that range: u
    normalizes by the on-grid mass, and a target outside it is covered at
    no level. The CLI keeps the fixed physical range (0, max_value), as
    ingest rejects any value outside it: mass there is unobservable.
    """

    levels: tuple = DEFAULT_LEVELS
    interval_points: int = 500
    interval_range: tuple | None = None


@dataclass
class EvaluationReport:
    crps_mean: float
    avg_width: float
    calib_error: float
    mae: float
    mape: float
    rmse: float
    per_horizon: list = field(default_factory=list)  # (step, crps, avg_width, calib_error)
    calibration_curve: list = field(default_factory=list)  # (level, coverage)
    meta: dict = field(default_factory=dict)
    # Elements whose interval grid held less than intervals.MASS_COMPLETE_MIN
    # of their mass before normalization; kept out of the text report.
    clipped_interval_elements: int = 0
    # HPD-PIT: counts of u in PIT_BINS equal bins over [0, 1]; empty for
    # point predictions; kept out of the text report.
    hpd_pit_counts: list = field(default_factory=list)


def _abs_gap_mean(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E|m + s Z| for standard normal Z: 2 s phi(m/s) + m (2 Phi(m/s) - 1)."""
    from scipy.special import ndtr  # deferred: keeps scipy out of start-up

    z = m / s
    return 2.0 * s * _INV_SQRT_2PI * np.exp(-0.5 * z * z) + m * (2.0 * ndtr(z) - 1.0)


def crps_mixture_batch(mb: MixtureBatch, y: np.ndarray) -> np.ndarray:
    """Exact per-element CRPS of Gaussian mixtures (Grimit et al. 2006).

    CRPS = E|X - y| - E|X - X'| / 2 with X, X' drawn from the mixture:

        sum_k w_k A(y - mu_k, s_k^2)
          - 1/2 sum_{k,l} w_k w_l A(mu_k - mu_l, s_k^2 + s_l^2)

    with A(m, s^2) = E|m + s Z|. A is even in m, so the pair sum runs over
    the diagonal, where A(0, 2 s_k^2) = 2 s_k / sqrt(pi), plus each
    unordered pair once. mb has element shape y.shape.
    """
    y = np.asarray(y, dtype=float)
    w, mu, var = mb.weights, mb.means, mb.variances
    sd = np.sqrt(var)
    spread = _sum_k(w * _abs_gap_mean(y[..., None] - mu, sd))
    k, l = np.triu_indices(mb.k, 1)
    gap = _abs_gap_mean(mu[..., k] - mu[..., l], np.sqrt(var[..., k] + var[..., l]))
    pairs = _sum_k(w * w * sd) / math.sqrt(math.pi)
    # The pair axis has K(K-1)/2 terms (10 at K=5), past the length at
    # which slab sums stop matching np.sum bitwise, so it keeps np.sum.
    pairs += np.sum(w[..., k] * w[..., l] * gap, axis=-1)
    return spread - pairs


def deterministic_scores(points: np.ndarray, targets: np.ndarray):
    """(mae, mape, rmse); mape in percent, excluding |target| < 1e-3.

    mape is NaN (an explicit undefined marker, never 0) when every target
    is excluded.
    """
    points = np.asarray(points, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if points.size == 0 or points.size != targets.size:
        raise ValueError(f"length mismatch: {points.size} points vs {targets.size} targets")
    err = points - targets
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    keep = np.abs(targets) >= MAPE_EPSILON
    if np.any(keep):
        mape = float(100.0 * np.mean(np.abs(err[keep] / targets[keep])))
    else:
        mape = float("nan")
    return mae, mape, rmse


def _flatten_batch(batch):
    """Flat targets, horizon shape, and mixtures-or-points from a batch."""
    targets = np.asarray(batch.targets, dtype=float)
    if targets.size == 0:
        raise ValueError("empty batch")
    t_f = targets.shape[-1]
    flat_targets = targets.reshape(-1, t_f)
    mixtures = getattr(batch, "mixtures", None)
    points = getattr(batch, "point_preds", None)
    if (mixtures is None) == (points is None):
        raise ValueError("batch must carry exactly one of mixtures / point_preds")
    if mixtures is not None and mixtures.shape != targets.shape:
        raise ValueError(f"mixtures shape {mixtures.shape} vs targets {targets.shape}")
    if points is not None and points.shape != targets.shape:
        raise ValueError(f"point_preds shape {points.shape} vs targets {targets.shape}")
    return flat_targets, t_f, mixtures, points


def evaluate(batch, scoring: ScoringConfig | None = None, meta: dict | None = None) -> EvaluationReport:
    """Score a batch of predictions against its targets.

    Probabilistic batches get CRPS, interval width and coverage at every
    level, plus deterministic scores of their probability-weighted point
    estimates. Point-prediction batches get CRPS == absolute error and
    NaN ("not applicable") interval metrics. A ValueError names the
    elements whose mixture puts no mass on the interval grid.
    """
    cfg = scoring or ScoringConfig()
    levels = np.asarray(cfg.levels, dtype=float)
    flat_targets, t_f, mixtures, points = _flatten_batch(batch)
    n_elem = flat_targets.size
    y = flat_targets.ravel()

    clipped = 0
    if points is not None:
        pts = np.asarray(points, dtype=float).reshape(-1, t_f)
        crps_elem = np.abs(pts.ravel() - y)
        width_elem = u = None
        point_est = pts.ravel()
    else:
        mb_flat = mixtures.reshape(n_elem)
        crps_elem = crps_mixture_batch(mb_flat, y)
        point_est = mb_flat.point_estimates()
        if cfg.interval_range is not None:
            lo, hi = cfg.interval_range
        else:
            smax = float(np.sqrt(mb_flat.variances.max()))
            lo = float(mb_flat.means.min()) - _TAIL_SIGMAS * smax
            hi = float(mb_flat.means.max()) + _TAIL_SIGMAS * smax
        x = np.linspace(lo, hi, cfg.interval_points)
        dx = float(x[1] - x[0])
        on_grid = (y >= lo) & (y <= hi)
        u = np.empty(n_elem)
        width_elem = np.empty((n_elem, levels.size))
        empty = 0
        for start in range(0, n_elem, _CHUNK):
            sl = slice(start, min(start + _CHUNK, n_elem))
            w, mu, var = mb_flat.weights[sl], mb_flat.means[sl], mb_flat.variances[sl]
            dens = grid_densities(w, mu, var, x)
            mass = dens.sum(axis=1) * dx
            clipped += int(np.count_nonzero(mass < iv.MASS_COMPLETE_MIN))
            empty += int(np.count_nonzero(mass <= 0.0))
            if empty:
                continue  # nothing to select; the error below counts every miss
            p_y = grid_densities(w, mu, var, y[sl, None])[:, 0]
            u[sl], width_elem[sl] = iv.hpd_scores(dens, dx, p_y, on_grid[sl], levels)
        if empty:
            raise ValueError(
                f"{empty} of {n_elem} elements put no mass on the interval grid "
                f"[{lo!r}, {hi!r}]"
            )

    crps_mean = float(crps_elem.mean())
    mae, mape, rmse = deterministic_scores(point_est, y)

    crps_by_step = crps_elem.reshape(-1, t_f).mean(axis=0)
    if width_elem is None:
        avg_width = calib_error = float("nan")
        curve = []
        per_horizon = [(s + 1, float(crps_by_step[s]), float("nan"), float("nan")) for s in range(t_f)]
    else:
        contained_elem = u[:, None] < levels
        coverage = contained_elem.mean(axis=0)
        curve = [(float(c), float(v)) for c, v in zip(levels, coverage)]
        avg_width = float(width_elem.mean())
        calib_error = float(np.mean(np.abs(coverage - levels)))
        w_step = width_elem.reshape(-1, t_f, levels.size).mean(axis=(0, 2))
        cov_step = contained_elem.reshape(-1, t_f, levels.size).mean(axis=0)
        ce_step = np.mean(np.abs(cov_step - levels[None, :]), axis=1)
        per_horizon = [
            (s + 1, float(crps_by_step[s]), float(w_step[s]), float(ce_step[s]))
            for s in range(t_f)
        ]

    return EvaluationReport(
        crps_mean=crps_mean,
        avg_width=avg_width,
        calib_error=calib_error,
        mae=mae,
        mape=mape,
        rmse=rmse,
        per_horizon=per_horizon,
        calibration_curve=curve,
        meta=dict(meta or {}),
        clipped_interval_elements=clipped,
        hpd_pit_counts=[] if u is None else np.histogram(u, PIT_BINS, (0.0, 1.0))[0].tolist(),
    )


# ----------------------------------------------------------------------
# Structured-text report files (diffable, byte-deterministic).
# ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return "na" if isinstance(v, float) and math.isnan(v) else repr(float(v))


def _parse(s: str) -> float:
    return float("nan") if s == "na" else float(s)


def report_to_text(r: EvaluationReport) -> str:
    lines = ["# evaluation report v1"]
    for k in sorted(r.meta):
        lines.append(f"meta.{k} = {r.meta[k]}")
    for k in ("crps_mean", "avg_width", "calib_error", "mae", "mape", "rmse"):
        lines.append(f"{k} = {_fmt(getattr(r, k))}")
    lines.append("")
    lines.append("[per_horizon]")
    lines.append("# step crps avg_width calib_error")
    for step, crps, w, ce in r.per_horizon:
        lines.append(f"{step} {_fmt(crps)} {_fmt(w)} {_fmt(ce)}")
    lines.append("")
    lines.append("[calibration]")
    lines.append("# level coverage")
    for level, cov in r.calibration_curve:
        lines.append(f"{_fmt(level)} {_fmt(cov)}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> EvaluationReport:
    scalars, meta = {}, {}
    per_horizon, curve = [], []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        if section is None:
            key, _, val = line.partition(" = ")
            if key.startswith("meta."):
                meta[key[5:]] = val
            else:
                scalars[key] = _parse(val)
        elif section == "per_horizon":
            parts = line.split()
            per_horizon.append((int(parts[0]), *(_parse(p) for p in parts[1:])))
        elif section == "calibration":
            level, cov = line.split()
            curve.append((_parse(level), _parse(cov)))
    return EvaluationReport(
        crps_mean=scalars["crps_mean"],
        avg_width=scalars["avg_width"],
        calib_error=scalars["calib_error"],
        mae=scalars["mae"],
        mape=scalars["mape"],
        rmse=scalars["rmse"],
        per_horizon=per_horizon,
        calibration_curve=curve,
        meta=meta,
    )
