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
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import intervals as iv
from .gmm import _SQRT_HALF, MixtureBatch, _sum_k, erf, grid_densities

DEFAULT_LEVELS = tuple(np.round(np.arange(0.50, 0.951, 0.05), 10))
MAPE_EPSILON = 1e-3
_TAIL_SIGMAS = 8.0
PIT_BINS = 10
# Elements x grid points scored per chunk: 512 KiB per float32 (chunk,
# grid) array and 1 MiB for its float64 cumulative mass, whatever the grid
# size. Smaller chunks pay more per-call overhead; larger ones fall out of
# cache and raise peak RSS.
_CHUNK_CELLS = 2**17
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# The interval grid is float32 where that is safe: with every mean and the
# grid within _F32_REACH of the grid's low end and every variance at most
# its square, a float32 exponent stays below (2 R)^2 / (2 VAR_FLOOR),
# about 4e36, and never overflows. A row whose float32 grid mass is below
# _F32_MASS_MIN is a far tail that float32 has flushed toward zero.
_F32_REACH = 1e16
_F32_MASS_MIN = 1e-20


@dataclass
class ScoringConfig:
    """Interval grid and level choices for batch evaluation.

    levels must be strictly increasing and lie strictly inside (0, 1),
    interval_points an integer >= 2, and interval_range, when given, two
    finite numbers lo < hi; anything else is a ValueError naming the
    field. interval_range is the shared interval grid range, e.g.
    (0, max speed) in raw units, and is derived from the mixtures' 8-sigma
    support when omitted. The grid is computed in float32 (see
    `_interval_densities` for its error bound and float64 fallback).
    Coverage and width are conditional on that range: u normalizes by the
    on-grid mass, and a target outside it is covered at no level. The CLI keeps the fixed
    physical range (0, max_value), as ingest rejects any value outside
    it: mass there is unobservable. `evaluate` scores mixtures in chunks
    of 2**17 // interval_points elements (at least one), so its working
    memory beyond the per-element results is a few (chunk,
    interval_points) arrays of at most 1 MiB, whatever the element count.
    """

    levels: tuple = DEFAULT_LEVELS
    interval_points: int = 500
    interval_range: tuple | None = None

    def __post_init__(self):
        check_levels(self.levels)
        points = self.interval_points
        if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 2:
            raise ValueError(f"interval_points must be an integer >= 2, got {points!r}")
        if self.interval_range is not None:
            bounds = np.asarray(self.interval_range, dtype=float)
            if bounds.shape != (2,) or not np.all(np.isfinite(bounds)):
                raise ValueError(
                    f"interval_range must be two finite numbers, got {self.interval_range!r}"
                )
            if not bounds[0] < bounds[1]:
                raise ValueError(
                    f"interval_range must have lo < hi, got {self.interval_range!r}"
                )


def check_levels(levels) -> None:
    """ValueError unless levels is a non-empty, strictly increasing
    sequence strictly inside (0, 1), so no level is counted twice in
    calib_error."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0 or not np.all((levels > 0) & (levels < 1)):
        raise ValueError("levels must lie in (0, 1)")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing")


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
    # HPD-PIT: counts of u in PIT_BINS equal bins over [0, 1], overall and
    # per horizon step (t_f rows); empty for point predictions; kept out of
    # the text report.
    hpd_pit_counts: list = field(default_factory=list)
    hpd_pit_counts_by_step: list = field(default_factory=list)


def _abs_gap_mean(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E|m + s Z| for standard normal Z: 2 s phi(m/s) + m (2 Phi(m/s) - 1),
    with 2 Phi(z) - 1 taken as erf(z / sqrt 2), free of cancellation near 0."""
    z = m / s
    return 2.0 * s * _INV_SQRT_2PI * np.exp(-0.5 * z * z) + m * erf(z * _SQRT_HALF)


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
    pairs = _sum_k(w * w * sd) / math.sqrt(math.pi)
    k, l = np.triu_indices(mb.k, 1)
    if k.size:  # K = 1 has no pairs
        gap = _abs_gap_mean(mu[..., k] - mu[..., l], np.sqrt(var[..., k] + var[..., l]))
        # In-order slab sums over the pair axis too: a row's sum then does
        # not depend on how many rows come with it (np.sum adds one row
        # pairwise but the columns of a many-row, column-major pair array
        # in order).
        pairs += _sum_k(w[..., k] * w[..., l] * gap)
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


def _interval_densities(part: MixtureBatch, y: np.ndarray, lo: float, x: np.ndarray):
    """Grid and target densities of one chunk, in row groups, and each
    row's grid mass: ([(rows, dens (r, P), p_y (r,)), ...], mass (n,)).

    The grid is computed in float32: means, grid and targets are shifted
    by lo in float64 before the cast, so rounding scales with the grid
    span, not with lo, and a target on a grid point goes through the
    grid's own arithmetic and ties its cell. Masses are summed in float64.
    Over the CLI's domain float32 moves a row's normalized grid mass (L1)
    by less than 1% of phi(0) * sum_k w_k dx / sd_k, the first-order term
    of the grid's discretization budget (tests/test_metrics.py).
    Rows float32 cannot score are recomputed in float64 as a second group:
    a mean, sd or the grid end beyond _F32_REACH of lo (clipped there
    first, so no float32 term overflows), or a float32 grid mass below
    _F32_MASS_MIN (a far tail that float32 flushes toward zero).
    """
    dx = float(x[1] - x[0])
    w, mu, var = part.weights, part.means, part.variances
    mu_lo = mu - lo
    far = ~(np.abs(mu_lo) <= _F32_REACH) | ~(var <= _F32_REACH**2)  # NaN is far too
    wide = far.any(axis=1) | (x[-1] - lo > _F32_REACH)
    w32, mu32, var32 = (
        a.astype(np.float32)
        for a in (w, np.clip(mu_lo, -_F32_REACH, _F32_REACH), np.minimum(var, _F32_REACH**2))
    )
    x32 = np.minimum(x - lo, _F32_REACH).astype(np.float32)
    y32 = np.clip(y - lo, -_F32_REACH, _F32_REACH).astype(np.float32)
    dens = grid_densities(w32, mu32, var32, x32)
    p_y = grid_densities(w32, mu32, var32, y32[:, None])[:, 0]
    mass = dens.sum(axis=1, dtype=np.float64) * dx
    wide |= ~(mass >= _F32_MASS_MIN)
    if not wide.any():
        return [(slice(None), dens, p_y)], mass
    w, mu, var = w[wide], mu[wide], var[wide]
    dens64 = grid_densities(w, mu, var, x)
    mass[wide] = dens64.sum(axis=1) * dx
    p_y64 = grid_densities(w, mu, var, y[wide, None])[:, 0]
    return [(~wide, dens[~wide], p_y[~wide]), (wide, dens64, p_y64)], mass


def _score_mixtures(mb: MixtureBatch, y: np.ndarray, cfg: ScoringConfig, levels: np.ndarray):
    """Per-element CRPS, point estimate, HPD value u and HPD widths
    (n, L) of a flat batch, plus the clipped-mass count.

    Each chunk of rows is scored completely (CRPS, grid densities, p(y),
    HPD scores) into preallocated per-element arrays, so no temporary
    grows with the element count. CRPS and point estimates are float64;
    the interval grid is float32 where that is safe (`_interval_densities`).
    """
    if cfg.interval_range is not None:
        lo, hi = cfg.interval_range
    else:
        smax = float(np.sqrt(mb.variances.max()))
        lo = float(mb.means.min()) - _TAIL_SIGMAS * smax
        hi = float(mb.means.max()) + _TAIL_SIGMAS * smax
    x = np.linspace(lo, hi, cfg.interval_points)
    dx = float(x[1] - x[0])
    n = y.size
    crps, point_est, u = np.empty(n), np.empty(n), np.empty(n)
    width = np.empty((n, levels.size))
    clipped = empty = 0
    rows = max(1, _CHUNK_CELLS // x.size)
    for start in range(0, n, rows):
        sl = slice(start, start + rows)
        part, y_part = mb[sl], y[sl]
        crps[sl] = crps_mixture_batch(part, y_part)
        point_est[sl] = part.point_estimates()
        groups, mass = _interval_densities(part, y_part, lo, x)
        clipped += int(np.count_nonzero(mass < iv.MASS_COMPLETE_MIN))
        empty += int(np.count_nonzero(mass <= 0.0))
        if empty:
            continue  # nothing to select; the error below counts every miss
        on_grid = (y_part >= lo) & (y_part <= hi)
        u_part, width_part = u[sl], width[sl]
        for at, dens, p_y in groups:
            u_part[at], width_part[at] = iv.hpd_scores(dens, dx, p_y, on_grid[at], levels)
    if empty:
        raise ValueError(
            f"{empty} of {n} elements put no mass on the interval grid [{lo!r}, {hi!r}]"
        )
    return crps, point_est, u, width, clipped


def evaluate(batch, scoring: ScoringConfig | None = None, meta: dict | None = None) -> EvaluationReport:
    """Score a batch of predictions against its targets.

    Probabilistic batches get CRPS, interval width and coverage at every
    level, plus deterministic scores of their probability-weighted point
    estimates. Point-prediction batches get CRPS == absolute error and
    NaN ("not applicable") interval metrics. A ValueError names the
    elements whose mixture puts no mass on the interval grid.

    Mixtures are scored chunk by chunk (see ScoringConfig): beyond the
    per-element results, a few doubles per element and level, memory is
    bounded by one chunk's (chunk, grid) arrays of at most 1 MiB each.
    """
    cfg = scoring or ScoringConfig()
    levels = np.asarray(cfg.levels, dtype=float)
    flat_targets, t_f, mixtures, points = _flatten_batch(batch)
    y = flat_targets.ravel()

    if points is not None:
        point_est = np.asarray(points, dtype=float).ravel()
        crps_elem = np.abs(point_est - y)
        clipped = 0
        width_elem = u = None
    else:
        crps_elem, point_est, u, width_elem, clipped = _score_mixtures(
            mixtures.reshape(y.size), y, cfg, levels
        )

    crps_mean = float(crps_elem.mean())
    mae, mape, rmse = deterministic_scores(point_est, y)

    crps_by_step = crps_elem.reshape(-1, t_f).mean(axis=0)
    if width_elem is None:
        avg_width = calib_error = float("nan")
        curve, pit, pit_by_step = [], [], []
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
        # A value's bin does not depend on the other values, so the
        # per-step rows add up to the histogram of all of u.
        pit_rows = np.array(
            [np.histogram(u_step, PIT_BINS, (0.0, 1.0))[0] for u_step in u.reshape(-1, t_f).T]
        )
        pit, pit_by_step = pit_rows.sum(axis=0).tolist(), pit_rows.tolist()

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
        hpd_pit_counts=pit,
        hpd_pit_counts_by_step=pit_by_step,
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
