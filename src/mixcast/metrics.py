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
from .data import check_ints
from .gmm import _SQRT_HALF, MixtureBatch, _sum_k, erf, grid_densities

DEFAULT_LEVELS = tuple(np.round(np.arange(0.50, 0.951, 0.05), 10))
MAPE_EPSILON = 1e-3
PIT_BINS = 10
_PIT_EDGES = np.linspace(0.0, 1.0, PIT_BINS + 1)
# Elements x grid points predicted per chunk of windows (`chunk_rows`).
_CHUNK_CELLS = 2**17
# Elements x grid points scored per chunk: 256 KiB for its float32 grid and
# 512 KiB for its float64 cumulative mass, whatever the grid size. Smaller
# chunks pay more per-call overhead; larger ones fall out of cache and
# raise peak RSS.
_SCORE_CELLS = 2**16
# The most elements whose per-element work (CRPS, point errors, float32
# inputs and target densities) runs at once: whole horizon rows of at
# least one row, so one window of a 50-node, 10-step forecast is one block.
_BLOCK_ELEMENTS = 2**9
# The most interval grid points: one element's grid row fills at most one
# prediction chunk's budget, and a scoring chunk, which holds at least one
# element, at most MAX_INTERVAL_POINTS cells.
MAX_INTERVAL_POINTS = _CHUNK_CELLS
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
    interval_points an integer from 2 to MAX_INTERVAL_POINTS (2**17), and
    interval_range, when given, two finite numbers lo < hi; anything else
    is a ValueError naming the field. interval_range is the shared
    interval grid range, e.g. (0, max speed) in raw units; mixtures need
    one, point predictions do not. The grid is computed in float32 (see
    `_interval_densities` for its error bound and float64 fallback).
    Coverage and width are conditional on that range: u normalizes by the
    on-grid mass, and a target outside it is covered at no level. The CLI
    keeps the fixed physical range (0, max_value), as ingest rejects any
    value outside it: mass there is unobservable. `evaluate` keeps nothing
    per element; its working memory is one block and 768 KiB of grid
    buffers (see there).
    """

    levels: tuple = DEFAULT_LEVELS
    interval_points: int = 500
    interval_range: tuple | None = None

    def __post_init__(self):
        check_levels(self.levels)
        check_ints(self, 2, "interval_points")
        if self.interval_points > MAX_INTERVAL_POINTS:
            raise ValueError(f"interval_points must be at most {MAX_INTERVAL_POINTS}, "
                             f"got {self.interval_points!r}")
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
    with 2 Phi(z) - 1 taken as erf(z / sqrt 2), free of cancellation near 0.
    Evaluated in place where it can, in the order of that formula."""
    z = m / s
    scale = np.multiply(2.0, s)
    scale *= _INV_SQRT_2PI
    density = np.multiply(-0.5, z)
    density *= z
    np.exp(density, out=density)
    density *= scale  # z's dtype holds s's
    del scale
    z *= _SQRT_HALF
    gap = erf(z)  # float64, whatever the dtype of m and s
    gap *= m
    gap += density
    return gap


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
    if mb.k > 1:  # K = 1 has no pairs
        # Component j against every later one, for j in order: each pair
        # once, K - 1 columns at most at a time, and summed in order, so a
        # row's sum does not depend on how many rows come with it (np.sum
        # adds one row pairwise but the columns of many rows in order).
        cross = np.zeros(mb.shape)
        for j in range(mb.k - 1):
            later = slice(j + 1, None)
            gap = _abs_gap_mean(mu[..., j, None] - mu[..., later],
                                np.sqrt(var[..., j, None] + var[..., later]))
            gap = w[..., j, None] * w[..., later] * gap
            for col in range(gap.shape[-1]):
                cross += gap[..., col]
        pairs += cross
    return spread - pairs


def _exact_partials(terms: list) -> list:
    """Floats whose sum is exactly that of `terms` (which it extends): the
    correctly rounded sum, then each correctly rounded remainder until none
    is left, one math.fsum pass each. Where fsum cannot sum (beyond the
    float range, or inf + -inf) the one partial is np.sum's, inf or NaN."""
    try:
        out = [math.fsum(terms)]
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return [float(np.sum(terms))]
    if math.isfinite(out[0]):
        terms.append(-out[0])
        while rest := math.fsum(terms):
            out.append(rest)
            terms.append(-rest)
    return out


def _mean(partials: list, n: int) -> float:
    """The correctly rounded mean of n terms, given `_exact_partials` of
    their sum (NaN for no terms): over the largest partial denominator, a
    power of 2, int / int rounds once, and loads no fractions module."""
    if not (n and math.isfinite(partials[0])):
        return partials[0] if n else math.nan
    ratios = [p.as_integer_ratio() for p in partials]
    den = max(d for _, d in ratios)
    return sum(num * (den // d) for num, d in ratios) / (den * n)


class _ExactSums:
    """Exact running sums, as `_exact_partials`, of each element's CRPS per
    horizon step and, over all steps, its |e|, e**2 and, where |y| >=
    MAPE_EPSILON, |e / y| (e = point estimate - target), so no sum depends
    on the chunking; `kept` counts the MAPE targets."""

    def __init__(self, t_f: int):
        self.t_f, self.kept = t_f, 0
        self.crps, self.errors = [[] for _ in range(t_f)], [[], [], []]

    def add(self, y: np.ndarray, point: np.ndarray, crps: np.ndarray) -> None:
        """Add flat elements in whole rows of t_f steps."""
        keep = np.abs(y) >= MAPE_EPSILON
        with np.errstate(over="ignore"):  # a huge error sums to inf, as np.mean does
            e = point - y
            ratio = np.divide(e, y, out=np.zeros_like(e), where=keep)
            terms = (np.abs(e), e * e, np.abs(ratio))
        self.errors = [_exact_partials(s + t.tolist()) for s, t in zip(self.errors, terms)]
        columns = crps.reshape(-1, self.t_f).T.tolist()
        self.crps = [_exact_partials(s + c) for s, c in zip(self.crps, columns)]
        self.kept += int(np.count_nonzero(keep))

    def means(self, rows: int):
        """(crps_mean, CRPS per step, mae, mape, rmse) of `rows` rows."""
        n, (abs_err, sq_err, pct_err) = rows * self.t_f, self.errors
        crps = _exact_partials([p for step in self.crps for p in step])
        return (_mean(crps, n), [_mean(step, rows) for step in self.crps],
                _mean(abs_err, n), 100.0 * _mean(pct_err, self.kept), math.sqrt(_mean(sq_err, n)))


def chunk_rows(row_elements: int, points: int) -> int:
    """How many rows of `row_elements` elements to predict at once for a
    grid of `points`: as many whole rows as fit in _CHUNK_CELLS elements
    x grid points, and at least one."""
    return max(1, _CHUNK_CELLS // (row_elements * points))


def _f32_inputs(mb: MixtureBatch, y: np.ndarray, lo: float, x: np.ndarray) -> tuple:
    """The per-element inputs of `_interval_densities` for flat mixtures and
    targets y (n,) on the grid x: (x32, w32, mu32, var32, p_y, far), the
    float32 grid, weights, means and variances (grid, means and targets
    shifted by lo in float64 first, all clipped to _F32_REACH), the
    float32 target densities p_y (n,) and `far` (n,), the rows float32
    cannot hold whatever their grid mass."""
    w, mu, var = mb.weights, mb.means, mb.variances
    mu_lo = mu - lo
    far = ~(np.abs(mu_lo) <= _F32_REACH) | ~(var <= _F32_REACH**2)  # NaN is far too
    far = far.any(axis=1) | (x[-1] - lo > _F32_REACH)
    w32, mu32, var32 = (
        a.astype(np.float32)
        for a in (w, np.clip(mu_lo, -_F32_REACH, _F32_REACH), np.minimum(var, _F32_REACH**2))
    )
    x32 = np.minimum(x - lo, _F32_REACH).astype(np.float32)
    y32 = np.clip(y - lo, -_F32_REACH, _F32_REACH).astype(np.float32)
    p_y = grid_densities(w32, mu32, var32, y32[:, None])[:, 0]
    return x32, w32, mu32, var32, p_y, far


def _interval_densities(part: MixtureBatch, y: np.ndarray, lo: float, x: np.ndarray,
                        inputs: tuple, out=None):
    """Grid and target densities of one chunk, in row groups, and each
    row's grid mass: ([(rows, dens (r, P), p_y (r,)), ...], mass (n,)).
    `inputs` are the chunk's `_f32_inputs`; the float32 grid goes into
    `out`, None or a (grid, scratch) pair of (n, P) float32 buffers for
    `grid_densities`.

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
    x32, w32, mu32, var32, p_y, far = inputs
    dx = float(x[1] - x[0])
    dens = grid_densities(w32, mu32, var32, x32, out)
    mass = dens.sum(axis=1, dtype=np.float64) * dx
    wide = far | ~(mass >= _F32_MASS_MIN)
    if not wide.any():
        return [(slice(None), dens, p_y)], mass
    w, mu, var = part.weights[wide], part.means[wide], part.variances[wide]
    dens64 = grid_densities(w, mu, var, x)
    mass[wide] = dens64.sum(axis=1) * dx
    p_y64 = grid_densities(w, mu, var, y[wide, None])[:, 0]
    return [(~wide, dens[~wide], p_y[~wide]), (wide, dens64, p_y64)], mass


def _pit_bins(u: np.ndarray) -> np.ndarray:
    """u's bin of PIT_BINS equal bins over [0, 1], as np.histogram bins it."""
    return np.minimum(np.searchsorted(_PIT_EDGES, u, side="right") - 1, PIT_BINS - 1)


class _GridBuffers:
    """The float32 grid of a scoring chunk and the float64 cumulative
    masses, one buffer each, grown to the largest chunk and reused by
    every chunk of an evaluation, since fresh (rows, P) arrays would be
    mapped and faulted in again for each chunk. The grid's scratch is the
    front half of the masses' buffer: it is dead before they are summed."""

    size = 0

    def views(self, shape):
        """(grid, scratch, incl) views of `shape`."""
        n = shape[0] * shape[1]
        if n > self.size:
            self.size = n
            self.grid, self.incl = np.empty(n, np.float32), np.empty(n)
        scratch = self.incl.view(np.float32)[:n]
        return tuple(a[:n].reshape(shape) for a in (self.grid, scratch, self.incl))


def _score_mixtures(mb: MixtureBatch, y: np.ndarray, cfg: ScoringConfig, levels: np.ndarray,
                    sums: _ExactSums, tallies, buffers: _GridBuffers) -> tuple:
    """Score flat mixtures against their targets y (n,): add each element's
    CRPS and point estimate into `sums`, and its selected-cell counts
    (t_f, L), u < level (t_f, L) and HPD-PIT bin (t_f, PIT_BINS) at its
    step, index mod t_f, into the int64 `tallies`. Return how many
    elements keep less than MASS_COMPLETE_MIN of their mass on the grid,
    and how many keep none (their block adds no tallies).

    Work is split by what it needs. Each block of at most _BLOCK_ELEMENTS
    elements in whole steps does the per-element work once: float64 CRPS
    and point errors, the float32 grid inputs and target densities
    (`_f32_inputs`) and the tallies. Only the grid work runs per scoring
    chunk of _SCORE_CELLS elements x grid points: the densities and their
    masses (`_interval_densities`) and the HPD scores, in views of
    `buffers`."""
    lo, hi = cfg.interval_range
    x = np.linspace(lo, hi, cfg.interval_points)
    cells, covered, pit = tallies
    t_f, n_levels = cells.shape
    clipped = empty = 0
    block = t_f * max(1, _BLOCK_ELEMENTS // t_f)
    rows = max(1, _SCORE_CELLS // x.size)
    pit_offset = np.arange(min(block, y.size)) % t_f * PIT_BINS  # each step's first bin
    for start in range(0, y.size, block):
        sl = slice(start, start + block)
        part, y_part = mb[sl], y[sl]
        n = y_part.size
        sums.add(y_part, part.point_estimates(), crps_mixture_batch(part, y_part))
        inputs = _f32_inputs(part, y_part, lo, x)
        on_grid = (y_part >= lo) & (y_part <= hi)
        u, counts = np.empty(n), np.empty((n, n_levels), dtype=np.int64)
        for at in range(0, n, rows):
            c = slice(at, at + rows)
            chunk = (inputs[0], *(a[c] for a in inputs[1:]))  # the grid x32 is shared
            grid, scratch, incl = buffers.views((min(rows, n - at), x.size))
            groups, mass = _interval_densities(part[c], y_part[c], lo, x, chunk, (grid, scratch))
            clipped += int(np.count_nonzero(mass < iv.MASS_COMPLETE_MIN))
            empty += int(np.count_nonzero(mass <= 0.0))
            if empty:
                continue  # nothing to select; evaluate's error counts every miss
            for rows_g, dens, p_y in groups:
                u[c][rows_g], counts[c][rows_g] = iv.hpd_scores(dens, p_y, on_grid[c][rows_g],
                                                                levels, incl[: len(dens)])
        if empty:
            continue
        cells += counts.reshape(-1, t_f, n_levels).sum(axis=0)
        covered += (u.reshape(-1, t_f, 1) < levels).sum(axis=0)
        pit += np.bincount(pit_offset[:n] + _pit_bins(u), minlength=pit.size).reshape(pit.shape)
    return clipped, empty


def evaluate(pairs, scoring: ScoringConfig | None = None,
             meta: dict | None = None) -> EvaluationReport:
    """Score (targets, predictions) chunk pairs.

    Each pair holds targets (..., t_f), with one t_f in every pair, and
    predictions of the same shape: all mixtures (`MixtureBatch`) or all
    point predictions (arrays); a caller holding everything passes one
    pair. Mixtures get CRPS, interval width and coverage at every level,
    plus deterministic scores of their probability-weighted point
    estimates; point predictions get CRPS == absolute error and NaN ("not
    applicable") interval metrics. A ValueError names a pair whose shapes
    disagree or whose t_f differs, pairs without elements, mixtures
    without an interval_range, and how many elements' mixtures put no
    mass on the interval grid.

    Each pair is scored as it arrives and dropped, in blocks of at most
    2**9 elements for the per-element work and chunks of 2**16 //
    interval_points elements for the grid (`_score_mixtures`): CRPS (per
    horizon step) and the point errors go into exact sums (`_ExactSums`),
    so each mean is correctly rounded whatever the blocking, and widths,
    coverage and the HPD-PIT into integer tallies per step. Working memory
    is one pair, one block's per-element arrays and two (2**16)-cell grid
    buffers: 256 KiB of float32 densities and 512 KiB of float64
    cumulative masses.
    """
    cfg = scoring or ScoringConfig()
    levels = np.asarray(cfg.levels, dtype=float)
    sums = tallies = None
    clipped = empty = n = 0
    buffers = _GridBuffers()
    for y, chunk in pairs:
        y = np.asarray(y, dtype=float)
        mixture = isinstance(chunk, MixtureBatch)
        chunk = chunk if mixture else np.asarray(chunk, dtype=float)
        if chunk.shape != y.shape or not y.shape:
            raise ValueError(f"prediction chunk shape {chunk.shape} differs from its "
                             f"targets' {y.shape}, or is not (..., t_f)")
        if mixture and cfg.interval_range is None:
            raise ValueError("interval_range is required to score mixtures")
        if sums is None:
            sums = _ExactSums(y.shape[-1])
            tallies = [np.zeros((sums.t_f, w), np.int64)
                       for w in (levels.size, levels.size, PIT_BINS)] if mixture else None
        elif mixture != (tallies is not None):
            raise ValueError("predictions mix mixtures and point values")
        elif y.shape[-1] != sums.t_f:
            raise ValueError(f"chunk shape {y.shape} has t_f {y.shape[-1]}, the first {sums.t_f}")
        y = y.ravel()
        n += y.size
        if mixture:
            c, e = _score_mixtures(chunk.reshape(y.size), y, cfg, levels, sums, tallies, buffers)
            clipped, empty = clipped + c, empty + e
        else:
            point = chunk.ravel()
            sums.add(y, point, np.abs(point - y))
    if not n:
        raise ValueError("pairs hold no elements: targets must be non-empty (..., t_f) arrays")
    if empty:
        lo, hi = cfg.interval_range
        raise ValueError(
            f"{empty} of {n} elements put no mass on the interval grid [{lo!r}, {hi!r}]"
        )

    t_f, rows = sums.t_f, n // sums.t_f
    crps_mean, crps_by_step, mae, mape, rmse = sums.means(rows)
    avg_width = calib_error = math.nan
    w_step = ce_step = [math.nan] * t_f
    curve, pit, pit_by_step = [], [], []
    if tallies is not None:
        cells, covered, pit_rows = tallies
        x = np.linspace(*cfg.interval_range, cfg.interval_points)
        num, den = float(x[1] - x[0]).as_integer_ratio()  # dx; int / int rounds once
        step_cells = cells.sum(axis=1).tolist()
        coverage = covered.sum(axis=0) / n
        curve = [(float(c), float(v)) for c, v in zip(levels, coverage)]
        avg_width = num * sum(step_cells) / (den * n * levels.size)
        calib_error = float(np.mean(np.abs(coverage - levels)))
        w_step = [num * c / (den * rows * levels.size) for c in step_cells]
        ce_step = np.mean(np.abs(covered / rows - levels), axis=1).tolist()
        pit, pit_by_step = pit_rows.sum(axis=0).tolist(), pit_rows.tolist()
    per_horizon = [(s + 1, crps_by_step[s], w_step[s], ce_step[s]) for s in range(t_f)]
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


# The report's scalar metrics, in file and table order.
SCALARS = ("crps_mean", "avg_width", "calib_error", "mae", "mape", "rmse")


def _fmt(v: float) -> str:
    return "na" if isinstance(v, float) and math.isnan(v) else repr(float(v))


def _parse(s: str) -> float:
    return float("nan") if s == "na" else float(s)


def report_to_text(r: EvaluationReport) -> str:
    lines = ["# evaluation report v1"]
    for k in sorted(r.meta):
        lines.append(f"meta.{k} = {r.meta[k]}")
    for k in SCALARS:
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
    return EvaluationReport(**{k: scalars[k] for k in SCALARS}, per_horizon=per_horizon,
                            calibration_curve=curve, meta=meta)
