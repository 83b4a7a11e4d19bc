"""High-density confidence intervals from a numerical density grid.

The derivation ranks grid cells by density, accumulates their normalized
mass until the requested confidence level is reached, and reads the
selected cells back as one or more sub-intervals (Hyndman's 1996
highest-density regions). Multi-modal densities therefore produce several
disjoint sub-intervals where a quantile-based interval would produce one
wide band.

Selection has one implementation, `hpd_select_batch`, for many grids and
levels at once; `derive_intervals` reads one grid's selection back as an
IntervalSet, and `interval_stats_batch` reduces batch selections to
widths and containment with the same run geometry.

Grids are immutable after construction and every function here is pure,
so evaluation across (location, time) elements can run concurrently.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gmm import MixtureBatch, grid_densities

# Below this pre-normalization mass the grid clips real probability mass
# and the normalized coverage semantics become distorted.
MASS_COMPLETE_MIN = 0.98


@dataclass(frozen=True)
class DensityGrid:
    """Uniformly spaced density evaluations: density[i] at x0 + i*dx."""

    x0: float
    dx: float
    density: np.ndarray

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.ndim != 1 or dens.size < 2:
            raise ValueError(f"density must be 1-D with >= 2 points, got shape {dens.shape}")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if not np.all(np.isfinite(dens)) or np.any(dens < 0):
            raise ValueError("densities must be finite and nonnegative")
        dens = dens.copy()
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)

    @property
    def size(self) -> int:
        return self.density.size

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.size)

    def total_mass(self) -> float:
        """Cell-sum mass (density * dx), the mass notion used throughout."""
        return float(self.density.sum() * self.dx)


@dataclass(frozen=True)
class IntervalSet:
    """Sub-intervals {(lower, upper)} for one confidence level."""

    level: float
    intervals: tuple

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level!r}")
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not ivs:
            raise ValueError("an IntervalSet needs at least one sub-interval")
        prev_hi = -np.inf
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"degenerate sub-interval [{lo!r}, {hi!r}]")
            if lo <= prev_hi:
                raise ValueError("sub-intervals must be sorted and disjoint")
            prev_hi = hi
        object.__setattr__(self, "intervals", ivs)

    @property
    def count(self) -> int:
        return len(self.intervals)


def grid_from_mixture(
    m: MixtureBatch, range_lo: float, range_hi: float, points: int
) -> DensityGrid:
    """One mixture's density (element shape ()) at `points` evenly spaced locations."""
    if m.shape != ():
        raise ValueError(f"expected one mixture (element shape ()), got shape {m.shape}")
    if not range_lo < range_hi:
        raise ValueError(f"degenerate range [{range_lo!r}, {range_hi!r}]")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    x = np.linspace(range_lo, range_hi, points)
    dens = grid_densities(m.weights[None], m.means[None], m.variances[None], x)[0]
    return DensityGrid(x0=float(range_lo), dx=float(x[1] - x[0]), density=dens)


def _runs(mask: np.ndarray):
    """(start, stop) index pairs of maximal runs of True, stop inclusive."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks], [idx[-1]]))
    return list(zip(starts.tolist(), stops.tolist()))


def derive_intervals(g: DensityGrid, c: float) -> IntervalSet:
    """Highest-density sub-intervals covering (at least) mass c.

    The cumulative mass is normalized by its maximum, which silently
    corrects grids that clip distribution tails; a warning is emitted when
    the pre-normalization mass falls below the mass-complete threshold
    since clipped tails distort the coverage semantics.

    Run bounds are the selected grid coordinates themselves. A run of a
    single cell would give lower == upper, which the IntervalSet contract
    forbids, so single-cell runs are widened to the cell footprint
    [x - dx/2, x + dx/2], clipped to the grid range.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {c!r}")
    if g.total_mass() < MASS_COMPLETE_MIN:
        warnings.warn(
            f"grid mass {g.total_mass():.4f} < {MASS_COMPLETE_MIN}: tails are "
            "clipped and normalized coverage may be distorted",
            stacklevel=2,
        )
    mask = hpd_select_batch(g.density[None], [c])[0, 0]
    x = g.points()
    x_end = float(x[-1])
    half = 0.5 * g.dx
    out = []
    for start, stop in _runs(mask):
        if start == stop:
            out.append((max(g.x0, x[start] - half), min(x_end, x[start] + half)))
        else:
            out.append((float(x[start]), float(x[stop])))
    return IntervalSet(level=float(c), intervals=tuple(out))


def hpd_select_batch(density: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Selection masks for many grids and levels at once.

    density: (M, P) nonnegative rows; levels: (L,).
    Returns a boolean array of shape (M, L, P).

    Cells are ranked by descending density with ascending index as the
    stable tiebreaker. A cell is selected at level c iff the normalized
    mass strictly before it in that order is < c, so each selection is the
    fewest cells whose normalized mass reaches c.
    """
    density = np.asarray(density, dtype=float)
    levels = np.asarray(levels, dtype=float)
    order = np.argsort(-density, axis=1, kind="stable")
    ranked = np.take_along_axis(density, order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    total = cum[:, -1]
    if np.any(total <= 0.0):
        raise ValueError("a density grid has no mass to cover")
    before = (cum - ranked) / total[:, None]  # (M, P), sorted order
    # Scatter the before-mass back to grid order once, then compare per
    # level; this keeps the big (M, L, P) array to a single allocation.
    before_grid = np.empty_like(before)
    np.put_along_axis(before_grid, order, before, axis=1)
    return before_grid[:, None, :] < levels[None, :, None]


def interval_stats_batch(mask, x0, dx, y):
    """Per-element width and containment for batch masks.

    mask: (M, L, P) selections; x0, dx: shared grid geometry; y: (M,)
    query values. Returns (width (M, L), contained (M, L) bool) with the
    same geometry as derive_intervals: multi-cell runs span their endpoint
    coordinates, single-cell runs the half-cell footprint clipped to the
    grid range.
    """
    p = mask.shape[2]
    y = np.asarray(y, dtype=float)

    starts = mask.copy()
    starts[:, :, 1:] &= ~mask[:, :, :-1]
    singles = starts.copy()
    singles[:, :, :-1] &= ~mask[:, :, 1:]  # start with an unselected right neighbor

    n_sel = np.count_nonzero(mask, axis=2)
    n_runs = np.count_nonzero(starts, axis=2)
    n_single = np.count_nonzero(singles, axis=2)
    # A run of m cells spans (m-1)*dx; each singleton contributes its
    # footprint instead, clipped at the grid edges.
    width = dx * (n_sel - n_runs + n_single).astype(float)
    edge_clip = 0.5 * dx * (singles[:, :, 0].astype(float) + singles[:, :, -1].astype(float))
    width -= edge_clip

    t = (y - x0) / dx
    inside = (t >= 0.0) & (t <= p - 1)
    # Queries landing (up to float noise) on a grid point are resolved at
    # that point; interior queries need both bracketing cells selected or
    # a singleton footprint reaching them.
    nearest = np.round(t)
    on_point = np.abs(t - nearest) < 1e-9
    jp = np.clip(nearest.astype(int), 0, p - 1)
    j = np.clip(np.floor(t).astype(int), 0, p - 2)
    frac = t - j
    sel_p = np.take_along_axis(mask, jp[:, None, None], axis=2)[:, :, 0]
    sel_j = np.take_along_axis(mask, j[:, None, None], axis=2)[:, :, 0]
    sel_j1 = np.take_along_axis(mask, (j + 1)[:, None, None], axis=2)[:, :, 0]
    sg_j = np.take_along_axis(singles, j[:, None, None], axis=2)[:, :, 0]
    sg_j1 = np.take_along_axis(singles, (j + 1)[:, None, None], axis=2)[:, :, 0]
    contained = np.where(
        on_point[:, None],
        sel_p,
        (sel_j & sel_j1) | (sg_j & (frac[:, None] <= 0.5)) | (sg_j1 & (frac[:, None] >= 0.5)),
    )
    contained &= inside[:, None]

    return width, contained
