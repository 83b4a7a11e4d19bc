"""High-density confidence intervals from a numerical density grid.

Cells are ranked by density and their normalized mass is accumulated
until the requested confidence level is reached (Hyndman's 1996
highest-density regions), so multi-modal densities select several
disjoint sub-intervals. The ranking has one implementation,
`_mass_before`. `hpd_select_batch` turns it into (M, L, P) masks, which
`derive_intervals` reads back as one grid's sub-intervals; `hpd_scores`
reduces it to each target's HPD value u(y), the smallest level whose
selection covers y, and each level's selected-cell count. Evaluation
reads coverage at level c as mean(u < c) and builds no mask.

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


def _mass_before(density: np.ndarray):
    """Rank (M, P) density rows by descending density and accumulate their
    mass: (incl, total). incl[:, j] is the float64 mass of ranks 0..j, so
    the mass strictly before rank j is incl[:, j - 1] (0 for j = 0), and
    total = incl[:, -1]; a ValueError if some row has no mass.

    Rows are sorted in their own dtype (tied values are interchangeable,
    so the sort need not be stable); one float64 copy of the ranked rows
    then takes the cumulative sum in place, so a float32 grid loses
    nothing to accumulation.
    """
    incl = np.array(np.sort(density, axis=1)[:, ::-1], dtype=np.float64)
    np.cumsum(incl, axis=1, out=incl)
    total = incl[:, -1]
    if np.any(total <= 0.0):
        raise ValueError("a density grid has no mass to cover")
    return incl, total


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
    order = np.argsort(-density, axis=1, kind="stable")
    incl, total = _mass_before(density)
    before = np.zeros_like(incl)
    np.divide(incl[:, :-1], total[:, None], out=before[:, 1:])
    # Scatter the before-mass back to grid order once, then compare per
    # level; this keeps the big (M, L, P) array to a single allocation.
    before_grid = np.empty_like(before)
    np.put_along_axis(before_grid, order, before, axis=1)
    return before_grid[:, None, :] < np.asarray(levels, dtype=float)[None, :, None]


def hpd_scores(density, dx, p_y, on_grid, levels):
    """Each target's HPD value u and each level's HPD width, mask-free.

    density: (M, P) rows with positive mass, float32 or float64; p_y: (M,)
    target densities, computed like the grid's so that a target on a grid
    point ties its cell; on_grid: (M,) bool; levels: (L,). Returns
    (u (M,), width (M, L)), both float64. u is the normalized mass of the
    cells denser than the target, so the target lies in the level-c
    selection of `hpd_select_batch` iff u < c; off the grid u = 1. The
    width is the selected-cell count times dx, the same count as
    `hpd_select_batch`'s, which exceeds derive_intervals' run geometry by
    at most dx per run. Beyond `_mass_before` and one comparison with p_y,
    neither takes a full pass over the grid: u reads one accumulated mass
    per row, and each count is a search in its row.
    """
    incl, total = _mass_before(density)
    m, p = incl.shape
    flat = incl.ravel()
    base = np.arange(m) * p
    above = np.count_nonzero(density > p_y[:, None], axis=1)
    u = np.take(flat, base + np.maximum(above - 1, 0)) / total
    u[above == 0] = 0.0
    u[~on_grid | (above == p)] = 1.0
    # Rank 0 is always selected, and each further rank j iff the mass
    # before it, incl[:, j - 1], is below c of the total. incl is
    # nondecreasing along a row and its last entry, the total itself, is
    # never below, so the count of such j is found for all (M, L) pairs at
    # once by binary lifting over flat indices, clamped to the row's last
    # entry. Every operand is a full (M, L) array: broadcasting an (M, 1)
    # column makes numpy loop row by row.
    shape = (m, np.size(levels))
    levels = np.broadcast_to(np.asarray(levels, dtype=float), shape).copy()
    total = np.broadcast_to(total[:, None], shape).copy()
    pos = np.broadcast_to(base[:, None], shape).copy()
    last = pos + (p - 1)
    step = 1 << (p - 1).bit_length()
    reach = 0  # the largest offset pos can have reached
    while step := step >> 1:
        idx = pos + (step - 1)
        if reach + step > p:
            np.minimum(idx, last, out=idx)
        pos += step * (np.take(flat, idx) / total < levels)
        reach += step
    return u, dx * (pos - (last - p))
