"""High-density confidence intervals from a numerical density grid.

Cells are ranked by density and their normalized mass is accumulated
until the requested confidence level is reached (Hyndman's 1996
highest-density regions), so multi-modal densities select several
disjoint sub-intervals. The ranking has one implementation,
`_mass_before`, and each level's selected-cell count one,
`_selected_counts`. `hpd_scores` reduces them to each target's HPD value
u(y), the smallest level whose selection covers y, and each level's
selected-cell count; evaluation reads coverage at level c as mean(u < c)
and a width as the count times the grid spacing, and builds no mask.
`derive_intervals` reads the same counts back as sub-intervals.

Every function here is pure, so evaluation across (location, time)
elements can run concurrently.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Below this pre-normalization mass the grid clips real probability mass
# and the normalized coverage semantics become distorted.
MASS_COMPLETE_MIN = 0.98


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


def _runs(mask: np.ndarray):
    """(start, stop) index pairs of maximal runs of True, stop inclusive."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks], [idx[-1]]))
    return list(zip(starts.tolist(), stops.tolist()))


def derive_intervals(density, x, levels) -> list:
    """Highest-density sub-intervals of (S, P) density rows on one grid x
    (P,) of evenly spaced points: out[s][l] is row s's IntervalSet at
    levels[l].

    Rows need positive mass but no normalization. The level-c selection is
    the first `count` cells, in order of descending density with ascending
    index breaking ties, where `count` is the fewest cells whose
    normalized mass reaches c (`_selected_counts`, the count `hpd_scores`
    returns).

    Run bounds are the selected grid coordinates themselves. A run of a
    single cell would give lower == upper, which the IntervalSet contract
    forbids, so single-cell runs are widened to the cell footprint
    [x - dx/2, x + dx/2], clipped to the grid range.
    """
    density = np.asarray(density)
    x = np.asarray(x, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if x.ndim != 1 or x.size < 2 or density.shape[1:] != x.shape:
        raise ValueError(f"need (S, P) densities on a grid of P >= 2 points, got "
                         f"{density.shape} on {x.shape}")
    if not np.all(np.isfinite(density)) or np.any(density < 0):
        raise ValueError("densities must be finite and nonnegative")
    if levels.ndim != 1 or not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"confidence levels must be in (0, 1), got {levels!r}")
    ranked, incl, total = _mass_before(density.copy())  # rows are read below
    counts = _selected_counts(incl, total, levels)
    half = 0.5 * (x[1] - x[0])
    out = []
    for row, row_ranked, row_counts in zip(density, ranked, counts):
        sets = []
        for c, count in zip(levels, row_counts):
            # Every cell denser than the count-th ranked value, then as
            # many of the cells tied with it, in index order, as the count
            # leaves.
            cut = row_ranked[count - 1]
            mask = row > cut
            mask[np.flatnonzero(row == cut)[: count - np.count_nonzero(mask)]] = True
            ivs = []
            for start, stop in _runs(mask):
                if start == stop:
                    ivs.append((max(x[0], x[start] - half), min(x[-1], x[start] + half)))
                else:
                    ivs.append((x[start], x[stop]))
            sets.append(IntervalSet(level=float(c), intervals=tuple(ivs)))
        out.append(sets)
    return out


def _mass_before(density: np.ndarray, incl=None):
    """Rank (M, P) density rows by descending density and accumulate their
    mass: (ranked, incl, total). ranked[:, j] is the rank-j density, in
    the rows' dtype; incl[:, j] is the float64 mass of ranks 0..j, so the
    mass strictly before rank j is incl[:, j - 1] (0 for j = 0), and
    total = incl[:, -1]; a ValueError if some row has no mass.

    Rows are sorted in place, in their own dtype (tied values are
    interchangeable, so the sort need not be stable); one float64 copy of
    the ranked view, into the (M, P) float64 `incl` when given, takes the
    cumulative sum in place, so a float32 grid loses nothing to
    accumulation.
    """
    density.sort(axis=1)
    ranked = density[:, ::-1]
    if incl is None:
        incl = np.empty(density.shape)
    np.copyto(incl, ranked)
    np.cumsum(incl, axis=1, out=incl)
    total = incl[:, -1]
    if np.any(total <= 0.0):
        raise ValueError("a density grid has no mass to cover")
    return ranked, incl, total


@functools.lru_cache(maxsize=8)
def _lifting_operands(m: int, p: int, levels: tuple):
    """Read-only (M, L) arrays of the levels, each row's first flat index
    and its last, for `_selected_counts` on (m, p) rows; made once per
    chunk shape and level set, since scoring chunks repeat a few shapes."""
    shape = (m, len(levels))
    operands = (np.broadcast_to(np.array(levels), shape).copy(),
                np.broadcast_to((np.arange(m) * p)[:, None], shape).copy())
    operands += (operands[1] + (p - 1),)
    for a in operands:
        a.flags.writeable = False
    return operands


def _selected_counts(incl, total, levels):
    """(M, L) counts of the fewest ranked cells whose normalized mass
    reaches each level, from `_mass_before`'s (incl, total).

    Rank 0 is always selected, and each further rank j iff the mass
    before it, incl[:, j - 1], is below c of the total. incl is
    nondecreasing along a row and its last entry, the total itself, is
    never below, so the count of such j is found for all (M, L) pairs at
    once by binary lifting over flat indices, clamped to the row's last
    entry. Every operand is a full (M, L) array: broadcasting an (M, 1)
    column makes numpy loop row by row. Those that depend only on the
    shape and the levels come from `_lifting_operands`.
    """
    m, p = incl.shape
    flat = incl.ravel()
    levels = tuple(np.asarray(levels, dtype=float).ravel().tolist())
    levels, start, last = _lifting_operands(m, p, levels)
    total = np.broadcast_to(total[:, None], levels.shape).copy()
    pos = start.copy()
    step = 1 << (p - 1).bit_length()
    reach = 0  # the largest offset pos can have reached
    while step := step >> 1:
        idx = pos + (step - 1)
        if reach + step > p:
            np.minimum(idx, last, out=idx)
        pos += step * (np.take(flat, idx) / total < levels)
        reach += step
    return pos - (last - p)


def hpd_scores(density, p_y, on_grid, levels, incl=None):
    """Each target's HPD value u and each level's selected-cell count.

    density: (M, P) rows with positive mass, float32 or float64, sorted
    in place (their order is lost); p_y: (M,) target densities, computed
    like the grid's so that a target on a grid point ties its cell;
    on_grid: (M,) bool; levels: (L,); incl: None or an (M, P) float64
    buffer for the cumulative masses (`_mass_before`). Returns (u (M,)
    float64, counts (M, L) int64). u is the normalized mass of the cells
    denser than the target, so the target lies in the level-c selection
    of `derive_intervals` iff u < c; off the grid u = 1. A width is the
    count times the grid spacing, which exceeds derive_intervals' run
    geometry by at most one spacing per run. Beyond one comparison with
    p_y and `_mass_before`, neither takes a full pass over the grid: u
    reads one accumulated mass per row, and each count is a search in its
    row.
    """
    above = np.count_nonzero(density > p_y[:, None], axis=1)
    incl, total = _mass_before(density, incl)[1:]
    m, p = incl.shape
    u = np.take(incl.ravel(), np.arange(m) * p + np.maximum(above - 1, 0)) / total
    u[above == 0] = 0.0
    u[~on_grid | (above == p)] = 1.0
    return u, _selected_counts(incl, total, levels)
