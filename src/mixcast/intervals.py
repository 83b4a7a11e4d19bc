"""High-density confidence intervals from a numerical density grid.

Cells are ranked by density and their normalized mass is accumulated
until the requested confidence level is reached (Hyndman's 1996
highest-density regions), so multi-modal densities select several
disjoint sub-intervals. The ranking has one implementation,
`_mass_before`, and each level's selection one, `_selected_cells`: the
fewest ranked cells whose mass reaches the level, and its width in grid
spacings to second order, each cell over its footprint clipped to the
grid (half a spacing at either end), the last one only for the part of
its mass still needed. `hpd_scores` reduces them to each target's HPD value
u(y), the mass where the grid density, interpolated between grid points
(by a quadratic where it crosses the target's), exceeds the target's,
and each level's width;
evaluation reads coverage at level c as mean(u < c) and a width as the
cell width times the grid spacing, and builds no mask.
`derive_intervals` reads the same selections back as sub-intervals whose
lengths sum to those widths.

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


def _footprints(row, mask, x, last, cut):
    """Sub-intervals of one row's selected cells `mask`: each run spans
    its cells' footprints [x - dx/2, x + dx/2], clipped to the grid, less
    a length `cut` of the footprint of the cell `last`, taken from the
    edge it shares with no selected neighbour: from both edges equally
    for a singleton, and inside a run from its sparser neighbour's."""
    half = 0.5 * (x[1] - x[0])
    ivs = []
    for a, b in _runs(mask):
        lo, hi = max(x[a] - half, x[0]), min(x[b] + half, x[-1])
        if not a <= last <= b:
            ivs.append((lo, hi))
        elif a == b:
            ivs.append((lo + cut / 2, hi - cut / 2))
        else:
            if last == b or (last > a and row[last - 1] >= row[last + 1]):
                gap_hi = min(x[last] + half, x[-1])
                gap_lo = gap_hi - cut
            else:
                gap_lo = max(x[last] - half, x[0])
                gap_hi = gap_lo + cut
            ivs += [(lo, gap_lo), (gap_hi, hi)] if gap_lo < gap_hi else [(lo, hi)]
    return [(lo, hi) for lo, hi in ivs if lo < hi]


def derive_intervals(density, x, levels) -> list:
    """Highest-density sub-intervals of (S, P) density rows on one grid x
    (P,) of evenly spaced points: out[s][l] is row s's IntervalSet at
    levels[l].

    Rows need positive mass but no normalization. The level-c selection is
    the first `count` cells, in order of descending density with ascending
    index breaking ties, where `count` is the fewest cells whose
    normalized mass reaches c (`_selected_cells`, which `hpd_scores` uses
    too). Each selected cell stands for its footprint [x - dx/2, x + dx/2]
    clipped to the grid, and the count-th keeps only the share of it that
    its mass still needed to reach c, next to its denser selected
    neighbour (`_footprints`). A row's sub-interval lengths then sum to
    its width at c, `_selected_cells`' fractional cell count times dx,
    within rounding, and lie within [x[0], x[-1]].
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
    ends = density[:, [0, -1]]
    ranked, incl, total = _mass_before(density.copy())  # rows are read below
    counts, cells = _selected_cells(ranked, incl, total, levels, ends)
    dx = x[1] - x[0]
    out = []
    for row, row_ranked, row_counts, row_cells in zip(density, ranked, counts, cells):
        sets = []
        for c, count, width in zip(levels, row_counts.tolist(), row_cells.tolist()):
            # Every cell denser than the count-th ranked value, then as
            # many of the cells tied with it, in index order, as the count
            # leaves; the last of those is the count-th.
            cut = row_ranked[count - 1]
            mask = row > cut
            ties = np.flatnonzero(row == cut)[: count - np.count_nonzero(mask)]
            mask[ties] = True
            # The selection's footprints, in spacings, less its width.
            unused = max(count - 0.5 * (int(mask[0]) + int(mask[-1])) - width, 0.0)
            ivs = _footprints(row, mask, x, int(ties[-1]), unused * dx)
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
    and its last, for `_selected_cells` on (m, p) rows; made once per
    chunk shape and level set, since scoring chunks repeat a few shapes."""
    shape = (m, len(levels))
    operands = (np.broadcast_to(np.array(levels), shape).copy(),
                np.broadcast_to((np.arange(m) * p)[:, None], shape).copy())
    operands += (operands[1] + (p - 1),)
    for a in operands:
        a.flags.writeable = False
    return operands


def _selected_cells(ranked, incl, total, levels, ends):
    """(counts, cells), both (M, L), from `_mass_before`'s (ranked, incl,
    total) and the rows' (M, 2) end densities `ends`, density[:, [0, -1]]:
    counts are the fewest ranked cells whose normalized mass reaches each
    level c, and cells the width of that selection in grid spacings,
    second order in the spacing: the first count - 1 cells whole, and the
    count-th only for the part of its mass still needed,
    (c total - incl[:, count - 2]) / ranked[:, count - 1], clipped to
    [0, 1] (taken over the normalized masses). The grid's end cells span
    half a spacing, as their footprints stop at the grid and as u's
    trapezoid weighs them, so a selected end cell counts half, and half
    its share when it is the count-th. Cells tied with the count-th are
    selected in index order, so the first end is the count-th iff it is
    the only tie selected, and the last end iff every tie is.

    Rank 0 is always selected, and each further rank j iff the mass
    before it, incl[:, j - 1], is below c of the total. incl is
    nondecreasing along a row and its last entry, the total itself, is
    never below, so the count of such j is found for all (M, L) pairs at
    once by binary lifting over flat indices, clamped to the row's last
    entry; the count-th cell's mass is then positive. Every operand of
    the search is a full (M, L) array: broadcasting an (M, 1) column makes
    numpy loop row by row. Those that depend only on the shape and the
    levels come from `_lifting_operands`.
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
    # pos is now the flat index of the count-th cell's cumulative mass.
    # Normalized as in the search, so the share is positive where the
    # count-th cell is selected, and a subnormal grid loses nothing.
    share = np.take(flat, pos - 1)
    share[pos == start] = 0.0
    share /= total
    np.subtract(levels, share, out=share)
    pos -= start  # the count-th cell's rank
    asc = ranked[:, ::-1].ravel()  # rows sorted ascending
    at = last - pos
    cell = np.take(asc, at)
    share /= np.divide(cell, total, out=total)
    np.clip(share, 0.0, 1.0, out=share)
    # Only the few (row, level) pairs that select an end cell count it
    # short; the rest add their whole cells.
    near = (ends[:, :1] >= cell) | (ends[:, 1:] >= cell)
    np.add(share, pos, out=share, where=~near)
    i, j = np.nonzero(near)
    if i.size:
        c, rank, k = cell[i, j], pos[i, j], at[i, j]
        first, final = ends[i, 0], ends[i, 1]
        alone = (rank == 0) | (asc[np.minimum(k + 1, last[i, j])] > c)
        every = (rank == p - 1) | (asc[np.maximum(k - 1, start[i, j])] < c)
        whole = (first > c).astype(float) + (final > c) + ((first == c) & ~alone)
        partial = ((first == c) & alone) | ((final == c) & every)
        share[i, j] = share[i, j] * (1.0 - 0.5 * partial) + (rank - 0.5 * whole)
    return pos + 1, share


def hpd_scores(density, p_y, on_grid, levels, incl=None):
    """Each target's HPD value u and each level's width in grid spacings.

    density: (M, P) rows with positive mass on P >= 2 evenly spaced
    points, float32 or float64, sorted in place (their order is lost);
    p_y: (M,)
    target densities, computed like the grid's so that a target on a grid
    point ties its cell; on_grid: (M,) bool; levels: (L,); incl: None or
    an (M, P) float64 buffer for the cumulative masses (`_mass_before`),
    whose bytes hold this pass's flags until then. Returns (u (M,)
    float64, cells (M, L) float64), the widths of `_selected_cells`.

    u is the mass where the density, interpolated between grid points,
    exceeds p(y), over the interpolated total (the trapezoid sum), clipped
    to [0, 1], so the target lies in a level-c region iff u < c; off the
    grid u = 1. That is the cell sum of the grid points denser than the
    target, the grid's end points at half weight, plus a term for each
    grid interval whose end densities hi > p(y) >= lo straddle the
    target's. There the quadratic
    through lo, hi and the density beyond hi (2 hi - lo past a grid end)
    places the crossing a share s of the interval from hi and gives the mass
    above it, less the hi / 2 the cell sum gave the interval, plus the
    trapezoid's end correction (Euler-Maclaurin) of the run that ends at
    hi. Linear interpolation alone would bias u by about -r**2 phi(z) /
    (6 z) for a Gaussian (r = dx / sd, z sd out), enough to move coverage
    at 256 points by more than a whole-cell rule at 500. Beyond the
    comparisons with p_y and `_mass_before`, nothing takes a full pass
    over the grid: u reads one accumulated mass and the crossing
    intervals per row, and each width is a search in its row.
    """
    m, p = density.shape
    if incl is None:
        incl = np.empty(density.shape)
    flags = incl.reshape(-1).view(np.bool_)
    above = np.greater(density, p_y[:, None], out=flags[: m * p].reshape(m, p))
    cross = np.not_equal(above[:, 1:], above[:, :-1],
                         out=flags[m * p : m * (2 * p - 1)].reshape(m, p - 1))
    count = np.count_nonzero(above, axis=1)
    ends = density[:, [0, -1]].astype(np.float64)
    ends_above = np.sum(ends * above[:, [0, -1]], axis=1)
    rows, at = np.divmod(np.flatnonzero(cross), p - 1)
    inner = at + (density[rows, at] <= density[rows, at + 1])  # the end above p(y)
    outer = 2 * at + 1 - inner
    beyond = 2 * inner - outer
    hi, lo, far = (density[rows, np.clip(i, 0, p - 1)].astype(np.float64)
                   for i in (inner, outer, beyond))
    far = np.where(beyond == np.clip(beyond, 0, p - 1), far, 2.0 * hi - lo)
    t = p_y[rows].astype(np.float64)
    slope, bend = 0.5 * (lo - far), 0.5 * (lo + far) - hi  # q(s) = hi + slope s + bend s**2
    root = np.sqrt(np.maximum(slope * slope - 4.0 * (hi - t) * bend, 0.0))
    # q's first crossing of p(y), in the form free of cancellation: bend < 0
    # where slope > 0, and a denominator that underflows gives share 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(slope > 0, (slope + root) / (-2.0 * bend), 2.0 * (hi - t) / (root - slope))
    np.clip(share, 0.0, 1.0, out=share)
    mass = share * (hi + share * (slope / 2 + share * bend / 3)) - hi / 2 + (far - lo) / 24
    crossed = np.bincount(rows, weights=mass, minlength=m)
    ranked, incl, total = _mass_before(density, incl)
    u = np.take(incl.ravel(), np.arange(m) * p + np.maximum(count - 1, 0))
    u[count == 0] = 0.0
    u -= 0.5 * ends_above
    u += crossed
    u /= total - 0.5 * ends.sum(axis=1)
    np.clip(u, 0.0, 1.0, out=u)
    u[~on_grid] = 1.0
    return u, _selected_cells(ranked, incl, total, levels, ends)[1]
