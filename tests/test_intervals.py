"""Tests for high-density interval derivation from density grids."""

import itertools

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from mixcast import intervals as iv
from mixcast.gmm import MixtureBatch, grid_densities

LEVELS = np.round(np.arange(0.50, 0.951, 0.05), 10)


def std_normal_grid(points=2001, lo=-6.0, hi=6.0):
    return oracles.mixture_grid(MixtureBatch([1.0], [0.0], [1.0]), lo, hi, points)


def one_set(density, x, c):
    """derive_intervals for one row and one level."""
    return iv.derive_intervals(np.asarray(density)[None], x, [c])[0][0]


def selected(density, c):
    """The cells the kernel's count selects in one row: the first `count`
    in order of descending density, ascending index breaking ties."""
    ranked, incl, total = iv._mass_before(np.array([density]))
    count = iv._selected_cells(ranked, incl, total, [c], density[None, [0, -1]])[0][0, 0]
    mask = np.zeros(density.size, dtype=bool)
    mask[np.argsort(-density, kind="stable")[:count]] = True
    return mask


def assert_covers_selection(s, x, row, mask):
    """The grid points inside s are the cells of `mask`, but for its last
    cell in ranked order, which keeps only part of its footprint and may
    leave its own point out."""
    covered = oracles.covered_cells(s, x)
    last = oracles.last_selected(row, mask)
    assert np.array_equal(covered | last, mask)


class TestDensityGrid:
    """Density grids as evaluation builds them: `grid_densities` at evenly
    spaced points."""

    def test_grid_geometry_and_peak(self):
        x, dens = std_normal_grid(points=500)
        assert x[1] - x[0] == pytest.approx(12.0 / 499)
        peak = dens.max()
        assert peak == pytest.approx(norm.pdf(x[np.argmax(dens)]), abs=1e-12)
        assert peak == pytest.approx(0.3989, abs=1e-3)

    def test_densities_nonnegative(self):
        m = MixtureBatch([0.25] * 4, [-6.0, -2.0, 2.0, 6.0], [4.0] * 4)
        _, dens = oracles.mixture_grid(m, -20, 20, 300)
        assert np.all(dens >= 0)

    def test_speed_grid_spacing(self):
        # 500 points across a 0..70 range, 70/499 apart: a run spans its
        # cells' footprints, one end on a cell boundary, the other inside
        # the last cell; its length is the exact width to second order.
        x, dens = oracles.mixture_grid(MixtureBatch([1.0], [35.0], [25.0]), 0.0, 70.0, 500)
        dx = 70.0 / 499
        s = one_set(dens, x, 0.95)
        assert s.count == 1
        lo, hi = s.intervals[0]
        assert min(np.abs(x - (lo + dx / 2)).min(), np.abs(x - (hi - dx / 2)).min()) < 1e-12
        half = 5.0 * norm.ppf(0.975)
        assert hi - lo == pytest.approx(2 * half, abs=0.4 * dx * dx / 5.0)
        assert lo == pytest.approx(35.0 - half, abs=dx)

    def test_degenerate_range_rejected(self):
        x, dens = std_normal_grid(points=101)
        with pytest.raises(ValueError, match="P >= 2"):
            iv.derive_intervals(dens[None, :1], x[:1], [0.5])
        with pytest.raises(ValueError, match="P >= 2"):
            iv.derive_intervals(dens[None, :-1], x, [0.5])
        # One row is still an (S, P) array.
        with pytest.raises(ValueError, match="P >= 2"):
            iv.derive_intervals(dens, x, [0.5])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            iv.derive_intervals(-dens[None], x, [0.5])

    def test_mass_complete_flag(self):
        x, dens = std_normal_grid()
        assert oracles.is_mass_complete(dens, x[1] - x[0])
        x, dens = std_normal_grid(lo=-1.0, hi=1.0)
        assert not oracles.is_mass_complete(dens, x[1] - x[0])


class TestDeriveIntervals:
    def test_standard_normal_95(self):
        x, dens = std_normal_grid()
        s = one_set(dens, x, 0.95)
        assert s.count == 1
        lo, hi = s.intervals[0]
        assert lo == pytest.approx(-1.959964, abs=x[1] - x[0])
        assert hi == pytest.approx(1.959964, abs=x[1] - x[0])

    def test_separated_bimodal_two_subintervals(self):
        m = MixtureBatch([0.5, 0.5], [-3.0, 3.0], [0.25, 0.25])
        x, dens = oracles.mixture_grid(m, -6.0, 6.0, 2001)
        dx = x[1] - x[0]
        s = one_set(dens, x, 0.9)
        assert s.count == 2
        (l1, u1), (l2, u2) = s.intervals
        # Symmetric about 0, each sub-interval ~ mu_k +- 0.5 * 1.645.
        assert l1 == pytest.approx(-u2, abs=dx)
        assert u1 == pytest.approx(-l2, abs=dx)
        half = 0.5 * norm.ppf(0.95)
        assert l2 == pytest.approx(3.0 - half, abs=2 * dx)
        assert u2 == pytest.approx(3.0 + half, abs=2 * dx)

    def test_unimodal_half_level_contains_mode(self):
        x, dens = std_normal_grid(points=801)
        s = one_set(dens, x, 0.5)
        assert s.count == 1
        assert oracles.contains(s, float(x[np.argmax(dens)]))

    def test_level_validation(self):
        x, dens = std_normal_grid(points=101)
        for c in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(ValueError, match="levels must be in"):
                iv.derive_intervals(dens[None], x, [0.5, c])

    def test_all_zero_density_rejected(self):
        dens = np.ones((2, 10))
        dens[1] = 0.0
        with pytest.raises(ValueError, match="no mass"):
            iv.derive_intervals(dens, np.arange(10.0), [0.5])

    def test_singleton_run_widened_to_cell_footprint(self):
        # One dominant cell: the 0.5-level set is that single cell, which
        # keeps the middle 0.52 of its footprint: 5.2 of the 10.4 total
        # mass is needed, and the cell holds 10.
        x = np.arange(5.0)
        s = one_set(np.array([0.1, 0.1, 10.0, 0.1, 0.1]), x, 0.5)
        assert np.allclose(s.intervals, [(2.0 - 0.26, 2.0 + 0.26)], rtol=0, atol=1e-15)
        assert oracles.contains(s, 2.0)
        assert not oracles.contains(s, 3.0)
        # At a grid edge the footprint is clipped to the grid range, half
        # a spacing, and the cell keeps the middle 0.52 of that.
        s = one_set(np.array([10.0, 0.1, 0.1, 0.1, 0.1]), x, 0.5)
        assert np.allclose(s.intervals, [(0.12, 0.38)], rtol=0, atol=1e-15)

    def test_deterministic_under_ties(self):
        dens = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 0.5])
        x = np.arange(6.0)
        a = one_set(dens, x, 0.6)
        b = one_set(dens, x, 0.6)
        assert a.intervals == b.intervals
        # Tied cells enter in index order: at 0.4, cells 1 and 2, not 4;
        # cell 2 keeps the 0.7 of its footprint next to cell 1 (3.4 of the
        # 8.5 total mass is needed, cell 1 holds 2 and cell 2 another 2).
        assert np.allclose(one_set(dens, x, 0.4).intervals, [(0.5, 2.2)], rtol=0, atol=1e-15)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 40)),
               elements=st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 10.0))),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10),
    )
    def test_selects_the_oracle_masks_cells(self, density, levels):
        # Rows are unnormalized and full of ties; levels come in any order.
        # Each set lies on the grid, and its lengths sum to the selection's
        # width, end cells and the last cell in part included.
        assume(np.all(density.sum(axis=1) > 0))
        x = np.arange(density.shape[1], dtype=float)
        sets = iv.derive_intervals(density, x, levels)
        masks = oracles.hpd_select_batch(density, levels)
        widths = oracles.selection_widths(density, levels)
        assert len(sets) == len(density)
        for row, row_sets, row_masks, row_widths in zip(density, sets, masks, widths):
            assert [s.level for s in row_sets] == levels
            for s, mask, width in zip(row_sets, row_masks, row_widths):
                assert_covers_selection(s, x, row, mask)
                assert x[0] <= s.intervals[0][0] and s.intervals[-1][1] <= x[-1]
                assert oracles.interval_width(s) == pytest.approx(width, rel=0, abs=1e-12)


class TestMassCoverage:
    def test_mass_within_bound_all_levels(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            w = rng.random(k) + 0.1
            w /= w.sum()
            m = MixtureBatch(w, rng.uniform(-4, 4, k), rng.uniform(0.1, 1.5, k))
            x, dens = oracles.mixture_grid(m, -12, 12, 1001)
            assert oracles.is_mass_complete(dens, x[1] - x[0])
            cell = (dens / dens.sum()).max()
            for c in LEVELS:
                mass = oracles.selection_mass(dens, c)
                assert c <= mass <= c + cell + 1e-12

    def test_nesting_and_width_monotone(self):
        m = MixtureBatch([0.4, 0.6], [-2.5, 2.0], [0.3, 0.8])
        x, dens = oracles.mixture_grid(m, -10, 10, 1501)
        sets = iv.derive_intervals(dens[None], x, LEVELS)[0]
        masks = [oracles.covered_cells(s, x) for s in sets]
        widths = [oracles.interval_width(s) for s in sets]
        for prev_mask, mask in zip(masks, masks[1:]):
            assert np.all(mask[prev_mask])  # cell-wise containment
        assert np.all(np.diff(widths) >= -1e-12)

    def test_subinterval_count_bounded_by_components(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            # Means separated by > 6 * sigma_max.
            sig = rng.uniform(0.1, 0.4, k)
            smax = sig.max()
            mu = np.cumsum(rng.uniform(6.5, 9.0, k) * smax)
            w = rng.random(k) + 0.2
            w /= w.sum()
            m = MixtureBatch(w, mu, sig**2)
            x, dens = oracles.mixture_grid(m, mu.min() - 8 * smax, mu.max() + 8 * smax, 3001)
            for s in iv.derive_intervals(dens[None], x, LEVELS)[0]:
                assert s.count <= k


class TestHPDOptimality:
    """The selected cells reach mass >= c with the fewest cells possible."""

    def test_exhaustive_small_grids(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = int(rng.integers(4, 13))
            dens = rng.random(p) * rng.choice([0.2, 1.0, 5.0], p)
            c = float(rng.uniform(0.2, 0.9))
            mask = selected(dens, c)
            n_sel = int(mask.sum())
            total = dens.sum()
            assert dens[mask].sum() / total >= c - 1e-12
            # No subset of fewer cells reaches c (full enumeration).
            cells = list(range(p))
            for size in range(1, n_sel):
                best = max(
                    sum(dens[list(sub)]) for sub in itertools.combinations(cells, size)
                )
                assert best / total < c

    def test_greedy_bound_fifty_cells(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dens = rng.random(50)
            c = float(rng.uniform(0.3, 0.95))
            n_sel = int(selected(dens, c).sum())
            ranked = np.sort(dens)[::-1]
            total = dens.sum()
            # The top-j cells dominate every j-subset by mass, so checking
            # them is equivalent to exhausting all subsets.
            for size in range(1, n_sel):
                assert ranked[:size].sum() / total < c


class TestIntervalSetOps:
    def test_width_single(self):
        s = iv.IntervalSet(0.95, ((-1.96, 1.96),))
        assert oracles.interval_width(s) == pytest.approx(3.92)

    def test_width_two_subintervals(self):
        s = iv.IntervalSet(0.9, ((-3.8, -2.2), (2.2, 3.8)))
        assert oracles.interval_width(s) == pytest.approx(3.2)

    def test_degenerate_interval_not_constructible(self):
        with pytest.raises(ValueError):
            iv.IntervalSet(0.9, ((1.0, 1.0),))

    def test_contains_gap_and_boundary(self):
        s = iv.IntervalSet(0.8, ((-2.0, -1.0), (1.0, 2.0)))
        assert not oracles.contains(s, 0.0)
        assert oracles.contains(s, 1.0)
        assert oracles.contains(s, -2.0)
        assert not oracles.contains(s, 5.0)
        s95 = iv.IntervalSet(0.95, ((-1.96, 1.96),))
        assert not oracles.contains(s95, 5.0)

    def test_unsorted_subintervals_rejected(self):
        with pytest.raises(ValueError):
            iv.IntervalSet(0.9, ((1.0, 2.0), (-2.0, -1.0)))


def gaussian_budget(weights, means, sds, dx, z, lo, hi):
    """The error budget of u for a mixture of well separated components on
    a grid over [lo, hi], components on the last axis: sum_k w_k b(r_k,
    z_k) + q / (1 - q), with r_k = dx / sd_k, z_k how many sd from its
    mean component k crosses the target's density, and q the mixture's
    mass outside [lo, hi]. Beyond two cells of the mode b = r**3 / (8 z):
    the quadratic through each crossing places it to third order, and the
    trapezoid's end correction leaves the interior mass fourth order.
    Within them b = min(phi(0) r + r**2, r**2 / (4 z)): the grid point
    nearest the mode can sit under the target's density, so u can miss up
    to about p(y) dx, first order, but no level of interest lies there.
    The last term is the range's: u normalizes by the mass on the grid,
    so against the closed form, whose mass is all of the line's, it reads
    the region's mass over 1 - q (5e-8 of it at sd 1.5, 5.3 sd inside
    the grid's end)."""
    weights, means, sds = (np.asarray(a, dtype=float) for a in (weights, means, sds))
    r = dx / sds
    z = np.asarray(z)
    with np.errstate(divide="ignore"):
        near = np.minimum(norm.pdf(0.0) * r + r**2, r**2 / (4 * z))
        far = r**3 / (8 * z)
    q = np.sum(weights * (norm.cdf((lo - means) / sds) + norm.sf((hi - means) / sds)), axis=-1)
    return np.sum(weights * np.where(z > 2 * r, far, near), axis=-1) + q / (1 - q)


class TestHPDScores:
    def test_single_gaussian_against_closed_form(self):
        """For N(mu, s^2) the HPD value is U = 2 Phi(|y - mu| / s) - 1 and
        the HPD width W = 2 s Phi^-1((1 + c) / 2). With r = dx / s <= 0.5:

        - |u - U| <= r^3 / (8 z), z = |y - mu| / s, beyond two cells of
          the mode, and min(phi(0) r + r^2, r^2 / (4 z)) within them,
          plus q / (1 - q) for the mass q outside the grid
          (`gaussian_budget`): first order only next to the mode, where no
          level of interest lies; measured at most 0.57 of it beyond and
          0.87 within.
        - |width - W| <= 0.4 r dx: the selection's mass reaches c exactly,
          its last cell counted in part, and the cells' midpoint sums and
          the boundary cells' densities err by order r dx; measured at
          most 0.33 r dx.
        """
        rng = np.random.default_rng(5)
        for points, sd_lo in ((2001, 0.05), (501, 0.1), (129, 0.4)):
            n = 2000
            mu = rng.uniform(-2.0, 2.0, n)
            sd = rng.uniform(sd_lo, 1.5, n)
            y = mu + sd * rng.uniform(-3.0, 3.0, n)
            x = np.linspace(-10.0, 10.0, points)
            y[: n // 4] = x[rng.integers(0, points, n // 4)]  # exactly on grid points
            y[n // 4 : n // 2] = mu[n // 4 : n // 2] + rng.uniform(-1.0, 1.0, n // 4) * (x[1] - x[0])
            mb = MixtureBatch(np.ones((n, 1)), mu[:, None], (sd**2)[:, None])
            u, cells, dx = oracles.hpd_scores_on_grid(mb, y, -10.0, 10.0, points, LEVELS)
            r = dx / sd
            assert r.max() <= 0.5
            z = np.abs(y - mu) / sd
            exact_u = 2.0 * norm.cdf(z) - 1.0
            budget = gaussian_budget(1.0, mu[:, None], sd[:, None], dx, z[:, None], -10.0, 10.0)
            assert np.all(np.abs(u - exact_u) <= budget + 1e-12)
            gap = dx * cells - 2.0 * sd[:, None] * norm.ppf((1.0 + LEVELS) / 2.0)
            assert np.all(np.abs(gap) <= 0.4 * (r * dx)[:, None] + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(0.32, 1.5), st.floats(-3.5, 3.5), st.booleans(),
           st.sampled_from([129, 256, 501, 2001]))
    def test_single_gaussian_property(self, mu, sd, z, on_point, points):
        # One N(mu, sd^2) on a grid of [-10, 10] with r = dx / sd <= 0.5,
        # its target z sd from the mean or on the nearest grid point: u
        # and the width at every level against the closed forms within
        # the second-order budgets above.
        x = np.linspace(-10.0, 10.0, points)
        dx = x[1] - x[0]
        y = mu + z * sd
        if on_point:
            y = x[np.argmin(np.abs(x - y))]
        mb = MixtureBatch(np.ones((1, 1)), np.array([[mu]]), np.array([[sd * sd]]))
        u, cells, _ = oracles.hpd_scores_on_grid(mb, np.array([y]), -10.0, 10.0, points, LEVELS)
        exact_u = 2.0 * norm.cdf(abs(y - mu) / sd) - 1.0
        budget = gaussian_budget(1.0, [mu], [sd], dx, [abs(y - mu) / sd], -10.0, 10.0)
        assert abs(u[0] - exact_u) <= budget + 1e-12
        gap = dx * cells[0] - 2.0 * sd * norm.ppf((1.0 + LEVELS) / 2.0)
        assert np.all(np.abs(gap) <= 0.4 * dx * dx / sd + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 0.8), st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)),
           st.floats(8.0, 10.0), st.floats(-1.0, 1.0), st.integers(0, 1), st.floats(-3.0, 3.0),
           st.booleans(), st.sampled_from([129, 256, 501]))
    def test_separated_two_component_mixture(self, w0, sds, apart, centre, k, z, on_point,
                                             points):
        # Two components 8 to 10 of the larger sd apart on [-16, 16], the
        # target z sd from one mean or on the nearest grid point: u and the
        # widths against the exact HPD region (scipy roots of the density,
        # `oracles.separated_hpd`), within the single Gaussian's budgets
        # summed over the components (measured at most 0.70 of the u
        # budget and 0.26 r dx of the width's).
        lo, hi = -16.0, 16.0
        sd = np.array(sds)
        mu = centre + np.array([-apart, apart]) * sd.max() / 2
        x = np.linspace(lo, hi, points)
        dx = x[1] - x[0]
        w = np.array([w0, 1.0 - w0])
        y = mu[k] + z * sd[k]
        if on_point:
            y = x[np.argmin(np.abs(x - y))]
        mb = MixtureBatch(w, mu, sd**2)
        levels = np.array([0.5, 0.8, 0.95])
        u, cells, _ = oracles.hpd_scores_on_grid(mb[None], np.array([y]), lo, hi, points, levels)
        t = float(np.exp(oracles.log_density(mb, y)))
        exact_u = oracles.separated_hpd(mb, None, t)[1]
        z_k = np.sqrt(np.maximum(0.0, 2 * np.log(w / (sd * np.sqrt(2 * np.pi) * t))))
        assert abs(u[0] - exact_u) <= gaussian_budget(w, mu, sd, dx, z_k, lo, hi) + 1e-12
        for c, width in zip(levels, dx * cells[0]):
            exact = sum(b - a for a, b in oracles.separated_hpd(mb, c)[0])
            assert abs(width - exact) <= 0.4 * dx * np.sum(dx / sd) + 1e-12

    def test_width_equals_derive_intervals_length(self):
        # derive_intervals places each row's sub-intervals so their lengths
        # sum to the kernel's width at every level, within rounding; both
        # read one ranking, so the width lies within the oracle mask's cell
        # count, above its count less one.
        rng = np.random.default_rng(41)
        lo, hi, points = -9.0, 9.0, 601
        n = 40
        k = 3
        w = rng.random((n, k)) + 0.1
        w[: n // 2, 2] = 0.0  # some two-component mixtures
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-4, 4, (n, k)), rng.uniform(0.05, 1.0, (n, k)))
        _, cells, dx = oracles.hpd_scores_on_grid(mb, rng.uniform(-5, 5, n), lo, hi, points, LEVELS)
        x = np.linspace(lo, hi, points)
        dens = grid_densities(mb.weights, mb.means, mb.variances, x)
        counts = oracles.hpd_select_batch(dens, LEVELS).sum(axis=2)
        assert np.all((counts - 1 <= cells) & (cells <= counts))
        assert np.allclose(cells, oracles.selection_widths(dens, LEVELS), rtol=0, atol=1e-9)
        for row_cells, sets in zip(cells, iv.derive_intervals(dens, x, LEVELS)):
            for width, s in zip(row_cells, sets):
                assert oracles.interval_width(s) == pytest.approx(width * dx, rel=0, abs=1e-12)

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=60).filter(lambda d: sum(d) > 0),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10, unique=True),
        st.one_of(st.floats(0.0, 12.0), st.integers(0, 59)),
        st.booleans(),
    )
    @example([1.0, 1.0], [0.5], 0, True)  # mass before a cell equal to c: not selected
    def test_u_matches_definition_and_monotone_in_level(self, density, levels, query, on_grid):
        density = np.array([density])
        levels = np.sort(levels)
        # An integer query picks a grid cell's own density (a tie).
        p_y = density[0, query % density.shape[1]] if isinstance(query, int) else query
        u, cells = iv.hpd_scores(density.copy(), np.array([p_y]), np.array([on_grid]), levels)
        want = oracles.interpolated_u(density, [p_y], [on_grid])
        assert u[0] == pytest.approx(want[0], rel=0, abs=1e-12)
        assert 0.0 <= u[0] <= 1.0
        covered = u[0] < levels
        assert np.all(covered[:-1] <= covered[1:])
        assert cells.dtype == np.float64 and np.all(np.diff(cells[0]) >= 0)
        # Between the selection's footprint length, end cells half, and
        # that less its last cell's.
        masks = oracles.hpd_select_batch(density, levels)[0]
        span = np.ones(density.shape[1])
        span[[0, -1]] = 0.5
        full = masks @ span
        last = np.array([span[oracles.last_selected(density[0], m)][0] for m in masks])
        assert np.all((full - last <= cells[0]) & (cells[0] <= full))
        assert cells[0] == pytest.approx(oracles.selection_widths(density, levels)[0],
                                         rel=0, abs=1e-9)


class TestInPlaceRanking:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scores_equal_ranking_a_copy_bitwise(self, dtype):
        # hpd_scores sorts its grid in place (leaving it ascending) and
        # keeps its flags in the cumulative-mass buffer's bytes. Its widths
        # are, bit for bit, those of ranking a sorted copy (np.sort, then
        # the float64 cumulative mass of the ranked rows), u and the widths
        # do not depend on what the buffer held, and both agree with their
        # definitions (checked on 60 rows). Rows quantized to 1/16 are full
        # of ties, and p(y) ties a cell.
        rng = np.random.default_rng(17)
        m, p = 300, 257
        dens = (np.round(rng.random((m, p)) * 16) / 16).astype(dtype)
        dens[:, 0] += dtype(1.0)  # positive mass in every row
        p_y = np.where(rng.random(m) < 0.5, dens[np.arange(m), rng.integers(0, p, m)],
                       rng.random(m).astype(dtype))
        on_grid = rng.random(m) < 0.9
        grid = dens.copy()
        u, cells = iv.hpd_scores(grid, p_y, on_grid, LEVELS)
        assert np.array_equal(grid, np.sort(dens, axis=1))
        ranked = np.sort(dens, axis=1)[:, ::-1]
        incl = np.cumsum(ranked.astype(np.float64), axis=1)
        ends = dens[:, [0, -1]]
        assert np.array_equal(cells, iv._selected_cells(ranked, incl, incl[:, -1], LEVELS, ends)[1])
        stale = np.full((m, p), np.nan)
        again = iv.hpd_scores(dens.copy(), p_y, on_grid, LEVELS, stale)
        assert np.array_equal(again[0], u) and np.array_equal(again[1], cells)
        some = slice(0, 60)  # the oracles loop in Python
        assert np.allclose(u[some], oracles.interpolated_u(dens[some], p_y[some], on_grid[some]),
                           rtol=0, atol=1e-12)
        assert np.allclose(cells[some], oracles.selection_widths(dens[some], LEVELS), rtol=0,
                           atol=1e-9)

    def test_derive_intervals_leaves_its_rows_unchanged(self):
        rng = np.random.default_rng(18)
        dens = np.round(rng.random((4, 50)) * 8) / 8 + 0.01
        before = dens.copy()
        iv.derive_intervals(dens, np.arange(50.0), LEVELS)
        assert np.array_equal(dens, before)


class TestHPDMonotonicity:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=60).filter(lambda d: sum(d) > 0),
        st.lists(st.floats(0.01, 0.99), min_size=2, max_size=10),
    )
    def test_masks_nested_as_level_rises(self, density, levels):
        # The covered cells are nested and the widths nondecreasing as the
        # level rises; each level covers its oracle selection, whose mass
        # reaches the level.
        density = np.array(density)
        levels = np.sort(levels)
        x = np.arange(density.size, dtype=float)
        sets = iv.derive_intervals(density[None], x, levels)[0]
        masks = np.array([oracles.covered_cells(s, x) for s in sets])
        assert np.all(masks[:-1] <= masks[1:])
        widths = [oracles.interval_width(s) for s in sets]
        assert np.all(np.diff(widths) >= -1e-12)
        selections = oracles.hpd_select_batch(density[None], levels)[0]
        for s, mask in zip(sets, selections):
            assert_covers_selection(s, x, density, mask)
        mass = (selections * density).sum(axis=1) / density.sum()
        assert np.all(mass >= levels - 1e-12)
