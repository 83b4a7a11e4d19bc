"""Tests for high-density interval derivation from density grids."""

import itertools

import numpy as np
import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import norm

from mixcast import intervals as iv
from mixcast.gmm import MixtureBatch

LEVELS = np.round(np.arange(0.50, 0.951, 0.05), 10)


def std_normal_grid(points=2001, lo=-6.0, hi=6.0):
    m = MixtureBatch([1.0], [0.0], [1.0])
    return iv.grid_from_mixture(m, lo, hi, points)


class TestDensityGrid:
    def test_grid_geometry_and_peak(self):
        g = std_normal_grid(points=500)
        assert g.dx == pytest.approx(12.0 / 499)
        peak = g.density.max()
        assert peak == pytest.approx(norm.pdf(g.points()[np.argmax(g.density)]), abs=1e-12)
        assert peak == pytest.approx(0.3989, abs=1e-3)

    def test_densities_nonnegative(self):
        m = MixtureBatch([0.25] * 4, [-6.0, -2.0, 2.0, 6.0], [4.0] * 4)
        g = iv.grid_from_mixture(m, -20, 20, 300)
        assert np.all(g.density >= 0)

    def test_speed_grid_spacing(self):
        # 500 points across a 0..70 range.
        m = MixtureBatch([1.0], [35.0], [25.0])
        g = iv.grid_from_mixture(m, 0.0, 70.0, 500)
        assert g.dx == pytest.approx(70.0 / 499, abs=1e-12)

    def test_degenerate_range_rejected(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            iv.grid_from_mixture(m, 2.0, 2.0, 100)
        with pytest.raises(ValueError):
            iv.grid_from_mixture(m, -1.0, 1.0, 1)
        # A batch of element shape (1,) is not a single mixture.
        with pytest.raises(ValueError, match="element shape"):
            iv.grid_from_mixture(m.reshape(1), -1.0, 1.0, 100)

    def test_mass_complete_flag(self):
        assert oracles.is_mass_complete(std_normal_grid())
        clipped = std_normal_grid(lo=-1.0, hi=1.0)
        assert not oracles.is_mass_complete(clipped)


class TestDeriveIntervals:
    def test_standard_normal_95(self):
        g = std_normal_grid()
        s = iv.derive_intervals(g, 0.95)
        assert s.count == 1
        lo, hi = s.intervals[0]
        assert lo == pytest.approx(-1.959964, abs=g.dx)
        assert hi == pytest.approx(1.959964, abs=g.dx)

    def test_separated_bimodal_two_subintervals(self):
        m = MixtureBatch([0.5, 0.5], [-3.0, 3.0], [0.25, 0.25])
        g = iv.grid_from_mixture(m, -6.0, 6.0, 2001)
        s = iv.derive_intervals(g, 0.9)
        assert s.count == 2
        (l1, u1), (l2, u2) = s.intervals
        # Symmetric about 0, each sub-interval ~ mu_k +- 0.5 * 1.645.
        assert l1 == pytest.approx(-u2, abs=g.dx)
        assert u1 == pytest.approx(-l2, abs=g.dx)
        half = 0.5 * norm.ppf(0.95)
        assert l2 == pytest.approx(3.0 - half, abs=2 * g.dx)
        assert u2 == pytest.approx(3.0 + half, abs=2 * g.dx)

    def test_unimodal_half_level_contains_mode(self):
        g = std_normal_grid(points=801)
        s = iv.derive_intervals(g, 0.5)
        assert s.count == 1
        mode_x = g.points()[np.argmax(g.density)]
        assert oracles.contains(s, float(mode_x))

    def test_level_validation(self):
        g = std_normal_grid(points=101)
        for c in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                iv.derive_intervals(g, c)

    def test_all_zero_density_rejected(self):
        g = iv.DensityGrid(0.0, 0.1, np.zeros(10))
        with pytest.raises(ValueError), pytest.warns(UserWarning):
            iv.derive_intervals(g, 0.5)

    def test_clipped_grid_warns(self):
        g = std_normal_grid(lo=-1.0, hi=1.0)
        with pytest.warns(UserWarning, match="mass"):
            iv.derive_intervals(g, 0.5)

    def test_singleton_run_widened_to_cell_footprint(self):
        # One dominant cell: the 0.5-level set is that single cell.
        dens = np.array([0.1, 0.1, 10.0, 0.1, 0.1])
        g = iv.DensityGrid(0.0, 1.0, dens)
        s = iv.derive_intervals(g, 0.5)
        assert s.intervals == ((1.5, 2.5),)
        assert oracles.contains(s, 2.0)
        assert not oracles.contains(s, 3.0)

    def test_deterministic_under_ties(self):
        dens = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 0.5])
        g = iv.DensityGrid(0.0, 1.0, dens)
        a = iv.derive_intervals(g, 0.6)
        b = iv.derive_intervals(g, 0.6)
        assert a.intervals == b.intervals


class TestMassCoverage:
    def test_mass_within_bound_all_levels(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            w = rng.random(k) + 0.1
            w /= w.sum()
            m = MixtureBatch(w, rng.uniform(-4, 4, k), rng.uniform(0.1, 1.5, k))
            g = iv.grid_from_mixture(m, -12, 12, 1001)
            assert oracles.is_mass_complete(g)
            cell = (g.density * g.dx / g.total_mass()).max()
            for c in LEVELS:
                mass = oracles.selection_mass(g, c)
                assert c <= mass <= c + cell + 1e-12

    def test_nesting_and_width_monotone(self):
        m = MixtureBatch([0.4, 0.6], [-2.5, 2.0], [0.3, 0.8])
        g = iv.grid_from_mixture(m, -10, 10, 1501)
        prev_mask = None
        prev_width = 0.0
        for c in LEVELS:
            mask = iv.hpd_select_batch(g.density[None], [c])[0, 0]
            if prev_mask is not None:
                assert np.all(mask[prev_mask])  # cell-wise containment
            width = oracles.interval_width(iv.derive_intervals(g, c))
            assert width >= prev_width - 1e-12
            prev_mask, prev_width = mask, width

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
            g = iv.grid_from_mixture(m, mu.min() - 8 * smax, mu.max() + 8 * smax, 3001)
            for c in LEVELS:
                assert iv.derive_intervals(g, c).count <= k


class TestHPDOptimality:
    """The selected cells reach mass >= c with the fewest cells possible."""

    def test_exhaustive_small_grids(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = int(rng.integers(4, 13))
            dens = rng.random(p) * rng.choice([0.2, 1.0, 5.0], p)
            g = iv.DensityGrid(0.0, 1.0, dens)
            c = float(rng.uniform(0.2, 0.9))
            mask = iv.hpd_select_batch(g.density[None], [c])[0, 0]
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
            g = iv.DensityGrid(0.0, 1.0, dens)
            c = float(rng.uniform(0.3, 0.95))
            mask = iv.hpd_select_batch(g.density[None], [c])[0, 0]
            n_sel = int(mask.sum())
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


class TestHPDScores:
    def test_single_gaussian_against_closed_form(self):
        """For N(mu, s^2) the HPD value is U = 2 Phi(|y - mu| / s) - 1 and
        the HPD width W = 2 s Phi^-1((1 + c) / 2). With r = dx / s <= 0.5:

        - |u - U| <= phi(0) r + r^2: each end of the run of denser cells
          sits within dx/2 of mu +- |y - mu|, so u misses at most one cell
          of mass p(y) dx <= phi(0) r in all; the cell sums' midpoint error
          is of order r^2.
        - -r dx <= width - W <= dx + r dx: the selection overshoots c by
          less than its last (boundary) cell, which adds at most dx of
          width; the run's asymmetry of up to one cell and the midpoint
          error add terms of order r dx.
        """
        rng = np.random.default_rng(5)
        for points, sd_lo in ((2001, 0.05), (501, 0.1)):
            n = 2000
            mu = rng.uniform(-2.0, 2.0, n)
            sd = rng.uniform(sd_lo, 1.5, n)
            y = mu + sd * rng.uniform(-3.0, 3.0, n)
            x = np.linspace(-10.0, 10.0, points)
            y[: n // 4] = x[rng.integers(0, points, n // 4)]  # exactly on grid points
            mb = MixtureBatch(np.ones((n, 1)), mu[:, None], (sd**2)[:, None])
            u, width, dx = oracles.hpd_scores_on_grid(mb, y, -10.0, 10.0, points, LEVELS)
            r = dx / sd
            assert r.max() <= 0.5
            exact_u = 2.0 * norm.cdf(np.abs(y - mu) / sd) - 1.0
            assert np.all(np.abs(u - exact_u) <= norm.pdf(0.0) * r + r**2)
            gap = width - 2.0 * sd[:, None] * norm.ppf((1.0 + LEVELS) / 2.0)
            assert np.all(gap >= -(r * dx)[:, None])
            assert np.all(gap <= (dx + r * dx)[:, None])

    def test_width_within_one_cell_per_run_of_derive_intervals(self):
        # Cell counts give each run its full footprint; derive_intervals
        # spans a multi-cell run between its end points (one dx less) and
        # gives a singleton its footprint (half of it at a grid edge).
        rng = np.random.default_rng(41)
        lo, hi, points = -9.0, 9.0, 601
        n = 40
        k = 3
        w = rng.random((n, k)) + 0.1
        w[: n // 2, 2] = 0.0  # some two-component mixtures
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-4, 4, (n, k)), rng.uniform(0.05, 1.0, (n, k)))
        _, width, dx = oracles.hpd_scores_on_grid(mb, rng.uniform(-5, 5, n), lo, hi, points, LEVELS)
        for i in range(n):
            g = iv.grid_from_mixture(
                MixtureBatch(mb.weights[i], mb.means[i], mb.variances[i]), lo, hi, points
            )
            masks = iv.hpd_select_batch(g.density[None], LEVELS)[0]
            # One ranking: the kernel's counts are the selection's.
            assert np.array_equal(width[i], dx * masks.sum(axis=1))
            for li, c in enumerate(LEVELS):
                s = iv.derive_intervals(g, c)
                gap = width[i, li] - oracles.interval_width(s)
                assert -1e-9 <= gap <= s.count * dx + 1e-9

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60).filter(lambda d: sum(d) > 0),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10, unique=True),
        st.one_of(st.floats(0.0, 12.0), st.integers(0, 59)),
        st.booleans(),
    )
    @example([1.0, 1.0], [0.5], 0, True)  # mass before a cell equal to c: not selected
    def test_u_matches_definition_and_monotone_in_level(self, density, levels, query, on_grid):
        density = np.array([density])
        levels = np.sort(levels)
        # An integer query picks a grid cell's own density (a tie).
        p_y = density[0, query % density.size] if isinstance(query, int) else query
        u, width = iv.hpd_scores(density, 0.5, np.array([p_y]), np.array([on_grid]), levels)
        dens = density[0]
        want = dens[dens > p_y].sum() / dens.sum() if on_grid else 1.0
        assert u[0] == pytest.approx(want, abs=1e-12)
        assert 0.0 <= u[0] <= 1.0
        covered = u[0] < levels
        assert np.all(covered[:-1] <= covered[1:])
        assert np.all(np.diff(width[0]) >= 0.0)
        masks = iv.hpd_select_batch(density, levels)[0]
        assert np.array_equal(width[0], 0.5 * masks.sum(axis=1))


class TestHPDMonotonicity:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60).filter(lambda d: sum(d) > 0),
        st.lists(st.floats(0.01, 0.99), min_size=2, max_size=10),
    )
    def test_masks_nested_as_level_rises(self, density, levels):
        density = np.array([density])
        levels = np.sort(levels)
        masks = iv.hpd_select_batch(density, levels)[0]
        assert np.all(masks[:-1] <= masks[1:])
        mass = (masks * density).sum(axis=1) / density.sum()
        assert np.all(mass >= levels - 1e-12)
