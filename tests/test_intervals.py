"""Tests for high-density interval derivation from density grids."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from mixcast import intervals as iv
from mixcast.gmm import GaussianMixture

LEVELS = np.round(np.arange(0.50, 0.951, 0.05), 10)


def std_normal_grid(points=2001, lo=-6.0, hi=6.0):
    m = GaussianMixture([1.0], [0.0], [1.0])
    return iv.grid_from_mixture(m, lo, hi, points)


class TestDensityGrid:
    def test_grid_geometry_and_peak(self):
        g = std_normal_grid(points=500)
        assert g.dx == pytest.approx(12.0 / 499)
        peak = g.density.max()
        assert peak == pytest.approx(norm.pdf(g.points()[np.argmax(g.density)]), abs=1e-12)
        assert peak == pytest.approx(0.3989, abs=1e-3)

    def test_densities_nonnegative(self):
        m = GaussianMixture([0.25] * 4, [-6.0, -2.0, 2.0, 6.0], [4.0] * 4)
        g = iv.grid_from_mixture(m, -20, 20, 300)
        assert np.all(g.density >= 0)

    def test_speed_grid_spacing(self):
        # 500 points across a 0..70 range.
        m = GaussianMixture([1.0], [35.0], [25.0])
        g = iv.grid_from_mixture(m, 0.0, 70.0, 500)
        assert g.dx == pytest.approx(70.0 / 499, abs=1e-12)

    def test_degenerate_range_rejected(self):
        m = GaussianMixture([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            iv.grid_from_mixture(m, 2.0, 2.0, 100)
        with pytest.raises(ValueError):
            iv.grid_from_mixture(m, -1.0, 1.0, 1)

    def test_mass_complete_flag(self):
        assert std_normal_grid().is_mass_complete()
        clipped = std_normal_grid(lo=-1.0, hi=1.0)
        assert not clipped.is_mass_complete()


class TestDeriveIntervals:
    def test_standard_normal_95(self):
        g = std_normal_grid()
        s = iv.derive_intervals(g, 0.95)
        assert s.count == 1
        lo, hi = s.intervals[0]
        assert lo == pytest.approx(-1.959964, abs=g.dx)
        assert hi == pytest.approx(1.959964, abs=g.dx)

    def test_separated_bimodal_two_subintervals(self):
        m = GaussianMixture([0.5, 0.5], [-3.0, 3.0], [0.25, 0.25])
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
        assert iv.contains(s, float(mode_x))

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
        assert iv.contains(s, 2.0)
        assert not iv.contains(s, 3.0)

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
            m = GaussianMixture(w, rng.uniform(-4, 4, k), rng.uniform(0.1, 1.5, k))
            g = iv.grid_from_mixture(m, -12, 12, 1001)
            assert g.is_mass_complete()
            cell = (g.density * g.dx / g.total_mass()).max()
            for c in LEVELS:
                mass = iv.selection_mass(g, c)
                assert c <= mass <= c + cell + 1e-12

    def test_nesting_and_width_monotone(self):
        m = GaussianMixture([0.4, 0.6], [-2.5, 2.0], [0.3, 0.8])
        g = iv.grid_from_mixture(m, -10, 10, 1501)
        prev_mask = None
        prev_width = 0.0
        for c in LEVELS:
            mask = iv.hpd_select(g.density, c)
            if prev_mask is not None:
                assert np.all(mask[prev_mask])  # cell-wise containment
            width = iv.interval_width(iv.derive_intervals(g, c))
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
            m = GaussianMixture(w, mu, sig**2)
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
            mask = iv.hpd_select(g.density, c)
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
            mask = iv.hpd_select(g.density, c)
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
        assert iv.interval_width(s) == pytest.approx(3.92)

    def test_width_two_subintervals(self):
        s = iv.IntervalSet(0.9, ((-3.8, -2.2), (2.2, 3.8)))
        assert iv.interval_width(s) == pytest.approx(3.2)

    def test_degenerate_interval_not_constructible(self):
        with pytest.raises(ValueError):
            iv.IntervalSet(0.9, ((1.0, 1.0),))

    def test_contains_gap_and_boundary(self):
        s = iv.IntervalSet(0.8, ((-2.0, -1.0), (1.0, 2.0)))
        assert not iv.contains(s, 0.0)
        assert iv.contains(s, 1.0)
        assert iv.contains(s, -2.0)
        assert not iv.contains(s, 5.0)
        s95 = iv.IntervalSet(0.95, ((-1.96, 1.96),))
        assert not iv.contains(s95, 5.0)

    def test_unsorted_subintervals_rejected(self):
        with pytest.raises(ValueError):
            iv.IntervalSet(0.9, ((1.0, 2.0), (-2.0, -1.0)))


class TestBatchAgreesWithScalar:
    def test_masks_widths_containment_match(self):
        rng = np.random.default_rng(41)
        lo, hi, points = -9.0, 9.0, 601
        x = np.linspace(lo, hi, points)
        dx = x[1] - x[0]
        dens_rows, ys, mixtures = [], [], []
        for _ in range(40):
            k = int(rng.integers(1, 4))
            w = rng.random(k) + 0.1
            w /= w.sum()
            m = GaussianMixture(w, rng.uniform(-4, 4, k), rng.uniform(0.05, 1.0, k))
            mixtures.append(m)
            g = iv.grid_from_mixture(m, lo, hi, points)
            dens_rows.append(g.density)
            # Half the queries exactly on grid points, half off.
            ys.append(float(x[rng.integers(points)]) if rng.random() < 0.5 else rng.uniform(-5, 5))
        density = np.stack(dens_rows)
        y = np.array(ys)
        masks = iv.hpd_select_batch(density, LEVELS)
        width, contained, mass = iv.interval_stats_batch(masks, lo, dx, y, density)
        for i, m in enumerate(mixtures):
            g = iv.DensityGrid(lo, dx, density[i])
            for li, c in enumerate(LEVELS):
                np.testing.assert_array_equal(masks[i, li], iv.hpd_select(g.density, c))
                s = iv.derive_intervals(g, c)
                assert width[i, li] == pytest.approx(iv.interval_width(s), abs=1e-9)
                assert bool(contained[i, li]) == iv.contains(s, y[i])
                assert mass[i, li] == pytest.approx(iv.selection_mass(g, c), abs=1e-12)


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
