"""Tests for CRPS, interval metrics, calibration curves and report files."""

import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from crps_trapezoid import crps_range, crps_trapezoid, jump_cell_correction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mixcast import gmm, metrics
from mixcast.gmm import MixtureBatch
from mixcast.metrics import ScoringConfig


def crps_gauss_closed(mu, sigma, y):
    """Closed-form CRPS of a single Gaussian (the K=1 oracle)."""
    z = (y - mu) / sigma
    return sigma * (z * (2 * norm.cdf(z) - 1) + 2 * norm.pdf(z) - 1 / math.sqrt(math.pi))


def mixture_batch_of(ms):
    k = max(m.k for m in ms)
    assert all(m.k == k for m in ms)
    return MixtureBatch(
        np.stack([m.weights for m in ms]),
        np.stack([m.means for m in ms]),
        np.stack([m.variances for m in ms]),
    )


def crps_one(mb, y):
    """crps_mixture_batch on a one-element batch and one label."""
    return float(metrics.crps_mixture_batch(mb, np.array([y]))[0])


def crps_of(m, y):
    return crps_one(mixture_batch_of([m]), y)


# Largest gap between the CRPS of a floor-variance component and |y - mu|,
# plus rounding: CRPS(N(mu, s^2), y) - |y - mu| lies in [-s / sqrt(pi), 0.24 s]
# and tends to the lower end far from mu.
FLOOR_GAP = math.sqrt(gmm.VAR_FLOOR / math.pi) + 1e-12


class TestCRPSMixture:
    def test_gaussian_at_mean(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        got = crps_of(m, 0.0)
        assert got == pytest.approx(0.23369, abs=2e-4)
        assert got == pytest.approx(crps_gauss_closed(0, 1, 0), rel=1e-12)

    def test_gaussian_two_sigma_off(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert crps_of(m, 2.0) == pytest.approx(1.45279, abs=2e-4)

    def test_randomized_against_closed_form(self):
        rng = np.random.default_rng(8)
        mu = rng.uniform(-5, 5, 200)
        sigma = rng.uniform(0.2, 3.0, 200)
        y = mu + sigma * rng.uniform(-3, 3, 200)
        mb = MixtureBatch(np.ones((200, 1)), mu[:, None], (sigma**2)[:, None])
        got = metrics.crps_mixture_batch(mb, y)
        np.testing.assert_allclose(got, crps_gauss_closed(mu, sigma, y), rtol=1e-12)

    def test_near_dirac_is_absolute_error(self):
        m = MixtureBatch([1.0], [0.7], [0.0])  # floor-clamped
        y = -1.3
        assert abs(crps_of(m, y) - abs(y - 0.7)) <= FLOOR_GAP

    def test_batch_matches_scalar(self):
        # Closed form against the test-side trapezoid on a fine grid.
        rng = np.random.default_rng(13)
        ms, ys = [], []
        for _ in range(50):
            w = rng.random(3) + 0.1
            w /= w.sum()
            ms.append(MixtureBatch(w, rng.uniform(-3, 3, 3), rng.uniform(0.1, 2.0, 3)))
            ys.append(rng.uniform(-4, 4))
        got = metrics.crps_mixture_batch(mixture_batch_of(ms), np.array(ys))
        for i, (m, y) in enumerate(zip(ms, ys)):
            want = crps_trapezoid(m, y, *crps_range(m, y), 20001)
            assert got[i] == pytest.approx(want, rel=1e-5)

    def test_broad_low_weight_component(self):
        # A trained-model case: a dominant narrow component plus a tiny,
        # very broad one on a 0-14 range. An 8-sigma grid of 2001 points
        # has dx ~ 0.84, wider than the narrow component, and misscores it.
        m = MixtureBatch([0.999, 0.001], [6.0, 7.5], [0.24**2, 105.0**2])
        worst_coarse = 0.0
        for y in (0.0, 3.5, 6.0, 6.3, 9.0, 14.0):
            got = crps_of(m, y)
            lo, hi = crps_range(m, y)
            assert got == pytest.approx(crps_trapezoid(m, y, lo, hi, 1_000_001), rel=1e-4)
            coarse = crps_trapezoid(m, y, lo, hi, 2001)
            worst_coarse = max(worst_coarse, abs(coarse - got) / got)
        assert worst_coarse > 0.1


def crps_components(mean_span=10.0, sd_lo=0.05, sd_hi=5.0):
    """Hypothesis strategy: (weights, means, sds) of a mixture, K <= 5."""
    return st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
            st.lists(st.floats(-mean_span, mean_span), min_size=k, max_size=k),
            st.lists(st.floats(sd_lo, sd_hi), min_size=k, max_size=k),
        )
    )


def batch_of(components):
    """One-element MixtureBatch from (weights, means, sds)."""
    w, mu, sd = (np.asarray(v, dtype=float) for v in components)
    return MixtureBatch((w / w.sum())[None], mu[None], (sd**2)[None])


class TestCRPSProperties:
    @given(crps_components(), st.floats(-30.0, 30.0))
    def test_nonnegative(self, comps, y):
        assert crps_one(batch_of(comps), y) >= 0.0

    @given(
        crps_components(),
        st.floats(-20.0, 20.0),
        st.floats(0.5, 5.0),
        st.booleans(),
        st.floats(-10.0, 10.0),
    )
    def test_affine_equivariance(self, comps, y, scale, flip, shift):
        # |a| >= 0.5 keeps every scaled variance above the floor.
        a = -scale if flip else scale
        mb = batch_of(comps)
        moved = crps_one(mb.scale_shift(a, shift), a * y + shift)
        assert moved == pytest.approx(abs(a) * crps_one(mb, y), rel=1e-9, abs=1e-12)

    @given(crps_components(), st.floats(-20.0, 20.0), st.randoms(use_true_random=False))
    def test_component_permutation_invariance(self, comps, y, rnd):
        order = list(range(len(comps[0])))
        rnd.shuffle(order)
        permuted = tuple([part[i] for i in order] for part in comps)
        assert crps_one(batch_of(permuted), y) == pytest.approx(
            crps_one(batch_of(comps), y), rel=1e-12, abs=1e-14
        )

    @given(st.floats(-10.0, 10.0), st.floats(0.01, 10.0), st.floats(-30.0, 30.0))
    def test_single_component_gaussian_closed_form(self, mu, sigma, y):
        got = crps_of(MixtureBatch([1.0], [mu], [sigma**2]), y)
        assert got == pytest.approx(crps_gauss_closed(mu, sigma, y), abs=1e-12)

    @given(st.floats(-10.0, 10.0), st.floats(0.0, 1e-2), st.floats(-10.0, 10.0))
    def test_vanishing_variance_tends_to_absolute_error(self, mu, var, y):
        m = MixtureBatch([1.0], [mu], [var])  # 0 is clamped to the floor
        bound = math.sqrt(max(var, gmm.VAR_FLOOR) / math.pi)
        assert abs(crps_of(m, y) - abs(y - mu)) <= bound + 1e-12

    @given(crps_components(mean_span=3.0, sd_lo=0.5, sd_hi=2.0), st.floats(-5.0, 5.0))
    @settings(max_examples=50)
    def test_matches_fine_trapezoid(self, comps, y):
        # sigma >= 0.5 on a range under 40 wide keeps dx / sigma below 4e-3,
        # where the trapezoid's own O(dx^2) error stays under 1e-5.
        mb = batch_of(comps)
        m = MixtureBatch(mb.weights[0], mb.means[0], mb.variances[0])
        want = crps_trapezoid(m, y, *crps_range(m, y), 20001)
        assert crps_one(mb, y) == pytest.approx(want, rel=1e-5)


class TestTrapezoidOracle:
    def test_label_outside_grid_rejected(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            crps_trapezoid(m, 9.0, -8, 8, 1001)

    def test_dirac_reduction_richardson(self):
        # Error vs the absolute-error limit shrinks ~linearly in dx.
        rng = np.random.default_rng(5)
        coarse, fine = [], []
        for _ in range(60):
            xhat = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            m = MixtureBatch([1.0], [xhat], [0.0])
            target = abs(y - xhat)
            coarse.append(abs(crps_trapezoid(m, y, -8, 8, 26) - target))
            fine.append(abs(crps_trapezoid(m, y, -8, 8, 51) - target))
        ratio = np.mean(coarse) / np.mean(fine)
        assert ratio > 1.9

    def test_factored_path_matches_scalar(self):
        # The trapezoid factored for a fixed predicted CDF and many labels:
        # (F-H)^2 = F^2 - 2 F H + H at the nodes, plus the split of the
        # cell containing each label.
        rng = np.random.default_rng(19)
        m = MixtureBatch([0.3, 0.7], [-1.0, 1.5], [0.5, 1.2])
        ys = oracles.sample(m, rng, 25)
        lo, hi, points = ys.min() - 12, ys.max() + 12, 4001
        x = np.linspace(lo, hi, points)
        f = gmm.cdf_values(m.weights, m.means, m.variances, x)
        w = np.full(points, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        suf_f = np.concatenate((np.cumsum((w * f)[::-1])[::-1], [0.0]))
        suf_w = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
        j = np.searchsorted(x, ys, side="left")
        fy = gmm.cdf_values(m.weights, m.means, m.variances, ys)
        factored = np.sum(w * f * f) - 2 * suf_f[j] + suf_w[j]
        factored += jump_cell_correction(x[j - 1], x[j], ys, f[j - 1], f[j], fy)
        for y, got in zip(ys, factored):
            assert got == pytest.approx(crps_trapezoid(m, y, lo, hi, points), abs=1e-10)


class TestCRPSPoint:
    def test_two_point_scenario_arithmetic(self):
        # Targets at +-2 with equal probability: a fixed point prediction
        # at 0 scores 2 per trial; the ideal two-spike mixture scores the
        # hand-integrated 1 per trial (0.25 over a width-4 gap).
        ys = np.array([-2.0, 2.0])
        det = SimpleNamespace(targets=ys.reshape(2, 1, 1), point_preds=np.zeros((2, 1, 1)))
        assert metrics.evaluate(det).crps_mean == pytest.approx(2.0)
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [0.0, 0.0])
        mix_scores = [crps_of(m, y) for y in ys]
        assert np.mean(mix_scores) == pytest.approx(1.0, rel=0.02)


class TestPropriety:
    def test_true_distribution_beats_fixed_alternatives(self):
        rng = np.random.default_rng(19)
        n = 100_000
        for _ in range(5):

            def rand_mix():
                k = int(rng.integers(1, 4))
                w = rng.random(k) + 0.2
                w /= w.sum()
                return MixtureBatch(w, rng.uniform(-3, 3, k), rng.uniform(0.2, 2.0, k))

            def crps_many(m, ys):
                params = [np.broadcast_to(p, (ys.size, m.k)) for p in
                          (m.weights, m.means, m.variances)]
                return metrics.crps_mixture_batch(MixtureBatch(*params), ys)

            true_m, alt_m = rand_mix(), rand_mix()
            draws = oracles.sample(true_m, rng, n)
            diff = crps_many(alt_m, draws) - crps_many(true_m, draws)
            se = diff.std(ddof=1) / math.sqrt(n)
            assert diff.mean() > 3 * se


class TestDeterministicScores:
    def test_perfect(self):
        assert metrics.deterministic_scores([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)

    def test_arithmetic(self):
        mae, mape, rmse = metrics.deterministic_scores([1.0, 3.0], [2.0, 2.0])
        assert (mae, rmse) == (1.0, 1.0)
        assert mape == pytest.approx(50.0)

    def test_constant_offset(self):
        t = np.linspace(1, 5, 20)
        mae, _, rmse = metrics.deterministic_scores(t + 1.0, t)
        assert mae == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)

    def test_all_targets_below_epsilon_gives_nan_mape(self):
        _, mape, _ = metrics.deterministic_scores([1.0, 2.0], [0.0, 1e-9])
        assert math.isnan(mape)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.deterministic_scores([1.0], [1.0, 2.0])


class TestEvaluate:
    def test_near_dirac_at_targets(self):
        # Targets placed on interval-grid points; every prediction is a
        # spike exactly there, so coverage is 1 at every level and the
        # calibration error is mean(|1 - c|) = 0.275.
        lo, hi, pts = -6.0, 6.0, 501
        x = np.linspace(lo, hi, pts)
        rng = np.random.default_rng(3)
        targets = x[rng.integers(50, 450, size=(4, 5, 3))]
        mb = MixtureBatch(
            np.ones(targets.shape + (1,)),
            targets[..., None].copy(),
            np.zeros(targets.shape + (1,)),
        )
        batch = SimpleNamespace(targets=targets, mixtures=mb)
        rep = metrics.evaluate(batch, ScoringConfig(interval_range=(lo, hi), interval_points=pts))
        assert rep.crps_mean < 0.02
        assert all(cov == 1.0 for _, cov in rep.calibration_curve)
        assert rep.calib_error == pytest.approx(0.275, abs=1e-12)
        assert len(rep.per_horizon) == 3

    def test_monte_carlo_calibration(self):
        rng = np.random.default_rng(11)
        n = 20_000
        k = 3
        w = rng.random((n, k)) + 0.2
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, k)), rng.uniform(0.25, 2.0, (n, k)))
        targets = oracles.sample_one_each(mb, rng)
        batch = SimpleNamespace(targets=targets.reshape(n // 4, 1, 4), mixtures=mb.reshape(n // 4, 1, 4))
        rep = metrics.evaluate(
            batch, ScoringConfig(interval_range=(-8.0, 8.0), interval_points=3001)
        )
        for level, cov in rep.calibration_curve:
            assert cov == pytest.approx(level, abs=0.02)
        assert rep.calib_error < 0.02

    def test_single_element_95_width(self):
        mb = MixtureBatch(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        batch = SimpleNamespace(targets=np.zeros((1, 1, 1)), mixtures=mb)
        rep = metrics.evaluate(
            batch,
            ScoringConfig(levels=(0.95,), interval_range=(-6.0, 6.0), interval_points=2001),
        )
        assert rep.avg_width == pytest.approx(2 * 1.959964, abs=0.02)

    def test_clipped_interval_grid_counted(self):
        # sd 0.5 fits the -3..3 grid; sd 5 keeps only about 45% of its mass
        # there, which the HPD normalization alone would hide.
        mb = MixtureBatch(np.ones((2, 1)), np.zeros((2, 1)), np.array([[0.25], [25.0]]))
        batch = SimpleNamespace(targets=np.zeros((1, 1, 2)), mixtures=mb.reshape(1, 1, 2))
        rep = metrics.evaluate(
            batch, ScoringConfig(interval_range=(-3.0, 3.0), interval_points=601)
        )
        assert rep.clipped_interval_elements == 1
        assert "clipped" not in metrics.report_to_text(rep)

    def test_point_prediction_batch(self):
        targets = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        preds = targets + np.array([[[0.5, -0.5]], [[1.0, -1.0]]])
        batch = SimpleNamespace(targets=targets, point_preds=preds)
        rep = metrics.evaluate(batch)
        assert rep.crps_mean == rep.mae  # identical reductions, bitwise
        assert math.isnan(rep.avg_width) and math.isnan(rep.calib_error)
        assert rep.calibration_curve == []
        assert math.isnan(rep.per_horizon[0][2])

    def test_empty_batch_rejected(self):
        batch = SimpleNamespace(targets=np.zeros((0, 2, 3)), point_preds=np.zeros((0, 2, 3)))
        with pytest.raises(ValueError):
            metrics.evaluate(batch)

    def test_shape_mismatch_reports_dimensions(self):
        mb = MixtureBatch(np.ones((2, 3, 1)), np.zeros((2, 3, 1)), np.ones((2, 3, 1)))
        batch = SimpleNamespace(targets=np.zeros((2, 4)), mixtures=mb)
        with pytest.raises(ValueError, match="shape"):
            metrics.evaluate(batch)

    def test_both_prediction_kinds_rejected(self):
        batch = SimpleNamespace(
            targets=np.zeros((1, 1, 1)),
            mixtures=MixtureBatch(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1))),
            point_preds=np.zeros((1, 1, 1)),
        )
        with pytest.raises(ValueError):
            metrics.evaluate(batch)

    def test_interval_metrics_aggregate_hpd_scores(self):
        # avg_width is the mean over elements and levels of the kernel's
        # widths, coverage the share of u below each level, and the HPD-PIT
        # the histogram of u; per-horizon figures reduce the same arrays.
        rng = np.random.default_rng(21)
        n, t_f = 24, 3
        w = rng.random((n, 2)) + 0.3
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, 2)), rng.uniform(0.2, 1.0, (n, 2)))
        targets = rng.uniform(-2, 2, n)
        cfg = ScoringConfig(interval_range=(-9.0, 9.0), interval_points=901)
        batch = SimpleNamespace(
            targets=targets.reshape(-1, 1, t_f), mixtures=mb.reshape(-1, 1, t_f)
        )
        rep = metrics.evaluate(batch, cfg)
        levels = np.asarray(cfg.levels)
        u, width, _ = oracles.hpd_scores_on_grid(mb, targets, -9.0, 9.0, 901, levels)
        assert rep.avg_width == pytest.approx(width.mean(), abs=1e-12)
        coverage = (u[:, None] < levels).mean(axis=0)
        assert [cov for _, cov in rep.calibration_curve] == pytest.approx(coverage, abs=1e-12)
        w_step = width.reshape(-1, t_f, levels.size).mean(axis=(0, 2))
        assert [row[2] for row in rep.per_horizon] == pytest.approx(w_step, abs=1e-12)
        assert rep.hpd_pit_counts == np.histogram(u, bins=10, range=(0, 1))[0].tolist()
        assert sum(rep.hpd_pit_counts) == n
        assert rep.hpd_pit_counts_by_step == [
            np.histogram(u.reshape(-1, t_f)[:, s], bins=10, range=(0, 1))[0].tolist()
            for s in range(t_f)
        ]

    def test_target_off_grid_uncovered_at_every_level(self):
        # Coverage is conditional on the grid range: a target outside it is
        # covered at no level, even at its own mixture's peak; a target on
        # an end point of the grid is inside.
        cfg = ScoringConfig(interval_range=(-3.0, 3.0), interval_points=601)
        for y, want in (([3.5, -3.2], 0.0), ([3.0, -3.0], 1.0)):
            y = np.array(y)
            mb = MixtureBatch(np.ones((2, 1)), y[:, None].copy(), np.full((2, 1), 0.5))
            batch = SimpleNamespace(targets=y.reshape(1, 1, 2), mixtures=mb.reshape(1, 1, 2))
            rep = metrics.evaluate(batch, cfg)
            assert all(cov == want for _, cov in rep.calibration_curve), y


    def test_chunk_size_changes_no_result(self, monkeypatch):
        # Every score is per element, so one element per chunk, seven, and
        # the default single chunk give the same report text and run.json
        # figures; the batch has clipped-mass elements and an off-grid target.
        rng = np.random.default_rng(8)
        n, t_f, pts = 60, 4, 301
        w = rng.random((n, 5)) + 0.2
        w /= w.sum(-1, keepdims=True)
        var = rng.uniform(0.05, 1.0, (n, 5))
        var[:6] *= 40.0
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, 5)), var)
        targets = rng.uniform(-2, 2, n)
        targets[9] = 4.5
        batch = SimpleNamespace(targets=targets.reshape(-1, 1, t_f), mixtures=mb.reshape(-1, 1, t_f))
        cfg = ScoringConfig(interval_range=(-4.0, 4.0), interval_points=pts)
        outputs = []
        for cells in (1, 7 * pts, metrics._CHUNK_CELLS):
            monkeypatch.setattr(metrics, "_CHUNK_CELLS", cells)
            rep = metrics.evaluate(batch, cfg, meta={"variant": "gmm"})
            results = [rep.clipped_interval_elements, rep.hpd_pit_counts,
                       rep.hpd_pit_counts_by_step]
            outputs.append((metrics.report_to_text(rep), json.dumps(results)))
        assert rep.clipped_interval_elements > 0
        assert rep.hpd_pit_counts[-1] > 0  # the off-grid target has u = 1
        assert outputs[0] == outputs[1] == outputs[2]


class TestFloat32IntervalGrid:
    """The interval grid of `evaluate` is float32, shifted by the grid's
    low end; rows float32 cannot hold are scored on the float64 grid."""

    @staticmethod
    def grid_rows(mb, y, lo, x):
        """(dens, p_y) of `_interval_densities`, groups put back in row order."""
        groups, _ = metrics._interval_densities(mb, y, lo, x)
        dens, p_y = np.empty((y.size, x.size)), np.empty(y.size)
        for at, g_dens, g_p_y in groups:
            dens[at], p_y[at] = g_dens, g_p_y
        return groups, dens, p_y

    @given(
        st.floats(1.0, 200.0),
        st.one_of(st.just(0.0), st.just(-6.0), st.floats(-1e6, 1e6)),
        st.sampled_from([500, 2001]),
        st.integers(1, 5).flatmap(lambda k: st.lists(
            st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(-3.5, 0.0)),
                     min_size=k, max_size=k),
            min_size=1, max_size=8,
        )),
    )
    def test_within_bound_of_float64_kernel(self, span, lo, points, rows):
        # The CLI's domain: a grid of 500 (or 2001) points over a range of
        # width up to 200 (0..max_value raw, -6..6 normalized), components
        # centred on it with sd from 3e-4 of the width to the width. The
        # float32 grid's normalized L1 error stays below 1% of phi(0) r,
        # r = sum_k w_k dx / sd_k, the first-order term of the
        # discretization budget phi(0) r + r^2 (TestHPDScores); measured
        # worst 0.013% at 500 points and 0.058% at 2001. The offset lo does
        # not enter: means and grid are shifted by lo before the cast.
        w, pos, log_sd = (np.array([[c[i] for c in row] for row in rows]) for i in range(3))
        sd = span * 10.0**log_sd
        mb = MixtureBatch(w / w.sum(axis=1, keepdims=True), lo + span * pos, sd**2)
        x = np.linspace(lo, lo + span, points)
        dx = x[1] - x[0]
        groups, dens, _ = self.grid_rows(mb, np.full(len(rows), lo), lo, x)
        assert len(groups) == 1 and groups[0][1].dtype == np.float32
        ref = gmm.grid_densities(mb.weights, mb.means, mb.variances, x)
        err = np.abs(dens - ref).sum(axis=1) / ref.sum(axis=1)
        r = np.sum(mb.weights * dx / np.sqrt(mb.variances), axis=1)
        assert np.all(err <= 0.01 * norm.pdf(0.0) * r)

    @pytest.mark.parametrize("lo", [0.0, -6.0, 1000.0])
    def test_on_grid_targets_tie_their_cell_bitwise(self, lo):
        # p(y) comes from the (M, 1) path of the same float32 kernel, so a
        # target on a grid point reads its cell's density bit for bit.
        rng = np.random.default_rng(12)
        n, k, points = 3000, 5, 500
        x = np.linspace(lo, lo + 14.0, points)
        w = rng.random((n, k)) + 0.05
        mb = MixtureBatch(w / w.sum(axis=1, keepdims=True), rng.uniform(lo, lo + 14.0, (n, k)),
                          rng.uniform(0.005, 4.0, (n, k)) ** 2)
        cell = rng.integers(0, points, n)
        groups, dens, p_y = self.grid_rows(mb, x[cell], lo, x)
        assert len(groups) == 1 and groups[0][1].dtype == np.float32
        assert np.array_equal(p_y, dens[np.arange(n), cell])
        w32, mu32, var32 = (a.astype(np.float32) for a in (mb.weights, mb.means - lo, mb.variances))
        x32 = (x - lo).astype(np.float32)
        grid = gmm.grid_densities(w32, mu32, var32, x32)
        at_y = gmm.grid_densities(w32, mu32, var32, x32[cell][:, None])[:, 0]
        assert grid.dtype == at_y.dtype == np.float32
        assert np.array_equal(at_y, grid[np.arange(n), cell])

    def test_rows_float32_cannot_hold_scored_in_float64_without_warnings(self):
        # Each row is one the float64 path scores without a numpy warning,
        # but whose float32 terms would overflow (a mean 1e30 from the grid,
        # a variance 1e300, a mean 1e100 with sd 1e150) or whose float32
        # grid mass would flush to zero (a component 30 sd off the grid,
        # mass about 1e-196). Clipped before the cast, they raise no
        # RuntimeWarning and are scored on the float64 grid, bit for bit;
        # so are far-off targets, and a normal row stays float32.
        lo, hi, points = 0.0, 10.0, 301
        means = np.array([[5.0, 1e30], [5.0, 3.0], [1e100, 4.0], [-30.0, -40.0], [5.0, 6.0]])
        variances = np.array([[1.0, 1.0], [1e300, 2.0], [1e300, 1.0], [1.0, 1.0], [0.5, 2.0]])
        mb = MixtureBatch(np.full((5, 2), 0.5), means, variances)
        y = np.array([4.0, 1e30, 2.0, 1.0, -1e30])
        x = np.linspace(lo, hi, points)
        cfg = ScoringConfig(interval_range=(lo, hi), interval_points=points)
        levels = np.asarray(cfg.levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            groups, _ = metrics._interval_densities(mb, y, lo, x)
            _, _, u, width, clipped = metrics._score_mixtures(mb, y, cfg, levels)
            wide = groups[1][0]
            ref_u, ref_width, _ = oracles.hpd_scores_on_grid(mb[wide], y[wide], lo, hi, points, levels)
        assert wide.tolist() == [True, True, True, True, False]
        assert groups[1][1].dtype == np.float64 and groups[0][1].dtype == np.float32
        assert np.array_equal(u[wide], ref_u) and np.array_equal(width[wide], ref_width)
        assert u[1] == u[4] == 1.0  # targets off the grid
        assert clipped == 4  # all but the last row keep at most half their mass

    def test_grid_beyond_float32_reach_scored_in_float64(self):
        # A grid spanning more than _F32_REACH is scored in float64 outright.
        lo, hi, points = 0.0, 1e20, 201
        mb = MixtureBatch(np.ones((3, 1)), np.array([[1e19], [5e19], [2e19]]),
                          np.array([[1e38], [4e38], [1e39]]))
        y = np.array([1e19, 6e19, 3e19])
        cfg = ScoringConfig(interval_range=(lo, hi), interval_points=points)
        levels = np.asarray(cfg.levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, u, width, _ = metrics._score_mixtures(mb, y, cfg, levels)
        ref_u, ref_width, _ = oracles.hpd_scores_on_grid(mb, y, lo, hi, points, levels)
        assert np.array_equal(u, ref_u) and np.array_equal(width, ref_width)


class TestScoringConfig:
    @pytest.mark.parametrize("levels", [
        (0.9, 0.5, 0.5), (0.5, 0.5), (0.9, 0.5), (0.0, 0.5), (0.5, 1.0),
        (float("nan"),), (0.5, float("inf")), (),
    ])
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="levels must"):
            ScoringConfig(levels=levels)

    def test_increasing_levels_accepted(self):
        assert ScoringConfig(levels=(0.1, 0.5, 0.99)).levels == (0.1, 0.5, 0.99)

    @pytest.mark.parametrize("points", [1, 0, -4, 2.5, True])
    def test_interval_points_below_two_rejected(self, points):
        # One point used to fail with an IndexError (no grid spacing).
        with pytest.raises(ValueError, match="interval_points must be an integer >= 2"):
            ScoringConfig(interval_points=points)

    @pytest.mark.parametrize("bounds", [
        (0.0, float("nan")), (float("-inf"), 14.0), (0.0, float("inf")), (0.0,), (0.0, 1.0, 2.0),
    ])
    def test_non_finite_interval_range_rejected(self, bounds):
        # (0, nan) used to give a NaN width and calib_error 0.725 silently.
        with pytest.raises(ValueError, match="interval_range must be two finite numbers"):
            ScoringConfig(interval_range=bounds)

    @pytest.mark.parametrize("bounds", [(3.0, 3.0), (14.0, 0.0)])
    def test_empty_interval_range_rejected(self, bounds):
        # lo >= hi used to surface as a misleading "no mass" error.
        with pytest.raises(ValueError, match="interval_range must have lo < hi"):
            ScoringConfig(interval_range=bounds)

    def test_smallest_grid_accepted(self):
        cfg = ScoringConfig(interval_points=np.int64(2), interval_range=[-1, 1])
        assert cfg.interval_points == 2


class TestReportFiles:
    def make_report(self):
        rng = np.random.default_rng(2)
        n = 40
        w = np.ones((n, 1))
        mb = MixtureBatch(w, rng.normal(0, 1, (n, 1)), np.full((n, 1), 0.5))
        targets = rng.normal(0, 1, n)
        batch = SimpleNamespace(targets=targets.reshape(5, 2, 4), mixtures=mb.reshape(5, 2, 4))
        return metrics.evaluate(
            batch,
            ScoringConfig(interval_range=(-7.0, 7.0), interval_points=701),
            meta={"variant": "norm", "dataset": "unit-test"},
        )

    def test_calib_error_recomputable_from_curve(self):
        rep = self.make_report()
        recomputed = np.mean([abs(cov - lvl) for lvl, cov in rep.calibration_curve])
        assert rep.calib_error == pytest.approx(recomputed, abs=1e-12)

    def test_text_round_trip(self):
        rep = self.make_report()
        text = metrics.report_to_text(rep)
        back = metrics.report_from_text(text)
        assert back.crps_mean == rep.crps_mean
        assert back.avg_width == rep.avg_width
        assert back.calib_error == rep.calib_error
        assert back.per_horizon == rep.per_horizon
        assert back.calibration_curve == rep.calibration_curve
        assert back.meta == rep.meta
        assert metrics.report_to_text(rep) == text  # byte-deterministic

    def test_pit_counts_kept_out_of_text(self):
        rep = self.make_report()
        assert sum(rep.hpd_pit_counts) == 40
        assert metrics.report_to_text(rep) == metrics.report_to_text(
            dataclasses.replace(rep, hpd_pit_counts=[])
        )

    def test_nan_serialized_as_na(self):
        batch = SimpleNamespace(targets=np.ones((1, 1, 1)), point_preds=np.ones((1, 1, 1)))
        text = metrics.report_to_text(metrics.evaluate(batch))
        assert "avg_width = na" in text
        back = metrics.report_from_text(text)
        assert math.isnan(back.avg_width)
