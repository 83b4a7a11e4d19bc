"""Tests for CRPS, interval metrics, calibration curves and report files."""

import dataclasses
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import oracles
import pytest
from crps_trapezoid import crps_range, crps_trapezoid, jump_cell_correction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mixcast import gmm, metrics
from mixcast import intervals as iv
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
        f = oracles.cdf_values(m.weights, m.means, m.variances, x)
        w = np.full(points, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        suf_f = np.concatenate((np.cumsum((w * f)[::-1])[::-1], [0.0]))
        suf_w = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
        j = np.searchsorted(x, ys, side="left")
        fy = oracles.cdf_values(m.weights, m.means, m.variances, ys)
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
        det = metrics.evaluate([(ys.reshape(2, 1, 1), np.zeros((2, 1, 1)))])
        assert det.crps_mean == pytest.approx(2.0)
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


def point_scores(points, targets):
    """(mae, mape, rmse) of point predictions scored by `evaluate`, one
    element per window."""
    rep = metrics.evaluate([(np.reshape(targets, (-1, 1)), np.reshape(points, (-1, 1)))])
    return rep.mae, rep.mape, rep.rmse


class TestDeterministicScores:
    def test_perfect(self):
        assert point_scores([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)

    def test_arithmetic(self):
        mae, mape, rmse = point_scores([1.0, 3.0], [2.0, 2.0])
        assert (mae, rmse) == (1.0, 1.0)
        assert mape == pytest.approx(50.0)

    def test_constant_offset(self):
        t = np.linspace(1, 5, 20)
        mae, _, rmse = point_scores(t + 1.0, t)
        assert mae == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)

    def test_mape_excludes_targets_below_epsilon(self):
        # |y| < 1e-3 drops out of MAPE only; 1e-3 itself is kept.
        mae, mape, _ = point_scores([1.0, 1.0, 3.0, 2e-3], [0.0, -9e-4, 2.0, 1e-3])
        assert mae == pytest.approx((1.0 + 1.0009 + 1.0 + 1e-3) / 4)
        assert mape == pytest.approx(100.0 * (0.5 + 1.0) / 2)

    def test_all_targets_below_epsilon_gives_nan_mape(self):
        _, mape, _ = point_scores([1.0, 2.0], [0.0, 1e-9])
        assert math.isnan(mape)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differs from its targets"):
            point_scores([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("n", [1, 9, 129, 8193, 24581, 100_003])
    @pytest.mark.parametrize("excluded", [0.0, 0.3, 1.0])
    def test_bit_identical_to_fresh_arrays(self, n, excluded):
        # At sizes beyond TestExactMeans' few dozen elements, and whatever
        # the share of targets MAPE excludes, each score is bit-identical
        # to the correctly rounded mean of the terms computed on fresh
        # arrays.
        rng = np.random.default_rng(n)
        targets = rng.normal(0.0, 30.0, n)
        targets[rng.random(n) < excluded] = rng.choice([0.0, -0.0, 1e-4, -5e-4])
        points = targets + rng.normal(0.0, 1.0, n)
        _, _, mae, mape, rmse = oracles.exact_scores(targets, points, np.abs(points - targets), 1,
                                                     metrics.MAPE_EPSILON)
        got = point_scores(points, targets)
        assert np.array_equal(got, (mae, mape, rmse), equal_nan=True)

    def test_traced_peak_does_not_grow_with_the_elements(self):
        # Scored chunk by chunk, nothing is kept per element: 300,000
        # elements in 300 chunks peak no higher than 100,000 in 100.
        def peak(n):
            rng = np.random.default_rng(n)
            targets = rng.normal(0.0, 30.0, (n // 1000, 100, 10))
            targets[..., ::7] = 0.0
            points = targets + 1.0
            tracemalloc.start()
            try:
                metrics.evaluate(zip(targets[:, None], points[:, None]))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100_000)  # one-time allocations first
        assert peak(300_000) - peak(100_000) <= 16_000


class TestExactMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 12), st.integers(1, 2), st.integers(1, 3)),
        st.sets(st.integers(1, 11)),
        st.booleans(),
    )
    def test_means_are_correctly_rounded_under_any_chunking(self, seed, shape, cuts, mixtures):
        # Terms over many binades, exact zeros and MAPE-excluded targets,
        # split into chunks of any number of windows (one element each
        # when nodes = t_f = 1): every mean equals the exact sum of its
        # terms divided once and rounded once, and for point predictions
        # crps_mean == mae bit for bit.
        windows, nodes, t_f = shape
        rng = np.random.default_rng(seed)
        size = (windows, nodes, t_f)
        targets = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-5, 4, size)
        targets[rng.random(size) < 0.2] = 0.0
        if mixtures:
            w = rng.random(size + (3,)) + 0.05
            preds = MixtureBatch(w / w.sum(-1, keepdims=True), rng.normal(0.0, 50.0, size + (3,)),
                                 10.0 ** rng.uniform(0, 4, size + (3,)))
            point = preds.point_estimates()
            crps = metrics.crps_mixture_batch(preds.reshape(targets.size), targets.ravel())
            cfg = ScoringConfig(interval_range=(-200.0, 200.0), interval_points=401)
        else:
            preds = targets + rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-8, 3, size)
            exact = rng.random(size) < 0.2
            preds[exact] = targets[exact]
            point, crps, cfg = preds, np.abs(preds - targets).ravel(), None
        bounds = [0, *sorted(c for c in cuts if c < windows), windows]
        rep = metrics.evaluate([(targets[a:b], preds[a:b]) for a, b in zip(bounds, bounds[1:])],
                               cfg)
        crps_mean, by_step, mae, mape, rmse = oracles.exact_scores(
            targets.ravel(), np.ravel(point), crps, t_f, metrics.MAPE_EPSILON)
        assert rep.crps_mean == crps_mean
        assert [row[1] for row in rep.per_horizon] == by_step
        assert np.array_equal((rep.mae, rep.mape, rep.rmse), (mae, mape, rmse), equal_nan=True)
        if not mixtures:
            assert rep.crps_mean == rep.mae

    @pytest.mark.parametrize("value, want", [(1e200, (1e200, math.inf)), (1e308, (math.inf,) * 2),
                                             (math.nan, (math.nan,) * 2)])
    def test_huge_and_nan_point_predictions_score_as_np_mean(self, value, want):
        # e**2 overflows to inf at 1e200, and at 1e308 the sum of |e| does
        # too, which math.fsum alone reports as an OverflowError; NaN
        # never leaves a remainder of 0. Each ends with np.mean's result
        # (mape, finite at 1e200, to its rounding).
        targets = np.array([[1.0, 2.0], [4.0, 0.0]])
        rep = metrics.evaluate([(targets, np.full((2, 2), value))])
        with np.errstate(over="ignore"):
            e = value - targets
            mape = 100.0 * np.mean(np.abs(e[targets != 0] / targets[targets != 0]))
            assert (np.mean(np.abs(e)), np.sqrt(np.mean(e * e))) == pytest.approx(want, nan_ok=True)
        assert np.array_equal((rep.mae, rep.rmse), want, equal_nan=True)
        assert rep.mape == pytest.approx(mape, rel=1e-15, nan_ok=True)
        assert np.array_equal(rep.crps_mean, rep.mae, equal_nan=True)

    @pytest.mark.parametrize("terms, want", [([math.inf, 1.0], math.inf),
                                             ([math.inf, -math.inf], math.nan),
                                             ([1e308, 1e308, 1.0], math.inf),
                                             ([math.nan, 1.0], math.nan)])
    def test_non_finite_sums_stand_alone(self, terms, want):
        got = metrics._exact_partials(list(terms))
        assert len(got) == 1 and np.array_equal(got[0], want, equal_nan=True)


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
        cfg = ScoringConfig(interval_range=(lo, hi), interval_points=pts)
        rep = metrics.evaluate([(targets, mb)], cfg)
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
        rep = metrics.evaluate(
            [(targets.reshape(n // 4, 1, 4), mb.reshape(n // 4, 1, 4))],
            ScoringConfig(interval_range=(-8.0, 8.0), interval_points=3001),
        )
        for level, cov in rep.calibration_curve:
            assert cov == pytest.approx(level, abs=0.02)
        assert rep.calib_error < 0.02

    def test_single_element_95_width(self):
        mb = MixtureBatch(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        rep = metrics.evaluate(
            [(np.zeros((1, 1, 1)), mb)],
            ScoringConfig(levels=(0.95,), interval_range=(-6.0, 6.0), interval_points=2001),
        )
        assert rep.avg_width == pytest.approx(2 * 1.959964, abs=0.02)

    def test_clipped_interval_grid_counted(self):
        # sd 0.5 fits the -3..3 grid; sd 5 keeps only about 45% of its mass
        # there, which the HPD normalization alone would hide.
        mb = MixtureBatch(np.ones((2, 1)), np.zeros((2, 1)), np.array([[0.25], [25.0]]))
        rep = metrics.evaluate(
            [(np.zeros((1, 1, 2)), mb.reshape(1, 1, 2))],
            ScoringConfig(interval_range=(-3.0, 3.0), interval_points=601),
        )
        assert rep.clipped_interval_elements == 1
        assert "clipped" not in metrics.report_to_text(rep)

    def test_point_prediction_batch(self):
        targets = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        preds = targets + np.array([[[0.5, -0.5]], [[1.0, -1.0]]])
        rep = metrics.evaluate([(targets, preds)])
        assert rep.crps_mean == rep.mae  # identical reductions, bitwise
        assert math.isnan(rep.avg_width) and math.isnan(rep.calib_error)
        assert rep.calibration_curve == []
        assert math.isnan(rep.per_horizon[0][2])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            metrics.evaluate([(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)))])

    def test_shape_mismatch_reports_dimensions(self):
        mb = MixtureBatch(np.ones((2, 3, 1)), np.zeros((2, 3, 1)), np.ones((2, 3, 1)))
        cfg = ScoringConfig(interval_range=(-3.0, 3.0))
        with pytest.raises(ValueError,
                           match=r"chunk shape \(2, 3\) differs from its targets' \(2, 4\)"):
            metrics.evaluate([(np.zeros((2, 4)), mb)], cfg)

    def test_both_prediction_kinds_rejected(self):
        mb = MixtureBatch(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        cfg = ScoringConfig(interval_range=(-3.0, 3.0))
        for chunks in ([mb, np.zeros((1, 1, 1))], [np.zeros((1, 1, 1)), mb]):
            with pytest.raises(ValueError, match="predictions mix mixtures and point values"):
                metrics.evaluate([(np.zeros((1, 1, 1)), c) for c in chunks], cfg)

    @pytest.mark.parametrize("windows", [[1], [2, 1], [3], []])
    def test_chunks_must_cover_the_targets(self, windows):
        # Each chunk's predictions cover its two target windows exactly,
        # and some chunk holds elements.
        pairs = [(np.zeros((2, 2, 3)), np.zeros((w, 2, 3))) for w in windows]
        with pytest.raises(ValueError, match="differs from its targets|non-empty"):
            metrics.evaluate(pairs)

    def test_chunks_must_share_the_horizon(self):
        pairs = [(np.zeros(shape), np.zeros(shape)) for shape in ((1, 2, 3), (1, 3, 2))]
        with pytest.raises(ValueError, match=r"chunk shape \(1, 3, 2\) has t_f 2, the first 3"):
            metrics.evaluate(pairs)

    def test_mixtures_need_an_interval_range(self):
        # Point predictions score without one; mixtures have no grid to
        # take intervals on.
        y = np.zeros((1, 1, 1))
        assert metrics.evaluate([(y, np.ones((1, 1, 1)))]).crps_mean == 1.0
        mb = MixtureBatch(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="interval_range is required"):
            metrics.evaluate([(y, mb)])

    def test_interval_metrics_aggregate_hpd_scores(self):
        # avg_width is the mean over elements and levels of the kernel's
        # widths (counts x dx), coverage the share of u below each level,
        # and the HPD-PIT the histogram of u; per-horizon figures reduce
        # the same arrays.
        rng = np.random.default_rng(21)
        n, t_f = 24, 3
        w = rng.random((n, 2)) + 0.3
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, 2)), rng.uniform(0.2, 1.0, (n, 2)))
        targets = rng.uniform(-2, 2, n)
        cfg = ScoringConfig(interval_range=(-9.0, 9.0), interval_points=901)
        rep = metrics.evaluate([(targets.reshape(-1, 1, t_f), mb.reshape(-1, 1, t_f))], cfg)
        levels = np.asarray(cfg.levels)
        u, counts, dx = oracles.hpd_scores_on_grid(mb, targets, -9.0, 9.0, 901, levels)
        width = dx * counts
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

    @staticmethod
    def per_element_reference(targets, mb, cfg):
        """The interval figures of a report, aggregated the way `evaluate`
        did when it kept a width per element and level, from the u and
        counts of the same kernels (`_interval_densities`, then
        `hpd_scores`) on the whole flat batch: (u, exact avg_width as a
        Fraction, width per element and level, per-step widths, coverage,
        per-step calib_error, HPD-PIT, HPD-PIT by step)."""
        lo, hi = cfg.interval_range
        x = np.linspace(lo, hi, cfg.interval_points)
        levels, t_f = np.asarray(cfg.levels), targets.shape[-1]
        y = targets.ravel()
        u, counts = np.empty(y.size), np.empty((y.size, levels.size), dtype=np.int64)
        on_grid = (y >= lo) & (y <= hi)
        flat = mb.reshape(y.size)
        inputs = metrics._f32_inputs(flat, y, lo, x)
        for at, dens, p_y in metrics._interval_densities(flat, y, lo, x, inputs)[0]:
            u[at], counts[at] = iv.hpd_scores(dens, p_y, on_grid[at], levels)
        width = (x[1] - x[0]) * counts
        contained = u[:, None] < levels
        cov_step = contained.reshape(-1, t_f, levels.size).mean(axis=0)
        pit_rows = [np.histogram(v, 10, (0.0, 1.0))[0].tolist() for v in u.reshape(-1, t_f).T]
        return (
            u,
            Fraction(float(x[1] - x[0])) * int(counts.sum()) / counts.size,
            width,
            width.reshape(-1, t_f, levels.size).mean(axis=(0, 2)),
            contained.mean(axis=0),
            np.mean(np.abs(cov_step - levels[None, :]), axis=1),
            np.sum(pit_rows, axis=0).tolist(),
            pit_rows,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 9), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
        st.sets(st.integers(1, 8)),
        st.integers(1, 4000),
        st.sampled_from([7, 41, 300]),
        st.sampled_from([metrics.DEFAULT_LEVELS, (0.3,), tuple(np.linspace(0.05, 0.95, 19)), None]),
    )
    def test_tallies_match_per_element_widths(self, seed, shape, cuts, cells, points, levels):
        # Random mixtures, some wide or off-centre enough to clip their
        # mass, targets on and off the grid and on grid points, any split
        # of the windows into prediction chunks and any scoring chunk: the
        # coverage and HPD-PIT figures equal the per-element reference
        # bit for bit, the widths agree within 1e-14, and avg_width is
        # within one ulp of its exact value. Levels None are taken from
        # the u values themselves, so some u equal a level (not covered).
        windows, nodes, t_f, k = shape
        rng = np.random.default_rng(seed)
        size = (windows, nodes, t_f)
        w = rng.random(size + (k,)) + 0.05
        mb = MixtureBatch(w / w.sum(-1, keepdims=True), rng.uniform(-5.0, 5.0, size + (k,)),
                          rng.uniform(0.1, 2.0, size + (k,)) ** 2)
        lo, hi = -4.0, 4.0
        targets = rng.uniform(-5.0, 5.0, size)
        on_point = rng.random(size) < 0.3
        targets[on_point] = np.linspace(lo, hi, points)[rng.integers(0, points, on_point.sum())]
        if levels is None:
            cfg = ScoringConfig(interval_range=(lo, hi), interval_points=points)
            u = self.per_element_reference(targets, mb, cfg)[0]
            inside = np.unique(u[(u > 0.0) & (u < 1.0)])
            levels = tuple(inside[:: max(1, inside.size // 5)][:5]) or (0.5,)
        cfg = ScoringConfig(levels=levels, interval_range=(lo, hi), interval_points=points)
        bounds = [0, *sorted(c for c in cuts if c < windows), windows]
        with mock.patch.object(metrics, "_SCORE_CELLS", cells):
            rep = metrics.evaluate([(targets[a:b], mb[a:b]) for a, b in zip(bounds, bounds[1:])],
                                   cfg)
        _, exact, width, w_step, coverage, ce_step, pit, pit_by_step = (
            self.per_element_reference(targets, mb, cfg))
        assert rep.calibration_curve == [(float(c), float(v)) for c, v in zip(levels, coverage)]
        assert rep.calib_error == float(np.mean(np.abs(coverage - np.asarray(levels))))
        assert [row[3] for row in rep.per_horizon] == ce_step.tolist()
        assert rep.hpd_pit_counts == pit and rep.hpd_pit_counts_by_step == pit_by_step
        assert abs(Fraction(rep.avg_width) - exact) <= Fraction(np.spacing(rep.avg_width))
        assert rep.avg_width == pytest.approx(width.mean(), rel=1e-14, abs=0)
        assert [row[2] for row in rep.per_horizon] == pytest.approx(w_step, rel=1e-14, abs=0)

    def test_pit_bins_are_np_histogram_bins(self):
        # At, just below and just above every bin edge, and at 0 and 1.
        edges = np.linspace(0.0, 1.0, 11)
        u = np.clip(np.concatenate([edges, np.nextafter(edges, -1), np.nextafter(edges, 2)]), 0, 1)
        bins = metrics._pit_bins(u)
        for v, b in zip(u, bins):
            assert np.histogram([v], 10, (0.0, 1.0))[0].tolist() == np.eye(10, dtype=int)[b].tolist()

    def test_target_off_grid_uncovered_at_every_level(self):
        # Coverage is conditional on the grid range: a target outside it is
        # covered at no level, even at its own mixture's peak; a target on
        # an end point of the grid is inside.
        cfg = ScoringConfig(interval_range=(-3.0, 3.0), interval_points=601)
        for y, want in (([3.5, -3.2], 0.0), ([3.0, -3.0], 1.0)):
            y = np.array(y)
            mb = MixtureBatch(np.ones((2, 1)), y[:, None].copy(), np.full((2, 1), 0.5))
            rep = metrics.evaluate([(y.reshape(1, 1, 2), mb.reshape(1, 1, 2))], cfg)
            assert all(cov == want for _, cov in rep.calibration_curve), y


    @staticmethod
    def mixed_batch():
        """(targets, mixtures) of 15 windows x 2 nodes x 4 steps, K = 5,
        with clipped-mass elements and an off-grid target, and a config
        of 301 grid points on (-4, 4)."""
        rng = np.random.default_rng(8)
        n, t_f, pts = 120, 4, 301
        w = rng.random((n, 5)) + 0.2
        w /= w.sum(-1, keepdims=True)
        var = rng.uniform(0.05, 1.0, (n, 5))
        var[:6] *= 40.0
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, 5)), var)
        targets = rng.uniform(-2, 2, n)
        targets[9] = 4.5
        cfg = ScoringConfig(interval_range=(-4.0, 4.0), interval_points=pts)
        return targets.reshape(-1, 2, t_f), mb.reshape(-1, 2, t_f), cfg

    @staticmethod
    def scored(pairs, cfg):
        """The report text and run.json figures of one evaluation."""
        rep = metrics.evaluate(pairs, cfg, meta={"variant": "gmm"})
        results = [rep.clipped_interval_elements, rep.hpd_pit_counts, rep.hpd_pit_counts_by_step]
        return metrics.report_to_text(rep), json.dumps(results)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(1, 14)), st.sampled_from([1, 7 * 4 * 301, metrics._SCORE_CELLS]))
    def test_chunk_size_changes_no_result(self, cuts, cells):
        # Every mean is an exact sum divided once and every tally an integer
        # sum, so any split of the windows into prediction chunks, scored
        # one element, seven rows of 4 steps or all at a time, gives the
        # report text and run.json figures of one whole chunk.
        targets, mb, cfg = self.mixed_batch()
        whole = self.scored([(targets, mb)], cfg)
        bounds = [0, *sorted(cuts), len(targets)]
        with mock.patch.object(metrics, "_SCORE_CELLS", cells):
            chunked = self.scored([(targets[a:b], mb[a:b]) for a, b in zip(bounds, bounds[1:])],
                                  cfg)
        assert chunked == whole
        rep = metrics.report_from_text(whole[0])
        assert json.loads(whole[1])[0] > 0  # clipped-mass elements
        assert json.loads(whole[1])[1][-1] > 0  # the off-grid target has u = 1
        assert math.isfinite(rep.avg_width)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["gmm", "norm", "det"]), st.integers(10, 20), st.integers(1, 2**12),
           st.sets(st.integers(1, 14)))
    def test_blocks_and_scoring_chunks_change_no_result(self, variant, log_cells, block, cuts):
        # The per-element work runs once per block of whole rows and the
        # grid work per scoring chunk. Any scoring-chunk budget from 2**10
        # to 2**20 cells (three elements to all 120 at 301 points), any
        # block cap (one row of 4 steps to all rows) and any split into
        # pairs give the report text and run.json figures of the default
        # sizes, for K = 5 and K = 1 mixtures and for point predictions.
        targets, mb, cfg = self.mixed_batch()
        if variant == "norm":
            mb = MixtureBatch(np.ones(targets.shape + (1,)), mb.means[..., :1].copy(),
                              mb.variances[..., :1].copy())
        preds = mb.point_estimates() if variant == "det" else mb
        whole = self.scored([(targets, preds)], cfg)
        bounds = [0, *sorted(cuts), len(targets)]
        with mock.patch.object(metrics, "_SCORE_CELLS", 2**log_cells), \
                mock.patch.object(metrics, "_BLOCK_ELEMENTS", block):
            split = self.scored([(targets[a:b], preds[a:b]) for a, b in zip(bounds, bounds[1:])],
                                cfg)
        assert split == whole

    @pytest.mark.parametrize("nodes", [10, 50, 200])
    def test_traced_peak_holds_half_size_grid_buffers(self, nodes):
        # The 29 test windows of a 10-session dataset, K = 5 mixtures on the
        # CLI's 500-point grid, in the pairs `cli.evaluate_run` predicts
        # (chunk_rows windows each). Scoring chunks of 2**16 cells keep
        # 768 KiB of grid buffers, and blocks of at most 2**9 elements, with
        # CRPS pair terms K - 1 columns at a time, keep the per-element
        # temporaries small. Measured 0.93, 0.98 and 1.07 MiB at 10, 50 and
        # 200 nodes; scoring chunks of 2**17 cells (1.5 MiB of buffers)
        # with all K (K - 1) / 2 pair columns at once read 1.35, 1.76 and
        # 1.80 MiB.
        rng = np.random.default_rng(nodes)
        t_f, k, windows = 10, 5, 29
        step = metrics.chunk_rows(nodes * t_f, 500)
        pairs = []
        for start in range(0, windows, step):
            shape = (min(step, windows - start), nodes, t_f)
            w = rng.random(shape + (k,)) + 0.1
            mb = MixtureBatch(w / w.sum(-1, keepdims=True), rng.uniform(1.0, 13.0, shape + (k,)),
                              rng.uniform(0.1, 2.0, shape + (k,)) ** 2)
            pairs.append((rng.uniform(0.0, 14.0, shape), mb))
        cfg = ScoringConfig(interval_range=(0.0, 14.0))
        metrics.evaluate(pairs, cfg)  # caches and lazy imports first
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            metrics.evaluate(pairs, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    @pytest.mark.parametrize("offset", range(0, 64, 8))
    def test_memory_placement_changes_no_result(self, offset):
        # The same values at any 8-byte offset mod 64 give the same bytes:
        # no reduction depends on where its operands sit.
        targets, mb, cfg = self.mixed_batch()

        def placed(a):
            buf = np.empty(a.nbytes + 64, dtype=np.uint8)
            at = (offset - buf.ctypes.data) % 64
            out = buf[at : at + a.nbytes].view(a.dtype).reshape(a.shape)
            out[...] = a
            assert out.ctypes.data % 64 == offset
            return out

        moved = gmm.MixtureBatch._valid(placed(mb.weights), placed(mb.means), placed(mb.variances))
        assert self.scored([(placed(targets), moved)], cfg) == self.scored([(targets, mb)], cfg)


class TestFloat32IntervalGrid:
    """The interval grid of `evaluate` is float32, shifted by the grid's
    low end; rows float32 cannot hold are scored on the float64 grid."""

    @staticmethod
    def grid_rows(mb, y, lo, x):
        """(dens, p_y) of `_interval_densities`, groups put back in row order."""
        groups, _ = metrics._interval_densities(mb, y, lo, x, metrics._f32_inputs(mb, y, lo, x))
        dens, p_y = np.empty((y.size, x.size)), np.empty(y.size)
        for at, g_dens, g_p_y in groups:
            dens[at], p_y[at] = g_dens, g_p_y
        return groups, dens, p_y

    @staticmethod
    def scores(mb, y, cfg):
        """(tallies, clipped count) of `_score_mixtures` on a flat batch,
        one step per element, so each tally row is one element's: its
        selected-cell counts (n, L), u < level (n, L) and HPD-PIT bin
        (n, PIT_BINS)."""
        n, levels = y.size, np.asarray(cfg.levels)
        tallies = [np.zeros((n, w), dtype=np.int64) for w in (levels.size, levels.size, 10)]
        clipped, _ = metrics._score_mixtures(mb, y, cfg, levels, metrics._ExactSums(n), tallies,
                                             metrics._GridBuffers())
        return tallies, clipped

    @staticmethod
    def tallies_of(u, counts, levels):
        """What `scores` tallies for per-element u and counts."""
        pit = [np.histogram(v, 10, (0.0, 1.0))[0] for v in u]
        return [counts, u[:, None] < levels, np.array(pit)]

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
            groups, _ = metrics._interval_densities(mb, y, lo, x,
                                                    metrics._f32_inputs(mb, y, lo, x))
            tallies, clipped = self.scores(mb, y, cfg)
            wide = groups[1][0]
            ref_u, ref_counts, _ = oracles.hpd_scores_on_grid(mb[wide], y[wide], lo, hi, points, levels)
            ref_dens = gmm.grid_densities(mb.weights[wide], mb.means[wide], mb.variances[wide], x)
        assert wide.tolist() == [True, True, True, True, False]
        assert groups[1][1].dtype == np.float64 and groups[0][1].dtype == np.float32
        assert np.array_equal(groups[1][1], ref_dens)
        for got, want in zip(tallies, self.tallies_of(ref_u, ref_counts, levels)):
            assert np.array_equal(got[wide], want)
        assert ref_u[1] == 1.0 and tallies[2][[1, 4], -1].tolist() == [1, 1]  # targets off the grid
        assert not tallies[1][[1, 4]].any()
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
            tallies, _ = self.scores(mb, y, cfg)
        ref_u, ref_counts, _ = oracles.hpd_scores_on_grid(mb, y, lo, hi, points, levels)
        for got, want in zip(tallies, self.tallies_of(ref_u, ref_counts, levels)):
            assert np.array_equal(got, want)


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

    def test_interval_points_limit(self):
        # A config allocates no grid, so the limit itself is checked here.
        limit = metrics.MAX_INTERVAL_POINTS
        assert limit == 2**17
        assert ScoringConfig(interval_points=limit).interval_points == limit
        with pytest.raises(ValueError, match=f"interval_points must be at most {limit}, got"):
            ScoringConfig(interval_points=limit + 1)


class TestReportFiles:
    def make_report(self):
        rng = np.random.default_rng(2)
        n = 40
        w = np.ones((n, 1))
        mb = MixtureBatch(w, rng.normal(0, 1, (n, 1)), np.full((n, 1), 0.5))
        targets = rng.normal(0, 1, n)
        return metrics.evaluate(
            [(targets.reshape(5, 2, 4), mb.reshape(5, 2, 4))],
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
        text = metrics.report_to_text(metrics.evaluate([(np.ones((1, 1, 1)), np.ones((1, 1, 1)))]))
        assert "avg_width = na" in text
        back = metrics.report_from_text(text)
        assert math.isnan(back.avg_width)
