"""Unit and property tests for the Gaussian mixture kernel."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from mixcast import gmm, model
from mixcast.gmm import InvalidMixtureError, MixtureBatch


def norm_pdf(x, mu=0.0, var=1.0):
    return math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def head_outputs(m):
    """The (logits, means, logvars) whose mixtures are `m`."""
    with np.errstate(divide="ignore"):
        return np.log(m.weights), m.means, np.log(m.variances)


def nll(m, y):
    return oracles.nll_components_last(*head_outputs(m), y)[0]


def nll_gradients(m, y):
    return oracles.nll_components_last(*head_outputs(m), y)[1]


def log_density(m, x):
    """log p(x) from the package's log-space NLL kernel."""
    return -nll(m, x)


def random_mixture(rng, k=None, mu_span=10.0, var_lo=1e-2, var_hi=10.0):
    k = k or rng.integers(1, 6)
    w = rng.random(k) + 0.05
    w /= w.sum()
    mu = rng.uniform(-mu_span, mu_span, k)
    var = rng.uniform(var_lo, var_hi, k)
    return MixtureBatch(w, mu, var)


class TestConstruction:
    def test_weight_sum_off_rejected(self):
        with pytest.raises(InvalidMixtureError):
            MixtureBatch([0.6, 0.6], [0.0, 1.0], [1.0, 1.0])
        # K = 0, alone or in a batch, leaves nothing to sum to 1.
        for shape in ((0,), (3, 0)):
            with pytest.raises(InvalidMixtureError, match=r"no components \(K = 0\)"):
                MixtureBatch(np.zeros(shape), np.zeros(shape), np.ones(shape))

    def test_small_weight_deviation_renormalized(self):
        m = MixtureBatch([0.5, 0.5 + 5e-7], [0.0, 1.0], [1.0, 1.0])
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidMixtureError):
            MixtureBatch([1.2, -0.2], [0.0, 1.0], [1.0, 1.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidMixtureError):
            MixtureBatch([1.0], [0.0], [-1.0])

    def test_zero_variance_floor_clamped(self):
        m = MixtureBatch([1.0], [5.0], [0.0])
        assert m.variances[0] == pytest.approx(gmm.VAR_FLOOR)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidMixtureError):
            MixtureBatch([1.0], [0.0, 1.0], [1.0])

    def test_k_one_allowed(self):
        assert MixtureBatch([1.0], [0.0], [1.0]).k == 1

    def test_float64_weight_sum_bound_stays_1e6(self):
        MixtureBatch([0.5, 0.5 + 9e-7], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidMixtureError):
            MixtureBatch([0.5, 0.5 + 2e-6], [0.0, 1.0], [1.0, 1.0])
        # The float64 bound stays 1e-6 at any practical K.
        assert gmm._weight_sum_tolerance(np.float64, 10**6) == 1e-6

    def test_float32_softmax_accepted_at_k128(self):
        # A float32 softmax is off from summing to 1 by up to 1.4e-6 at
        # K = 128, past the float64 bound of 1e-6.
        # The softmax of `model.head_mixtures`, rows last: the sum over K
        # adds one row of elements at a time.
        rng = np.random.default_rng(0)
        logits = rng.normal(0.0, 3.0, (128, 50_000)).astype(np.float32)
        e = np.exp(logits - logits.max(axis=0))
        w = (e / e.sum(axis=0)).T
        assert float(np.max(np.abs(gmm._sum_k(w).astype(float) - 1.0))) > 1e-6
        ones = np.ones_like(w)
        m = MixtureBatch(w, np.zeros_like(w), ones)
        assert m.weights.dtype == m.means.dtype == m.variances.dtype == np.float32
        zeros = np.zeros_like(logits[None])
        m = model.head_mixtures((logits[None], zeros, zeros.copy()), (50_000,))
        assert m.shape == (50_000, 1) and m.weights.dtype == np.float32

    def test_float32_weights_off_by_1e3_rejected(self):
        for k in (2, 5, 128):
            w = np.full((4, k), 1.0 / k, dtype=np.float32)
            w[2, 0] += np.float32(1e-3)
            with pytest.raises(InvalidMixtureError, match="weights sum to"):
                MixtureBatch(w, np.zeros_like(w), np.ones_like(w))

    def test_kernels_keep_float32(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (6, 3)).astype(np.float32)
        mu = rng.normal(0, 1, (6, 3)).astype(np.float32)
        logvar = rng.uniform(-0.7, 0.7, (6, 3)).astype(np.float32)
        y = rng.normal(0, 1, 6).astype(np.float32)
        nll32, grads = oracles.nll_components_last(logits, mu, logvar, y)
        assert nll32.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads)
        # The float64 kernel on the same values agrees to float32 rounding.
        nll64, _ = oracles.nll_components_last(*(a.astype(float) for a in (logits, mu, logvar, y)))
        np.testing.assert_allclose(nll32, nll64, rtol=1e-5, atol=1e-6)


class TestLogDensity:
    """The log-density as the NLL kernel computes it."""

    def test_standard_normal_peak(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert log_density(m, 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_bimodal_direct_sum_oracle(self):
        # Two-term sum evaluated with a scalar normal pdf.
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        expected = math.log(0.5 * norm_pdf(0.0, -2.0) + 0.5 * norm_pdf(0.0, 2.0))
        got = log_density(m, 0.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-2.9189385, abs=1e-6)

    def test_far_tail_is_finite(self):
        m = MixtureBatch([0.2] * 5, [-2.0, -1.0, 0.0, 1.0, 2.0], [1.0] * 5)
        v = log_density(m, 50.0)
        assert np.isfinite(v) and v < -100

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_extreme_offsets_never_nan(self, x):
        m = MixtureBatch([0.3, 0.7], [-1.0, 1.0], [1.0, 0.5])
        assert np.isfinite(log_density(m, x))

    def test_zero_weight_component_ignored(self):
        m = MixtureBatch([1.0, 0.0], [0.0, 100.0], [1.0, 1.0])
        ref = MixtureBatch([1.0], [0.0], [1.0])
        assert log_density(m, 0.3) == pytest.approx(log_density(ref, 0.3), abs=1e-12)

    def test_normalization_randomized(self):
        # Riemann mass of exp(log_density) over an 8-sigma window.
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_mixture(rng)
            smax = math.sqrt(m.variances.max())
            lo, hi = m.means.min() - 8 * smax, m.means.max() + 8 * smax
            x = np.linspace(lo, hi, 10_000)
            dens = np.exp(log_density(m, x))
            assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-3)


def slab_rows(k_lo, k_hi, elements):
    """(M, K) arrays with K in [k_lo, k_hi], entries drawn from `elements`."""
    return st.integers(k_lo, k_hi).flatmap(
        lambda k: st.lists(
            st.lists(elements, min_size=k, max_size=k), min_size=1, max_size=4
        ).map(lambda rows: np.array(rows, dtype=float))
    )


def assert_same_bits(got, ref):
    """Equal bit patterns (so +0.0 and -0.0 differ), any NaN equal to any NaN."""
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))


class TestSlabReductions:
    """`_sum_k` against numpy's sum over the last axis."""

    # Any double, plus the -inf log-weight terms that zero weights produce.
    @given(slab_rows(1, 7, st.one_of(st.floats(), st.just(-math.inf))))
    def test_bitwise_equal_up_to_seven_components(self, a):
        with np.errstate(all="ignore"):
            assert_same_bits(gmm._sum_k(a), np.sum(a, axis=-1))

    @given(slab_rows(8, 12, st.floats(-1e300, 1e300)))
    def test_sum_within_rounding_from_eight_components(self, a):
        # numpy's pairwise sum unrolls by eight from here on, so only the
        # rounding of the two addition orders differs.
        np.testing.assert_array_less(
            np.abs(gmm._sum_k(a) - np.sum(a, axis=-1)),
            1e-15 * np.sum(np.abs(a), axis=-1) + np.finfo(float).tiny,
        )


def mixture_rows(k_max=5, rows_max=4):
    """(M, K) batches of mixtures with log-variances across the clamp range."""
    component = st.tuples(
        st.floats(0.0, 1.0),
        st.floats(-50.0, 50.0),
        st.floats(gmm.LOG_VAR_MIN, gmm.LOG_VAR_MAX),
    )
    return st.integers(1, k_max).flatmap(
        lambda k: st.lists(
            st.lists(component, min_size=k, max_size=k).filter(
                lambda row: sum(c[0] for c in row) > 0
            ),
            min_size=1,
            max_size=rows_max,
        )
    )


class TestGridDensities:
    @given(mixture_rows(), st.floats(-100.0, 100.0), st.floats(0.01, 100.0))
    def test_matches_log_space_density(self, rows, x0, span):
        w, mu, logvar = (np.array([[c[i] for c in row] for row in rows]) for i in range(3))
        mb = MixtureBatch(w / w.sum(axis=1, keepdims=True), mu, np.exp(logvar))
        x = np.linspace(x0, x0 + span, 64)
        got = gmm.grid_densities(mb.weights, mb.means, mb.variances, x)
        ref = np.exp(oracles.log_density(mb, np.broadcast_to(x, got.shape).T).T)
        assert got.shape == (len(rows), x.size)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        keep = ref > 1e-300
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0.0)


    def test_follows_input_dtype(self):
        # float32 in, float32 out (the interval grid of evaluate); anything
        # else float64, as the ridge table and the oracles use it.
        rng = np.random.default_rng(4)
        w = np.full((3, 2), 0.5)
        mu, var = rng.normal(0, 1, (3, 2)), rng.uniform(0.5, 2.0, (3, 2))
        x = np.linspace(-3.0, 3.0, 7)
        f32 = [a.astype(np.float32) for a in (w, mu, var, x)]
        assert gmm.grid_densities(*f32).dtype == np.float32
        assert gmm.grid_densities(*f32[:3], f32[3][:3, None]).dtype == np.float32
        assert gmm.grid_densities(w, mu, var, x).dtype == np.float64
        assert gmm.grid_densities(*f32[:3], x).dtype == np.float64
        np.testing.assert_allclose(gmm.grid_densities(*f32), gmm.grid_densities(w, mu, var, x),
                                   rtol=1e-5)


class TestNLL:
    def test_standard_normal_values(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert nll(m, 0.0) == pytest.approx(0.9189385, abs=1e-6)
        assert nll(m, 1.0) == pytest.approx(0.9189385 + 0.5, abs=1e-6)

    def test_bimodal_negates_log_density(self):
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        assert nll(m, 0.0) == pytest.approx(2.9189385, abs=1e-6)

    def test_finite_at_huge_standardized_distance(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert np.isfinite(nll(m, 1e6))


def random_head_outputs(rng, rows, k, logvar_range=(gmm.LOG_VAR_MIN, gmm.LOG_VAR_MAX)):
    """Random rows-last (logits, means, logvars), each (k, rows), and
    targets (1, rows), drawn components last."""
    full = (rows, k)
    params = (rng.normal(0, 2, full), rng.normal(0, 3, full), rng.uniform(*logvar_range, full))
    return tuple(np.ascontiguousarray(a.T) for a in params) + (rng.normal(0, 3, (1, rows)),)


def softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def mixtures_of(logits, means, logvars):
    """The (rows, K) MixtureBatch of rows-last float64 head outputs."""
    return MixtureBatch(softmax(logits.T), means.T, np.exp(logvars.T))


def reference_gradients(logits, means, logvars, y):
    """(log responsibility ratios, gradients) of rows-last head outputs in
    float64 from the weight/variance formulas, with no cutoff."""
    pi = softmax(logits.T).T
    d = y - means
    terms = np.log(pi) - 0.5 * d * d * np.exp(-logvars) - 0.5 * logvars
    ratio = terms - terms.max(axis=0)
    gamma = np.exp(ratio) / np.exp(ratio).sum(axis=0)
    q = 0.5 * d * d * np.exp(-logvars)
    return ratio, (pi - gamma, -gamma * d * np.exp(-logvars), gamma * (0.5 - q))


class TestLogSpaceNLL:
    """The kernel works rows last from logits and log-variances; the
    weight/variance formula of `oracles.log_density` is its float64
    reference."""

    # Measured worst over these 60 cases: 8.8e-16 of max(1, |nll|).
    ORACLE_RTOL = 1e-13

    def test_matches_log_density_oracle(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            logits, means, logvars, y = random_head_outputs(rng, 128, int(rng.integers(1, 7)))
            nll = gmm.nll_and_gradients(logits, means, logvars, y)[0]
            ref = -oracles.log_density(mixtures_of(logits, means, logvars), y[0])
            assert nll.dtype == np.float64 and nll.shape == y.shape
            assert np.all(np.abs(nll[0] - ref) <= self.ORACLE_RTOL * np.maximum(1.0, np.abs(ref)))

    def test_nll_same_bits_without_gradients(self):
        rng = np.random.default_rng(5)
        for dtype in (np.float64, np.float32):
            args = [a.astype(dtype) for a in random_head_outputs(rng, 36, 5)]
            with_grad = gmm.nll_and_gradients(*args)[0]
            nll, grads = gmm.nll_and_gradients(*args, gradients=False)
            assert grads is None
            np.testing.assert_array_equal(nll.view(np.uint8), with_grad.view(np.uint8))

    def test_float32_within_bounds_of_float64(self):
        # The model-level bounds of test_model.TestComputeDtype: loss 1e-6
        # relative, each gradient within 1e-5 of its largest entry. Measured
        # worst over 400 seeds of this draw: 1.3e-7 and 2.4e-6. The
        # responsibility cutoff drops components in most of these draws.
        dropped = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            args32 = [a.astype(np.float32)
                      for a in random_head_outputs(rng, 128, int(rng.integers(2, 7)), (-3, 3))]
            ratio, _ = reference_gradients(*(a.astype(float) for a in args32))
            dropped += int(np.count_nonzero(ratio < gmm.LOG_RESP_CUTOFF))
            nll64, grads64 = gmm.nll_and_gradients(*(a.astype(float) for a in args32))
            nll32, grads32 = gmm.nll_and_gradients(*args32)
            assert nll32.dtype == np.float32
            assert abs(float(nll32.mean()) - nll64.mean()) <= 1e-6 * abs(nll64.mean())
            for g32, g64 in zip(grads32, grads64):
                assert g32.dtype == np.float32
                assert np.max(np.abs(g32 - g64)) <= 1e-5 * np.max(np.abs(g64))
        assert dropped > 0


@st.composite
def grid_head_outputs(draw):
    """Rows-last head outputs on coarse grids (so that mean - target is 0
    or at least 1/64, and float32 holds every value): logits in [-10, 10],
    means and targets in [-50, 50], log-variances across the clamp range."""
    k, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def grid(lo, hi, step, shape):
        n = int(np.prod(shape))
        values = draw(st.lists(st.integers(int(lo / step), int(hi / step)),
                               min_size=n, max_size=n))
        return np.array(values, dtype=float).reshape(shape) * step

    return (grid(-10, 10, 1 / 8, (k, rows)), grid(-50, 50, 1 / 64, (k, rows)),
            grid(gmm.LOG_VAR_MIN, gmm.LOG_VAR_MAX, 1 / 16, (k, rows)),
            grid(-50, 50, 1 / 64, (1, rows)))


class TestResponsibilityCutoff:
    """Responsibilities below e**LOG_RESP_CUTOFF of their element's largest
    are exactly 0; the NLL and gradients move by no more than rounding."""

    CUT = gmm.LOG_RESP_CUTOFF

    @given(grid_head_outputs())
    def test_zero_or_at_least_cutoff_of_largest(self, args):
        logits, means, logvars, y = args
        nll, (d_logits, d_means, d_logvars) = gmm.nll_and_gradients(*args)
        # The kernel's responsibilities, recovered from d_means = gamma * r
        # with r as the kernel forms it, or from d_logvars = gamma / 2
        # where the mean sits on the target.
        d = means - y
        on_target = d == 0
        r = np.exp(-logvars) * np.where(on_target, 1.0, d)
        gamma = np.where(on_target, 2 * d_logvars, d_means / r)
        kept = gamma != 0
        assert np.all(gamma >= 0)
        top = np.broadcast_to(gamma.max(axis=0), gamma.shape)
        assert np.all(gamma[kept] >= math.exp(self.CUT) * top[kept] * (1 - 1e-9))
        # Dropped exactly where the log ratio lies below the cutoff, up to
        # the rounding of the log terms.
        ratio, ref_grads = reference_gradients(*args)
        slack = 1e-6 + 1e-12 * np.max(np.abs(ratio))
        assert not np.any(kept & (ratio < self.CUT - slack))
        assert np.all(kept[ratio > self.CUT + slack])
        # Today's bounds: the NLL oracle's rtol, and each gradient within
        # 1e-5 of its largest entry of the formula without a cutoff.
        ref = -oracles.log_density(mixtures_of(logits, means, logvars), y[0])
        assert np.all(np.abs(nll[0] - ref)
                      <= TestLogSpaceNLL.ORACLE_RTOL * np.maximum(1.0, np.abs(ref)))
        for g, g_ref in zip((d_logits, d_means, d_logvars), ref_grads):
            assert np.max(np.abs(g - g_ref)) <= 1e-5 * np.max(np.abs(g_ref))

    def test_float32_gradients_have_no_subnormals(self):
        # Components far from their targets: without the cutoff, some
        # responsibilities would land between the float32 subnormal floor
        # (1.4e-45) and the smallest normal (1.2e-38).
        rng = np.random.default_rng(8)
        logits, means, logvars, y = random_head_outputs(rng, 4000, 5, (-3, 1))
        y = y + rng.choice([-9.0, 9.0], y.shape)
        args32 = [a.astype(np.float32) for a in (logits, means, logvars, y)]
        ratio, _ = reference_gradients(*(a.astype(float) for a in args32))
        tiny = np.finfo(np.float32).tiny
        assert np.count_nonzero((np.exp(ratio) < tiny) & (ratio > -103.9)) > 100
        _, grads = gmm.nll_and_gradients(*args32)
        for g in grads:
            assert not np.any((g != 0) & (np.abs(g) < tiny))


class TestGradients:
    def test_single_component_closed_form(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        d_logit, d_mean, d_logvar = nll_gradients(m, 1.0)
        assert d_mean[0] == pytest.approx(-1.0, abs=1e-12)
        assert d_logvar[0] == pytest.approx(0.0, abs=1e-12)
        assert d_logit[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_mixture_logit_gradient_vanishes(self):
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        d_logit, _, _ = nll_gradients(m, 0.0)
        np.testing.assert_allclose(d_logit, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        # Float64 central differences on logits/means/log-variances, 100 cases.
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            k = int(rng.integers(1, 6))
            args = [rng.normal(0, 1, k), rng.uniform(-3, 3, k), rng.uniform(-1.5, 1.5, k)]
            y = rng.uniform(-4, 4)
            grads = oracles.nll_components_last(*args, y)[1]
            for which, grad in enumerate(grads):
                for i in range(k):
                    up = [a.copy() for a in args]
                    dn = [a.copy() for a in args]
                    up[which][i] += h
                    dn[which][i] -= h
                    fd = (oracles.nll_components_last(*up, y)[0]
                          - oracles.nll_components_last(*dn, y)[0]) / (2 * h)
                    # Floor the denominator at the FD noise scale so exact
                    # zeros compare on absolute terms.
                    denom = max(abs(fd), abs(grad[i]), 1e-6)
                    assert abs(fd - grad[i]) / denom < 1e-4


class TestCDF:
    def test_standard_normal_median(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert m.cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_975_quantile(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        assert m.cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_bimodal_midpoint_half_mass(self):
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1e-6, 1e-6])
        assert m.cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=-50, max_value=49, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, x):
        m = MixtureBatch([0.4, 0.6], [-1.0, 3.0], [0.5, 2.0])
        assert m.cdf(x) <= m.cdf(x + 1.0) + 1e-15

    def test_consistent_with_density(self):
        # Numerical derivative of the CDF matches the density.
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_mixture(rng, mu_span=5.0, var_lo=0.1, var_hi=4.0)
            x = np.linspace(m.means.min() - 5, m.means.max() + 5, 2001)
            F = gmm.cdf_values(m.weights, m.means, m.variances, x)
            dens = np.exp(log_density(m, x))
            dx = x[1] - x[0]
            deriv = (F[2:] - F[:-2]) / (2 * dx)
            assert np.max(np.abs(deriv - dens[1:-1])) < 1e-4


class TestErfHelpers:
    # scipy.special is the oracle here only; the package computes both
    # from math.erf / math.erfc.
    Z = np.linspace(-10.0, 10.0, 200_001)

    def test_norm_cdf_matches_ndtr(self):
        ref = special.ndtr(self.Z)
        assert np.all(np.abs(gmm.norm_cdf(self.Z) - ref) <= 1e-14 * ref)

    def test_erf_matches_scipy(self):
        ref = special.erf(self.Z)
        assert np.all(np.abs(gmm.erf(self.Z) - ref) <= 1e-14 * np.abs(ref))

    def test_scalar_and_shape(self):
        assert gmm.norm_cdf(0.0) == 0.5 and gmm.erf(0.0) == 0.0
        assert gmm.erf(np.zeros((2, 3))).shape == (2, 3)


class TestPointEstimate:
    def test_symmetric_bimodal_is_zero(self):
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        assert m.point_estimates() == pytest.approx(0.0, abs=1e-15)

    def test_weighted_sum(self):
        m = MixtureBatch([0.3, 0.7], [0.0, 10.0], [1.0, 1.0])
        assert m.point_estimates() == pytest.approx(7.0, abs=1e-12)

    def test_uniform_anchor_mixture_is_zero(self):
        # Equal weights over symmetric anchors [-2..2] cancel exactly.
        m = MixtureBatch([0.2] * 5, [-2.0, -1.0, 0.0, 1.0, 2.0], [1.0] * 5)
        assert m.point_estimates() == pytest.approx(0.0, abs=1e-15)


class TestSampling:
    def test_floor_clamped_delta(self):
        m = MixtureBatch([1.0], [5.0], [0.0])
        draws = oracles.sample(m, np.random.default_rng(0), 1000)
        assert np.max(np.abs(draws - 5.0)) < 6 * math.sqrt(gmm.VAR_FLOOR)

    def test_bimodal_mean_within_clt_bound(self):
        m = MixtureBatch([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        n = 1_000_000
        draws = oracles.sample(m, np.random.default_rng(1), n)
        _, var = oracles.mixture_moments(m)
        assert abs(draws.mean()) < 4 * math.sqrt(var / n)

    def test_standard_normal_variance_within_one_percent(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        draws = oracles.sample(m, np.random.default_rng(2), 1_000_000)
        assert draws.var() == pytest.approx(1.0, rel=0.01)

    def test_n_zero_rejected(self):
        m = MixtureBatch([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            oracles.sample(m, np.random.default_rng(0), 0)


class TestSingleGaussianEquivalence:
    """K=1 must reproduce scalar-Gaussian closed forms to 1e-12."""

    def test_all_operations(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = rng.uniform(-5, 5)
            var = rng.uniform(0.05, 9.0)
            x = rng.uniform(-8, 8)
            m = MixtureBatch([1.0], [mu], [var])
            ref_logpdf = -0.5 * ((x - mu) ** 2 / var + math.log(2 * math.pi * var))
            assert oracles.log_density(m, x) == pytest.approx(ref_logpdf, abs=1e-12)
            assert nll(m, x) == pytest.approx(-ref_logpdf, abs=1e-12)
            z = (x - mu) / math.sqrt(var)
            assert m.cdf(x) == pytest.approx(0.5 * math.erfc(-z / math.sqrt(2)), abs=1e-12)
            assert m.point_estimates() == pytest.approx(mu, abs=1e-12)
            d_logit, d_mean, d_logvar = nll_gradients(m, x)
            assert d_mean[0] == pytest.approx(-(x - mu) / var, abs=1e-12)
            assert d_logvar[0] == pytest.approx(-((x - mu) ** 2 / (2 * var) - 0.5), abs=1e-12)
            assert d_logit[0] == pytest.approx(0.0, abs=1e-12)


class TestMixtureBatch:
    @given(mixture_rows(rows_max=1), st.floats(-100.0, 100.0))
    def test_single_mixture_matches_direct_sums(self, rows, x):
        w, mu, logvar = (np.array([c[i] for c in rows[0]]) for i in range(3))
        m = MixtureBatch(w / w.sum(), mu, np.exp(logvar))
        assert m.shape == ()
        parts = list(zip(m.weights.tolist(), m.means.tolist(), m.variances.tolist()))
        dens = sum(wk * norm_pdf(x, mk, vk) for wk, mk, vk in parts)
        if dens > 1e-300:
            ref = math.log(dens)
            for got in (log_density(m, x), oracles.log_density(m, x)):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        ref_cdf = sum(wk * 0.5 * math.erfc(-((x - mk) / math.sqrt(vk)) / math.sqrt(2))
                      for wk, mk, vk in parts)
        # Subnormal tail masses carry no relative precision.
        assert m.cdf(x) == pytest.approx(ref_cdf, rel=1e-12, abs=1e-300)
        # Relative to the size of the terms, which may cancel.
        terms = [wk * mk for wk, mk, _ in parts]
        assert abs(m.point_estimates() - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)

    def test_index_selects_elements_without_revalidation(self):
        rng = np.random.default_rng(4)
        w = rng.random((6, 3)) + 0.1
        mb = MixtureBatch(w / w.sum(-1, keepdims=True), rng.normal(size=(6, 3)),
                          rng.uniform(0.5, 2.0, (6, 3)))
        part = mb[2:5]
        assert part.shape == (3,) and part.k == 3
        for name in ("weights", "means", "variances"):
            # The same bits as the parent's rows, not renormalized copies.
            assert np.shares_memory(getattr(part, name), getattr(mb, name))
            assert np.array_equal(getattr(part, name), getattr(mb, name)[2:5])
        assert mb[4].shape == ()

    def test_scale_shift_matches_change_of_variable(self):
        m = MixtureBatch([0.5, 0.5], [-1.0, 1.0], [0.5, 2.0])
        mb = MixtureBatch(m.weights[None], m.means[None], m.variances[None])
        raw = mb.scale_shift(3.0, 10.0)
        # Density transforms with the Jacobian 1/scale.
        x, scale = 0.7, 3.0
        lhs = oracles.log_density(raw, np.array([scale * x + 10.0]))[0]
        rhs = oracles.log_density(mb, np.array([x]))[0] - math.log(scale)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sample_one_each_calibrated_means(self):
        rng = np.random.default_rng(9)
        n = 200_000
        mb = MixtureBatch(
            np.tile([0.3, 0.7], (n, 1)),
            np.tile([0.0, 10.0], (n, 1)),
            np.tile([1.0, 1.0], (n, 1)),
        )
        draws = oracles.sample_one_each(mb, rng)
        assert draws.mean() == pytest.approx(7.0, abs=0.05)
