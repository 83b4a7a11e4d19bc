"""Univariate Gaussian mixture kernel: log-density, NLL and its gradients,
CDF, point estimates and sampling.

Log-densities have one vectorised implementation (`_component_log_terms`
plus `_logsumexp_last`); so do the NLL and its gradients
(`nll_and_gradients`), shared by training and the scalar helpers.

Everything here is a pure function of its inputs. Mixtures are immutable
after construction, so concurrent callers may share them freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Predicted log-variances are clamped to this range before exponentiation;
# the same floor is applied to directly-constructed mixtures so a component
# can never collapse to an exact delta.
LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0
VAR_FLOOR = float(np.exp(LOG_VAR_MIN))
VAR_CAP = float(np.exp(LOG_VAR_MAX))

# Weight sums within this tolerance are renormalized silently; anything
# further off is a contract violation.
_WEIGHT_SUM_REJECT = 1e-6


class InvalidMixtureError(ValueError):
    """Mixture parameters violate their contract (weights/variances)."""


@dataclass(frozen=True)
class GaussianMixture:
    """One univariate mixture: K weights, means, variances.

    Weights must be nonnegative and sum to 1 (renormalized when the
    deviation is below 1e-6, rejected beyond). Negative variances are
    rejected; variances below the floor are clamped up to it.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        mu = np.atleast_1d(np.asarray(self.means, dtype=float)).copy()
        var = np.atleast_1d(np.asarray(self.variances, dtype=float)).copy()
        if w.ndim != 1 or w.shape != mu.shape or w.shape != var.shape:
            raise InvalidMixtureError(
                f"component shape mismatch: weights {w.shape}, "
                f"means {mu.shape}, variances {var.shape}"
            )
        if w.size < 1:
            raise InvalidMixtureError("mixture needs at least one component")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise InvalidMixtureError("non-finite mixture parameter")
        if np.any(w < 0.0):
            raise InvalidMixtureError(f"negative weight: {w.min()!r}")
        s = float(w.sum())
        if abs(s - 1.0) > _WEIGHT_SUM_REJECT:
            raise InvalidMixtureError(f"weights sum to {s!r}, expected 1")
        if abs(s - 1.0) > 1e-9:
            w = w / s
        if np.any(var < 0.0):
            raise InvalidMixtureError(f"negative variance: {var.min()!r}")
        var = np.maximum(var, VAR_FLOOR)
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class PointPrediction:
    """A deterministic prediction, scored as a unit step CDF at its value."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"point prediction must be finite, got {self.value!r}")


def _component_log_terms(weights, means, variances, x):
    """Per-component log(pi_k) + log N(x; mu_k, var_k), broadcast over x.

    `weights/means/variances` have shape (..., K) and `x` shape (...);
    the result has shape (..., K). Zero weights contribute -inf terms,
    which the log-sum-exp reduction handles.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    d = x[..., None] - means
    return log_w - 0.5 * d * d / variances - 0.5 * np.log(2.0 * np.pi * variances)


def _logsumexp_last(terms):
    """log(sum(exp(terms))) over the last axis with max subtraction."""
    m = np.max(terms, axis=-1)
    # m is finite whenever some weight is positive, which the mixture
    # contract guarantees.
    return m + np.log(np.sum(np.exp(terms - m[..., None]), axis=-1))


def log_density_values(weights, means, variances, x):
    """Vectorized mixture log-density; parameter arrays end in a K axis."""
    return _logsumexp_last(_component_log_terms(weights, means, variances, x))


def nll_and_gradients(weights, means, variances, y):
    """Per-element NLL -log p(y) and its gradients with respect to the
    head's trainable quantities, vectorised like `log_density_values`.

    Returns (nll, (d_logits, d_means, d_logvars)); nll has the shape of
    y and each gradient the shape (..., K). Logits are pre-softmax
    weights and logvars log-variances; with responsibilities
    gamma_k = pi_k N(y|k) / p(y):

        d/d logit_k   = -(gamma_k - pi_k)
        d/d mu_k      = -gamma_k (y - mu_k) / var_k
        d/d logvar_k  = -gamma_k ((y - mu_k)^2 / (2 var_k) - 1/2)
    """
    terms = _component_log_terms(weights, means, variances, y)
    lse = _logsumexp_last(terms)
    gamma = np.exp(terms - lse[..., None])
    d = np.asarray(y, dtype=float)[..., None] - means
    d_means = -gamma * d / variances
    d_logvars = -gamma * (d * d / (2.0 * variances) - 0.5)
    return -lse, (weights - gamma, d_means, d_logvars)


def cdf_values(weights, means, variances, x):
    """Vectorized mixture CDF: weighted standard-normal CDFs."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - means) / np.sqrt(variances)
    return np.sum(weights * ndtr(z), axis=-1)


def log_density(m: GaussianMixture, x: float) -> float:
    """log p(x) under the mixture, via log-sum-exp over component terms.

    Stays finite (a large negative value) even when x sits up to about
    1e6 standard deviations from every component.
    """
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return float(log_density_values(m.weights, m.means, m.variances, x))


def nll(m: GaussianMixture, y: float) -> float:
    """Negative log-likelihood of one observation: -log p(y)."""
    return -log_density(m, y)


def nll_gradients(m: GaussianMixture, y: float):
    """Gradients of nll(m, y): (d_logits, d_means, d_logvars), each (K,)."""
    if not np.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    return nll_and_gradients(m.weights, m.means, m.variances, y)[1]


def cdf(m: GaussianMixture, x: float) -> float:
    """Mixture CDF at x; monotone in x with limits 0 and 1."""
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return float(cdf_values(m.weights, m.means, m.variances, x))


def point_estimate(m: GaussianMixture) -> PointPrediction:
    """Probability-weighted mean of the component means."""
    return PointPrediction(float(np.dot(m.weights, m.means)))


def mixture_moments(m: GaussianMixture):
    """(mean, variance) of the mixture itself."""
    mean = float(np.dot(m.weights, m.means))
    second = float(np.dot(m.weights, m.variances + m.means**2))
    return mean, second - mean * mean


def sample(m: GaussianMixture, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws: component index by weight, then a normal draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cum = np.cumsum(m.weights)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, m.k - 1)
    return m.means[idx] + rng.standard_normal(n) * np.sqrt(m.variances[idx])


@dataclass(frozen=True)
class MixtureBatch:
    """A dense array of mixtures: parameter arrays of shape (..., K).

    Used wherever one mixture per (window, location, horizon step) is
    carried around; `at()` recovers a single GaussianMixture.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if not (w.shape == mu.shape == var.shape) or w.ndim < 1:
            raise InvalidMixtureError(
                f"batch shape mismatch: {w.shape}, {mu.shape}, {var.shape}"
            )
        if np.any(w < 0.0):
            raise InvalidMixtureError("negative weight in batch")
        sums = w.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > _WEIGHT_SUM_REJECT):
            worst = float(sums.ravel()[np.argmax(np.abs(sums - 1.0))])
            raise InvalidMixtureError(f"weights sum to {worst!r}, expected 1")
        w = w / sums[..., None]
        if np.any(var < 0.0):
            raise InvalidMixtureError("negative variance in batch")
        var = np.maximum(var, VAR_FLOOR)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def shape(self):
        """Element shape, without the component axis."""
        return self.weights.shape[:-1]

    @property
    def k(self) -> int:
        return self.weights.shape[-1]

    def reshape(self, *shape) -> "MixtureBatch":
        new = tuple(shape) + (self.k,)
        return MixtureBatch(
            self.weights.reshape(new), self.means.reshape(new), self.variances.reshape(new)
        )

    def at(self, idx) -> GaussianMixture:
        return GaussianMixture(self.weights[idx], self.means[idx], self.variances[idx])

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return log_density_values(self.weights, self.means, self.variances, x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return cdf_values(self.weights, self.means, self.variances, x)

    def point_estimates(self) -> np.ndarray:
        return np.sum(self.weights * self.means, axis=-1)

    def scale_shift(self, scale: float, shift: float) -> "MixtureBatch":
        """Affine change of variable y = scale * x + shift (e.g. undoing a
        z-score): means map affinely, variances by scale^2."""
        return MixtureBatch(
            self.weights.copy(),
            self.means * scale + shift,
            self.variances * (scale * scale),
        )

    def sample_one_each(self, rng: np.random.Generator) -> np.ndarray:
        """One draw from every mixture in the batch."""
        cum = np.cumsum(self.weights, axis=-1)
        u = rng.random(self.shape)
        idx = np.sum(u[..., None] > cum, axis=-1)
        idx = np.minimum(idx, self.k - 1)
        mu = np.take_along_axis(self.means, idx[..., None], axis=-1)[..., 0]
        var = np.take_along_axis(self.variances, idx[..., None], axis=-1)[..., 0]
        return mu + rng.standard_normal(self.shape) * np.sqrt(var)
