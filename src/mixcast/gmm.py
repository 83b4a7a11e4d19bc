"""Univariate Gaussian mixture kernel: one mixture type, `MixtureBatch`
((..., K) parameter arrays; a single mixture has element shape ()), with
grid densities, CDF and point estimates, and the training NLL.

The NLL and its gradients (`nll_and_gradients`) work in log space from
the head's raw outputs, as mixture density networks do (Bishop 1994):
log-weights by a log-softmax of the logits, variances only as
exp(-logvar) and logvar / 2, so training forms no weights, variances or
`MixtureBatch`. The kernel takes its arrays rows last, (..., K, M), as
the head computes them, so every step, the sums over the K components
included, runs over contiguous rows; responsibilities below e**-60 of
their element's largest are set to 0, which keeps float32 subnormals out
of the gradients. Densities on a shared grid and at interval targets
have one plain-space implementation (`grid_densities`).

Everything here is a pure function of its inputs. A `MixtureBatch`
neither copies nor freezes its arrays, so callers that share one must
not mutate them.

The kernels follow the dtype of their inputs: float32 arrays (training
and the interval grid of evaluation compute in float32) stay float32,
and anything else is computed in float64.

`MixtureBatch` keeps the components last, (..., K), and sums (`_sum_k`)
and renormalizes over them one component at a time: a numpy operation
along, or broadcast over, a length-K last axis loops over rows of K and
is several times slower at these shapes. The normal CDF terms come from
`math.erf` and `math.erfc` applied elementwise (`erf`, `norm_cdf`), so
the package needs no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Predicted log-variances are clamped to this range before exponentiation;
# the same floor is applied to directly-constructed mixtures so a component
# can never collapse to an exact delta.
LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0
VAR_FLOOR = float(np.exp(LOG_VAR_MIN))

# Weight sums within this tolerance are renormalized silently; anything
# further off is a contract violation. `_weight_sum_tolerance` widens it
# for float32 at larger K.
_WEIGHT_SUM_REJECT = 1e-6

# `nll_and_gradients` zeroes responsibilities below e**this of the largest.
LOG_RESP_CUTOFF = -60.0


_SQRT_HALF = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_ERF = np.frompyfunc(math.erf, 1, 1)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


class InvalidMixtureError(ValueError):
    """Mixture parameters violate their contract (weights/variances)."""


def _float_array(a):
    """`a` as a float array: float32 stays float32, anything else becomes
    float64 (without a copy when it already is)."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=float)


def _weight_sum_tolerance(dtype, k: int) -> float:
    """How far from 1 a weight sum of `k` components in `dtype` may be:
    1e-6 in float64 for any practical K, 2 K eps in float32 past K = 4.
    A float32 softmax sums K rounded quotients; over 200,000 rows its sums
    were off by up to 1.3e-6 at K = 64 and 1.4e-6 at K = 128."""
    return max(_WEIGHT_SUM_REJECT, 2 * k * float(np.finfo(dtype).eps))


def _sum_k(a):
    """Sum over the last (component) axis, one slab at a time.

    Equal to `np.sum(a, axis=-1)` bit for bit for K <= 7: numpy's pairwise
    sum adds fewer than eight terms in order onto +0.0, as this loop does
    (so an all -0.0 row sums to +0.0 here too). For K >= 8 numpy unrolls
    into eight partial sums, so the two differ by rounding only (below
    1e-15 of the sum of |a| in the tests, K = 8..12). Needs K >= 1.
    """
    out = a[..., 0] + 0.0
    for k in range(1, a.shape[-1]):
        out += a[..., k]
    return out


def grid_densities(weights, means, variances, x):
    """Mixture densities of M mixtures on one shared grid.

    `weights/means/variances` have shape (M, K) and `x` shape (P,), or
    (M, 1) for one point per mixture (with the grid's arithmetic, bit for
    bit); the result has shape (M, P) or (M, 1), in float32 when all four
    inputs are float32 and in float64 otherwise. Plain component sums (no
    log space): grid densities may underflow to zero in far tails (below
    about 1e-45 in float32, 1e-323 in float64), which the interval
    selection handles. One scratch buffer keeps the memory traffic flat
    in K.
    """
    dtype = np.result_type(weights, means, variances, x, np.float32)
    dens = np.zeros(np.broadcast_shapes((weights.shape[0], 1), x.shape), dtype=dtype)
    buf = np.empty_like(dens)
    for k in range(weights.shape[1]):
        var = variances[:, k]
        np.subtract(x, means[:, k][:, None], out=buf)
        np.multiply(buf, buf, out=buf)
        buf *= (-0.5 / var)[:, None]
        np.exp(buf, out=buf)
        buf *= (weights[:, k] / np.sqrt(2.0 * np.pi * var))[:, None]
        dens += buf
    return dens


def nll_and_gradients(logits, means, logvars, y, gradients=True):
    """Per-element NLL -log p(y) of the mixtures with weights
    softmax(logits), and its gradients, all in log space.

    Rows last: parameter arrays have shape (..., K, M), the M elements
    along the last axis, and y shape (..., 1, M). Returns (nll, (d_logits,
    d_means, d_logvars)), with nll shaped (..., 1, M) and each gradient
    (..., K, M), or (nll, None) when `gradients` is false (the nll is the
    same, bit for bit). With responsibilities gamma_k = pi_k N(y|k) / p(y):

        d/d logit_k   = -(gamma_k - pi_k)
        d/d mu_k      = -gamma_k (y - mu_k) / var_k
        d/d logvar_k  = -gamma_k ((y - mu_k)^2 / (2 var_k) - 1/2)

    The log-weights come from a log-softmax and the variances only as
    exp(-logvar) and logvar / 2, so no weight or variance is formed.
    A responsibility below e**LOG_RESP_CUTOFF of its element's largest is
    exactly 0.
    """
    # Max-shifted logits: log pi_k = e_k - log(e_sum).
    e = logits - logits.max(axis=-2, keepdims=True)
    # log pi_k + log N(y; mu_k, var_k), with r = (mu_k - y) / var_k and
    # q = (y - mu_k)^2 / (2 var_k), which the gradients reuse.
    d = means - y
    scratch = np.negative(logvars)
    inv_var = np.exp(scratch, out=scratch)
    r = d * inv_var
    d *= 0.5
    q = np.multiply(d, r, out=d)
    terms = e - q
    half_log_var = np.multiply(logvars, 0.5, out=scratch)
    half_log_var += _HALF_LOG_2PI
    terms -= half_log_var
    # -log p(y) by log-sum-exp over the components, with log(e_sum) added
    # back; m is finite whenever some component's term is. The cutoff keeps
    # float32 subnormals (from about e**-87 down) out of the gradients and
    # the gemms that consume them; the largest term contributes 1 to
    # g_sum, so what it drops (under K e**-60) lies far below g_sum's ulp.
    m = terms.max(axis=-2, keepdims=True)
    terms -= m
    kept = np.greater_equal(terms, LOG_RESP_CUTOFF, out=scratch)  # 1.0 or 0.0
    gamma = np.exp(terms, out=terms)
    gamma *= kept
    del scratch, inv_var, half_log_var, kept  # one buffer, freed before the sums
    e_sum = np.exp(e, out=e).sum(axis=-2, keepdims=True)
    g_sum = gamma.sum(axis=-2, keepdims=True)
    nll = np.log(e_sum / g_sum)
    nll -= m
    if not gradients:
        return nll, None
    gamma /= g_sum
    pi = np.divide(e, e_sum, out=e)
    d_means = np.multiply(gamma, r, out=r)
    np.subtract(0.5, q, out=q)
    d_logvars = np.multiply(gamma, q, out=q)
    d_logits = np.subtract(pi, gamma, out=gamma)
    return nll, (d_logits, d_means, d_logvars)


def erf(x):
    """The error function, elementwise (numpy has none): `math.erf` per
    element, about 0.1 us each."""
    return np.asarray(_ERF(x), dtype=float)


def norm_cdf(z):
    """Standard normal CDF as 0.5 erfc(-z / sqrt 2), elementwise, with no
    cancellation in the lower tail: within 5e-15 relative of
    `scipy.special.ndtr` on [-10, 10]. z is multiplied by a rounded
    sqrt(1/2), which lands several times closer than dividing by sqrt 2."""
    return 0.5 * np.asarray(_ERFC(np.multiply(z, -_SQRT_HALF)), dtype=float)


def cdf_values(weights, means, variances, x):
    """Vectorized mixture CDF: weighted standard-normal CDFs."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - means) / np.sqrt(variances)
    return _sum_k(weights * norm_cdf(z))


@dataclass(frozen=True)
class MixtureBatch:
    """A dense array of mixtures: parameter arrays of shape (..., K).

    Used wherever one mixture per (window, location, horizon step) is
    carried around; a single mixture has element shape (). Shapes must
    match and K >= 1; weights must be nonnegative and are renormalized
    when they sum to 1 within `_weight_sum_tolerance` (1e-6 in float64),
    rejected beyond; negative variances are rejected, small ones floored
    at VAR_FLOOR. float32 arrays stay float32, anything else becomes
    float64. No finiteness check: the training loss reports non-finite
    head outputs by element, and `fit` keeps only finite checkpoints.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = _float_array(self.weights)
        mu = _float_array(self.means)
        var = _float_array(self.variances)
        if not (w.shape == mu.shape == var.shape) or w.ndim < 1:
            raise InvalidMixtureError(
                f"batch shape mismatch: {w.shape}, {mu.shape}, {var.shape}"
            )
        if w.shape[-1] == 0:
            raise InvalidMixtureError("mixture has no components (K = 0)")
        if np.any(w < 0.0):
            raise InvalidMixtureError("negative weight in batch")
        sums = _sum_k(w)
        if np.any(np.abs(sums - 1.0) > _weight_sum_tolerance(w.dtype, w.shape[-1])):
            worst = float(sums.ravel()[np.argmax(np.abs(sums - 1.0))])
            raise InvalidMixtureError(f"weights sum to {worst!r}, expected 1")
        normed = np.empty_like(w)
        for k in range(w.shape[-1]):
            np.divide(w[..., k], sums, out=normed[..., k])
        w = normed
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

    def __getitem__(self, index) -> "MixtureBatch":
        """The elements at a basic index over the element axes, as views.
        Elements of a valid batch are valid, so this skips revalidation
        (which would renormalize the weights a second time)."""
        part = object.__new__(MixtureBatch)
        for name in ("weights", "means", "variances"):
            object.__setattr__(part, name, getattr(self, name)[index])
        return part

    def reshape(self, *shape) -> "MixtureBatch":
        new = tuple(shape) + (self.k,)
        return MixtureBatch(
            self.weights.reshape(new), self.means.reshape(new), self.variances.reshape(new)
        )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return cdf_values(self.weights, self.means, self.variances, x)

    def point_estimates(self) -> np.ndarray:
        return _sum_k(self.weights * self.means)

    def scale_shift(self, scale: float, shift: float) -> "MixtureBatch":
        """Affine change of variable y = scale * x + shift (e.g. undoing a
        z-score): means map affinely, variances by scale^2."""
        return MixtureBatch(
            self.weights.copy(),
            self.means * scale + shift,
            self.variances * (scale * scale),
        )
