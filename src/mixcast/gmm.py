"""Univariate Gaussian mixture kernel: one mixture type, `MixtureBatch`
((..., K) parameter arrays; a single mixture has element shape ()), with
grid densities and point estimates, and the training NLL.

The NLL and its gradients (`nll_and_gradients`) work in log space from
the head's raw outputs, as mixture density networks do (Bishop 1994):
log-weights by a log-softmax of the logits, variances only as
exp(-logvar) and logvar / 2, so training forms no weights, variances or
`MixtureBatch`. The kernel takes its arrays rows last, (..., K, M), as
the head computes them, so every step, the sums over the K components
included, runs over contiguous rows; responsibilities below e**-60 of
their element's largest are set to 0, which keeps float32 subnormals out
of the gradients. It consumes the head outputs it is given, writing its
gradients over them, and needs two scratch arrays of their shape, which
a caller may pass from a reused workspace. Densities on a shared grid
and at interval targets have one plain-space implementation
(`grid_densities`), which can also write into given buffers.

Apart from that kernel and the buffers a caller hands over, everything
here is a pure function of its inputs. A `MixtureBatch` neither copies
nor freezes its arrays, so callers that share one must not mutate them.

The kernels follow the dtype of their inputs: float32 arrays (training
and the interval grid of evaluation compute in float32) stay float32,
and anything else is computed in float64.

`MixtureBatch` keeps the components last, (..., K), and sums (`_sum_k`)
and renormalizes over them one component at a time: a numpy operation
along, or broadcast over, a length-K last axis loops over rows of K and
is several times slower at these shapes. The error function (`erf`) is
vectorized float64 numpy over Cody's (1969) rational approximations, so
the package needs no scipy and makes no Python call per value.
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

# erf's rational approximations (Cody 1969, Math. Comp. 23, 631-638; the
# coefficients of netlib specfun's CALERF), each as (numerator,
# denominator) coefficients in descending powers: erf(x) = x P(x^2) /
# Q(x^2) up to _ERF_NEAR, and 1 - exp(-x^2) R(x) beyond it.
_ERF_NEAR = 0.46875
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_Q = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_P = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_Q = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
# Past this |x| erf is 1 in float64 (erfc(6) = 2.2e-17, under half an ulp
# of 1), and R, fitted on [0.47, 4], still holds erfc to 3e-12 relative.
_ERF_ONE = 6.0


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


def grid_densities(weights, means, variances, x, out=None):
    """Mixture densities of M mixtures on one shared grid.

    `weights/means/variances` have shape (M, K) and `x` shape (P,), or
    (M, 1) for one point per mixture (with the grid's arithmetic, bit for
    bit); the result has shape (M, P) or (M, 1), in float32 when all four
    inputs are float32 and in float64 otherwise. Plain component sums (no
    log space): grid densities may underflow to zero in far tails (below
    about 1e-45 in float32, 1e-323 in float64), which the interval
    selection handles. One scratch buffer keeps the memory traffic flat
    in K: each component refills it with the grid and subtracts its means
    in place, which numpy does faster than the two-way broadcast x - mu.
    The per-component coefficients -1/(2 var) and w / sqrt(2 pi var) are
    taken for all (M, K) at once. `out` is None or a (result, scratch)
    pair of arrays of the result's shape and dtype, the result written
    into the first.
    """
    if out is None:
        dtype = np.result_type(weights, means, variances, x, np.float32)
        shape = np.broadcast_shapes((weights.shape[0], 1), x.shape)
        out = np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype)
    dens, buf = out
    dens[...] = 0.0
    scale = -0.5 / variances
    coef = weights / np.sqrt(2.0 * np.pi * variances)
    for k in range(weights.shape[1]):
        buf[...] = x
        buf -= means[:, k, None]
        np.multiply(buf, buf, out=buf)
        buf *= scale[:, k, None]
        np.exp(buf, out=buf)
        buf *= coef[:, k, None]
        dens += buf
    return dens


def nll_and_gradients(logits, means, logvars, y, gradients=True, scratch=None):
    """Per-element NLL -log p(y) of the mixtures with weights
    softmax(logits), and its gradients, all in log space.

    Rows last: parameter arrays have shape (..., K, M), the M elements
    along the last axis, and y shape (..., 1, M), all of one float dtype.
    Returns (nll, (d_logits, d_means, d_logvars)), with nll shaped
    (..., 1, M) and each gradient (..., K, M), or (nll, None) when
    `gradients` is false (the nll is the same, bit for bit). With
    responsibilities gamma_k = pi_k N(y|k) / p(y):

        d/d logit_k   = -(gamma_k - pi_k)
        d/d mu_k      = -gamma_k (y - mu_k) / var_k
        d/d logvar_k  = -gamma_k ((y - mu_k)^2 / (2 var_k) - 1/2)

    The log-weights come from a log-softmax and the variances only as
    exp(-logvar) and logvar / 2, so no weight or variance is formed.
    A responsibility below e**LOG_RESP_CUTOFF of its element's largest is
    exactly 0.

    The kernel consumes logits, means and logvars: each gradient is
    written over its own input (d_logits over logits, and so on), and
    without gradients the three hold intermediates. Callers that still
    need them pass copies. `scratch` is two arrays of the parameters'
    shape and dtype to work in, or None to allocate them.
    """
    s1, s2 = (np.empty_like(logits), np.empty_like(logits)) if scratch is None else scratch
    # Max-shifted logits: log pi_k = e_k - log(e_sum).
    e = logits
    e -= logits.max(axis=-2, keepdims=True)
    # log pi_k + log N(y; mu_k, var_k), with r = (mu_k - y) / var_k and
    # q = (y - mu_k)^2 / (2 var_k), which the gradients reuse.
    d = means
    d -= y
    inv_var = np.exp(np.negative(logvars, out=s1), out=s1)
    r = np.multiply(d, inv_var, out=s2)
    d *= 0.5
    q = np.multiply(d, r, out=d)
    terms = np.subtract(e, q, out=s1)
    half_log_var = logvars
    half_log_var *= 0.5
    half_log_var += _HALF_LOG_2PI
    terms -= half_log_var
    # -log p(y) by log-sum-exp over the components, with log(e_sum) added
    # back; m is finite whenever some component's term is. The cutoff keeps
    # float32 subnormals (from about e**-87 down) out of the gradients and
    # the gemms that consume them; the largest term contributes 1 to
    # g_sum, so what it drops (under K e**-60) lies far below g_sum's ulp.
    m = terms.max(axis=-2, keepdims=True)
    terms -= m
    kept = np.greater_equal(terms, LOG_RESP_CUTOFF, out=logvars)  # 1.0 or 0.0
    gamma = np.exp(terms, out=terms)
    gamma *= kept
    e_sum = np.exp(e, out=e).sum(axis=-2, keepdims=True)
    g_sum = gamma.sum(axis=-2, keepdims=True)
    nll = np.log(e_sum / g_sum)
    nll -= m
    if not gradients:
        return nll, None
    gamma /= g_sum
    pi = np.divide(e, e_sum, out=e)
    np.subtract(0.5, q, out=q)
    d_logvars = np.multiply(gamma, q, out=logvars)
    d_means = np.multiply(gamma, r, out=means)
    d_logits = np.subtract(pi, gamma, out=logits)
    return nll, (d_logits, d_means, d_logvars)


def _rational(t, p, q):
    """p(t) / q(t) by Horner's rule, for coefficients in descending powers
    and a monic q of the same degree."""
    num = p[0] * t
    num += p[1]
    den = t + q[1]
    for a, b in zip(p[2:], q[2:]):
        num *= t
        num += a
        den *= t
        den += b
    num /= den
    return num


def erf(x):
    """The error function in float64, elementwise (numpy has none), from
    Cody's rational approximations: within 1e-14 relative of
    `scipy.special.erf` (tests/test_gmm.py; measured within 3 ulp of the
    exact value). Computed on |x| and given x's sign, so it is odd
    exactly: erf(+-0) is +-0, erf(+-inf) is +-1 and NaN stays NaN. Both
    branches run on every element; at a scoring chunk's few thousand
    values that is as fast as splitting the array, and about twice as fast
    as `math.erf` per element."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)  # numpy returns scalars, not arrays, from 0-d operands
    y = np.abs(flat)
    np.minimum(y, _ERF_ONE, out=y)
    t = y * y
    near = _rational(t, _ERF_P, _ERF_Q)
    near *= y
    far = _rational(y, _ERFC_P, _ERFC_Q)
    np.negative(t, out=t)
    far *= np.exp(t, out=t)
    np.subtract(1.0, far, out=far)
    np.copyto(far, near, where=y <= _ERF_NEAR)
    return np.copysign(far, flat, out=far).reshape(x.shape)


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

    @staticmethod
    def _valid(weights, means, variances) -> "MixtureBatch":
        """A batch of arrays that already meet the contract, as given.
        Revalidating would renormalize the weights again, and w / sum(w)
        is not idempotent in floating point."""
        mb = object.__new__(MixtureBatch)
        mb.__dict__.update(weights=weights, means=means, variances=variances)
        return mb

    def __getitem__(self, index) -> "MixtureBatch":
        """The elements at a basic index over the element axes, as views."""
        return MixtureBatch._valid(self.weights[index], self.means[index], self.variances[index])

    def reshape(self, *shape) -> "MixtureBatch":
        """The elements in element shape `shape`, as views where numpy can."""
        new = tuple(shape) + (self.k,)
        return MixtureBatch._valid(
            self.weights.reshape(new), self.means.reshape(new), self.variances.reshape(new)
        )

    def point_estimates(self) -> np.ndarray:
        return _sum_k(self.weights * self.means)

    def scale_shift(self, scale: float, shift: float) -> "MixtureBatch":
        """Affine change of variable y = scale * x + shift (e.g. undoing a
        z-score): means map affinely, variances by scale^2 (floored at
        VAR_FLOOR); the weights array is shared."""
        var = self.variances * (scale * scale)
        return MixtureBatch._valid(
            self.weights, self.means * scale + shift, np.maximum(var, VAR_FLOOR, out=var)
        )
