"""Closed-form CRPS references for checking the scores mixcast reports.

Gaussian mixture (Grimit, Gneiting, Berrocal & Johnson 2006, QJRMS 132):

    CRPS(F, y) = sum_k w_k A(y - mu_k, s_k^2)
                 - 1/2 sum_k sum_l w_k w_l A(mu_k - mu_l, s_k^2 + s_l^2)
    A(m, s^2)  = 2 s phi(m / s) + m (2 Phi(m / s) - 1)

A point forecast scores |value - y|. Only the standard library and numpy
are used, so the reference shares no numerical code with the package.
"""
from __future__ import annotations

import math

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_erf = np.frompyfunc(math.erf, 1, 1)


def erf(x) -> np.ndarray:
    return _erf(np.asarray(x, dtype=float)).astype(float)


def _a(m, s2):
    s = np.sqrt(s2)
    z = m / s
    # 2 Phi(z) - 1 == erf(z / sqrt 2)
    return 2.0 * s * _INV_SQRT_2PI * np.exp(-0.5 * z * z) + m * erf(z / math.sqrt(2.0))


def mixture_crps(weights, means, variances, y) -> np.ndarray:
    """Per-element CRPS of Gaussian mixtures; parameters (..., K), y (...)."""
    w = np.asarray(weights, dtype=float)
    mu = np.asarray(means, dtype=float)
    var = np.asarray(variances, dtype=float)
    y = np.asarray(y, dtype=float)
    spread = np.sum(w * _a(y[..., None] - mu, var), axis=-1)
    pair_w = w[..., :, None] * w[..., None, :]
    pair = _a(mu[..., :, None] - mu[..., None, :], var[..., :, None] + var[..., None, :])
    return spread - 0.5 * np.sum(pair_w * pair, axis=(-2, -1))


def gaussian_crps(mean, variance, y) -> np.ndarray:
    """CRPS of one Gaussian (Gneiting & Raftery 2007, JASA 102)."""
    s = np.sqrt(np.asarray(variance, dtype=float))
    z = (np.asarray(y, dtype=float) - mean) / s
    return s * (z * erf(z / math.sqrt(2.0)) + 2.0 * _INV_SQRT_2PI * np.exp(-0.5 * z * z)
                - 1.0 / math.sqrt(math.pi))


def report_crps(elem_crps: np.ndarray, horizon: int):
    """(crps_mean, per-step CRPS) aggregated as the evaluation report does:
    elements flattened in (window, node, step) order."""
    flat = np.asarray(elem_crps, dtype=float).ravel()
    return float(flat.mean()), flat.reshape(-1, horizon).mean(axis=0)


def crps_rel_err(report, elem_crps: np.ndarray) -> float:
    """Largest relative gap between the report's CRPS numbers (crps_mean
    and each per-horizon CRPS) and the reference."""
    mean, by_step = report_crps(elem_crps, len(report.per_horizon))
    pairs = [(report.crps_mean, mean)]
    pairs += [(row[1], by_step[row[0] - 1]) for row in report.per_horizon]
    return float(max(abs(got - ref) / abs(ref) for got, ref in pairs))
