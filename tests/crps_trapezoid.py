"""Test-side CRPS oracle: trapezoidal integration of (F - H)^2.

The package scores mixtures with the closed form; this grid version only
shares the mixture CDF with it, so tests use it as an independent
reference. Its error is O(dx^2) relative to the narrowest component.
"""
import math

import numpy as np

from mixcast.gmm import cdf_values

_TAIL_SIGMAS = 8.0


def crps_range(m, y: float):
    """Integration bounds: the mixture's 8-sigma support union the same
    padding around y."""
    pad = _TAIL_SIGMAS * math.sqrt(float(np.max(m.variances)))
    lo = min(float(np.min(m.means)) - pad, y - pad)
    hi = max(float(np.max(m.means)) + pad, y + pad)
    return lo, hi


def crps_trapezoid(m, y: float, range_lo: float, range_hi: float, points: int) -> float:
    """CRPS of one mixture by the trapezoid rule on a uniform grid.

    The grid must cover y; otherwise the integrand's step would be
    clipped and the score biased, so such calls are rejected.
    """
    if not range_lo <= y <= range_hi:
        raise ValueError(f"y={y!r} outside integration range [{range_lo!r}, {range_hi!r}]")
    if points < 2:
        raise ValueError(f"need at least 2 integration points, got {points}")
    x = np.linspace(range_lo, range_hi, points)
    f = cdf_values(m.weights, m.means, m.variances, x)
    total = float(np.trapezoid((f - (x >= y)) ** 2, x))
    # The integrand jumps inside the cell holding y; splitting that one
    # cell at y removes an O(dx) bias the node trapezoid would carry.
    j = int(np.searchsorted(x, y, side="left"))
    if j > 0:
        fy = float(cdf_values(m.weights, m.means, m.variances, np.asarray(y, float)))
        total += jump_cell_correction(x[j - 1], x[j], y, f[j - 1], f[j], fy)
    return total


def jump_cell_correction(x_left, x_right, y, f_left, f_right, f_y):
    """Replace the node trapezoid of the cell [x_left, x_right] containing
    y (x_left < y <= x_right) with the two sub-trapezoids split at y."""
    old = (x_right - x_left) * ((f_left**2) + (f_right - 1.0) ** 2) / 2.0
    left = (y - x_left) * (f_left**2 + f_y**2) / 2.0
    right = (x_right - y) * ((f_y - 1.0) ** 2 + (f_right - 1.0) ** 2) / 2.0
    return left + right - old
