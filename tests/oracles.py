"""Test-side oracles: reference helpers that only tests call.

The mixture CDF (`cdf_values`, on the erfc-based `norm_cdf`) is the
reference for the package's closed-form CRPS and for the grid CRPS of
`crps_trapezoid`. The log-density is the mixture formula in weight and
variance space, the reference for the package's log-space NLL kernel, which
`nll_components_last` calls on (..., K) arrays. The head computed rows
first (`head_rows_first`) pins the checkpoint's branch row order, and
`reference_mixture` is what a fresh head emits. The
per-tensor AdamW step is the reference for the packed optimizer. The dip
statistic checks the generator's bimodality; the sampling helpers
draw targets from predicted mixtures, and `congestion_prone_steps`
picks the generator's high-demand steps. `hpd_select_batch` builds
(M, L, P) HPD selection masks from their definition, the reference that
`intervals.derive_intervals` and `intervals.hpd_scores` are checked
against, and `selection_widths` and `interpolated_u` the second-order
widths and HPD values from their definitions, one grid interval at a
time, and `separated_hpd` the exact HPD region of a mixture of well
separated components; the other interval helpers build one mixture's grid, read
widths, containment, covered cells and selected mass, and run the batch
HPD kernel (u and widths in grid spacings) on the grid evaluation uses. `stacked_windows` is the
windowing that stored every window as its own copy, the reference for
`data.WindowSet`'s gathers, and `batch_windows` joins forecast batches
into the windows `model.blocked_loss` takes. `exact_scores` is the correctly rounded
reference for the means `metrics.evaluate` reports. None of them is on a
CLI or library path, so they live beside the tests.
"""
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from mixcast.data import DataError, SyntheticSpec, demand_profile
from mixcast.gmm import (LOG_VAR_MAX, LOG_VAR_MIN, _SQRT_HALF, MixtureBatch, _sum_k,
                         grid_densities, nll_and_gradients)
from mixcast.training import ADAM_EPS
from mixcast.intervals import MASS_COMPLETE_MIN, IntervalSet, hpd_scores

# Above this pre-normalization cell-sum mass a grid over-counts its
# mixture, the mirror of intervals.MASS_COMPLETE_MIN.
MASS_COMPLETE_MAX = 1.02


# ----------------------------------------------------------------------
# Windowing by stacked copies.
# ----------------------------------------------------------------------


def stacked_windows(d, t_h: int, t_f: int, normalizer, sessions=None):
    """Stride-1 windows that never cross session boundaries, each stored as
    its own copy: normalized inputs (uncovered nodes 0, with the 0/1
    coverage flag channel appended under a mask), normalized and raw
    targets, and each window's session. Sessions too short for one
    window are a DataError."""
    if sessions is None:
        sessions = np.arange(d.sessions)
    need = t_h + t_f
    ins, raws, sids = [], [], []
    for s in sessions:
        steps = d.session_steps
        vals = d.values[s]  # (steps, nodes)
        for o in range(steps - need + 1):
            ins.append(vals[o : o + t_h].T)
            raws.append(vals[o + t_h : o + need].T)
            sids.append(s)
    if not ins:
        raise DataError("no usable windows (all sessions too short)")
    inputs = normalizer.transform(np.stack(ins))
    targets_raw = np.stack(raws)
    if d.coverage is not None:
        flags = np.broadcast_to(d.coverage[None, :, None].astype(float), inputs.shape)
        inputs = np.concatenate([np.where(flags > 0, inputs, 0.0), flags], axis=2)
    return SimpleNamespace(inputs=inputs, targets=normalizer.transform(targets_raw),
                           targets_raw=targets_raw, session_ids=np.asarray(sids))


def batch_windows(*batches):
    """The windows of `batches`, joined in order, as `model.blocked_loss`
    takes them: their `count`, and `gather(idx)` giving copies of the
    (inputs, targets) of the windows `idx`, as a `data.WindowSet` does."""
    inputs = np.concatenate([b.inputs for b in batches])
    targets = np.concatenate([b.targets for b in batches])
    return SimpleNamespace(count=len(targets),
                           gather=lambda idx: (inputs[idx].copy(), targets[idx].copy()))


# ----------------------------------------------------------------------
# Correctly rounded means.
# ----------------------------------------------------------------------


def exact_sum(values) -> Fraction:
    """The exact sum of finite floats: integer arithmetic over the common
    denominator 2**1074, the float spacing at the bottom of the range."""
    total = 0
    for v in np.ravel(values).tolist():
        num, den = v.as_integer_ratio()  # den is a power of 2
        total += num << (1075 - den.bit_length())
    return Fraction(total, 1 << 1074)


def exact_scores(y, point, crps, t_f: int, mape_epsilon: float):
    """(crps_mean, CRPS per step, mae, mape, rmse) as correctly rounded
    means of the per-element terms over flat elements in rows of t_f
    steps: each exact sum is divided once and rounded once; rmse is the
    square root of the rounded mean of e**2 and mape 100 times the rounded
    mean of |e / y| over |y| >= mape_epsilon (NaN if no target is kept)."""
    e = point - y
    keep = np.abs(y) >= mape_epsilon
    n = y.size

    def mean(values, count):
        return float(exact_sum(values) / count)

    return (
        mean(crps, n),
        [mean(col, n // t_f) for col in crps.reshape(-1, t_f).T],
        mean(np.abs(e), n),
        100.0 * mean(np.abs(e[keep] / y[keep]), keep.sum()) if keep.any() else math.nan,
        math.sqrt(mean(e * e, n)),
    )


def congestion_prone_steps(spec: SyntheticSpec) -> np.ndarray:
    """Step indices where demand exceeds the halfway propensity."""
    d = demand_profile(spec)
    return np.flatnonzero(d >= 0.5 * (spec.demand_base + spec.demand_peak))


# ----------------------------------------------------------------------
# Unimodality departure (dip) statistic.
# ----------------------------------------------------------------------


def _prefix_fit_error(v, lo, hi):
    """Minimal sup-norm inflation D admitting a convex function inside
    the tube [lo - D, hi + D] on each prefix.

    A convex selection exists iff the greatest convex minorant of the
    upper bound clears the lower bound, and the minorant at any point is
    the minimum over chords of upper-bound points straddling it, so the
    required D is the largest (lo_p - chord_hi(i, j)(v_p)) / 2 over
    triples i <= p <= j in the prefix.

    Returns (incl, mode): incl[j] covers the full prefix through j;
    mode[j] drops the lower-bound constraint at j itself (the mode point,
    where the CDF may jump), keeping chord constraints that end there.
    """
    t_count = v.size
    incl = np.empty(t_count)
    mode = np.empty(t_count)
    run = -np.inf
    for j in range(t_count):
        own = (lo[j] - hi[j]) / 2.0  # single-point tube half-width
        interior = -np.inf
        if j > 0:
            i = np.arange(j)
            p = np.arange(j)  # strictly before j
            slope = (hi[j] - hi[i]) / (v[j] - v[i])
            chord = hi[i][:, None] + slope[:, None] * (v[p][None, :] - v[i][:, None])
            viol = (lo[p][None, :] - chord) / 2.0
            ok = i[:, None] <= p[None, :]
            interior = float(np.max(np.where(ok, viol, -np.inf)))
        mode[j] = max(run, interior, 0.0)
        run = max(run, interior, own)
        incl[j] = run
    return incl, mode


def dip_statistic(samples, max_points: int = 160) -> float:
    """Distance from the empirical CDF to the nearest unimodal CDF
    (sup norm): ~1/(2n) for unimodal data, up to 0.25 for a 50/50
    two-point distribution.

    Computed from the definition: with the mode at sample point t, the
    prefix through t must admit a convex CDF selection in the +-D tube
    and the suffix from t a concave one, where the distribution may carry
    an atom (jump) at the mode itself; the dip is the smallest feasible D
    over all t. (A mode strictly between samples converts to a mode at
    the gap's left point with the same error by replacing the gap segment
    with its chord, so point modes lose nothing.) Samples beyond
    `max_points` are thinned to evenly spaced order statistics first
    (the dip is then that subsample's).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 4 or x[0] == x[-1]:
        return 0.0
    if n > max_points:
        x = x[np.linspace(0, n - 1, max_points).astype(int)]
        n = x.size
    vals, counts = np.unique(x, return_counts=True)
    if vals.size < 2:
        return 0.0
    cum = np.cumsum(counts)
    lo = cum / n  # F at each distinct value
    hi = (cum - counts) / n  # left limit
    _, left_mode = _prefix_fit_error(vals, lo, hi)
    # The concave side is the convex side of the mirrored sample; the
    # mirror of "prefix through index t" is "suffix from t" here.
    _, mirrored_mode = _prefix_fit_error(-vals[::-1], 1.0 - hi[::-1], 1.0 - lo[::-1])
    right_mode = mirrored_mode[::-1]
    best = float(np.min(np.maximum(left_mode, right_mode)))
    # The tube needs D >= 1/(2n) just to admit any function.
    return float(max(best, 1.0 / (2 * n)))


def unimodal_dip_threshold(n: int, rng: np.random.Generator, sims: int = 99,
                           quantile: float = 0.95) -> float:
    """Monte Carlo null threshold: the `quantile` of the dip over uniform
    samples of size n (the standard reference unimodal null)."""
    dips = [dip_statistic(rng.random(n)) for _ in range(sims)]
    return float(np.quantile(dips, quantile))


# ----------------------------------------------------------------------
# Mixture CDF and log-density, finiteness and a per-tensor AdamW step.
# ----------------------------------------------------------------------


_ERFC = np.frompyfunc(math.erfc, 1, 1)


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


def mixture_cdf(m: MixtureBatch, x) -> np.ndarray:
    """The CDF of every mixture in the batch at x."""
    return cdf_values(m.weights, m.means, m.variances, x)


def log_density(m: MixtureBatch, x) -> np.ndarray:
    """log p(x) of every mixture in the batch, in float64, from the weights
    and variances (log(pi_k) + log N(x; mu_k, var_k), then a max-subtracted
    log-sum-exp). x broadcasts against the element shape."""
    w, mu, var = (np.asarray(a, dtype=float) for a in (m.weights, m.means, m.variances))
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    d = np.asarray(x, dtype=float)[..., None] - mu
    terms = log_w - 0.5 * d * d / var - 0.5 * np.log(2.0 * np.pi * var)
    top = np.max(terms, axis=-1)
    return top + np.log(np.sum(np.exp(terms - top[..., None]), axis=-1))


def all_finite(params) -> bool:
    """Whether every entry of every named tensor is finite."""
    return all(np.all(np.isfinite(v)) for v in params.tensors.values())


def adamw_step(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float, cfg):
    """One decoupled-weight-decay Adam update of dicts of arrays, tensor by
    tensor, in place; `t` is the step number after this update. The same
    elementwise arithmetic as `training.optimizer_step`."""
    b1, b2 = cfg.betas
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p = params[name]
        p -= lr * cfg.weight_decay * p
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


# ----------------------------------------------------------------------
# The NLL kernel components last, and the head in the checkpoint's row
# order.
# ----------------------------------------------------------------------


def nll_components_last(logits, means, logvars, y, gradients=True):
    """`gmm.nll_and_gradients` on (..., K) head outputs and (...) targets,
    broadcast to one element shape: copied rows last as (K, M) and (1, M)
    in their common dtype (the kernel consumes its inputs, and the
    caller's arrays stay as they are), and the results moved back to (...)
    and (..., K)."""
    k = np.shape(logits)[-1]
    shape = np.broadcast_shapes(*(np.shape(a)[:-1] for a in (logits, means, logvars)),
                                np.shape(y))
    dtype = np.result_type(logits, means, logvars, y)
    args = [np.broadcast_to(a, shape + (k,)).reshape(-1, k).T.astype(dtype)
            for a in (logits, means, logvars)]
    nll, grads = nll_and_gradients(*args, np.broadcast_to(y, shape).reshape(1, -1).astype(dtype),
                                   gradients=gradients)
    if grads is not None:
        grads = tuple(g.T.reshape(shape + (k,)) for g in grads)
    return nll.reshape(shape), grads


def reference_mixture(hc) -> MixtureBatch:
    """The mixture every freshly initialized head emits (element shape ()):
    uniform weights, means at the anchors, unit variances."""
    k = hc.components
    return MixtureBatch(np.full(k, 1.0 / k), hc.anchors.copy(), np.ones(k))


def head_rows_first(zp, hc, params):
    """The head's (logits, means, logvars) as (rows, horizon, K), each
    branch computed rows first as zp @ W.T + b and reshaped: the layout
    the (horizon * K, proj_width) branch weights of a checkpoint were
    trained in. Means come from the offsets, log-variances are clamped."""
    shape = (zp.shape[0], -1, hc.components)
    out = [(zp @ params[f"{n}.w"].T + params[f"{n}.b"]).reshape(shape)
           for n in ("mix", "mean", "logvar")]
    out[1] = out[1] * hc.anchor_scale + hc.anchors
    out[2] = np.clip(out[2], LOG_VAR_MIN, LOG_VAR_MAX)
    return tuple(out)


def branch_gradients_rows_first(zp, hc, params, y):
    """(mean NLL, {name: gradient}) of the three head branches' weights and
    biases, from `head_rows_first` and `nll_components_last`, with targets
    y (rows, horizon): each weight gradient is d.T @ zp over the (rows,
    horizon * K) upstream gradient d, each bias gradient d.sum(0). A
    log-variance at a clamp bound gets no gradient."""
    logits, means, logvars = head_rows_first(zp, hc, params)
    nll, (d_logits, d_means, d_logvars) = nll_components_last(logits, means, logvars, y)
    scale = 1.0 / y.size
    d_means = d_means * hc.anchor_scale
    d_logvars = d_logvars * ((logvars > LOG_VAR_MIN) & (logvars < LOG_VAR_MAX))
    grads = {}
    for name, d in (("mix", d_logits), ("mean", d_means), ("logvar", d_logvars)):
        d = d.reshape(zp.shape[0], -1) * scale
        grads[f"{name}.w"] = d.T @ zp
        grads[f"{name}.b"] = d.sum(axis=0)
    return float(nll.mean()), grads


# ----------------------------------------------------------------------
# Mixture moments and sampling.
# ----------------------------------------------------------------------


def mixture_moments(m: MixtureBatch):
    """(mean, variance) of one mixture (element shape ())."""
    mean = float(np.dot(m.weights, m.means))
    second = float(np.dot(m.weights, m.variances + m.means**2))
    return mean, second - mean * mean


def sample(m: MixtureBatch, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws from one mixture (element shape ()): component index
    by weight, then a normal draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cum = np.cumsum(m.weights)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, m.k - 1)
    return m.means[idx] + rng.standard_normal(n) * np.sqrt(m.variances[idx])


def sample_one_each(mb: MixtureBatch, rng: np.random.Generator) -> np.ndarray:
    """One draw from every mixture in the batch."""
    cum = np.cumsum(mb.weights, axis=-1)
    u = rng.random(mb.shape)
    idx = np.sum(u[..., None] > cum, axis=-1)
    idx = np.minimum(idx, mb.k - 1)
    mu = np.take_along_axis(mb.means, idx[..., None], axis=-1)[..., 0]
    var = np.take_along_axis(mb.variances, idx[..., None], axis=-1)[..., 0]
    return mu + rng.standard_normal(mb.shape) * np.sqrt(var)


# ----------------------------------------------------------------------
# HPD selection masks and scalar interval helpers.
# ----------------------------------------------------------------------


def hpd_select_batch(density, levels) -> np.ndarray:
    """Selection masks for (M, P) rows with positive mass and levels (L,),
    as a boolean (M, L, P) array.

    Cells are ranked by descending density with ascending index as the
    stable tiebreaker. A cell is selected at level c iff the normalized
    mass strictly before it in that order is < c, so each selection is the
    fewest cells whose normalized mass reaches c.
    """
    density = np.asarray(density, dtype=float)
    order = np.argsort(-density, axis=1, kind="stable")
    incl = np.cumsum(np.take_along_axis(density, order, axis=1), axis=1)
    before = np.zeros_like(incl)
    before[:, 1:] = incl[:, :-1] / incl[:, -1:]
    before_grid = np.empty_like(before)
    np.put_along_axis(before_grid, order, before, axis=1)
    return before_grid[:, None, :] < np.asarray(levels, dtype=float)[None, :, None]


def last_selected(density, mask) -> np.ndarray:
    """One-hot (P,) flag of the last cell a selection mask of one row
    takes in ranked order: the highest index among its least dense cells,
    the one cell the second-order width counts only in part."""
    density = np.asarray(density)
    cut = density[mask].min()
    flag = np.zeros(density.shape, dtype=bool)
    flag[np.flatnonzero(mask & (density == cut))[-1]] = True
    return flag


def selection_widths(density, levels) -> np.ndarray:
    """(M, L) widths in grid spacings of the HPD selections of (M, P) rows
    with positive mass, from `hpd_select_batch`'s masks: the length of
    every selected cell's footprint clipped to the grid (1, or 1/2 at
    either end), but that of the last in ranked order only for the part
    of its mass still needed to reach c, clipped to [0, 1]."""
    density = np.asarray(density, dtype=float)
    masks = hpd_select_batch(density, levels)
    out = np.empty(masks.shape[:2])
    for i, (row, row_masks) in enumerate(zip(density, masks)):
        total = np.cumsum(np.sort(row)[::-1])[-1]
        span = np.ones(row.size)
        span[[0, -1]] = 0.5
        for j, (c, mask) in enumerate(zip(levels, row_masks)):
            last = last_selected(row, mask)
            share = (c - row[mask & ~last].sum() / total) / (row[last][0] / total)
            out[i, j] = span[mask & ~last].sum() + span[last][0] * min(max(share, 0.0), 1.0)
    return out


def interpolated_u(density, p_y, on_grid) -> np.ndarray:
    """(M,) HPD values from their definition, one grid interval at a time:
    the mass above p_y of each (M, P) row's interpolated density over its
    trapezoid mass, clipped to [0, 1]; 1 off the grid. An interval above p_y counts its
    trapezoid. One whose ends hi > p_y >= lo straddle it counts the
    integral above p_y, up to the quadratic's first crossing, of the
    quadratic through lo, hi and the density `far` at the grid point
    beyond hi (2 hi - lo past a grid end), plus the trapezoid's end
    correction (far - lo) / 24 at hi."""
    density = np.asarray(density, dtype=float)
    u = np.ones(len(density))
    for i, (row, t) in enumerate(zip(density, np.asarray(p_y, dtype=float))):
        if not on_grid[i]:
            continue
        above = 0.0
        for j in range(row.size - 1):
            if min(row[j], row[j + 1]) > t:
                above += (row[j] + row[j + 1]) / 2
            elif max(row[j], row[j + 1]) > t:
                h, l = (j, j + 1) if row[j] > row[j + 1] else (j + 1, j)
                hi, lo, k = row[h], row[l], 2 * h - l
                far = row[k] if 0 <= k < row.size else 2 * hi - lo
                poly = [(lo + far) / 2 - hi, (lo - far) / 2, hi]  # hi at 0, lo at 1, far at -1
                roots = np.roots(np.subtract(poly, [0.0, 0.0, t]))
                share = min(r.real for r in roots if abs(r.imag) < 1e-12 and -1e-12 <= r.real)
                above += np.polyval(np.polyint(poly), min(share, 1.0)) + (far - lo) / 24
        u[i] = min(max(above / np.sum((row[:-1] + row[1:]) / 2), 0.0), 1.0)
    return u


def separated_hpd(m: MixtureBatch, c: float, t=None):
    """Highest-density region of one mixture (element shape ()) whose
    components are well separated, so {p > t} is one interval around each
    mode denser than t, bracketed by the midpoints between neighbouring
    means, which must lie below every level asked for: (sub-intervals,
    their mass). At the level t = p(y) that mass is y's HPD value; with t
    None the level is solved for mass c, and the lengths sum to the HPD
    width at c. Roots by scipy's brentq on the
    density, masses from the mixture CDF."""
    from scipy.optimize import brentq

    order = np.argsort(m.means)
    means, sds = m.means[order], np.sqrt(m.variances[order])
    mids = (means[:-1] + means[1:]) / 2
    lows = np.concatenate(([means[0] - 40 * sds[0]], mids))
    highs = np.concatenate((mids, [means[-1] + 40 * sds[-1]]))

    terms = [(float(w) / math.sqrt(2 * math.pi * v), float(mu), -0.5 / float(v))
             for w, mu, v in zip(m.weights, m.means, m.variances)]

    def density(x):
        return sum(coef * math.exp(scale * (x - mu) ** 2) for coef, mu, scale in terms)

    def region(level):
        ivs = []
        for mu, a, b in zip(means, lows, highs):
            if density(mu) > level:
                ivs.append((brentq(lambda x: density(x) - level, a, mu),
                            brentq(lambda x: density(x) - level, mu, b)))
        return ivs, sum(float(mixture_cdf(m, hi) - mixture_cdf(m, lo)) for lo, hi in ivs)

    if t is None:
        top = max(density(mu) for mu in means)
        floor = max(density(mid) for mid in mids) * (1 + 1e-9)  # below it the modes join
        t = brentq(lambda level: region(level)[1] - c, floor, top * (1 - 1e-12),
                   xtol=1e-300, rtol=1e-15)
    return region(t)


def mixture_grid(m: MixtureBatch, lo: float, hi: float, points: int):
    """(x, density): one mixture's (element shape ()) float64 density at
    `points` evenly spaced x over [lo, hi]."""
    x = np.linspace(lo, hi, points)
    return x, grid_densities(m.weights[None], m.means[None], m.variances[None], x)[0]


def is_mass_complete(density, dx) -> bool:
    """Whether a grid's cell-sum mass (density * dx) is close to 1."""
    return MASS_COMPLETE_MIN <= density.sum() * dx <= MASS_COMPLETE_MAX


def selection_mass(density, c: float) -> float:
    """Normalized mass of one row's selected cells; lies in
    [c, c + max cell mass]."""
    mask = hpd_select_batch(density[None], [c])[0, 0]
    return float(density[mask].sum() / density.sum())


def covered_cells(s: IntervalSet, x) -> np.ndarray:
    """The grid points of x inside any sub-interval of s: the cells that
    `derive_intervals` selected."""
    x = np.asarray(x)
    return np.any([(lo <= x) & (x <= hi) for lo, hi in s.intervals], axis=0)


def interval_width(s: IntervalSet) -> float:
    """Total width: sum of (upper - lower) across sub-intervals."""
    return float(sum(hi - lo for lo, hi in s.intervals))


def contains(s: IntervalSet, y: float) -> bool:
    """True iff y lies inside any sub-interval (closed bounds)."""
    return any(lo <= y <= hi for lo, hi in s.intervals)


def hpd_scores_on_grid(mb: MixtureBatch, y, lo: float, hi: float, points: int, levels):
    """intervals.hpd_scores for an (M,) batch on the grid metrics.evaluate
    builds, computed in float64 (evaluate's grid is float32 unless a
    mixture falls back to float64): (u, widths in grid spacings (M, L),
    dx)."""
    x = np.linspace(lo, hi, points)
    dens = grid_densities(mb.weights, mb.means, mb.variances, x)
    p_y = grid_densities(mb.weights, mb.means, mb.variances, y[:, None])[:, 0]
    u, cells = hpd_scores(dens, p_y, (y >= lo) & (y <= hi), levels)
    return u, cells, x[1] - x[0]
