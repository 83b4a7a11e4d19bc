"""Synthetic multi-modal traffic generation, data-quality degradation,
CSV ingestion and windowing into forecast batches.

The generator runs one two-state regime chain (free-flow vs congested)
per node, with switch probabilities modulated by a time-of-day demand
profile; observed speeds are the regime speed plus Gaussian noise,
clipped to [0, max]. At demand-heavy times the marginal speed
distribution across sessions is bimodal, which is what the mixture head
is meant to capture.

Everything is seed-deterministic: repeated calls with one spec produce
bit-identical datasets, masks and windows.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True)
class SyntheticSpec:
    nodes: int = 50
    sessions: int = 30
    session_steps: int = 48
    step_minutes: float = 3.0
    max_value: float = 14.0
    free_speed: float = 11.0
    congested_speed: float = 2.0
    speed_jitter: float = 0.5
    switch_in: float = 0.15  # free -> congested, scaled by demand
    switch_out: float = 0.15  # congested -> free, scaled by (1 - demand)
    noise_sigma: float = 0.3
    demand_base: float = 0.1
    demand_peak: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1 or self.sessions < 1 or self.session_steps < 2:
            raise DataError("nodes, sessions and session_steps must be positive")
        for name in ("free_speed", "congested_speed"):
            v = getattr(self, name)
            if not 0.0 <= v <= self.max_value:
                raise DataError(f"{name}={v!r} outside [0, {self.max_value}]")
        for name in ("switch_in", "switch_out", "demand_base", "demand_peak"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name}={v!r} outside [0, 1]")


def demand_profile(spec: SyntheticSpec) -> np.ndarray:
    """Per-step congestion propensity: a bump centred mid-session."""
    t = np.arange(spec.session_steps)
    mid = (spec.session_steps - 1) / 2.0
    bump = np.exp(-(((t - mid) / (0.22 * spec.session_steps)) ** 2))
    return spec.demand_base + (spec.demand_peak - spec.demand_base) * bump


def congestion_prone_steps(spec: SyntheticSpec) -> np.ndarray:
    """Step indices where demand exceeds the halfway propensity."""
    d = demand_profile(spec)
    return np.flatnonzero(d >= 0.5 * (spec.demand_base + spec.demand_peak))


@dataclass(frozen=True)
class SeriesDataset:
    values: np.ndarray  # (sessions, steps, nodes), raw units
    step_minutes: float
    max_value: float
    node_ids: tuple
    start_times: tuple  # ISO-8601, one per session
    seed: int | None = None
    coverage: np.ndarray | None = None  # (nodes,) bool sensor mask
    missing: np.ndarray | None = None  # (sessions, steps, nodes) bool

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise DataError(f"values must be (sessions, steps, nodes), got {v.shape}")
        if len(self.node_ids) != v.shape[2]:
            raise DataError(f"{len(self.node_ids)} node ids for {v.shape[2]} nodes")
        if len(self.start_times) != v.shape[0]:
            raise DataError(f"{len(self.start_times)} start times for {v.shape[0]} sessions")
        if not np.all(np.isfinite(v)):
            raise DataError("dataset contains non-finite values")
        if np.any(v < 0) or np.any(v > self.max_value):
            raise DataError(f"values outside [0, {self.max_value}]")

    @property
    def sessions(self) -> int:
        return self.values.shape[0]

    @property
    def session_steps(self) -> int:
        return self.values.shape[1]

    @property
    def nodes(self) -> int:
        return self.values.shape[2]

    def split_sessions(self, fractions=(0.7, 0.1, 0.2)) -> dict:
        """Contiguous session blocks: train, then val, then test."""
        if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
            raise DataError(f"split fractions must sum to 1, got {fractions}")
        n = self.sessions
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        n_train = max(1, min(n_train, n - 2))
        n_val = max(1, min(n_val, n - n_train - 1))
        return {
            "train": np.arange(0, n_train),
            "val": np.arange(n_train, n_train + n_val),
            "test": np.arange(n_train + n_val, n),
        }


def generate(spec: SyntheticSpec) -> SeriesDataset:
    """Per-node regime chains modulated by the demand profile.

    Sessions start in free flow; congestion builds as demand rises and
    releases as it falls."""
    rng = np.random.default_rng(spec.seed)
    free = spec.free_speed + spec.speed_jitter * rng.uniform(-1, 1, spec.nodes)
    cong = spec.congested_speed + spec.speed_jitter * rng.uniform(-1, 1, spec.nodes)
    free = np.clip(free, 0, spec.max_value)
    cong = np.clip(cong, 0, spec.max_value)
    demand = demand_profile(spec)

    congested = np.zeros((spec.sessions, spec.session_steps, spec.nodes), dtype=bool)
    for t in range(1, spec.session_steps):
        draw = rng.random((spec.sessions, spec.nodes))
        p_in = spec.switch_in * demand[t]
        p_out = spec.switch_out * (1.0 - demand[t])
        prev = congested[:, t - 1]
        congested[:, t] = np.where(prev, draw >= p_out, draw < p_in)

    speeds = np.where(congested, cong, free)
    speeds = speeds + spec.noise_sigma * rng.standard_normal(speeds.shape)
    speeds = np.clip(speeds, 0.0, spec.max_value)

    base = datetime(2024, 1, 1, 6, 0)
    starts = tuple((base + timedelta(days=s)).isoformat() for s in range(spec.sessions))
    ids = tuple(f"n{i:04d}" for i in range(spec.nodes))
    return SeriesDataset(
        values=speeds,
        step_minutes=spec.step_minutes,
        max_value=spec.max_value,
        node_ids=ids,
        start_times=starts,
        seed=spec.seed,
    )


def degrade_coverage(d: SeriesDataset, fraction: float, seed: int):
    """Keep sensors on a random `fraction` of the nodes.

    Returns (dataset with the coverage mask attached, mask). Only model
    inputs are affected downstream; targets stay complete so evaluations
    across quality settings stay comparable."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"coverage fraction must be in (0, 1], got {fraction!r}")
    n_cov = int(round(fraction * d.nodes))
    if n_cov < 1:
        raise DataError(f"fraction {fraction!r} selects zero of {d.nodes} nodes")
    mask = np.zeros(d.nodes, dtype=bool)
    picked = np.random.default_rng(seed).choice(d.nodes, size=n_cov, replace=False)
    mask[picked] = True
    return replace(d, coverage=mask), mask


def degrade_resolution(d: SeriesDataset, factor: int) -> SeriesDataset:
    """Block-mean downsampling along time; step size grows by `factor`."""
    if factor < 1:
        raise DataError(f"resolution factor must be >= 1, got {factor}")
    if factor == 1:
        return d
    if d.session_steps % factor != 0:
        raise DataError(
            f"factor {factor} does not divide session length {d.session_steps}"
        )
    coarse = d.values.reshape(
        d.sessions, d.session_steps // factor, factor, d.nodes
    ).mean(axis=2)
    return replace(d, values=coarse, step_minutes=d.step_minutes * factor)


@dataclass
class WindowSet:
    """Sliding windows from one split, z-scored and model-ready."""

    inputs: np.ndarray  # (W, N, t_h * channels), normalized
    targets: np.ndarray  # (W, N, t_f), normalized
    targets_raw: np.ndarray  # (W, N, t_f), raw units
    session_ids: np.ndarray  # (W,)
    input_steps: int
    horizon: int
    channels: int

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


def window(d: SeriesDataset, t_h: int, t_f: int, normalizer, sessions=None) -> WindowSet:
    """Stride-1 sliding windows that never cross session boundaries.

    Inputs and targets are z-scored with the (train-split) normalizer.
    With a coverage mask on the dataset, uncovered nodes feed the
    train-split mean (0 after normalization) and a per-node availability
    flag channel is appended to the window."""
    if sessions is None:
        sessions = np.arange(d.sessions)
    need = t_h + t_f
    ins, tgts, raws, sids = [], [], [], []
    for s in sessions:
        steps = d.session_steps
        if steps < need:
            warnings.warn(f"session {s}: {steps} steps < {need}, skipped", stacklevel=2)
            continue
        vals = d.values[s]  # (steps, nodes)
        for o in range(steps - need + 1):
            ins.append(vals[o : o + t_h].T)
            raw = vals[o + t_h : o + need].T
            raws.append(raw)
            sids.append(s)
    if not ins:
        raise DataError("no usable windows (all sessions too short)")
    inputs = normalizer.transform(np.stack(ins))
    targets_raw = np.stack(raws)
    targets = normalizer.transform(targets_raw)
    channels = 1
    if d.coverage is not None:
        flags = np.broadcast_to(
            d.coverage[None, :, None].astype(float), inputs.shape
        )
        inputs = np.where(flags > 0, inputs, 0.0)
        inputs = np.concatenate([inputs, flags], axis=2)
        channels = 2
    return WindowSet(
        inputs=inputs,
        targets=targets,
        targets_raw=targets_raw,
        session_ids=np.asarray(sids),
        input_steps=t_h,
        horizon=t_f,
        channels=channels,
    )


@dataclass
class Splits:
    train: WindowSet
    val: WindowSet
    test: WindowSet
    normalizer: object
    session_split: dict


def prepare_splits(d: SeriesDataset, t_h: int, t_f: int, fractions=(0.7, 0.1, 0.2)) -> Splits:
    """Split sessions into contiguous blocks, fit the normalizer on the
    training block only (covered nodes only, when masked), and window
    each split with it.

    Blank cells are rejected: windows would carry their stored 0.0 as a
    real speed, into the normalizer, the inputs and the scored targets."""
    from .training import Normalizer

    if d.missing is not None and d.missing.any():
        s, t, i = (int(v) for v in np.argwhere(d.missing)[0])
        raise DataError(
            f"{int(d.missing.sum())} blank cells, first at row "
            f"{s * d.missing.shape[1] + t + 2}/node {d.node_ids[i]}; "
            "missing values are not supported"
        )
    split = d.split_sessions(fractions)
    train_vals = d.values[split["train"]]
    if d.coverage is not None:
        train_vals = train_vals[:, :, d.coverage]
    normalizer = Normalizer.fit(train_vals)
    parts = {
        name: window(d, t_h, t_f, normalizer, sessions=split[name]) for name in split
    }
    return Splits(
        train=parts["train"],
        val=parts["val"],
        test=parts["test"],
        normalizer=normalizer,
        session_split=split,
    )


# ----------------------------------------------------------------------
# Dataset manifest + CSV in/out.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    node_ids: tuple
    sessions: int
    session_steps: int
    step_minutes: float
    max_value: float
    seed: int | None = None
    split_fractions: tuple = (0.7, 0.1, 0.2)

    @classmethod
    def for_dataset(cls, d: SeriesDataset) -> "DatasetManifest":
        return cls(
            node_ids=tuple(d.node_ids),
            sessions=d.sessions,
            session_steps=d.session_steps,
            step_minutes=d.step_minutes,
            max_value=d.max_value,
            seed=d.seed,
        )


def write_manifest(m: DatasetManifest, path):
    payload = {
        "format": "mixcast-dataset",
        "version": 1,
        "node_ids": list(m.node_ids),
        "sessions": m.sessions,
        "session_steps": m.session_steps,
        "step_minutes": m.step_minutes,
        "max_value": m.max_value,
        "seed": m.seed,
        "split_fractions": list(m.split_fractions),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> DatasetManifest:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "mixcast-dataset":
        raise DataError(f"{path}: not a dataset manifest")
    return DatasetManifest(
        node_ids=tuple(payload["node_ids"]),
        sessions=payload["sessions"],
        session_steps=payload["session_steps"],
        step_minutes=payload["step_minutes"],
        max_value=payload["max_value"],
        seed=payload.get("seed"),
        split_fractions=tuple(payload.get("split_fractions", (0.7, 0.1, 0.2))),
    )


def export_csv(d: SeriesDataset, path):
    """Header `timestamp,<node ids>`; one row per step, float repr cells
    (so a round trip through ingest_csv is bit-identical); missing cells
    written empty."""
    with open(path, "w") as fh:
        fh.write("timestamp," + ",".join(d.node_ids) + "\n")
        for s in range(d.sessions):
            t0 = datetime.fromisoformat(d.start_times[s])
            for t in range(d.session_steps):
                stamp = (t0 + timedelta(minutes=d.step_minutes * t)).isoformat()
                cells = []
                for i in range(d.nodes):
                    if d.missing is not None and d.missing[s, t, i]:
                        cells.append("")
                    else:
                        cells.append(repr(float(d.values[s, t, i])))
                fh.write(stamp + "," + ",".join(cells) + "\n")


def ingest_csv(path, manifest: DatasetManifest) -> SeriesDataset:
    """Parse and validate a CSV against its manifest.

    Errors carry row numbers (1-based, header = row 1) and node ids:
    malformed cells, non-monotone timestamps, out-of-range values and
    row-count mismatches are all rejected."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "timestamp" or tuple(header[1:]) != tuple(manifest.node_ids):
        raise DataError(f"{path}: header does not match manifest node ids")
    expected_rows = manifest.sessions * manifest.session_steps
    rows = lines[1:]
    if len(rows) != expected_rows:
        raise DataError(
            f"{path}: {len(rows)} data rows, manifest expects {expected_rows}"
        )
    n = len(manifest.node_ids)
    values = np.zeros((expected_rows, n))
    missing = np.zeros((expected_rows, n), dtype=bool)
    stamps = []
    prev = None
    for r, line in enumerate(rows, start=2):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataError(f"{path}:{r}: {len(cells) - 1} cells for {n} nodes")
        try:
            stamp = datetime.fromisoformat(cells[0])
        except ValueError as err:
            raise DataError(f"{path}:{r}: bad timestamp {cells[0]!r}") from err
        if prev is not None and stamp <= prev:
            raise DataError(f"{path}:{r}: non-monotone timestamp {cells[0]}")
        prev = stamp
        stamps.append(stamp)
        for i, cell in enumerate(cells[1:]):
            if cell == "":
                missing[r - 2, i] = True
                continue
            try:
                v = float(cell)
            except ValueError as err:
                raise DataError(
                    f"{path}:{r}: node {manifest.node_ids[i]}: bad cell {cell!r}"
                ) from err
            values[r - 2, i] = v
    bad = np.argwhere((values < 0) | (values > manifest.max_value))
    if bad.size:
        spots = ", ".join(
            f"row {int(r) + 2}/node {manifest.node_ids[int(c)]}" for r, c in bad[:5]
        )
        raise DataError(f"{path}: {bad.shape[0]} values outside [0, {manifest.max_value}]: {spots}")
    shape = (manifest.sessions, manifest.session_steps, n)
    starts = tuple(
        stamps[s * manifest.session_steps].isoformat() for s in range(manifest.sessions)
    )
    return SeriesDataset(
        values=values.reshape(shape),
        step_minutes=manifest.step_minutes,
        max_value=manifest.max_value,
        node_ids=tuple(manifest.node_ids),
        start_times=starts,
        seed=manifest.seed,
        missing=missing.reshape(shape) if missing.any() else None,
    )


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
