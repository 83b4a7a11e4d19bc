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
import math
import numbers
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields, replace
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_ints(obj, least: int, *names):
    """ValueError unless each named field of obj is an integer (bool
    excluded) of at least `least`."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(obj, *names):
    """DataError unless each named field of obj is a finite real > 0."""
    for name in names:
        value = getattr(obj, name)
        if not (is_real(value) and 0 < value < math.inf):
            raise DataError(f"{name}={value!r} must be finite and positive")


def from_fields(cls, values: dict):
    """cls(**values) for a dataclass read from JSON; a ValueError names
    each key that is not a field of cls and each field without a default
    that values lacks."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls)
               if f.name not in values and f.default is f.default_factory is MISSING]
    problems = [f"{what} {cls.__name__} key(s) {keys}"
                for what, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError("; ".join(problems))
    return cls(**values)


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
        if not 0.0 <= self.noise_sigma < np.inf:
            raise DataError(f"noise_sigma={self.noise_sigma!r} must be finite and >= 0")


def demand_profile(spec: SyntheticSpec) -> np.ndarray:
    """Per-step congestion propensity: a bump centred mid-session."""
    t = np.arange(spec.session_steps)
    mid = (spec.session_steps - 1) / 2.0
    bump = np.exp(-(((t - mid) / (0.22 * spec.session_steps)) ** 2))
    return spec.demand_base + (spec.demand_peak - spec.demand_base) * bump


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
        check_positive(self, "step_minutes", "max_value")
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

    def split_sessions(self, fractions) -> dict:
        """Contiguous session blocks: train, then val, then test, by the
        (train, val, test) fractions `DatasetManifest` checks; each block
        holds at least one session."""
        n = self.sessions
        if n < 3:
            raise DataError(
                f"need at least 3 sessions (one each for train, val and test), got {n}"
            )
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


@dataclass(frozen=True)
class Normalizer:
    """Z-score transform fitted on the training split only."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be positive, got {self.std!r}")

    @classmethod
    def fit(cls, values: np.ndarray) -> "Normalizer":
        values = np.asarray(values, dtype=float)
        std = float(values.std())
        if std < 1e-12:
            raise ValueError("cannot normalize constant data (std ~ 0)")
        return cls(mean=float(values.mean()), std=std)

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def inverse(self, x):
        return np.asarray(x, dtype=float) * self.std + self.mean


@dataclass(frozen=True)
class WindowSet:
    """Stride-1 windows over one split's sessions, kept as the raw series
    they are cut from (never written). Sessions are equally long, so with
    P windows per session window w starts at step w % P of row w // P.

    `gather` builds the model-ready arrays of any subset of windows,
    z-scored with the (train-split) normalizer, in the set's `dtype`
    (float64 unless tagged by `astype`). With a coverage mask, the inputs
    feed uncovered nodes the train-split mean (0 after normalization) and
    carry a per-node availability flag channel; the targets stay complete.
    `gather_inputs` builds the inputs alone and `gather_raw` the raw-unit
    targets; `inputs`, `targets` and `targets_raw` build them for every
    window, on each read."""

    raw: np.ndarray  # (S, steps, N), raw units, float64
    normalizer: Normalizer
    input_steps: int
    horizon: int
    coverage: np.ndarray | None = None  # (N,) bool sensor mask

    def __post_init__(self):
        # Every window's steps as a read-only view, (S, P, N, need).
        need = self.input_steps + self.horizon
        object.__setattr__(self, "_steps", sliding_window_view(self.raw, need, axis=1))
        object.__setattr__(self, "dtype", np.dtype(np.float64))

    @property
    def count(self) -> int:
        return self._steps.shape[0] * self._steps.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.coverage is None else 2

    def astype(self, dtype) -> "WindowSet":
        """These windows, over the same series, gathered in `dtype`."""
        tagged = replace(self)
        object.__setattr__(tagged, "dtype", np.dtype(dtype))
        return tagged

    def _copies(self, idx, steps: slice) -> np.ndarray:
        """The raw `steps` of the windows `idx`, (B, N, len): a copy, not
        contiguous (advanced indexing copies)."""
        return self._steps[..., steps][np.divmod(np.arange(self.count)[idx],
                                                 self._steps.shape[1])]

    def _normalized(self, idx, steps: slice) -> np.ndarray:
        """The `steps` of the windows `idx`, contiguous, in the set's dtype:
        each copy is z-scored in place by `Normalizer.transform`'s float64
        operations, bit for bit, then cast."""
        z = self._copies(idx, steps)
        z -= self.normalizer.mean
        z /= self.normalizer.std
        return np.ascontiguousarray(z, dtype=self.dtype)

    def gather_inputs(self, idx) -> np.ndarray:
        """The inputs (B, N, input_steps * channels) of the windows `idx` (a
        slice or index array over range(count)), contiguous, in the set's
        dtype."""
        x = self._normalized(idx, slice(None, self.input_steps))
        if self.coverage is not None:
            x[:, ~self.coverage] = 0.0
            flags = np.broadcast_to(self.coverage[:, None].astype(x.dtype), x.shape)
            x = np.concatenate([x, flags], axis=2)
        return x

    def gather(self, idx):
        """(inputs, targets (B, N, horizon)) of the windows `idx`, as
        `gather_inputs` builds the inputs."""
        return self.gather_inputs(idx), self._normalized(idx, slice(self.input_steps, None))

    def gather_raw(self, idx) -> np.ndarray:
        """The raw-unit targets (B, N, horizon) of the windows `idx`, contiguous."""
        return np.ascontiguousarray(self._copies(idx, slice(self.input_steps, None)))

    @property
    def inputs(self) -> np.ndarray:  # (W, N, input_steps * channels)
        return self.gather_inputs(slice(None))

    @property
    def targets(self) -> np.ndarray:  # (W, N, horizon)
        return self.gather(slice(None))[1]

    @property
    def targets_raw(self) -> np.ndarray:  # (W, N, horizon), raw units
        return self.gather_raw(slice(None))


def window(d: SeriesDataset, t_h: int, t_f: int, normalizer, sessions=None) -> WindowSet:
    """Stride-1 sliding windows that never cross session boundaries, over a
    copy of the sessions' raw values, gathered z-scored with the
    (train-split) normalizer; a coverage mask on the dataset carries over
    to the windows' inputs. Sessions shorter than one window are a
    DataError naming both lengths."""
    if d.session_steps < t_h + t_f:
        raise DataError(f"sessions have {d.session_steps} steps, fewer than "
                        f"input_steps + horizon = {t_h + t_f}")
    raw = d.values[np.arange(d.sessions) if sessions is None else sessions]
    return WindowSet(raw=raw, normalizer=normalizer, input_steps=t_h, horizon=t_f,
                     coverage=d.coverage)


@dataclass
class Splits:
    train: WindowSet
    val: WindowSet
    test: WindowSet
    normalizer: object


def prepare_splits(d: SeriesDataset, t_h: int, t_f: int, fractions) -> Splits:
    """Split sessions into contiguous blocks, fit the normalizer on the
    training block only (covered nodes only, when masked), and window
    each split with it.

    Blank cells are rejected: windows would carry their stored 0.0 as a
    real speed, into the normalizer, the inputs and the scored targets."""
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
    return Splits(normalizer=normalizer,
                  **{name: window(d, t_h, t_f, normalizer, sessions=rows)
                     for name, rows in split.items()})


# ----------------------------------------------------------------------
# Dataset manifest + CSV in/out.
# ----------------------------------------------------------------------


_MANIFEST_ENVELOPE = {"format": "mixcast-dataset", "version": 1}


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset CSV holds. node_ids and the (train, val, test)
    split_fractions are non-empty lists, stored as tuples, and no node id
    repeats; sessions and steps are integers >= 1, step_minutes and
    max_value finite reals > 0, seed None or an integer >= 0, and
    split_fractions three numbers >= 0 that sum to 1."""

    node_ids: tuple
    sessions: int
    session_steps: int
    step_minutes: float
    max_value: float
    seed: int | None = None
    split_fractions: tuple = (0.7, 0.1, 0.2)

    def __post_init__(self):
        for name in ("node_ids", "split_fractions"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and value):
                raise DataError(f"{name} must be a non-empty list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        repeated = [i for i, count in Counter(map(repr, self.node_ids)).items() if count > 1]
        if repeated:
            raise DataError(f"node_ids must be distinct, got {', '.join(repeated)} more than once")
        check_ints(self, 1, "sessions", "session_steps")
        if self.seed is not None:
            check_ints(self, 0, "seed")
        check_positive(self, "step_minutes", "max_value")
        fr = self.split_fractions
        if (len(fr) != 3 or not all(is_real(f) and f >= 0 for f in fr)
                or abs(sum(fr) - 1.0) > 1e-9):
            raise DataError(f"split_fractions must be three numbers >= 0 that sum to 1, got {fr!r}")

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
    with open(path, "w") as fh:
        json.dump({**_MANIFEST_ENVELOPE, **asdict(m)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> DatasetManifest:
    """The manifest `write_manifest` wrote; a DataError names the file and
    the malformed JSON, envelope, key or value."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise DataError(f"expected a JSON object, got {type(payload).__name__}")
        envelope = {key: payload.pop(key, None) for key in _MANIFEST_ENVELOPE}
        if envelope != _MANIFEST_ENVELOPE:
            raise DataError(f"not a dataset manifest: {envelope}")
        return from_fields(DatasetManifest, payload)
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: malformed JSON: {err}") from err
    except (OSError, ValueError) as err:
        raise DataError(f"{path}: {err}") from err


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


def _lines(path):
    """The lines of the text file at `path`, split as str.splitlines splits
    the whole text, read one file line at a time."""
    with open(path) as fh:
        for chunk in fh:
            yield from chunk.splitlines()


def ingest_csv(path, manifest: DatasetManifest) -> SeriesDataset:
    """Parse and validate a CSV against its manifest.

    Errors carry row numbers (1-based, header = row 1) and node ids:
    malformed cells, non-monotone timestamps, out-of-range values and
    row-count mismatches are all rejected. The file is read line by line,
    twice, and never held whole: the rows are counted before any is
    parsed."""
    lines = _lines(path)
    header = next(lines, None)
    rows = sum(1 for _ in lines)  # a decoding error anywhere comes first
    if header is None:
        raise DataError(f"{path}: empty file")
    header = header.split(",")
    if header[0] != "timestamp" or tuple(header[1:]) != tuple(manifest.node_ids):
        raise DataError(f"{path}: header does not match manifest node ids")
    expected_rows = manifest.sessions * manifest.session_steps
    if rows != expected_rows:
        raise DataError(
            f"{path}: {rows} data rows, manifest expects {expected_rows}"
        )
    n = len(manifest.node_ids)
    values = np.zeros((expected_rows, n))
    missing = np.zeros((expected_rows, n), dtype=bool)
    starts = []
    prev = None
    lines = _lines(path)
    next(lines)
    for r, line in enumerate(lines, start=2):
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
        if (r - 2) % manifest.session_steps == 0:
            starts.append(stamp.isoformat())
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
    # Negated, so NaN (which float() parses) fails the range check too.
    bad = np.argwhere(~((values >= 0) & (values <= manifest.max_value)))
    if bad.size:
        spots = ", ".join(
            f"row {int(r) + 2}/node {manifest.node_ids[int(c)]}" for r, c in bad[:5]
        )
        raise DataError(f"{path}: {bad.shape[0]} values outside [0, {manifest.max_value}]: {spots}")
    shape = (manifest.sessions, manifest.session_steps, n)
    return SeriesDataset(
        values=values.reshape(shape),
        step_minutes=manifest.step_minutes,
        max_value=manifest.max_value,
        node_ids=tuple(manifest.node_ids),
        start_times=tuple(starts),
        seed=manifest.seed,
        missing=missing.reshape(shape) if missing.any() else None,
    )
