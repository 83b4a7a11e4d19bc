"""Layer spans for mixcast, recorded from outside the package.

The tracer replaces public functions on the mixcast modules with timing
wrappers. The package looks these attributes up at call time (`cli`
calls `data.ingest_csv`, `training.fit` calls `mdl.backward`,
`metrics.evaluate` calls its global `crps_mixture_batch` and
`iv.hpd_select_batch`), so every call made inside a flow passes through a
wrapper. A function that is missing is skipped: its span is absent.

Spans stay in memory as [name, parent, start, end, counts] and are
written out after the run.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import statistics
import time


def _cells(bound, result):
    return {"data.ingest_csv.cells": int(result.values.size)}


def _windows(bound, result):
    return {"data.windows": int(result.count)}


def _csv_bytes(bound, result):
    return {"data.export_csv.bytes": os.path.getsize(bound.arguments["path"])}


def _cdf_evals(bound, result):
    # Computed: every grid point evaluates every component's CDF once.
    points = bound.arguments.get("points")
    if points is None:
        return {}
    y, mb = bound.arguments["y"], bound.arguments["mb"]
    return {"metrics.crps.cdf_evals": int(y.size) * int(points) * int(mb.k)}


def _mask_bytes(bound, result):
    # Computed: one bool per (element, level, grid point).
    return {"intervals.mask_bytes": int(result.size)}


def _clip_fired(bound, result):
    # clip_gradients returns its input unchanged unless it rescaled it.
    return {"training.clip_gradients.fired": int(result is not bound.arguments["grads"])}


def _diverged(bound, result):
    return {"training.diverged": int(result.diverged)}


# (module, attribute path, span name, count hook taking the bound
# arguments and the result)
LAYER_FUNCTIONS = (
    ("cli", "evaluate_run", "cli.evaluate_run", None),
    ("cli", "density_ridge_table", "cli.density_ridge_table", None),
    ("data", "generate", "data.generate", None),
    ("data", "export_csv", "data.export_csv", _csv_bytes),
    ("data", "ingest_csv", "data.ingest_csv", _cells),
    ("data", "prepare_splits", "data.prepare_splits", None),
    ("data", "window", "data.window", _windows),
    ("model", "backward", "model.backward", None),
    ("model", "forward_loss", "model.forward_loss", None),
    ("model", "predict", "model.predict", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("training", "fit", "training.fit", _diverged),
    ("training", "optimizer_step", "training.optimizer_step", None),
    ("training", "clip_gradients", "training.clip_gradients", _clip_fired),
    ("gmm", "MixtureBatch.__post_init__", "gmm.MixtureBatch.validate", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("metrics", "crps_mixture_batch", "metrics.crps_mixture_batch", _cdf_evals),
    ("metrics", "report_to_text", "metrics.report_to_text", None),
    ("intervals", "hpd_select_batch", "intervals.hpd_select_batch", _mask_bytes),
    ("intervals", "interval_stats_batch", "intervals.interval_stats_batch", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, 0.0, 0.0, None])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                # A changed signature or result leaves the count absent.
                with contextlib.suppress(KeyError, AttributeError):
                    self.spans[idx][4] = count(bound, result)
            return result

        return traced

    def install(self, package):
        """Wrap every function of LAYER_FUNCTIONS that `package` still has."""
        for module_name, path, name, count in LAYER_FUNCTIONS:
            owner = getattr(package, module_name, None)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                continue
            setattr(owner, attr, self._wrap(name, original, count))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end, counts in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start_s": start - t0,
                                     "end_s": end - t0, "counts": counts or {}}) + "\n")


def _p97(durations):
    """Nearest-rank 97th percentile, only when at least ten samples lie
    above it."""
    n = len(durations)
    rank = math.ceil(0.97 * n)
    if n - rank < 10:
        return None
    return sorted(durations)[rank - 1]


def summarize(spans) -> dict:
    """Per-span and per-module figures from a list of spans.

    Self time is a span's duration minus the time its child spans cover
    (children of one span never overlap: the package is single-threaded).
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    durations, selfs, counts = {}, {}, {}
    for idx, (name, parent, start, end, cnt) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        selfs[name] = selfs.get(name, 0.0) + (end - start - child[idx])
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for name, ds in durations.items():
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.s"] = sum(ds)
        out[f"{name}.self_s"] = selfs[name]
        out[f"{name}.ms_p50"] = 1e3 * statistics.median(ds)
        p97 = _p97(ds)
        if p97 is not None:
            out[f"{name}.ms_p97"] = 1e3 * p97
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + selfs[name]
    out.update(counts)
    fired = counts.get("training.clip_gradients.fired")
    if fired is not None:
        out["training.clip_fired_ratio"] = fired / len(durations["training.clip_gradients"])
    return out
