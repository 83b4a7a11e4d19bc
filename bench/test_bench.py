"""Tests of the benchmark itself: the CRPS reference, and every workload
at tiny size (outputs checked, no timing asserted).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracle
import run

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _trapezoid_crps(w, mu, var, y, points=20001):
    """CRPS by the trapezoid rule on `points` nodes, with y as a node so
    the integrand is smooth on both pieces."""
    sd = np.sqrt(var)
    lo = min(mu.min() - 10 * sd.max(), y - 1.0)
    hi = max(mu.max() + 10 * sd.max(), y + 1.0)
    n_left = max(2, int(round((points - 1) * (y - lo) / (hi - lo))) + 1)
    left = np.linspace(lo, y, n_left)
    right = np.linspace(y, hi, points - n_left + 1)

    def cdf(x):
        z = (x[:, None] - mu) / (sd * math.sqrt(2.0))
        return np.sum(w * 0.5 * (1.0 + oracle.erf(z)), axis=1)

    return np.trapezoid(cdf(left) ** 2, left) + np.trapezoid((1.0 - cdf(right)) ** 2, right)


def test_single_component_matches_gaussian_closed_form():
    rng = np.random.default_rng(0)
    mu = rng.normal(0, 5, 2000)
    var = np.exp(rng.uniform(-6, 4, 2000))
    y = mu + rng.normal(0, 3, 2000) * np.sqrt(var)
    got = oracle.mixture_crps(np.ones((2000, 1)), mu[:, None], var[:, None], y)
    want = oracle.gaussian_crps(mu, var, y)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_mixture_matches_fine_trapezoid():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(k))
        mu = rng.normal(5, 3, k)
        var = rng.uniform(0.05, 2.0, k) ** 2
        y = float(rng.normal(5, 4))
        got = oracle.mixture_crps(w, mu, var, np.asarray(y))
        want = _trapezoid_crps(w, mu, var, y)
        # The trapezoid's own O(dx^2) error, dx / sigma down to 0.04 here.
        assert abs(got - want) <= 1e-5 * want


def test_workload_sizes():
    wl = run.WORKLOADS
    assert run.expected_steps(wl["train_gmm"]) == 360
    assert run.expected_steps(wl["wide_det"]) == 42
    assert run.expected_elements(wl["eval_gmm"]) == 29_000
    assert run.expected_elements(wl["wide_det"]) == 290_000


def test_config_names_match_the_benchmark():
    assert {w["name"] for w in CONFIG["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == run.PER_LAYER


def _bench(tmp_path, workload, trace, cwd=run.ROOT, script=None):
    cmd = [sys.executable, str(script or run.BENCH / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke",
           "--work", str(tmp_path / str(trace))]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_computed_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        proc = _bench(tmp_path / str(attempt), "eval_gmm", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in run.COMPUTED_COUNTS})
    assert counts[0] == counts[1]
    smoke = replace(run.WORKLOADS["eval_gmm"], **run.SMOKE)
    assert counts[0]["metrics.crps.cdf_evals"] == run.expected_elements(smoke) * 2001 * 5


def test_spawner_helper_ends_on_close(tmp_path):
    spawner = run.Spawner()
    try:
        assert spawner.run(["--version"], tmp_path).returncode == 0
    finally:
        spawner.close()
    assert spawner._proc.returncode == 0


def test_fails_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = _bench(tmp_path, "train_gmm", 0, cwd=bare, script=bare / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
