"""End-to-end CLI tests through click's test runner."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from click.testing import CliRunner

from mixcast import cli, data, metrics, model
from mixcast.metrics import report_from_text


def run(args, **kw):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False, **kw)


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


GEN = ["generate", "--nodes", "6", "--sessions", "8", "--session-steps", "24",
       "--seed", "7", "--name", "tiny"]
TRAIN_COMMON = ["--data", "tiny", "--epochs", "2", "--batch-size", "16",
                "--lr", "0.002", "--seed", "3", "--input-steps", "6", "--horizon", "6"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + trained gmm/norm/det checkpoints."""
    root = tmp_path_factory.mktemp("cliws")
    out = ["--out", str(root)]
    assert run(GEN + out).exit_code == 0
    data_flag = ["--data", str(root / "tiny")]
    for variant in ("gmm", "norm", "det"):
        res = run(
            ["train", "--variant", variant, "--name", variant]
            + TRAIN_COMMON[2:] + data_flag + out
        )
        assert res.exit_code == 0, res.output
    return root


class TestGenerate:
    def test_writes_files_and_seed(self, tmp_path):
        res = run(GEN + ["--out", str(tmp_path)])
        assert res.exit_code == 0
        assert (tmp_path / "tiny.csv").exists()
        manifest = data.read_manifest(tmp_path / "tiny.manifest.json")
        assert manifest.seed == 7
        run_manifest = json.loads((tmp_path / "tiny.run.json").read_text())
        assert run_manifest["config"]["spec"]["seed"] == 7
        for artifact in run_manifest["artifacts"].values():
            assert Path(artifact).exists()

    def test_same_flags_same_hashes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(GEN + ["--out", str(d)]).exit_code == 0
        assert file_hash(a / "tiny.csv") == file_hash(b / "tiny.csv")
        assert file_hash(a / "tiny.manifest.json") == file_hash(b / "tiny.manifest.json")

    def test_zero_nodes_is_usage_error(self, tmp_path):
        res = CliRunner().invoke(
            cli.main, ["generate", "--nodes", "0", "--out", str(tmp_path)]
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--step-minutes", "-3"], "step_minutes=-3.0"),
            (["--step-minutes", "0"], "step_minutes=0.0"),
            (["--step-minutes", "nan"], "step_minutes=nan"),
            (["--max-value", "inf"], "max_value=inf"),
            (["--noise", "inf"], "noise_sigma=inf"),
            (["--noise", "-0.1"], "noise_sigma=-0.1"),
        ],
        ids=["negative-step", "zero-step", "nan-step", "inf-max", "inf-noise", "negative-noise"],
    )
    def test_bad_numbers_rejected(self, tmp_path, flags, message):
        res = CliRunner().invoke(cli.main, GEN + ["--out", str(tmp_path)] + flags)
        assert res.exit_code == 3, res.output
        assert message in res.output
        assert not (tmp_path / "tiny.csv").exists()

    def test_env_var_sets_output_dir(self, tmp_path):
        res = CliRunner().invoke(
            cli.main, GEN, env={"MIXCAST_OUT": str(tmp_path)}, catch_exceptions=False
        )
        assert res.exit_code == 0
        assert (tmp_path / "tiny.csv").exists()


class TestTrain:
    def test_gmm_beats_prior_nll(self, workspace):
        params, mcfg, norm_stats, extra = model.load_checkpoint(workspace / "gmm.ckpt.npz")
        assert mcfg.variant == "gmm"
        prior = oracles.reference_mixture(mcfg.head)
        dataset, manifest = cli.load_dataset(workspace / "tiny")
        splits = data.prepare_splits(dataset, 6, 6, manifest.split_fractions)
        prior_nll = float(np.mean(-oracles.log_density(prior, splits.val.targets.ravel())))
        assert extra["best_val_loss"] < prior_nll

    def test_norm_checkpoint_has_k1(self, workspace):
        _, mcfg, _, _ = model.load_checkpoint(workspace / "norm.ckpt.npz")
        assert mcfg.variant == "norm"
        assert mcfg.head.components == 1

    def test_det_checkpoint_and_log(self, workspace):
        _, mcfg, _, _ = model.load_checkpoint(workspace / "det.ckpt.npz")
        assert mcfg.variant == "det"
        assert mcfg.head is None
        log = (workspace / "det.log").read_text()
        assert "loss=" in log and "batch_digest=" in log

    def test_missing_dataset_is_data_error(self, tmp_path):
        res = CliRunner().invoke(
            cli.main,
            ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path)],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("sessions", [1, 2])
    def test_too_few_sessions_is_data_error(self, tmp_path, sessions):
        gen = ["generate", "--nodes", "3", "--sessions", str(sessions), "--session-steps", "24",
               "--seed", "7", "--name", "few", "--out", str(tmp_path)]
        assert run(gen).exit_code == 0
        res = CliRunner().invoke(
            cli.main,
            ["train", "--data", str(tmp_path / "few"), "--epochs", "1",
             "--input-steps", "6", "--horizon", "6", "--out", str(tmp_path)],
        )
        assert res.exit_code == 3, res.output
        assert f"need at least 3 sessions (one each for train, val and test), got {sessions}" in (
            res.output
        )
        assert not list(tmp_path.glob("*.ckpt.npz"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--input-steps", "0"], "--input-steps"),
            (["--horizon", "0"], "--horizon"),
            (["--resolution-factor", "0"], "resolution factor must be >= 1, got 0"),
            (["--resolution-factor", "-2"], "resolution factor must be >= 1, got -2"),
            (["--coverage-fraction", "1.5"], "coverage fraction must be in (0, 1], got 1.5"),
        ],
        ids=["zero-input-steps", "zero-horizon", "zero-resolution", "negative-resolution",
             "coverage-above-one"],
    )
    def test_bad_size_and_quality_flags_rejected(self, tmp_path, workspace, flags, message):
        res = CliRunner().invoke(
            cli.main,
            ["train", "--variant", "det", "--data", str(workspace / "tiny"), "--epochs", "1",
             "--input-steps", "6", "--horizon", "6", "--out", str(tmp_path)] + flags,
        )
        assert res.exit_code == (2 if message.startswith("--") else 3)
        assert message in res.output
        assert not list(tmp_path.glob("*.ckpt.npz"))

    def test_config_file_overridden_by_flags(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "lr": 0.01}}))
        res = run(
            ["train", "--variant", "det", "--name", "cfgdet", "--config", str(cfg),
             "--data", str(workspace / "tiny"), "--epochs", "2", "--batch-size", "16",
             "--seed", "3", "--input-steps", "6", "--horizon", "6",
             "--out", str(tmp_path)]
        )
        assert res.exit_code == 0
        run_manifest = json.loads((tmp_path / "cfgdet.run.json").read_text())
        assert run_manifest["config"]["train"]["epochs"] == 2  # flag wins
        assert run_manifest["config"]["train"]["lr"] == 0.01  # config used

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"model": {"hiden": 8}}', "unknown model key(s) ['hiden']"),
            ('{"train": {"lr": 0.01', "malformed JSON"),
            ('{"train": {"lr": -1}}', "lr must be positive, got -1"),
            ('{"train": {"batch_size": 0}}', "batch_size must be >= 1, got 0"),
            ('{"model": {"activation": "relu"}}', "unknown activation 'relu'"),
            ('{"train": {"betas": [0.9]}}',
             "train config: betas must be two numbers in [0, 1), got [0.9]"),
            ('{"train": {"betas": [0.9, 1.0]}}', "train config: betas must be two numbers"),
            ('{"train": {"weight_decay": -5}}',
             "train config: weight_decay must be a finite number >= 0, got -5.0"),
            ('{"train": {"warmup_epochs": -1}}',
             "train config: warmup_epochs must be a finite number >= 0, got -1.0"),
            ('{"train": {"clip_norm": -1}}',
             "train config: clip_norm must be a finite number >= 0, got -1.0"),
        ],
        ids=["unknown-key", "malformed-json", "bad-value", "zero-batch", "bad-model-value",
             "one-beta", "beta-one", "negative-weight-decay", "negative-warmup",
             "negative-clip-norm"],
    )
    def test_bad_config_is_data_error(self, tmp_path, workspace, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        res = CliRunner().invoke(
            cli.main,
            ["train", "--variant", "det", "--config", str(cfg), "--data", str(workspace / "tiny"),
             "--epochs", "1", "--input-steps", "6", "--horizon", "6", "--out", str(tmp_path)],
        )
        assert res.exit_code == 3
        assert message in res.output
        assert "diverged" not in res.output
        assert not list(tmp_path.glob("*.ckpt.npz"))

    def test_run_manifest_records_training_health(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"clip_norm": 0.2}}))
        args = ["--variant", "gmm", "--epochs", "2", "--batch-size", "16", "--lr", "0.002",
                "--seed", "3", "--input-steps", "6", "--horizon", "6"]
        res = run(["train", "--name", "health", "--config", str(cfg),
                   "--data", str(workspace / "tiny"), "--out", str(tmp_path)] + args)
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "health.run.json").read_text())
        stats = manifest["grad_norm"]
        assert set(stats) == {"min", "median", "max"}
        assert 0 < stats["min"] <= stats["median"] <= stats["max"]
        # The same run in process gives every step's norm.
        dataset, dman = cli.load_dataset(workspace / "tiny")
        tcfg = cli.training.TrainConfig(epochs=2, batch_size=16, lr=0.002, clip_norm=0.2, seed=3)
        result, _, splits, _ = cli.train_run(dataset, dman, "gmm", 5, tcfg, 6, 6)
        norms = result.grad_norms
        steps = len(re.findall(r"^epoch=\d+ step=\d+ ", (tmp_path / "health.log").read_text(),
                               flags=re.M))
        assert len(norms) == steps
        assert stats == {"min": min(norms), "median": float(np.median(norms)), "max": max(norms)}
        assert result.clip_fired == [n > 0.2 for n in norms]
        assert manifest["clipped_steps"] == sum(result.clip_fired)
        assert 0 < manifest["clipped_steps"] < steps
        # Every completed step's (element, component) log-variances, K = 5.
        assert result.logvars == 2 * splits.train.targets.size * 5
        clamped = manifest["logvar_clamped"]
        assert clamped == {"count": result.logvar_clamped,
                           "fraction": result.logvar_clamped / result.logvars}
        # Per epoch and horizon step, from the validation logits.
        for key in ("weight_entropy", "effective_k"):
            assert manifest[key] == [h[key] for h in result.history]
            assert np.shape(manifest[key]) == (2, 6)
        assert all(0 <= h <= math.log(5) + 1e-12 for row in manifest["weight_entropy"] for h in row)
        assert all(1 <= k <= 5 + 1e-12 for row in manifest["effective_k"] for k in row)


class TestEvaluate:
    def test_gmm_report_schema(self, workspace, tmp_path):
        res = run(
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--name", "g", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        rep = report_from_text((tmp_path / "g.report.txt").read_text())
        for v in (rep.crps_mean, rep.avg_width, rep.calib_error, rep.mae, rep.mape, rep.rmse):
            assert math.isfinite(v)
        assert len(rep.calibration_curve) == 10  # default level grid
        assert len(rep.per_horizon) == 6
        assert (tmp_path / "g.density.tsv").exists()
        assert (tmp_path / "g.horizon.tsv").exists()
        assert (tmp_path / "g.calibration.tsv").exists()
        run_manifest = json.loads((tmp_path / "g.run.json").read_text())
        assert 0 <= run_manifest["clipped_interval_elements"] <= int(rep.meta["elements"])
        pit = run_manifest["hpd_pit_counts"]
        assert len(pit) == metrics.PIT_BINS and sum(pit) == int(rep.meta["elements"])
        by_step = run_manifest["hpd_pit_counts_by_step"]
        assert len(by_step) == len(rep.per_horizon)
        for row in by_step:
            assert len(row) == metrics.PIT_BINS
            assert sum(row) == int(rep.meta["elements"]) // len(rep.per_horizon)
        assert [sum(col) for col in zip(*by_step)] == pit
        assert "pit" not in (tmp_path / "g.report.txt").read_text()

    def test_det_crps_equals_mae(self, workspace, tmp_path):
        res = run(
            ["evaluate", "--checkpoint", str(workspace / "det.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--name", "d", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        rep = report_from_text((tmp_path / "d.report.txt").read_text())
        assert abs(rep.crps_mean - rep.mae) <= 1e-12
        assert math.isnan(rep.avg_width) and math.isnan(rep.calib_error)
        assert not (tmp_path / "d.density.tsv").exists()

    def test_custom_levels(self, workspace, tmp_path):
        res = run(
            ["evaluate", "--checkpoint", str(workspace / "norm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--levels", "0.8,0.9",
             "--name", "n", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        rep = report_from_text((tmp_path / "n.report.txt").read_text())
        assert [lvl for lvl, _ in rep.calibration_curve] == [0.8, 0.9]

    def test_normalized_space_flag(self, workspace, tmp_path):
        res = run(
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--normalized-space",
             "--name", "gz", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        rep = report_from_text((tmp_path / "gz.report.txt").read_text())
        assert rep.meta["space"] == "normalized"

    def test_wrong_dataset_rejected(self, workspace, tmp_path):
        assert run(
            ["generate", "--nodes", "6", "--sessions", "8", "--session-steps", "24",
             "--seed", "99", "--name", "other", "--out", str(tmp_path)]
        ).exit_code == 0
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(tmp_path / "other"), "--out", str(tmp_path)],
        )
        assert res.exit_code == 3

    def test_blank_test_cell_rejected(self, workspace, tmp_path):
        # Same dataset with one blank cell in the last row, which lies in
        # the test split: it must not be scored as a speed of 0.
        (tmp_path / "gappy.manifest.json").write_text(
            (workspace / "tiny.manifest.json").read_text()
        )
        lines = (workspace / "tiny.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = ""
        lines[-1] = ",".join(cells)
        (tmp_path / "gappy.csv").write_text("\n".join(lines) + "\n")
        node = lines[0].split(",")[1]
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(tmp_path / "gappy"), "--out", str(tmp_path)],
        )
        assert res.exit_code == 3
        assert f"1 blank cells, first at row {len(lines)}/node {node}" in res.output

    @pytest.mark.parametrize("name", ["tiny.csv", "tiny.run.json", "no_meta.npz"])
    def test_non_checkpoint_is_data_error(self, workspace, tmp_path, name):
        path = workspace / name
        if name == "no_meta.npz":
            path = tmp_path / name
            np.savez(path, w=np.zeros(3))
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(path), "--data", str(workspace / "tiny"),
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 3, res.output
        assert f"cannot read checkpoint {path}" in res.output

    def test_bad_levels_rejected(self, workspace, tmp_path):
        # A repeated level would count twice in calib_error.
        cases = [("0:2:1", "levels"), ("nan", "levels"), ("0.5:0.9:0", "levels"),
                 ("0.9,0.5", "levels must be strictly increasing"),
                 ("0.5,0.5", "levels must be strictly increasing"),
                 ("0.5,0.8,0.7", "levels must be strictly increasing")]
        for levels, message in cases:
            res = CliRunner().invoke(
                cli.main,
                ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
                 "--data", str(workspace / "tiny"), "--levels", levels,
                 "--out", str(tmp_path)],
            )
            assert res.exit_code == 3, levels
            assert message in res.output, levels

    def test_mixtures_off_the_grid_rejected(self, workspace, tmp_path):
        # Shifting every component mean far past the raw grid (0, max_value)
        # leaves no density mass on it to select intervals from.
        params, mcfg, norm_stats, extra = model.load_checkpoint(workspace / "gmm.ckpt.npz")
        tensors = dict(params.tensors)
        tensors["mean.b"] = tensors["mean.b"] + 1000.0
        shifted = tmp_path / "shifted.ckpt.npz"
        model.save_checkpoint(shifted, model.ModelParams(tensors), mcfg,
                              normalizer=SimpleNamespace(**norm_stats), extra=extra)
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(shifted), "--data", str(workspace / "tiny"),
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 3
        assert re.search(r"(\d+) of \1 elements put no mass on the interval grid \[0\.0, ",
                         res.output), res.output

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_points_below_two_is_usage_error(self, workspace, tmp_path, points):
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--grid-points", points,
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert "--grid-points" in res.output


class TestCompare:
    def fake_report(self, path, variant, crps, dataset="deadbeef0000"):
        rep = metrics.EvaluationReport(
            crps_mean=crps, avg_width=1.0, calib_error=0.05, mae=crps, mape=10.0,
            rmse=crps, per_horizon=[(1, crps, 1.0, 0.05)],
            calibration_curve=[(0.5, 0.5)], meta={"variant": variant, "dataset": dataset},
        )
        Path(path).write_text(metrics.report_to_text(rep))
        return path

    def test_identical_reports_zero_improvement(self, tmp_path):
        a = self.fake_report(tmp_path / "a.txt", "gmm", 2.0)
        res = run(["compare", str(a), str(a)])
        assert res.exit_code == 0
        assert "\t0.00" in res.output

    def test_fifty_percent_improvement(self, tmp_path):
        d = self.fake_report(tmp_path / "d.txt", "det", 2.0)
        g = self.fake_report(tmp_path / "g.txt", "gmm", 1.0)
        res = run(["compare", str(g), str(d)])
        assert res.exit_code == 0
        gmm_row = [l for l in res.output.splitlines() if l.startswith("gmm")][0]
        assert gmm_row.endswith("50.00\t50.00")
        det_row = [l for l in res.output.splitlines() if l.startswith("det")][0]
        assert det_row.endswith("100.00\t0.00")

    def test_three_variants_det_baseline(self, tmp_path):
        d = self.fake_report(tmp_path / "d.txt", "det", 2.0)
        n = self.fake_report(tmp_path / "n.txt", "norm", 1.5)
        g = self.fake_report(tmp_path / "g.txt", "gmm", 1.0)
        res = run(["compare", str(n), str(g), str(d)])
        assert res.exit_code == 0
        det_row = [l for l in res.output.splitlines() if l.startswith("det")][0]
        assert det_row.endswith("100.00\t0.00")
        norm_row = [l for l in res.output.splitlines() if l.startswith("norm")][0]
        assert norm_row.endswith("75.00\t25.00")

    def test_mismatched_datasets_rejected(self, tmp_path):
        a = self.fake_report(tmp_path / "a.txt", "det", 2.0, dataset="aaaa")
        b = self.fake_report(tmp_path / "b.txt", "gmm", 1.0, dataset="bbbb")
        res = CliRunner().invoke(cli.main, ["compare", str(a), str(b)])
        assert res.exit_code == 3

    def test_malformed_report_names_file(self, tmp_path):
        good = self.fake_report(tmp_path / "good.txt", "det", 2.0)
        bad = self.fake_report(tmp_path / "bad.txt", "gmm", 1.0)
        bad.write_text(bad.read_text().replace("crps_mean = 1.0", "crps_mean = abc"))
        res = CliRunner().invoke(cli.main, ["compare", str(good), str(bad)])
        assert res.exit_code == 3
        assert f"{bad}: malformed report" in res.output

    def test_single_report_usage_error(self, tmp_path):
        a = self.fake_report(tmp_path / "a.txt", "det", 2.0)
        res = CliRunner().invoke(cli.main, ["compare", str(a)])
        assert res.exit_code == 2


# Runs each command through `cli.main` in one fresh interpreter and prints,
# after each, the scipy modules loaded so far; then imports scipy.special
# itself as a probe that the listing can see scipy.
_COLD_START = """
import json, sys
from click.testing import CliRunner
from mixcast import cli

out = sys.argv[1]
data = ["--data", out + "/cold"]
commands = {
    "--version": ["--version"],
    "generate": ["generate", "--nodes", "3", "--sessions", "4", "--session-steps", "24",
                 "--seed", "7", "--name", "cold", "--out", out],
    "train": ["train", "--epochs", "1", "--batch-size", "16", "--input-steps", "6",
              "--horizon", "6", "--name", "m", "--out", out] + data,
    "evaluate": ["evaluate", "--checkpoint", out + "/m.ckpt.npz", "--name", "e",
                 "--out", out] + data,
}
loaded = {}
for name, args in commands.items():
    res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0, (name, res.output)
    loaded[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.special
loaded["probe"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


class TestColdStart:
    def test_scipy_loaded_only_by_scoring(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        # No command loads scipy, evaluate (CRPS, intervals) included.
        for name in ("--version", "generate", "train", "evaluate"):
            assert loaded[name] == [], name
        assert "scipy.special" in loaded["probe"]


class TestReproducibility:
    def test_generate_train_evaluate_byte_identical(self, tmp_path):
        reports = []
        for sub in ("r1", "r2"):
            d = tmp_path / sub
            d.mkdir()
            out = ["--out", str(d)]
            assert run(GEN + out).exit_code == 0
            assert run(
                ["train", "--variant", "gmm", "--name", "m",
                 "--data", str(d / "tiny")] + TRAIN_COMMON[2:] + out
            ).exit_code == 0
            assert run(
                ["evaluate", "--checkpoint", str(d / "m.ckpt.npz"),
                 "--data", str(d / "tiny"), "--name", "e"] + out
            ).exit_code == 0
            reports.append(d / "e.report.txt")
        for artifact in ("e.report.txt", "e.horizon.tsv", "m.ckpt.npz", "m.log"):
            assert file_hash(tmp_path / "r1" / artifact) == file_hash(tmp_path / "r2" / artifact)

    def test_batch_digests_hash_float64_windows(self, workspace):
        # Training computes in float32; the digests still hash the float64
        # windows, in the order the seeded batch stream consumes them.
        dataset, manifest = cli.load_dataset(workspace / "tiny")
        windows = data.prepare_splits(dataset, 6, 6, manifest.split_fractions).train.inputs
        assert windows.dtype == np.float64
        rng = np.random.default_rng([3, 0])
        logged = re.findall(r"batch_digest=(\w+)", (workspace / "gmm.log").read_text())
        expected = [
            hashlib.sha256(np.ascontiguousarray(windows[rng.permutation(len(windows))])
                           .tobytes()).hexdigest()[:16]
            for _ in logged
        ]
        assert len(logged) == 2 and logged == expected
