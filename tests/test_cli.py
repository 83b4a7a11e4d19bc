"""End-to-end CLI tests through click's test runner."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mixcast import cli, data, gmm, metrics, model
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
        prior = model.reference_mixture(mcfg.head)
        dataset, manifest = cli.load_dataset(workspace / "tiny")
        splits = data.prepare_splits(dataset, 6, 6, manifest.split_fractions)
        prior_nll = float(np.mean([gmm.nll(prior, y) for y in splits.val.targets.ravel()]))
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
        ],
        ids=["unknown-key", "malformed-json", "bad-value", "zero-batch", "bad-model-value"],
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
        assert not list(tmp_path.glob("*.ckpt.npz"))


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

    def test_bad_levels_rejected(self, workspace, tmp_path):
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--levels", "0:2:1",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 3

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

    def test_single_report_usage_error(self, tmp_path):
        a = self.fake_report(tmp_path / "a.txt", "det", 2.0)
        res = CliRunner().invoke(cli.main, ["compare", str(a)])
        assert res.exit_code == 2


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
        assert file_hash(reports[0]) == file_hash(reports[1])
        h1 = file_hash(reports[0].parent / "e.horizon.tsv")
        h2 = file_hash(reports[1].parent / "e.horizon.tsv")
        assert h1 == h2
