"""End-to-end CLI tests through click's test runner."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
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

    def test_help_shows_the_spec_defaults(self):
        # The option defaults are read from SyntheticSpec; the text is as
        # it was when the CLI spelled them out.
        assert run(["generate", "--help"]).output == """\
Usage: main generate [OPTIONS]

  Write a synthetic dataset (CSV + manifest).

Options:
  --nodes INTEGER          [default: 50]
  --sessions INTEGER       [default: 30]
  --session-steps INTEGER  [default: 48]
  --step-minutes FLOAT     [default: 3.0]
  --max-value FLOAT        [default: 14.0]
  --noise FLOAT            [default: 0.3]
  --seed INTEGER RANGE     [default: 0; x>=0]
  --name TEXT              [default: synthetic]
  --out PATH               Output directory (default $MIXCAST_OUT or cwd).
  --help                   Show this message and exit.
"""

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

    def test_batch_size_above_the_windows_sizes_the_workspace_by_the_rows_drawn(
            self, workspace, tmp_path, monkeypatch):
        # 10**6 windows per batch: every batch is the whole training split
        # (and every validation block the whole validation split), so the
        # workspace holds that many rows, not 10**6 x nodes.
        made, taken = [], []
        real = model.Workspace

        class Recording(real):
            def __init__(self, cfg, rows, dtype):
                made.append(rows)
                assert rows < 10**5, "workspace sized by --batch-size"
                super().__init__(cfg, rows, dtype)

            def views(self, rows):
                taken.append(rows)
                return super().views(rows)

        monkeypatch.setattr(model, "Workspace", Recording)
        res = run(["train", "--variant", "gmm", "--name", "big", "--data", str(workspace / "tiny"),
                   "--out", str(tmp_path), *TRAIN_COMMON[2:4], "--batch-size", "1000000",
                   *TRAIN_COMMON[6:]])
        assert res.exit_code == 0, res.output
        dataset, manifest = cli.load_dataset(workspace / "tiny")
        splits = data.prepare_splits(dataset, 6, 6, manifest.split_fractions)
        rows = max(splits.train.count, splits.val.count) * dataset.nodes
        assert made == [rows] and max(taken) == rows
        assert sorted(set(taken)) == sorted({splits.train.count * dataset.nodes,
                                             splits.val.count * dataset.nodes})

    def test_missing_dataset_is_data_error(self, tmp_path):
        res = CliRunner().invoke(
            cli.main,
            ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path)],
        )
        assert res.exit_code == 3

    def test_nan_cell_named_by_row_and_node(self, workspace, tmp_path):
        # float() parses "nan", and NaN fails both range comparisons; the
        # range check must still name its row and node.
        (tmp_path / "nan.manifest.json").write_text(
            (workspace / "tiny.manifest.json").read_text()
        )
        lines = (workspace / "tiny.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "nan"
        lines[5] = ",".join(cells)
        (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
        node = lines[0].split(",")[3]
        res = CliRunner().invoke(
            cli.main,
            ["train", "--data", str(tmp_path / "nan"), "--epochs", "1",
             "--input-steps", "6", "--horizon", "6", "--out", str(tmp_path)],
        )
        assert res.exit_code == 3
        assert f"1 values outside [0, 14.0]: row 6/node {node}" in res.output

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

    def test_sessions_shorter_than_a_window_named_once(self, tmp_path):
        gen = ["generate", "--nodes", "3", "--sessions", "10", "--seed", "7", "--name", "short",
               "--out", str(tmp_path)]
        assert run(gen).exit_code == 0
        res = CliRunner().invoke(
            cli.main,
            ["train", "--data", str(tmp_path / "short"), "--epochs", "1", "--horizon", "40",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 3, res.output
        assert res.output == "error: sessions have 48 steps, fewer than input_steps + horizon = 50\n"
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

    def test_defaults_are_the_dataclasses(self, tmp_path, workspace):
        # With no setting flag and an empty --config, run.json records
        # exactly the dataclasses' defaults: the CLI holds no copy of them.
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        res = run(["train", "--name", "plain", "--config", str(cfg),
                   "--data", str(workspace / "tiny"), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        config = json.loads((tmp_path / "plain.run.json").read_text())["config"]
        assert config["train"] == json.loads(json.dumps(asdict(cli.training.TrainConfig())))
        assert config["model"]["backbone"] == asdict(model.BackboneConfig(input_steps=10))
        assert config["model"]["head"] == asdict(model.HeadConfig(components=5))

    def test_config_keys_are_dataclass_fields(self):
        def names(*classes):
            return {f.name for cls in classes for f in fields(cls)}

        assert cli.CONFIG_KEYS["train"] - {"k"} <= names(cli.training.TrainConfig)
        assert cli.CONFIG_KEYS["model"] <= names(model.BackboneConfig, model.HeadConfig)

    def test_run_manifest_reproduces_the_run(self, tmp_path, workspace):
        # run.json records every setting: a train given only what it
        # records writes the same tensors.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"k": 3, "weight_decay": 0.0},
                                   "model": {"hidden": 8, "features": 6,
                                             "activation": "identity", "proj_width": 4}}))
        first = tmp_path / "first"
        res = run(["train", "--name", "m", "--config", str(cfg), "--data", str(workspace / "tiny"),
                   "--epochs", "2", "--input-steps", "6", "--horizon", "6",
                   "--coverage-fraction", "0.5", "--coverage-seed", "9", "--out", str(first)])
        assert res.exit_code == 0, res.output
        recorded = json.loads((first / "m.run.json").read_text())["config"]
        params, mcfg, _, _ = model.load_checkpoint(first / "m.ckpt.npz")
        assert recorded["model"] == model._cfg_to_meta(mcfg)
        assert recorded["coverage_seed"] == 9
        backbone, head = recorded["model"]["backbone"], recorded["model"]["head"]
        again = tmp_path / "again.json"
        again.write_text(json.dumps({
            "train": recorded["train"] | {"k": head["components"]},
            "model": {key: backbone[key] for key in ("hidden", "features", "activation")}
            | {"proj_width": head["proj_width"]},
        }))
        settings = {"variant": recorded["model"]["variant"], "input_steps": backbone["input_steps"],
                    "horizon": recorded["model"]["horizon"]}
        settings |= {key: recorded[key] for key in ("coverage_fraction", "coverage_seed",
                                                    "resolution_factor")}
        flags = [arg for key, value in settings.items()
                 for arg in ("--" + key.replace("_", "-"), str(value))]
        second = tmp_path / "second"
        res = run(["train", "--name", "m", "--config", str(again), "--data", recorded["data"],
                   "--out", str(second)] + flags)
        assert res.exit_code == 0, res.output
        params2, mcfg2, _, _ = model.load_checkpoint(second / "m.ckpt.npz")
        assert mcfg2 == mcfg and params2.names() == params.names()
        assert params2.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"model": {"hiden": 8}}', "unknown model key(s) ['hiden']"),
            ('{"train": {"lr": 0.01', "malformed JSON"),
            ('{"train": {"lr": -1}}', "lr must be positive and finite, got -1"),
            ('{"train": {"batch_size": 0}}', "batch_size must be an integer >= 1, got 0"),
            ('{"model": {"activation": "relu"}}', "unknown activation 'relu'"),
            ('{"train": {"betas": [0.9]}}',
             "train config: betas must be two numbers in [0, 1), got [0.9]"),
            ('{"train": {"betas": [0.9, 1.0]}}', "train config: betas must be two numbers"),
            ('{"train": {"weight_decay": -5}}',
             "train config: weight_decay must be a finite number >= 0, got -5"),
            ('{"train": {"warmup_epochs": -1}}',
             "train config: warmup_epochs must be a finite number >= 0, got -1"),
            ('{"train": {"clip_norm": -1}}',
             "train config: clip_norm must be a finite number >= 0, got -1"),
            ('{"train": {"weight_decay": true}}',
             "train config: weight_decay must be a finite number >= 0, got True"),
            ('{"train": {"clip_norm": "5"}}',
             "train config: clip_norm must be a finite number >= 0, got '5'"),
            ('{"train": {"lr": true}}', "train config: lr must be positive and finite, got True"),
            ('{"train": {"lr": "0.001"}}',
             "train config: lr must be positive and finite, got '0.001'"),
            ('{"train": {"lr": 1e400}}', "train config: lr must be positive and finite, got inf"),
        ],
        ids=["unknown-key", "malformed-json", "bad-value", "zero-batch", "bad-model-value",
             "one-beta", "beta-one", "negative-weight-decay", "negative-warmup",
             "negative-clip-norm", "bool-weight-decay", "string-clip-norm", "bool-lr",
             "string-lr", "overflowing-lr"],
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

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["train"], {"train": {"epochs": 1.5}},
             "train config: epochs must be an integer >= 1, got 1.5"),
            (["train"], {"train": {"epochs": True}},
             "train config: epochs must be an integer >= 1, got True"),
            (["train"], {"train": {"batch_size": 2.5}},
             "train config: batch_size must be an integer >= 1, got 2.5"),
            (["train"], {"train": {"seed": 1.5}}, "train config: seed must be an integer >= 0, got 1.5"),
            (["train"], {"train": {"seed": -1}}, "train config: seed must be an integer >= 0, got -1"),
            (["train"], {"train": {"k": 2.5}},
             "model config: components must be an integer >= 1, got 2.5"),
            (["train"], {"model": {"hidden": -1}}, "model config: hidden must be an integer >= 1, got -1"),
            (["train"], {"model": {"hidden": 0}}, "model config: hidden must be an integer >= 1, got 0"),
            (["train"], {"model": {"features": -2}},
             "model config: features must be an integer >= 1, got -2"),
            (["train"], {"model": {"proj_width": 0}},
             "model config: proj_width must be an integer >= 1, got 0"),
            (["train", "--lr", "inf"], {}, "train config: lr must be positive and finite, got inf"),
            (["train", "--seed", "-1"], {}, "--seed"),
            (["train", "--coverage-seed", "-1"], {}, "--coverage-seed"),
            (GEN + ["--seed", "-1"], None, "--seed"),
        ],
        ids=["float-epochs", "bool-epochs", "float-batch-size", "float-seed", "negative-seed",
             "float-k", "negative-hidden", "zero-hidden", "negative-features", "zero-proj-width",
             "infinite-lr-flag", "negative-seed-flag", "negative-coverage-seed-flag", "negative-generate-seed-flag"],
    )
    def test_non_integer_and_negative_settings_rejected(self, tmp_path, workspace, args, config,
                                                         message):
        # Flags fail click's range check (exit 2), config values the config
        # dataclasses' checks (exit 3); either way nothing is written.
        out = tmp_path / "out"
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--variant", "gmm", "--config", str(cfg), "--data",
                           str(workspace / "tiny"), "--input-steps", "6", "--horizon", "6"]
            if "epochs" not in config.get("train", {}):
                args += ["--epochs", "1"]
        res = CliRunner().invoke(cli.main, args + ["--out", str(out)])
        assert res.exit_code == (2 if message.startswith("--") else 3), res.output
        assert message in res.output
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("norms", [[0.3], [2.5, 0.1, 7.25], [0.3, 0.1, 0.7, 0.2]],
                             ids=["one", "odd", "even"])
    def test_grad_norm_median_is_numpys(self, norms):
        result = cli.training.TrainResult(params=None, best_val_loss=0.0, best_epoch=0,
                                          grad_norms=norms)
        stats = cli.training_health(result)["grad_norm"]
        assert stats == {"min": min(norms), "median": float(np.median(norms)), "max": max(norms)}

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
        tcfg = cli.training.TrainConfig(epochs=2, batch_size=16, lr=0.002, clip_norm=0.2, seed=3)
        result, _, splits, _ = cli.train_run(workspace / "tiny", "gmm", 5, tcfg, 6, 6, {},
                                             1.0, 0, 1)
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


def _manifest_edit(key, value):
    return lambda m: json.dumps(m | {key: value})


# Each malformed manifest, as an edit of the tiny dataset's manifest
# object, and the part of the message that names its key or value.
BAD_MANIFESTS = {
    "missing-key": (lambda m: json.dumps({k: v for k, v in m.items() if k != "sessions"}),
                    "missing DatasetManifest key(s) ['sessions']"),
    "malformed-json": (lambda m: json.dumps(m)[:-2], "malformed JSON: Expecting value"),
    "json-list": (lambda m: json.dumps(list(m)), "expected a JSON object, got list"),
    "max-value-text": (_manifest_edit("max_value", "x"), "max_value='x' must be finite"),
    "split-text": (_manifest_edit("split_fractions", [0.7, 0.1, "x"]),
                   "split_fractions must be three numbers >= 0 that sum to 1, got (0.7, 0.1, 'x')"),
    "sessions-float": (_manifest_edit("sessions", 10.0),
                       "sessions must be an integer >= 1, got 10.0"),
    "sessions-text": (_manifest_edit("sessions", "ten"),
                      "sessions must be an integer >= 1, got 'ten'"),
    "split-sum": (_manifest_edit("split_fractions", [0.7, 0.1, 0.3]), "sum to 1"),
    "unknown-key": (_manifest_edit("nodes", 6), "unknown DatasetManifest key(s) ['nodes']"),
    "repeated-id": (lambda m: json.dumps(m | {"node_ids": m["node_ids"][:1] * 2 + m["node_ids"][2:]}),
                    "node_ids must be distinct, got 'n0000' more than once"),
    "seed-text": (_manifest_edit("seed", "x"), "seed must be an integer >= 0, got 'x'"),
    "seed-negative": (_manifest_edit("seed", -1), "seed must be an integer >= 0, got -1"),
    "other-format": (_manifest_edit("format", "mixcast-checkpoint"), "not a dataset manifest"),
}


class TestManifestInput:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_malformed_manifest_named_and_nothing_written(self, workspace, tmp_path, command,
                                                          case):
        edit, cause = BAD_MANIFESTS[case]
        man_path = tmp_path / "bad.manifest.json"
        man_path.write_text(edit(json.loads((workspace / "tiny.manifest.json").read_text())))
        (tmp_path / "bad.csv").write_bytes((workspace / "tiny.csv").read_bytes())
        out = tmp_path / "out"
        args = {"train": ["train", "--variant", "det", "--epochs", "1", "--input-steps", "6",
                          "--horizon", "6"],
                "evaluate": ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz")]}
        res = CliRunner().invoke(cli.main, args[command] + ["--data", str(tmp_path / "bad"),
                                                            "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert res.output.startswith(f"error: {man_path}: ")
        assert cause in res.output
        assert not out.exists()

    @pytest.mark.parametrize("seed, want", [(None, "9a70914876b6"), (0, "4fb225b60a32"),
                                            (7, "1685e014de49")])
    def test_dataset_id_of_a_valid_manifest_is_stable(self, seed, want):
        # Checkpoints store this id, so checking the manifest's fields
        # must not move it for any manifest that was valid before.
        manifest = data.DatasetManifest(node_ids=["a", "b"], sessions=2, session_steps=3,
                                        step_minutes=3.0, max_value=14.0, seed=seed)
        assert cli.dataset_id(manifest) == want


class TestEvaluate:
    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    def test_artifacts_listed_and_intervals_table(self, workspace, tmp_path, variant):
        res = run(
            ["evaluate", "--checkpoint", str(workspace / f"{variant}.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--name", "e", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        kinds = {"report": "txt", "horizon": "tsv", "calibration": "tsv"}
        if variant != "det":
            kinds |= {"density": "tsv", "intervals": "tsv"}
        manifest = json.loads((tmp_path / "e.run.json").read_text())
        assert manifest["artifacts"] == {k: str(tmp_path / f"e.{k}.{ext}") for k, ext in kinds.items()}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"e.{k}.{ext}" for k, ext in kinds.items()] + ["e.run.json"]
        )
        if variant == "det":
            assert manifest["ridge_grid_mass"] is None
            return
        ridge = np.array([[float(v) for v in line.split("\t")] for line in
                          (tmp_path / "e.density.tsv").read_text().splitlines()[1:]])
        x, dens = ridge[:, 0], ridge[:, 1:].T
        assert manifest["ridge_grid_mass"] == pytest.approx(dens.sum(axis=1) * (x[1] - x[0]),
                                                            rel=1e-12)
        lines = (tmp_path / "e.intervals.tsv").read_text().splitlines()
        assert lines[0] == "step\tlevel\tindex\tlower\tupper"
        table = {}
        for line in lines[1:]:
            step, level, index, lo, hi = line.split("\t")
            table.setdefault((int(step), float(level)), []).append((int(index), float(lo), float(hi)))
        levels = [float(v) for v in metrics.DEFAULT_LEVELS]
        assert sorted(table) == [(t, c) for t in range(1, 7) for c in levels]
        for t in range(1, 7):
            prev = np.zeros(x.size, dtype=bool)
            for c in levels:
                rows = table[(t, c)]
                assert [i for i, _, _ in rows] == list(range(1, len(rows) + 1))
                bounds = [v for _, lo, hi in rows for v in (lo, hi)]
                assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
                assert 0.0 <= bounds[0] and bounds[-1] <= 14.0
                # Nested as the level rises: every grid cell selected at a
                # lower level is selected again.
                cells = np.any([(lo <= x) & (x <= hi) for _, lo, hi in rows], axis=0)
                assert np.all(cells[prev])
                prev = cells

    def test_default_levels_are_metrics_default_levels(self, workspace, tmp_path):
        res = run(["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
                   "--data", str(workspace / "tiny"), "--name", "e", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = report_from_text((tmp_path / "e.report.txt").read_text())
        recorded = tuple(float(v) for v in report.meta["levels"].split(","))
        assert recorded == tuple(float(v) for v in metrics.DEFAULT_LEVELS)
        assert [c for c, _ in report.calibration_curve] == list(recorded)

    @pytest.mark.parametrize("flags", [["--ridge-node", "6"], ["--ridge-node", "-1"],
                                       ["--ridge-window", "100000"]],
                             ids=["node-past-end", "negative-node", "window-past-end"])
    def test_ridge_index_outside_test_split_writes_nothing(self, workspace, tmp_path, flags):
        out = tmp_path / "out"
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--out", str(out)] + flags,
        )
        assert res.exit_code == 3, res.output
        assert "ridge index" in res.output
        assert not out.exists() or not list(out.iterdir())

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

    @pytest.mark.parametrize("name", ["tiny.csv", "tiny.run.json", "no_meta.npz", "truncated.npz",
                                      "unknown_key.npz", "v1_anchors.npz", "head_list.npz",
                                      "hidden_32.npz", "dropped_tensor.npz", "horizon_7.npz",
                                      "no_input_steps.npz", "horizon_text.npz"])
    def test_non_checkpoint_is_data_error(self, workspace, tmp_path, name):
        path = workspace / name
        if name == "no_meta.npz":
            path = tmp_path / name
            np.savez(path, w=np.zeros(3))
        elif name == "truncated.npz":
            # A zip header, cut short of its central directory.
            path = tmp_path / name
            path.write_bytes((workspace / "gmm.ckpt.npz").read_bytes()[:2000])
        elif name.endswith(".npz"):
            # The gmm checkpoint (6 input steps, 6 steps ahead, K=5) with
            # its meta edited: a backbone key no config has or one it
            # needs, the head stored as older v1 files did but with
            # anchors [0..4], a head that is not an object, a horizon
            # given as text, or a config its tensors do not fit.
            path = tmp_path / name
            with np.load(workspace / "gmm.ckpt.npz") as npz:
                arrays = dict(npz)
            meta = json.loads(bytes(arrays.pop("__meta__")).decode())
            cfg = meta["model"]
            if name == "unknown_key.npz":
                cfg["backbone"]["dropout"] = 0.1
            elif name == "v1_anchors.npz":
                cfg["head"] |= {"horizon": 6, "anchor_scale": 1.0, "anchors": [0, 1, 2, 3, 4]}
            elif name == "head_list.npz":
                cfg["head"] = [5, 64]
            elif name == "hidden_32.npz":
                cfg["backbone"]["hidden"] = 32
            elif name == "dropped_tensor.npz":
                meta["tensor_names"].remove("logvar.b")
            elif name == "no_input_steps.npz":
                del cfg["backbone"]["input_steps"]
            elif name == "horizon_text.npz":
                cfg["horizon"] = "6"
            else:
                cfg["horizon"] = 7
            np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8), **arrays)
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(path), "--data", str(workspace / "tiny"),
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 3, res.output
        assert f"cannot read checkpoint {path}" in res.output
        cause = {"unknown_key.npz": "unknown BackboneConfig key(s) ['dropout']",
                 "v1_anchors.npz": "head anchors is [0, 1, 2, 3, 4], not the derived",
                 "head_list.npz": "model head must be an object, got [5, 64]",
                 "hidden_32.npz": "tensor backbone.w1 is (64, 6) in the file but (32, 6) for "
                                  "the stored config",
                 "dropped_tensor.npz": "tensor logvar.b is absent in the file but (30,) for the "
                                       "stored config",
                 "horizon_7.npz": "tensor mix.w is (30, 64) in the file but (35, 64) for the "
                                  "stored config",
                 "no_input_steps.npz": "missing BackboneConfig key(s) ['input_steps']",
                 "horizon_text.npz": "horizon must be an integer >= 1, got '6'"}
        assert cause.get(name, "") in res.output

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

    def test_grid_points_above_the_limit_is_usage_error(self, workspace, tmp_path):
        # Rejected while the options are parsed: the data path does not
        # exist, so a check after loading the dataset would exit 3.
        limit = metrics.MAX_INTERVAL_POINTS
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(tmp_path / "missing"), "--grid-points", str(limit + 1),
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert "--grid-points" in res.output and f"2<=x<={limit}" in res.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("levels,flags,message", [
        ("0.5:0.95:1e-12", [], "the range holds more levels than --grid-points (500)"),
        ("0.05:0.95:0.05", ["--grid-points", "10"],
         "the range holds more levels than --grid-points (10)"),
        ("0.9:0.5:0.1", [], "the range is empty"),
    ], ids=["tiny-step", "more-than-grid", "reversed"])
    def test_levels_range_counted_before_it_is_built(self, workspace, tmp_path, levels, flags,
                                                     message):
        # The tiny step used to ask numpy for a 3.27 TiB array, and the
        # reversed range was reported as levels outside (0, 1).
        out = tmp_path / "out"
        res = CliRunner().invoke(
            cli.main,
            ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
             "--data", str(workspace / "tiny"), "--levels", levels, "--out", str(out)] + flags,
        )
        assert res.exit_code == 3, res.output
        assert f"bad levels spec {levels!r}: {message}" in res.output
        assert not out.exists() or not list(out.iterdir())


class TestEvaluateChunks:
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    def test_gathers_only_the_targets_it_scores(self, workspace, monkeypatch, normalized):
        # Raw-space scoring gathers each chunk's inputs and raw targets and
        # no normalized targets; normalized-space scoring no raw ones.
        calls = []

        def counted(name, method):
            def wrapper(self, idx):
                calls.append(name)
                return method(self, idx)
            return wrapper

        for name in ("gather", "gather_inputs", "gather_raw"):
            monkeypatch.setattr(data.WindowSet, name, counted(name, getattr(data.WindowSet, name)))
        cli.evaluate_run(workspace / "gmm.ckpt.npz", workspace / "tiny", metrics.DEFAULT_LEVELS,
                         500, normalized, (0, 0))
        want = {"gather", "gather_inputs"} if normalized else {"gather_inputs", "gather_raw"}
        assert set(calls) == want

    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    def test_windows_predicted_and_scored_chunk_by_chunk(self, workspace, monkeypatch, variant,
                                                         normalized):
        # 13 test windows of 6 nodes x 6 steps on 500 grid points: 7 fit
        # in one chunk. Every variant and space streams the same chunks,
        # and one chunk of all windows gives the same report but for the
        # rounding of a differently blocked gemm in predict.
        ckpt = workspace / f"{variant}.ckpt.npz"
        predicted = []
        predict = model.predict

        def counting_predict(params, mcfg, inputs):
            predicted.append(len(inputs))
            return predict(params, mcfg, inputs)

        monkeypatch.setattr(model, "predict", counting_predict)
        reports = []
        for cells in (metrics._CHUNK_CELLS, 2**40):
            monkeypatch.setattr(metrics, "_CHUNK_CELLS", cells)
            reports.append(cli.evaluate_run(ckpt, workspace / "tiny", metrics.DEFAULT_LEVELS, 500,
                                            normalized, (0, 0))[0])
        assert predicted == [7, 6, 13]
        chunked, whole = reports
        assert chunked.meta == whole.meta and chunked.meta["elements"] == str(13 * 36)
        for name in ("crps_mean", "avg_width", "calib_error", "mae", "mape", "rmse"):
            assert getattr(chunked, name) == pytest.approx(getattr(whole, name), rel=1e-12,
                                                           nan_ok=True)
        assert np.allclose(chunked.per_horizon, whole.per_horizon, rtol=1e-12, equal_nan=True)
        assert chunked.calibration_curve == whole.calibration_curve


class TestEvaluateMemory:
    @staticmethod
    def make_inputs(tmp_path, session_steps):
        """(checkpoint, dataset base) of a 10-node dataset and an untrained
        K = 8 checkpoint (no dataset id, so any dataset is accepted)."""
        d = data.generate(data.SyntheticSpec(nodes=10, sessions=5, session_steps=session_steps,
                                             seed=1))
        base = tmp_path / f"steps{session_steps}"
        csv_path, man_path = cli.dataset_paths(base)
        data.export_csv(d, csv_path)
        data.write_manifest(data.DatasetManifest.for_dataset(d), man_path)
        mcfg = model.ModelConfig(
            variant="gmm",
            backbone=model.BackboneConfig(input_steps=10, hidden=16, features=16),
            horizon=10,
            head=model.HeadConfig(components=8, proj_width=16),
        )
        ckpt = tmp_path / f"steps{session_steps}.ckpt.npz"
        model.save_checkpoint(ckpt, model.init_params(mcfg, np.random.default_rng(0)), mcfg,
                              extra={"input_steps": 10})
        return ckpt, base

    @staticmethod
    def traced_peak(inputs, levels):
        """(elements, tracemalloc peak) of `evaluate_run` at `levels` on the
        test session of `inputs`. The peak covers reading the dataset
        files too."""
        tracemalloc.start()
        try:
            report, _ = cli.evaluate_run(*inputs, levels, 500, False, (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.calibration_curve) == len(levels)
        return int(report.meta["elements"]), peak

    def test_traced_peak_grows_only_by_the_per_element_results(self, tmp_path):
        self.check_growth(tmp_path, metrics.DEFAULT_LEVELS)

    def test_traced_peak_bound_holds_at_19_levels(self, tmp_path):
        self.check_growth(tmp_path, cli.parse_levels("0.05:0.95:0.05", 500))

    def check_growth(self, tmp_path, levels):
        # 48 and 106 steps per session give 29 and 87 test windows.
        # evaluate_run keeps nothing per element: CRPS and the point
        # errors go into exact sums per horizon step, widths, coverage and
        # the HPD-PIT into integer tallies, and each chunk's targets are
        # gathered with its predictions. What grows is reading the dataset
        # and the test split's series, under one double per element
        # (measured growth: 3.1 bytes per element at 10 levels and 4.9 at
        # 19). Keeping any float64 per element breaks it: a target,
        # CRPS or point estimate, a width or coverage flag per element and
        # level, or the split's mixture arrays (64 bytes per element at
        # K = 8). An untraced call first makes the one-time imports (60 to
        # 140 KB, depending on which tests ran before), so neither traced
        # call counts them.
        small_inputs = self.make_inputs(tmp_path, 48)
        large_inputs = self.make_inputs(tmp_path, 106)
        cli.evaluate_run(*small_inputs, levels, 500, False, (0, 0))
        n_small, small = self.traced_peak(small_inputs, levels)
        n_large, large = self.traced_peak(large_inputs, levels)
        assert n_large == 3 * n_small == 8700
        assert large - small <= (n_large - n_small) * 8


class TestCompare:
    def fake_report(self, path, variant, crps, dataset="deadbeef0000", **meta):
        rep = metrics.EvaluationReport(
            crps_mean=crps, avg_width=1.0, calib_error=0.05, mae=crps, mape=10.0,
            rmse=crps, per_horizon=[(1, crps, 1.0, 0.05)], calibration_curve=[(0.5, 0.5)],
            meta={"variant": variant, "dataset": dataset, "space": "raw", "levels": "0.5",
                  "elements": "100", **meta},
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

    @pytest.mark.parametrize("key, value, other", [
        ("space", "normalized", "raw"),
        ("levels", "0.5,0.9", "0.5"),
        ("elements", "200", "100"),
    ])
    def test_incomparable_reports_rejected_naming_the_key(self, tmp_path, key, value, other):
        # A normalized-space gmm report beside a raw det one once read as a
        # large "improvement"; so did reports over different level sets.
        d = self.fake_report(tmp_path / "d.txt", "det", 2.0)
        g = self.fake_report(tmp_path / "g.txt", "gmm", 0.5, **{key: value})
        res = CliRunner().invoke(cli.main, ["compare", str(g), str(d)])
        assert res.exit_code == 3
        message = res.output.splitlines()[-1]
        assert f"reports differ in meta.{key}: " in message
        assert repr(value) in message and repr(other) in message

    def test_zero_baseline_crps_reads_na(self, tmp_path):
        d = self.fake_report(tmp_path / "d.txt", "det", 0.0)
        g = self.fake_report(tmp_path / "g.txt", "gmm", 1.0)
        res = CliRunner().invoke(cli.main, ["compare", str(g), str(d)])
        assert res.exit_code == 0, res.output
        rows = res.output.splitlines()[1:]
        assert [row.split("\t")[-2:] for row in rows] == [["na", "na"]] * 2

    def test_non_finite_baseline_crps_reads_na(self, tmp_path):
        d = self.fake_report(tmp_path / "d.txt", "det", math.inf)
        g = self.fake_report(tmp_path / "g.txt", "gmm", 1.0)
        res = CliRunner().invoke(cli.main, ["compare", str(g), str(d)])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1].endswith("\tna\tna")

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


# Runs one command through `cli.main` in a fresh interpreter, then prints
# the loaded modules that are OpenSSL's (`_hashlib`) or scipy's.
_ONE_COMMAND = """
import json, sys
from mixcast import cli

try:
    cli.main.main(sys.argv[1:], standalone_mode=False)
finally:
    print(json.dumps(sorted(m for m in sys.modules
                            if m == "_hashlib" or m.split(".")[0] == "scipy")))
"""


class TestColdStart:
    def test_evaluate_loads_neither_openssl_nor_scipy(self, workspace, tmp_path):
        # On a full-coverage checkpoint and data made beforehand. `train`
        # loads OpenSSL through numpy.random, and so does an evaluate that
        # re-draws a coverage mask.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        commands = {
            "--version": ["--version"],
            "evaluate": ["evaluate", "--checkpoint", str(workspace / "gmm.ckpt.npz"),
                         "--data", str(workspace / "tiny"), "--out", str(tmp_path)],
        }
        for name, args in commands.items():
            proc = subprocess.run([sys.executable, "-c", _ONE_COMMAND, *args],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, (name, proc.stderr)
            assert json.loads(proc.stdout.splitlines()[-1]) == [], name
        assert (tmp_path / "gmm_eval.report.txt").exists()

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


_FAULTS = """
import json, math, resource, sys
from pathlib import Path

import numpy as np

from mixcast import cli, data, metrics, model, training


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


what, work = sys.argv[1], Path(sys.argv[2])
if what == "fit":
    d = data.generate(data.SyntheticSpec(nodes=30, sessions=10, seed=1))
    splits = data.prepare_splits(d, 10, 10, data.DatasetManifest.split_fractions)
    mcfg = cli.build_model_config("gmm", 5, 10, 10, 1, {})
    before = faults()
    result = training.fit(splits, mcfg, training.TrainConfig(epochs=3, lr=0.002, seed=1))
    print(json.dumps([faults() - before, len(result.grad_norms)]))
else:
    d = data.generate(data.SyntheticSpec(nodes=50, sessions=5, seed=1))
    csv_path, man_path = cli.dataset_paths(work / "d")
    data.export_csv(d, csv_path)
    data.write_manifest(data.DatasetManifest.for_dataset(d), man_path)
    mcfg = model.ModelConfig(variant="gmm", backbone=model.BackboneConfig(input_steps=10),
                             horizon=10, head=model.HeadConfig(components=5))
    ckpt = work / "m.ckpt.npz"
    model.save_checkpoint(ckpt, model.init_params(mcfg, np.random.default_rng(0)), mcfg)
    before = faults()
    report, _ = cli.evaluate_run(ckpt, work / "d", metrics.DEFAULT_LEVELS, 500, False, (0, 0))
    after = faults()
    # evaluate_run predicts chunk_rows windows at a time; metrics.evaluate
    # scores each prediction chunk in blocks of whole horizon rows, and
    # each block in scoring chunks of _SCORE_CELLS // 500 elements.
    row, windows = 50 * 10, int(report.meta["elements"]) // 500
    step, block = metrics.chunk_rows(row, 500), 10 * (metrics._BLOCK_ELEMENTS // 10)
    rows = metrics._SCORE_CELLS // 500
    sizes = [min(step, windows - s) * row for s in range(0, windows, step)]
    chunks = sum(math.ceil(min(block, n - b) / rows) for n in sizes for b in range(0, n, block))
    print(json.dumps([after - before, chunks]))
"""


class TestMainModule:
    def test_mixcast_command_runs_the_main_module(self):
        pyproject = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
        assert 'mixcast = "mixcast.__main__:main"' in pyproject


class TestSteadyWithoutAllocatorSettings:
    """`fit` and `evaluate_run` run steadily under glibc's default heap
    settings: training works in one reused workspace and scoring reuses
    its grid buffers, so neither maps and faults in fresh large arrays
    per step or chunk. Each runs in a fresh interpreter, whose allocator
    no earlier test has tuned (glibc raises its mmap and trim thresholds
    as a process frees large blocks)."""

    @staticmethod
    def faults_per_unit(what, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        proc = subprocess.run([sys.executable, "-c", _FAULTS, what, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults, units = json.loads(proc.stdout.splitlines()[-1])
        assert units > 10
        return faults / units

    def test_fit_minor_faults_per_step(self, tmp_path):
        # 21 steps of 32 windows x 30 nodes. Measured 37 to 42 per step, most
        # of them the workspace's first touch; joining the validation blocks'
        # losses and entropy rows afresh each epoch read 55 to 56 on the same
        # host, and fresh arrays per step 598.
        assert self.faults_per_unit("fit", tmp_path) < 120

    def test_evaluate_minor_faults_per_chunk(self, tmp_path):
        # 116 scoring chunks of 131 and 107 elements on a 500-point grid.
        # Measured 3 per chunk; with a fresh grid, scratch and cumulative
        # mass per chunk it read 265.
        assert self.faults_per_unit("evaluate", tmp_path) < 40


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
