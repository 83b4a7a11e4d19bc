"""Tests for the optimizer, schedule and fit loop."""

import hashlib
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from mixcast import data, model, training
from mixcast.model import BackboneConfig, HeadConfig, ModelConfig, ModelParams
from mixcast.training import AdamWState, TrainConfig

# The (train, val, test) split a manifest gets by default.
SPLIT = data.DatasetManifest.split_fractions


def scalar_params(value=0.0):
    return ModelParams({"theta": np.array([value])})


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 50
        assert cfg.batch_size == 32
        assert cfg.lr == 0.0005
        assert cfg.weight_decay == 0.0001
        assert cfg.betas == (0.9, 0.999)

    def test_invalid_decay_points(self):
        # The decay schedule is fixed: points increasing in (0, 1), factors
        # decreasing in (0, 1], and no config field can change it.
        points, factors = zip(*training.DECAY)
        assert all(0 < p < 1 for p in points) and list(points) == sorted(points)
        assert all(0 < f <= 1 for f in factors) and list(factors) == sorted(factors, reverse=True)
        with pytest.raises(TypeError):
            TrainConfig(decay_points=(0.75, 0.85))
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"betas": (0.9,)}, "betas must be two numbers in [0, 1)"),
            ({"betas": (0.9, 1.0)}, "betas must be two numbers in [0, 1)"),
            ({"betas": (-0.1, 0.999)}, "betas must be two numbers in [0, 1)"),
            ({"betas": ("0.9", 0.999)}, "betas must be two numbers in [0, 1)"),
            ({"betas": 0.9}, "betas must be two numbers in [0, 1)"),
            ({"weight_decay": -5.0}, "weight_decay must be a finite number >= 0"),
            ({"weight_decay": math.nan}, "weight_decay must be a finite number >= 0"),
            ({"warmup_epochs": -1.0}, "warmup_epochs must be a finite number >= 0"),
            ({"clip_norm": -0.5}, "clip_norm must be a finite number >= 0"),
            ({"clip_norm": math.inf}, "clip_norm must be a finite number >= 0"),
            ({"lr": math.nan}, "lr must be positive"),
            ({"lr": math.inf}, "lr must be positive and finite, got inf"),
            ({"lr": True}, "lr must be positive and finite, got True"),
            ({"lr": "0.001"}, "lr must be positive and finite, got '0.001'"),
            ({"weight_decay": True}, "weight_decay must be a finite number >= 0, got True"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**kwargs)

    def test_betas_normalized_to_float_tuple(self):
        cfg = TrainConfig(betas=[0, 0.5], weight_decay=0, warmup_epochs=0, clip_norm=0)
        assert cfg.betas == (0.0, 0.5)
        assert all(type(b) is float for b in cfg.betas)

    def test_real_settings_stored_as_floats(self):
        cfg = TrainConfig(lr=1, weight_decay=0, warmup_epochs=np.int64(2), clip_norm=5)
        values = [cfg.lr, cfg.weight_decay, cfg.warmup_epochs, cfg.clip_norm]
        assert values == [1.0, 0.0, 2.0, 5.0] and all(type(v) is float for v in values)


class TestSchedule:
    def test_default_breakpoints(self):
        cfg = TrainConfig(epochs=50, lr=0.0005, warmup_epochs=2)
        total = 50 * 100
        # Halfway through the warmup span.
        assert training.lr_at(100, total, cfg) == pytest.approx(0.00025)
        # 80% progress -> 10% of lr, 90% -> 1%.
        assert training.lr_at(int(0.80 * total), total, cfg) == pytest.approx(5e-5)
        assert training.lr_at(int(0.90 * total), total, cfg) == pytest.approx(5e-6)

    def test_plateau_and_right_continuity(self):
        cfg = TrainConfig(epochs=40, lr=1e-3, warmup_epochs=2)
        total = 40 * 10
        assert training.lr_at(25 * 10, total, cfg) == pytest.approx(1e-3)
        # First step of the first epoch at/past 75% of 40 epochs (epoch 30).
        assert training.lr_at(30 * 10, total, cfg) == pytest.approx(1e-4)
        assert training.lr_at(30 * 10 - 1, total, cfg) == pytest.approx(1e-3)

    def test_ramp_starts_at_zero(self):
        cfg = TrainConfig(epochs=10, lr=1e-3, warmup_epochs=2)
        assert training.lr_at(0, 100, cfg) == 0.0

    def test_out_of_range_step_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            training.lr_at(100, 100, cfg)

    def test_schedule_area_matches_analytic_integral(self):
        cfg = TrainConfig(epochs=20, lr=2e-3, warmup_epochs=2)
        spe = 37
        total = cfg.epochs * spe
        got = sum(training.lr_at(s, total, cfg) for s in range(total))
        ws = total * cfg.warmup_epochs / cfg.epochs
        b1 = math.ceil(0.75 * cfg.epochs) * spe
        b2 = math.ceil(0.85 * cfg.epochs) * spe
        analytic = (
            cfg.lr * ws / 2
            + cfg.lr * (b1 - ws)
            + cfg.lr * 0.10 * (b2 - b1)
            + cfg.lr * 0.01 * (total - b2)
        )
        assert abs(got - analytic) < cfg.lr


class TestOptimizer:
    def test_first_step_magnitude_is_lr(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        params = scalar_params(0.0)
        state = AdamWState.init(params)
        grads = ModelParams({"theta": np.array([1.0])})
        training.optimizer_step(params, grads, state, cfg.lr, cfg)
        assert params["theta"][0] == pytest.approx(-cfg.lr, rel=1e-7)

    def test_pure_decay_with_zero_gradient(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.1)
        params = scalar_params(1.0)
        state = AdamWState.init(params)
        grads = ModelParams({"theta": np.array([0.0])})
        for i in range(1, 6):
            training.optimizer_step(params, grads, state, cfg.lr, cfg)
            assert params["theta"][0] == pytest.approx((1 - cfg.lr * cfg.weight_decay) ** i,
                                                       abs=1e-15)

    def test_quadratic_bowl_convergence(self):
        cfg = TrainConfig(lr=0.05, weight_decay=0.0)
        params = scalar_params(1.0)
        state = AdamWState.init(params)
        for _ in range(200):
            grads = ModelParams({"theta": 2.0 * params["theta"]})
            training.optimizer_step(params, grads, state, cfg.lr, cfg)
        assert abs(params["theta"][0]) < 1e-3

    def test_non_finite_gradient_rejected(self):
        cfg = TrainConfig()
        params = scalar_params(1.0)
        state = AdamWState.init(params)
        with pytest.raises(ValueError, match="rejected"):
            training.optimizer_step(params, ModelParams({"theta": np.array([np.nan])}), state,
                                    1e-3, cfg)

    def test_overflowing_float32_gradient_rejected_before_any_change(self):
        # Unclipped, a float32 gradient of 1e20 would square to inf in the
        # second moment and make the update 0, a step that silently does
        # nothing.
        cfg = TrainConfig(clip_norm=0.0)
        params = ModelParams({"a": np.full(3, 0.5, dtype=np.float32),
                              "theta": np.ones(2, dtype=np.float32)})
        state = AdamWState.init(params)
        training.optimizer_step(params, ModelParams({"a": np.full(3, 0.1, np.float32),
                                                     "theta": np.full(2, 0.2, np.float32)}),
                                state, 1e-3, cfg)
        before = [params["a"].copy(), params["theta"].copy(), state.m["theta"].copy(),
                  state.v["theta"].copy(), state.m["a"].copy(), state.v["a"].copy()]
        grads = ModelParams({"a": np.full(3, 0.1, np.float32),
                             "theta": np.array([1e20, 1.0], np.float32)})
        with pytest.raises(ValueError, match=r"gradient for theta reaches 1e\+20.*rejected"):
            training.optimizer_step(params, grads, state, 1e-3, cfg)
        after = [params["a"], params["theta"], state.m["theta"], state.v["theta"],
                 state.m["a"], state.v["a"]]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert state.t == 1
        # Just below the bound the step goes through and stays finite.
        grads["theta"][0] = 1e19
        training.optimizer_step(params, grads, state, 1e-3, cfg)
        assert np.all(np.isfinite(state.v["theta"])) and params["theta"][0] < before[1][0]

    def test_packed_step_matches_per_tensor_oracle_bitwise(self):
        # One pass over the packed buffer does each tensor's arithmetic.
        cfg = TrainConfig(lr=0.01, weight_decay=0.05, betas=(0.8, 0.95))
        rng = np.random.default_rng(3)
        shapes = {"w1": (4, 3), "b1": (4,), "w2": (2, 4), "b2": (2,)}
        ref = {k: rng.normal(0, 1, s) for k, s in shapes.items()}
        params = ModelParams(ref)
        state = AdamWState.init(params)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 21):
            grads = {k: rng.normal(0, 10.0 ** rng.integers(-3, 2), s) for k, s in shapes.items()}
            lr = cfg.lr * t / 20
            training.optimizer_step(params, ModelParams(grads), state, lr, cfg)
            oracles.adamw_step(ref, grads, m, v, t, lr, cfg)
            assert state.t == t
            for name in shapes:
                for got, want in ((params, ref), (state.m, m), (state.v, v)):
                    np.testing.assert_array_equal(got[name].view(np.uint64),
                                                  want[name].view(np.uint64))

    def test_gradients_laid_out_unlike_params_rejected(self):
        params = ModelParams({"a": np.ones(2), "b": np.ones(3)})
        state = AdamWState.init(params)
        swapped = ModelParams({"b": np.ones(3), "a": np.ones(2)})
        with pytest.raises(ValueError, match="laid out"):
            training.optimizer_step(params, swapped, state, 1e-3, TrainConfig())
        assert state.t == 0 and np.all(params.flat == 1.0)

    def test_clip_caps_global_norm(self):
        grads = ModelParams({"a": np.array([3.0, 4.0]), "b": np.array([0.0])})
        clipped = training.clip_gradients(grads, 1.0)
        assert training.global_norm(clipped) == pytest.approx(1.0)
        untouched = training.clip_gradients(ModelParams({"a": np.array([0.1])}), 1.0)
        assert untouched["a"][0] == pytest.approx(0.1)

    def test_clip_returns_input_unless_it_rescales(self):
        grads = ModelParams({"a": np.array([0.3, 0.4], dtype=np.float32)})
        assert training.clip_gradients(grads, 1.0) is grads
        assert training.clip_gradients(grads, 0.0) is grads
        assert training.clip_gradients(grads, 0.1) is not grads
        # A given norm is used as is.
        assert training.clip_gradients(grads, 1.0, norm=2.0) is not grads

    def test_global_norm_float64_unchanged(self):
        rng = np.random.default_rng(0)
        grads = ModelParams({"a": rng.normal(0, 3, (7, 5)), "b": rng.normal(0, 1e-3, 11)})
        norm = training.global_norm(grads)
        # One float64 sum of squares over the packed buffer ...
        assert norm == math.sqrt(float(np.sum(grads.flat * grads.flat)))
        # ... within rounding of the correctly rounded sum and of the
        # per-tensor sums it replaced.
        exact = math.sqrt(math.fsum(float(v) ** 2 for v in grads.flat))
        per_tensor = math.sqrt(sum(float(np.sum(g * g)) for g in (grads["a"], grads["b"])))
        assert norm == pytest.approx(exact, rel=1e-15)
        assert norm == pytest.approx(per_tensor, rel=1e-15)

    def test_global_norm_of_float32_squares_in_float64(self):
        # float32 squares overflow from about 1.8e19.
        grads = ModelParams({"a": np.full(4, 1e19, dtype=np.float32),
                             "b": np.zeros(3, dtype=np.float32)})
        norm = training.global_norm(grads)
        assert norm == pytest.approx(2e19, rel=1e-7)
        clipped = training.clip_gradients(grads, 5.0)
        assert clipped["a"].dtype == np.float32
        assert training.global_norm(clipped) == pytest.approx(5.0, rel=1e-6)
        # Below the clip norm the same float32 gradients pass untouched.
        assert training.clip_gradients(grads, 1e20) is grads


def tiny_splits(rng, n_windows=64, nodes=2, t_h=4, t_f=2, bimodal=True):
    inputs = rng.normal(0, 1, (n_windows, nodes, t_h))
    if bimodal:
        modes = rng.choice([-1.5, 1.5], size=(n_windows, nodes, t_f))
        targets = modes + rng.normal(0, 0.1, (n_windows, nodes, t_f))
    else:
        targets = rng.choice([-1.0, 2.0], p=[0.25, 0.75], size=(n_windows, nodes, t_f))
        targets = targets + rng.normal(0, 0.05, (n_windows, nodes, t_f))
    cut = int(0.8 * n_windows)
    # Each window is a session of its own, t_h + t_f steps long.
    series = np.concatenate([inputs, targets], axis=2).transpose(0, 2, 1)

    def mk(sl):
        rows = series[sl]
        return data.WindowSet(raw=rows, normalizer=data.Normalizer(0.0, 1.0), input_steps=t_h,
                              horizon=t_f)

    return SimpleNamespace(train=mk(slice(0, cut)), val=mk(slice(cut, None)))


def small_model_cfg(variant, k=3, t_h=4, t_f=2):
    head = None if variant == "det" else HeadConfig(
        components=1 if variant == "norm" else k, proj_width=8
    )
    return ModelConfig(
        variant=variant,
        backbone=BackboneConfig(input_steps=t_h, hidden=8, features=8),
        horizon=t_f,
        head=head,
    )


class TestFit:
    def test_deterministic_repeat(self):
        splits = tiny_splits(np.random.default_rng(0))
        mcfg = small_model_cfg("gmm")
        tcfg = TrainConfig(epochs=3, batch_size=16, lr=1e-3, seed=5)
        a = training.fit(splits, mcfg, tcfg)
        b = training.fit(splits, mcfg, tcfg)
        assert a.log_lines == b.log_lines
        assert a.history == b.history
        for name in a.params.names():
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_gmm_beats_prior_on_bimodal_data(self):
        splits = tiny_splits(np.random.default_rng(1))
        mcfg = small_model_cfg("gmm")
        tcfg = TrainConfig(epochs=15, batch_size=16, lr=5e-3, warmup_epochs=1, seed=2)
        res = training.fit(splits, mcfg, tcfg)
        prior = oracles.reference_mixture(mcfg.head)
        prior_nll = float(np.mean(-oracles.log_density(prior, splits.val.targets.ravel())))
        assert not res.diverged
        assert res.best_val_loss < prior_nll

    def test_det_converges_to_conditional_median(self):
        # Targets are an input-independent two-point mixture with p=0.75 on
        # the upper mode, so the MAE minimizer sits at that mode.
        rng = np.random.default_rng(3)
        splits = tiny_splits(rng, n_windows=256, bimodal=False)
        mcfg = small_model_cfg("det")
        tcfg = TrainConfig(epochs=30, batch_size=32, lr=1e-2, warmup_epochs=1, seed=3)
        res = training.fit(splits, mcfg, tcfg)
        preds = model.predict(res.params, mcfg, splits.val.inputs)
        assert abs(float(np.median(preds)) - 2.0) < 0.3

    def test_batch_digests_identical_across_variants(self):
        splits = tiny_splits(np.random.default_rng(4))
        tcfg = TrainConfig(epochs=2, batch_size=16, seed=11)
        digests = {}
        for variant in ("det", "norm", "gmm"):
            res = training.fit(splits, small_model_cfg(variant), tcfg)
            digests[variant] = res.batch_digests
        assert digests["det"] == digests["norm"] == digests["gmm"]

    def test_best_checkpoint_tracks_validation(self):
        splits = tiny_splits(np.random.default_rng(5))
        mcfg = small_model_cfg("norm")
        tcfg = TrainConfig(epochs=6, batch_size=16, lr=2e-3, seed=6)
        res = training.fit(splits, mcfg, tcfg)
        assert res.best_val_loss == min(h["val_loss"] for h in res.history)
        assert res.history[res.best_epoch]["val_loss"] == res.best_val_loss

    def test_computes_in_float32_returns_float64(self, monkeypatch):
        splits = tiny_splits(np.random.default_rng(7))
        mcfg = small_model_cfg("gmm")
        tcfg = TrainConfig(epochs=2, batch_size=16, seed=8)
        seen = []
        real_backward = model.backward

        def spy(batch, params, cfg, workspace):
            seen.append((batch.inputs.dtype, batch.targets.dtype,
                         {v.dtype for v in params.tensors.values()}, workspace.flat.dtype))
            return real_backward(batch, params, cfg, workspace)

        monkeypatch.setattr(model, "backward", spy)
        res = training.fit(splits, mcfg, tcfg)
        assert seen and all(s == (np.float32, np.float32, {np.dtype(np.float32)}, np.float32)
                            for s in seen)
        assert {v.dtype for v in res.params.tensors.values()} == {np.dtype(np.float64)}
        # The returned params are float32 values, widened.
        for v in res.params.tensors.values():
            np.testing.assert_array_equal(v, v.astype(np.float32))

    def test_layers_called_through_module_attributes_once_per_step(self, monkeypatch):
        # The benchmark's tracer replaces these module attributes with
        # timing wrappers, and counts backward calls and fired clips.
        splits = tiny_splits(np.random.default_rng(9))
        tcfg = TrainConfig(epochs=3, batch_size=16, clip_norm=0.25, seed=4)
        calls = {"backward": 0, "clip": 0, "step": 0, "fired": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                out = fn(*args, **kwargs)
                if key == "clip":
                    calls["fired"] += out is not args[0]
                return out
            return wrapper

        monkeypatch.setattr(model, "backward", counting("backward", model.backward))
        monkeypatch.setattr(training, "clip_gradients",
                            counting("clip", training.clip_gradients))
        monkeypatch.setattr(training, "optimizer_step",
                            counting("step", training.optimizer_step))
        res = training.fit(splits, small_model_cfg("gmm"), tcfg)
        steps = sum(1 for line in res.log_lines if " step=" in line)
        assert steps == 3 * 4
        assert calls == {"backward": steps, "clip": steps, "step": steps,
                         "fired": sum(res.clip_fired)}
        assert 0 < calls["fired"] < steps

    def test_clamped_logvar_count_covers_every_step(self):
        splits = tiny_splits(np.random.default_rng(10))
        res = training.fit(splits, small_model_cfg("gmm", k=3), TrainConfig(epochs=2, seed=1))
        assert res.logvars == 2 * splits.train.targets.size * 3
        assert 0 <= res.logvar_clamped <= res.logvars
        det = training.fit(splits, small_model_cfg("det"), TrainConfig(epochs=1, seed=1))
        assert det.logvars == det.logvar_clamped == 0
        assert all("weight_entropy" not in h and "effective_k" not in h for h in det.history)

    def test_weight_entropy_per_epoch_and_step(self):
        # The validation logits of each epoch's end, per horizon step.
        splits = tiny_splits(np.random.default_rng(10))
        mcfg = small_model_cfg("gmm", k=3)
        res = training.fit(splits, mcfg, TrainConfig(epochs=2, seed=1))
        assert all(np.shape(h["weight_entropy"]) == np.shape(h["effective_k"]) == (mcfg.horizon,)
                   for h in res.history) and len(res.history) == 2
        rows = model.blocked_loss(splits.val, res.params, mcfg)[1]
        entropy, effective_k = model.weight_entropy(rows)
        best = res.history[res.best_epoch]
        np.testing.assert_allclose(best["weight_entropy"], entropy, rtol=1e-5)
        np.testing.assert_allclose(best["effective_k"], effective_k, rtol=1e-5)

    def test_batch_digests_hash_float64_inputs_in_order(self):
        # The old definition: sha256 of the epoch's float64 inputs[perm].
        d = data.generate(data.SyntheticSpec(nodes=5, sessions=10, session_steps=16, seed=2))
        splits = data.prepare_splits(d, t_h=4, t_f=2, fractions=SPLIT)
        assert splits.train.count % 16 != 0
        res = training.fit(splits, small_model_cfg("gmm"), TrainConfig(epochs=3, batch_size=16, seed=9))
        inputs = splits.train.inputs
        rng = np.random.default_rng([9, 0])
        expected = [hashlib.sha256(inputs[rng.permutation(len(inputs))].tobytes()).hexdigest()[:16]
                    for _ in range(3)]
        assert res.batch_digests == expected

    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    def test_blocked_validation_matches_whole_set(self, variant):
        # 13 validation windows in blocks of 5: the loss and the entropy
        # tables equal the loss of the whole set as one block, bit for bit.
        splits = tiny_splits(np.random.default_rng(12))
        assert splits.val.count % 5 != 0
        mcfg = small_model_cfg(variant)
        res = training.fit(splits, mcfg, TrainConfig(epochs=2, batch_size=5, seed=4))
        params = res.params.astype(np.float32)  # the best epoch's params, as trained
        loss, rows = model.blocked_loss(splits.val.astype(np.float32), params, mcfg)
        best = res.history[res.best_epoch]
        assert best["val_loss"] == loss
        if variant != "det":
            entropy, effective_k = model.weight_entropy(rows)
            assert best["weight_entropy"] == entropy.tolist()
            assert best["effective_k"] == effective_k.tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_returns_last_good_checkpoint(self):
        splits = tiny_splits(np.random.default_rng(6))
        mcfg = small_model_cfg("gmm")
        # An absurd lr reliably blows the loss up to non-finite values.
        tcfg = TrainConfig(epochs=20, batch_size=16, lr=1e8, warmup_epochs=0.0,
                           clip_norm=0.0, seed=7)
        res = training.fit(splits, mcfg, tcfg)
        assert res.diverged
        assert oracles.all_finite(res.params)
        assert any("diverged" in line for line in res.log_lines)


class TestFitMemory:
    def test_traced_peak_stays_under_the_window_bytes(self):
        # fit gathers each batch from the split's raw series. Holding a copy
        # of every training window (their float64 inputs alone are a third
        # of the bytes below), in any dtype, would push its peak past the
        # bound.
        d = data.generate(data.SyntheticSpec(nodes=10, sessions=40, seed=1))
        splits = data.prepare_splits(d, t_h=10, t_f=10, fractions=SPLIT)
        window_bytes = sum(getattr(splits.train, name).nbytes
                           for name in ("inputs", "targets", "targets_raw"))
        tracemalloc.start()
        try:
            training.fit(splits, small_model_cfg("gmm", t_h=10, t_f=10),
                         TrainConfig(epochs=1, batch_size=8, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 0.17: mostly the validation loss and entropy arrays. With
        # float32 copies of the normalized series and the validation arrays
        # joined block by block it read 0.26.
        assert peak < 0.25 * window_bytes

    def test_validation_peak_is_its_loss_and_entropy_rows(self):
        # 410 validation windows x 10 nodes in blocks of 8 windows, in a
        # workspace made beforehand. Each block writes into one float32
        # (horizon, 1, rows) loss array and one float64 (horizon, rows)
        # entropy array, and weight_entropy exponentiates the rows in place.
        # Measured 1.07 times their bytes; joining per-block arrays and
        # exponentiating into a new one read 2.05.
        d = data.generate(data.SyntheticSpec(nodes=10, sessions=10, session_steps=60, seed=1))
        val = data.window(d, 10, 10, data.Normalizer.fit(d.values)).astype(np.float32)
        mcfg = small_model_cfg("gmm", t_h=10, t_f=10)
        params = model.init_params(mcfg, np.random.default_rng(0)).astype(np.float32)
        workspace = model.Workspace(mcfg, 8 * 10, np.float32)
        training._validate(val, params, mcfg, 8, workspace)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            training._validate(val, params, mcfg, 8, workspace)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        pair_bytes = val.count * 10 * mcfg.horizon * (4 + 8)
        assert peak < 1.2 * pair_bytes
