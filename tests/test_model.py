"""Tests for the backbone + mixture head model and its gradients."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import oracles
import pytest

from mixcast import model
from mixcast.model import (
    BackboneConfig,
    ForecastBatch,
    HeadConfig,
    ModelConfig,
    ModelParams,
    default_anchors,
)


def gmm_config(k=5, horizon=4, t_h=6, hidden=8, features=8, proj=8, channels=1):
    return ModelConfig(
        variant="gmm" if k > 1 else "norm",
        backbone=BackboneConfig(
            input_steps=t_h, channels=channels, hidden=hidden, features=features
        ),
        horizon=horizon,
        head=HeadConfig(components=k, proj_width=proj),
    )


def det_config(horizon=4, t_h=6, hidden=8, features=8):
    return ModelConfig(
        variant="det",
        backbone=BackboneConfig(input_steps=t_h, hidden=hidden, features=features),
        horizon=horizon,
    )


def random_batch(rng, cfg, b=3, n=2):
    inputs = rng.normal(0, 1, (b, n, cfg.backbone.input_dim))
    targets = rng.normal(0, 1, (b, n, cfg.horizon))
    return ForecastBatch(inputs=inputs, targets=targets)


def head_mixtures(z, cfg, params):
    return model.head_mixtures(model.head_forward(z, cfg, params)[0], z.shape[:-1])


def loss_of(batch, params, cfg):
    """The training loss of one batch."""
    return model.blocked_loss([batch], params, cfg)[0]


def randomize(params, rng, scale=0.3):
    out = params.copy()
    for name in out.names():
        out[name][...] = rng.normal(0, scale, out[name].shape)
    return out


class TestModelParams:
    def test_tensors_are_views_of_one_buffer_in_name_order(self):
        params = ModelParams({"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])})
        assert params.names() == ["w", "b"]
        np.testing.assert_array_equal(params.flat, [0, 1, 2, 3, 4, 5, 7, 8])
        assert all(np.shares_memory(v, params.flat) for v in params.tensors.values())
        params.flat[-1] = 9.0
        assert params["b"][1] == 9.0

    def test_float32_only_when_every_tensor_is(self):
        f32 = np.ones(2, dtype=np.float32)
        assert ModelParams({"a": f32, "b": f32}).flat.dtype == np.float32
        assert ModelParams({"a": f32, "b": np.ones(2)}).flat.dtype == np.float64
        assert ModelParams({"a": np.arange(3)}).flat.dtype == np.float64

    def test_setitem_writes_into_the_buffer(self):
        # Tensors are written through their views; rebinding a name, which
        # would detach it from `flat`, is not possible.
        params = ModelParams({"w": np.zeros((2, 3)), "b": np.zeros(2)})
        view = params["w"]
        params["w"][...] = np.ones((2, 3))
        assert params["w"] is view and params.flat[:6].sum() == 6.0
        with pytest.raises(TypeError):
            params["w"] = np.ones((2, 3))
        assert params["w"] is view and params.names() == ["w", "b"]

    def test_copies_own_their_buffer(self):
        params = ModelParams({"w": np.ones((2, 2)), "b": np.ones(2)})
        for other in (params.copy(), params.astype(np.float32), params.zeros_like()):
            assert other.layout == params.layout
            assert not np.shares_memory(other.flat, params.flat)
            other["b"][...] = 5.0
        np.testing.assert_array_equal(params["b"], [1.0, 1.0])
        assert params.astype(np.float32).flat.dtype == np.float32


class TestHeadConfig:
    def test_default_anchor_geometry(self):
        scale, anchors = default_anchors(5)
        assert (5 + 1) * scale == pytest.approx(6.0, abs=1e-12)
        np.testing.assert_allclose(anchors, [-2, -1, 0, 1, 2], atol=1e-12)
        np.testing.assert_allclose(anchors, -anchors[::-1], atol=1e-12)

    def test_other_k_keeps_span(self):
        for k in (1, 2, 3, 7, 9):
            scale, anchors = default_anchors(k)
            assert (k + 1) * scale == pytest.approx(6.0, abs=1e-12)
            np.testing.assert_allclose(anchors, -anchors[::-1], atol=1e-12)
            if k > 1:
                assert np.all(np.diff(anchors) > 0)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_anchors_derived_once_from_k(self, k):
        hc = HeadConfig(components=k)
        scale, anchors = default_anchors(k)
        assert hc.anchor_scale == scale
        np.testing.assert_array_equal(hc.anchors, anchors)
        assert hc.anchors is hc.anchors and not hc.anchors.flags.writeable
        with pytest.raises(AttributeError):
            hc.anchors = anchors

    def test_two_settings(self):
        # The horizon is the model's, the anchors follow from K.
        assert [f.name for f in dataclasses.fields(HeadConfig)] == ["components", "proj_width"]
        assert HeadConfig(components=3) == HeadConfig(components=3, proj_width=64)
        with pytest.raises(TypeError):
            HeadConfig(components=3, horizon=2)

    def test_norm_variant_requires_single_component(self):
        with pytest.raises(ValueError):
            ModelConfig(
                variant="norm",
                backbone=BackboneConfig(input_steps=4),
                horizon=2,
                head=HeadConfig(components=3),
            )


class TestInitialization:
    def test_branch_init_values(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        assert np.all(params["mix.w"] == 0)
        assert np.all(params["mix.b"] == 1.0 / 5)
        for name in ("mean.w", "mean.b", "logvar.w", "logvar.b"):
            assert np.all(params[name] == 0)

    def test_prior_at_init_exact_for_any_input(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(5):
            inputs = rng.normal(0, 5, (2, 3, cfg.backbone.input_dim))
            mb = model.predict(params, cfg, inputs)
            assert np.all(mb.weights == 1.0 / 5)
            np.testing.assert_array_equal(
                mb.means, np.broadcast_to(cfg.head.anchors, mb.means.shape)
            )
            assert np.all(mb.variances == 1.0)

    def test_same_seed_same_params(self):
        cfg = gmm_config()
        a = model.init_params(cfg, np.random.default_rng(7))
        b = model.init_params(cfg, np.random.default_rng(7))
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_reference_mixture_matches_init_output(self):
        cfg = gmm_config()
        ref = oracles.reference_mixture(cfg.head)
        params = model.init_params(cfg, np.random.default_rng(0))
        mb = model.predict(params, cfg, np.zeros((1, 1, cfg.backbone.input_dim)))
        assert ref.shape == ()
        np.testing.assert_allclose(mb.weights[0, 0, 0], ref.weights, atol=1e-15)
        np.testing.assert_allclose(mb.means[0, 0, 0], ref.means, atol=1e-15)
        np.testing.assert_allclose(mb.variances[0, 0, 0], ref.variances, atol=1e-15)


class TestHeadForward:
    def test_weights_sum_to_one_for_random_params(self):
        cfg = gmm_config()
        rng = np.random.default_rng(3)
        params = randomize(model.init_params(cfg, rng), rng)
        z = rng.normal(0, 1, (10, cfg.backbone.features))
        mb = head_mixtures(z, cfg, params)
        np.testing.assert_allclose(mb.weights.sum(-1), 1.0, atol=1e-9)
        assert mb.shape == (10, cfg.horizon)

    def test_softmax_shift_invariance(self):
        cfg = gmm_config()
        rng = np.random.default_rng(4)
        params = randomize(model.init_params(cfg, rng), rng)
        z = rng.normal(0, 1, (4, cfg.backbone.features))
        mb = head_mixtures(z, cfg, params)
        shifted = params.copy()
        shifted["mix.b"][...] += 3.7  # same shift on all K logits
        mb2 = head_mixtures(z, cfg, shifted)
        np.testing.assert_allclose(mb.weights, mb2.weights, atol=1e-12)

    def test_k1_head_reparameterization(self):
        cfg = gmm_config(k=1)
        rng = np.random.default_rng(5)
        params = randomize(model.init_params(cfg, rng), rng)
        z = rng.normal(0, 1, (6, cfg.backbone.features))
        mb = head_mixtures(z, cfg, params)
        zp = z @ params["proj.w"].T + params["proj.b"]
        offs = (zp @ params["mean.w"].T + params["mean.b"]).reshape(6, cfg.horizon, 1)
        np.testing.assert_allclose(
            mb.means, offs * cfg.head.anchor_scale + cfg.head.anchors, atol=1e-12
        )
        assert np.all(mb.weights == 1.0)

    def test_head_independent_of_backbone(self):
        # The head only sees z; feeding z from any source gives the same
        # mixtures, so an identity backbone stub is equivalent.
        cfg = gmm_config(t_h=8, features=8)
        rng = np.random.default_rng(6)
        params = randomize(model.init_params(cfg, rng), rng)
        z = rng.normal(0, 1, (3, 2, 8))
        direct = head_mixtures(z, cfg, params)
        identity = BackboneConfig(input_steps=8, hidden=8, features=8, activation="identity")
        stub = ModelParams(
            {
                "backbone.w1": np.eye(8),
                "backbone.b1": np.zeros(8),
                "backbone.w2": np.eye(8),
                "backbone.b2": np.zeros(8),
                "proj.w": params["proj.w"],
                "proj.b": params["proj.b"],
                "mix.w": params["mix.w"],
                "mix.b": params["mix.b"],
                "mean.w": params["mean.w"],
                "mean.b": params["mean.b"],
                "logvar.w": params["logvar.w"],
                "logvar.b": params["logvar.b"],
            }
        )
        via_stub = head_mixtures(model.backbone_forward(z, stub, identity)[0], cfg, stub)
        np.testing.assert_array_equal(direct.weights, via_stub.weights)
        np.testing.assert_array_equal(direct.means, via_stub.means)

    def test_weight_entropy_per_step(self):
        # Rows-last (horizon 2, K 4, rows 3) logits: step 0 uniform, step 1
        # random, checked against the entropy of the softmax weights.
        rng = np.random.default_rng(9)
        logits = np.stack([np.zeros((4, 3)), rng.normal(0, 2, (4, 3))]).astype(np.float32)
        rows = model.entropy_rows(logits)
        assert rows.shape == (2, 3) and rows.dtype == np.float64
        entropy, effective_k = model.weight_entropy(rows)
        assert entropy.dtype == effective_k.dtype == np.float64
        assert entropy[0] == pytest.approx(np.log(4), rel=1e-15)
        assert effective_k[0] == pytest.approx(4.0, rel=1e-15)
        w = np.exp(logits[1].astype(float))
        w /= w.sum(axis=0)
        per_row = -(w * np.log(w)).sum(axis=0)
        assert entropy[1] == pytest.approx(per_row.mean(), rel=1e-13)
        assert effective_k[1] == pytest.approx(np.exp(per_row).mean(), rel=1e-13)

    def test_logvar_clamped(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        params["logvar.b"][...] = 50.0
        mb = model.predict(params, cfg, np.zeros((1, 1, cfg.backbone.input_dim)))
        assert np.all(mb.variances == pytest.approx(np.exp(10.0)))


class TestBackbone:
    def test_zero_weights_give_prior_end_to_end(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        for name in ("backbone.w1", "backbone.w2", "proj.w"):
            params[name][...] = 0.0
        mb = model.predict(params, cfg, np.random.default_rng(1).normal(0, 2, (2, 2, 6)))
        assert np.all(mb.weights == 0.2)
        assert np.all(mb.variances == 1.0)

    def test_identity_configuration_passes_inputs_through(self):
        bb = BackboneConfig(input_steps=5, hidden=5, features=5, activation="identity")
        params = ModelParams(
            {
                "backbone.w1": np.eye(5),
                "backbone.b1": np.zeros(5),
                "backbone.w2": np.eye(5),
                "backbone.b2": np.zeros(5),
            }
        )
        x = np.random.default_rng(2).normal(0, 1, (1, 1, 5))
        np.testing.assert_array_equal(model.backbone_forward(x, params, bb)[0], x)

    def test_shape_mismatch_rejected(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.backbone_forward(np.zeros((2, 3, 99)), params, cfg.backbone)


class TestForwardLoss:
    def test_init_loss_is_prior_nll_constant(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        ref_nll = -oracles.log_density(oracles.reference_mixture(cfg.head), 0.0)
        rng = np.random.default_rng(1)
        losses = []
        for _ in range(3):
            batch = ForecastBatch(
                inputs=rng.normal(0, 1, (4, 2, 6)), targets=np.zeros((4, 2, 4))
            )
            loss = loss_of(batch, params, cfg)
            losses.append(loss)
        assert all(v == pytest.approx(ref_nll, abs=1e-12) for v in losses)

    def test_k1_init_loss_is_standard_normal_nll(self):
        cfg = gmm_config(k=1)
        params = model.init_params(cfg, np.random.default_rng(0))
        batch = ForecastBatch(inputs=np.zeros((2, 2, 6)), targets=np.zeros((2, 2, 4)))
        loss = loss_of(batch, params, cfg)
        assert loss == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_loss_decreases_on_fixed_batch(self):
        cfg = gmm_config(k=3, horizon=2, t_h=4)
        rng = np.random.default_rng(11)
        params = model.init_params(cfg, rng)
        batch = ForecastBatch(
            inputs=rng.normal(0, 1, (8, 2, 4)),
            targets=rng.choice([-1.5, 1.5], size=(8, 2, 2)) + rng.normal(0, 0.05, (8, 2, 2)),
        )
        first = loss_of(batch, params, cfg)
        lr = 0.05
        losses = [first]
        for _ in range(50):
            grads = model.backward(batch, params, cfg)[1]
            for name in params.names():
                params[name][...] -= lr * grads[name]
            losses.append(loss_of(batch, params, cfg))
        assert losses[-1] < first - 0.1
        # Smoothed trend is monotone downward.
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_nan_params_reported_with_index(self):
        cfg = gmm_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        params["mean.b"][...] = np.nan
        batch = ForecastBatch(inputs=np.zeros((1, 1, 6)), targets=np.zeros((1, 1, 4)))
        with pytest.raises(ValueError, match="element"):
            loss_of(batch, params, cfg)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    def test_nan_target_named_in_batch_order(self, variant, dtype):
        # Element (window 2, location 1, step 3) of a (4, 3, 5) batch: a
        # transposed or rows-last index would name another element.
        cfg = {"det": det_config(horizon=5), "norm": gmm_config(k=1, horizon=5),
               "gmm": gmm_config(k=3, horizon=5)}[variant]
        rng = np.random.default_rng(12)
        params = randomize(model.init_params(cfg, rng), rng, scale=0.1)
        batch = random_batch(rng, cfg, b=4, n=3)
        batch.targets[2, 1, 3] = np.nan
        params, batch = as_dtype(params, batch, dtype)
        for entry in (loss_of, model.backward):
            with pytest.raises(ValueError, match=r"non-finite .* at element \(2, 1, 3\)$"):
                entry(batch, params, cfg)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    def test_blocked_loss_is_forward_loss_of_the_whole(self, variant, dtype):
        cfg = {"det": det_config(horizon=5), "norm": gmm_config(k=1, horizon=5),
               "gmm": gmm_config(k=3, horizon=5)}[variant]
        rng = np.random.default_rng(13)
        params = randomize(model.init_params(cfg, rng), rng, scale=0.1)
        params, batch = as_dtype(params, random_batch(rng, cfg, b=7, n=3), dtype)

        def blocks(batch):
            return [ForecastBatch(inputs=batch.inputs[a:b], targets=batch.targets[a:b])
                    for a, b in ((0, 2), (2, 5), (5, 7))]

        loss, whole_rows = model.blocked_loss([batch], params, cfg)
        blocked, rows = model.blocked_loss(blocks(batch), params, cfg)
        assert blocked == loss
        if variant == "det":
            assert rows is None is whole_rows
        else:
            assert rows.tobytes() == whole_rows.tobytes()
        # A non-finite element in the last block is named by its index in
        # the whole batch.
        batch.targets[5, 1, 3] = np.nan
        with pytest.raises(ValueError, match=r"non-finite .* at element \(5, 1, 3\)$"):
            model.blocked_loss(blocks(batch), params, cfg)


class TestBackward:
    def rel_err(self, a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-6)

    def finite_difference_check(self, cfg, seed, probes=30, tol=1e-3):
        rng = np.random.default_rng(seed)
        params = randomize(model.init_params(cfg, rng), rng)
        batch = random_batch(rng, cfg)
        _, grads, _ = model.backward(batch, params, cfg)
        h = 1e-4
        worst = 0.0
        for _ in range(probes):
            name = params.names()[rng.integers(len(params.names()))]
            flat_idx = int(rng.integers(params[name].size))
            idx = np.unravel_index(flat_idx, params[name].shape)
            for sign, store in ((1, "up"), (-1, "dn")):
                p = params.copy()
                p[name][idx] += sign * h
                if sign == 1:
                    up = loss_of(batch, p, cfg)
                else:
                    dn = loss_of(batch, p, cfg)
            fd = (up - dn) / (2 * h)
            worst = max(worst, self.rel_err(fd, grads[name][idx]))
        assert worst < tol

    def test_gmm_matches_finite_differences(self):
        self.finite_difference_check(gmm_config(k=2, horizon=3, t_h=4), seed=21)

    def test_det_matches_finite_differences(self):
        # |.| is non-differentiable at 0; random targets keep errors away
        # from the kink at the probe scale.
        self.finite_difference_check(det_config(horizon=3, t_h=4), seed=22)

    def test_norm_matches_finite_differences(self):
        self.finite_difference_check(gmm_config(k=1, horizon=2, t_h=4), seed=23)

    def test_identity_activation_matches_finite_differences(self):
        cfg = ModelConfig(
            variant="gmm",
            backbone=BackboneConfig(input_steps=4, hidden=6, features=6, activation="identity"),
            horizon=2,
            head=HeadConfig(components=2, proj_width=6),
        )
        self.finite_difference_check(cfg, seed=25)

    def test_mean_bias_symmetry_at_init(self):
        # At the weakly-informative init with mirrored targets +-t, the
        # mean-branch bias gradient is mirror-antisymmetric across
        # components, so a uniform bias perturbation has zero directional
        # derivative.
        cfg = gmm_config(k=5, horizon=1, t_h=4)
        params = model.init_params(cfg, np.random.default_rng(0))
        t = 1.3
        batch = ForecastBatch(
            inputs=np.zeros((2, 1, 4)), targets=np.array([[[t]], [[-t]]])
        )
        _, grads, _ = model.backward(batch, params, cfg)
        g = grads["mean.b"].reshape(cfg.horizon, 5)[0]
        np.testing.assert_allclose(g, -g[::-1], atol=1e-14)
        assert g.sum() == pytest.approx(0.0, abs=1e-14)

    def test_mixing_gradient_sign_at_anchor(self):
        # A target sitting exactly on anchor j makes that component the
        # most responsible one, so the loss gradient on its logit is
        # negative (descent raises its weight).
        cfg = gmm_config(k=5, horizon=1, t_h=4)
        params = model.init_params(cfg, np.random.default_rng(0))
        j = 3
        target = cfg.head.anchors[j]
        batch = ForecastBatch(inputs=np.zeros((1, 1, 4)), targets=np.full((1, 1, 1), target))
        _, grads, _ = model.backward(batch, params, cfg)
        g = grads["mix.b"].reshape(cfg.horizon, 5)[0]
        assert g[j] < 0
        assert g[j] == g.min()

    @pytest.mark.parametrize(
        "cfg",
        [det_config(horizon=3, t_h=4), gmm_config(k=1, horizon=3, t_h=4),
         gmm_config(k=3, horizon=3, t_h=4)],
        ids=["det", "norm", "gmm"],
    )
    def test_loss_equals_forward_loss_bitwise(self, cfg):
        # Both entry points share one loss, so they agree bit for bit; a
        # second log-density formula would differ in the last bit on some
        # of these seeds.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = randomize(model.init_params(cfg, rng), rng)
            batch = random_batch(rng, cfg, b=5, n=3)
            loss = model.backward(batch, params, cfg)[0]
            assert loss == loss_of(batch, params, cfg)

    def test_clamped_logvars_counted_and_given_no_gradient(self):
        cfg = gmm_config(k=3, horizon=2, t_h=4)
        rng = np.random.default_rng(32)
        params = randomize(model.init_params(cfg, rng), rng)
        bias = params["logvar.b"].copy()
        bias[[0, 4]] = [40.0, -40.0]  # step 0 component 0 high, step 1 component 1 low
        params["logvar.b"][...] = bias
        batch = random_batch(rng, cfg, b=5, n=3)
        _, grads, clamped = model.backward(batch, params, cfg)
        assert clamped == 2 * 5 * 3
        assert grads["logvar.b"][0] == 0.0 and grads["logvar.b"][4] == 0.0
        assert np.all(grads["logvar.w"][[0, 4]] == 0.0)
        assert np.all(np.delete(grads["logvar.b"], [0, 4]) != 0.0)
        assert model.backward(batch, randomize(params, rng), cfg)[2] == 0
        assert model.backward(random_batch(rng, det_config()),
                              model.init_params(det_config(), rng), det_config())[2] == 0

    def test_backward_deterministic(self):
        cfg = gmm_config(k=3, horizon=2, t_h=4)
        rng = np.random.default_rng(31)
        params = randomize(model.init_params(cfg, rng), rng)
        batch = random_batch(rng, cfg)
        l1, g1, _ = model.backward(batch, params, cfg)
        l2, g2, _ = model.backward(batch, params, cfg)
        assert l1 == l2
        for name in g1.names():
            np.testing.assert_array_equal(g1[name], g2[name])


class TestWorkspace:
    """`backward` and `blocked_loss` in one reused `Workspace`."""

    CONFIGS = {"det": det_config(horizon=5), "norm": gmm_config(k=1, horizon=5),
               "gmm": gmm_config(k=3, horizon=5)}

    @pytest.mark.parametrize("variant", ["det", "norm", "gmm"])
    def test_reuse_matches_a_fresh_workspace_bit_for_bit(self, variant):
        # Batch B after batch A in one workspace equals B in a fresh one,
        # for a full batch and a short last one; some log-variances sit at
        # a clamp bound, so the clamp counts differ between batches.
        cfg = self.CONFIGS[variant]
        rng = np.random.default_rng(40)
        params = randomize(model.init_params(cfg, rng), rng, scale=0.5)
        if variant != "det":
            params["logvar.b"][0] = 40.0
        a, full, short = (as_dtype(params, random_batch(rng, cfg, b=b, n=3), np.float32)[1]
                          for b in (4, 4, 2))
        params = params.astype(np.float32)
        ws = model.Workspace(cfg, 4 * 3)
        for batch in (full, short):
            model.backward(a, params, cfg, ws)
            loss, grads, clamped = model.backward(batch, params, cfg, ws)
            fresh_loss, fresh_grads, fresh_clamped = model.backward(batch, params, cfg)
            assert loss == fresh_loss and clamped == fresh_clamped
            assert grads.flat.tobytes() == fresh_grads.flat.tobytes()
            # Validation blocks share the workspace too.
            model.backward(a, params, cfg, ws)
            loss, rows = model.blocked_loss([a, batch], params, cfg, ws)
            fresh_loss, fresh_rows = model.blocked_loss([a, batch], params, cfg)
            assert loss == fresh_loss
            assert (rows is None is fresh_rows) or rows.tobytes() == fresh_rows.tobytes()
        if variant != "det":
            assert model.backward(a, params, cfg, ws)[2] > 0
        with pytest.raises(ValueError, match="exceeds the workspace"):
            model.backward(random_batch(rng, cfg, b=5, n=3), params, cfg, ws)

    def test_traced_step_peak_per_batch_row(self):
        # One float32 step at the shapes of the benchmark's train_gmm run:
        # 32 windows x 50 nodes, hidden = features = projection = 64,
        # horizon 10, K = 5. Measured 2,119 bytes per row with a fresh
        # workspace, most of it the workspace itself; keeping every forward
        # cache, head output, NLL temporary and backward product alive to
        # the end read 3,393. In a given workspace 202 bytes per row remain:
        # the gradients and the NLL's per-element sums.
        cfg = gmm_config(k=5, horizon=10, t_h=10, hidden=64, features=64, proj=64)
        rng = np.random.default_rng(41)
        params, batch = as_dtype(model.init_params(cfg, rng),
                                 random_batch(rng, cfg, b=32, n=50), np.float32)
        rows = 32 * 50

        def traced_peak_per_row(*workspace):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                model.backward(batch, params, cfg, *workspace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return (peak - entry) / rows

        model.backward(batch, params, cfg)
        assert traced_peak_per_row() < 2600
        ws = model.Workspace(cfg, rows)
        model.backward(batch, params, cfg, ws)
        assert traced_peak_per_row(ws) < 400


def as_dtype(params, batch, dtype):
    return (
        params.astype(dtype),
        ForecastBatch(inputs=batch.inputs.astype(dtype), targets=batch.targets.astype(dtype)),
    )


class TestComputeDtype:
    """Forward and backward follow the dtype of params and inputs."""

    # Measured worst cases over 40 seeds of these configs: 1.1e-7 for the
    # loss and 7.3e-7 for any gradient tensor (relative to its largest
    # entry); the bounds leave more than 10x room.
    LOSS_RTOL = 1e-6
    GRAD_RTOL = 1e-5

    @pytest.mark.parametrize(
        "cfg",
        [det_config(horizon=4, t_h=6, hidden=32, features=32),
         gmm_config(k=1, horizon=4, t_h=6, hidden=32, features=32, proj=32),
         gmm_config(k=5, horizon=4, t_h=6, hidden=32, features=32, proj=32)],
        ids=["det", "norm", "gmm"],
    )
    def test_float32_backward_matches_float64(self, cfg):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = randomize(model.init_params(cfg, rng), rng, scale=0.1)
            batch = random_batch(rng, cfg, b=16, n=8)
            loss64, g64, _ = model.backward(batch, params, cfg)
            params32, batch32 = as_dtype(params, batch, np.float32)
            loss32, g32, _ = model.backward(batch32, params32, cfg)
            assert abs(loss32 - loss64) <= self.LOSS_RTOL * abs(loss64)
            for name, ref in g64.tensors.items():
                assert g32[name].dtype == np.float32
                scale = float(np.max(np.abs(ref)))
                # K = 1 mixing gradients are exactly zero in both dtypes.
                assert float(np.max(np.abs(g32[name] - ref))) <= self.GRAD_RTOL * scale, name

    def test_float64_stays_float64(self):
        cfg = gmm_config(k=3, horizon=2, t_h=4)
        rng = np.random.default_rng(7)
        params = randomize(model.init_params(cfg, rng), rng)
        batch = random_batch(rng, cfg)
        _, grads, _ = model.backward(batch, params, cfg)
        assert grads.flat.dtype == np.float64
        mb = model.predict(params, cfg, batch.inputs)
        assert mb.weights.dtype == mb.means.dtype == mb.variances.dtype == np.float64


class TestCheckpointRowOrder:
    """The head reads the stored (horizon * K, proj_width) branch rows in
    the order checkpoints were trained in: `oracles.head_rows_first`
    computes that head rows first, as zp @ W.T reshaped."""

    CFG = gmm_config(k=3, horizon=4, t_h=6, hidden=16, features=16, proj=16)

    def projection(self, params, inputs):
        z = model.backbone_forward(inputs, params, self.CFG.backbone)[0]
        return z.reshape(-1, z.shape[-1]) @ params["proj.w"].T + params["proj.b"]

    def test_predict_matches_rows_first_head(self):
        cfg = self.CFG
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = randomize(model.init_params(cfg, rng), rng)
            inputs = rng.normal(0, 1, (5, 7, cfg.backbone.input_dim))
            mb = model.predict(params, cfg, inputs)
            assert mb.shape == (5, 7, cfg.horizon)
            logits, means, logvars = oracles.head_rows_first(self.projection(params, inputs),
                                                             cfg.head, params)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            refs = (e / e.sum(axis=-1, keepdims=True), means, np.exp(logvars))
            # Measured worst: 2.5e-16 of the largest entry.
            for got, ref in zip((mb.weights, mb.means, mb.variances), refs):
                got = got.reshape(ref.shape)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_float32_backward_matches_rows_first_gradients(self):
        # The float32 bounds of TestComputeDtype, against the float64
        # branch gradients of the rows-first head. Measured worst: 8.7e-8
        # for the loss and 5.7e-7 for a gradient tensor.
        cfg = self.CFG
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = randomize(model.init_params(cfg, rng), rng, scale=0.1)
            batch = random_batch(rng, cfg, b=16, n=8)
            loss_ref, refs = oracles.branch_gradients_rows_first(
                self.projection(params, batch.inputs), cfg.head, params,
                batch.targets.reshape(-1, cfg.horizon))
            params32, batch32 = as_dtype(params, batch, np.float32)
            loss32, g32, _ = model.backward(batch32, params32, cfg)
            assert abs(loss32 - loss_ref) <= TestComputeDtype.LOSS_RTOL * abs(loss_ref)
            for name, ref in refs.items():
                scale = float(np.max(np.abs(ref)))
                assert float(np.max(np.abs(g32[name] - ref))) <= TestComputeDtype.GRAD_RTOL * scale


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = gmm_config()
        rng = np.random.default_rng(41)
        params = randomize(model.init_params(cfg, rng), rng)

        class Norm:
            mean = 3.25
            std = 1.75

        path = tmp_path / "model.npz"
        model.save_checkpoint(path, params, cfg, normalizer=Norm(), extra={"note": "test"})
        loaded, cfg2, norm, extra = model.load_checkpoint(path)
        for name in params.names():
            np.testing.assert_array_equal(loaded[name], params[name])
        assert cfg2.variant == cfg.variant
        assert cfg2.head.components == cfg.head.components
        np.testing.assert_array_equal(cfg2.head.anchors, cfg.head.anchors)
        assert norm == {"mean": 3.25, "std": 1.75}
        assert extra == {"note": "test"}

    def test_det_checkpoint_has_no_head(self, tmp_path):
        cfg = det_config()
        params = model.init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "det.npz"
        model.save_checkpoint(path, params, cfg)
        _, cfg2, norm, _ = model.load_checkpoint(path)
        assert cfg2.variant == "det"
        assert cfg2.head is None
        assert norm is None

    @staticmethod
    def saved_with(tmp_path, edit):
        """(config, params, path of a fresh save, path of the same save
        with `edit` applied to its model meta)."""
        cfg = gmm_config()
        rng = np.random.default_rng(43)
        params = randomize(model.init_params(cfg, rng), rng)
        new_path, old_path = tmp_path / "new.npz", tmp_path / "old.npz"
        model.save_checkpoint(new_path, params, cfg)
        with np.load(new_path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            tensors = {name: data[name] for name in meta["tensor_names"]}
        assert meta["version"] == 1
        edit(meta["model"])
        with open(old_path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **tensors)
        return cfg, params, new_path, old_path

    def v1_head(self, model_meta):
        # The head as v1 files written before the anchors were derived
        # store it: horizon, anchor scale and anchors included.
        hc = HeadConfig(**model_meta["head"])
        model_meta["head"] |= {"horizon": model_meta["horizon"],
                               "anchor_scale": hc.anchor_scale, "anchors": list(hc.anchors)}

    def test_reads_v1_file_with_graph_alpha(self, tmp_path):
        # v1 files from before the graph path was removed carry
        # backbone.graph_alpha, and older ones the head's horizon and
        # anchors; they load and predict like a fresh save.
        def edit(model_meta):
            assert set(model_meta["head"]) == {"components", "proj_width"}
            assert "graph_alpha" not in model_meta["backbone"]
            model_meta["backbone"]["graph_alpha"] = 0.3
            self.v1_head(model_meta)

        cfg, _, new_path, old_path = self.saved_with(tmp_path, edit)
        old_params, old_cfg, _, _ = model.load_checkpoint(old_path)
        new_params, new_cfg, _, _ = model.load_checkpoint(new_path)
        assert old_cfg == new_cfg == cfg
        inputs = np.random.default_rng(44).normal(0, 1, (4, 3, cfg.backbone.input_dim))
        old_mb = model.predict(old_params, old_cfg, inputs)
        new_mb = model.predict(new_params, new_cfg, inputs)
        for field in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(old_mb, field), getattr(new_mb, field))

    @pytest.mark.parametrize("key, value", [("anchors", [0.0, 1.0, 2.0, 3.0, 4.0]),
                                            ("anchor_scale", 0.5), ("horizon", 3)])
    def test_v1_head_values_must_be_the_derived_ones(self, tmp_path, key, value):
        # A checkpoint with its own anchors is never silently re-anchored.
        def edit(model_meta):
            self.v1_head(model_meta)
            model_meta["head"][key] = value

        *_, old_path = self.saved_with(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"^head {key} is {re.escape(repr(value))}, not"):
            model.load_checkpoint(old_path)

    @pytest.mark.parametrize("section, cls", [("backbone", "BackboneConfig"),
                                              ("head", "HeadConfig")])
    def test_unknown_meta_key_named(self, tmp_path, section, cls):
        *_, old_path = self.saved_with(tmp_path, lambda m: m[section].update(dropout=0.1))
        with pytest.raises(ValueError, match=rf"unknown {cls} key\(s\) \['dropout'\]"):
            model.load_checkpoint(old_path)

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises((ValueError, KeyError)):
            model.load_checkpoint(path)
