"""The trainable model: a small per-node backbone feeding either a linear
point-prediction layer or a mixture output head.

The mixture head projects backbone features, then runs three linear
branches for mixing logits, mean offsets and log-variances. Component
means are reparameterized as offset * anchor_scale + anchor, with fixed
anchors spaced so the components tile the standardized 3-sigma band with
half-overlap ((K+1) * scale = 6). At initialization the branch weights
are zero with biases chosen so every output is the same weakly
informative mixture: uniform weights, means at the anchors, unit
variances.

One forward pass (`_forward`) serves `predict`, `forward_loss` and
`backward`. For mixtures it returns the head outputs (logits, means,
clamped log-variances) rows last, each branch as W @ zp.T shaped
(horizon, K, rows) in the row order of the stored weights, so the NLL
kernel and the branch gradients run over contiguous rows; only `predict`
builds a `MixtureBatch`, of shape (..., horizon, K). One loss (`_loss`,
on the log-space NLL kernel `gmm.nll_and_gradients`) serves both loss
entry points, so their losses agree bitwise.

All gradients are hand-derived reverse mode; `backward` matches central
finite differences (see tests). Forward/backward are pure functions of
(params, batch), so concurrent evaluation on parameter snapshots is safe.

`ModelParams` packs every tensor into one contiguous buffer, with the
named tensors as views of it. `backward` writes each gradient into a
buffer of the same layout (weights by gemm, biases by a gemv against
ones), so the optimizer updates all of them in one pass.

Forward and backward compute in the dtype of the params and inputs:
`training.fit` passes float32 copies, while checkpoints, `predict` and
evaluation stay float64.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .gmm import LOG_VAR_MAX, LOG_VAR_MIN, MixtureBatch, nll_and_gradients

VARIANTS = ("det", "norm", "gmm")


def default_anchors(components: int):
    """(scale, anchors) with (K+1) * scale = 6 and anchors symmetric
    about 0; K=5 gives scale 1 and anchors [-2, -1, 0, 1, 2]."""
    scale = 6.0 / (components + 1)
    anchors = scale * (np.arange(1, components + 1) - (components + 1) / 2.0)
    return scale, anchors


@dataclass(frozen=True)
class HeadConfig:
    components: int
    horizon: int
    proj_width: int = 64
    anchor_scale: float = None
    anchors: np.ndarray = None

    def __post_init__(self):
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")
        if self.anchor_scale is None or self.anchors is None:
            scale, anchors = default_anchors(self.components)
            object.__setattr__(self, "anchor_scale", float(scale))
            object.__setattr__(self, "anchors", anchors)
        anchors = np.asarray(self.anchors, dtype=float)
        if anchors.shape != (self.components,):
            raise ValueError(f"anchors shape {anchors.shape} != ({self.components},)")
        if self.components > 1 and not np.all(np.diff(anchors) > 0):
            raise ValueError("anchors must be strictly increasing")
        anchors.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)


@dataclass(frozen=True)
class BackboneConfig:
    input_steps: int
    channels: int = 1
    hidden: int = 64
    features: int = 64
    activation: str = "tanh"  # "tanh" | "identity"

    def __post_init__(self):
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.channels not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {self.channels}")

    @property
    def input_dim(self) -> int:
        return self.input_steps * self.channels


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    backbone: BackboneConfig
    horizon: int
    head: HeadConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "det":
            if self.head is not None:
                raise ValueError("det variant takes no head config")
        else:
            if self.head is None:
                raise ValueError(f"{self.variant} variant needs a head config")
            if self.head.horizon != self.horizon:
                raise ValueError("head horizon differs from model horizon")
            if self.variant == "norm" and self.head.components != 1:
                raise ValueError("norm variant is the single-component head")


def _views(flat, layout):
    """Named views of consecutive runs of `flat`, per (name, shape) pair."""
    views, start = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


class ModelParams:
    """Named parameter tensors, ordered, packed into one contiguous buffer.

    `flat` holds every tensor back to back in name order, and `tensors`
    maps each name to its view of `flat`, so one pass over `flat` touches
    every tensor (the optimizer's update, the gradient norm). Params,
    gradients and Adam moments share one `layout`, the (name, shape)
    pairs, through `with_flat`.
    The buffer is float32 when every given tensor is float32, float64
    otherwise."""

    def __init__(self, tensors: dict):
        arrays = {k: np.asarray(v) for k, v in tensors.items()}
        f32 = all(a.dtype == np.float32 for a in arrays.values())
        self.layout = tuple((k, a.shape) for k, a in arrays.items())
        self.flat = np.empty(sum(a.size for a in arrays.values()),
                             np.float32 if f32 else np.float64)
        self.tensors = _views(self.flat, self.layout)
        for name, a in arrays.items():
            self.tensors[name][...] = a

    def with_flat(self, flat) -> "ModelParams":
        """The params of this layout over the buffer `flat` (not copied)."""
        new = object.__new__(ModelParams)
        new.layout = self.layout
        new.flat = flat
        new.tensors = _views(flat, self.layout)
        return new

    def __getitem__(self, name):
        return self.tensors[name]

    def __setitem__(self, name, value):
        """Write `value` into the tensor's view. A new shape is a
        ValueError: rebinding the name would detach the tensor from
        `flat`, which the optimizer updates."""
        view = self.tensors[name]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"{name}: shape {value.shape} differs from {view.shape}")
        view[...] = value

    def names(self):
        return list(self.tensors)

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())

    def astype(self, dtype) -> "ModelParams":
        """A copy with every tensor in `dtype`."""
        return self.with_flat(self.flat.astype(dtype))

    def zeros_like(self) -> "ModelParams":
        return self.with_flat(np.zeros_like(self.flat))


@dataclass
class ForecastBatch:
    """Aligned inputs/targets for a set of windows, plus predictions once
    a forward pass has filled them."""

    inputs: np.ndarray  # (B, N, input_dim), normalized
    targets: np.ndarray  # (B, N, horizon), normalized
    mixtures: MixtureBatch | None = None
    point_preds: np.ndarray | None = None

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.ndim != 3:
            raise ValueError(
                f"inputs/targets must be 3-D, got {self.inputs.shape} / {self.targets.shape}"
            )
        if self.inputs.shape[:2] != self.targets.shape[:2]:
            raise ValueError(
                f"batch/location mismatch: inputs {self.inputs.shape} vs "
                f"targets {self.targets.shape}"
            )


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Random backbone/projection, weakly-informative output head."""
    bb = cfg.backbone
    t = {}
    t["backbone.w1"] = _uniform_init(rng, (bb.hidden, bb.input_dim), bb.input_dim)
    t["backbone.b1"] = np.zeros(bb.hidden)
    t["backbone.w2"] = _uniform_init(rng, (bb.features, bb.hidden), bb.hidden)
    t["backbone.b2"] = np.zeros(bb.features)
    if cfg.variant == "det":
        t["out.w"] = np.zeros((cfg.horizon, bb.features))
        t["out.b"] = np.zeros(cfg.horizon)
    else:
        hc = cfg.head
        wide = hc.horizon * hc.components
        t["proj.w"] = _uniform_init(rng, (hc.proj_width, bb.features), bb.features)
        t["proj.b"] = np.zeros(hc.proj_width)
        t["mix.w"] = np.zeros((wide, hc.proj_width))
        t["mix.b"] = np.full(wide, 1.0 / hc.components)
        t["mean.w"] = np.zeros((wide, hc.proj_width))
        t["mean.b"] = np.zeros(wide)
        t["logvar.w"] = np.zeros((wide, hc.proj_width))
        t["logvar.b"] = np.zeros(wide)
    return ModelParams(t)


def backbone_forward(x, params, cfg: BackboneConfig):
    """Per-node MLP (input window -> hidden -> features).

    Returns (z, h1): the features and the hidden activations that
    `backward` reuses."""
    if x.ndim != 3 or x.shape[-1] != cfg.input_dim:
        raise ValueError(f"expected inputs (B, N, {cfg.input_dim}), got {x.shape}")
    a1 = _affine(x, params, "backbone.w1", "backbone.b1")
    h1 = np.tanh(a1, out=a1) if cfg.activation == "tanh" else a1
    return _affine(h1, params, "backbone.w2", "backbone.b2"), h1


def _affine(a, params, w, b):
    """a @ params[w].T + params[b], adding the bias in place: each fresh
    temporary costs page faults as well as a pass."""
    out = a @ params[w].T
    out += params[b]
    return out


def head_forward(z, hc: HeadConfig, params):
    """((logits, means, logvars), cache): the head's raw outputs, rows last.

    z has shape (..., features), its leading axes flattening to R rows;
    each output is a branch's W @ zp.T as (horizon, K, R), the order of
    its weight rows, in the dtype of the branch outputs. Means are in
    normalized space and log-variances are clamped to [LOG_VAR_MIN,
    LOG_VAR_MAX]. The cache holds the (R, proj_width) projection."""
    zp = _affine(z, params, "proj.w", "proj.b").reshape(-1, hc.proj_width)
    shape = (hc.horizon, hc.components, zp.shape[0])

    def branch(name):
        out = params[f"{name}.w"] @ zp.T
        out += params[f"{name}.b"][:, None]
        return out.reshape(shape)

    logits, means, logvars = branch("mix"), branch("mean"), branch("logvar")
    np.clip(logvars, LOG_VAR_MIN, LOG_VAR_MAX, out=logvars)
    # From offsets, in place.
    means *= hc.anchor_scale
    means += hc.anchors.astype(means.dtype, copy=False)[:, None]
    return (logits, means, logvars), {"zp": zp}


def head_mixtures(outputs, shape) -> MixtureBatch:
    """The mixtures of `head_forward`'s rows-last outputs (overwriting the
    logits and log-variances), copied to element shape shape + (horizon,)."""
    logits, means, logvars = outputs
    logits -= logits.max(axis=-2, keepdims=True)
    w = np.exp(logits, out=logits)
    w /= w.sum(axis=-2, keepdims=True)
    new = tuple(shape) + logits.shape[:-1]
    return MixtureBatch(*(np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(new)
                          for a in (w, means, np.exp(logvars, out=logvars))))


def weight_entropy(logits):
    """Per horizon step, the mean over rows of the component weights'
    entropy and of its exp (the effective K), in float64, from
    `head_forward`'s rows-last (horizon, K, rows) logits."""
    entropy = np.empty((logits.shape[0], logits.shape[-1]))
    for step, lg in zip(entropy, logits):  # step by step, to keep temporaries small
        shifted = lg - lg.max(axis=0).astype(np.float64)
        e = np.exp(shifted)
        e_sum = e.sum(axis=0)
        step[:] = np.log(e_sum) - (e * shifted).sum(axis=0) / e_sum
    return entropy.mean(axis=-1), np.exp(entropy).mean(axis=-1)


def _forward(inputs, params: ModelParams, cfg: ModelConfig):
    """(predictions, cache): the head's (logits, means, logvars) for
    norm/gmm, point values for det, plus every intermediate `backward`
    needs."""
    z, h1 = backbone_forward(inputs, params, cfg.backbone)
    cache = {"h1": h1, "z": z}
    if cfg.variant == "det":
        return _affine(z, params, "out.w", "out.b"), cache
    outputs, head_cache = head_forward(z, cfg.head, params)
    cache.update(head_cache)
    return outputs, cache


def _loss(preds, y, cfg: ModelConfig, with_grad: bool):
    """(mean loss, per-element gradient or None) over all (window,
    location, step) elements: absolute error and its sign for det, NLL and
    the kernel's rows-last (d_logits, d_means, d_logvars) for the mixture
    variants. The loss does not depend on with_grad, bit for bit."""
    grad = None
    if cfg.variant == "det":
        per = np.abs(preds - y)
        if with_grad:
            grad = np.sign(preds - y)
        what = "absolute error"
    else:
        # Targets rows last, (horizon, 1, rows), like the head outputs.
        y_rows_last = np.ascontiguousarray(y.reshape(-1, y.shape[-1]).T)[:, None, :]
        # Non-finite intermediates surface through the loss guard below,
        # so numpy's own warnings are redundant here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            per, grad = nll_and_gradients(*preds, y_rows_last, gradients=with_grad)
        what = "negative log-likelihood"
    loss = float(per.mean())
    if not np.isfinite(loss):
        if cfg.variant != "det":
            # Back in the batch's (window, location, step) order.
            per = np.moveaxis(per.reshape(y.shape[-1:] + y.shape[:-1]), 0, -1)
        bad = np.argwhere(~np.isfinite(per))
        first = tuple(int(i) for i in bad[0]) if bad.size else "?"
        raise ValueError(f"non-finite {what} at element {first}")
    return loss, grad


def forward_loss(batch: ForecastBatch, params: ModelParams, cfg: ModelConfig):
    """(training loss, predictions). The loss is the plain mean over all
    (window, location, step) elements: NLL for mixture variants, absolute
    error for the det variant. The predictions are `_forward`'s: the
    head's rows-last (logits, means, logvars), or point values for det."""
    preds = _forward(batch.inputs, params, cfg)[0]  # the cache is freed here
    return _loss(preds, batch.targets, cfg, with_grad=False)[0], preds


def predict(params: ModelParams, cfg: ModelConfig, inputs):
    """Inference: mixtures for norm/gmm, point values for det."""
    preds = _forward(inputs, params, cfg)[0]
    return preds if cfg.variant == "det" else head_mixtures(preds, inputs.shape[:-1])


def _linear_backward(grads, params, w, b, d, a, ones):
    """Write the gradients of the layer `a @ params[w].T + params[b]`
    (rows of `a` flattened) for the upstream gradient d, given rows last
    as (outputs, rows), into their views of `grads` (the bias one as the
    gemv d @ ones); return the rows-first d.T @ params[w]."""
    np.matmul(d, a, out=grads[w])
    np.matmul(d, ones, out=grads[b])
    return d.T @ params[w]


def backward(batch: ForecastBatch, params: ModelParams, cfg: ModelConfig):
    """(loss, gradients, clamped): the gradients packed like the params,
    and how many (element, component) log-variances sit at a clamp bound,
    where their gradient is zero (0 for det)."""
    preds, cache = _forward(batch.inputs, params, cfg)
    loss, g_out = _loss(preds, batch.targets, cfg, with_grad=True)
    rows = batch.targets.shape[0] * batch.targets.shape[1]
    inv_count = 1.0 / batch.targets.size
    grads = params.zeros_like()
    z = cache["z"].reshape(rows, -1)
    ones = np.ones(rows, dtype=z.dtype)
    clamped = 0

    if cfg.variant == "det":
        d_out = (g_out * inv_count).reshape(rows, -1)
        g_z = _linear_backward(grads, params, "out.w", "out.b", d_out.T, z, ones)
    else:
        d_logits, d_means, d_logvars = g_out
        # A clamped log-variance sits at a bound exactly when the raw one
        # reached or passed it.
        logvars = preds[2]
        inside = (logvars > LOG_VAR_MIN) & (logvars < LOG_VAR_MAX)
        clamped = inside.size - int(np.count_nonzero(inside))
        d_logits *= inv_count
        d_means *= cfg.head.anchor_scale * inv_count
        # Hard-clamped log-variances contribute no gradient.
        d_logvars *= inside
        d_logvars *= inv_count
        zp = cache["zp"]
        g_zp = None
        for name, d in (("mix", d_logits), ("mean", d_means), ("logvar", d_logvars)):
            g = _linear_backward(grads, params, f"{name}.w", f"{name}.b",
                                 d.reshape(-1, rows), zp, ones)
            g_zp = g if g_zp is None else np.add(g_zp, g, out=g_zp)
        g_z = _linear_backward(grads, params, "proj.w", "proj.b", g_zp.T, z, ones)

    h1 = cache["h1"].reshape(rows, -1)
    g_h1 = _linear_backward(grads, params, "backbone.w2", "backbone.b2", g_z.T, h1, ones)
    g_a1 = g_h1
    if cfg.backbone.activation == "tanh":
        g_a1 = np.multiply(h1, h1)
        np.subtract(1.0, g_a1, out=g_a1)
        g_a1 *= g_h1
    np.matmul(g_a1.T, batch.inputs.reshape(rows, -1), out=grads["backbone.w1"])
    np.matmul(ones, g_a1, out=grads["backbone.b1"])
    return loss, grads, clamped


# ----------------------------------------------------------------------
# Checkpoints: versioned binary dump, bit-exact round trip.
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _cfg_to_meta(cfg: ModelConfig) -> dict:
    meta = {"variant": cfg.variant, "horizon": cfg.horizon, "backbone": asdict(cfg.backbone)}
    if cfg.head is not None:
        meta["head"] = asdict(cfg.head) | {"anchors": list(cfg.head.anchors)}
    return meta


def _cfg_from_meta(meta: dict) -> ModelConfig:
    # Older v1 files carry one backbone field that no longer exists.
    backbone = {k: v for k, v in meta["backbone"].items() if k != "graph_alpha"}
    return ModelConfig(
        variant=meta["variant"],
        backbone=BackboneConfig(**backbone),
        horizon=meta["horizon"],
        head=HeadConfig(**meta["head"]) if "head" in meta else None,
    )


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig, normalizer=None, extra=None):
    """Write all tensors plus the model config and normalizer statistics.

    `normalizer` is anything with mean/std attributes (or None)."""
    meta = {
        "format": "mixcast-checkpoint",
        "version": CHECKPOINT_VERSION,
        "model": _cfg_to_meta(cfg),
        "normalizer": (
            None
            if normalizer is None
            else {"mean": float(normalizer.mean), "std": float(normalizer.std)}
        ),
        "extra": dict(extra or {}),
        "tensor_names": params.names(),
    }
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **params.tensors)


def load_checkpoint(path):
    """(params, cfg, normalizer_stats_or_None, extra) from save_checkpoint."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format") != "mixcast-checkpoint":
            raise ValueError(f"{path}: not a mixcast checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
        tensors = {name: data[name] for name in meta["tensor_names"]}
    params = ModelParams(tensors)
    cfg = _cfg_from_meta(meta["model"])
    return params, cfg, meta["normalizer"], meta["extra"]
