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
`backward`; one loss (`_loss`, on the NLL kernel `gmm.nll_and_gradients`
for mixtures) serves both loss entry points, so their losses agree bitwise.

All gradients are hand-derived reverse mode; `backward` matches central
finite differences (see tests). Forward/backward are pure functions of
(params, batch), so concurrent evaluation on parameter snapshots is safe.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .gmm import LOG_VAR_MAX, LOG_VAR_MIN, GaussianMixture, MixtureBatch, nll_and_gradients

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


@dataclass
class ModelParams:
    """Named parameter tensors, ordered; shared by optimizer and checkpoints."""

    tensors: dict

    def __getitem__(self, name):
        return self.tensors[name]

    def __setitem__(self, name, value):
        self.tensors[name] = value

    def names(self):
        return list(self.tensors)

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()})

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.tensors.values())


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


def reference_mixture(hc: HeadConfig) -> GaussianMixture:
    """The mixture every freshly initialized head emits: uniform weights,
    means at the anchors, unit variances."""
    k = hc.components
    return GaussianMixture(np.full(k, 1.0 / k), hc.anchors.copy(), np.ones(k))


def backbone_forward(x, params, cfg: BackboneConfig):
    """Per-node MLP (input window -> hidden -> features).

    Returns (z, h1): the features and the hidden activations that
    `backward` reuses."""
    if x.ndim != 3 or x.shape[-1] != cfg.input_dim:
        raise ValueError(f"expected inputs (B, N, {cfg.input_dim}), got {x.shape}")
    a1 = x @ params["backbone.w1"].T + params["backbone.b1"]
    h1 = np.tanh(a1) if cfg.activation == "tanh" else a1
    z = h1 @ params["backbone.w2"].T + params["backbone.b2"]
    return z, h1


def _softmax_last(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def head_forward(z, hc: HeadConfig, params):
    """(mixtures, cache): one mixture per (leading index, horizon step).

    z has shape (..., features); the mixtures' element shape is
    (..., horizon) with K components each, means in normalized space.
    The cache holds the projection and unclamped log-variances."""
    zp = z @ params["proj.w"].T + params["proj.b"]
    shape = z.shape[:-1] + (hc.horizon, hc.components)
    logits = (zp @ params["mix.w"].T + params["mix.b"]).reshape(shape)
    offsets = (zp @ params["mean.w"].T + params["mean.b"]).reshape(shape)
    logvar_raw = (zp @ params["logvar.w"].T + params["logvar.b"]).reshape(shape)
    logvar = np.clip(logvar_raw, LOG_VAR_MIN, LOG_VAR_MAX)
    weights = _softmax_last(logits)
    means = offsets * hc.anchor_scale + hc.anchors
    variances = np.exp(logvar)
    mb = MixtureBatch(weights, means, variances)
    return mb, {"zp": zp, "logvar_raw": logvar_raw}


def _forward(inputs, params: ModelParams, cfg: ModelConfig):
    """(predictions, cache): mixtures for norm/gmm, point values for det,
    plus every intermediate `backward` needs."""
    z, h1 = backbone_forward(inputs, params, cfg.backbone)
    cache = {"h1": h1, "z": z}
    if cfg.variant == "det":
        return z @ params["out.w"].T + params["out.b"], cache
    mb, head_cache = head_forward(z, cfg.head, params)
    cache.update(head_cache)
    return mb, cache


def _loss(preds, y, cfg: ModelConfig, with_grad: bool):
    """(mean loss, per-element gradient or None) over all (window,
    location, step) elements: absolute error and its sign for det, NLL and
    the kernel's (d_logits, d_means, d_logvars) for the mixture variants.
    Without the gradient the NLL is the kernel's, bit for bit."""
    grad = None
    if cfg.variant == "det":
        per = np.abs(preds - y)
        if with_grad:
            grad = np.sign(preds - y)
        what = "absolute error"
    else:
        # Non-finite intermediates surface through the loss guard below,
        # so numpy's own warnings are redundant here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if with_grad:
                per, grad = nll_and_gradients(preds.weights, preds.means, preds.variances, y)
            else:
                per = -preds.log_density(y)
        what = "negative log-likelihood"
    loss = float(per.mean())
    if not np.isfinite(loss):
        bad = np.argwhere(~np.isfinite(per))
        first = tuple(int(i) for i in bad[0]) if bad.size else "?"
        raise ValueError(f"non-finite {what} at element {first}")
    return loss, grad


def forward_loss(batch: ForecastBatch, params: ModelParams, cfg: ModelConfig):
    """(training loss, predictions). The loss is the plain mean over all
    (window, location, step) elements: NLL for mixture variants, absolute
    error for the det variant."""
    preds, _ = _forward(batch.inputs, params, cfg)
    return _loss(preds, batch.targets, cfg, with_grad=False)[0], preds


def predict(params: ModelParams, cfg: ModelConfig, inputs):
    """Inference: mixtures for norm/gmm, point values for det."""
    return _forward(inputs, params, cfg)[0]


def _linear_backward(grads, params, w, b, d, a):
    """Store the gradients of the layer `a @ params[w].T + params[b]`
    (rows flattened) for upstream gradient d; return d @ params[w]."""
    grads[w] = d.T @ a
    grads[b] = d.sum(axis=0)
    return d @ params[w]


def backward(batch: ForecastBatch, params: ModelParams, cfg: ModelConfig):
    """(loss, gradients) with gradients shaped exactly like the params."""
    preds, cache = _forward(batch.inputs, params, cfg)
    loss, g_out = _loss(preds, batch.targets, cfg, with_grad=True)
    rows = batch.targets.shape[0] * batch.targets.shape[1]
    m_count = batch.targets.size
    grads = {}
    z = cache["z"].reshape(rows, -1)

    if cfg.variant == "det":
        d_out = (g_out / m_count).reshape(rows, -1)
        g_z = _linear_backward(grads, params, "out.w", "out.b", d_out, z)
    else:
        d_logits, d_means, d_logvar = g_out
        raw = cache["logvar_raw"]
        branches = {
            "mix": d_logits / m_count,
            "mean": d_means * cfg.head.anchor_scale / m_count,
            # Hard-clamped log-variances contribute no gradient.
            "logvar": d_logvar / m_count * ((raw > LOG_VAR_MIN) & (raw < LOG_VAR_MAX)),
        }
        zp = cache["zp"].reshape(rows, -1)
        g_zp = np.zeros_like(zp)
        for name, d in branches.items():
            d = d.reshape(rows, -1)
            g_zp += _linear_backward(grads, params, f"{name}.w", f"{name}.b", d, zp)
        g_z = _linear_backward(grads, params, "proj.w", "proj.b", g_zp, z)

    h1 = cache["h1"].reshape(rows, -1)
    g_h1 = _linear_backward(grads, params, "backbone.w2", "backbone.b2", g_z, h1)
    g_a1 = g_h1 * (1.0 - h1**2) if cfg.backbone.activation == "tanh" else g_h1
    grads["backbone.w1"] = g_a1.T @ batch.inputs.reshape(rows, -1)
    grads["backbone.b1"] = g_a1.sum(axis=0)
    return loss, grads


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
