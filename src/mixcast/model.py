"""The trainable model: a small per-node backbone feeding either a linear
point-prediction layer or a mixture output head.

The mixture head projects backbone features, then runs three linear
branches for mixing logits, mean offsets and log-variances. Its only
settings are K and the projection width (`HeadConfig`); the horizon is
the model's. Component means are reparameterized as
offset * anchor_scale + anchor, with fixed anchors derived from K
(`default_anchors`) and spaced so the components tile the standardized
3-sigma band with half-overlap ((K+1) * scale = 6). At initialization the
branch weights are zero with biases chosen so every output is the same
weakly informative mixture: uniform weights, means at the anchors, unit
variances.

One forward pass (`_forward`) serves `predict`, `blocked_loss` and
`backward`. For mixtures it returns the head outputs (logits, means,
clamped log-variances) rows last, each branch as W @ zp.T shaped
(horizon, K, rows) in the row order of the stored weights, so the NLL
kernel and the branch gradients run over contiguous rows; only `predict`
builds a `MixtureBatch`, of shape (..., horizon, K). One per-element
loss (`_elementwise_loss`, on the log-space NLL kernel
`gmm.nll_and_gradients`, which writes its gradients over the head
outputs) and one mean (`_mean_loss`) serve both loss entry points, so
their losses agree bitwise.

A `Workspace` holds a step's arrays in one buffer, laid out by liveness:
the forward activations, head outputs, NLL scratch and targets, and the
backward products, each written into the slot of an array that is dead
by then. `training.fit` keeps one for every step and validation block,
so training allocates no large array per step; `backward` without one
allocates a fresh workspace, and `predict` allocates as numpy does.

All gradients are hand-derived reverse mode; `backward` matches central
finite differences (see tests). Forward/backward are pure functions of
(params, batch) apart from the workspace they write, so concurrent
evaluation on parameter snapshots is safe when each call has its own.

`ModelParams` packs every tensor into one contiguous buffer, with the
named tensors as views of it, written through (`params[name][...] = v`)
and never rebound. `backward` writes each gradient into a buffer of the
same layout (weights by gemm, biases by a gemv against ones), so the
optimizer updates all of them in one pass.

Forward and backward compute in the dtype of the params and inputs:
`training.fit` passes float32 copies, while checkpoints, `predict` and
evaluation stay float64.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import check_ints, from_fields
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
    """The mixture head: K components and the projection width. The
    anchors and their scale follow from K (`default_anchors`), computed
    once per config; the horizon is the model's."""

    components: int
    proj_width: int = 64

    def __post_init__(self):
        check_ints(self, 1, "components", "proj_width")
        scale, anchors = default_anchors(self.components)
        anchors.setflags(write=False)
        # Attributes, not fields: read-only, and outside ==, repr and asdict.
        object.__setattr__(self, "anchor_scale", scale)
        object.__setattr__(self, "anchors", anchors)


@dataclass(frozen=True)
class BackboneConfig:
    input_steps: int
    channels: int = 1
    hidden: int = 64
    features: int = 64
    activation: str = "tanh"  # "tanh" | "identity"

    def __post_init__(self):
        check_ints(self, 1, "input_steps", "hidden", "features")
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
        check_ints(self, 1, "horizon")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "det":
            if self.head is not None:
                raise ValueError("det variant takes no head config")
        else:
            if self.head is None:
                raise ValueError(f"{self.variant} variant needs a head config")
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
    """Aligned inputs/targets for a set of windows."""

    inputs: np.ndarray  # (B, N, input_dim), normalized
    targets: np.ndarray  # (B, N, horizon), normalized

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


def param_shapes(cfg: ModelConfig) -> dict:
    """Each parameter tensor's shape, by name, in storage order."""
    bb = cfg.backbone
    shapes = {"backbone.w1": (bb.hidden, bb.input_dim), "backbone.b1": (bb.hidden,),
              "backbone.w2": (bb.features, bb.hidden), "backbone.b2": (bb.features,)}
    if cfg.variant == "det":
        return shapes | {"out.w": (cfg.horizon, bb.features), "out.b": (cfg.horizon,)}
    wide, width = cfg.horizon * cfg.head.components, cfg.head.proj_width
    shapes |= {"proj.w": (width, bb.features), "proj.b": (width,)}
    for branch in ("mix", "mean", "logvar"):
        shapes |= {f"{branch}.w": (wide, width), f"{branch}.b": (wide,)}
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Random backbone and projection weights, uniform in +-1/sqrt(fan-in)
    and drawn in storage order; every other tensor 0, except the mixture
    bias, which starts the weights equal (a weakly-informative head)."""
    t = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    for name in ("backbone.w1", "backbone.w2", "proj.w"):
        if name in t:
            bound = 1.0 / np.sqrt(t[name].shape[1])
            t[name] = rng.uniform(-bound, bound, t[name].shape)
    if cfg.head is not None:
        t["mix.b"][:] = 1.0 / cfg.head.components
    return ModelParams(t)


# Workspace slots start at multiples of this many elements (64 bytes in
# float32), so every view is at least as aligned as a fresh array.
_SLOT_ALIGN = 16


def _aligned(n: int) -> int:
    """n rounded up to a multiple of _SLOT_ALIGN."""
    return -(-n // _SLOT_ALIGN) * _SLOT_ALIGN


def _slot_widths(cfg: ModelConfig, itemsize: int) -> dict:
    """Each workspace slot's width per batch row, in storage order. A slot
    is sized for every array it holds over a step: h1 then g_a1; z then
    g_h1 (mixtures); zp then the branch products and g_z; the NLL's
    scratch, the first also g_zp; for det the outputs, then g_h1, while z
    takes g_z. `inside` holds the bool clamp mask, one byte per element."""
    bb = cfg.backbone
    if cfg.variant == "det":
        return {"h1": bb.hidden, "z": bb.features, "out": max(cfg.horizon, bb.hidden)}
    wide, width = cfg.horizon * cfg.head.components, cfg.head.proj_width
    return {"h1": bb.hidden, "z": max(bb.features, bb.hidden), "zp": max(width, bb.features),
            "mix": wide, "mean": wide, "logvar": wide, "scratch1": max(wide, width),
            "scratch2": wide, "y": cfg.horizon, "inside": -(-wide // itemsize)}


class Workspace:
    """One buffer for the arrays of a training step or a validation block
    of up to `rows` (window, location) rows, in `dtype`, reused from call
    to call. `views(r)` carves each slot's first r * width elements from
    the front of the buffer, one after another, so a short batch uses a
    prefix of it. What a step leaves in it is overwritten by the next."""

    def __init__(self, cfg: ModelConfig, rows: int, dtype=np.float32):
        self.rows = rows
        self.widths = _slot_widths(cfg, np.dtype(dtype).itemsize)
        self.flat = np.empty(sum(_aligned(rows * w) for w in self.widths.values()), dtype)

    def views(self, rows: int) -> dict:
        """Each slot's flat view for a batch of `rows` rows."""
        if rows > self.rows:
            raise ValueError(f"a batch of {rows} rows exceeds the workspace's {self.rows}")
        views, start = {}, 0
        for name, width in self.widths.items():
            views[name] = self.flat[start : start + rows * width]
            start += _aligned(rows * width)
        return views


def _out(ws, name, shape, dtype=None):
    """The front of workspace slot `name` as an array of `shape` (viewed
    as `dtype` when given), or None without a workspace, where numpy
    allocates."""
    if ws is None:
        return None
    slot = ws[name] if dtype is None else ws[name].view(dtype)
    return slot[: math.prod(shape)].reshape(shape)


def backbone_forward(x, params, cfg: BackboneConfig, ws=None):
    """Per-node MLP (input window -> hidden -> features).

    Returns (z, h1): the features and the hidden activations that
    `backward` reuses, in the slots of workspace views `ws` if given."""
    if x.ndim != 3 or x.shape[-1] != cfg.input_dim:
        raise ValueError(f"expected inputs (B, N, {cfg.input_dim}), got {x.shape}")
    rows = x.shape[:-1]
    a1 = _affine(x, params, "backbone.w1", "backbone.b1", _out(ws, "h1", rows + (cfg.hidden,)))
    h1 = np.tanh(a1, out=a1) if cfg.activation == "tanh" else a1
    z = _affine(h1, params, "backbone.w2", "backbone.b2", _out(ws, "z", rows + (cfg.features,)))
    return z, h1


def _affine(a, params, w, b, out=None):
    """a @ params[w].T + params[b] into `out` (None: a new array), adding
    the bias in place."""
    out = np.matmul(a, params[w].T, out=out)
    out += params[b]
    return out


def head_forward(z, cfg: ModelConfig, params, ws=None):
    """((logits, means, logvars), cache): the head's raw outputs, rows last.

    z has shape (..., features), its leading axes flattening to R rows;
    each output is a branch's W @ zp.T as (horizon, K, R), the order of
    its weight rows, in the dtype of the branch outputs. Means are in
    normalized space and log-variances are clamped to [LOG_VAR_MIN,
    LOG_VAR_MAX]. The cache holds the (R, proj_width) projection. With
    workspace views `ws`, every array lands in its slot."""
    hc = cfg.head
    zp = _affine(z, params, "proj.w", "proj.b",
                 _out(ws, "zp", z.shape[:-1] + (hc.proj_width,))).reshape(-1, hc.proj_width)
    shape = (cfg.horizon, hc.components, zp.shape[0])

    def branch(name):
        out = _out(ws, name, (shape[0] * shape[1], shape[2]))
        out = np.matmul(params[f"{name}.w"], zp.T, out=out)
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


def entropy_rows(logits, out):
    """The component weights' entropy per horizon step and row, from
    `head_forward`'s rows-last (horizon, K, rows) logits, written into and
    returned as `out`, (horizon, rows) float64."""
    for step, lg in zip(out, logits):  # step by step, to keep temporaries small
        shifted = lg - lg.max(axis=0).astype(np.float64)
        e = np.exp(shifted)
        e_sum = e.sum(axis=0)
        step[:] = np.log(e_sum) - (e * shifted).sum(axis=0) / e_sum
    return out


def weight_entropy(rows):
    """Per horizon step, the mean over rows of `entropy_rows`' entropies,
    then of their exp (the effective K), taken over the rows in place."""
    return rows.mean(axis=-1), np.exp(rows, out=rows).mean(axis=-1)


def _forward(inputs, params: ModelParams, cfg: ModelConfig, ws=None):
    """(predictions, cache): the head's (logits, means, logvars) for
    norm/gmm, point values for det, plus every intermediate `backward`
    needs, in the slots of workspace views `ws` if given."""
    z, h1 = backbone_forward(inputs, params, cfg.backbone, ws)
    cache = {"h1": h1, "z": z}
    if cfg.variant == "det":
        return _affine(z, params, "out.w", "out.b",
                       _out(ws, "out", z.shape[:-1] + (cfg.horizon,))), cache
    outputs, head_cache = head_forward(z, cfg, params, ws)
    cache.update(head_cache)
    return outputs, cache


def _elementwise_loss(preds, y, cfg: ModelConfig, with_grad: bool, ws=None):
    """(per-element loss, per-element gradient or None) over all (window,
    location, step) elements: absolute error and its sign for det, in the
    batch's shape, and NLL (rows last, (horizon, 1, rows)) and the
    kernel's rows-last (d_logits, d_means, d_logvars) for the mixture
    variants. The loss does not depend on with_grad, bit for bit. The
    predictions are consumed: the gradients are written over them."""
    if cfg.variant == "det":
        diff = np.subtract(preds, y, out=preds)
        per = np.abs(diff)
        return per, (np.sign(diff, out=diff) if with_grad else None)
    # Targets rows last, (horizon, 1, rows), like the head outputs.
    shape = (y.shape[-1], 1, y.size // y.shape[-1])
    y_rows_last = np.empty(shape, y.dtype) if ws is None else _out(ws, "y", shape)
    y_rows_last[:, 0] = y.reshape(-1, y.shape[-1]).T
    scratch = None if ws is None else tuple(_out(ws, name, preds[0].shape)
                                            for name in ("scratch1", "scratch2"))
    # Non-finite intermediates surface through the loss guard of _mean_loss,
    # so numpy's own warnings are redundant here.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return nll_and_gradients(*preds, y_rows_last, gradients=with_grad, scratch=scratch)


def _mean_loss(per, shape, cfg: ModelConfig) -> float:
    """The mean of `_elementwise_loss`'s per-element losses for targets of
    `shape`; a ValueError names the first non-finite one by its (window,
    location, step) index."""
    loss = float(per.mean())
    if not np.isfinite(loss):
        what = "absolute error"
        if cfg.variant != "det":
            # Back in the batch's (window, location, step) order.
            per = np.moveaxis(per.reshape(shape[-1:] + shape[:-1]), 0, -1)
            what = "negative log-likelihood"
        bad = np.argwhere(~np.isfinite(per))
        first = tuple(int(i) for i in bad[0]) if bad.size else "?"
        raise ValueError(f"non-finite {what} at element {first}")
    return loss


def blocked_loss(windows, params: ModelParams, cfg: ModelConfig, workspace=None, block=None):
    """(loss, entropy): the training loss of `windows` (a `data.WindowSet`
    or anything with its `count` and `gather`) as one batch, bit for bit,
    forwarded `block` windows at a time (all at once when None), each in
    `workspace` if given. The loss is the mean NLL for mixture variants,
    the mean absolute error for det. Each block writes its per-element
    losses and, for norm/gmm, its (horizon, rows) float64 `entropy_rows`
    (taken before the NLL consumes the logits) into one array each, sized
    for every window; the entropy is None for det."""
    count, per, entropy = windows.count, None, None
    det, block = cfg.variant == "det", block or count
    for start in range(0, count, block):
        inputs, targets = windows.gather(slice(start, start + block))
        b, nodes, horizon = targets.shape
        ws = None if workspace is None else workspace.views(b * nodes)
        preds = _forward(inputs, params, cfg, ws)[0]
        # Rows (window-major) run along the first axis for det, the last otherwise.
        rows = slice(start * nodes, (start + b) * nodes)
        if not det:
            if entropy is None:
                entropy = np.empty((horizon, count * nodes))
            entropy_rows(preds[0], entropy[:, rows])
        block_per = _elementwise_loss(preds, targets, cfg, with_grad=False, ws=ws)[0]
        if per is None:
            per = np.empty((count, nodes, horizon) if det else (horizon, 1, count * nodes),
                           block_per.dtype)
        per[slice(start, start + b) if det else (..., rows)] = block_per
    return _mean_loss(per, (count, nodes, horizon), cfg), entropy


def predict(params: ModelParams, cfg: ModelConfig, inputs):
    """Inference: mixtures for norm/gmm, point values for det."""
    preds = _forward(inputs, params, cfg)[0]
    return preds if cfg.variant == "det" else head_mixtures(preds, inputs.shape[:-1])


def _weight_grads(grads, w, b, d, a, ones):
    """Write the gradients of the layer `a @ params[w].T + params[b]`
    (rows of `a` flattened) for the upstream gradient d, given rows last
    as (outputs, rows), into their views of `grads`: d @ a by gemm, and
    the bias one as the gemv d @ ones."""
    np.matmul(d, a, out=grads[w])
    np.matmul(d, ones, out=grads[b])


def backward(batch: ForecastBatch, params: ModelParams, cfg: ModelConfig, workspace=None):
    """(loss, gradients, clamped): the gradients packed like the params,
    and how many (element, component) log-variances sit at a clamp bound,
    where their gradient is zero (0 for det).

    The step's arrays live in `workspace`, or in a fresh one sized for
    this batch. Every array is written into a slot whose previous
    occupant is dead: the clamp mask is taken before the NLL consumes the
    log-variances; the branch weight gradients, which need zp, come
    before the d.T @ W products that reuse its slot; g_z goes into zp's
    slot, g_h1 into z's (for det into the outputs'), and g_a1 into h1's."""
    x, y = batch.inputs, batch.targets
    rows = y.shape[0] * y.shape[1]
    if workspace is None:
        workspace = Workspace(cfg, rows, np.result_type(x, y, params.flat))
    ws = workspace.views(rows)
    preds, cache = _forward(x, params, cfg, ws)
    clamped = 0
    if cfg.variant != "det":
        # A clamped log-variance sits at a bound exactly when the raw one
        # reached or passed it.
        logvars = preds[2]
        inside = np.greater(logvars, LOG_VAR_MIN, out=_out(ws, "inside", logvars.shape, bool))
        inside &= logvars < LOG_VAR_MAX
        clamped = inside.size - int(np.count_nonzero(inside))
    per, g_out = _elementwise_loss(preds, y, cfg, with_grad=True, ws=ws)
    loss = _mean_loss(per, y.shape, cfg)
    inv_count = 1.0 / y.size
    grads = params.zeros_like()
    z = cache["z"].reshape(rows, -1)
    ones = np.ones(rows, dtype=z.dtype)
    features, hidden = cfg.backbone.features, cfg.backbone.hidden

    if cfg.variant == "det":
        d_out = g_out.reshape(rows, -1)
        d_out *= inv_count
        _weight_grads(grads, "out.w", "out.b", d_out.T, z, ones)
        g_z = np.matmul(d_out, params["out.w"], out=_out(ws, "z", (rows, features)))
        g_h1_slot = "out"
    else:
        d_logits, d_means, d_logvars = g_out
        d_logits *= inv_count
        d_means *= cfg.head.anchor_scale * inv_count
        # Hard-clamped log-variances contribute no gradient.
        d_logvars *= inside
        d_logvars *= inv_count
        zp = cache["zp"]
        branches = [(name, d.reshape(-1, rows))
                    for name, d in (("mix", d_logits), ("mean", d_means), ("logvar", d_logvars))]
        for name, d in branches:
            _weight_grads(grads, f"{name}.w", f"{name}.b", d, zp, ones)
        # zp is dead: the mean and logvar products take its slot.
        g_zp = np.matmul(branches[0][1].T, params["mix.w"], out=_out(ws, "scratch1", zp.shape))
        for name, d in branches[1:]:
            g_zp += np.matmul(d.T, params[f"{name}.w"], out=zp)
        _weight_grads(grads, "proj.w", "proj.b", g_zp.T, z, ones)
        g_z = np.matmul(g_zp, params["proj.w"], out=_out(ws, "zp", (rows, features)))
        g_h1_slot = "z"

    h1 = cache["h1"].reshape(rows, -1)
    _weight_grads(grads, "backbone.w2", "backbone.b2", g_z.T, h1, ones)
    g_h1 = np.matmul(g_z, params["backbone.w2"], out=_out(ws, g_h1_slot, (rows, hidden)))
    g_a1 = g_h1
    if cfg.backbone.activation == "tanh":
        g_a1 = np.multiply(h1, h1, out=h1)
        np.subtract(1.0, g_a1, out=g_a1)
        g_a1 *= g_h1
    np.matmul(g_a1.T, x.reshape(rows, -1), out=grads["backbone.w1"])
    np.matmul(ones, g_a1, out=grads["backbone.b1"])
    return loss, grads, clamped


# ----------------------------------------------------------------------
# Checkpoints: versioned binary dump, bit-exact round trip.
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _cfg_to_meta(cfg: ModelConfig) -> dict:
    meta = {"variant": cfg.variant, "horizon": cfg.horizon, "backbone": asdict(cfg.backbone)}
    if cfg.head is not None:
        meta["head"] = asdict(cfg.head)
    return meta


def _cfg_from_meta(meta: dict) -> ModelConfig:
    """The config `_cfg_to_meta` wrote. Older v1 files carry a backbone
    `graph_alpha`, which is dropped, and the head's horizon, anchor scale
    and anchors, each of which must equal the value derived now."""
    for section in ("backbone", "head"):
        if section in meta and not isinstance(meta[section], dict):
            raise ValueError(f"model {section} must be an object, got {meta[section]!r}")
    backbone = {k: v for k, v in meta["backbone"].items() if k != "graph_alpha"}
    head = None
    if "head" in meta:
        stored = dict(meta["head"])
        derived = {key: stored.pop(key) for key in ("horizon", "anchor_scale", "anchors")
                   if key in stored}
        head = from_fields(HeadConfig, stored)
        expected = {"horizon": meta["horizon"], "anchor_scale": head.anchor_scale,
                    "anchors": head.anchors.tolist()}
        for key, value in derived.items():
            if value != expected[key]:
                raise ValueError(f"head {key} is {value!r}, not the derived {expected[key]!r}")
    return ModelConfig(
        variant=meta["variant"],
        backbone=from_fields(BackboneConfig, backbone),
        horizon=meta["horizon"],
        head=head,
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
    """(params, cfg, normalizer_stats_or_None, extra) from save_checkpoint.

    Each tensor must have the name and shape `param_shapes` gives for the
    stored config; a ValueError names the first one that does not."""
    with open(path, "rb") as fh, np.load(fh) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format") != "mixcast-checkpoint":
            raise ValueError(f"{path}: not a mixcast checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
        tensors = {name: data[name] for name in meta["tensor_names"]}
    cfg = _cfg_from_meta(meta["model"])
    expected = param_shapes(cfg)
    for name in dict.fromkeys([*expected, *tensors]):
        got = tensors[name].shape if name in tensors else "absent"
        want = expected.get(name, "absent")
        if got != want:
            raise ValueError(f"{path}: tensor {name} is {got} in the file but {want} "
                             "for the stored config")
    return ModelParams(tensors), cfg, meta["normalizer"], meta["extra"]
