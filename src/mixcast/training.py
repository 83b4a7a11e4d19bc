"""Optimization loop: decoupled-weight-decay Adam, warmup + fixed step
decay (`DECAY`) and epoch orchestration.

The batch order stream is seeded separately from parameter
initialization, so runs of different model variants under one seed
consume identical batch sequences (verified via per-epoch content
digests in the training log).

`fit` computes in float32, the usual precision of a deep-learning loop:
it casts the initialized params (so the Adam moments are float32 too)
once at entry, gathers each batch once in float64 from the split's raw
series and casts it, and returns float64 params, so checkpoints and
everything downstream stay float64. The batch digests (of the float64
batches) and the gradient norm are taken in float64.

Every step and validation block works in one `model.Workspace`, made
once per `fit` for the largest batch it draws, so the loop allocates no
large array per step and runs the same under any allocator settings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .data import check_ints, is_real

# Adam's denominator guard; the step decay as (progress point, lr factor)
# pairs, points increasing and factors decreasing.
ADAM_EPS = 1e-8
DECAY = ((0.75, 0.10), (0.85, 0.01))
# The dtype `fit` computes in.
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting and its default. The real-valued settings
    are stored as floats once checked; a bool is not a number here."""

    epochs: int = 50
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 1e-4
    betas: tuple = (0.9, 0.999)
    warmup_epochs: float = 2.0
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        check_ints(self, 1, "epochs", "batch_size")
        check_ints(self, 0, "seed")
        if not (is_real(self.lr) and 0 < self.lr < math.inf):
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        for name in ("lr", "weight_decay", "warmup_epochs", "clip_norm"):
            value = getattr(self, name)
            if not (is_real(value) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        betas = tuple(self.betas) if isinstance(self.betas, (list, tuple)) else None
        if betas is None or len(betas) != 2 or not all(is_real(b) and 0 <= b < 1 for b in betas):
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        object.__setattr__(self, "betas", tuple(float(b) for b in betas))


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Learning rate for one optimizer step.

    Linear ramp 0 -> lr across the warmup fraction (per step), then flat,
    then multiplied by each decay factor from the start of the first
    epoch at or past the matching progress point. Right-continuous at
    every breakpoint.
    """
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    epoch = step * cfg.epochs // total_steps
    factor = 1.0
    for point, fac in DECAY:
        boundary = math.ceil(point * cfg.epochs - 1e-9)
        if epoch >= boundary:
            factor = fac
    warmup_steps = total_steps * cfg.warmup_epochs / cfg.epochs
    ramp = min(1.0, step / warmup_steps) if warmup_steps > 0 else 1.0
    return cfg.lr * ramp * factor


@dataclass
class AdamWState:
    """Adam's first and second moments, packed like the params."""

    m: mdl.ModelParams
    v: mdl.ModelParams
    t: int = 0

    @classmethod
    def init(cls, params: mdl.ModelParams) -> "AdamWState":
        return cls(m=params.zeros_like(), v=params.zeros_like())


def global_norm(grads: mdl.ModelParams) -> float:
    """sqrt of the sum of squares of every gradient entry, in one pass over
    the packed buffer, squared and summed in float64 whatever its dtype
    (float32 squares overflow from about 1.8e19)."""
    with np.errstate(over="ignore"):
        return math.sqrt(float(np.sum(np.square(grads.flat, dtype=np.float64))))


def clip_gradients(grads: mdl.ModelParams, max_norm: float,
                   norm: float | None = None) -> mdl.ModelParams:
    """`grads` rescaled to global norm `max_norm` when their norm (computed
    unless given) exceeds it, as new params; otherwise the same object,
    unchanged. `max_norm` 0 disables clipping."""
    if norm is None:
        norm = global_norm(grads)
    if not math.isfinite(norm):
        # Leave them alone; the optimizer's finiteness check rejects the step.
        return grads
    if max_norm > 0 and norm > max_norm:
        return grads.with_flat(grads.flat * (max_norm / norm))
    return grads


def optimizer_step(params, grads, state: AdamWState, lr: float, cfg: TrainConfig):
    """One decoupled-weight-decay Adam update (in place; single writer),
    one pass per operation over the packed buffers of params, grads and
    moments, which share one layout.

    Moments are bias-corrected; the decay term -lr * wd * theta is applied
    separately from the adaptive step, so with zero gradients parameters
    decay geometrically by exactly (1 - lr * wd).

    A ValueError naming the tensor rejects the step, before any parameter
    or moment changes, when a gradient entry is non-finite or so large
    that its square overflows the gradient's dtype (|g| > sqrt(max / 2),
    about 1.3e19 in float32): the second moment would turn infinite and
    the update silently 0. The bias-corrected second moment is a weighted
    mean of squared gradients, so below that bound it stays finite.
    """
    if grads.layout != params.layout:
        raise ValueError("gradients are not laid out like the params")
    g = grads.flat
    limit = math.sqrt(float(np.finfo(g.dtype).max) / 2)
    # NaN fails both comparisons; on failure, name the first bad tensor.
    if g.size and not (float(g.max()) <= limit and float(g.min()) >= -limit):
        for name, t in grads.tensors.items():
            peak = float(np.abs(t).max(initial=0.0))  # NaN propagates
            if not math.isfinite(peak):
                raise ValueError(f"non-finite gradient for {name}: step rejected")
            if peak > limit:
                raise ValueError(
                    f"gradient for {name} reaches {peak:.3g}, whose square overflows "
                    f"{t.dtype}: step rejected"
                )
    b1, b2 = cfg.betas
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v, p = state.m.flat, state.v.flat, params.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * cfg.weight_decay * p
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


@dataclass
class TrainResult:
    """What `fit` returns: the best params (float64), the per-epoch history
    (for mixtures with the validation `model.weight_entropy` per horizon
    step) and log lines, per completed step the pre-clip gradient norm and
    whether clipping fired, and over the completed steps how many of the
    (element, component) log-variances sat at a clamp bound, out of
    `logvars` (both 0 for det)."""

    params: mdl.ModelParams
    best_val_loss: float
    best_epoch: int
    history: list = field(default_factory=list)
    log_lines: list = field(default_factory=list)
    batch_digests: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    clip_fired: list = field(default_factory=list)
    logvar_clamped: int = 0
    logvars: int = 0
    diverged: bool = False


def _hashed_batches(windows, perm: np.ndarray, batch_size: int, digest):
    """The epoch's batches (inputs, targets) in consumption order, in
    COMPUTE_DTYPE: each is gathered once by the float64 `windows`, its
    inputs hashed into `digest`, then cast, and the float64 copies are
    dropped before it is handed out."""
    for i in range(0, len(perm), batch_size):
        inputs, targets = windows.gather(perm[i : i + batch_size])
        digest.update(inputs)
        inputs, targets = inputs.astype(COMPUTE_DTYPE), targets.astype(COMPUTE_DTYPE)
        yield inputs, targets


def _validate(val, params, model_cfg: mdl.ModelConfig, batch_size: int, workspace):
    """(loss, history entries) of the validation windows `val`, forwarded in
    blocks of `batch_size` windows in `workspace`; for mixtures the
    entries are the per-step weight entropy and effective K."""
    loss, rows = mdl.blocked_loss(val, params, model_cfg, workspace, batch_size)
    if rows is None:
        return loss, {}
    entropy, effective_k = mdl.weight_entropy(rows)
    return loss, {"weight_entropy": entropy.tolist(), "effective_k": effective_k.tolist()}


def fit(splits, model_cfg: mdl.ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train on splits.train, keep the checkpoint with the best
    validation loss (NLL or MAE, per variant).

    `splits` carries train/val `data.WindowSet`s. Steps and validation run
    in COMPUTE_DTYPE (params rounded from `init_params`' float64 draws):
    each step's batch is gathered once, in float64, its inputs hashed for
    the epoch's batch digest, and cast; validation goes in blocks of
    batch_size windows that the split gathers in COMPUTE_DTYPE. The
    returned params are float64. Steps and validation blocks share one
    workspace, sized for the largest batch drawn: min(batch_size,
    windows) windows of every location. On divergence (non-finite loss or
    gradient) training stops and the last good checkpoint is returned
    with diverged=True; that epoch's digest still covers all its batches.
    """
    # hashlib's OpenSSL SHA-256, imported here so that importing the
    # package does not load OpenSSL: it hashes about 46 MB per run of the
    # README's budget, several times faster than the interpreter's own
    # SHA-256 that `cli.dataset_id` uses, and `fit` loads OpenSSL anyway
    # through `numpy.random`.
    import hashlib

    rng_data = np.random.default_rng([train_cfg.seed, 0])
    rng_model = np.random.default_rng([train_cfg.seed, 1])
    params = mdl.init_params(model_cfg, rng_model).astype(COMPUTE_DTYPE)
    state = AdamWState.init(params)

    w = splits.train.count
    if w == 0:
        raise ValueError("empty training split")
    bs = train_cfg.batch_size
    n_batches = (w + bs - 1) // bs
    total_steps = train_cfg.epochs * n_batches
    val = splits.val.astype(COMPUTE_DTYPE)
    nodes = splits.train.raw.shape[-1]
    workspace = mdl.Workspace(model_cfg, min(bs, max(w, val.count)) * nodes, COMPUTE_DTYPE)

    result = TrainResult(params=params.astype(np.float64), best_val_loss=math.inf, best_epoch=-1)
    components = 0 if model_cfg.head is None else model_cfg.head.components
    step = 0
    for epoch in range(train_cfg.epochs):
        digest = hashlib.sha256()
        batches = _hashed_batches(splits.train, rng_data.permutation(w), bs, digest)
        epoch_losses = []
        try:
            for inputs, targets in batches:
                batch = mdl.ForecastBatch(inputs, targets)
                lr = lr_at(step, total_steps, train_cfg)
                loss, grads, clamped = mdl.backward(batch, params, model_cfg, workspace)
                norm = global_norm(grads)
                clipped = clip_gradients(grads, train_cfg.clip_norm, norm)
                optimizer_step(params, clipped, state, lr, train_cfg)
                result.grad_norms.append(norm)
                result.clip_fired.append(clipped is not grads)
                result.logvar_clamped += clamped
                result.logvars += batch.targets.size * components
                result.log_lines.append(
                    f"epoch={epoch} step={step} lr={lr!r} loss={loss!r}"
                )
                epoch_losses.append(loss)
                step += 1
            val_loss, val_entries = _validate(val, params, model_cfg, bs, workspace)
        except ValueError as err:
            result.log_lines.append(f"epoch={epoch} diverged error={err}")
            result.diverged = True
        for _ in batches:  # a diverged epoch's digest covers every batch too
            pass
        digest = digest.hexdigest()[:16]
        result.batch_digests.append(digest)
        if result.diverged:
            break
        mean_loss = float(np.mean(epoch_losses))
        result.history.append(
            {"epoch": epoch, "train_loss": mean_loss, "val_loss": val_loss, **val_entries}
        )
        result.log_lines.append(
            f"epoch={epoch} train_loss={mean_loss!r} val_loss={val_loss!r} "
            f"batch_digest={digest}"
        )
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            result.params = params.astype(np.float64)
    return result
