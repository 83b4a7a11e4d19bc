"""Optimization loop: decoupled-weight-decay Adam, warmup + step-decay
schedule, z-score bookkeeping and epoch orchestration.

The batch order stream is seeded separately from parameter
initialization, so runs of different model variants under one seed
consume identical batch sequences (verified via per-epoch content
digests in the training log).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    warmup_epochs: float = 2.0
    decay_points: tuple = (0.75, 0.85)
    decay_factors: tuple = (0.10, 0.01)
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")
        pts = tuple(self.decay_points)
        if not all(0 < p < 1 for p in pts) or list(pts) != sorted(pts):
            raise ValueError(f"decay points must be increasing in (0, 1), got {pts}")
        fac = tuple(self.decay_factors)
        if not all(0 < f <= 1 for f in fac) or list(fac) != sorted(fac, reverse=True):
            raise ValueError(f"decay factors must be decreasing in (0, 1], got {fac}")
        if len(pts) != len(fac):
            raise ValueError("decay points and factors must pair up")


@dataclass(frozen=True)
class Normalizer:
    """Z-score transform fitted on the training split only."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be positive, got {self.std!r}")

    @classmethod
    def fit(cls, values: np.ndarray) -> "Normalizer":
        values = np.asarray(values, dtype=float)
        std = float(values.std())
        if std < 1e-12:
            raise ValueError("cannot normalize constant data (std ~ 0)")
        return cls(mean=float(values.mean()), std=std)

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def inverse(self, x):
        return np.asarray(x, dtype=float) * self.std + self.mean


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
    for point, fac in zip(cfg.decay_points, cfg.decay_factors):
        boundary = math.ceil(point * cfg.epochs - 1e-9)
        if epoch >= boundary:
            factor = fac
    warmup_steps = total_steps * cfg.warmup_epochs / cfg.epochs
    ramp = min(1.0, step / warmup_steps) if warmup_steps > 0 else 1.0
    return cfg.lr * ramp * factor


@dataclass
class AdamWState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: mdl.ModelParams) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.tensors.items()},
            v={k: np.zeros_like(v) for k, v in params.tensors.items()},
        )


def global_norm(grads: dict) -> float:
    with np.errstate(over="ignore"):
        return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_gradients(grads: dict, max_norm: float) -> dict:
    norm = global_norm(grads)
    if not math.isfinite(norm):
        # Leave them alone; the optimizer's finiteness check rejects the step.
        return grads
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        return {k: g * scale for k, g in grads.items()}
    return grads


def optimizer_step(params, grads, state: AdamWState, lr: float, cfg: TrainConfig):
    """One decoupled-weight-decay Adam update (in place; single writer).

    Moments are bias-corrected; the decay term -lr * wd * theta is applied
    separately from the adaptive step, so with zero gradients parameters
    decay geometrically by exactly (1 - lr * wd).
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name}: step rejected")
    b1, b2 = cfg.betas
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p = params[name]
        p -= lr * cfg.weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return params, state


@dataclass
class TrainResult:
    params: mdl.ModelParams
    model_cfg: mdl.ModelConfig
    best_val_loss: float
    best_epoch: int
    history: list = field(default_factory=list)
    log_lines: list = field(default_factory=list)
    batch_digests: list = field(default_factory=list)
    diverged: bool = False


def _epoch_digest(inputs: np.ndarray, perm: np.ndarray) -> str:
    """Digest of the epoch's batch content in consumption order."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs[perm]).tobytes())
    return h.hexdigest()[:16]


def fit(splits, model_cfg: mdl.ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train on splits.train, keep the checkpoint with the best
    validation loss (NLL or MAE, per variant).

    `splits` carries train/val window sets with aligned normalized
    inputs/targets. On divergence (non-finite loss or gradient) training
    stops and the last good checkpoint is returned with diverged=True.
    """
    train, val = splits.train, splits.val
    rng_data = np.random.default_rng([train_cfg.seed, 0])
    rng_model = np.random.default_rng([train_cfg.seed, 1])
    params = mdl.init_params(model_cfg, rng_model)
    state = AdamWState.init(params)

    w = train.inputs.shape[0]
    if w == 0:
        raise ValueError("empty training split")
    bs = train_cfg.batch_size
    n_batches = (w + bs - 1) // bs
    total_steps = train_cfg.epochs * n_batches
    val_batch = mdl.ForecastBatch(inputs=val.inputs, targets=val.targets)

    result = TrainResult(
        params=params.copy(), model_cfg=model_cfg, best_val_loss=math.inf, best_epoch=-1
    )
    step = 0
    for epoch in range(train_cfg.epochs):
        perm = rng_data.permutation(w)
        digest = _epoch_digest(train.inputs, perm)
        result.batch_digests.append(digest)
        epoch_losses = []
        try:
            for i in range(n_batches):
                idx = perm[i * bs : (i + 1) * bs]
                batch = mdl.ForecastBatch(inputs=train.inputs[idx], targets=train.targets[idx])
                lr = lr_at(step, total_steps, train_cfg)
                loss, grads = mdl.backward(batch, params, model_cfg)
                grads = clip_gradients(grads, train_cfg.clip_norm)
                optimizer_step(params, grads, state, lr, train_cfg)
                result.log_lines.append(
                    f"epoch={epoch} step={step} lr={lr!r} loss={loss!r}"
                )
                epoch_losses.append(loss)
                step += 1
            val_loss, _ = mdl.forward_loss(val_batch, params, model_cfg)
        except ValueError as err:
            result.log_lines.append(f"epoch={epoch} diverged error={err}")
            result.diverged = True
            break
        mean_loss = float(np.mean(epoch_losses))
        result.history.append(
            {"epoch": epoch, "train_loss": mean_loss, "val_loss": val_loss}
        )
        result.log_lines.append(
            f"epoch={epoch} train_loss={mean_loss!r} val_loss={val_loss!r} "
            f"batch_digest={digest}"
        )
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            result.params = params.copy()
    return result
