"""Margin-softmax loss, optimizer, learning-rate schedule and training loop.

Both countermeasures (and the toy frontend) are optimized with additive
angular margin softmax over 2 classes, Adam, and a linear-warmup /
inverse-square-root learning-rate schedule.  Training is fully
deterministic given the seed: batch composition, crops and augmentation
masks all derive from one seeded generator consumed in a fixed order.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .cm_distribution import Cm2Net
from .cm_temporal import Cm1Config, Cm1Net
from .encoder import EncoderConfig, FrontendNet, feature_kind
from .errors import DataError, TrainingError
from .files import write_text
from .frontend import N_MELS, FeatureMap, random_crop, spec_augment
from .layers import init_layers, tensor_names

if TYPE_CHECKING:
    from .config import RunConfig

LABEL_BONAFIDE = 0
LABEL_SPOOF = 1

CM_IDS = ("cm1", "cm2", "frontend-toy")


@dataclass(frozen=True)
class AamConfig:
    margin: float = 0.4
    scale: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.margin < np.pi / 2:
            raise DataError("margin must be in [0, pi/2)")
        if self.scale <= 0:
            raise DataError("scale must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 256
    base_lr: float = 3e-4
    warmup_steps: int = 1000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    max_steps: int = 0          # 0: run epochs * steps_per_epoch
    crop_min_s: float = 2.0
    crop_max_s: float = 4.0
    augment: bool = False

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise DataError("epochs and batch_size must be positive")
        if self.base_lr <= 0 or self.warmup_steps <= 0:
            raise DataError("base_lr and warmup_steps must be positive")
        if self.max_steps < 0:
            raise DataError(f"max_steps must be at least 0, got {self.max_steps}")


def aam_softmax_loss(embeddings: np.ndarray, labels: np.ndarray,
                     class_weights: np.ndarray, cfg: AamConfig):
    """Additive-angular-margin softmax cross-entropy with analytic gradients.

    Embeddings and class rows are normalized to unit length; the target
    logit is s*cos(theta_y + m) while theta_y + m stays below pi (the
    standard stability branch uses s*(cos(theta_y) - m*sin(m)) otherwise);
    non-target logits are s*cos(theta_j).  Returns (mean loss, gradient on
    the raw embeddings, gradient on the raw class weights).
    """
    emb = np.asarray(embeddings)
    w = np.asarray(class_weights)
    y = np.asarray(labels, dtype=np.int64)
    b = emb.shape[0]
    rows = np.arange(b)
    norms_e = np.linalg.norm(emb, axis=1)
    if np.any(norms_e == 0):
        raise DataError("zero-norm embedding cannot be normalized")
    norms_w = np.linalg.norm(w, axis=1)
    if np.any(norms_w == 0):
        raise DataError("zero-norm class weight row")
    ehat = emb / norms_e[:, None]
    what = w / norms_w[:, None]
    cos = ehat @ what.T
    cos_y = cos[rows, y]
    sin_y = np.sqrt(np.clip(1.0 - cos_y * cos_y, 0.0, 1.0))
    cos_m = np.cos(cfg.margin)
    sin_m = np.sin(cfg.margin)
    stable = cos_y > -cos_m
    phi = np.where(stable, cos_y * cos_m - sin_y * sin_m,
                   cos_y - cfg.margin * sin_m)
    logits = cfg.scale * cos
    logits[rows, y] = cfg.scale * phi
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = float(np.mean(lse - logits[rows, y]))

    p = np.exp(logits - lse[:, None])
    g = p
    g[rows, y] -= 1.0
    g /= b
    dcos = g * cfg.scale
    dphi = np.where(stable, cos_m + sin_m * cos_y / np.maximum(sin_y, 1e-12), 1.0)
    dcos[rows, y] *= dphi
    corr_b = (dcos * cos).sum(axis=1, keepdims=True)
    demb = (dcos @ what - corr_b * ehat) / norms_e[:, None]
    corr_j = (dcos * cos).sum(axis=0)[:, None]
    dw = (dcos.T @ ehat - corr_j * what) / norms_w[:, None]
    return loss, demb, dw


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then inverse-square-root decay."""
    if step < 1:
        raise DataError(f"step must be >= 1, got {step}")
    return cfg.base_lr * min(step / cfg.warmup_steps,
                             np.sqrt(cfg.warmup_steps / step))


class Adam:
    """Adam with bias correction; updates only the given tensor names."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, params: dict, grads: dict, lr: float, trainable) -> None:
        cfg = self.cfg
        for name in sorted(trainable):
            if name not in grads:
                continue
            g = grads[name].astype(params[name].dtype, copy=False)
            if cfg.weight_decay:
                g = g + cfg.weight_decay * params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            self.m[name] = cfg.beta1 * self.m[name] + (1 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1 - cfg.beta2) * g * g
            mhat = self.m[name] / (1 - cfg.beta1 ** t)
            vhat = self.v[name] / (1 - cfg.beta2 ** t)
            params[name] -= (lr * mhat / (np.sqrt(vhat) + cfg.eps)).astype(
                params[name].dtype, copy=False)


@dataclass
class TrainItem:
    utt_id: str
    label: int
    features: FeatureMap


@dataclass
class LogEntry:
    step: int
    lr: float
    loss: float

    def line(self) -> str:
        return f"{self.step}\t{self.lr:.10g}\t{self.loss:.10g}"


def build_checkpoint(enc_cfg: EncoderConfig, cm1_cfg: Cm1Config, seed: int,
                     init_from: Checkpoint | None = None) -> Checkpoint:
    """Fresh full checkpoint: frontend, CM1 head, CM2 head (copied tail).

    Every CM2 tensor (MFA conv, pooling, projection, class rows) starts as a
    copy of its ``frontend.*`` twin, mirroring retraining from pretrained
    weights.  Tensors present in ``init_from`` take precedence.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    init_layers(FrontendNet(enc_cfg).layers(), rng, params)
    init_layers(Cm1Net(cm1_cfg, enc_cfg).layers(), rng, params)
    for name in tensor_names(Cm2Net(enc_cfg).layers()):
        params[name] = params["frontend." + name.removeprefix("cm2.")].copy()
    if init_from is not None:
        for name, tensor in init_from.tensors.items():
            if name in params and params[name].shape != tensor.shape:
                raise DataError(
                    f"init checkpoint tensor {name} has shape {tensor.shape}, "
                    f"expected {params[name].shape}")
            params[name] = tensor.copy()
    config = {"encoder": config_dict(enc_cfg), "cm1": config_dict(cm1_cfg)}
    return Checkpoint(tensors=params, frozen_names=set(), config=config)


def system_net(cm_id: str, enc_cfg: EncoderConfig, cm1_cfg: Cm1Config):
    """The net of system ``cm_id``; the countermeasures read FBank maps
    through a frozen frontend of their own."""
    if cm_id == "cm1":
        return Cm1Net(cm1_cfg, enc_cfg)
    if cm_id == "cm2":
        return Cm2Net(enc_cfg)
    if cm_id == "frontend-toy":
        return FrontendNet(enc_cfg)
    raise DataError(f"unknown system '{cm_id}', expected one of {CM_IDS}")


def config_dict(cfg) -> dict:
    """A config dataclass as the JSON object a checkpoint stores."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}


def checkpoint_configs(ckpt: Checkpoint) -> tuple[EncoderConfig, Cm1Config]:
    """The encoder and CM1 configs a checkpoint was built with.

    Manifests written before the block count, CM1's input width and the
    FBank width were derived or fixed store them as ``encoder.n_blocks``,
    ``cm1.input_dim`` and ``encoder.n_mels``; each is accepted only when it
    equals the derived value.
    """
    try:
        enc, cm1 = dict(ckpt.config["encoder"]), dict(ckpt.config["cm1"])
        n_blocks, n_mels = enc.pop("n_blocks", None), enc.pop("n_mels", None)
        input_dim = cm1.pop("input_dim", None)
        if "dilations" in enc:
            enc["dilations"] = tuple(enc["dilations"])
        enc_cfg, cm1_cfg = EncoderConfig(**enc), Cm1Config(**cm1)
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint config incomplete: {exc}") from None
    for key, stored, source, derived in (
            ("encoder.n_blocks", n_blocks, "len(encoder.dilations)",
             len(enc_cfg.dilations)),
            ("encoder.n_mels", n_mels, "frontend.N_MELS", N_MELS),
            ("cm1.input_dim", input_dim, "encoder.mfa_dim", enc_cfg.mfa_dim)):
        if stored not in (None, derived):
            raise DataError(
                f"checkpoint {key} ({stored}) must equal {source} ({derived})")
    return enc_cfg, cm1_cfg


def _wrap_pad(values: np.ndarray, length: int) -> np.ndarray:
    if values.shape[0] == length:
        return values
    idx = np.arange(length) % values.shape[0]
    return values[idx]


class _BalancedSampler:
    """Class-balanced batches: half bonafide, half spoof, cyclic reshuffle."""

    def __init__(self, labels, rng: np.random.Generator):
        self.rng = rng
        self.pools = {
            LABEL_BONAFIDE: np.flatnonzero(np.asarray(labels) == LABEL_BONAFIDE),
            LABEL_SPOOF: np.flatnonzero(np.asarray(labels) == LABEL_SPOOF),
        }
        self.order = {k: rng.permutation(v) for k, v in self.pools.items()}
        self.pos = {k: 0 for k in self.pools}

    def _take(self, label: int, n: int):
        out = []
        while len(out) < n:
            if self.pos[label] >= len(self.order[label]):
                self.order[label] = self.rng.permutation(self.pools[label])
                self.pos[label] = 0
            out.append(int(self.order[label][self.pos[label]]))
            self.pos[label] += 1
        return out

    def batch(self, batch_size: int):
        n_bona = batch_size - batch_size // 2
        return self._take(LABEL_BONAFIDE, n_bona) + self._take(
            LABEL_SPOOF, batch_size // 2)


def train(cm_id: str, items: list[TrainItem], cfg: RunConfig,
          out_dir: str | None = None, init_ckpt: Checkpoint | None = None):
    """Train one system under run config ``cfg``; return (final checkpoint,
    training log).

    ``cfg.seed`` seeds the initialization and the generator.  Adam touches only the trainable tensors of the selected system; for the
    countermeasures every ``frontend.*`` tensor is frozen and recorded as
    such in the checkpoint.  A checkpoint is saved per epoch plus ``init``
    and ``final`` when ``out_dir`` is given, along with the tab-separated
    ``train.log``.
    """
    enc_cfg, train_cfg = cfg.encoder, cfg.train
    net = system_net(cm_id, enc_cfg, cfg.cm1)
    if not items:
        raise DataError("empty training manifest")
    labels = np.array([it.label for it in items])
    if len(set(labels.tolist())) < 2:
        raise DataError("training manifest must contain both classes")
    kinds = {feature_kind(it.features.n_channels, enc_cfg, it.utt_id) for it in items}
    if len(kinds) > 1:
        raise DataError("training manifest mixes fbank and speaker feature kinds")
    kind = kinds.pop()
    if cm_id == "frontend-toy" and kind != "fbank":
        raise DataError("frontend-toy training needs fbank-kind features")
    if train_cfg.augment and kind != "fbank":
        raise DataError("train.augment masks FBank maps; these maps are speaker-kind")

    ckpt = build_checkpoint(enc_cfg, cfg.cm1, seed=cfg.seed, init_from=init_ckpt)
    params = ckpt.tensors
    trainable = set(tensor_names(net.layers()))
    ckpt.frozen_names = (set() if cm_id == "frontend-toy"
                         else set(tensor_names(net.frontend.layers())))
    cls_name = f"{net.cls.name}.w"

    rng = np.random.default_rng(cfg.seed)
    sampler = _BalancedSampler(labels, rng)
    steps_per_epoch = max(1, int(np.ceil(len(items) / train_cfg.batch_size)))
    total_steps = train_cfg.max_steps or train_cfg.epochs * steps_per_epoch
    opt = Adam(train_cfg)
    log: list[LogEntry] = []

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(ckpt, os.path.join(out_dir, "init"))

    for step in range(1, total_steps + 1):
        idx = sampler.batch(train_cfg.batch_size)
        batch_maps = []
        for i in idx:
            f = items[i].features
            crop_seed = int(rng.integers(2 ** 31))
            f = random_crop(f, train_cfg.crop_min_s, train_cfg.crop_max_s, crop_seed)
            if train_cfg.augment:
                f = spec_augment(f, cfg.augment, int(rng.integers(2 ** 31)))
            batch_maps.append(f.values)
        max_t = max(v.shape[0] for v in batch_maps)
        x = np.stack([_wrap_pad(v, max_t) for v in batch_maps]).astype(np.float32)
        y = labels[idx]

        grads: dict[str, np.ndarray] = {}
        emb, cache = net.embed(params, x, kind)
        loss, demb, dw = aam_softmax_loss(emb, y, params[cls_name], cfg.aam)
        net.backward_embed(params, cache, demb, grads)
        grads[cls_name] = dw

        lr = lr_schedule(step, train_cfg)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {step} (lr={lr:.6g}); aborting")
        opt.step(params, grads, lr, trainable)
        log.append(LogEntry(step=step, lr=float(lr), loss=loss))

        if out_dir and step % steps_per_epoch == 0:
            epoch = step // steps_per_epoch
            save_checkpoint(ckpt, os.path.join(out_dir, f"epoch_{epoch:04d}"))

    if out_dir:
        save_checkpoint(ckpt, os.path.join(out_dir, "final"))
        write_text(os.path.join(out_dir, "train.log"), (e.line() for e in log))
    return ckpt, log
