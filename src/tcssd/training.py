"""Margin-softmax loss, optimizer, learning-rate schedule and training loop.

Both countermeasures (and the toy frontend) are optimized with additive
angular margin softmax over 2 classes, Adam, and a linear-warmup /
inverse-square-root learning-rate schedule.  Training is fully
deterministic given the seed: batch composition, crops and augmentation
masks all derive from one seeded generator consumed in a fixed order.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .cm_distribution import Cm2Net
from .cm_temporal import Cm1Config, Cm1Net
from .encoder import EncoderConfig, FrontendNet, feature_kind
from .errors import DataError, TrainingError, refuse_unless
from .files import make_dir, write_text
from .frontend import FRAME_RATE, FeatureMap, random_crop, spec_augment
from .layers import init_layers, tensor_names

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .config import RunConfig

LABEL_BONAFIDE = 0
LABEL_SPOOF = 1

CM_IDS = ("cm1", "cm2", "frontend-toy")


@dataclass(frozen=True)
class AamConfig:
    margin: float = 0.4
    scale: float = 30.0

    def __post_init__(self):
        refuse_unless("aam", self, ("margin", 0.0 <= self.margin < np.pi / 2, "in [0, pi/2)"),
                      ("scale", 0 < self.scale < np.inf, "finite and positive"))


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
        refuse_unless(
            "train", self,
            ("epochs", self.epochs >= 1, "at least 1"),
            ("warmup_steps", self.warmup_steps >= 1, "at least 1"),
            ("batch_size", self.batch_size >= 2, "at least 2"),  # a batch is half spoof
            ("base_lr", 0 < self.base_lr < np.inf, "finite and positive"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("eps", 0 < self.eps < np.inf, "finite and positive"),
            ("weight_decay", 0 <= self.weight_decay < np.inf, "finite and not negative"),
            ("max_steps", self.max_steps >= 0, "at least 0"),
            ("crop_min_s", 0 < self.crop_min_s <= self.crop_max_s,
             f"above 0 and at most train.crop_max_s = {self.crop_max_s}"),
            *((k, np.isfinite(s) and 1 <= round(s * FRAME_RATE) < 2 ** 63,  # random_crop frames
               f"finite and give 1 to 2^63 - 1 frames at {FRAME_RATE:g} frames/s")
              for k, s in (("crop_min_s", self.crop_min_s), ("crop_max_s", self.crop_max_s))))


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
    """Adam with bias correction; a step updates exactly the tensors that
    have a gradient, and every step counts toward the bias correction."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        for name, grad in grads.items():
            g = grad.astype(params[name].dtype, copy=False)
            if cfg.weight_decay:
                g = g + cfg.weight_decay * params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            self.m[name] = cfg.beta1 * self.m[name] + (1 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1 - cfg.beta2) * g * g
            mhat = self.m[name] / (1 - cfg.beta1 ** self.t)
            vhat = self.v[name] / (1 - cfg.beta2 ** self.t)
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


def build_checkpoint(cm_id: str, enc_cfg: EncoderConfig, cm1_cfg: Cm1Config, seed: int,
                     init_from: Checkpoint | None = None) -> Checkpoint:
    """The checkpoint a ``cm_id`` run starts from: every ``frontend.*``
    tensor, frozen unless ``cm_id`` is the toy frontend, and the system's
    own.  The frontend is drawn first, then CM1's head for ``cm1``; CM2's
    head starts as a copy of its ``frontend.*`` twins.  ``init_from`` must
    hold this run's encoder config; each of its tensors that the run keeps
    takes precedence once its shape is checked, and the others are neither
    checked nor carried.  The config records the encoder's section and,
    for ``cm1`` only, CM1's."""
    net = system_net(cm_id, enc_cfg, cm1_cfg)
    own = tensor_names(net.layers())
    # the toy frontend's own layers are the frontend's, and CM2's head is copied
    drawn = FrontendNet(enc_cfg).layers() + (net.layers() if cm_id == "cm1" else [])
    params = init_layers(drawn, np.random.default_rng(seed))
    twins = {name: "frontend." + name.removeprefix("cm2.") for name in own if cm_id == "cm2"}
    init = {} if init_from is None else init_from.tensors
    if init_from is not None:  # tensor shapes alone miss a change of dilations
        init_enc, run_enc = config_dict(checkpoint_configs(init_from)[0]), config_dict(enc_cfg)
        differ = [f"encoder.{k} {v} != {run_enc[k]}" for k, v in init_enc.items()
                  if v != run_enc[k]]
        if differ:
            raise DataError("the init checkpoint's encoder config differs from this "
                            f"run's: {', '.join(differ)}")
    for name, tensor in init.items():
        expected = params.get(twins.get(name, name))
        if expected is None:  # a tensor this run does not keep
            continue
        if expected.shape != tensor.shape:
            raise DataError(f"init checkpoint tensor {name} has shape "
                            f"{tensor.shape}, expected {expected.shape}")
        params[name] = tensor.copy()
    for name, twin in twins.items():  # after init, so a copy starts at an init frontend
        if name not in init:
            params[name] = params[twin].copy()
    config = {"encoder": config_dict(enc_cfg)}
    if cm_id == "cm1":
        config["cm1"] = config_dict(cm1_cfg)
    return Checkpoint(tensors=params, frozen_names=set(params).difference(own), config=config)


def system_net(cm_id: str, enc_cfg: EncoderConfig, cm1_cfg: Cm1Config | None):
    """The net of system ``cm_id``.  Only the toy frontend trains its concat;
    CM1 holds a frozen frontend, and CM2 is one with a head of its own."""
    if cm_id == "cm1":
        if cm1_cfg is None:
            raise DataError("no cm1 config: only a cm1 checkpoint records one")
        return Cm1Net(cm1_cfg, enc_cfg)
    if cm_id == "cm2":
        return Cm2Net(enc_cfg)
    if cm_id == "frontend-toy":
        return FrontendNet(enc_cfg, trained=True)
    raise DataError(f"unknown system '{cm_id}', expected one of {CM_IDS}")


def config_dict(cfg) -> dict:
    """A config dataclass as the JSON object a checkpoint stores."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}


def checkpoint_configs(ckpt: Checkpoint) -> tuple[EncoderConfig, Cm1Config | None]:
    """The encoder config a checkpoint was built with, and CM1's, which
    only a cm1 checkpoint records (None for the others).  A stored section
    holds exactly its config's fields: a missing or unknown key is named."""
    try:
        enc = _stored_config("encoder", EncoderConfig, ckpt.config["encoder"])
        cm1 = ckpt.config.get("cm1")
        return enc, None if cm1 is None else _stored_config("cm1", Cm1Config, cm1)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint config incomplete: {exc}") from None


def _stored_config(section: str, cls, stored):
    """Config ``cls`` from the manifest's ``section``, as ``config_dict`` stored it."""
    values, names = dict(stored), {f.name for f in fields(cls)}
    odd = [f"{section}.{key} is {'missing' if key in names else 'unknown'}"
           for key in sorted(names.symmetric_difference(values))]
    if odd:
        raise ValueError(", ".join(odd))
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


# The most bytes of frozen encodings that training holds.  Past it, a drawn
# utterance is encoded again on each draw, to the same bits.
ENCODED_BYTES_MAX = 1 << 30


class _FrozenEncodings:
    """FBank maps through a countermeasure's frozen speaker encoder, by item
    index: each is encoded B=1 on the whole utterance, the first time a
    batch draws it, so utterances never drawn are never encoded.  CM1's
    MFA conv is frozen too, so its maps go on to the tap point; CM2 trains
    its own, so its maps stop at the concat.  An encoding is held while the
    held ones total at most ``ENCODED_BYTES_MAX``, and its FBank map is then
    dropped from the list ``fbanks``; one not held keeps its FBank map."""

    def __init__(self, cm_id: str, enc_cfg: EncoderConfig, params, fbanks):
        frontend = FrontendNet(enc_cfg)
        self.encode = frontend.forward_features if cm_id == "cm1" else frontend.forward_concat
        self.params, self.fbanks = params, fbanks
        self.held: dict[int, FeatureMap] = {}
        self.nbytes = 0

    def __getitem__(self, i: int) -> FeatureMap:
        if i in self.held:
            return self.held[i]
        f = self.fbanks[i]
        m = FeatureMap(self.encode(self.params, f.values[None].astype(np.float32))[0][0],
                       f.frame_hop)
        if self.nbytes + m.values.nbytes <= ENCODED_BYTES_MAX:
            self.held[i] = m
            self.nbytes += m.values.nbytes
            self.fbanks[i] = None  # later draws read the encoding
        return m


def _cycled(pool: np.ndarray, order: np.ndarray, rng: np.random.Generator):
    """The indices of ``order``, then of a fresh permutation of ``pool`` each
    time a pass runs out, drawn only when its first index is needed."""
    while True:
        yield from order.tolist()
        order = rng.permutation(pool)


def train(cm_id: str, items: Iterable[TrainItem], cfg: RunConfig,
          out_dir: str | None = None, init_ckpt: Checkpoint | None = None):
    """Train one system under run config ``cfg``; return (final checkpoint,
    training log).

    ``cfg.seed`` seeds the initialization and the generator.  The run
    starts from ``build_checkpoint(cm_id, ...)``, so its checkpoints hold
    what that holds: the system's own tensors and every ``frontend.*``
    tensor.  Adam steps the tensors that have gradients: the selected
    system's own, since its ``backward_embed`` fills no others.  ``items``
    is read once, keeping its maps: on FBank maps a countermeasure's steps
    crop ``_FrozenEncodings``, which frees each map no caller holds.  With
    ``out_dir``, the checkpoints ``init``, one per epoch and ``final`` and
    the tab-separated ``train.log`` are saved there.
    """
    enc_cfg, train_cfg = cfg.encoder, cfg.train
    net = system_net(cm_id, enc_cfg, cfg.cm1)
    rows = [(it.utt_id, it.label, it.features) for it in items]
    if not rows:
        raise DataError("empty training manifest")
    utt_ids, labels, maps = map(list, zip(*rows))
    del rows  # the maps are kept, not the items
    labels = np.array(labels)
    if len(set(labels.tolist())) < 2:
        raise DataError("training manifest must contain both classes")
    kinds = {feature_kind(f.values.shape[1], enc_cfg, u) for u, f in zip(utt_ids, maps)}
    if len(kinds) > 1:
        raise DataError("training manifest mixes fbank and speaker feature kinds")
    kind = kinds.pop()
    if cm_id == "frontend-toy" and kind != "fbank":
        raise DataError("frontend-toy training needs fbank-kind features")
    if train_cfg.augment and cm_id != "frontend-toy":
        raise DataError("train.augment masks FBank bins, so only frontend-toy takes it; "
                        f"{cm_id} trains on maps without them")
    min_frames = round(train_cfg.crop_min_s * FRAME_RATE)  # random_crop never returns fewer
    max_frames = round(train_cfg.crop_max_s * FRAME_RATE)
    if train_cfg.augment and cfg.augment.max_time_width > min_frames:
        raise DataError(f"augment.max_time_width must be at most the {min_frames} frames "
                        f"of train.crop_min_s, got {cfg.augment.max_time_width}")
    if cm_id == "cm1" and min_frames < 2:
        raise DataError(f"train.crop_min_s must give cm1 at least 2 frames to difference "
                        f"at {FRAME_RATE:g} frames/s, got {train_cfg.crop_min_s}")

    ckpt = build_checkpoint(cm_id, enc_cfg, cfg.cm1, cfg.seed, init_from=init_ckpt)
    params = ckpt.tensors
    cls_name = f"{net.cls.name}.w"
    held = range(len(maps))  # maps kept through the run: a crop may stay a view
    if kind == "fbank" and cm_id != "frontend-toy":  # a frozen concat: encode once
        maps = _FrozenEncodings(cm_id, enc_cfg, params, maps)
        held = maps.held

    rng = np.random.default_rng(cfg.seed)
    pools = [np.flatnonzero(labels == c) for c in (LABEL_BONAFIDE, LABEL_SPOOF)]
    # first passes drawn now, bonafide first: drawn lazily, they would shift every later draw
    bonafide, spoof = [_cycled(p, rng.permutation(p), rng) for p in pools]
    b = train_cfg.batch_size
    steps_per_epoch = max(1, int(np.ceil(len(labels) / b)))
    total_steps = train_cfg.max_steps or train_cfg.epochs * steps_per_epoch
    opt = Adam(train_cfg)
    log: list[LogEntry] = []

    if out_dir:
        make_dir(out_dir)
        save_checkpoint(ckpt, os.path.join(out_dir, "init"))

    for step in range(1, total_steps + 1):
        idx = [*islice(bonafide, b - b // 2), *islice(spoof, b // 2)]
        crops = []
        for i in idx:
            crop_seed = int(rng.integers(2 ** 31))
            f = random_crop(maps[i], min_frames, max_frames, crop_seed)
            if train_cfg.augment:
                f = spec_augment(f, cfg.augment, int(rng.integers(2 ** 31)))
            # a crop of an encoding not held is copied, so the encoding is freed
            crops.append(f.values if i in held else f.values.copy())
            del f
        # One float32 batch array, each crop wrap-padded straight into its
        # row; the crops are not held through forward and backward.
        frames = np.arange(max(v.shape[0] for v in crops))
        x = np.empty((len(crops), len(frames), crops[0].shape[1]), dtype=np.float32)
        for k, v in enumerate(crops):  # by index: a row view left bound would keep x
            np.take(v, frames, axis=0, mode="wrap", out=x[k])
        del crops
        y = labels[idx]

        grads: dict[str, np.ndarray] = {}
        emb, cache = net.embed(params, x)
        del x  # the cache holds what backward reads
        loss, demb, dw = aam_softmax_loss(emb, y, params[cls_name], cfg.aam)
        net.backward_embed(params, cache, demb, grads)
        del cache  # so the next step's forward runs without this one's
        grads[cls_name] = dw

        lr = lr_schedule(step, train_cfg)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {step} (lr={lr:.6g}); aborting")
        opt.step(params, grads, lr)
        log.append(LogEntry(step=step, lr=float(lr), loss=loss))

        if out_dir and step % steps_per_epoch == 0:
            epoch = step // steps_per_epoch
            save_checkpoint(ckpt, os.path.join(out_dir, f"epoch_{epoch:04d}"))

    if out_dir:
        save_checkpoint(ckpt, os.path.join(out_dir, "final"))
        write_text(os.path.join(out_dir, "train.log"), (e.line() for e in log))
    return ckpt, log
