"""ECAPA-style speaker-feature frontend with an MFA tap.

The frontend maps an 80-bin FBank to per-frame speaker features: a kernel-5
conv stem (conv + ReLU + per-channel normalization), three squeeze-excitation
Res2 blocks at dilations 2/3/4, channel-wise concatenation of the block
outputs, and a 1x1 conv + ReLU down to the feature width D.  That conv output
is the tap point both countermeasures consume.  Utterance embeddings come
from attentive statistics pooling (weighted mean and std) plus a linear
projection.

Also houses parameter and FLOP accounting over model descriptions (lists of
layer objects), used by the reporting CLI and the closed-form unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint
from .errors import DataError
from .frontend import FRAME_RATE, FeatureMap
from .layers import (AttentiveStatsPool, ChannelNorm, Conv1d, Gru, Linear,
                     SERes2Block, init_layers, relu)


@dataclass(frozen=True)
class EncoderConfig:
    n_mels: int = 80
    channels: int = 1024
    n_blocks: int = 3
    dilations: tuple[int, ...] = (2, 3, 4)
    res2_scale: int = 8
    mfa_dim: int = 1536
    embed_dim: int = 192
    att_dim: int = 128

    def __post_init__(self):
        if self.mfa_dim <= 0:
            raise DataError("mfa_dim must be positive")
        if len(self.dilations) != self.n_blocks:
            raise DataError("need one dilation per block")
        if self.channels % self.res2_scale != 0:
            raise DataError("channels must be divisible by res2_scale")

    @property
    def se_bottleneck(self) -> int:
        return max(self.channels // 8, 2)


def toy_encoder_config() -> EncoderConfig:
    """Desk-scale configuration used by the simulator pipeline and tests."""
    return EncoderConfig(channels=16, mfa_dim=24, embed_dim=32, att_dim=8)


@dataclass
class SpeakerFeatureMap:
    """Per-frame speaker features (T x D) tapped at the encoder's MFA point."""

    values: np.ndarray
    source_utt: str = ""

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class FrontendNet:
    """Layer graph of the frontend; parameters live under ``frontend.*``."""

    def __init__(self, cfg: EncoderConfig, prefix: str = "frontend"):
        self.cfg = cfg
        self.prefix = prefix
        c = cfg.channels
        self.stem_conv = Conv1d(f"{prefix}.stem.conv", cfg.n_mels, c, kernel=5)
        self.stem_norm = ChannelNorm(f"{prefix}.stem.norm", c)
        self.blocks = [
            SERes2Block(f"{prefix}.block{i + 1}", c, kernel=3, dilation=d,
                        scale=cfg.res2_scale, se_bottleneck=cfg.se_bottleneck)
            for i, d in enumerate(cfg.dilations)
        ]
        self.mfa_conv = Conv1d(f"{prefix}.mfa.conv", cfg.n_blocks * c, cfg.mfa_dim, kernel=1)
        self.pool = AttentiveStatsPool(f"{prefix}.pool", cfg.mfa_dim, cfg.att_dim)
        self.proj = Linear(f"{prefix}.proj", 2 * cfg.mfa_dim, cfg.embed_dim)

    def concat_layers(self):
        return [self.stem_conv, self.stem_norm] + self.blocks

    def all_layers(self):
        return self.concat_layers() + [self.mfa_conv, self.pool, self.proj]

    def tensor_names(self, layers=None):
        layers = self.all_layers() if layers is None else layers
        return [name for layer in layers for name, _ in layer.param_specs()]

    def init(self, rng, params=None, dtype=np.float32):
        return init_layers(self.all_layers(), rng, params, dtype)

    def forward_concat(self, params, x):
        """Stem + blocks + channel concat: (B, T, n_mels) -> (B, T, 3C)."""
        h, c_stem = self.stem_conv.forward(params, x)
        r = relu(h)
        n, c_norm = self.stem_norm.forward(params, r)
        block_outs = []
        block_caches = []
        inp = n
        for block in self.blocks:
            inp, bc = block.forward(params, inp)
            block_outs.append(inp)
            block_caches.append(bc)
        cat = np.concatenate(block_outs, axis=2)
        return cat, (h, c_stem, c_norm, block_caches)

    def backward_concat(self, params, cache, dcat, grads):
        h, c_stem, c_norm, block_caches = cache
        c = self.cfg.channels
        dblocks = [dcat[:, :, i * c:(i + 1) * c] for i in range(len(self.blocks))]
        dinp = np.zeros_like(dblocks[0])
        for i in reversed(range(len(self.blocks))):
            dinp = self.blocks[i].backward(params, block_caches[i], dblocks[i] + dinp, grads)
        dr = self.stem_norm.backward(params, c_norm, dinp, grads)
        dh = dr * (h > 0)
        return self.stem_conv.backward(params, c_stem, dh, grads)

    def forward_features(self, params, x, mfa_prefix=None):
        """Full frontend to the MFA tap: (B, T, n_mels) -> (B, T, D).

        ``mfa_prefix`` substitutes another parameter namespace for the 1x1
        MFA conv (the distribution countermeasure retrains its own copy).
        """
        cat, cat_cache = self.forward_concat(params, x)
        conv = self.mfa_conv if mfa_prefix is None else Conv1d(
            f"{mfa_prefix}.mfa.conv", self.cfg.n_blocks * self.cfg.channels,
            self.cfg.mfa_dim, kernel=1)
        pre, c_mfa = conv.forward(params, cat)
        feats = relu(pre)
        return feats, (cat_cache, conv, pre, c_mfa)

    def backward_features(self, params, cache, dfeats, grads,
                          through_frontend: bool = True):
        """Backward of ``forward_features``; optionally stop at the MFA conv
        (the layers below it are frozen for both countermeasures)."""
        cat_cache, conv, pre, c_mfa = cache
        dpre = dfeats * (pre > 0)
        dcat = conv.backward(params, c_mfa, dpre, grads)
        if not through_frontend:
            return None
        return self.backward_concat(params, cat_cache, dcat, grads)


def tap_features(x: np.ndarray, cfg: EncoderConfig, ckpt: Checkpoint) -> np.ndarray:
    """Run the frozen frontend on equal-length FBank maps x (B, T, n_mels),
    tapping the MFA output -> (B, T, D)."""
    if x.shape[2] != cfg.n_mels:
        raise DataError(
            f"feature map has {x.shape[2]} channels, encoder expects {cfg.n_mels}")
    net = FrontendNet(cfg)
    ckpt.require(net.tensor_names(net.concat_layers() + [net.mfa_conv]))
    feats, _ = net.forward_features(ckpt.tensors, x.astype(np.float32))
    return feats


def encode_features(f: FeatureMap, cfg: EncoderConfig, ckpt: Checkpoint,
                    source_utt: str = "") -> SpeakerFeatureMap:
    """Run the frozen frontend on one FBank map, tapping the MFA output."""
    feats = tap_features(f.values[None, :, :], cfg, ckpt)
    return SpeakerFeatureMap(values=feats[0], source_utt=source_utt)


def attentive_stats(values: np.ndarray, params: dict, prefix: str = "frontend"):
    """(mu, sigma, alpha) of attentive statistics pooling over one utterance."""
    pool = AttentiveStatsPool(f"{prefix}.pool", values.shape[1],
                              params[f"{prefix}.pool.att.fc1.w"].shape[0])
    mu, sigma, alpha = pool.attention_weights(params, values[None, :, :])
    return mu[0], sigma[0], alpha[0]


def pool_embedding(s: SpeakerFeatureMap | np.ndarray, params: dict,
                   prefix: str = "frontend") -> np.ndarray:
    """Attentive mean/std pooling + linear projection -> embedding vector."""
    values = s.values if isinstance(s, SpeakerFeatureMap) else s
    if values.ndim != 2 or values.shape[0] < 1:
        raise DataError("pooling needs a T x D matrix with T >= 1")
    att_dim = params[f"{prefix}.pool.att.fc1.w"].shape[0]
    pool = AttentiveStatsPool(f"{prefix}.pool", values.shape[1], att_dim)
    proj = Linear(f"{prefix}.proj", 2 * values.shape[1],
                  params[f"{prefix}.proj.w"].shape[0])
    stats, _ = pool.forward(params, values[None, :, :])
    emb, _ = proj.forward(params, stats)
    return emb[0]


# ---------------------------------------------------------------------------
# Parameter and FLOP accounting over model descriptions.
# ---------------------------------------------------------------------------

@dataclass
class ModelDescription:
    """Named list of layers with an optional set of frozen layer names."""

    name: str
    layers: list = field(default_factory=list)
    frozen_layer_prefixes: tuple[str, ...] = ()

    def _trainable(self, layer) -> bool:
        return not any(layer.name.startswith(p) for p in self.frozen_layer_prefixes)

    def tensor_shapes(self, trainable_only: bool = True):
        out = []
        for layer in self.layers:
            if trainable_only and not self._trainable(layer):
                continue
            out.extend(layer.param_specs())
        return out


def count_parameters(desc: ModelDescription) -> int:
    """Exact trainable scalar count; frozen tensors are excluded."""
    total = 0
    for _, shape in desc.tensor_shapes(trainable_only=True):
        total += int(np.prod(shape, dtype=np.int64)) if shape else 1
    return total


def estimate_flops(desc: ModelDescription, input_duration: float,
                   frames_per_second: float = FRAME_RATE) -> int:
    """Multiply-accumulate FLOP estimate (2 * MACs) for the given duration.

    Sums conv/linear/recurrent layers; element-wise work is ignored.
    """
    n_frames = int(round(input_duration * frames_per_second))
    return sum(layer.flops(n_frames) for layer in desc.layers)


def describe_frontend(cfg: EncoderConfig) -> ModelDescription:
    net = FrontendNet(cfg)
    return ModelDescription(name="frontend", layers=net.all_layers())


def describe_cm1(cfg: EncoderConfig, hidden: int = 1536, fc1_out: int = 512,
                 fc2_out: int = 192, n_layers: int = 2) -> ModelDescription:
    """Trainable layers of the temporal-consistency countermeasure."""
    layers = [
        Gru("cm1.gru", cfg.mfa_dim, hidden, n_layers=n_layers),
        Linear("cm1.fc1", hidden, fc1_out),
        Linear("cm1.fc2", fc1_out, fc2_out),
        ClassWeights("cm1.cls", 2, fc2_out),
    ]
    return ModelDescription(name="cm1", layers=layers)


def describe_cm2(cfg: EncoderConfig) -> ModelDescription:
    """Trainable layers of the distribution countermeasure (post-MFA)."""
    layers = [
        Conv1d("cm2.mfa.conv", cfg.n_blocks * cfg.channels, cfg.mfa_dim, kernel=1),
        AttentiveStatsPool("cm2.pool", cfg.mfa_dim, cfg.att_dim),
        Linear("cm2.proj", 2 * cfg.mfa_dim, cfg.embed_dim),
        ClassWeights("cm2.cls", 2, cfg.embed_dim),
    ]
    return ModelDescription(name="cm2", layers=layers)


class ClassWeights:
    """Unit-norm class rows for margin-softmax scoring (n_classes x dim)."""

    def __init__(self, name: str, n_classes: int, dim: int):
        self.name = name
        self.n_classes = n_classes
        self.dim = dim

    def param_specs(self):
        return [(f"{self.name}.w", (self.n_classes, self.dim))]

    def init(self, params, rng, dtype=np.float32):
        from .layers import glorot_uniform
        w = glorot_uniform(rng, (self.n_classes, self.dim), self.dim,
                           self.n_classes, dtype)
        if self.n_classes == 2:
            # Antipodal start: random 2-row init can collapse the margin
            # loss's rotational degeneracy into nearly parallel rows.
            w[1] = -w[0]
        params[f"{self.name}.w"] = w

    def flops(self, n_frames: int) -> int:
        if n_frames <= 0:
            return 0
        return 2 * self.n_classes * self.dim
