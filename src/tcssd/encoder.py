"""ECAPA-style speaker-feature frontend with an MFA tap.

The frontend maps an 80-bin FBank to per-frame speaker features: a kernel-5
conv stem (conv + ReLU + per-channel normalization), three squeeze-excitation
Res2 blocks at dilations 2/3/4, channel-wise concatenation of the block
outputs, and a 1x1 conv + ReLU down to the feature width D.  That conv output
is the tap point both countermeasures consume.  Utterance embeddings come
from attentive statistics pooling (weighted mean and std) plus a linear
projection.  A cached map is either an FBank (N_MELS channels) or already at
the tap point (mfa_dim channels); ``feature_kind`` is the one rule that
tells them apart.

Also houses parameter and FLOP accounting over plain layer lists (such as
``net.layers()``), used by the reporting CLI and the closed-form unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .errors import DataError
from .frontend import FRAME_RATE, N_MELS, FeatureMap
from .layers import (AttentiveStatsPool, ChannelNorm, ClassWeights, Conv1d,
                     Linear, SERes2Block, relu)


@dataclass(frozen=True)
class EncoderConfig:
    channels: int = 1024
    dilations: tuple[int, ...] = (2, 3, 4)
    res2_scale: int = 8
    mfa_dim: int = 1536
    embed_dim: int = 192
    att_dim: int = 128

    def __post_init__(self):
        require_sizes(self, "channels", "res2_scale", "mfa_dim", "embed_dim", "att_dim")
        if not self.dilations:
            raise DataError("need at least one block dilation")
        if min(self.dilations) < 1:
            raise DataError(f"dilations must be at least 1, got {min(self.dilations)}")
        if self.channels % self.res2_scale != 0:
            raise DataError("channels must be divisible by res2_scale")
        if self.mfa_dim == N_MELS:
            raise DataError(f"mfa_dim == N_MELS ({N_MELS}) makes feature kinds ambiguous")

    @property
    def se_bottleneck(self) -> int:
        return max(self.channels // 8, 2)


def require_sizes(cfg, *names) -> None:
    """Each named field of config ``cfg`` is a size: refuse any below 1."""
    for name in names:
        if getattr(cfg, name) < 1:
            raise DataError(f"{name} must be at least 1, got {getattr(cfg, name)}")


def feature_kind(n_channels: int, cfg: EncoderConfig, utt_id: str) -> str:
    """"fbank" for an N_MELS-channel map, "speaker" for one already at the
    MFA tap (mfa_dim channels); any other width is a DataError."""
    if n_channels == N_MELS:
        return "fbank"
    if n_channels == cfg.mfa_dim:
        return "speaker"
    raise DataError(
        f"{utt_id}: {n_channels} channels match neither n_mels "
        f"({N_MELS}) nor mfa_dim ({cfg.mfa_dim})")


def encoder_head(cfg: EncoderConfig, namespace: str):
    """The layers above the MFA concat: 1x1 MFA conv, attentive pooling,
    projection and 2-class rows, under ``namespace``.  The frontend owns
    one set; CM2 owns a retrained copy."""
    return (Conv1d(f"{namespace}.mfa.conv", len(cfg.dilations) * cfg.channels,
                   cfg.mfa_dim, kernel=1),
            AttentiveStatsPool(f"{namespace}.pool", cfg.mfa_dim, cfg.att_dim),
            Linear(f"{namespace}.proj", 2 * cfg.mfa_dim, cfg.embed_dim),
            ClassWeights(f"{namespace}.cls", 2, cfg.embed_dim))


class FrontendNet:
    """Layer graph of the frontend; parameters live under ``frontend.*``.

    The class rows serve only the toy frontend's own training.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        c = cfg.channels
        self.stem_conv = Conv1d("frontend.stem.conv", N_MELS, c, kernel=5)
        self.stem_norm = ChannelNorm("frontend.stem.norm", c)
        self.blocks = [
            SERes2Block(f"frontend.block{i + 1}", c, kernel=3, dilation=d,
                        scale=cfg.res2_scale, se_bottleneck=cfg.se_bottleneck)
            for i, d in enumerate(cfg.dilations)
        ]
        self.mfa_conv, self.pool, self.proj, self.cls = encoder_head(cfg, "frontend")

    def concat_layers(self):
        return [self.stem_conv, self.stem_norm] + self.blocks

    def layers(self):
        return self.concat_layers() + [self.mfa_conv, self.pool, self.proj, self.cls]

    def forward_concat(self, params, x):
        """Stem + blocks + channel concat: (B, T, N_MELS) -> (B, T, 3C)."""
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

    def forward_features(self, params, x):
        """Full frontend to the MFA tap: (B, T, N_MELS) -> (B, T, D)."""
        cat, cat_cache = self.forward_concat(params, x)
        pre, c_mfa = self.mfa_conv.forward(params, cat)
        return relu(pre), (cat_cache, pre, c_mfa)

    def backward_features(self, params, cache, dfeats, grads):
        cat_cache, pre, c_mfa = cache
        dcat = self.mfa_conv.backward(params, c_mfa, dfeats * (pre > 0), grads)
        return self.backward_concat(params, cat_cache, dcat, grads)

    def embed(self, params, x, kind):
        """Equal-length maps x (B, T, M) of ``kind`` -> (embeddings (B, E),
        cache): FBank maps run to the MFA tap first, then attentive
        pooling and the projection."""
        fcache = None
        if kind == "fbank":
            x, fcache = self.forward_features(params, x)
        stats, c_pool = self.pool.forward(params, x)
        emb, c_proj = self.proj.forward(params, stats)
        return emb, (fcache, c_pool, c_proj)

    def backward_embed(self, params, cache, demb, grads):
        fcache, c_pool, c_proj = cache
        dstats = self.proj.backward(params, c_proj, demb, grads)
        dfeats = self.pool.backward(params, c_pool, dstats, grads)
        if fcache is not None:
            self.backward_features(params, fcache, dfeats, grads)


def encode_features(f: FeatureMap, cfg: EncoderConfig, ckpt: Checkpoint) -> np.ndarray:
    """Run the frozen frontend on one FBank map: its (T, mfa_dim) features
    at the MFA tap."""
    if f.n_channels != N_MELS:
        raise DataError(
            f"feature map has {f.n_channels} channels, encoder expects {N_MELS}")
    feats, _ = FrontendNet(cfg).forward_features(ckpt.tensors,
                                                 f.values[None].astype(np.float32))
    return feats[0]


# ---------------------------------------------------------------------------
# Parameter and FLOP accounting over layer lists.
# ---------------------------------------------------------------------------

def count_parameters(layers) -> int:
    """Exact scalar count over the tensors of the layers."""
    return sum(int(np.prod(shape, dtype=np.int64))
               for layer in layers for _, shape in layer.param_specs())


def estimate_flops(layers, input_duration: float,
                   frames_per_second: float = FRAME_RATE) -> int:
    """Multiply-accumulate FLOP estimate (2 * MACs) for the given duration.

    Sums conv/linear/recurrent layers; element-wise work is ignored.
    """
    n_frames = int(round(input_duration * frames_per_second))
    if n_frames <= 0:
        return 0
    return sum(layer.flops(n_frames) for layer in layers)


def describe_frontend(cfg: EncoderConfig) -> list:
    """The speaker encoder's layers, without the class rows of toy-frontend
    training."""
    net = FrontendNet(cfg)
    return [layer for layer in net.layers() if layer is not net.cls]
