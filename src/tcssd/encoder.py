"""ECAPA-style speaker-feature frontend with an MFA tap.

The frontend maps an 80-bin FBank to per-frame speaker features: a kernel-5
conv stem (conv + ReLU + per-channel normalization), three squeeze-excitation
Res2 blocks at dilations 2/3/4, channel-wise concatenation of the block
outputs, and a 1x1 conv + ReLU down to the feature width D.  That conv output
is the tap point both countermeasures consume.  Utterance embeddings come
from attentive statistics pooling (weighted mean and std) plus a linear
projection.  A cached map is either an FBank (N_MELS channels) or already at
the tap point (mfa_dim channels); ``feature_kind`` tells them apart.  CM2
training also holds concat maps (``concat_width`` channels), each
utterance's frozen concat computed once.  ``FrontendNet.tap`` is the one
path from any of the three to tap-point features.

Also houses parameter and FLOP accounting over plain layer lists (such as
``net.layers()``), used by the reporting CLI and the closed-form unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .errors import DataError, refuse_unless
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
        refuse_unless("encoder", self,
                      *((k, getattr(self, k) >= 1, "at least 1")
                        for k in ("channels", "res2_scale", "mfa_dim", "embed_dim", "att_dim")),
                      ("dilations", min(self.dilations, default=0) >= 1,
                       "one or more values of at least 1"))
        refuse_unless("encoder", self, ("res2_scale", self.channels % self.res2_scale == 0,
                                        f"a divisor of encoder.channels = {self.channels}"))
        widths = {"N_MELS": N_MELS, "mfa_dim": self.mfa_dim,
                  "len(dilations) * channels": self.concat_width}
        if len(set(widths.values())) < len(widths):
            raise DataError("a map's width picks its lane, so these must differ: "
                            + ", ".join(f"{k} = {v}" for k, v in widths.items()))

    @property
    def se_bottleneck(self) -> int:
        return max(self.channels // 8, 2)

    @property
    def concat_width(self) -> int:
        """Channels of the MFA concat: one block output per dilation."""
        return len(self.dilations) * self.channels


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


class FrontendNet:
    """Layer graph of the speaker encoder.  The stem and blocks live under
    ``frontend.*``; the head above the MFA concat (1x1 MFA conv, attentive
    pooling, projection and 2-class rows) lives under ``head``.

    Unless ``trained`` (the toy frontend's own training, which the class
    rows serve), the concat (stem + blocks) is frozen and runs forward-only.
    """

    def __init__(self, cfg: EncoderConfig, head: str = "frontend", trained: bool = False):
        self.cfg = cfg
        self.trained = trained
        c = cfg.channels
        self.stem_conv = Conv1d("frontend.stem.conv", N_MELS, c, kernel=5)
        self.stem_norm = ChannelNorm("frontend.stem.norm", c)
        self.blocks = [
            SERes2Block(f"frontend.block{i + 1}", c, kernel=3, dilation=d,
                        scale=cfg.res2_scale, se_bottleneck=cfg.se_bottleneck)
            for i, d in enumerate(cfg.dilations)
        ]
        self.mfa_conv = Conv1d(f"{head}.mfa.conv", cfg.concat_width, cfg.mfa_dim,
                               kernel=1)
        self.pool = AttentiveStatsPool(f"{head}.pool", cfg.mfa_dim, cfg.att_dim)
        self.proj = Linear(f"{head}.proj", 2 * cfg.mfa_dim, cfg.embed_dim)
        self.cls = ClassWeights(f"{head}.cls", 2, cfg.embed_dim)

    def concat_layers(self):
        return [self.stem_conv, self.stem_norm] + self.blocks

    def layers(self):
        return self.concat_layers() + [self.mfa_conv, self.pool, self.proj, self.cls]

    def forward_concat(self, params, x):
        """Stem + blocks + channel concat: (B, T, N_MELS) -> (B, T, 3C), and
        ``backward_concat``'s cache, or None when frozen: each stage's cache
        is then dropped once the next stage has run."""
        h, c_stem = self.stem_conv.forward(params, x)
        inp, c_norm = self.stem_norm.forward(params, relu(h))
        caches = [(h, c_stem, c_norm)] if self.trained else None
        del h, c_stem, c_norm
        outs = []
        for block in self.blocks:
            inp, cache = block.forward(params, inp)
            outs.append(inp)
            if self.trained:
                caches.append(cache)
        return np.concatenate(outs, axis=2), caches

    def backward_concat(self, params, caches, dcat, grads):
        (h, c_stem, c_norm), *block_caches = caches
        dinp = 0.0
        for block, cache, dblock in zip(self.blocks[::-1], block_caches[::-1],
                                        np.split(dcat, len(self.blocks), axis=2)[::-1]):
            dinp = block.backward(params, cache, dblock + dinp, grads)
        dr = self.stem_norm.backward(params, c_norm, dinp, grads)
        dh = dr * (h > 0)
        return self.stem_conv.backward(params, c_stem, dh, grads)

    def forward_features(self, params, x):
        """Full frontend to the MFA tap: (B, T, N_MELS) -> (B, T, D)."""
        return self.forward_mfa(params, *self.forward_concat(params, x))

    def forward_mfa(self, params, cat, cat_cache=None):
        """MFA conv + in-place ReLU: concat maps (B, T, 3C) -> (B, T, D)."""
        feats, c_mfa = self.mfa_conv.forward(params, cat)
        return np.maximum(feats, 0, out=feats), (cat_cache, feats, c_mfa)

    def backward_features(self, params, cache, dfeats, grads):
        """MFA conv gradients, and the concat's when it is trained; a frozen
        concat's input gradient is never formed.  ``feats > 0`` equals the
        conv output's ``> 0`` for every float, NaN and -0 included."""
        cat_cache, feats, c_mfa = cache
        dcat = self.mfa_conv.backward(params, c_mfa, dfeats * (feats > 0), grads,
                                      input_grad=self.trained)
        if self.trained:
            self.backward_concat(params, cat_cache, dcat, grads)

    def forward_tail(self, params, feats):
        """Tap-point maps (B, T, D) -> (embeddings (B, E), cache): attentive
        pooling, then the projection."""
        stats, c_pool = self.pool.forward(params, feats)
        emb, c_proj = self.proj.forward(params, stats)
        return emb, (c_pool, c_proj)

    def backward_tail(self, params, cache, demb, grads):
        c_pool, c_proj = cache
        dstats = self.proj.backward(params, c_proj, demb, grads)
        return self.pool.backward(params, c_pool, dstats, grads)

    def tap(self, params, x):
        """Equal-length maps x (B, T, M) -> (tap-point maps, cache), by the
        width M: concat maps run through ``forward_mfa``, FBank maps through
        ``forward_features``, and tap-point maps come back with cache None."""
        if x.shape[2] == self.cfg.concat_width:
            return self.forward_mfa(params, x)
        if feature_kind(x.shape[2], self.cfg, "feature map") == "fbank":
            return self.forward_features(params, x)
        return x, None

    def embed(self, params, x):
        """Equal-length maps x (B, T, M) -> (embeddings (B, E), cache): the
        maps are taken to the tap point, then through the tail."""
        x, fcache = self.tap(params, x)
        emb, tail_cache = self.forward_tail(params, x)
        return emb, (fcache, tail_cache)

    def backward_embed(self, params, cache, demb, grads):
        fcache, tail_cache = cache
        dfeats = self.backward_tail(params, tail_cache, demb, grads)
        if fcache is not None:
            self.backward_features(params, fcache, dfeats, grads)


def encode_features(f: FeatureMap, cfg: EncoderConfig, ckpt: Checkpoint) -> np.ndarray:
    """Run the frozen frontend on one FBank map: its (T, mfa_dim) features
    at the MFA tap."""
    if f.values.shape[1] != N_MELS:
        raise DataError(
            f"feature map has {f.values.shape[1]} channels, encoder expects {N_MELS}")
    feats, _ = FrontendNet(cfg).tap(ckpt.tensors, f.values[None].astype(np.float32))
    return feats[0]


# ---------------------------------------------------------------------------
# Parameter and FLOP accounting over layer lists.
# ---------------------------------------------------------------------------

def count_parameters(layers) -> int:
    """Exact scalar count over the tensors of the layers."""
    return sum(math.prod(shape)
               for layer in layers for _, shape in layer.param_specs())


def estimate_flops(layers, input_duration: float) -> int:
    """Multiply-accumulate FLOP estimate (2 * MACs) for the given duration
    at FRAME_RATE frames per second.

    Sums conv/linear/recurrent layers; element-wise work is ignored.  A
    duration that is negative or not finite is a DataError.
    """
    if not 0 <= input_duration < np.inf:
        raise DataError(f"duration must be finite and non-negative, got {input_duration}")
    n_frames = int(round(input_duration * FRAME_RATE))
    if n_frames <= 0:
        return 0
    return sum(layer.flops(n_frames) for layer in layers)


def describe_frontend(cfg: EncoderConfig) -> list:
    """The speaker encoder's layers, without the class rows of toy-frontend
    training."""
    net = FrontendNet(cfg)
    return [layer for layer in net.layers() if layer is not net.cls]
