"""Distribution countermeasure (CM2).

Reuses the speaker encoder itself for spoof detection: everything below the
MFA concat stays frozen, while the 1x1 MFA conv, the attentive-statistics
pooling, the projection and the class weights are retrained for the 2-class
task.  Scores follow the same cosine convention as CM1.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpoint
from .cm_temporal import score_from_embedding
from .encoder import EncoderConfig, FrontendNet, SpeakerFeatureMap
from .errors import DataError
from .layers import AttentiveStatsPool, Linear


class Cm2Net:
    """Trainable tail of CM2; parameters live under ``cm2.*``.

    The tail consumes per-frame speaker features (the MFA tap output).  In
    the audio lane those come from the frozen frontend through CM2's own
    MFA conv; maps that are already at the tap point (e.g. simulated
    trajectories) enter directly at the pooling stage.
    """

    def __init__(self, cfg: EncoderConfig, prefix: str = "cm2"):
        self.cfg = cfg
        self.prefix = prefix
        self.pool = AttentiveStatsPool(f"{prefix}.pool", cfg.mfa_dim, cfg.att_dim)
        self.proj = Linear(f"{prefix}.proj", 2 * cfg.mfa_dim, cfg.embed_dim)

    def mfa_layers(self):
        from .layers import Conv1d
        return [Conv1d(f"{self.prefix}.mfa.conv",
                       self.cfg.n_blocks * self.cfg.channels,
                       self.cfg.mfa_dim, kernel=1)]

    def tail_layers(self):
        return [self.pool, self.proj]

    def tensor_names(self, with_mfa: bool = True):
        layers = (self.mfa_layers() if with_mfa else []) + self.tail_layers()
        names = [n for layer in layers for n, _ in layer.param_specs()]
        return names + [f"{self.prefix}.cls.w"]

    def forward_tail(self, params, feats):
        """feats: (B, T, D) at the tap point -> (embeddings, cache)."""
        stats, c_pool = self.pool.forward(params, feats)
        emb, c_proj = self.proj.forward(params, stats)
        return emb, (c_pool, c_proj)

    def backward_tail(self, params, cache, demb, grads):
        c_pool, c_proj = cache
        dstats = self.proj.backward(params, c_proj, demb, grads)
        return self.pool.backward(params, c_pool, dstats, grads)


def cm2_embed_tap(x: np.ndarray, params: dict, cfg: EncoderConfig) -> np.ndarray:
    """Embeddings (B, E) of equal-length maps x (B, T, D) already at the tap
    point, through CM2's pooling tail."""
    if x.shape[1] < 1:
        raise DataError("embedding needs a T x D matrix with T >= 1")
    emb, _ = Cm2Net(cfg).forward_tail(params, x)
    return emb


def cm2_embed_fbank(x: np.ndarray, cfg: EncoderConfig, ckpt: Checkpoint) -> np.ndarray:
    """Full audio lane on equal-length FBank maps x (B, T, n_mels): frozen
    frontend concat -> CM2 MFA conv -> tail -> embeddings (B, E)."""
    if x.shape[2] != cfg.n_mels:
        raise DataError(
            f"feature map has {x.shape[2]} channels, encoder expects {cfg.n_mels}")
    frontend = FrontendNet(cfg)
    net = Cm2Net(cfg)
    ckpt.require(frontend.tensor_names(frontend.concat_layers()))
    ckpt.require(net.tensor_names(with_mfa=True))
    feats, _ = frontend.forward_features(ckpt.tensors, x.astype(np.float32),
                                         mfa_prefix="cm2")
    emb, _ = net.forward_tail(ckpt.tensors, feats)
    return emb


def cm2_embed_features(s: SpeakerFeatureMap | np.ndarray, params: dict,
                       cfg: EncoderConfig) -> np.ndarray:
    """Embed one map already at the tap point through CM2's pooling tail."""
    values = s.values if isinstance(s, SpeakerFeatureMap) else s
    if values.ndim != 2:
        raise DataError("embedding needs a T x D matrix with T >= 1")
    return cm2_embed_tap(values[None, :, :], params, cfg)[0]


def cm2_embed(f, cfg: EncoderConfig, ckpt: Checkpoint) -> np.ndarray:
    """Full audio lane for one FBank map."""
    return cm2_embed_fbank(f.values[None, :, :], cfg, ckpt)[0]


def cm2_score(f, cfg: EncoderConfig, ckpt: Checkpoint) -> float:
    """Spoof/bonafide score from the embedding's class cosines."""
    return score_from_embedding(cm2_embed(f, cfg, ckpt), ckpt.tensors["cm2.cls.w"])


def cm2_score_features(s: SpeakerFeatureMap | np.ndarray, params: dict,
                       cfg: EncoderConfig) -> float:
    return score_from_embedding(cm2_embed_features(s, params, cfg), params["cm2.cls.w"])
