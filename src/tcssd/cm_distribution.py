"""Distribution countermeasure (CM2).

Reuses the speaker encoder itself for spoof detection: everything below the
MFA concat stays frozen, while the 1x1 MFA conv, the attentive-statistics
pooling, the projection and the class weights are retrained for the 2-class
task.  Scores follow the same cosine convention as CM1.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpoint
from .cm_temporal import score_embeddings
from .encoder import (EncoderConfig, FrontendNet, ModelDescription,
                      SpeakerFeatureMap, encoder_head)
from .errors import DataError
from .layers import relu, tensor_names


class Cm2Net:
    """Retrained encoder head of CM2; parameters live under ``cm2.*``.

    In the audio lane the frozen frontend's concat passes through CM2's own
    MFA conv to the tap point; maps that are already at the tap point (e.g.
    simulated trajectories) enter directly at the pooling stage.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.mfa_conv, self.pool, self.proj, self.cls = encoder_head(cfg, "cm2")

    def layers(self):
        return [self.mfa_conv, self.pool, self.proj, self.cls]

    def forward_mfa(self, params, cat):
        """Frozen-frontend concat (B, T, 3C) -> tap-point features (B, T, D)."""
        pre, c_mfa = self.mfa_conv.forward(params, cat)
        return relu(pre), (pre, c_mfa)

    def backward_mfa(self, params, cache, dfeats, grads):
        """Gradients of the MFA conv; the frozen concat below needs none."""
        pre, c_mfa = cache
        self.mfa_conv.backward(params, c_mfa, dfeats * (pre > 0), grads)

    def forward_tail(self, params, feats):
        """feats: (B, T, D) at the tap point -> (embeddings, cache)."""
        stats, c_pool = self.pool.forward(params, feats)
        emb, c_proj = self.proj.forward(params, stats)
        return emb, (c_pool, c_proj)

    def backward_tail(self, params, cache, demb, grads):
        c_pool, c_proj = cache
        dstats = self.proj.backward(params, c_proj, demb, grads)
        return self.pool.backward(params, c_pool, dstats, grads)


def describe_cm2(cfg: EncoderConfig) -> ModelDescription:
    """Trainable layers of the distribution countermeasure (post-concat)."""
    return ModelDescription("cm2", Cm2Net(cfg).layers())


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
    ckpt.require(tensor_names(frontend.concat_layers() + net.layers()))
    cat, _ = frontend.forward_concat(ckpt.tensors, x.astype(np.float32))
    feats, _ = net.forward_mfa(ckpt.tensors, cat)
    emb, _ = net.forward_tail(ckpt.tensors, feats)
    return emb


def cm2_score(f, cfg: EncoderConfig, ckpt: Checkpoint) -> float:
    """Spoof/bonafide score of one FBank map from the embedding's class cosines."""
    emb = cm2_embed_fbank(f.values[None, :, :], cfg, ckpt)
    return float(score_embeddings(emb, ckpt.tensors["cm2.cls.w"])[0])


def cm2_score_features(s: SpeakerFeatureMap | np.ndarray, params: dict,
                       cfg: EncoderConfig) -> float:
    """Score of one map already at the tap point."""
    values = s.values if isinstance(s, SpeakerFeatureMap) else s
    emb = cm2_embed_tap(values[None, :, :], params, cfg)
    return float(score_embeddings(emb, params["cm2.cls.w"])[0])
