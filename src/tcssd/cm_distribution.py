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
from .encoder import EncoderConfig, FrontendNet, encoder_head, feature_kind
from .layers import relu


class Cm2Net:
    """Retrained encoder head of CM2; parameters live under ``cm2.*``.

    In the audio lane the frozen frontend's concat passes through CM2's own
    MFA conv to the tap point; maps that are already at the tap point (e.g.
    simulated trajectories) enter directly at the pooling stage.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.frontend = FrontendNet(cfg)
        self.mfa_conv, self.pool, self.proj, self.cls = encoder_head(cfg, "cm2")

    def layers(self):
        return [self.mfa_conv, self.pool, self.proj, self.cls]

    def forward_tail(self, params, feats):
        """feats: (B, T, D) at the tap point -> (embeddings, cache)."""
        stats, c_pool = self.pool.forward(params, feats)
        emb, c_proj = self.proj.forward(params, stats)
        return emb, (c_pool, c_proj)

    def backward_tail(self, params, cache, demb, grads):
        c_pool, c_proj = cache
        dstats = self.proj.backward(params, c_proj, demb, grads)
        return self.pool.backward(params, c_pool, dstats, grads)

    def embed(self, params, x, kind):
        """Equal-length maps x (B, T, M) of ``kind`` -> (embeddings (B, E),
        cache); FBank maps pass the frozen concat and CM2's MFA conv."""
        mfa_cache = None
        if kind == "fbank":
            cat, _ = self.frontend.forward_concat(params, x)
            pre, c_mfa = self.mfa_conv.forward(params, cat)
            x, mfa_cache = relu(pre), (pre, c_mfa)
        emb, tail_cache = self.forward_tail(params, x)
        return emb, (mfa_cache, tail_cache)

    def backward_embed(self, params, cache, demb, grads):
        """Gradients of CM2's own tensors; the frozen concat needs none."""
        mfa_cache, tail_cache = cache
        dfeats = self.backward_tail(params, tail_cache, demb, grads)
        if mfa_cache is not None:
            pre, c_mfa = mfa_cache
            self.mfa_conv.backward(params, c_mfa, dfeats * (pre > 0), grads)


def cm2_score(f, cfg: EncoderConfig, ckpt: Checkpoint) -> float:
    """Spoof/bonafide score of one FBank (or tap-point) map from the
    embedding's class cosines."""
    kind = feature_kind(f.values.shape[1], cfg, "feature map")
    emb, _ = Cm2Net(cfg).embed(ckpt.tensors, f.values[None, :, :].astype(np.float32), kind)
    return float(score_embeddings(emb, ckpt.tensors["cm2.cls.w"])[0])


def cm2_score_features(values: np.ndarray, params: dict, cfg: EncoderConfig) -> float:
    """Score of one (T, D) map already at the tap point."""
    emb, _ = Cm2Net(cfg).embed(params, values[None, :, :], "speaker")
    return float(score_embeddings(emb, params["cm2.cls.w"])[0])
