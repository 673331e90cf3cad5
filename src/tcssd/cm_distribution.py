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
from .encoder import EncoderConfig, FrontendNet


class Cm2Net(FrontendNet):
    """The speaker encoder with its head under ``cm2.*``: only the head
    (MFA conv, pooling, projection, class rows) is trained.

    In the audio lane FBank maps pass the frozen concat and CM2's own MFA
    conv, and the concat maps that training encodes pass that conv alone;
    maps already at the tap point (e.g. simulated trajectories) enter
    directly at the pooling stage.
    """

    def __init__(self, cfg: EncoderConfig):
        super().__init__(cfg, head="cm2")

    def layers(self):
        return [self.mfa_conv, self.pool, self.proj, self.cls]

    # Bound here, not only inherited: perfbench/tracer.py wraps
    # Cm2Net.__dict__["forward_tail"] and ["backward_tail"] by name.
    forward_tail = FrontendNet.forward_tail
    backward_tail = FrontendNet.backward_tail


def cm2_score(f, cfg: EncoderConfig, ckpt: Checkpoint) -> float:
    """Spoof/bonafide score of one FBank (or tap-point) map from the
    embedding's class cosines."""
    emb, _ = Cm2Net(cfg).embed(ckpt.tensors, f.values[None, :, :].astype(np.float32))
    return float(score_embeddings(emb, ckpt.tensors["cm2.cls.w"])[0])


def cm2_score_features(values: np.ndarray, params: dict, cfg: EncoderConfig) -> float:
    """Score of one (T, D) map already at the tap point."""
    emb, _ = Cm2Net(cfg).embed(params, values[None, :, :])
    return float(score_embeddings(emb, params["cm2.cls.w"])[0])
