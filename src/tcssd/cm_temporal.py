"""Temporal-consistency countermeasure (CM1).

Adjacent-frame differences of the per-frame speaker features feed a
two-layer gated recurrent network; the last hidden state passes through two
fully connected layers into an embedding scored against unit-norm class
weights.  Differencing removes any constant per-channel offset, so speaker
identity and channel effects cancel and only the frame-to-frame dynamics
remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, FrontendNet
from .errors import DataError, refuse_unless
from .layers import ClassWeights, Gru, Linear, relu


@dataclass(frozen=True)
class Cm1Config:
    hidden: int = 1536
    n_layers: int = 2
    fc1_out: int = 512
    fc2_out: int = 192
    # Initialization conventions (not architecture): scale of the first
    # layer's input-to-hidden weights and an additive carry-gate bias.
    input_gain: float = 1.0
    carry_bias: float = 0.0

    def __post_init__(self):
        refuse_unless("cm1", self, *((k, getattr(self, k) >= 1, "at least 1")
                                     for k in ("hidden", "n_layers", "fc1_out", "fc2_out")),
                      *((k, np.isfinite(getattr(self, k)), "finite")
                        for k in ("input_gain", "carry_bias")))


class Cm1Net:
    """CM1 layer graph; parameters live under ``cm1.*``.  The GRU reads the
    MFA tap of ``frontend``, the frozen speaker encoder, which also carries
    FBank maps to that tap."""

    def __init__(self, cfg: Cm1Config, enc_cfg: EncoderConfig):
        self.cfg = cfg
        self.frontend = FrontendNet(enc_cfg)
        self.gru = Gru("cm1.gru", enc_cfg.mfa_dim, cfg.hidden, cfg.n_layers,
                       input_gain=cfg.input_gain, carry_bias=cfg.carry_bias)
        self.fc1 = Linear("cm1.fc1", cfg.hidden, cfg.fc1_out)
        self.fc2 = Linear("cm1.fc2", cfg.fc1_out, cfg.fc2_out)
        self.cls = ClassWeights("cm1.cls", 2, cfg.fc2_out)

    def layers(self):
        return [self.gru, self.fc1, self.fc2, self.cls]

    def embed(self, params, x):
        """Equal-length maps x (B, T, M) -> (embeddings (B, E), cache),
        taken to the tap point by the frozen frontend's ``tap``."""
        x, _ = self.frontend.tap(params, x)
        return self.forward(params, difference_sequence(x))

    def backward_embed(self, params, cache, demb, grads):
        """Gradients of CM1's own tensors; the frozen frontend needs none,
        so the GRU's input gradient is never formed."""
        self.backward(params, cache, demb, grads)

    def forward(self, params, diffs):
        """diffs: (B, T-1, D) difference sequences -> (embeddings, cache)."""
        h_seq, gru_cache = self.gru.forward(params, diffs)
        h_last = h_seq[:, -1]
        f1, c1 = self.fc1.forward(params, h_last)
        r1 = relu(f1)
        emb, c2 = self.fc2.forward(params, r1)
        return emb, (gru_cache, h_seq.shape, f1, c1, c2)

    def backward(self, params, cache, demb, grads):
        gru_cache, h_shape, f1, c1, c2 = cache
        dr1 = self.fc2.backward(params, c2, demb, grads)
        df1 = dr1 * (f1 > 0)
        dh_last = self.fc1.backward(params, c1, df1, grads)
        dh_seq = np.zeros(h_shape, dtype=dh_last.dtype)
        dh_seq[:, -1] = dh_last
        self.gru.backward(params, gru_cache, dh_seq, grads, input_grad=False)


def difference_sequence(values: np.ndarray) -> np.ndarray:
    """First-order differences along time, the CM1 input: row k = s[k+1] - s[k]
    of a (T, D) map s, or of each map in a (B, T, D) batch."""
    if values.shape[-2] < 2:
        raise DataError(f"need at least 2 frames to difference, got {values.shape[-2]}")
    return np.diff(values, axis=-2)


def score_embeddings(emb: np.ndarray, class_w: np.ndarray) -> np.ndarray:
    """Per row of emb (B, E): cos(e, w_bonafide) - cos(e, w_spoof).

    Higher means more bonafide.  Class rows are renormalized; row 0 is
    bonafide, row 1 is spoof, matching the training labels.
    """
    # Row-wise dot products (not a summed square) so that each row's norm
    # has the same bits as np.linalg.norm of that row on its own.
    norm_e = np.sqrt(np.array([row.dot(row) for row in emb]))
    if np.any(norm_e == 0):
        raise DataError("zero-norm embedding cannot be scored")
    w_norms = np.linalg.norm(class_w, axis=1)
    if np.any(w_norms == 0):
        raise DataError("zero-norm class weight row")
    cos = (emb @ class_w.T) / (norm_e[:, None] * w_norms)
    return cos[:, 0] - cos[:, 1]


def cm1_score(values: np.ndarray, params: dict, cfg: Cm1Config,
              enc_cfg: EncoderConfig) -> float:
    """Spoof/bonafide score of one utterance's (T, D) speaker-feature map."""
    emb, _ = Cm1Net(cfg, enc_cfg).embed(params, values[None, :, :])
    return float(score_embeddings(emb, params["cm1.cls.w"])[0])
