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

from .encoder import SpeakerFeatureMap
from .errors import DataError
from .layers import Gru, Linear, relu


@dataclass(frozen=True)
class Cm1Config:
    input_dim: int = 1536
    hidden: int = 1536
    n_layers: int = 2
    fc1_out: int = 512
    fc2_out: int = 192
    # Initialization conventions (not architecture): scale of the first
    # layer's input-to-hidden weights and an additive carry-gate bias.
    input_gain: float = 1.0
    carry_bias: float = 0.0


def toy_cm1_config(input_dim: int = 24) -> Cm1Config:
    """Desk-scale head.

    Frame differences of simulated trajectories are tiny (~0.05), so the
    input weights start 5x larger and the carry gate starts mostly open
    (bias +3, ~20-frame memory); otherwise a 200-step budget is spent
    learning to amplify and integrate before any discrimination happens.
    """
    return Cm1Config(input_dim=input_dim, hidden=32, fc1_out=64, fc2_out=32,
                     input_gain=5.0, carry_bias=3.0)


class Cm1Net:
    """CM1 layer graph; parameters live under ``cm1.*``."""

    def __init__(self, cfg: Cm1Config, prefix: str = "cm1"):
        self.cfg = cfg
        self.prefix = prefix
        self.gru = Gru(f"{prefix}.gru", cfg.input_dim, cfg.hidden, cfg.n_layers,
                       input_gain=cfg.input_gain, carry_bias=cfg.carry_bias)
        self.fc1 = Linear(f"{prefix}.fc1", cfg.hidden, cfg.fc1_out)
        self.fc2 = Linear(f"{prefix}.fc2", cfg.fc1_out, cfg.fc2_out)

    def layers(self):
        return [self.gru, self.fc1, self.fc2]

    def tensor_names(self):
        names = [n for layer in self.layers() for n, _ in layer.param_specs()]
        return names + [f"{self.prefix}.cls.w"]

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
        return self.gru.backward(params, gru_cache, dh_seq, grads)


def difference_sequence(s: SpeakerFeatureMap | np.ndarray) -> np.ndarray:
    """First-order differences along time: row k = s[k+1] - s[k]."""
    values = s.values if isinstance(s, SpeakerFeatureMap) else s
    if values.shape[0] < 2:
        raise DataError(f"need at least 2 frames to difference, got {values.shape[0]}")
    return np.diff(values, axis=0)


def gru_forward(diffs: np.ndarray, params: dict, cfg: Cm1Config,
                prefix: str = "cm1") -> np.ndarray:
    """Final hidden state of the stacked recurrence for one sequence."""
    if diffs.ndim != 2 or diffs.shape[0] < 1:
        raise DataError("difference sequence must be a non-empty (T-1) x D matrix")
    gru = Gru(f"{prefix}.gru", cfg.input_dim, cfg.hidden, cfg.n_layers)
    h_seq, _ = gru.forward(params, diffs[None, :, :])
    return h_seq[0, -1]


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


def score_from_embedding(emb: np.ndarray, class_w: np.ndarray) -> float:
    """``score_embeddings`` of a single embedding vector."""
    return float(score_embeddings(emb[None, :], class_w)[0])


def cm1_embed(x: np.ndarray, params: dict, cfg: Cm1Config,
              prefix: str = "cm1") -> np.ndarray:
    """Embeddings (B, E) of equal-length speaker-feature maps x (B, T, D)."""
    if x.shape[1] < 2:
        raise DataError(f"need at least 2 frames to difference, got {x.shape[1]}")
    emb, _ = Cm1Net(cfg, prefix).forward(params, np.diff(x, axis=1))
    return emb


def cm1_score(s: SpeakerFeatureMap | np.ndarray, params: dict, cfg: Cm1Config,
              prefix: str = "cm1") -> float:
    """Spoof/bonafide score of one utterance's speaker-feature map."""
    values = s.values if isinstance(s, SpeakerFeatureMap) else s
    emb = cm1_embed(values[None, :, :], params, cfg, prefix)
    return score_from_embedding(emb[0], params[f"{prefix}.cls.w"])
