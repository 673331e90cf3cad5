"""Diagnostics and the synthetic-trajectory simulator.

Two numeric procedures mirror the method's motivating observations: the
intra-utterance similarity matrix of short-segment speaker embeddings
(synthetic speech shows high, narrow-range similarities; real speech drifts)
and a 2-D projection of inter-utterance embeddings.  The simulator generates
labeled speaker-feature trajectories embodying exactly those two premises --
a fixed base vector plus noise for spoofs, plus a random-walk drift for
bonafide -- which makes the detectors testable without any speech corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .encoder import EncoderConfig, FrontendNet
from .errors import DataError
from .files import write_text
from .frontend import FRAME_RATE, FeatureMap, Waveform, compute_fbank

SEGMENT_FRAMES_DEFAULT = 50  # 0.5 s at 10 ms frames


@dataclass
class SimilarityMatrix:
    values: np.ndarray          # K x K cosines
    segment_times: np.ndarray   # K start times, seconds, ascending


@dataclass(frozen=True)
class SimConfig:
    dim: int = 24
    n_frames: int = 200
    drift_sigma: float = 0.05
    noise_sigma: float = 0.02
    base_scale: float = 1.0

    def __post_init__(self):
        if self.dim < 2 or self.n_frames < 2:
            raise DataError("dim and n_frames must be >= 2")
        if min(self.drift_sigma, self.noise_sigma, self.base_scale) < 0:
            raise DataError("scales must be non-negative")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise DataError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / (na * nb))


def _cosine_matrix(embeddings: list[np.ndarray]) -> np.ndarray:
    k = len(embeddings)
    m = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            m[i, j] = m[j, i] = cosine_similarity(embeddings[i], embeddings[j])
    return m


def tc_similarity_matrix(w: Waveform, cfg: EncoderConfig, ckpt: Checkpoint,
                         k: int = 8, seg_dur: float = 0.5,
                         seed: int = 0) -> SimilarityMatrix:
    """Cosine matrix of k random 0.5 s segment embeddings, in time order.

    Segment starts are uniform over the utterance (overlap permitted) and
    sorted ascending; each segment's FBank runs through ``FrontendNet.embed``
    (the frozen encoder, attentive pooling and projection).
    """
    if k < 2:
        raise DataError("need at least 2 segments")
    net = FrontendNet(cfg)
    dur = len(w.samples) / w.sample_rate
    if dur < seg_dur:
        raise DataError(f"utterance ({dur:.3f} s) shorter than segment ({seg_dur} s)")
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, dur - seg_dur, size=k))
    seg_len = int(round(seg_dur * w.sample_rate))
    embeddings = []
    for t0 in starts:
        i0 = int(round(t0 * w.sample_rate))
        seg = Waveform(samples=w.samples[i0:i0 + seg_len], sample_rate=w.sample_rate)
        emb, _ = net.embed(ckpt.tensors, compute_fbank(seg).values[None], "fbank")
        embeddings.append(emb[0])
    return SimilarityMatrix(values=_cosine_matrix(embeddings), segment_times=starts)


def tc_similarity_matrix_features(values: np.ndarray, k: int = 8,
                                  seg_frames: int = SEGMENT_FRAMES_DEFAULT,
                                  seed: int = 0) -> SimilarityMatrix:
    """Feature-map variant for (T, D) maps already at the tap point.

    Segment embeddings are plain frame means of k random frame windows
    (sorted by start), which is all the simulator lane needs.
    """
    t = values.shape[0]
    if k < 2:
        raise DataError("need at least 2 segments")
    if t < seg_frames:
        raise DataError(f"map has {t} frames, segment needs {seg_frames}")
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.integers(0, t - seg_frames + 1, size=k))
    embeddings = [values[s0:s0 + seg_frames].mean(axis=0) for s0 in starts]
    times = starts.astype(np.float64) / FRAME_RATE
    return SimilarityMatrix(values=_cosine_matrix(embeddings), segment_times=times)


def tc_statistic(m: SimilarityMatrix) -> tuple[float, float]:
    """(mean, max - min) over the strictly-upper-triangle similarities."""
    k = m.values.shape[0]
    if k < 2:
        raise DataError("similarity matrix must be at least 2x2")
    upper = m.values[np.triu_indices(k, k=1)]
    return float(upper.mean()), float(upper.max() - upper.min())


def pca_project(embeddings: np.ndarray, out_dim: int = 2) -> np.ndarray:
    """Center and project onto the top principal axes.

    Axes are ordered by descending variance; each axis is sign-fixed so its
    largest-magnitude component is positive, making the output deterministic
    even for degenerate spectra.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("PCA needs at least 2 embeddings")
    xc = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    axes = vt[:out_dim]
    if axes.shape[0] < out_dim:
        pad = np.zeros((out_dim - axes.shape[0], x.shape[1]))
        axes = np.vstack([axes, pad])
    for i in range(axes.shape[0]):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    return xc @ axes.T


def simulate_trajectories(cfg: SimConfig, n_utts_per_class: int, seed: int):
    """Labeled synthetic speaker-feature maps; deterministic given ``seed``.

    Every utterance draws a base vector of norm ``base_scale``.  Spoof
    frames are base + iid noise; bonafide frames additionally accumulate a
    per-step Gaussian drift (a random walk), mimicking a speaker state that
    changes over the utterance.  Returns a list of (utt_id, FeatureMap,
    key) with key in {"bonafide", "spoof"}, bonafide first; the maps carry
    no audio provenance (frame_hop = frame_len = n_fft = 0).
    """
    rng = np.random.default_rng(seed)
    out = []
    for key in ("bonafide", "spoof"):
        for i in range(n_utts_per_class):
            base = rng.standard_normal(cfg.dim)
            norm = np.linalg.norm(base)
            base = base / norm * cfg.base_scale
            frames = np.tile(base, (cfg.n_frames, 1))
            if key == "bonafide":
                steps = rng.normal(0.0, cfg.drift_sigma, size=(cfg.n_frames, cfg.dim))
                frames = frames + np.cumsum(steps, axis=0)
            frames = frames + rng.normal(0.0, cfg.noise_sigma,
                                         size=(cfg.n_frames, cfg.dim))
            utt = f"SIM_{'T' if key == 'bonafide' else 'S'}_{i:06d}"
            out.append((utt, FeatureMap(values=frames.astype(np.float32),
                                        frame_hop=0, frame_len=0, n_fft=0), key))
    return out


def write_similarity_matrix(m: SimilarityMatrix, path, header_lines=()) -> None:
    """Text dump: '#' headers, K start times, then K rows of K cosines."""
    rows = (" ".join(f"{v:.8f}" for v in row) for row in m.values)
    write_text(path, [" ".join(f"{t:.6f}" for t in m.segment_times), *rows],
               header_lines)


def write_projection(utt_ids, coords, labels, path, header_lines=()) -> None:
    """Text dump: utt_id<TAB>x<TAB>y<TAB>label per embedding."""
    write_text(path, (f"{utt}\t{x:.8f}\t{y:.8f}\t{label}"
                      for utt, (x, y), label in zip(utt_ids, coords, labels)),
               header_lines)
