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

from .errors import DataError, refuse_unless
from .files import write_text
from .frontend import FRAME_RATE, FeatureMap

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
        refuse_unless("sim", self, ("dim", self.dim >= 2, "at least 2"),
                      ("n_frames", self.n_frames >= 2, "at least 2"),
                      *((k, 0 <= getattr(self, k) < np.inf, "finite and not negative")
                        for k in ("drift_sigma", "noise_sigma", "base_scale")))


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


def tc_similarity_matrix_features(values: np.ndarray, k: int = 8,
                                  seg_frames: int = SEGMENT_FRAMES_DEFAULT,
                                  seed: int = 0, embed=None) -> SimilarityMatrix:
    """Cosine matrix of k random ``seg_frames``-frame windows of a (T, D) map.

    Window starts are uniform over the map (overlap permitted) and sorted
    ascending.  ``embed`` maps the stacked windows (k, seg_frames, D) to k
    embeddings (``analyze-tc --wav`` passes the checkpoint's frozen encoder);
    without it each window's embedding is its frame mean.
    """
    t = values.shape[0]
    if k < 2:
        raise DataError("need at least 2 segments")
    if seg_frames < 1:
        raise DataError(f"seg_frames must be at least 1, got {seg_frames}")
    if t < seg_frames:
        raise DataError(f"map has {t} frames ({t / FRAME_RATE:g} s), shorter than a "
                        f"{seg_frames}-frame ({seg_frames / FRAME_RATE:g} s) segment")
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.integers(0, t - seg_frames + 1, size=k))
    windows = np.stack([values[s0:s0 + seg_frames] for s0 in starts])
    embeddings = embed(windows) if embed else [w.mean(axis=0) for w in windows]
    return SimilarityMatrix(_cosine_matrix(embeddings), starts / FRAME_RATE)


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
    no audio provenance (frame_hop 0).
    """
    if n_utts_per_class < 1:
        raise DataError(f"n_utts_per_class must be at least 1, got {n_utts_per_class}")
    rng = np.random.default_rng(seed)
    out = []
    for key in ("bonafide", "spoof"):
        for i in range(n_utts_per_class):
            base = rng.standard_normal(cfg.dim)
            norm = np.linalg.norm(base)
            base = base / norm * cfg.base_scale
            frames = np.tile(base, (cfg.n_frames, 1))
            with np.errstate(over="ignore", invalid="ignore"):
                if key == "bonafide":
                    steps = rng.normal(0.0, cfg.drift_sigma, size=(cfg.n_frames, cfg.dim))
                    frames = frames + np.cumsum(steps, axis=0)
                noise = rng.normal(0.0, cfg.noise_sigma, size=(cfg.n_frames, cfg.dim))
                frames = (frames + noise).astype(np.float32)
            if not np.isfinite(frames).all():
                raise DataError("simulated frames overflow float32; lower sim.base_scale, "
                                "sim.drift_sigma or sim.noise_sigma")
            utt = f"SIM_{'T' if key == 'bonafide' else 'S'}_{i:06d}"
            out.append((utt, FeatureMap(frames, frame_hop=0), key))
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
