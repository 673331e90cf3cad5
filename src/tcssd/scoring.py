"""Trial protocols, batch scoring, score fusion and EER computation.

Score polarity is fixed package-wide: higher means more bonafide.  The EER
convention: sweep thresholds at all midpoints between adjacent sorted
unique scores plus +/-infinity, take (FAR + FRR) / 2 at the threshold
minimizing |FAR - FRR|, breaking ties toward the lower threshold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .cm_temporal import score_embeddings
from .encoder import EncoderConfig, feature_kind
from .errors import DataError
from .files import read_lines, write_text
from .frontend import load_feature_map
from .training import checkpoint_configs, system_net

KEY_BONAFIDE = "bonafide"
KEY_SPOOF = "spoof"
NO_ATTACK = "-"

DEFAULT_SCORE_BATCH = 32


@dataclass(frozen=True)
class TrialRecord:
    speaker_id: str
    utt_id: str
    attack_id: str
    key: str


@dataclass
class ScoreEntry:
    utt_id: str
    score: float


@dataclass
class ScoreSet:
    """Scores by utterance; a trial's key lives only in its protocol record."""
    entries: list[ScoreEntry]

    def by_utt(self) -> dict[str, float]:
        return {e.utt_id: e.score for e in self.entries}


@dataclass
class EerResult:
    eer: float
    threshold: float
    n_bonafide: int
    n_spoof: int


def parse_protocol(path) -> list[TrialRecord]:
    """Read a 5-field trial protocol: speaker utt field3 attack key.

    Field 3 is ignored.  Blank lines and '#' comment lines are skipped.
    Bonafide trials must carry attack '-' and spoof trials must not.
    """
    records = []
    seen = set()
    for lineno, text in read_lines(path, "protocol"):
        fields = text.split()
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        speaker, utt, _, attack, key = fields
        if key not in (KEY_BONAFIDE, KEY_SPOOF):
            raise DataError(f"{path}:{lineno}: unknown key token '{key}'")
        if key == KEY_BONAFIDE and attack != NO_ATTACK:
            raise DataError(
                f"{path}:{lineno}: bonafide trial carries attack id '{attack}'")
        if key == KEY_SPOOF and attack == NO_ATTACK:
            raise DataError(f"{path}:{lineno}: spoof trial has no attack id")
        if utt in seen:
            raise DataError(f"{path}:{lineno}: duplicate utt_id '{utt}'")
        seen.add(utt)
        records.append(TrialRecord(speaker_id=speaker, utt_id=utt,
                                   attack_id=attack, key=key))
    return records


def serialize_protocol(records, path) -> None:
    write_text(path, (f"{r.speaker_id} {r.utt_id} - {r.attack_id} {r.key}"
                      for r in records))


def write_scores(scores: ScoreSet, path, header_lines=()) -> None:
    """Write tab-separated ``utt_id<TAB>score`` lines, '#' headers first; a
    non-finite score, which ``read_scores`` would refuse, writes nothing."""
    for e in scores.entries:
        if not np.isfinite(e.score):
            raise DataError(f"{e.utt_id}: non-finite score {e.score}")
    write_text(path, (f"{e.utt_id}\t{e.score:.17g}" for e in scores.entries),
               header_lines)


def read_scores(path, records=None) -> ScoreSet:
    """Read a score file; with trial records, exactly theirs, in protocol order."""
    raw: dict[str, float] = {}
    for lineno, text in read_lines(path, "score"):
        fields = text.split()
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected 'utt_id<TAB>score'")
        utt, score_text = fields
        try:
            score = float(score_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score '{score_text}'") from None
        if not np.isfinite(score):
            raise DataError(f"{path}:{lineno}: non-finite score")
        if utt in raw:
            raise DataError(f"{path}:{lineno}: duplicate utt_id '{utt}'")
        raw[utt] = score
    if records is None:
        return ScoreSet(entries=[ScoreEntry(u, s) for u, s in raw.items()])
    missing = [r.utt_id for r in records if r.utt_id not in raw]
    if missing:
        raise DataError(f"{path}: no score for utterance(s) {', '.join(missing[:5])}"
                        + ("..." if len(missing) > 5 else ""))
    extra = set(raw) - {r.utt_id for r in records}
    if extra:
        raise DataError(f"{path}: scores for unknown utterance(s) "
                        f"{', '.join(sorted(extra)[:5])}")
    return ScoreSet(entries=[ScoreEntry(r.utt_id, raw[r.utt_id]) for r in records])


def eer_from_arrays(bonafide, spoof) -> EerResult:
    """EER by midpoint-threshold sweep; see the module docstring."""
    bona = np.sort(np.asarray(bonafide, dtype=np.float64))
    spf = np.sort(np.asarray(spoof, dtype=np.float64))
    if bona.size == 0 or spf.size == 0:
        raise DataError("EER needs at least one bonafide and one spoof score")
    uniq = np.unique(np.concatenate([bona, spf]))
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    thresholds = np.concatenate([[-np.inf], mids, [np.inf]])
    frr = np.searchsorted(bona, thresholds, side="left") / bona.size
    far = (spf.size - np.searchsorted(spf, thresholds, side="left")) / spf.size
    i = int(np.argmin(np.abs(far - frr)))
    return EerResult(eer=float((far[i] + frr[i]) / 2.0),
                     threshold=float(thresholds[i]),
                     n_bonafide=int(bona.size), n_spoof=int(spf.size))


def compute_eer(scores: ScoreSet, records) -> EerResult:
    """EER over the protocol's trials, each keyed by its record; ``scores``
    must hold every record's utterance (``read_scores`` checks that)."""
    by_utt = scores.by_utt()
    return eer_from_arrays(*([by_utt[r.utt_id] for r in records if r.key == key]
                             for key in (KEY_BONAFIDE, KEY_SPOOF)))


def _normalize(values: np.ndarray, mode: str) -> np.ndarray:
    if mode == "none":
        return values
    if mode == "minmax":
        lo, hi = values.min(), values.max()
        if hi == lo:
            return np.zeros_like(values)
        return (values - lo) / (hi - lo)
    if mode == "znorm":
        mu, sd = values.mean(), values.std()
        if sd == 0:
            return np.zeros_like(values)
        return (values - mu) / sd
    raise DataError(f"unknown normalization '{mode}'")


def fuse_scores(a: ScoreSet, b: ScoreSet, w: float = 0.5,
                normalize: str = "none") -> ScoreSet:
    """Per-utterance weighted sum w*a + (1-w)*b after per-system normalization."""
    a_map, b_map = a.by_utt(), b.by_utt()
    if set(a_map) != set(b_map):
        only_a = sorted(set(a_map) - set(b_map))
        only_b = sorted(set(b_map) - set(a_map))
        raise DataError(
            f"utterance sets differ: only in first {only_a[:5]}, "
            f"only in second {only_b[:5]}")
    a_vals = np.array(list(a_map.values()), dtype=np.float64)
    b_vals = np.array([b_map[u] for u in a_map], dtype=np.float64)
    fused = w * _normalize(a_vals, normalize) + (1.0 - w) * _normalize(b_vals, normalize)
    return ScoreSet(entries=[ScoreEntry(u, float(s)) for u, s in zip(a_map, fused)])


def embed_trials(net, records, feature_dir, ckpt: Checkpoint, enc_cfg: EncoderConfig,
                 batch_size: int):
    """Yield (trial indices, embeddings) for chunks of up to ``batch_size``
    equal-length maps, one ``net.embed`` call each.

    Every map is loaded and its width checked by ``feature_kind``, naming
    the utterance, before any embedding.  A tensor the lane reads that the
    checkpoint lacks raises a ``CheckpointError`` naming it at its first
    read.  Chunks group trials by map shape, first seen first.
    """
    groups: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for i, r in enumerate(records):
        values = load_feature_map(os.path.join(feature_dir, f"{r.utt_id}.fea")).values
        feature_kind(values.shape[1], enc_cfg, r.utt_id)
        groups.setdefault(values.shape, []).append((i, values))
    for members in groups.values():
        for start in range(0, len(members), batch_size):
            chunk = members[start:start + batch_size]
            emb = net.embed(ckpt.tensors, np.stack([v for _, v in chunk]))[0]  # no cache kept
            yield [i for i, _ in chunk], emb


def score_trials(cm_id: str, records, feature_dir, ckpt: Checkpoint,
                 batch_size: int = DEFAULT_SCORE_BATCH) -> ScoreSet:
    """Score every trial from its cached features; full utterance, no crop.

    Each chunk from ``embed_trials`` is scored against the system's class
    rows; entries come back in protocol order.  A tensor the system reads
    that the checkpoint lacks raises a ``CheckpointError`` naming it, before
    any score is returned.  The chunking changes only floating-point
    summation order: scores agree within 1e-6 at any ``batch_size``, and a
    given ``batch_size`` gives byte-identical scores from run to run.
    """
    if cm_id not in ("cm1", "cm2"):
        raise DataError(f"unknown countermeasure '{cm_id}'")
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    enc_cfg, cm1_cfg = checkpoint_configs(ckpt)
    net = system_net(cm_id, enc_cfg, cm1_cfg)
    scores = np.empty(len(records))
    for idx, emb in embed_trials(net, records, feature_dir, ckpt, enc_cfg, batch_size):
        scores[idx] = score_embeddings(emb, ckpt.tensors[f"{net.cls.name}.w"])
    return ScoreSet(entries=[ScoreEntry(r.utt_id, float(score))
                             for r, score in zip(records, scores)])
