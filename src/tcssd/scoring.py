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
from .cm_distribution import cm2_embed_fbank, cm2_embed_tap
from .cm_temporal import Cm1Config, cm1_embed, score_embeddings
from .encoder import EncoderConfig, tap_features
from .errors import DataError
from .frontend import load_feature_map

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
    key: str


@dataclass
class ScoreSet:
    entries: list[ScoreEntry]
    system_id: str = ""

    def scores_by_key(self, key: str) -> np.ndarray:
        return np.array([e.score for e in self.entries if e.key == key], dtype=np.float64)

    def by_utt(self) -> dict[str, ScoreEntry]:
        return {e.utt_id: e for e in self.entries}


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
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"missing protocol file: {path}") from None
    records = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
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
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.speaker_id} {r.utt_id} - {r.attack_id} {r.key}\n")


def write_scores(scores: ScoreSet, path, header_lines=()) -> None:
    """Write tab-separated ``utt_id<TAB>score`` lines, '#' headers first."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for e in scores.entries:
            fh.write(f"{e.utt_id}\t{e.score:.17g}\n")


def read_scores(path, records=None, system_id: str = "") -> ScoreSet:
    """Read a score file; trial records (when given) supply the keys."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"missing score file: {path}") from None
    raw: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
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
        entries = [ScoreEntry(u, s, "") for u, s in raw.items()]
        return ScoreSet(entries=entries, system_id=system_id)
    missing = [r.utt_id for r in records if r.utt_id not in raw]
    if missing:
        raise DataError(f"{path}: no score for utterance(s) {', '.join(missing[:5])}"
                        + ("..." if len(missing) > 5 else ""))
    extra = set(raw) - {r.utt_id for r in records}
    if extra:
        raise DataError(f"{path}: scores for unknown utterance(s) "
                        f"{', '.join(sorted(extra)[:5])}")
    entries = [ScoreEntry(r.utt_id, raw[r.utt_id], r.key) for r in records]
    return ScoreSet(entries=entries, system_id=system_id)


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


def compute_eer(scores: ScoreSet) -> EerResult:
    return eer_from_arrays(scores.scores_by_key(KEY_BONAFIDE),
                           scores.scores_by_key(KEY_SPOOF))


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
    a_map = a.by_utt()
    b_map = b.by_utt()
    if set(a_map) != set(b_map):
        only_a = sorted(set(a_map) - set(b_map))
        only_b = sorted(set(b_map) - set(a_map))
        raise DataError(
            f"utterance sets differ: only in first {only_a[:5]}, "
            f"only in second {only_b[:5]}")
    a_vals = np.array([e.score for e in a.entries], dtype=np.float64)
    b_vals = np.array([b_map[e.utt_id].score for e in a.entries], dtype=np.float64)
    a_norm = _normalize(a_vals, normalize)
    b_norm = _normalize(b_vals, normalize)
    fused = w * a_norm + (1.0 - w) * b_norm
    entries = []
    for e, s in zip(a.entries, fused):
        other = b_map[e.utt_id]
        if other.key != e.key:
            raise DataError(f"key mismatch for {e.utt_id}: '{e.key}' vs '{other.key}'")
        entries.append(ScoreEntry(e.utt_id, float(s), e.key))
    return ScoreSet(entries=entries,
                    system_id=f"fuse({a.system_id},{b.system_id},w={w})")


def encoder_config_from_dict(d: dict) -> EncoderConfig:
    d = dict(d)
    if "dilations" in d:
        d["dilations"] = tuple(d["dilations"])
    return EncoderConfig(**d)


def cm1_config_from_dict(d: dict) -> Cm1Config:
    return Cm1Config(**d)


def checkpoint_configs(ckpt: Checkpoint) -> tuple[EncoderConfig, Cm1Config]:
    try:
        enc = encoder_config_from_dict(ckpt.config["encoder"])
        cm1 = cm1_config_from_dict(ckpt.config["cm1"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"checkpoint config incomplete: {exc}") from None
    return enc, cm1


def _load_trial_map(feature_dir, r: TrialRecord, enc_cfg: EncoderConfig):
    """(feature kind, T x M values) of one trial's cached map."""
    path = os.path.join(feature_dir, f"{r.utt_id}.fea")
    if not os.path.exists(path):
        raise DataError(f"missing feature for utterance {r.utt_id}: {path}")
    f = load_feature_map(path)
    m = f.n_channels
    if m == enc_cfg.n_mels and enc_cfg.n_mels != enc_cfg.mfa_dim:
        return "fbank", f.values
    if m == enc_cfg.mfa_dim:
        return "speaker", f.values
    raise DataError(
        f"{r.utt_id}: {m} channels match neither n_mels "
        f"({enc_cfg.n_mels}) nor mfa_dim ({enc_cfg.mfa_dim})")


def score_trials(cm_id: str, records, feature_dir, ckpt: Checkpoint,
                 batch_size: int = DEFAULT_SCORE_BATCH) -> ScoreSet:
    """Score every trial from its cached features; full utterance, no crop.

    Every map is loaded and validated first.  Trials are then grouped by
    (feature kind, frame count) in first-seen order, so stacking needs no
    padding, and each group is embedded in chunks of up to ``batch_size``
    maps.  Entries come back in protocol order.  The chunking changes only
    floating-point summation order: scores agree within 1e-6 at any
    ``batch_size``, and a given ``batch_size`` gives byte-identical scores
    from run to run.
    """
    if cm_id not in ("cm1", "cm2"):
        raise DataError(f"unknown countermeasure '{cm_id}'")
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    enc_cfg, cm1_cfg = checkpoint_configs(ckpt)
    params = ckpt.tensors
    groups: dict[tuple[str, int], list[tuple[int, np.ndarray]]] = {}
    for i, r in enumerate(records):
        kind, values = _load_trial_map(feature_dir, r, enc_cfg)
        groups.setdefault((kind, values.shape[0]), []).append((i, values))

    def embed(kind, x):
        if cm_id == "cm1":
            feats = tap_features(x, enc_cfg, ckpt) if kind == "fbank" else x
            return cm1_embed(feats, params, cm1_cfg)
        if kind == "fbank":
            return cm2_embed_fbank(x, enc_cfg, ckpt)
        return cm2_embed_tap(x, params, enc_cfg)

    scores = np.empty(len(records))
    for (kind, _), members in groups.items():
        for start in range(0, len(members), batch_size):
            chunk = members[start:start + batch_size]
            emb = embed(kind, np.stack([values for _, values in chunk]))
            scores[[i for i, _ in chunk]] = score_embeddings(
                emb, params[f"{cm_id}.cls.w"])
    entries = [ScoreEntry(r.utt_id, float(score), r.key)
               for r, score in zip(records, scores)]
    return ScoreSet(entries=entries, system_id=cm_id)
