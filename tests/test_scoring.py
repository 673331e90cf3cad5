"""Protocol parsing, EER, fusion, and trial scoring."""

import weakref

import numpy as np
import pytest

from helpers import brute_force_eer, fail_writes_halfway
from tcssd.analysis import SimConfig, simulate_trajectories
from tcssd.cm_temporal import Cm1Config
from tcssd.config import toy_config
from tcssd.errors import DataError
from tcssd.frontend import FeatureMap, save_feature_map
from tcssd.scoring import (DEFAULT_SCORE_BATCH, ScoreEntry, ScoreSet,
                           TrialRecord, compute_eer, eer_from_arrays, embed_trials,
                           fuse_scores, parse_protocol, read_scores,
                           score_trials, serialize_protocol, write_scores)
from tcssd.training import build_checkpoint, system_net


# ---------------------------------------------------------------------------
# Protocol parsing
# ---------------------------------------------------------------------------

def test_parse_bonafide_line(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("LA_0079 LA_T_1138215 - - bonafide\n")
    records = parse_protocol(p)
    assert records == [TrialRecord(speaker_id="LA_0079", utt_id="LA_T_1138215",
                                   attack_id="-", key="bonafide")]


def test_parse_four_fields_rejected(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("LA_0079 LA_T_1 - bonafide\n")
    with pytest.raises(DataError, match=r"p.txt:1: expected 5 fields, got 4"):
        parse_protocol(p)


def test_parse_bonafide_with_attack_rejected(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("X U - A01 bonafide\n")
    with pytest.raises(DataError, match="bonafide trial carries attack"):
        parse_protocol(p)


def test_parse_spoof_without_attack_rejected(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("X U - - spoof\n")
    with pytest.raises(DataError, match="no attack id"):
        parse_protocol(p)


def test_parse_unknown_key_rejected(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("X U - A01 spoofed\n")
    with pytest.raises(DataError, match="unknown key token"):
        parse_protocol(p)


def test_parse_duplicate_utt_rejected(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("X U - - bonafide\nY U - A01 spoof\n")
    with pytest.raises(DataError, match="duplicate utt_id"):
        parse_protocol(p)


def test_parse_tolerates_whitespace_runs(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("X   U1 \t -   -   bonafide\n\nY U2 - A01  spoof  \n")
    records = parse_protocol(p)
    assert [r.utt_id for r in records] == ["U1", "U2"]


def test_protocol_round_trip(tmp_path):
    records = [
        TrialRecord("S1", "U1", "-", "bonafide"),
        TrialRecord("S2", "U2", "A07", "spoof"),
        TrialRecord("S1", "U3", "SIM01", "spoof"),
    ]
    p = tmp_path / "p.txt"
    serialize_protocol(records, p)
    assert parse_protocol(p) == records


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------

def test_eer_hand_case():
    r = eer_from_arrays([3.0, 2.0, 1.0], [2.5, 0.5, 0.0])
    assert abs(r.eer - 1.0 / 3.0) < 1e-12
    assert 1.0 < r.threshold < 2.0


def test_eer_perfect_separation():
    r = eer_from_arrays([5.0, 4.0, 3.0], [2.0, 1.0])
    assert r.eer == 0.0


def test_eer_all_identical_scores():
    r = eer_from_arrays([1.0, 1.0], [1.0, 1.0, 1.0])
    assert r.eer == 0.5


def test_eer_single_class_rejected():
    with pytest.raises(DataError, match="at least one"):
        eer_from_arrays([1.0], [])


def test_eer_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(300):
        nb = int(rng.integers(2, 60))
        ns = int(rng.integers(2, 60))
        bona = rng.normal(0.5, 1.0, nb)
        spoof = rng.normal(-0.5, 1.0, ns)
        if rng.random() < 0.3:  # exercise ties
            bona = np.round(bona, 1)
            spoof = np.round(spoof, 1)
        r = eer_from_arrays(bona, spoof)
        want_eer, want_thr = brute_force_eer(bona, spoof)
        assert r.eer == want_eer
        assert r.threshold == want_thr


def test_eer_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    for transform in (np.exp, lambda x: 3 * x + 7, np.arctan):
        bona = rng.normal(1, 1, 40)
        spoof = rng.normal(-1, 1, 50)
        base = eer_from_arrays(bona, spoof).eer
        assert eer_from_arrays(transform(bona), transform(spoof)).eer == base


def _records(keys):
    """Trial records keyed as ``{utt_id: key}`` says, in its order."""
    return [TrialRecord("S", u, "-" if k == "bonafide" else "A01", k)
            for u, k in keys.items()]


def test_compute_eer_from_score_set():
    entries = [ScoreEntry("u1", 3.0), ScoreEntry("u2", 2.0), ScoreEntry("u3", 1.0),
               ScoreEntry("u4", 2.5), ScoreEntry("u5", 0.5), ScoreEntry("u6", 0.0)]
    records = _records({"u1": "bonafide", "u2": "bonafide", "u3": "bonafide",
                        "u4": "spoof", "u5": "spoof", "u6": "spoof"})
    r = compute_eer(ScoreSet(entries=entries), records)
    assert abs(r.eer - 1.0 / 3.0) < 1e-12
    assert (r.n_bonafide, r.n_spoof) == (3, 3)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def _score_set(pairs):
    return ScoreSet(entries=[ScoreEntry(u, s) for u, s in pairs])


def test_fuse_identical_sets_idempotent():
    a = _score_set([("u1", 1.25), ("u2", -0.5)])
    fused = fuse_scores(a, a, w=0.5)
    assert [e.score for e in fused.entries] == [1.25, -0.5]


def test_fuse_arithmetic():
    a = _score_set([("u1", 1.0), ("u2", -1.0)])
    b = _score_set([("u1", 0.0), ("u2", 0.0)])
    fused = fuse_scores(a, b, w=0.5)
    assert [e.score for e in fused.entries] == [0.5, -0.5]


def test_fuse_weight_extremes():
    rng = np.random.default_rng(2)
    pairs_a = [(f"u{i}", float(rng.normal())) for i in range(5)]
    pairs_b = [(u, float(rng.normal())) for u, _ in pairs_a]
    a, b = _score_set(pairs_a), _score_set(pairs_b)
    fused_a = fuse_scores(a, b, w=1.0)
    fused_b = fuse_scores(a, b, w=0.0)
    assert [e.score for e in fused_a.entries] == [s for _, s in pairs_a]
    assert [e.score for e in fused_b.entries] == [s for _, s in pairs_b]


def test_fuse_mismatched_utts_rejected():
    a = _score_set([("u1", 1.0)])
    b = _score_set([("u2", 1.0)])
    with pytest.raises(DataError, match="utterance sets differ"):
        fuse_scores(a, b)


def test_fuse_complementary_systems_beat_both():
    # system A separates trials {1,2}, system B separates {3,4}
    records = _records({"u1": "bonafide", "u2": "spoof", "u3": "bonafide",
                        "u4": "spoof"})
    a = _score_set([("u1", 1.0), ("u2", -1.0), ("u3", 0.1), ("u4", 0.2)])
    b = _score_set([("u1", 0.2), ("u2", 0.1), ("u3", 1.0), ("u4", -1.0)])
    eer_a = compute_eer(a, records).eer
    eer_b = compute_eer(b, records).eer
    fused = fuse_scores(a, b, w=0.5)
    eer_f = compute_eer(fused, records).eer
    # brute-force check of all three on this construction
    assert eer_a == brute_force_eer([1.0, 0.1], [-1.0, 0.2])[0]
    assert eer_b == brute_force_eer([0.2, 1.0], [0.1, -1.0])[0]
    assert eer_f <= min(eer_a, eer_b)
    assert eer_f == 0.0


def test_fuse_normalization_modes():
    a = _score_set([("u1", 10.0), ("u2", 0.0)])
    b = _score_set([("u1", 1.0), ("u2", -1.0)])
    mm = fuse_scores(a, b, w=0.5, normalize="minmax")
    assert [e.score for e in mm.entries] == [1.0, 0.0]
    zn = fuse_scores(a, b, w=0.5, normalize="znorm")
    assert abs(zn.entries[0].score - 1.0) < 1e-12
    assert abs(zn.entries[1].score + 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Score file I/O
# ---------------------------------------------------------------------------

def test_score_file_round_trip(tmp_path):
    records = [TrialRecord("S", "u1", "-", "bonafide"),
               TrialRecord("S", "u2", "A01", "spoof")]
    scores = _score_set([("u2", -1.5), ("u1", 0.123456789012345)])
    path = tmp_path / "s.tsv"
    write_scores(scores, path, header_lines=["prov test"])
    back = read_scores(path, records=records)
    assert [e.utt_id for e in back.entries] == [r.utt_id for r in records]
    assert [e.score for e in back.entries] == [0.123456789012345, -1.5]


def test_score_file_interrupted_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "s.tsv"
    write_scores(_score_set([("u1", 1.0)]), path)
    before = path.read_bytes()

    fail_writes_halfway(monkeypatch)
    entries = [(f"u{i}", float(i)) for i in range(5)]
    with pytest.raises(OSError, match="disk full"):
        write_scores(_score_set(entries), path, header_lines=["prov test"])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.tsv"]
    monkeypatch.undo()
    write_scores(_score_set(entries), path, header_lines=["prov test"])
    assert path.read_text() == "# prov test\n" + "".join(
        f"u{i}\t{float(i):.17g}\n" for i in range(5))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.tsv"]


def test_score_file_missing_utt_rejected(tmp_path):
    records = [TrialRecord("S", "u1", "-", "bonafide"),
               TrialRecord("S", "u2", "A01", "spoof")]
    path = tmp_path / "s.tsv"
    write_scores(_score_set([("u1", 1.0)]), path)
    with pytest.raises(DataError, match="no score for utterance.*u2"):
        read_scores(path, records=records)


# ---------------------------------------------------------------------------
# score_trials
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sim_eval_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = SimConfig(dim=24, n_frames=60)
    labeled = simulate_trajectories(cfg, 3, seed=5)
    records = []
    for utt, f, key in labeled:
        save_feature_map(f, tmp / f"{utt}.fea")
        attack = "-" if key == "bonafide" else "SIM01"
        records.append(TrialRecord("SIMSPK", utt, attack, key))
    enc = toy_config().encoder
    cm1_cfg = Cm1Config(hidden=8, fc1_out=8, fc2_out=8)
    ckpts = {cm_id: build_checkpoint(cm_id, enc, cm1_cfg, seed=0) for cm_id in ("cm1", "cm2")}
    return tmp, records, ckpts


def test_score_trials_batch_invariance(sim_eval_dir):
    tmp, records, ckpts = sim_eval_dir
    one = score_trials("cm1", records, tmp, ckpts["cm1"], batch_size=1)
    three = score_trials("cm1", records, tmp, ckpts["cm1"], batch_size=3)
    assert len(one.entries) == len(records)
    for a, b in zip(one.entries, three.entries):
        assert a.utt_id == b.utt_id
        assert abs(a.score - b.score) < 1e-6


def test_score_trials_missing_feature_named(sim_eval_dir, tmp_path):
    _, records, ckpts = sim_eval_dir
    with pytest.raises(DataError, match=records[0].utt_id):
        score_trials("cm1", records, tmp_path, ckpts["cm1"])


def test_embed_trials_frees_each_chunk_cache_before_the_next_chunk(sim_eval_dir):
    """A chunk's cache (a GRU forward's is eight (T, B, H) arrays) is gone
    before the next chunk is embedded: only its embeddings are yielded."""
    tmp, records, ckpts = sim_eval_dir

    class Held:  # the net's cache, weakly referable
        def __init__(self, cache):
            self.cache = cache

    class TracingNet:
        def __init__(self, net):
            self.net, self.caches = net, []

        def embed(self, params, x):
            assert all(ref() is None for ref in self.caches), "a chunk's cache outlived it"
            emb, cache = self.net.embed(params, x)
            held = Held(cache)
            self.caches.append(weakref.ref(held))
            return emb, held

    enc = toy_config().encoder
    net = TracingNet(system_net("cm1", enc, Cm1Config(hidden=8, fc1_out=8, fc2_out=8)))
    chunks = list(embed_trials(net, records, tmp, ckpts["cm1"], enc, batch_size=2))
    assert len(chunks) == len(net.caches) == 3
    assert sorted(i for idx, _ in chunks for i in idx) == list(range(len(records)))


def test_score_trials_cm2(sim_eval_dir):
    tmp, records, ckpts = sim_eval_dir
    out = score_trials("cm2", records, tmp, ckpts["cm2"])
    assert len(out.entries) == len(records)
    assert all(np.isfinite(e.score) for e in out.entries)


@pytest.fixture(scope="module")
def mixed_eval_dir(tmp_path_factory):
    """Tap-point maps of 3 lengths and FBank maps of 2 lengths, interleaved
    in the protocol so that equal-length groups are not contiguous."""
    tmp = tmp_path_factory.mktemp("mixed")
    lanes = []
    for n_frames in (60, 45, 30):
        labeled = simulate_trajectories(SimConfig(dim=24, n_frames=n_frames), 2,
                                        seed=n_frames)
        lanes.append([(f"T{n_frames}_{utt}", f.values, key)
                      for utt, f, key in labeled])
    rng = np.random.default_rng(9)
    for n_frames in (40, 25):
        lanes.append([(f"F{n_frames}_{i}", rng.standard_normal((n_frames, 80)),
                       ("bonafide", "spoof")[i % 2]) for i in range(3)])
    records = []
    for row in range(max(len(lane) for lane in lanes)):
        for lane in lanes:
            if row < len(lane):
                utt, values, key = lane[row]
                save_feature_map(FeatureMap(values=values.astype(np.float32)),
                                 tmp / f"{utt}.fea")
                attack = "-" if key == "bonafide" else "SIM01"
                records.append(TrialRecord("SPK", utt, attack, key))
    enc, cm1_cfg = toy_config().encoder, Cm1Config(hidden=8, fc1_out=8, fc2_out=8)
    ckpts = {cm_id: build_checkpoint(cm_id, enc, cm1_cfg, seed=3) for cm_id in ("cm1", "cm2")}
    return tmp, records, ckpts


@pytest.mark.parametrize("cm_id", ["cm1", "cm2"])
def test_score_trials_mixed_lengths_batch_contract(mixed_eval_dir, tmp_path, cm_id):
    """Any batch size: protocol order, scores within 1e-6 of one-at-a-time
    scoring, and byte-identical score files from two calls."""
    tmp, records, ckpts = mixed_eval_dir
    ckpt = ckpts[cm_id]
    runs = {bs: score_trials(cm_id, records, tmp, ckpt, batch_size=bs)
            for bs in (1, 3, DEFAULT_SCORE_BATCH)}
    ref = np.array([e.score for e in runs[1].entries])
    assert np.all(np.isfinite(ref)) and np.ptp(ref) > 0
    for bs, out in runs.items():
        assert [e.utt_id for e in out.entries] == [r.utt_id for r in records]
        got = np.array([e.score for e in out.entries])
        assert np.abs(got - ref).max() < 1e-6, bs
        paths = [tmp_path / f"{bs}_{i}.tsv" for i in range(2)]
        write_scores(out, paths[0])
        write_scores(score_trials(cm_id, records, tmp, ckpt, batch_size=bs), paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
