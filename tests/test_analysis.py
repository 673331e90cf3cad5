"""Similarity matrices, the statistic, PCA projection, and the simulator."""

import numpy as np
import pytest

from helpers import rank_auc
from tcssd.analysis import (SimConfig, SimilarityMatrix, cosine_similarity,
                            pca_project, simulate_trajectories,
                            tc_similarity_matrix, tc_similarity_matrix_features,
                            tc_statistic)
from tcssd.cm_temporal import Cm1Config
from tcssd.config import toy_config
from tcssd.errors import DataError
from tcssd.frontend import Waveform
from tcssd.training import build_checkpoint


# ---------------------------------------------------------------------------
# cosine_similarity
# ---------------------------------------------------------------------------

def test_cosine_identical_vectors():
    v = np.array([0.3, -1.2, 4.0])
    assert abs(cosine_similarity(v, v) - 1.0) < 1e-12


def test_cosine_orthogonal_unit_vectors():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand_value():
    got = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    want = 32.0 / (np.sqrt(14.0) * np.sqrt(77.0))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.974632) < 1e-6


def test_cosine_zero_vector_rejected():
    with pytest.raises(DataError, match="zero vector"):
        cosine_similarity(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# tc_similarity_matrix
# ---------------------------------------------------------------------------

def test_tc_matrix_features_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    for seed in range(5):
        s = rng.standard_normal((200, 24)).astype(np.float32) + 3.0
        m = tc_similarity_matrix_features(s, k=6, seg_frames=40, seed=seed)
        np.testing.assert_allclose(m.values, m.values.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(m.values), 1.0, atol=1e-12)
        assert np.all(m.values <= 1.0 + 1e-12) and np.all(m.values >= -1.0 - 1e-12)
        assert np.all(np.diff(m.segment_times) >= 0)


def test_tc_matrix_audio_lane():
    enc = toy_config().encoder
    ckpt = build_checkpoint(enc, Cm1Config(hidden=8,
                                           fc1_out=8, fc2_out=8), seed=0)
    rng = np.random.default_rng(1)
    w = Waveform(samples=rng.uniform(-0.4, 0.4, 16000 * 2))
    m = tc_similarity_matrix(w, k=4, seg_dur=0.5, seed=3, cfg=enc, ckpt=ckpt)
    assert m.values.shape == (4, 4)
    np.testing.assert_allclose(m.values, m.values.T, atol=1e-7)
    np.testing.assert_allclose(np.diag(m.values), 1.0, atol=1e-7)


def test_tc_matrix_too_short_utterance_rejected():
    enc = toy_config().encoder
    ckpt = build_checkpoint(enc, Cm1Config(hidden=8,
                                           fc1_out=8, fc2_out=8), seed=0)
    w = Waveform(samples=np.zeros(4000))  # 0.25 s
    with pytest.raises(DataError, match="shorter than segment"):
        tc_similarity_matrix(w, seg_dur=0.5, cfg=enc, ckpt=ckpt)


def test_tc_matrix_needs_encoder_config_and_checkpoint():
    w = Waveform(samples=np.zeros(16000))
    with pytest.raises(TypeError, match="cfg.*ckpt"):
        tc_similarity_matrix(w)


def test_tc_matrix_separates_simulator_classes():
    labeled = simulate_trajectories(SimConfig(), 20, seed=11)
    spoof_means, bona_means = [], []
    spoof_ranges, bona_ranges = [], []
    for i, (_, f, key) in enumerate(labeled):
        m = tc_similarity_matrix_features(f.values, seed=100 + i)
        mean_od, range_od = tc_statistic(m)
        if key == "spoof":
            spoof_means.append(mean_od)
            spoof_ranges.append(range_od)
        else:
            bona_means.append(mean_od)
            bona_ranges.append(range_od)
    assert np.mean(spoof_means) > 0.95
    assert np.mean(bona_means) < np.mean(spoof_means)
    assert np.mean(bona_ranges) > np.mean(spoof_ranges)


# ---------------------------------------------------------------------------
# tc_statistic
# ---------------------------------------------------------------------------

def _matrix(values):
    k = values.shape[0]
    return SimilarityMatrix(values=values, segment_times=np.arange(k, dtype=float))


def test_tc_statistic_all_ones():
    assert tc_statistic(_matrix(np.ones((4, 4)))) == (1.0, 0.0)


def test_tc_statistic_2x2():
    m = np.array([[1.0, 0.4], [0.4, 1.0]])
    assert tc_statistic(_matrix(m)) == (0.4, 0.0)


def test_tc_statistic_3x3():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.9
    m[0, 2] = m[2, 0] = 0.5
    m[1, 2] = m[2, 1] = 0.7
    mean_od, range_od = tc_statistic(_matrix(m))
    assert abs(mean_od - 0.7) < 1e-12
    assert abs(range_od - 0.4) < 1e-12


# ---------------------------------------------------------------------------
# pca_project
# ---------------------------------------------------------------------------

def test_pca_preserves_plane_distances():
    rng = np.random.default_rng(2)
    coords = rng.standard_normal((30, 2))
    basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    x = coords @ basis.T + rng.standard_normal(8)  # plane + offset
    proj = pca_project(x)
    d_in = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    d_out = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
    np.testing.assert_allclose(d_out, d_in, atol=1e-6)


def test_pca_one_dimensional_spread():
    rng = np.random.default_rng(3)
    direction = rng.standard_normal(6)
    direction /= np.linalg.norm(direction)
    t = rng.standard_normal(40)
    x = t[:, None] * direction
    proj = pca_project(x)
    assert np.abs(proj[:, 1]).max() < 1e-8
    np.testing.assert_allclose(np.abs(proj[:, 0]), np.abs(t - t.mean()), atol=1e-8)


def test_pca_reconstruction_error_equals_trailing_eigenvalues():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 8))
    xc = x - x.mean(axis=0)
    proj = pca_project(x)
    # residual sum of squares vs eigen-decomposition oracle
    total = (xc ** 2).sum()
    captured = (proj ** 2).sum()
    eigvals = np.linalg.eigvalsh(xc.T @ xc)[::-1]
    np.testing.assert_allclose(total - captured, eigvals[2:].sum(), atol=1e-6)


def test_pca_rotation_invariant_distances():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((25, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    pa = pca_project(x)
    pb = pca_project(x @ q.T)
    da = np.linalg.norm(pa[:, None] - pa[None, :], axis=-1)
    db = np.linalg.norm(pb[:, None] - pb[None, :], axis=-1)
    np.testing.assert_allclose(da, db, atol=1e-6)


def test_pca_needs_two_points():
    with pytest.raises(DataError, match="at least 2"):
        pca_project(np.ones((1, 4)))


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 5))
    a = pca_project(x)
    b = pca_project(x)
    np.testing.assert_array_equal(a, b)
    for axis in range(2):
        col = a[:, axis]
        assert col.max() != 0 or col.min() == 0


# ---------------------------------------------------------------------------
# simulate_trajectories
# ---------------------------------------------------------------------------

def test_sim_zero_drift_collapses_classes():
    cfg = SimConfig(drift_sigma=0.0)
    labeled = simulate_trajectories(cfg, 5, seed=1)
    # same generator for both classes: per-frame deviation scale matches
    bona = np.concatenate([f.values - f.values.mean(0)
                           for _, f, k in labeled if k == "bonafide"])
    spoof = np.concatenate([f.values - f.values.mean(0)
                            for _, f, k in labeled if k == "spoof"])
    assert abs(bona.std() - spoof.std()) < 0.01 * spoof.std() + 1e-3


def test_sim_no_noise_no_drift_is_constant():
    cfg = SimConfig(drift_sigma=0.0, noise_sigma=0.0)
    for _, f, key in simulate_trajectories(cfg, 3, seed=2):
        if key == "spoof":
            assert np.all(np.diff(f.values, axis=0) == 0.0)
        assert np.all(f.values == f.values[0])


def test_sim_deterministic_given_seed():
    a = simulate_trajectories(SimConfig(), 4, seed=3)
    b = simulate_trajectories(SimConfig(), 4, seed=3)
    for (ua, fa, ka), (ub, fb, kb) in zip(a, b):
        assert ka == kb and ua == ub
        assert np.array_equal(fa.values, fb.values)


def test_sim_default_config_statistic_separation():
    labeled = simulate_trajectories(SimConfig(), 100, seed=12)
    stats = {"bonafide": [], "spoof": []}
    for i, (_, f, key) in enumerate(labeled):
        m = tc_similarity_matrix_features(f.values, seed=i)
        stats[key].append(tc_statistic(m)[0])
    assert np.mean(stats["spoof"]) - np.mean(stats["bonafide"]) > 0
    auc = rank_auc(stats["spoof"], stats["bonafide"])
    assert auc >= 0.95


def test_sim_base_norm():
    for _, f, key in simulate_trajectories(SimConfig(noise_sigma=0.0,
                                                     drift_sigma=0.0,
                                                     base_scale=2.5), 3, seed=4):
        assert abs(np.linalg.norm(f.values[0]) - 2.5) < 1e-5
