"""Waveform I/O, silence trimming, FBank, SpecAugment, cropping, cache."""

import math
import wave

import numpy as np
import pytest

from tcssd.errors import DataError
from tcssd.frontend import (AugmentPolicy, FeatureMap, compute_fbank,
                            frame_count, load_feature_map, load_waveform,
                            mel_filterbank, mel_to_hz, hz_to_mel, random_crop,
                            save_feature_map, save_waveform, spec_augment,
                            trim_boundaries, trim_silence, FRAME_LEN, FRAME_HOP,
                            N_FFT, N_MELS, LOG_FLOOR, SAMPLE_RATE)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.5, 0.5, 16000)
    path = tmp_path / "a.wav"
    save_waveform(samples, path)
    with wave.open(str(path), "rb") as fh:
        assert fh.getframerate() == 16000
    w = load_waveform(path)
    assert w.shape == (16000,)
    # PCM16 quantization error only
    assert np.abs(w - samples).max() < 1.0 / 32767


def test_wav_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing file"):
        load_waveform(tmp_path / "nope.wav")


def test_wav_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(b"\x00\x00" * 400)
    with pytest.raises(DataError, match="mono required"):
        load_waveform(path)


def test_wav_sample_rate_mismatch(tmp_path):
    path = tmp_path / "hi.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(44100)
        fh.writeframes(b"\x00\x00" * 400)
    with pytest.raises(DataError, match="sample rate mismatch"):
        load_waveform(path)


# ---------------------------------------------------------------------------
# Silence trimming
# ---------------------------------------------------------------------------

def oracle_trim_boundaries(samples, top_db=40.0, frame_len=2048, hop=512):
    """Independent per-frame RMS scan in plain Python."""
    n = len(samples)
    pad = frame_len // 2
    padded = [0.0] * pad + [float(s) for s in samples] + [0.0] * pad
    n_frames = 1 + n // hop
    mse = []
    for i in range(n_frames):
        frame = padded[i * hop:i * hop + frame_len]
        mse.append(sum(v * v for v in frame) / frame_len)
    ref = max(mse)
    if ref <= 0.0:
        return 0, 0
    keep = []
    for i, e in enumerate(mse):
        db = 10.0 * math.log10(max(e, 1e-10) / max(ref, 1e-10))
        if db > -top_db:
            keep.append(i)
    if not keep:
        return 0, 0
    return keep[0] * hop, min(n, (keep[-1] + 1) * hop)


def make_pad_tone(rng):
    """Random zero-pad / loud-tone / zero-pad fixture."""
    pre = int(rng.integers(0, 24000))
    dur = int(rng.integers(4000, 32000))
    post = int(rng.integers(0, 24000))
    amp = float(rng.uniform(0.3, 1.0))
    freq = float(rng.uniform(100, 3000))
    pad_amp = float(rng.uniform(0, 1e-4))
    t = np.arange(dur) / 16000.0
    tone = amp * np.sin(2 * np.pi * freq * t)
    noise_pre = pad_amp * rng.standard_normal(pre)
    noise_post = pad_amp * rng.standard_normal(post)
    return np.concatenate([noise_pre, tone, noise_post])


def test_trim_uniform_signal_untouched():
    w = 0.5 * np.ones(20000)
    out = trim_silence(w)
    assert np.array_equal(out, w)


def test_trim_all_zero_is_empty():
    out = trim_silence(np.zeros(10000))
    assert out.size == 0


def test_trim_empty_input_rejected():
    with pytest.raises(DataError, match="empty"):
        trim_silence(np.zeros(0))


def test_trim_pad_tone_matches_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        w = make_pad_tone(rng)
        got = trim_boundaries(w)
        want = oracle_trim_boundaries(w)
        assert got == want


def test_trim_idempotent_on_fixtures():
    rng = np.random.default_rng(99)
    for _ in range(50):
        w = make_pad_tone(rng)
        once = trim_silence(w)
        twice = trim_silence(once)
        assert np.array_equal(once, twice)


def test_trim_output_is_contiguous_subrange():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = make_pad_tone(rng)
        start, end = trim_boundaries(w)
        out = trim_silence(w)
        assert np.array_equal(out, w[start:end])


# ---------------------------------------------------------------------------
# FBank
# ---------------------------------------------------------------------------

def test_fbank_shape_two_seconds():
    w = np.random.default_rng(0).uniform(-0.1, 0.1, 32000)
    f = compute_fbank(w)
    assert f.values.shape == (198, 80)


def test_fbank_too_short_rejected():
    with pytest.raises(DataError, match="too short"):
        compute_fbank(np.zeros(399))


def test_fbank_all_zero_is_log_floor():
    f = compute_fbank(np.zeros(1600))
    assert np.all(f.values == np.float32(np.log(LOG_FLOOR)))


def oracle_fbank_frame(samples):
    """Naive O(N^2) DFT + explicit triangular filter dot products."""
    frame = np.asarray(samples[:FRAME_LEN], dtype=np.float64) * np.hamming(FRAME_LEN)
    padded = np.zeros(N_FFT)
    padded[:FRAME_LEN] = frame
    k = np.arange(N_FFT // 2 + 1)
    n = np.arange(N_FFT)
    basis = np.exp(-2j * np.pi * np.outer(k, n) / N_FFT)
    mag = np.abs(basis @ padded)
    fb = mel_filterbank()
    energy = np.array([float(np.dot(fb[i], mag)) for i in range(N_MELS)])
    return np.log(np.maximum(energy, LOG_FLOOR))


def test_fbank_sine_at_mel_center_matches_oracle():
    # center frequency of filter 40 (one-based peak index 41 of the ramp)
    mel_pts = np.linspace(hz_to_mel(20.0), hz_to_mel(7600.0), N_MELS + 2)
    center = float(mel_to_hz(mel_pts[41]))
    t = np.arange(512) / 16000.0
    w = 0.7 * np.sin(2 * np.pi * center * t)
    f = compute_fbank(w)
    assert f.values.shape[0] == 1
    want = oracle_fbank_frame(w)
    np.testing.assert_allclose(f.values[0], want, atol=1e-4)
    assert int(np.argmax(f.values[0])) == 40


def test_fbank_frame_count_formula():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(400, 50000))
        w = rng.uniform(-0.1, 0.1, n)
        f = compute_fbank(w)
        assert f.values.shape[0] == (n - 400) // 160 + 1 == frame_count(n)


def gathered_fbank(samples):
    """Oracle: frames gathered by fancy index, window and filterbank rebuilt
    on every call."""
    y = np.asarray(samples, dtype=np.float64)
    t = frame_count(y.shape[0])
    idx = (np.arange(t) * FRAME_HOP)[:, None] + np.arange(FRAME_LEN)[None, :]
    frames = y[idx] * np.hamming(FRAME_LEN)
    spec = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
    energy = spec @ mel_filterbank().T
    return np.log(np.maximum(energy, LOG_FLOOR)).astype(np.float32)


@pytest.mark.parametrize("n", [FRAME_LEN, FRAME_LEN + FRAME_HOP - 1, "tone"])
def test_fbank_bit_identical_to_gathered_frames(n):
    rng = np.random.default_rng(17)
    if n == "tone":
        t = np.arange(int(1.7 * SAMPLE_RATE)) / SAMPLE_RATE
        samples = 0.6 * np.sin(2 * np.pi * 180.0 * t) + 0.01 * rng.standard_normal(t.size)
    else:
        samples = rng.uniform(-0.5, 0.5, n)
    got = compute_fbank(samples).values
    want = gathered_fbank(samples)
    assert got.shape == want.shape == (frame_count(samples.size), N_MELS)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_fbank_shift_covariance_one_hop():
    rng = np.random.default_rng(4)
    samples = rng.uniform(-0.5, 0.5, 8000)
    full = compute_fbank(samples)
    shifted = compute_fbank(samples[FRAME_HOP:])
    assert shifted.values.shape[0] == full.values.shape[0] - 1
    np.testing.assert_allclose(shifted.values, full.values[1:], atol=1e-9)


# ---------------------------------------------------------------------------
# SpecAugment
# ---------------------------------------------------------------------------

def _random_map(rng, t=60, m=80):
    return FeatureMap(values=rng.standard_normal((t, m)).astype(np.float32))


def test_spec_augment_zero_policy_is_identity():
    f = _random_map(np.random.default_rng(0))
    policy = AugmentPolicy(n_freq_masks=0, max_freq_width=0,
                           n_time_masks=0, max_time_width=0)
    out = spec_augment(f, policy, seed=1)
    assert np.array_equal(out.values, f.values)


def test_spec_augment_single_freq_mask():
    f = _random_map(np.random.default_rng(1))
    f.values[f.values == 0] = 1.0  # ensure zeros only come from the mask
    policy = AugmentPolicy(n_freq_masks=1, max_freq_width=8,
                           n_time_masks=0, max_time_width=0)
    out = spec_augment(f, policy, seed=7)
    changed = out.values != f.values
    assert changed.sum() <= 8 * f.values.shape[0]
    assert np.all(out.values[changed] == 0.0)


def test_spec_augment_deterministic_given_seed():
    f = _random_map(np.random.default_rng(2))
    policy = AugmentPolicy()
    a = spec_augment(f, policy, seed=11)
    b = spec_augment(f, policy, seed=11)
    c = spec_augment(f, policy, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_spec_augment_mask_bound():
    rng = np.random.default_rng(8)
    policy = AugmentPolicy(n_freq_masks=2, max_freq_width=5,
                           n_time_masks=2, max_time_width=7)
    for seed in range(10):
        f = _random_map(rng)
        f.values[f.values == 0] = 1.0
        out = spec_augment(f, policy, seed=seed)
        changed = (out.values != f.values).sum()
        assert changed <= 2 * 5 * f.values.shape[0] + 2 * 7 * f.values.shape[1]


def test_spec_augment_oversize_width_rejected():
    f = _random_map(np.random.default_rng(3), t=5)
    with pytest.raises(DataError, match="time mask width"):
        spec_augment(f, AugmentPolicy(max_time_width=6), seed=0)


# ---------------------------------------------------------------------------
# Random crop
# ---------------------------------------------------------------------------

def test_crop_long_input_in_range():
    f = FeatureMap(values=np.random.default_rng(0).standard_normal((1000, 80)).astype(np.float32))
    out = random_crop(f, seed=5)
    assert 200 <= out.values.shape[0] <= 400
    # bit-equal to some source slice
    t = out.values.shape[0]
    found = any(np.array_equal(out.values, f.values[s:s + t])
                for s in range(0, 1000 - t + 1))
    assert found


def test_crop_short_input_wrap_padded():
    f = FeatureMap(values=np.arange(100 * 3, dtype=np.float32).reshape(100, 3))
    out = random_crop(f, seed=0)
    assert out.values.shape[0] == 200
    np.testing.assert_array_equal(out.values[:100], f.values)
    np.testing.assert_array_equal(out.values[100:], f.values)


def test_crop_inside_the_input_is_a_view():
    """A crop that lies inside its input is not copied; a short input's
    wrap-padded crop is a new array."""
    f = FeatureMap(values=np.random.default_rng(2).standard_normal((1000, 4)).astype(np.float32))
    assert np.shares_memory(random_crop(f, seed=5).values, f.values)
    short = FeatureMap(values=f.values[:100])
    assert not np.shares_memory(random_crop(short, seed=5).values, f.values)


def test_crop_full_length_identity():
    f = FeatureMap(values=np.random.default_rng(1).standard_normal((300, 4)).astype(np.float32))
    out = random_crop(f, min_dur=3.0, max_dur=3.0, seed=9)
    np.testing.assert_array_equal(out.values, f.values)
    # a map of exactly min_dur is the only crop a longer max_dur allows
    for seed in range(20):
        out = random_crop(f, min_dur=3.0, max_dur=4.0, seed=seed)
        np.testing.assert_array_equal(out.values, f.values)
        assert np.shares_memory(out.values, f.values)


def test_crop_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        random_crop(FeatureMap(values=np.zeros((0, 4), dtype=np.float32)), seed=0)


# ---------------------------------------------------------------------------
# Feature cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    f = FeatureMap(values=np.random.default_rng(0).standard_normal((37, 80)).astype(np.float32))
    path = tmp_path / "x.fea"
    save_feature_map(f, path)
    g = load_feature_map(path)
    assert np.array_equal(f.values, g.values)
    assert g.frame_hop == f.frame_hop


def test_cache_truncated_rejected(tmp_path):
    f = FeatureMap(values=np.ones((10, 8), dtype=np.float32))
    path = tmp_path / "x.fea"
    save_feature_map(f, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(DataError, match="size mismatch"):
        load_feature_map(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cache_non_finite_rejected_naming_file(tmp_path, bad):
    path = tmp_path / "utt7.fea"
    save_feature_map(FeatureMap(values=np.ones((10, 8), dtype=np.float32)), path)
    blob = bytearray(path.read_bytes())  # the writer refuses it, so patch it in
    at = len(blob) - 4 * (10 * 8 - (3 * 8 + 5))
    blob[at:at + 4] = np.float32(bad).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=r"non-finite values in feature file: .*utt7\.fea"):
        load_feature_map(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_cache_writer_refuses_values_the_reader_refuses(tmp_path, bad):
    """A value that is not finite, or not as float32 (1e39), would not load,
    so nothing is written."""
    values = np.ones((10, 8))
    values[3, 5] = bad
    with pytest.raises(DataError, match=r"non-finite values in feature map for .*x\.fea"):
        save_feature_map(FeatureMap(values=values), tmp_path / "x.fea")
    assert list(tmp_path.iterdir()) == []


def test_cache_empty_map_rejected_naming_file(tmp_path):
    """A zero-frame map has nothing to pool or difference; it stops at load."""
    path = tmp_path / "utt8.fea"
    save_feature_map(FeatureMap(values=np.zeros((0, 24), dtype=np.float32)), path)
    with pytest.raises(DataError, match=r"empty feature map: .*utt8\.fea"):
        load_feature_map(path)


@pytest.mark.parametrize("hop", [320, 1])
def test_cache_writer_refuses_a_hop_the_reader_refuses(tmp_path, hop):
    """Only hops 160 and 0 load, so no other hop is written."""
    f = FeatureMap(values=np.ones((10, 8), dtype=np.float32), frame_hop=hop)
    with pytest.raises(DataError, match=f"feature map hop {hop} cannot be cached"):
        save_feature_map(f, tmp_path / "x.fea")
    assert list(tmp_path.iterdir()) == []


def test_cache_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.fea"
    path.write_bytes(b"NOTAFEAFILE" + b"\x00" * 64)
    with pytest.raises(DataError, match="not a feature cache"):
        load_feature_map(path)
