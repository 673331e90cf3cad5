"""Waveform ingestion and feature extraction upstream of the speaker encoder.

Covers PCM WAV loading, energy-based silence trimming, log mel filterbank
extraction, SpecAugment masking, duration cropping, and the binary feature
cache format.  All operations are pure functions of their inputs; randomness
always comes from an explicit seed.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SAMPLE_RATE = 16000

# FBank configuration: 25 ms Hamming window, 512-point FFT, 80 mel bins.
# The 10 ms hop and 20-7600 Hz mel range follow common practice for this
# window size and the pretrained-encoder lineage.
FRAME_LEN = 400
FRAME_HOP = 160
N_FFT = 512
N_MELS = 80
MEL_FMIN = 20.0
MEL_FMAX = 7600.0
LOG_FLOOR = 1e-6
# Frames per second at the 10 ms hop; cached maps with no audio provenance
# (hop 0, e.g. simulated trajectories) are taken to run at this rate too.
FRAME_RATE = SAMPLE_RATE / FRAME_HOP

FEATURE_MAGIC = b"TCSSD-FEA"
FEATURE_VERSION = 1


@dataclass
class Waveform:
    """Mono PCM samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE


@dataclass
class FeatureMap:
    """T x M feature matrix (log mel energies, or any cached T x M map)."""

    values: np.ndarray
    frame_hop: int = FRAME_HOP
    frame_len: int = FRAME_LEN
    n_fft: int = N_FFT

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass
class AugmentPolicy:
    """SpecAugment masking policy; zero-width masks make it a no-op."""

    n_freq_masks: int = 1
    max_freq_width: int = 8
    n_time_masks: int = 1
    max_time_width: int = 10


def load_waveform(path) -> Waveform:
    """Read a 16 kHz mono PCM16 WAV file into a float waveform in [-1, 1]."""
    try:
        wav = wave.open(str(path), "rb")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except (wave.Error, EOFError) as exc:
        raise DataError(f"unsupported encoding in {path}: {exc}") from None
    with wav:
        if wav.getnchannels() != 1:
            raise DataError(f"mono required: {path} has {wav.getnchannels()} channels")
        if wav.getsampwidth() != 2:
            raise DataError(f"unsupported encoding: {path} is not 16-bit PCM")
        rate = wav.getframerate()
        if rate != SAMPLE_RATE:
            raise DataError(f"sample rate mismatch: {path} is {rate} Hz, expected {SAMPLE_RATE}")
        raw = wav.readframes(wav.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def save_waveform(w: Waveform, path) -> None:
    """Write a waveform as 16 kHz mono PCM16 WAV (values clipped to [-1, 1])."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    ints = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(w.sample_rate)
        wav.writeframes(ints.tobytes())


def trim_boundaries(w: Waveform, top_db: float = 40.0, frame_len: int = 2048,
                    hop: int = 512) -> tuple[int, int]:
    """Sample indices (start, end) of the non-silent span of a waveform.

    Frames are centered with zero padding; a frame is silent when its RMS
    power is more than ``top_db`` below the loudest frame.  The span starts
    at the first non-silent frame index times the hop, and ends after the
    last one, capped at the signal length.  A signal whose loudest frame
    has zero power is all silence and yields an empty span.
    """
    y = np.asarray(w.samples, dtype=np.float64)
    n = y.shape[0]
    if n == 0:
        raise DataError("empty waveform")
    pad = frame_len // 2
    yp = np.zeros(n + 2 * pad)
    yp[pad:pad + n] = y
    n_frames = 1 + n // hop
    starts = np.arange(n_frames) * hop
    idx = starts[:, None] + np.arange(frame_len)[None, :]
    mse = np.mean(yp[idx] ** 2, axis=1)
    ref = mse.max()
    if ref <= 0.0:
        return 0, 0
    amin = 1e-10
    db = 10.0 * np.log10(np.maximum(mse, amin) / max(ref, amin))
    nonsilent = np.flatnonzero(db > -top_db)
    if nonsilent.size == 0:
        return 0, 0
    start = int(nonsilent[0]) * hop
    end = min(n, (int(nonsilent[-1]) + 1) * hop)
    return start, end


def trim_silence(w: Waveform, top_db: float = 40.0, frame_len: int = 2048,
                 hop: int = 512) -> Waveform:
    """Remove leading and trailing silence; the interior is untouched.

    Returns an empty waveform when every frame is below threshold; the
    caller decides what an empty utterance means.
    """
    start, end = trim_boundaries(w, top_db=top_db, frame_len=frame_len, hop=hop)
    return Waveform(samples=np.array(w.samples[start:end]), sample_rate=w.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int = N_MELS, n_fft: int = N_FFT,
                   sample_rate: int = SAMPLE_RATE, fmin: float = MEL_FMIN,
                   fmax: float = MEL_FMAX) -> np.ndarray:
    """Triangular mel filters (n_mels x n_fft//2+1) on the HTK mel scale."""
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for i in range(n_mels):
        lo, center, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


def frame_count(n_samples: int, frame_len: int = FRAME_LEN, hop: int = FRAME_HOP) -> int:
    return (n_samples - frame_len) // hop + 1


def compute_fbank(w: Waveform) -> FeatureMap:
    """80-bin log mel filterbank: 400-sample Hamming frames, hop 160, 512 FFT.

    The magnitude spectrum of each frame passes through triangular mel
    filters; energies are floored at 1e-6 before the natural log.
    """
    y = np.asarray(w.samples, dtype=np.float64)
    n = y.shape[0]
    if n < FRAME_LEN:
        raise DataError(f"waveform too short for FBank: {n} < {FRAME_LEN} samples")
    t = frame_count(n)
    idx = (np.arange(t) * FRAME_HOP)[:, None] + np.arange(FRAME_LEN)[None, :]
    frames = y[idx] * np.hamming(FRAME_LEN)
    spec = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
    fb = mel_filterbank()
    energy = spec @ fb.T
    values = np.log(np.maximum(energy, LOG_FLOOR)).astype(np.float32)
    return FeatureMap(values=values)


def spec_augment(f: FeatureMap, policy: AugmentPolicy, seed: int) -> FeatureMap:
    """Zero out random frequency and time bands; deterministic given seed."""
    t, m = f.values.shape
    if policy.max_freq_width < 0 or policy.max_freq_width > m:
        raise DataError(f"freq mask width {policy.max_freq_width} outside [0, {m}]")
    if policy.max_time_width < 0 or policy.max_time_width > t:
        raise DataError(f"time mask width {policy.max_time_width} outside [0, {t}]")
    rng = np.random.default_rng(seed)
    out = f.values.copy()
    for _ in range(policy.n_freq_masks):
        width = int(rng.integers(0, policy.max_freq_width + 1))
        start = int(rng.integers(0, m - width + 1))
        out[:, start:start + width] = 0.0
    for _ in range(policy.n_time_masks):
        width = int(rng.integers(0, policy.max_time_width + 1))
        start = int(rng.integers(0, t - width + 1))
        out[start:start + width, :] = 0.0
    return FeatureMap(values=out, frame_hop=f.frame_hop, frame_len=f.frame_len,
                      n_fft=f.n_fft)


def frames_per_second(f: FeatureMap) -> float:
    if f.frame_hop > 0:
        return SAMPLE_RATE / f.frame_hop
    return FRAME_RATE


def random_crop(f: FeatureMap, min_dur: float = 2.0, max_dur: float = 4.0,
                seed: int = 0) -> FeatureMap:
    """Contiguous slice of uniform duration in [min_dur, max_dur] seconds.

    Inputs shorter than min_dur are wrap-padded (repeating from the start)
    to exactly min_dur; the drawn duration is capped at the input length.
    """
    t = f.values.shape[0]
    if t == 0:
        raise DataError("empty feature map")
    fps = frames_per_second(f)
    min_frames = int(round(min_dur * fps))
    max_frames = int(round(max_dur * fps))
    rng = np.random.default_rng(seed)
    if t < min_frames:
        idx = np.arange(min_frames) % t
        values = f.values[idx].copy()
    else:
        length = min(int(rng.integers(min_frames, max_frames + 1)), t)
        start = int(rng.integers(0, t - length + 1))
        values = f.values[start:start + length].copy()
    return FeatureMap(values=values, frame_hop=f.frame_hop, frame_len=f.frame_len,
                      n_fft=f.n_fft)


def save_feature_map(f: FeatureMap, path) -> None:
    """Write the binary cache: magic, 6 LE uint32 header fields, LE float32."""
    t, m = f.values.shape
    header = FEATURE_MAGIC + struct.pack(
        "<6I", FEATURE_VERSION, t, m, f.frame_hop, f.frame_len, f.n_fft)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f4").tobytes())


def load_feature_map(path) -> FeatureMap:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise DataError(f"missing feature file: {path}") from None
    hdr_len = len(FEATURE_MAGIC) + 24
    if len(blob) < hdr_len or blob[:len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise DataError(f"not a feature cache file: {path}")
    version, t, m, hop, frame_len, n_fft = struct.unpack(
        "<6I", blob[len(FEATURE_MAGIC):hdr_len])
    if version != FEATURE_VERSION:
        raise DataError(f"feature cache version mismatch in {path}: {version}")
    expected = hdr_len + 4 * t * m
    if len(blob) != expected:
        raise DataError(
            f"feature cache size mismatch in {path}: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob[hdr_len:], dtype="<f4").reshape(t, m).copy()
    return FeatureMap(values=values, frame_hop=hop, frame_len=frame_len, n_fft=n_fft)
