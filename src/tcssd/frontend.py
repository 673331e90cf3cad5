"""Waveform ingestion and feature extraction upstream of the speaker encoder.

Covers PCM WAV loading, energy-based silence trimming, log mel filterbank
extraction, SpecAugment masking, duration cropping, and the binary feature
cache format.  All operations are pure functions of their inputs; randomness
always comes from an explicit seed.
"""

from __future__ import annotations

import functools
import io
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .files import read_bytes, write_bytes

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
# Frames per second at the 10 ms hop, the rate of every cached map: one with
# no audio provenance (hop 0, e.g. simulated trajectories) runs at it too.
FRAME_RATE = SAMPLE_RATE / FRAME_HOP

# Silence trimming: 2048-sample frames every 512 samples.
TRIM_FRAME_LEN = 2048
TRIM_HOP = 512

FEATURE_MAGIC = b"TCSSD-FEA"
FEATURE_VERSION = 1


@dataclass
class FeatureMap:
    """T x M feature matrix (log mel energies, or any cached T x M map) and
    its frame hop in samples; hop 0 marks a map with no audio provenance."""

    values: np.ndarray
    frame_hop: int = FRAME_HOP


@dataclass
class AugmentPolicy:
    """SpecAugment masking policy; zero-width masks make it a no-op."""

    n_freq_masks: int = 1
    max_freq_width: int = 8
    n_time_masks: int = 1
    max_time_width: int = 10

    def __post_init__(self):  # the time width's bound is the crop's: ``train`` checks it
        for key, ok, need in (("n_freq_masks", self.n_freq_masks >= 0, "at least 0"),
                              ("max_freq_width", 0 <= self.max_freq_width <= N_MELS,
                               f"in [0, N_MELS = {N_MELS}]"),
                              ("n_time_masks", self.n_time_masks >= 0, "at least 0"),
                              ("max_time_width", self.max_time_width >= 0, "at least 0")):
            if not ok:
                raise DataError(f"augment.{key} must be {need}, got {getattr(self, key)}")


def load_waveform(path) -> np.ndarray:
    """Read a 16 kHz mono PCM16 WAV file into float samples in [-1, 1]."""
    try:
        wav = wave.open(io.BytesIO(read_bytes(path, "file")), "rb")
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
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def save_waveform(samples: np.ndarray, path) -> None:
    """Write samples as 16 kHz mono PCM16 WAV (values clipped to [-1, 1])."""
    clipped = np.clip(samples, -1.0, 1.0)
    ints = np.round(clipped * 32767.0).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(ints.tobytes())
    write_bytes(path, buf.getvalue())


def trim_boundaries(samples: np.ndarray, top_db: float = 40.0) -> tuple[int, int]:
    """Sample indices (start, end) of the non-silent span of a waveform.

    Frames (TRIM_FRAME_LEN samples, hop TRIM_HOP) are centered with zero
    padding; a frame is silent when its RMS power is more than ``top_db``
    below the loudest frame.  The span starts at the first non-silent frame
    index times the hop, and ends after the last one, capped at the signal
    length.  An all-zero signal is all silence and yields an empty span.
    """
    y = np.asarray(samples, dtype=np.float64)
    n = y.shape[0]
    if n == 0:
        raise DataError("empty waveform")
    pad = TRIM_FRAME_LEN // 2
    power = np.zeros(n + 2 * pad)
    power[pad:pad + n] = y * y
    frames = np.lib.stride_tricks.sliding_window_view(power, TRIM_FRAME_LEN)[::TRIM_HOP]
    mse = np.mean(frames, axis=1)
    ref = mse.max()
    if ref <= 0.0:
        return 0, 0
    amin = 1e-10
    db = 10.0 * np.log10(np.maximum(mse, amin) / max(ref, amin))
    nonsilent = np.flatnonzero(db > -top_db)
    if nonsilent.size == 0:
        return 0, 0
    start = int(nonsilent[0]) * TRIM_HOP
    end = min(n, (int(nonsilent[-1]) + 1) * TRIM_HOP)
    return start, end


def trim_silence(samples: np.ndarray, top_db: float = 40.0) -> np.ndarray:
    """Remove leading and trailing silence; the interior is untouched.

    Returns an empty array when every frame is below threshold; the caller
    decides what an empty utterance means.
    """
    start, end = trim_boundaries(samples, top_db=top_db)
    return np.array(samples[start:end])


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters (N_MELS x N_FFT//2+1), HTK scale, MEL_FMIN to MEL_FMAX."""
    mel_pts = np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, N_FFT // 2 + 1))
    for i in range(N_MELS):
        lo, center, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


def frame_count(n_samples: int) -> int:
    return (n_samples - FRAME_LEN) // FRAME_HOP + 1


@functools.cache
def _fbank_constants() -> tuple[np.ndarray, np.ndarray]:
    """The Hamming window and the mel filterbank, read-only.  Built on first
    use, not at import: building them touches numpy kernels worth ~0.7 MB
    of resident memory, which a process that computes no FBank never needs."""
    window, fb = np.hamming(FRAME_LEN), mel_filterbank()
    window.flags.writeable = fb.flags.writeable = False
    return window, fb


def compute_fbank(samples: np.ndarray) -> FeatureMap:
    """80-bin log mel filterbank: 400-sample Hamming frames, hop 160, 512 FFT.

    The magnitude spectrum of each frame passes through triangular mel
    filters; energies are floored at 1e-6 before the natural log.  The
    window and the filterbank are read-only module constants
    (``_fbank_constants``), built once per process instead of on every call.
    """
    y = np.asarray(samples, dtype=np.float64)
    n = y.shape[0]
    if n < FRAME_LEN:
        raise DataError(f"waveform too short for FBank: {n} < {FRAME_LEN} samples")
    window, fb = _fbank_constants()
    frames = np.lib.stride_tricks.sliding_window_view(y, FRAME_LEN)[::FRAME_HOP] * window
    spec = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
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
    return FeatureMap(values=out, frame_hop=f.frame_hop)


def random_crop(f: FeatureMap, min_dur: float = 2.0, max_dur: float = 4.0,
                seed: int = 0) -> FeatureMap:
    """Contiguous slice of uniform duration in [min_dur, max_dur] seconds
    at FRAME_RATE frames per second.

    Inputs shorter than min_dur are wrap-padded (repeating from the start)
    to exactly min_dur; the drawn duration is capped at the input length,
    so an input of at most min_dur comes out the same for every seed, and
    only a longer one seeds a generator.  A crop that lies inside the
    input is a view of it: callers must not write into the result
    (``spec_augment`` copies).
    """
    t = f.values.shape[0]
    if t == 0:
        raise DataError("empty feature map")
    min_frames = int(round(min_dur * FRAME_RATE))
    max_frames = int(round(max_dur * FRAME_RATE))
    if t < min_frames:
        values = np.take(f.values, np.arange(min_frames), axis=0, mode="wrap")
    elif t == min_frames:
        values = f.values
    else:
        rng = np.random.default_rng(seed)
        length = min(int(rng.integers(min_frames, max_frames + 1)), t)
        start = int(rng.integers(0, t - length + 1))
        values = f.values[start:start + length]
    return FeatureMap(values=values, frame_hop=f.frame_hop)


def save_feature_map(f: FeatureMap, path) -> None:
    """Write the binary cache: magic, 6 LE uint32 header fields (version, T,
    M, hop, frame length, FFT size), LE float32.  Frame length and FFT size
    are ``compute_fbank``'s FRAME_LEN and N_FFT, or 0 for a hop-0 map; any
    other hop, and any value that is not finite as float32, is refused before
    writing, as ``load_feature_map`` would refuse it."""
    if f.frame_hop not in (FRAME_HOP, 0):
        raise DataError(f"feature map hop {f.frame_hop} cannot be cached: only "
                        f"{FRAME_HOP} and 0 load")
    with np.errstate(over="ignore"):  # a float32 overflow is refused just below
        values = np.ascontiguousarray(f.values, dtype="<f4")
    if not np.isfinite(values).all():
        raise DataError(f"non-finite values in feature map for {path}")
    t, m = values.shape
    frame_len, n_fft = (FRAME_LEN, N_FFT) if f.frame_hop else (0, 0)
    header = FEATURE_MAGIC + struct.pack(
        "<6I", FEATURE_VERSION, t, m, f.frame_hop, frame_len, n_fft)
    write_bytes(path, header + values.tobytes())


def load_feature_map(path) -> FeatureMap:
    blob = read_bytes(path, "feature file")
    hdr_len = len(FEATURE_MAGIC) + 24
    if len(blob) < hdr_len or blob[:len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise DataError(f"not a feature cache file: {path}")
    version, t, m, *framing = struct.unpack("<6I", blob[len(FEATURE_MAGIC):hdr_len])
    if version != FEATURE_VERSION:
        raise DataError(f"feature cache version mismatch in {path}: {version}")
    if tuple(framing) not in ((FRAME_HOP, FRAME_LEN, N_FFT), (0, 0, 0)):
        raise DataError(f"feature cache {path} has (hop, frame length, FFT size) "
                        f"{tuple(framing)}; only ({FRAME_HOP}, {FRAME_LEN}, {N_FFT}) "
                        "and (0, 0, 0) load")
    if t == 0:
        raise DataError(f"empty feature map: {path}")
    expected = hdr_len + 4 * t * m
    if len(blob) != expected:
        raise DataError(
            f"feature cache size mismatch in {path}: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob[hdr_len:], dtype="<f4").reshape(t, m).copy()
    if not np.isfinite(values).all():
        raise DataError(f"non-finite values in feature file: {path}")
    return FeatureMap(values=values, frame_hop=framing[0])
