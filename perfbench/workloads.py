"""The benchmark workloads: seeded inputs and the CLI stages they run.

``prepare`` writes a workload's generated inputs (WAVs and protocols)
under ``work/inputs`` before any timing, and returns a ``Plan`` of
``tcssd`` command lines.  ``Plan.stages(rep_dir)`` gives the set-up
stages (feature preparation) and the measured stages of one repetition,
with every output placed under ``rep_dir``, so repetitions never share
outputs.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000

# Sizes of the workloads as documented; the smoke check passes smaller ones.
# One repetition takes 2-4 s, so a run holds 10-20.  An untraced run adds
# set-up-only processes before and after the full one.
SIZES = {
    "sim_recipe": {"n_per_class": 100, "eval_n_per_class": 25, "steps": 20,
                   "setups_before": 4, "setups_after": 4},
    "fbank_cm2": {"n_per_class": 15, "dur": (1.5, 5.0), "steps": 20,
                  "setups_before": 4, "setups_after": 4},
}


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: str
    sizes: dict

    def eval_protocol(self, rep_dir: str) -> str:
        if self.workload == "sim_recipe":
            return os.path.join(rep_dir, "sim_eval", "protocol.txt")
        return os.path.join(self.inputs, "eval_protocol.txt")

    def stages(self, rep_dir: str) -> tuple[list[list[str]], list[list[str]]]:
        """(set-up stages, measured stages), all writing under ``rep_dir``."""
        return _STAGES[self.workload](self, rep_dir)


def prepare(workload: str, seed: int, work: str, sizes: dict | None = None) -> Plan:
    sizes = dict(SIZES[workload], **(sizes or {}))
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    plan = Plan(workload, seed, inputs, sizes)
    if workload == "fbank_cm2":
        for split, code in (("train", 1), ("eval", 2)):
            write_wav_split(inputs, split, seed, code, sizes["n_per_class"],
                            sizes["dur"])
    return plan


# -- stage lists --------------------------------------------------------------

def _steps(plan):
    return ["--steps", str(plan.sizes["steps"])]


def _sim_recipe(plan, rep):
    s = str(plan.seed)
    n = str(plan.sizes["n_per_class"])
    n_eval = str(plan.sizes["eval_n_per_class"])
    tr, ev = os.path.join(rep, "sim_train"), os.path.join(rep, "sim_eval")
    tr_args = ["--protocol", f"{tr}/protocol.txt", "--features", f"{tr}/features"]
    ev_args = ["--protocol", f"{ev}/protocol.txt", "--features", f"{ev}/features"]
    setup = [
        ["simulate", "--out", tr, "--seed", s, "--n-per-class", n],
        # README pairs train seed 7 with eval seed 999: a distinct eval draw.
        ["simulate", "--out", ev, "--seed", str(plan.seed + 992),
         "--n-per-class", n_eval],
    ]
    out = lambda name: os.path.join(rep, name)  # noqa: E731
    stages = [
        ["train", "--cm", "1", *tr_args, "--out", out("ck1"), "--seed", s, *_steps(plan)],
        ["train", "--cm", "2", *tr_args, "--out", out("ck2"), "--seed", s, *_steps(plan)],
        ["score", "--cm", "1", *ev_args, "--ckpt", out("ck1/final"),
         "--out", out("cm1.tsv"), "--seed", s],
        ["score", "--cm", "2", *ev_args, "--ckpt", out("ck2/final"),
         "--out", out("cm2.tsv"), "--seed", s],
        ["fuse", "--a", out("cm1.tsv"), "--b", out("cm2.tsv"), "--w", "0.5",
         "--out", out("fused.tsv")],
    ] + [["evaluate", "--scores", out(f), "--protocol", f"{ev}/protocol.txt"]
         for f in ("cm1.tsv", "cm2.tsv", "fused.tsv")]
    return setup, stages


def _extract(plan, split, rep):
    wav_dir = os.path.join(plan.inputs, f"wav_{split}")
    wavs = [os.path.join(wav_dir, f) for f in sorted(os.listdir(wav_dir))]
    return ["extract", "--wav", *wavs, "--out", os.path.join(rep, f"fea_{split}")]


def _fbank_cm2(plan, rep):
    s = str(plan.seed)
    out = lambda name: os.path.join(rep, name)  # noqa: E731
    ev_proto = plan.eval_protocol(rep)
    setup = [_extract(plan, "train", rep), _extract(plan, "eval", rep)]
    stages = [
        ["train", "--cm", "2",
         "--protocol", os.path.join(plan.inputs, "train_protocol.txt"),
         "--features", out("fea_train"), "--out", out("ck2"), "--seed", s,
         *_steps(plan)],
        ["score", "--cm", "2", "--protocol", ev_proto, "--features", out("fea_eval"),
         "--ckpt", out("ck2/final"), "--out", out("cm2.tsv"), "--seed", s],
        ["evaluate", "--scores", out("cm2.tsv"), "--protocol", ev_proto],
    ]
    return setup, stages


_STAGES = {"sim_recipe": _sim_recipe, "fbank_cm2": _fbank_cm2}


# -- generated inputs ---------------------------------------------------------

def synth_utterance(rng: np.random.Generator, dur: float, bonafide: bool) -> np.ndarray:
    """Harmonic voiced tone with a syllable-rate envelope and a noise floor.

    Bonafide pitch follows a slow random walk (a few tens of percent over an
    utterance); spoof pitch stays fixed, the audio analogue of the
    simulator's drifting vs. constant speaker state.
    """
    n = int(dur * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(90.0, 220.0)
    if bonafide:
        walk = np.cumsum(rng.normal(0.0, 0.01, size=n // 160 + 2))
        f0_t = f0 * np.exp(np.interp(np.arange(n), np.arange(walk.size) * 160, walk))
    else:
        f0_t = np.full(n, f0)
    phase = 2 * np.pi * np.cumsum(f0_t) / SAMPLE_RATE
    # Six partials with 1/k amplitudes, by sin(kp) = 2cos(p)sin((k-1)p) - sin((k-2)p).
    two_cos = 2.0 * np.cos(phase)
    s_prev, s_k = np.zeros(n), np.sin(phase)
    x = s_k.copy()
    for k in range(2, 7):
        s_prev, s_k = s_k, two_cos * s_k - s_prev
        x += s_k / k
    rate = rng.uniform(3.0, 5.0)
    x = x * (0.6 + 0.4 * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    x = x + 0.02 * rng.standard_normal(n)
    return 0.3 * x / np.max(np.abs(x))


def write_wav(path: str, samples: np.ndarray) -> None:
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(path, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(ints.tobytes())


def write_wav_split(inputs: str, split: str, seed: int, split_code: int,
                    n_per_class: int, dur_range: tuple[float, float]) -> None:
    """WAVs under ``inputs/wav_<split>`` plus ``inputs/<split>_protocol.txt``."""
    rng = np.random.default_rng([seed, split_code])
    wav_dir = os.path.join(inputs, f"wav_{split}")
    os.makedirs(wav_dir, exist_ok=True)
    lo, hi = dur_range
    # Evenly spaced durations in a seeded order: every seed gives the same
    # total audio, so run-to-run differences are timing, not workload size.
    spaced = lo + (hi - lo) * (np.arange(n_per_class) + 0.5) / n_per_class
    lines = []
    for key in ("bonafide", "spoof"):
        for i, dur in enumerate(rng.permutation(spaced)):
            utt = f"WAV_{split.upper()}_{key[0].upper()}_{i:04d}"
            write_wav(os.path.join(wav_dir, f"{utt}.wav"),
                      synth_utterance(rng, dur, key == "bonafide"))
            attack = "-" if key == "bonafide" else "SYN01"
            lines.append(f"SYNSPK {utt} - {attack} {key}\n")
    with open(os.path.join(inputs, f"{split}_protocol.txt"), "w") as fh:
        fh.writelines(lines)
