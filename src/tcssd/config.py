"""Merged run configuration with a flat dotted-key text format.

A config file holds ``section.field = value`` lines (``#`` comments
allowed); ``--set`` overrides file values, which override the preset, and
the ``--seed`` and ``train --steps`` flags override all three.  The
effective configuration, flags included, hashes into every output's
provenance header.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace

from .analysis import SimConfig
from .cm_temporal import Cm1Config
from .encoder import EncoderConfig
from .errors import DataError
from .files import read_lines
from .frontend import AugmentPolicy
from .training import AamConfig, TrainConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0   # the run's one seed: initialization, batches, crops, simulation
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    cm1: Cm1Config = field(default_factory=Cm1Config)
    train: TrainConfig = field(default_factory=TrainConfig)
    aam: AamConfig = field(default_factory=AamConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be at least 0, got {self.seed}")


def toy_config() -> RunConfig:
    """Desk-scale preset used by the simulator pipeline and the tests.

    CM1: frame differences of simulated trajectories are tiny (~0.05), so
    the input weights start 5x larger and the carry gate starts mostly open
    (bias +3, ~20-frame memory); otherwise a 200-step budget is spent
    learning to amplify and integrate before any discrimination happens.
    Training: small batches, a short warmup and 200 steps, with a little
    weight decay to rein in overfitting to a 200-utterance corpus.
    """
    return RunConfig(
        encoder=EncoderConfig(channels=16, mfa_dim=24, embed_dim=32, att_dim=8),
        cm1=Cm1Config(hidden=32, fc1_out=64, fc2_out=32, input_gain=5.0,
                      carry_bias=3.0),
        train=TrainConfig(epochs=30, batch_size=32, base_lr=1e-2, warmup_steps=20,
                          max_steps=200, weight_decay=1e-3))


PRESETS = {"full": RunConfig, "toy": toy_config}

_SECTIONS = [f.name for f in dataclasses.fields(RunConfig) if f.name != "seed"]


def parse_config_file(path) -> dict[str, str]:
    flat = {}
    for lineno, text in read_lines(path, "config"):
        if "=" not in text:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        flat[key.strip()] = value.strip()
    return flat


def _coerce(value: str, target_type):
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value}")
    # remaining case: tuple of ints (block dilations)
    return tuple(int(v) for v in value.replace(",", " ").split())


def apply_flat_overrides(cfg: RunConfig, flat: dict[str, str]) -> RunConfig:
    section_updates: dict[str, dict] = {s: {} for s in _SECTIONS}
    top_updates: dict = {}
    for key, value in flat.items():
        if key == "seed":
            updates, fname, current = top_updates, key, cfg.seed
        else:
            section, _, fname = key.partition(".")
            sub = getattr(cfg, section) if section in _SECTIONS else None
            if sub is None or fname not in {f.name for f in dataclasses.fields(sub)}:
                raise DataError(f"unknown config key '{key}'")
            updates, current = section_updates[section], getattr(sub, fname)
        try:
            updates[fname] = _coerce(value, type(current))
        except ValueError as exc:
            raise DataError(f"bad value for '{key}': {exc}") from None
    new_sections = {s: replace(getattr(cfg, s), **updates) if updates
                    else getattr(cfg, s)
                    for s, updates in section_updates.items()}
    return replace(cfg, **top_updates, **new_sections)


def flat_dict(cfg: RunConfig) -> dict[str, str]:
    flat = {"seed": str(cfg.seed)}
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in dataclasses.fields(sub):
            value = getattr(sub, f.name)
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            flat[f"{section}.{f.name}"] = text
    return flat


def config_hash(cfg: RunConfig) -> str:
    canonical = "\n".join(f"{k}={v}" for k, v in sorted(flat_dict(cfg).items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
