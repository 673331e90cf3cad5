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
from .cm_temporal import Cm1Config, toy_cm1_config
from .encoder import EncoderConfig, toy_encoder_config
from .errors import DataError
from .files import read_lines
from .frontend import AugmentPolicy
from .training import AamConfig, TrainConfig, toy_train_config


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0   # the run's one seed: initialization, batches, crops, simulation
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    cm1: Cm1Config = field(default_factory=Cm1Config)
    train: TrainConfig = field(default_factory=TrainConfig)
    aam: AamConfig = field(default_factory=AamConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    sim: SimConfig = field(default_factory=SimConfig)


def toy_config() -> RunConfig:
    return RunConfig(encoder=toy_encoder_config(), cm1=toy_cm1_config(),
                     train=toy_train_config())


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
            top_updates["seed"] = int(value)
            continue
        section, _, fname = key.partition(".")
        if section not in _SECTIONS or not fname:
            raise DataError(f"unknown config key '{key}'")
        sub = getattr(cfg, section)
        field_types = {f.name: f.type for f in dataclasses.fields(sub)}
        if fname not in field_types:
            raise DataError(f"unknown config key '{key}'")
        current = getattr(sub, fname)
        try:
            section_updates[section][fname] = _coerce(value, type(current))
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
