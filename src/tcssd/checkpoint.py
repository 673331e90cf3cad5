"""Checkpoint container: named float32 tensors + config + frozen-name set.

On disk a checkpoint is a directory holding ``manifest.json`` (tensor
names, shapes, element offsets, frozen flags, config) and ``weights.bin``
(the packed little-endian float32 blob).  Tensors are stored sorted by
name so identical checkpoints serialize byte-identically.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .files import read_bytes

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


class TensorMap(dict):
    """Tensors by name; reading an absent name raises a CheckpointError
    naming it, so each net's own read is the check of what it needs."""

    def __missing__(self, name):
        raise CheckpointError(f"missing tensor: {name}")


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    frozen_names: set[str] = field(default_factory=set)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tensors = TensorMap(self.tensors)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint directory ``path``, replacing any previous one.

    Both files go to the temporary sibling ``<path>.tmp``, which is moved
    into place only once complete (any previous directory is moved aside to
    ``<path>.old`` first, then removed), so an interrupted save never leaves
    a manifest beside weights it does not describe.
    """
    unknown_frozen = ckpt.frozen_names - set(ckpt.tensors)
    if unknown_frozen:
        raise CheckpointError(
            f"frozen names not in manifest: {', '.join(sorted(unknown_frozen))}")
    entries = []
    offset = 0
    blobs = []
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        entries.append((name, arr.shape, offset, name in ckpt.frozen_names))
        offset += arr.size
        blobs.append(arr.tobytes())
    manifest = _render_manifest(json.dumps(ckpt.config, sort_keys=True), tuple(entries))
    path = os.fspath(path)
    tmp, old = f"{path}.tmp", f"{path}.old"
    shutil.rmtree(tmp, ignore_errors=True)  # left by an interrupted save
    os.makedirs(tmp)
    try:
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as fh:
            fh.write(manifest)
        with open(os.path.join(tmp, WEIGHTS_NAME), "wb") as fh:
            fh.write(b"".join(blobs))
        if os.path.exists(path):
            shutil.rmtree(old, ignore_errors=True)
            os.rename(path, old)
        os.rename(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # only after a failed write
    shutil.rmtree(old, ignore_errors=True)


@functools.lru_cache(maxsize=1)
def _render_manifest(config_json: str, entries: tuple) -> str:
    """``manifest.json``'s text for a compact config dump and (name, shape,
    offset, frozen) entries.  The indented dump runs Python's pure-Python
    encoder, most of a save; a run's checkpoints share one manifest, so
    the last one rendered is kept."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": json.loads(config_json),
        "tensors": [{"name": name, "shape": list(shape), "offset": offset, "frozen": frozen}
                    for name, shape, offset, frozen in entries],
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _valid_entry(entry) -> bool:
    """A tensor entry names a string, a list of sizes and an int offset."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(isinstance(s, int) and s >= 0 for s in entry["shape"])
            and isinstance(entry.get("offset"), int))


def load_checkpoint(path) -> Checkpoint:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    weights_path = os.path.join(path, WEIGHTS_NAME)
    try:
        manifest = json.loads(read_bytes(manifest_path, "manifest"))
    except ValueError as exc:  # not JSON, or not in a JSON encoding
        raise CheckpointError(f"corrupt manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors", []), list):
        raise CheckpointError(
            f"corrupt manifest {manifest_path}: not an object with a tensor list")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch in {path}: {version} != {FORMAT_VERSION}")
    blob = read_bytes(weights_path, "weights blob")
    n_floats = len(blob) // 4
    if len(blob) % 4 != 0:
        raise CheckpointError(f"weights blob in {path} is not a whole number of floats")
    flat = np.frombuffer(blob, dtype="<f4")
    tensors = {}
    frozen = set()
    total = 0
    for entry in manifest.get("tensors", []):
        if not _valid_entry(entry):
            raise CheckpointError(
                f"corrupt manifest {manifest_path}: bad tensor entry {entry!r}")
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if offset < 0 or offset + size > n_floats:
            raise CheckpointError(
                f"truncated blob in {path}: tensor '{name}' needs elements "
                f"[{offset}, {offset + size}) but blob has {n_floats}")
        tensors[name] = flat[offset:offset + size].reshape(shape).copy()
        if entry.get("frozen"):
            frozen.add(name)
        total += size
    if total != n_floats:
        raise CheckpointError(
            f"manifest/blob size mismatch in {path}: manifest covers {total} "
            f"floats, blob has {n_floats}")
    return Checkpoint(tensors=tensors, frozen_names=frozen,
                      config=manifest.get("config", {}))
