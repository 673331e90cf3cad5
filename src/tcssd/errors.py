"""Exception types shared across the package."""


class TcssdError(Exception):
    """Base class for all package errors."""


class DataError(TcssdError):
    """Bad input data: malformed files, shape mismatches, invalid values."""


class CheckpointError(DataError):
    """Corrupt or inconsistent checkpoint directory."""


class TrainingError(TcssdError):
    """Training aborted (e.g. non-finite loss)."""


def refuse_unless(section: str, cfg, *rules) -> None:
    """Raise a DataError at the first ``(key, ok, need)`` rule that fails,
    naming ``<section>.<key>``, what it must be and its value in ``cfg``."""
    for key, ok, need in rules:
        if not ok:
            raise DataError(f"{section}.{key} must be {need}, got {getattr(cfg, key)}")
