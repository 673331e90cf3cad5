"""Text framing and atomic replacement for every file the package writes.

Text inputs skip blank and ``#`` lines; text outputs put ``# `` headers
first.  Every output goes to a ``<path>.tmp`` sibling that replaces
``path`` only once complete, so an interrupted write leaves any previous
file intact.  (Checkpoint directories swap on their own, in checkpoint.py.)
"""

from __future__ import annotations

import os

from .errors import DataError


def read_lines(path, what: str) -> list[tuple[int, str]]:
    """(line number, stripped text) for each non-blank, non-'#' line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"missing {what} file: {path}") from None
    return [(lineno, text) for lineno, line in enumerate(lines, start=1)
            if (text := line.strip()) and not text.startswith("#")]


def write_bytes(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary sibling."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only after a failed write
            os.remove(tmp)


def write_text(path, lines, header_lines=()) -> None:
    """Write '# '-prefixed header lines, then ``lines``, one per line."""
    text = "".join(f"# {line}\n" for line in header_lines)
    text += "".join(f"{line}\n" for line in lines)
    write_bytes(path, text.encode())
