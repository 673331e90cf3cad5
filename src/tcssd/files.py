"""One reader for every input file, text framing, and atomic replacement
for every file the package writes.

An input that cannot be read, or text that is not UTF-8, is a one-line
``DataError`` naming the file.  Text inputs skip blank and ``#`` lines;
text outputs put ``# `` headers first.  Every output goes to a
``<path>.tmp`` sibling that replaces ``path`` only once complete, so an
interrupted write leaves any previous file intact.  An output path that
cannot be made is a one-line ``TcssdError`` naming it.  (Checkpoint
directories swap on their own, in checkpoint.py.)
"""

from __future__ import annotations

import io
import os

from .errors import DataError, TcssdError


def read_bytes(path, what: str) -> bytes:
    """The contents of ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"missing {what}: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None


def read_lines(path, what: str) -> list[tuple[int, str]]:
    """(line number, stripped text) for each non-blank, non-'#' line, with
    universal newlines: LF, CR LF and CR each end a line."""
    try:
        text = read_bytes(path, f"{what} file").decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path} is not UTF-8 text "
                        f"(byte {exc.start})") from None
    lines = io.StringIO(text, newline=None).readlines()
    return [(lineno, text) for lineno, line in enumerate(lines, start=1)
            if (text := line.strip()) and not text.startswith("#")]


def _output(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its OSError is a one-line error naming
    the output ``path``."""
    try:
        return make(*args, **kwargs)
    except OSError as exc:
        raise TcssdError(f"cannot write {path}: {exc.strerror}") from None


def make_dir(path) -> None:
    """Make output directory ``path``, and its parents, where missing."""
    _output(path, os.makedirs, path, exist_ok=True)


def write_bytes(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary sibling.  A path
    that cannot be created or replaced is a one-line error naming it; a
    write that fails midway raises its OSError."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with _output(path, open, tmp, "wb") as fh:
            fh.write(data)
        _output(path, os.replace, tmp, path)
    finally:
        if os.path.exists(tmp):  # only after a failed write
            os.remove(tmp)


def write_text(path, lines, header_lines=()) -> None:
    """Write '# '-prefixed header lines, then ``lines``, one per line."""
    text = "".join(f"# {line}\n" for line in header_lines)
    text += "".join(f"{line}\n" for line in lines)
    write_bytes(path, text.encode())
