"""The shared file layer: atomic writes, comment-skipping readers, and the
rule that only files.py and checkpoint.py open files for writing."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import tcssd
from helpers import fail_writes_halfway
from tcssd.analysis import SimilarityMatrix, write_projection, write_similarity_matrix
from tcssd.config import parse_config_file
from tcssd.errors import DataError
from tcssd.frontend import FeatureMap, save_feature_map, save_waveform
from tcssd.scoring import TrialRecord, parse_protocol, read_scores, serialize_protocol


def _protocol(path, n):
    serialize_protocol([TrialRecord("S", f"u{i}", "-", "bonafide") for i in range(n)],
                       path)


def _feature_map(path, n):
    values = np.arange(n * 3, dtype=np.float32).reshape(n, 3)
    save_feature_map(FeatureMap(values=values, frame_hop=160), path)


def _waveform(path, n):
    save_waveform(np.linspace(-0.5, 0.5, 100 * n), path)


def _projection(path, n):
    write_projection([f"u{i}" for i in range(n)], np.arange(2.0 * n).reshape(n, 2),
                     ["bonafide"] * n, path, header_lines=["prov test"])


def _similarity(path, n):
    m = SimilarityMatrix(values=np.eye(n), segment_times=np.arange(n))
    write_similarity_matrix(m, path, header_lines=["prov test"])


@pytest.mark.parametrize("write", [_protocol, _feature_map, _waveform, _projection,
                                   _similarity])
def test_interrupted_write_keeps_previous_file(write, tmp_path, monkeypatch):
    path = tmp_path / "out"
    write(path, 1)
    before = path.read_bytes()
    fail_writes_halfway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write(path, 5)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    monkeypatch.undo()
    write(path, 5)
    (tmp_path / "ref").mkdir()
    write(tmp_path / "ref" / "out", 5)
    assert path.read_bytes() == (tmp_path / "ref" / "out").read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "ref"]


READERS = [(parse_protocol, "protocol", "S u1 - bonafide",
            "expected 5 fields, got 4"),
           (read_scores, "score", "u1", "expected 'utt_id<TAB>score'"),
           (parse_config_file, "config", "seed", "expected 'key = value'")]


@pytest.mark.parametrize("read, what", [(read, what) for read, what, *_ in READERS])
def test_reader_missing_file(read, what, tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(DataError, match=f"^missing {what} file: {re.escape(str(path))}$"):
        read(path)


@pytest.mark.parametrize("read, what, bad_row, message", READERS)
def test_reader_line_numbers_count_skipped_lines(read, what, bad_row, message, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(f"# comment\n\n  \n{bad_row}\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
        read(path)


def _opens_for_writing(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode may write
    return any(c in mode.value for c in "wax+")


def test_only_files_and_checkpoint_open_for_writing():
    """Every output goes through files.py (or checkpoint.py's directory
    swap), so no other module can leave a partial file behind."""
    offenders = []
    for module in sorted(Path(tcssd.__file__).parent.glob("*.py")):
        if module.name in ("files.py", "checkpoint.py"):
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{module.name}:{node.lineno}")
    assert offenders == []
