"""The stage-peaks report (``tools/stagepeaks.py``) at tiny sizes: one line per
stage of one benchmark repetition, in order, with its figures."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGEPEAKS = os.path.join(ROOT, "tools", "stagepeaks.py")

LABELS = {
    "sim_recipe": ["simulate", "simulate", "train_cm1", "train_cm2", "score_cm1",
                   "score_cm2", "fuse", "evaluate", "evaluate", "evaluate"],
    "fbank_cm2": ["extract", "extract", "train_cm2", "score_cm2", "evaluate"],
}


@pytest.mark.parametrize("workload", sorted(LABELS))
def test_one_line_per_stage_with_its_peaks(workload, tmp_path):
    proc = subprocess.run([sys.executable, STAGEPEAKS, workload, "--tiny"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:2] == ["stage", "exit"]
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == LABELS[workload]
    assert all(row[1] == "0" for row in rows)
    peaks, rss = [float(row[2]) for row in rows], [float(row[3]) for row in rows]
    assert all(p > 0 for p in peaks)
    assert rss == sorted(rss) and rss[0] > 0  # the process's peak so far
    assert not os.listdir(tmp_path)
