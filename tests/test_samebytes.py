"""The same-bytes check (``tools/samebytes.py``) at tiny sizes: a tree against
itself is all-same, and a one-ulp change in a constant is reported."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMEBYTES = os.path.join(ROOT, "tools", "samebytes.py")


def run_samebytes(old, new, cwd):
    proc = subprocess.run([sys.executable, SAMEBYTES, str(old), str(new), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def test_tree_against_itself_is_all_same(tmp_path):
    rc, lines, err = run_samebytes(ROOT, ROOT, tmp_path)
    assert rc == 0, err + "\n".join(lines[-20:])
    verdicts, summary = lines[:-1], lines[-1]
    assert verdicts and all(line.startswith("same ") for line in verdicts)
    n = len(verdicts)
    assert summary.startswith(f"samebytes: {n} of {n} same, 0 differ, 0 in one tree only")
    assert summary.endswith("; 0 command runs failed")
    # every kind of output is covered: checkpoints, score files, command outputs;
    # audio/fe's weights are the only output of the Res2 and concat backward passes
    items = [line.split("  ")[-1] for line in verdicts]
    for name in ("sim7/ck1/final/weights.bin", "sim13/cm2_b1.tsv",
                 "audio/fe/final/manifest.json", "audio/fe/final/weights.bin",
                 "audio/ck2i_b32.tsv", "audio/ck2from1_b32.tsv", "sim7/cm2from1_b32.tsv",
                 "audio/trimmed.wav", "audio/dist.tsv"):
        assert name in items, name
    commands = {item.strip("[]").split()[1] for item in items if item.startswith("[")}
    assert commands == {"simulate", "train", "score", "fuse", "evaluate", "analyze-tc",
                        "analyze-dist", "extract", "trim", "count-params", "flops"}
    assert not os.listdir(tmp_path)


def test_one_ulp_constant_change_is_reported(tmp_path):
    """The fused score's second weight ``1.0 - w`` moved by one ulp changes
    the last printed digits of the fused score files, and nothing else."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scoring = tree / "src" / "tcssd" / "scoring.py"
    text = scoring.read_text()
    assert text.count("(1.0 - w)") == 1
    scoring.write_text(text.replace("(1.0 - w)", "(1.0000000000000002 - w)"))
    rc, lines, err = run_samebytes(ROOT, tree, tmp_path)
    assert rc == 1, err
    diffs = [line.split()[-1] for line in lines if line.startswith("DIFF ")]
    assert "sim7/fused.tsv" in diffs and "sim13/fused.tsv" in diffs, lines[-1]
    assert all(name.endswith(".tsv") and "/fused" in name for name in diffs), diffs
    assert f", {len(diffs)} differ, 0 in one tree only" in lines[-1]
