"""Same-bytes check: run one fixed list of tcssd commands against two source
trees and compare every output file and every command's output by sha256.

Usage (from the root of a checkout):

    python3 tools/samebytes.py OLD NEW [--tiny]

OLD and NEW are source trees holding ``src/tcssd``, or git revisions of
this checkout, which are extracted into a temporary directory first.  Each
tree runs the whole list in one fresh directory, in its own process with
``PYTHONPATH=<tree>/src``, calling ``tcssd.cli.main`` once per command.
The list covers:

* the README desk recipe at two seeds: ``simulate``, ``train`` for both
  countermeasures, ``score`` at batch sizes 1, 7, 32 and the whole
  protocol, ``fuse``, ``evaluate`` of every score file, and both analyses;
  also cm2 trained from the cm1 checkpoint and scored at batch size 32;
* the audio lane on WAVs written by ``perfbench/workloads.write_wav_split``:
  ``trim``, ``extract``, frontend-toy with SpecAugment, cm1 and cm2 with
  and without ``--init-ckpt`` of the frontend, cm2 from the initialised
  cm1 checkpoint, their scores, and both analyses;
* ``count-params`` and ``flops`` at both presets.

A cm1 checkpoint holds a head that a cm2 run neither checks nor keeps, so
the two cm2-from-cm1 runs compare what a run takes from an init
checkpoint of another system.

One line per output file and per command (exit code, stdout and stderr)
says ``same`` or ``DIFF`` with the sha256 prefixes, or names the tree that
lacks it, and a ``FAILED`` line names each command that exited non-zero;
the last line is the summary.  Exit status 0 means every item was the
same and every command succeeded.  ``--tiny`` shrinks every size for a
quick self-check.  At the default sizes, with the two trees running at
once, a check takes about 45 s on two vCPUs.  The generated inputs come
from this checkout, so both trees read the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIZES = {
    "default": {"n_per_class": 100, "steps": 200, "wavs_per_class": 10,
                "wav_dur": (1.0, 3.0), "audio_steps": 5},
    "tiny": {"n_per_class": 3, "steps": 2, "wavs_per_class": 2,
             "wav_dur": (0.5, 0.8), "audio_steps": 1},
}
SEEDS = (7, 13)          # train seeds; each eval set is drawn at seed + 992
AUDIO_SEED = 7


def commands(inputs: str, sizes: dict) -> list[list[str]]:
    """The fixed command list, with paths relative to the run directory
    except the generated inputs under ``inputs``."""
    n, steps = str(sizes["n_per_class"]), ["--steps", str(sizes["steps"])]
    cmds = []
    for seed in SEEDS:
        s, d = str(seed), f"sim{seed}"
        tr = ["--protocol", f"{d}/train/protocol.txt", "--features", f"{d}/train/features"]
        ev = ["--protocol", f"{d}/eval/protocol.txt", "--features", f"{d}/eval/features"]
        cmds += [["simulate", "--out", f"{d}/train", "--seed", s, "--n-per-class", n],
                 ["simulate", "--out", f"{d}/eval", "--seed", str(seed + 992),
                  "--n-per-class", n]]
        for cm in ("1", "2"):
            cmds.append(["train", "--cm", cm, *tr, "--out", f"{d}/ck{cm}", "--seed", s,
                         *steps])
            for batch in ("1", "7", "32", str(2 * sizes["n_per_class"])):
                cmds.append(["score", "--cm", cm, *ev, "--ckpt", f"{d}/ck{cm}/final",
                             "--out", f"{d}/cm{cm}_b{batch}.tsv", "--seed", s,
                             "--batch-size", batch])
        # cm2 from the cm1 checkpoint, whose head the run neither checks nor keeps
        cmds += [["train", "--cm", "2", *tr, "--out", f"{d}/ck2from1", "--seed", s, *steps,
                  "--init-ckpt", f"{d}/ck1/final"],
                 ["score", "--cm", "2", *ev, "--ckpt", f"{d}/ck2from1/final",
                  "--out", f"{d}/cm2from1_b32.tsv", "--seed", s, "--batch-size", "32"]]
        cmds += [["fuse", "--a", f"{d}/cm1_b32.tsv", "--b", f"{d}/cm2_b32.tsv",
                  "--w", "0.5", "--out", f"{d}/fused.tsv"],
                 ["fuse", "--a", f"{d}/cm1_b1.tsv", "--b", f"{d}/cm2_b1.tsv",
                  "--w", "0.3", "--normalize", "znorm", "--out", f"{d}/fused_z.tsv"]]
        cmds += [["evaluate", "--scores", f"{d}/{f}", "--protocol", f"{d}/eval/protocol.txt"]
                 for f in ("cm1_b32.tsv", "cm2_b32.tsv", "fused.tsv", "fused_z.tsv")]
        cmds += [["analyze-tc", "--features", f"{d}/eval/features/SIM_T_000000.fea",
                  "--k", "4", "--seed", s, "--out", f"{d}/tc.txt"],
                 ["analyze-dist", *ev, "--ckpt", f"{d}/ck2/final", "--out", f"{d}/dist.tsv"]]

    def wavs(split):
        wav_dir = os.path.join(inputs, f"wav_{split}")
        return [os.path.join(wav_dir, f) for f in sorted(os.listdir(wav_dir))]

    s, a_steps = str(AUDIO_SEED), ["--steps", str(sizes["audio_steps"])]
    tr = ["--protocol", os.path.join(inputs, "train_protocol.txt"),
          "--features", "audio/fea_train"]
    ev = ["--protocol", os.path.join(inputs, "eval_protocol.txt"),
          "--features", "audio/fea_eval"]
    cmds += [["extract", "--wav", *wavs("train"), "--out", "audio/fea_train"],
             ["extract", "--wav", *wavs("eval"), "--out", "audio/fea_eval"],
             ["trim", "--top-db", "40", wavs("eval")[0], "audio/trimmed.wav"],
             ["train", "--cm", "frontend-toy", *tr, "--out", "audio/fe", "--seed", s,
              *a_steps, "--set", "train.augment=true"]]
    for cm in ("1", "2"):
        for init, name in (([], f"ck{cm}"), (["--init-ckpt", "audio/fe/final"], f"ck{cm}i")):
            cmds.append(["train", "--cm", cm, *tr, "--out", f"audio/{name}", "--seed", s,
                         *a_steps, *init])
            for batch in ("1", "32"):
                cmds.append(["score", "--cm", cm, *ev, "--ckpt", f"audio/{name}/final",
                             "--out", f"audio/{name}_b{batch}.tsv", "--seed", s,
                             "--batch-size", batch])
            cmds.append(["evaluate", "--scores", f"audio/{name}_b32.tsv",
                         "--protocol", ev[1]])
    cmds += [["train", "--cm", "2", *tr, "--out", "audio/ck2from1", "--seed", s, *a_steps,
              "--init-ckpt", "audio/ck1i/final"],
             ["score", "--cm", "2", *ev, "--ckpt", "audio/ck2from1/final",
              "--out", "audio/ck2from1_b32.tsv", "--seed", s, "--batch-size", "32"]]
    first_eval = os.path.splitext(os.path.basename(wavs("eval")[0]))[0]
    cmds += [["analyze-tc", "--wav", wavs("eval")[0], "--ckpt", "audio/fe/final",
              "--k", "4", "--seg-dur", "0.2", "--seed", s, "--out", "audio/tc_wav.txt"],
             ["analyze-tc", "--features", f"audio/fea_eval/{first_eval}.fea", "--k", "4",
              "--seg-dur", "0.2", "--seed", s, "--out", "audio/tc_fea.txt"],
             ["analyze-dist", *ev, "--ckpt", "audio/fe/final", "--out", "audio/dist.tsv"]]
    for preset in ("toy", "full"):
        cmds += [["count-params", "--preset", preset],
                 ["flops", "--preset", preset, "--duration", "3"]]
    return cmds


def write_inputs(inputs: str, sizes: dict) -> None:
    """The audio lane's WAVs and protocols, from perfbench's generator."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for split, code in (("train", 1), ("eval", 2)):
        workloads.write_wav_split(inputs, split, AUDIO_SEED, code,
                                  sizes["wavs_per_class"], sizes["wav_dur"])


def run_list(run_dir: str, list_path: str) -> None:
    """Child side: run each command of the JSON list in ``run_dir`` through
    ``tcssd.cli.main``; print the package path, then one JSON record per
    command (argv, exit code, stdout, stderr)."""
    import tcssd.cli
    with open(list_path) as fh:
        cmds = json.load(fh)
    os.chdir(run_dir)
    records = []
    for argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tcssd.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an uncaught error exits 1 from the CLI
                rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}\n")
        records.append({"argv": argv, "exit": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    print(json.dumps({"package": tcssd.__file__, "records": records}))


def run_tree(tree: str, run_dir: str, list_path: str) -> subprocess.Popen:
    os.makedirs(run_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child",
                             run_dir, list_path], env=env, stdout=subprocess.PIPE,
                            text=True)


def digests(tree: str, run_dir: str, output: str) -> tuple[dict[str, str], list[str]]:
    """sha256 of every file under ``run_dir`` and of every command's record,
    and the commands that exited non-zero."""
    result = json.loads(output)
    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(result["package"]).startswith(src + os.sep):
        sys.exit(f"samebytes: {tree} ran tcssd from {result['package']}")
    out, failed = {}, []
    for i, rec in enumerate(result["records"]):
        argv = rec["argv"]
        targets = [argv[k + 1] for k, flag in enumerate(argv[:-1])
                   if flag in ("--out", "--scores", "--preset")]
        label = f"[{i:02d} {' '.join([argv[0], *targets])}]"
        text = f"exit={rec['exit']}\n{rec['stdout']}\n--stderr--\n{rec['stderr']}"
        out[label] = hashlib.sha256(text.encode()).hexdigest()
        if rec["exit"] != 0:
            failed.append(f"{label} exit {rec['exit']}: {rec['stderr'].strip()}")
    for base, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out, failed


def source_tree(spec: str, work: str, label: str) -> str:
    """``spec`` itself if it is a directory, else that git revision of this
    checkout extracted under ``work``."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", spec, "src"],
                          capture_output=True, check=True).stdout
    dest = os.path.join(work, f"tree_{label}")
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def compare(old: str, new: str, work: str, sizes: dict) -> int:
    """Run both trees, print a verdict per item and the summary; the exit
    status, 0 when every item is the same and every command exited 0."""
    inputs = os.path.join(work, "inputs")
    write_inputs(inputs, sizes)
    list_path = os.path.join(work, "commands.json")
    with open(list_path, "w") as fh:
        json.dump(commands(inputs, sizes), fh)
    trees = {"old": source_tree(old, work, "old"), "new": source_tree(new, work, "new")}
    runs = {side: os.path.join(work, f"run_{side}") for side in trees}
    procs = {side: run_tree(trees[side], runs[side], list_path) for side in trees}
    outputs = {side: proc.communicate()[0] for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode:
            sys.exit(f"samebytes: the {side} tree's run failed (exit {proc.returncode})")
    (old_d, old_failed), (new_d, new_failed) = (
        digests(trees[side], runs[side], outputs[side]) for side in ("old", "new"))
    for side, failed in (("old", old_failed), ("new", new_failed)):
        for line in failed:
            print(f"FAILED    {side}: {line}")
    counts = {"same": 0, "DIFF": 0, "only": 0}
    for item in sorted(set(old_d) | set(new_d)):
        a, b = old_d.get(item), new_d.get(item)
        if a is None or b is None:
            counts["only"] += 1
            print(f"only-{'old' if b is None else 'new'}  {(a or b)[:16]}  {item}")
        elif a == b:
            counts["same"] += 1
            print(f"same      {a[:16]}  {item}")
        else:
            counts["DIFF"] += 1
            print(f"DIFF      {a[:16]} {b[:16]}  {item}")
    n_cmds = sum(item.startswith("[") for item in set(old_d) | set(new_d))
    total = sum(counts.values())
    n_failed = len(old_failed) + len(new_failed)
    print(f"samebytes: {counts['same']} of {total} same, {counts['DIFF']} differ, "
          f"{counts['only']} in one tree only ({total - n_cmds} files, "
          f"{n_cmds} command outputs); {n_failed} command runs failed")
    return 0 if counts["same"] == total and not n_failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source tree or git revision")
    parser.add_argument("new", help="source tree or git revision")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes_") as work:
        return compare(args.old, args.new, work, SIZES["tiny" if args.tiny else "default"])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_list(*sys.argv[2:4])
    else:
        sys.exit(main())
