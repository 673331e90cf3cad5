"""tcssd benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim_recipe --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and documented in ``README.md``.
Every process of a run is a fresh ``child.py`` that drives the pipeline
through ``tcssd.cli.main``.  With ``--trace 0`` one full process repeats
the workload, each repetition in a fresh directory, as often as fits in
``--seconds`` between set-up-only processes; the first repetition is its
warm-up.  The run reports the median of the other repetitions' times
and the median set-up time.  With ``--trace 1`` it runs the
workload once with the tracer installed and reports the per-layer
metrics.  Every output is checked; the last line of
stdout is the result object whose metrics are named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: steadier figures on a small shared machine, and
# never more threads than cores.  Set before numpy loads; children inherit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

# Stage labels of child.stage_label, one cli.main span each.
CLI_STAGES = ("simulate", "extract", "train_cm1", "train_cm2", "score_cm1",
              "score_cm2", "fuse", "evaluate")
CHILD_TIMEOUT_S = 150
MIN_FULL_REPS = 3
MAX_FULL_REPS = 40
SCORE_BOUND = 2.0


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


# -- one process ---------------------------------------------------------------

def run_child(plan, proc_dir: str, kind: str, budget_s: float = 0.0
              ) -> tuple[int, dict | None]:
    """Run one workload process: "full", "traced" or "setup" (set-up only).

    A full process repeats the workload, each repetition in its own
    directory, at least ``MIN_FULL_REPS`` times and then while the next
    repetition should end within ``budget_s`` of process start.  Returns
    (stages attempted, result or None when the process produced none).
    """
    n_reps = MAX_FULL_REPS if kind == "full" else 1
    reps = []
    for k in range(n_reps):
        rep_dir = os.path.join(proc_dir, f"rep{k}")
        os.makedirs(rep_dir, exist_ok=True)
        setup, stages = plan.stages(rep_dir)
        reps.append((rep_dir, setup, [] if kind == "setup" else stages))
    spec = {"root": ROOT, "reps": [[setup, stages] for _, setup, stages in reps],
            "min_reps": MIN_FULL_REPS if kind == "full" else 1, "budget_s": budget_s,
            "trace": kind == "traced", "out": os.path.join(proc_dir, "result.json")}
    spec_path = os.path.join(proc_dir, "plan.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # Without a result, count the stages of the first repetition.
    attempted = len(reps[0][1]) + len(reps[0][2])
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.stderr.write(f"workload process exceeded {CHILD_TIMEOUT_S} s\n")
        return attempted, None
    if proc.returncode != 0 or not os.path.exists(spec["out"]):
        sys.stderr.write(proc.stderr)
        return attempted, None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(spec["out"]) as fh:
        result = json.load(fh)
    attempted = sum(len(setup) + len(stages) for _, setup, stages in reps[:len(result["reps"])])
    for (rep_dir, _, _), rep in zip(reps, result["reps"]):
        rep["checks"] = check_stages(plan, rep_dir, rep["stages"])
    return attempted, result


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _protocol_utts(path) -> list[str]:
    with open(path) as fh:
        return [line.split()[1] for line in fh if line.strip()]


def check_scores(path, protocol) -> str | None:
    """Exactly one finite score in [-2, 2] per protocol trial, nothing else."""
    want = set(_protocol_utts(protocol))
    seen = set()
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            utt, score = line.rstrip("\n").split("\t")
            value = float(score)
            if utt in seen or utt not in want:
                return f"{path}: unexpected or duplicate trial {utt}"
            if not (np.isfinite(value) and -SCORE_BOUND <= value <= SCORE_BOUND):
                return f"{path}: score {value} for {utt} outside [-2, 2]"
            seen.add(utt)
    return None if seen == want else f"{path}: {len(want - seen)} trial(s) unscored"


def check_stage(plan, proc_dir, row) -> tuple[str | None, dict]:
    """(problem or None, recorded facts) for one finished stage.  A missing
    or malformed output raises OSError or ValueError."""
    argv = row["argv"]
    if row["rc"] != 0:
        return f"{row['label']} exited {row['rc']}", {}
    cmd = argv[0]
    if cmd == "simulate":
        out = _opt(argv, "--out")
        utts = _protocol_utts(os.path.join(out, "protocol.txt"))
        return None, {"sha256": _sha256(os.path.join(out, "features", f"{u}.fea")
                                        for u in utts)}
    if cmd == "extract":
        out = _opt(argv, "--out")
        wavs = argv[argv.index("--wav") + 1:argv.index("--out")]
        return None, {"sha256": _sha256(
            os.path.join(out, os.path.basename(w)[:-len(".wav")] + ".fea") for w in wavs)}
    if cmd == "train":
        final = os.path.join(_opt(argv, "--out"), "final")
        return None, {"sha256": _sha256(os.path.join(final, n)
                                        for n in ("manifest.json", "weights.bin"))}
    if cmd in ("score", "fuse"):
        out = _opt(argv, "--out")
        protocol = _opt(argv, "--protocol") if cmd == "score" else plan.eval_protocol(proc_dir)
        problem = check_scores(out, protocol)
        return problem, {} if problem else {"sha256": _sha256([out])}
    if cmd == "evaluate":
        lines = [ln for ln in row["stdout"].splitlines() if ln.startswith("EER=")]
        if len(lines) != 1:
            return "evaluate printed no EER= line", {}
        eer, _, threshold = lines[0][len("EER="):].partition("@threshold=")
        return None, {"eer": float(eer), "threshold": float(threshold),
                      "scores": os.path.basename(_opt(argv, "--scores"))}
    return None, {}


def check_stages(plan, proc_dir, rows) -> list[dict]:
    checks = []
    for row in rows:
        try:
            problem, facts = check_stage(plan, proc_dir, row)
        except (OSError, ValueError) as exc:
            problem, facts = f"{row['label']}: bad or missing output: {exc}", {}
        checks.append({"label": row["label"], "problem": problem, **facts})
        if problem:
            sys.stderr.write(f"check failed: {problem}\n")
    return checks


# -- a whole run --------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Run one benchmark run; returns {"result": ..., "detail": ...}."""
    env = environment()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.prepare(workload, seed, work, sizes)
        procs = []

        def run(kind, budget_s=0.0):
            t = time.perf_counter()
            attempted, result = run_child(plan, os.path.join(work, f"proc{len(procs)}"),
                                          kind, budget_s)
            procs.append({"kind": kind, "attempted": attempted, "result": result})
            return time.perf_counter() - t

        if trace:
            run("traced")
        else:
            # Set-up samples before and after the full process, so their
            # median spans the run rather than one moment of it; the full
            # process gets what is left of --seconds after both.
            t_start = time.perf_counter()
            before = [run("setup") for _ in range(plan.sizes["setups_before"])]
            reserve = statistics.mean(before or [0.0]) * plan.sizes["setups_after"]
            run("full", seconds - (time.perf_counter() - t_start) - reserve)
            for _ in range(plan.sizes["setups_after"]):
                run("setup")
        return summarize(workload, seed, trace, env, procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _digests(checks) -> dict[tuple[str, int], str]:
    """sha256 of each output of one repetition, keyed by (stage label,
    occurrence in the repetition)."""
    seen: dict[str, int] = {}
    out = {}
    for c in checks:
        n = seen[c["label"]] = seen.get(c["label"], -1) + 1
        if "sha256" in c:
            out[(c["label"], n)] = c["sha256"]
    return out


def summarize(workload, seed, trace, env, procs) -> dict:
    attempted = sum(p["attempted"] for p in procs)
    done = [p for p in procs if p["result"] is not None]
    reps = [rep for p in done for rep in p["result"]["reps"]]
    failed = attempted - sum(1 for rep in reps for c in rep["checks"] if c["problem"] is None)
    # Outputs must be byte-identical across the repetitions and processes
    # of one run.
    digests: dict[tuple[str, int], set] = {}
    for rep in reps:
        for key, digest in _digests(rep["checks"]).items():
            digests.setdefault(key, set()).add(digest)
    for (label, _), found in sorted(digests.items()):
        if len(found) > 1:
            sys.stderr.write(f"check failed: {label} output differs between repetitions\n")
            failed += 1
    of = lambda *kinds: [p["result"] for p in done if p["kind"] in kinds]  # noqa: E731
    full = of("full")
    correct = failed == 0 and len(done) == len(procs) and bool(of("full", "traced"))

    if trace:
        traced = of("traced")
        metrics = layer_metrics(traced[0]) if traced else {}
    else:
        # The first repetition of a full process is its warm-up.
        warm = [rep["seconds"] for r in full for rep in r["reps"][1:]]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in of("setup", "full")),
            "wall_s": statistics.median(warm),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        } if warm else {}
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "env": env,
        "processes": [{
            "kind": p["kind"], "ok": p["result"] is not None,
            **({} if p["result"] is None else {
                "setup_s": p["result"]["setup_s"],
                "peak_rss_mb": p["result"]["peak_rss_mb"],
                "reps": [{"seconds": rep["seconds"],
                          "stages": [[row["label"], row["seconds"]] for row in rep["stages"]],
                          "checks": rep["checks"]} for rep in p["result"]["reps"]]}),
        } for p in procs],
    }
    return {"result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
            "detail": detail}


def layer_metrics(traced: dict) -> dict:
    """Per-layer figures of a traced repetition, named <module>.<callable>.<stat>."""
    out: dict[str, float] = {}
    spans = traced["trace"]["spans"]
    counters = traced["trace"]["counters"]
    names = [f"{m[len('tcssd.'):]}.{p}" for m, p in TARGETS]
    names += [f"cli.main.{label}" for label in CLI_STAGES]
    for name in names:
        rows = [s for s in spans if s["name"] == name]
        out[f"{name}.calls"] = sum(s["calls"] for s in rows)
        out[f"{name}.self_s"] = sum(s["self_s"] for s in rows)
        out[f"{name}.total_s"] = sum(s["total_s"] for s in rows)
    gru_s = out["layers.Gru.forward.total_s"] + out["layers.Gru.backward.total_s"]
    out["layers.Gru.frames"] = counters.get("layers.Gru.frames", 0)
    out["layers.Gru.gflop_per_s"] = (counters.get("layers.Gru.flops", 0) / gru_s / 1e9
                                     if gru_s > 0 else 0.0)
    padded = counters.get("training.padded_frames", 0)
    out["training.steps"] = counters.get("training.steps", 0)
    out["training.useful_frame_ratio"] = (counters.get("training.useful_frames", 0) / padded
                                          if padded else 0.0)
    for key in ("frontend.load_feature_map.bytes", "checkpoint.save_checkpoint.bytes",
                "checkpoint.load_checkpoint.bytes", "scoring.score_trials.utts"):
        out[key] = counters.get(key, 0)
    # Spans opened times the measured cost of one span.  (Traced minus
    # untraced wall_s swings by seconds on a shared machine; this does not.)
    out["cli.trace_overhead_s"] = (sum(s["calls"] for s in spans)
                                   * traced["trace"]["span_cost_s"])
    return out


# -- entry point --------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(metrics: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, with their declared units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    if result["metrics"]:  # empty only when no warm repetition ran, so not correct
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        result["metrics"] = select(result["metrics"], declared)
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "tcssd", "cli.py")):
        sys.exit(f"no tcssd sources under {os.path.join(ROOT, 'src')}: "
                 "run from the root of a tcssd checkout")
    sys.exit(main())
