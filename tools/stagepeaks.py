"""Stage peaks: the memory each stage of one benchmark repetition peaks at.

Usage (from the root of a checkout):

    python3 tools/stagepeaks.py WORKLOAD [--tiny]

WORKLOAD is a workload of ``perfbench/workloads.py`` (``sim_recipe`` or
``fbank_cm2``).  The script writes the workload's inputs, at seed 3502,
into a temporary directory and runs the set-up and measured stages of
one repetition in this process, each through ``tcssd.cli.main`` with its
stdout captured, as the benchmark's child process does, with one BLAS
thread.  perfbench's modules are imported read-only (no bytecode is
written), and the tcssd package is the one under ``src`` of this
checkout.

One line per stage gives its label and exit code, the tracemalloc peak
above the allocation traced at the stage's start (numpy's arrays and
Python's objects), and the process's peak RSS (``ru_maxrss``) after the
stage.  tracemalloc keeps a record per live allocation, so the RSS
column reads higher than an untraced run's ``peak_rss_mb``: compare it
between trees, not against the benchmark.  ``--tiny`` runs the smoke
check's sizes (``perfbench/smoke.py``), a few seconds in all.  Exit
status 0 means every stage exited 0.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3502  # the workload seed of the stage figures in ROADMAP.md
# One BLAS thread, as the benchmark runs: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import child  # noqa: E402
import smoke  # noqa: E402
import workloads  # noqa: E402
from tcssd.cli import main as tcssd_main  # noqa: E402


def stage_peaks(workload: str, tiny: bool, work: str) -> list[dict]:
    """Run one repetition under ``work``; per stage, its label, exit code,
    tracemalloc peak above its start and ``ru_maxrss`` after it, in MB."""
    plan = workloads.prepare(workload, SEED, work, smoke.TINY[workload] if tiny else None)
    setup, stages = plan.stages(os.path.join(work, "rep"))
    rows = []
    tracemalloc.start()
    try:
        for argv in setup + stages:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            row = child.run_stage(tcssd_main, argv, None)
            rows.append({"label": row["label"], "rc": row["rc"],
                         "peak_mb": (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20,
                         "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    finally:
        tracemalloc.stop()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.SIZES))
    parser.add_argument("--tiny", action="store_true", help="the smoke check's sizes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="stagepeaks_") as work:
        rows = stage_peaks(args.workload, args.tiny, work)
    print(f"{'stage':<12} {'exit':>4} {'traced peak MB':>15} {'ru_maxrss MB':>13}")
    for row in rows:
        print(f"{row['label']:<12} {row['rc']:>4} {row['peak_mb']:>15.2f} "
              f"{row['maxrss_mb']:>13.2f}")
    return 0 if all(row["rc"] == 0 for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
