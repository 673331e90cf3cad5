"""One workload process: run tcssd CLI stages in-process and time them.

Usage: python3 child.py PLAN.json

PLAN.json holds ``root`` (the checkout), ``reps`` (a list of repetitions,
each a pair of set-up and measured stage lists of ``tcssd`` argument
vectors, every one writing to its own directory), ``min_reps``,
``budget_s``, ``trace`` (bool) and ``out`` (result path).  Each stage runs
through ``tcssd.cli.main(argv)``, the entry point of the ``tcssd`` command,
with its stdout captured.  Repetitions run in order; after ``min_reps`` the
process starts the next one only while it is expected to end within
``budget_s`` of process start, and it stops at the first failed stage.
The result records every stage's exit code, wall time and stdout, and per
repetition its wall time (set-up stages through the last stage);
``setup_s`` (process start, before ``import tcssd``, to the end of the
first repetition's set-up stages); peak RSS; and, when traced, the span
report of ``tracer.Tracer``.
"""

from time import perf_counter

T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def stage_label(argv: list[str]) -> str:
    """``train --cm 1 ...`` -> ``train_cm1``; ``fuse ...`` -> ``fuse``."""
    if "--cm" in argv:
        return f"{argv[0]}_cm{argv[argv.index('--cm') + 1]}"
    return argv[0]


def run_stage(main, argv, tracer):
    label = stage_label(argv)
    buf = io.StringIO()
    if tracer is not None:
        tracer.stage = label
        tracer.enter()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crashing stage is recorded as failed, not fatal
        traceback.print_exc()
        rc = -1
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.exit(f"cli.main.{label}")
    return {"label": label, "argv": argv, "rc": rc, "seconds": seconds,
            "stdout": buf.getvalue()}


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    from tcssd.cli import main as tcssd_main

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    reps = []
    setup_s = None
    for setup, stages in plan["reps"]:
        start = perf_counter()
        rows = [run_stage(tcssd_main, argv, tracer) for argv in setup]
        if setup_s is None:
            setup_s = perf_counter() - T0
        rows += [run_stage(tcssd_main, argv, tracer) for argv in stages]
        seconds = perf_counter() - start
        reps.append({"seconds": seconds, "stages": rows})
        if any(row["rc"] != 0 for row in rows):
            break
        # Start another repetition only if one more like this one still fits.
        if (len(reps) >= plan["min_reps"]
                and perf_counter() - T0 + seconds > plan["budget_s"]):
            break
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = dict(tracer.report(), span_cost_s=tracer.span_cost())
    with open(plan["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
