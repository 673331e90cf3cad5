"""Smoke check: every workload runs at a tiny size and emits the schema.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs each workload untraced and traced with a few utterances and a few
training steps, then checks that the result object has exactly the keys
and metric names of BENCHMARK.json, that every output check passed, and
that the per-layer trace saw the layers each workload must exercise.
Takes well under a minute; prints one line per run and exits non-zero on
the first problem.
"""

from __future__ import annotations

import math
import sys

import run

TINY = {
    "sim_recipe": {"n_per_class": 4, "eval_n_per_class": 4, "steps": 3},
    "fbank_cm2": {"n_per_class": 2, "steps": 2, "dur": (1.0, 2.5)},
}

# Per-layer counters that must be non-zero (or zero) on each workload.
EXPECT = {
    "sim_recipe": {"layers.Gru.forward.calls": True, "analysis.simulate_trajectories.calls": True,
                   "layers.Conv1d.forward.calls": False},
    "fbank_cm2": {"layers.Gru.forward.calls": False, "layers.Conv1d.backward.calls": True,
                  "frontend.random_crop.calls": True},
}


def check(workload: str, trace: bool, spec: dict) -> None:
    out = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY[workload])
    result = out["result"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result["metrics"] = run.select(result["metrics"], declared)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        for name, nonzero in EXPECT[workload].items():
            assert (result["metrics"][name]["value"] > 0) == nonzero, (name, result)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
    print(f"ok {workload} trace={int(trace)} attempted={result['attempted']}")


def main() -> int:
    spec = run.load_spec()
    for workload in TINY:
        for trace in (False, True):
            check(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
