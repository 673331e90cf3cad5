"""The benchmark harness still runs against the package sources.

``perfbench/smoke.py`` runs every workload at a tiny size, untraced and
traced.  The traced runs wrap each callable named in
``perfbench/tracer.py`` and read the positional arguments of
``Gru.forward(params, x)`` and ``Gru.backward(params, caches, dh_seq,
grads)``, so renaming a traced function or reordering those arguments
breaks the benchmark; this test catches that in the ordinary suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_runs():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
