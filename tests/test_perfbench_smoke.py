"""The benchmark harness still runs against the package sources.

``perfbench/smoke.py`` runs every workload at a tiny size, untraced and
traced.  The traced runs wrap each callable named in
``perfbench/tracer.py`` and read the positional arguments of
``Gru.forward(params, x)`` and ``Gru.backward(params, caches, dh_seq,
grads)``, so renaming a traced function or reordering those arguments
breaks the benchmark; this test catches that in the ordinary suite.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np

from tcssd.checkpoint import save_checkpoint
from tcssd.cli import main
from tcssd.config import toy_config
from tcssd.frontend import N_MELS, FeatureMap, save_feature_map
from tcssd.training import build_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_runs():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]


def _traced_calls(argv):
    """Run ``tcssd argv`` under perfbench's tracer; (exit code, calls by
    traced name)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rc = main(argv)
    finally:
        tracer.uninstall()
    return rc, {name: int(v[0]) for (_, name), v in tracer.stats.items()}


def test_traced_cm1_training_names_stay_on_the_hot_path(tmp_path, capsys):
    """The tracer wraps ``Adam.step`` and ``Cm1Net.forward``/``backward`` on
    their classes by name, so a call through another name (an alias such as
    ``backward_embed = backward``) would bypass the span and silently zero
    its per-layer metric; this pins them through a tiny cm1 ``train``."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "4"]) == 0
    rc, calls = _traced_calls(["train", "--cm", "1", "--protocol",
                               str(sim / "protocol.txt"), "--features",
                               str(sim / "features"), "--out", str(tmp_path / "ck"),
                               "--steps", "3"])
    assert rc == 0
    assert calls.get("training.Adam.step") == 3, calls
    assert calls.get("cm_temporal.Cm1Net.forward", 0) > 0, calls
    assert calls.get("cm_temporal.Cm1Net.backward", 0) > 0, calls


def test_traced_cm2_names_stay_on_the_hot_path(tmp_path, capsys):
    """CM2's traced time is read from ``Cm2Net.forward_tail`` (by name, from
    the class's own ``__dict__``) and its FBank lane from
    ``FrontendNet.forward_features``.  The smoke check does not require
    either to be non-zero, so a refactor that routes around them would
    silently zero those metrics; this pins them through a tiny ``score``."""
    cfg = toy_config()
    save_checkpoint(build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=0), tmp_path / "ck")
    rng = np.random.default_rng(0)
    lengths = [30, 30, 30, 25]  # at --batch-size 2: chunks of 2, 1 and 1 maps
    (tmp_path / "p.txt").write_text("".join(
        f"S u{i} - {'-' if i % 2 else 'A01'} {'bonafide' if i % 2 else 'spoof'}\n"
        for i in range(len(lengths))))
    for kind, width in (("fbank", N_MELS), ("speaker", cfg.encoder.mfa_dim)):
        fea = tmp_path / kind
        fea.mkdir()
        for i, t in enumerate(lengths):
            values = rng.standard_normal((t, width)).astype(np.float32)
            save_feature_map(FeatureMap(values=values), fea / f"u{i}.fea")
        rc, calls = _traced_calls(["score", "--cm", "2", "--protocol",
                                   str(tmp_path / "p.txt"), "--features", str(fea),
                                   "--ckpt", str(tmp_path / "ck"), "--out",
                                   str(tmp_path / f"{kind}.tsv"), "--batch-size", "2"])
        assert rc == 0
        assert calls.get("cm_distribution.Cm2Net.forward_tail") == 3, calls
        assert calls.get("encoder.FrontendNet.forward_features", 0) == (
            3 if kind == "fbank" else 0), calls
