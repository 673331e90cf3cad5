"""Shared oracles and utilities for the test suite."""

import re
import shlex
from pathlib import Path

import numpy as np

from tcssd import files
from tcssd.cm_temporal import Cm1Net
from tcssd.encoder import EncoderConfig


def numeric_grad(loss_fn, params, name, eps=1e-6):
    """Central finite differences of loss_fn w.r.t. params[name]."""
    base = params[name]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = base[idx]
        base[idx] = old + eps
        lp = loss_fn()
        base[idx] = old - eps
        lm = loss_fn()
        base[idx] = old
        grad[idx] = (lp - lm) / (2 * eps)
    return grad


def assert_grads_close(loss_fn, params, analytic, names, eps=1e-6,
                       rtol=1e-4, atol=5e-8):
    """Check analytic gradients against central finite differences.

    Passes when |analytic - numeric| <= atol + rtol * max|numeric| per
    tensor; atol absorbs finite-difference noise on zero gradients.
    """
    for name in names:
        num = numeric_grad(loss_fn, params, name, eps=eps)
        err = np.abs(analytic[name] - num).max()
        scale = np.abs(num).max()
        assert err <= atol + rtol * scale, (
            f"{name}: max err {err:.3e} vs scale {scale:.3e}")


def rank_auc(positive, negative):
    """Mann-Whitney AUC: P(pos > neg) + 0.5 * P(pos == neg)."""
    pos = np.asarray(positive, dtype=np.float64)
    neg = np.asarray(negative, dtype=np.float64)
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def brute_force_eer(bonafide, spoof):
    """O(n^2) midpoint-sweep EER in plain Python: the independent oracle.

    Same convention as the implementation: thresholds at +/-inf and all
    midpoints of adjacent sorted unique scores; FRR = #bonafide < t;
    FAR = #spoof >= t; EER = (FAR + FRR) / 2 at min |FAR - FRR|, ties to
    the lower threshold.
    """
    bona = sorted(float(s) for s in bonafide)
    spf = sorted(float(s) for s in spoof)
    uniq = sorted(set(bona) | set(spf))
    thresholds = [float("-inf")]
    for a, b in zip(uniq[:-1], uniq[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(float("inf"))
    best = None
    for t in thresholds:
        frr = sum(1 for s in bona if s < t) / len(bona)
        far = sum(1 for s in spf if s >= t) / len(spf)
        diff = abs(far - frr)
        if best is None or diff < best[0]:
            best = (diff, (far + frr) / 2.0, t)
    return best[1], best[2]


def assert_directional_grads_close(loss_fn, params, analytic, names, rng,
                                   n_dirs=3, eps=1e-6, rtol=1e-6, atol=1e-7):
    """Check analytic gradients along random unit directions v per tensor.

    Compares <analytic, v> with (L(p + eps v) - L(p - eps v)) / (2 eps):
    two loss evaluations per direction instead of two per element, for
    graphs too large to sweep element by element.  A unit-norm step moves
    each pre-activation by ~eps, so ReLU kinks are almost never crossed.
    Passes when the error is within atol + rtol * ||analytic||; atol
    absorbs finite-difference noise on zero gradients.
    """
    for name in names:
        base = params[name]
        for _ in range(n_dirs):
            v = rng.standard_normal(base.shape)
            v /= np.linalg.norm(v)
            old = base.copy()
            base[...] = old + eps * v
            lp = loss_fn()
            base[...] = old - eps * v
            lm = loss_fn()
            base[...] = old
            num = (lp - lm) / (2 * eps)
            ana = float((analytic[name] * v).sum())
            scale = np.linalg.norm(analytic[name])
            assert abs(ana - num) <= atol + rtol * scale, (
                f"{name}: directional {ana:.6e} vs numeric {num:.6e} "
                f"(gradient norm {scale:.3e})")


def gru_final_state(diffs, params, cfg):
    """Final hidden state of CM1's recurrence over one (T-1) x D sequence."""
    net = Cm1Net(cfg, EncoderConfig(mfa_dim=diffs.shape[-1]))
    h_seq, _ = net.gru.forward(params, diffs[None])
    return h_seq[0, -1]


class HalfWriteFile:
    """Writes half of each blob through to the real file, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def fail_writes_halfway(monkeypatch):
    """Make every write through ``tcssd.files`` stop halfway with OSError."""
    monkeypatch.setattr(files, "open", lambda *a, **k: HalfWriteFile(open(*a, **k)),
                        raising=False)


README = Path(__file__).resolve().parents[1] / "README.md"
DESK_RECIPE = "The desk-scale recipe"


def readme_blocks(lang):
    """(heading, text) of each fenced block of README.md whose fence names
    ``lang`` ("" for a bare fence), under the ``## `` heading it follows."""
    text = README.read_text()
    blocks = []
    for m in re.finditer(r"^```(\w*)\n(.*?)^```", text, re.M | re.S):
        if m.group(1) == lang:
            headings = re.findall(r"^## (.+)$", text[:m.start()], re.M)
            blocks.append((headings[-1] if headings else "", m.group(2)))
    return blocks


def shell_commands(block):
    """The commands of a fenced ``sh`` block as word lists: ``\\``
    continuations joined, ``#`` comments and blank lines dropped."""
    return [words for line in block.replace("\\\n", " ").splitlines()
            if (words := shlex.split(line, comments=True))]


def desk_recipe():
    """The ``tcssd`` argument lists of README.md's desk-scale recipe block."""
    blocks = [text for heading, text in readme_blocks("sh") if heading == DESK_RECIPE]
    assert len(blocks) == 1, (f"README.md: expected one sh block under "
                              f"'## {DESK_RECIPE}', found {len(blocks)}")
    commands = shell_commands(blocks[0])
    other = [" ".join(words) for words in commands if words[0] != "tcssd"]
    assert commands and not other, (f"README.md, {DESK_RECIPE}: every line must be "
                                    f"a tcssd command, got {other or 'none'}")
    return [words[1:] for words in commands]
