"""Outside-in span tracer for the tcssd pipeline.

``Tracer.install()`` replaces each public function or method listed in
``TARGETS`` with a wrapper that opens a ``perf_counter`` span around the
call.  The package binds many functions with ``from .x import f``, so a
function is replaced in its defining module *and* in every ``tcssd``
module that holds the same object under that name (``tcssd.cli`` calls
``load_checkpoint`` through its own binding, ``Gru.forward`` looks up
``tcssd.layers.sigmoid``).  Methods are replaced on the class.

Spans are aggregated in memory, keyed by (stage, name): calls, total time,
and self time, which is the total minus the time of the spans nested
directly inside.  A few wrappers also record work counters (bytes moved,
GRU frames and FLOPs, crop lengths).  Nothing is written until ``report``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path) of every traced callable.  The metric name is
# "<module without the tcssd. prefix>.<attribute path>".
TARGETS = [
    ("tcssd.layers", "sigmoid"),
    ("tcssd.layers", "Gru.forward"),
    ("tcssd.layers", "Gru.backward"),
    ("tcssd.layers", "Conv1d.forward"),
    ("tcssd.layers", "Conv1d.backward"),
    ("tcssd.layers", "ChannelNorm.forward"),
    ("tcssd.layers", "ChannelNorm.backward"),
    ("tcssd.layers", "SERes2Block.forward"),
    ("tcssd.layers", "SERes2Block.backward"),
    ("tcssd.layers", "SEGate.forward"),
    ("tcssd.layers", "SEGate.backward"),
    ("tcssd.layers", "AttentiveStatsPool.forward"),
    ("tcssd.layers", "AttentiveStatsPool.backward"),
    ("tcssd.layers", "Linear.forward"),
    ("tcssd.layers", "Linear.backward"),
    ("tcssd.encoder", "FrontendNet.forward_features"),
    ("tcssd.encoder", "FrontendNet.backward_features"),
    ("tcssd.encoder", "encode_features"),
    ("tcssd.cm_temporal", "Cm1Net.forward"),
    ("tcssd.cm_temporal", "Cm1Net.backward"),
    ("tcssd.cm_temporal", "cm1_score"),
    ("tcssd.cm_distribution", "Cm2Net.forward_tail"),
    ("tcssd.cm_distribution", "Cm2Net.backward_tail"),
    ("tcssd.cm_distribution", "cm2_score"),
    ("tcssd.cm_distribution", "cm2_score_features"),
    ("tcssd.training", "train"),
    ("tcssd.training", "Adam.step"),
    ("tcssd.training", "aam_softmax_loss"),
    ("tcssd.training", "build_checkpoint"),
    ("tcssd.frontend", "compute_fbank"),
    ("tcssd.frontend", "load_feature_map"),
    ("tcssd.frontend", "save_feature_map"),
    ("tcssd.frontend", "random_crop"),
    ("tcssd.checkpoint", "save_checkpoint"),
    ("tcssd.checkpoint", "load_checkpoint"),
    ("tcssd.scoring", "score_trials"),
    ("tcssd.scoring", "compute_eer"),
    ("tcssd.scoring", "fuse_scores"),
    ("tcssd.scoring", "read_scores"),
    ("tcssd.scoring", "write_scores"),
    ("tcssd.analysis", "simulate_trajectories"),
]


def _ckpt_bytes(ckpt) -> int:
    return sum(int(t.nbytes) for t in ckpt.tensors.values())


class Tracer:
    def __init__(self):
        self.stage = ""
        self.stats: dict[tuple[str, str], list[float]] = {}  # calls, total, self
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []   # [start, child time] per open span
        self._crops: list[tuple[int, int]] = []  # (real, returned) frames per crop
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        end = perf_counter()
        start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        entry = self.stats.setdefault((self.stage, name), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, fn):
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if on_result is not None:
                on_result(self, args, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import tcssd.cli  # noqa: F401  (loads every module the CLI uses)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tcssd" or n.startswith("tcssd.")]
        for mod_name, path in TARGETS:
            owner = sys.modules[mod_name]
            name = f"{mod_name[len('tcssd.'):]}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self.span(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, path)
            wrapped = self.span(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)

    def _replace(self, owner, attr, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    @staticmethod
    def span_cost(n: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op function."""
        def noop():
            return None
        wrapped = Tracer().span("noop", noop)
        start = perf_counter()
        for _ in range(n):
            noop()
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(n):
            wrapped()
        return max(perf_counter() - start - plain, 0.0) / n

    # -- output ------------------------------------------------------------

    def report(self) -> dict:
        """Spans as {"stage": ..., "name": ..., "calls", "total_s", "self_s"}
        rows plus the work counters."""
        spans = [{"stage": stage, "name": name, "calls": int(v[0]),
                  "total_s": v[1], "self_s": v[2]}
                 for (stage, name), v in sorted(self.stats.items())]
        return {"spans": spans, "counters": dict(sorted(self.counters.items()))}


# -- work counters, recorded after the span has closed ----------------------

def _on_gru(backward):
    """Model FLOPs of one Gru call: Gru.flops(T) per sequence, times B;
    backward is counted as twice the forward."""
    def record(tracer, args, result):
        gru, x = args[0], args[3] if backward else args[2]  # (B, T, .)
        b, t = x.shape[0], x.shape[1]
        if not backward:
            tracer.count("layers.Gru.frames", b * t)
        tracer.count("layers.Gru.flops", gru.flops(t) * b * (2 if backward else 1))
    return record


def _on_random_crop(tracer, args, result):
    # Real frames in the crop (wrap-padding a short input adds none) and
    # the frames it occupies.
    tracer._crops.append((min(args[0].values.shape[0], result.values.shape[0]),
                          result.values.shape[0]))


def _on_adam_step(tracer, args, result):
    # One optimizer step closes one batch, whose rows are all padded to the
    # longest crop: the batch costs B * max(len) frames of compute.
    crops = tracer._crops
    if crops:
        tracer.count("training.useful_frames", sum(real for real, _ in crops))
        tracer.count("training.padded_frames",
                     len(crops) * max(length for _, length in crops))
    tracer._crops = []
    tracer.count("training.steps", 1)


def _on_load_feature_map(tracer, args, result):
    tracer.count("frontend.load_feature_map.bytes", result.values.nbytes)


def _on_save_checkpoint(tracer, args, result):
    tracer.count("checkpoint.save_checkpoint.bytes", _ckpt_bytes(args[0]))


def _on_load_checkpoint(tracer, args, result):
    tracer.count("checkpoint.load_checkpoint.bytes", _ckpt_bytes(result))


def _on_score_trials(tracer, args, result):
    tracer.count("scoring.score_trials.utts", len(result.entries))


_ON_RESULT = {
    "layers.Gru.forward": _on_gru(backward=False),
    "layers.Gru.backward": _on_gru(backward=True),
    "frontend.random_crop": _on_random_crop,
    "training.Adam.step": _on_adam_step,
    "frontend.load_feature_map": _on_load_feature_map,
    "checkpoint.save_checkpoint": _on_save_checkpoint,
    "checkpoint.load_checkpoint": _on_load_checkpoint,
    "scoring.score_trials": _on_score_trials,
}
