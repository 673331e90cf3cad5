"""Command-line entry point.

Subcommands cover the whole pipeline: feature extraction, silence trimming,
training, scoring, fusion, evaluation, the two diagnostic analyses, the
trajectory simulator, and parameter/FLOP reports.  Exit codes: 0 success,
1 usage error, 2 data error.  Every run is deterministic given --seed, and
every primary output carries a provenance header (version, config hash,
seed); binary outputs get a sidecar ``provenance.txt`` or a line on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

import numpy as np

from . import __version__
from .analysis import (SEGMENT_FRAMES_DEFAULT, pca_project, simulate_trajectories,
                       tc_similarity_matrix_features, tc_statistic,
                       write_projection, write_similarity_matrix)
from .checkpoint import load_checkpoint
from .config import (PRESETS, RunConfig, apply_flat_overrides, config_hash,
                     parse_config_file)
from .cm_distribution import Cm2Net
from .cm_temporal import Cm1Net
from .encoder import (FrontendNet, count_parameters, describe_frontend,
                      estimate_flops)
from .errors import TcssdError
from .files import make_dir, write_text
from .frontend import (FRAME_RATE, compute_fbank, frame_count, load_feature_map,
                       load_waveform, save_feature_map, save_waveform, trim_silence,
                       wav_sample_count)
from .scoring import (DEFAULT_SCORE_BATCH, TrialRecord, compute_eer,
                      embed_trials, fuse_scores, parse_protocol, read_scores,
                      score_trials, serialize_protocol, write_scores)
from .training import LABEL_BONAFIDE, LABEL_SPOOF, TrainItem, checkpoint_configs, train

# Reference figures reported for the full-scale systems (trainable
# parameters and FLOPs); the gate-arithmetic counts differ, see the note.
REPORTED_PARAMS = {"cm1": "32.37 M", "cm2": "6.57 M", "fusion": "38.94 M"}
REPORTED_FLOPS = {"cm1": "24.67 G", "cm2": "8.51 G", "fusion": "28.49 G"}
PARAM_DISCREPANCY_NOTE = (
    "note: gate arithmetic over the documented tensor shapes gives the exact "
    "counts above; the published reference figures do not decompose over the "
    "described architecture (about 3 M unaccounted for cm1) and are shown "
    "for comparison only, not forced to agree.")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcssd", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, handler, config=False):
        """A subcommand with --seed, plus the config flags if it reads the config."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, config=None, preset="toy", set=[])
        p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", default=None, help="flat key=value config file")
            p.add_argument("--preset", choices=sorted(PRESETS), default="toy")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="inline config override (repeatable)")
        return p

    p = add("extract", "compute FBank feature caches from WAV files", _cmd_extract)
    p.add_argument("--wav", nargs="+", required=True, help="input WAV file(s)")
    p.add_argument("--out", required=True, help="output feature directory")

    p = add("trim", "remove leading/trailing silence from a WAV file", _cmd_trim)
    p.add_argument("--top-db", type=float, default=40.0)
    p.add_argument("input")
    p.add_argument("output")

    p = add("train", "train a countermeasure or the toy frontend", _cmd_train,
            config=True)
    p.add_argument("--cm", required=True, choices=["1", "2", "frontend-toy"])
    p.add_argument("--protocol", required=True)
    p.add_argument("--features", required=True, help="feature cache directory")
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.add_argument("--init-ckpt", default=None)
    p.add_argument("--steps", type=int, default=None, help="sets train.max_steps")

    p = add("score", "score every trial of a protocol", _cmd_score)
    p.add_argument("--cm", required=True, choices=["1", "2"])
    p.add_argument("--protocol", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=DEFAULT_SCORE_BATCH,
                   help="equal-length utterances embedded per batch")

    p = add("fuse", "weighted score-level fusion of two score files", _cmd_fuse)
    p.add_argument("--a", dest="file_a", required=True)
    p.add_argument("--b", dest="file_b", required=True)
    p.add_argument("--w", type=float, default=0.5)
    p.add_argument("--normalize", choices=["none", "minmax", "znorm"], default="none")
    p.add_argument("--out", required=True)

    p = add("evaluate", "equal error rate of a score file against a protocol",
            _cmd_evaluate)
    p.add_argument("--scores", required=True)
    p.add_argument("--protocol", required=True)

    p = add("analyze-tc", "intra-utterance similarity matrix of segment embeddings",
            _cmd_analyze_tc)
    p.add_argument("--wav", default=None)
    p.add_argument("--features", default=None, help="feature cache file")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seg-dur", type=float, default=SEGMENT_FRAMES_DEFAULT / FRAME_RATE,
                   help="segment seconds")
    p.add_argument("--out", required=True)

    p = add("analyze-dist", "2-D projection of inter-utterance embeddings",
            _cmd_analyze_dist)
    p.add_argument("--protocol", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)

    p = add("simulate", "generate labeled synthetic trajectories + protocol",
            _cmd_simulate, config=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, default=100)

    add("count-params", "trainable-parameter report", _cmd_count_params, config=True)

    p = add("flops", "FLOP estimate report", _cmd_flops, config=True)
    p.add_argument("--duration", type=float, default=4.0,
                   help="input duration in seconds")

    return parser


def _effective_config(args) -> RunConfig:
    """Preset < config file < --set < --seed and --steps, merged into one
    override before the config is built, so the hash covers all of them.
    A command without the config flags gets the toy preset and its seed."""
    flat = parse_config_file(args.config) if args.config else {}
    for item in args.set:
        key, _, value = item.partition("=")
        if not value:
            raise TcssdError(f"--set expects KEY=VALUE, got '{item}'")
        flat[key.strip()] = value.strip()
    flags = {"seed": args.seed, "train.max_steps": getattr(args, "steps", None)}
    flat.update((key, str(value)) for key, value in flags.items() if value is not None)
    return apply_flat_overrides(PRESETS[args.preset](), flat)


def _provenance(args, cfg: RunConfig) -> list[str]:
    return [f"tcssd {__version__} {args.command}",
            f"config={config_hash(cfg)}",
            f"seed={cfg.seed}"]


def _print_provenance(args, cfg: RunConfig) -> None:
    for line in _provenance(args, cfg):
        print(f"# {line}")


def _load_items(protocol_path, feature_dir):
    items = []
    for r in parse_protocol(protocol_path):
        fea = os.path.join(feature_dir, f"{r.utt_id}.fea")
        label = LABEL_BONAFIDE if r.key == "bonafide" else LABEL_SPOOF
        items.append(TrainItem(utt_id=r.utt_id, label=label,
                               features=load_feature_map(fea)))
    return items


def _cmd_extract(args, cfg):
    sources = {}
    for wav_path in args.wav:
        stem = os.path.splitext(os.path.basename(wav_path))[0]
        if stem in sources:
            raise TcssdError(f"stem '{stem}' of {wav_path} already comes from "
                             f"{sources[stem]}; both would write {stem}.fea")
        sources[stem] = wav_path
    for wav_path in sources.values():  # every input is read and checked before --out is made
        n = wav_sample_count(wav_path)
        if frame_count(n) < 1:
            raise TcssdError(f"waveform too short for FBank: {wav_path} has {n} samples, "
                             "less than one frame")
    make_dir(args.out)
    for stem, wav_path in sources.items():
        f = compute_fbank(load_waveform(wav_path))
        save_feature_map(f, os.path.join(args.out, f"{stem}.fea"))
    write_text(os.path.join(args.out, "provenance.txt"), (), _provenance(args, cfg))
    print(f"extracted {len(args.wav)} feature map(s) to {args.out}")


def _cmd_trim(args, cfg):
    if not args.top_db > 0:  # frames are kept above -top_db dB, and none is above 0
        raise TcssdError(f"--top-db must be positive, got {args.top_db}")
    samples = load_waveform(args.input)
    trimmed = trim_silence(samples, top_db=args.top_db)
    if trimmed.size == 0:
        raise TcssdError(f"empty after trim: {args.input}")
    save_waveform(trimmed, args.output)
    _print_provenance(args, cfg)
    print(f"trimmed {args.input}: kept {trimmed.size} of {samples.size} samples")


def _cmd_train(args, cfg):
    cm_id = {"1": "cm1", "2": "cm2"}.get(args.cm, args.cm)
    items = _load_items(args.protocol, args.features)
    init = load_checkpoint(args.init_ckpt) if args.init_ckpt else None
    ckpt, log = train(cm_id, items, cfg, out_dir=args.out, init_ckpt=init)
    write_text(os.path.join(args.out, "provenance.txt"), (), _provenance(args, cfg))
    print(f"trained {cm_id}: {len(log)} steps, "
          f"final loss {log[-1].loss:.6g}, checkpoints in {args.out}")


def _cmd_score(args, cfg):
    cm_id = {"1": "cm1", "2": "cm2"}[args.cm]
    records = parse_protocol(args.protocol)
    ckpt = load_checkpoint(args.ckpt)
    scores = score_trials(cm_id, records, args.features, ckpt,
                          batch_size=args.batch_size)
    write_scores(scores, args.out, header_lines=_provenance(args, cfg))
    print(f"scored {len(scores.entries)} trial(s) with {cm_id} -> {args.out}")


def _cmd_fuse(args, cfg):
    a = read_scores(args.file_a)
    b = read_scores(args.file_b)
    fused = fuse_scores(a, b, w=args.w, normalize=args.normalize)
    write_scores(fused, args.out, header_lines=_provenance(args, cfg))
    print(f"fused {len(fused.entries)} score(s) -> {args.out}")


def _cmd_evaluate(args, cfg):
    records = parse_protocol(args.protocol)
    scores = read_scores(args.scores, records=records)
    result = compute_eer(scores, records)
    _print_provenance(args, cfg)
    print(f"EER={result.eer:.4f}@threshold={result.threshold:.6g}")


def _cmd_analyze_tc(args, cfg):
    if (args.wav is None) == (args.features is None):
        raise TcssdError("analyze-tc needs exactly one of --wav or --features")
    # a --wav window is embedded, and ChannelNorm over one frame embeds every window alike
    shortest = (2 if args.wav is not None else 1) / FRAME_RATE
    if not shortest <= args.seg_dur < np.inf:
        raise TcssdError(f"--seg-dur must be finite and at least {shortest:g} s, "
                         f"got {args.seg_dur}")
    if args.wav is not None:
        if args.ckpt is None:
            raise TcssdError("--wav analysis needs --ckpt for the encoder")
        ckpt = load_checkpoint(args.ckpt)
        values = compute_fbank(load_waveform(args.wav)).values
        embed = lambda w: FrontendNet(checkpoint_configs(ckpt)[0]).embed(ckpt.tensors, w)[0]
    else:
        if args.ckpt is not None:
            raise TcssdError("--features analysis takes frame means and reads no "
                             "checkpoint; drop --ckpt")
        values, embed = load_feature_map(args.features).values, None
    m = tc_similarity_matrix_features(values, args.k, round(args.seg_dur * FRAME_RATE),
                                      cfg.seed, embed)
    mean_od, range_od = tc_statistic(m)
    write_similarity_matrix(m, args.out, header_lines=_provenance(args, cfg))
    print(f"tc_mean={mean_od:.6f} tc_range={range_od:.6f} -> {args.out}")


def _cmd_analyze_dist(args, cfg):
    records = parse_protocol(args.protocol)
    ckpt = load_checkpoint(args.ckpt)
    enc_cfg, _ = checkpoint_configs(ckpt)
    embeddings = np.empty((len(records), enc_cfg.embed_dim))
    for idx, emb in embed_trials(FrontendNet(enc_cfg), records, args.features,
                                 ckpt, enc_cfg, batch_size=1):
        embeddings[idx] = emb
    coords = pca_project(embeddings, out_dim=2)
    write_projection([r.utt_id for r in records], coords,
                     [r.key for r in records], args.out,
                     header_lines=_provenance(args, cfg))
    print(f"projected {len(records)} embedding(s) -> {args.out}")


def _cmd_simulate(args, cfg):
    simulated = simulate_trajectories(cfg.sim, args.n_per_class, cfg.seed)
    fea_dir = os.path.join(args.out, "features")
    make_dir(fea_dir)
    records = []
    for utt, f, key in simulated:
        save_feature_map(f, os.path.join(fea_dir, f"{utt}.fea"))
        attack = "-" if key == "bonafide" else "SIM01"
        records.append(TrialRecord(speaker_id="SIMSPK", utt_id=utt,
                                   attack_id=attack, key=key))
    serialize_protocol(records, os.path.join(args.out, "protocol.txt"))
    write_text(os.path.join(args.out, "provenance.txt"), (), _provenance(args, cfg))
    print(f"simulated {len(records)} utterance(s) -> {args.out}")


def _param_report(cfg) -> list[str]:
    counts = {"cm1": count_parameters(Cm1Net(cfg.cm1, cfg.encoder).layers()),
              "cm2": count_parameters(Cm2Net(cfg.encoder).layers())}
    counts["fusion"] = counts["cm1"] + counts["cm2"]
    lines = []
    for name in ("cm1", "cm2", "fusion"):
        lines.append(f"{name} trainable parameters: {counts[name]:,} "
                     f"(reported reference: {REPORTED_PARAMS[name]})")
    frontend = count_parameters(describe_frontend(cfg.encoder))
    lines.append(f"frontend parameters (frozen during countermeasure training): "
                 f"{frontend:,}")
    lines.append(PARAM_DISCREPANCY_NOTE)
    return lines


def _cmd_count_params(args, cfg):
    _print_provenance(args, cfg)
    for line in _param_report(cfg):
        print(line)


def _cmd_flops(args, cfg):
    fe = estimate_flops(describe_frontend(cfg.encoder), args.duration)
    f1 = estimate_flops(Cm1Net(cfg.cm1, cfg.encoder).layers(), args.duration)
    f2 = estimate_flops(Cm2Net(cfg.encoder).layers(), args.duration)
    _print_provenance(args, cfg)
    print(f"duration: {args.duration} s")
    print(f"frontend FLOPs: {fe:,}")
    print(f"cm1 FLOPs (frontend + head): {fe + f1:,} "
          f"(reported reference: {REPORTED_FLOPS['cm1']})")
    print(f"cm2 FLOPs (frozen part + retrained tail): {fe + f2:,} "
          f"(reported reference: {REPORTED_FLOPS['cm2']})")
    print(f"fusion FLOPs: {fe + f1 + f2:,} "
          f"(reported reference: {REPORTED_FLOPS['fusion']})")


# glibc's mallopt parameters (malloc.h) and the values ``main`` sets them to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_THRESHOLDS = {M_MMAP_THRESHOLD: 4 << 20, M_TRIM_THRESHOLD: 64 << 20}


def _libc_mallopt():
    """glibc's ``mallopt``, or None where no such symbol resolves."""
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None


@functools.cache
def _keep_heap_mapped() -> bool:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at
    64 MiB, once per process; True if both were set.  Where no ``mallopt``
    resolves this does nothing, and no output changes either way.  ``main``
    calls it first, for every command, and is its only caller: a direct
    caller of ``training.train`` keeps glibc's defaults.

    ``train`` frees each step's activations before the next step's
    forward.  Under glibc's dynamic thresholds that freed heap goes back
    to the kernel at the end of the step and is faulted in again, a page
    at a time, by the next: on the benchmark's sim_recipe workload
    ``train --cm 1`` took 75-117k minor faults per run, and at most a few
    hundred after the process's first run with these thresholds.  On
    both benchmark workloads a step's arrays are under 4 MiB, so they
    stay on the heap; larger ones are mapped and unmapped on their own,
    so that freeing them leaves no hole.  At the full preset a 32 MiB
    mmap threshold raised ``train("cm1")``'s peak RSS at batch 8 from
    986 to 1,039 MB, and this one reads 937 MB."""
    mallopt = _libc_mallopt()
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in HEAP_THRESHOLDS.items()])


def main(argv=None) -> int:
    _keep_heap_mapped()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        cfg = _effective_config(args)
        args.handler(args, cfg)
    except TcssdError as exc:
        print(f"tcssd {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
