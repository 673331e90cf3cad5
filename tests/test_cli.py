"""Command-line contract tests: exit codes, formats, determinism."""

import argparse
import ast
import hashlib
import json
import os
import shutil
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tcssd
from tcssd import cli
from tcssd.analysis import tc_similarity_matrix_features, write_similarity_matrix
from tcssd.checkpoint import load_checkpoint, save_checkpoint
from tcssd.cli import _build_parser, main
from tcssd.config import config_hash, flat_dict, toy_config
from tcssd.encoder import FrontendNet
from tcssd.frontend import (FeatureMap, compute_fbank, frame_count, load_feature_map,
                            load_waveform, save_feature_map, save_waveform)
from tcssd.training import build_checkpoint

SUBCOMMANDS = ["extract", "trim", "train", "score", "fuse", "evaluate",
               "analyze-tc", "analyze-dist", "simulate", "count-params", "flops"]


def dir_snapshot(root):
    snap = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            snap[os.path.relpath(path, root)] = open(path, "rb").read()
    return snap


def test_help_exits_zero_and_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in SUBCOMMANDS:
        assert cmd in out


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--cm", "1"])
    assert exc.value.code == 1


def test_no_command_exits_one(capsys):
    assert main([]) == 1


# Every option string of every command.  A flag is added here on purpose,
# together with the code that reads it.
OPTION_STRINGS = {
    "extract": ["-h", "--help", "--seed", "--wav", "--out"],
    "trim": ["-h", "--help", "--seed", "--top-db"],
    "train": ["-h", "--help", "--seed", "--config", "--preset", "--set", "--cm",
              "--protocol", "--features", "--out", "--init-ckpt", "--steps"],
    "score": ["-h", "--help", "--seed", "--cm", "--protocol", "--features", "--ckpt",
              "--out", "--batch-size"],
    "fuse": ["-h", "--help", "--seed", "--a", "--b", "--w", "--normalize", "--out"],
    "evaluate": ["-h", "--help", "--seed", "--scores", "--protocol"],
    "analyze-tc": ["-h", "--help", "--seed", "--wav", "--features", "--ckpt", "--k",
                   "--seg-dur", "--out"],
    "analyze-dist": ["-h", "--help", "--seed", "--protocol", "--features", "--ckpt",
                     "--out"],
    "simulate": ["-h", "--help", "--seed", "--config", "--preset", "--set", "--out",
                 "--n-per-class"],
    "count-params": ["-h", "--help", "--seed", "--config", "--preset", "--set"],
    "flops": ["-h", "--help", "--seed", "--config", "--preset", "--set", "--duration"],
}

# A complete command line for each command that reads no config value.
NO_CONFIG_ARGV = {
    "extract": ["--wav", "a.wav", "--out", "feats"],
    "trim": ["in.wav", "out.wav"],
    "score": ["--cm", "1", "--protocol", "p.txt", "--features", "feats", "--ckpt", "ck",
              "--out", "s.tsv"],
    "fuse": ["--a", "a.tsv", "--b", "b.tsv", "--out", "f.tsv"],
    "evaluate": ["--scores", "s.tsv", "--protocol", "p.txt"],
    "analyze-tc": ["--features", "u.fea", "--out", "m.txt"],
    "analyze-dist": ["--protocol", "p.txt", "--features", "feats", "--ckpt", "ck",
                     "--out", "proj.tsv"],
}


def test_each_command_takes_exactly_its_listed_flags():
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: [s for action in p._actions for s in action.option_strings]
           for name, p in commands.items()}
    assert got == OPTION_STRINGS
    assert sorted(NO_CONFIG_ARGV) == sorted(
        name for name, flags in got.items() if "--config" not in flags)


@pytest.mark.parametrize("flag", [["--preset", "toy"], ["--set", "seed=1"],
                                  ["--config", "run.cfg"]], ids=lambda f: f[0])
@pytest.mark.parametrize("command", sorted(NO_CONFIG_ARGV))
def test_config_flags_exit_one_where_no_config_is_read(command, flag, capsys):
    argv = [command, *NO_CONFIG_ARGV[command]]
    _build_parser().parse_args(argv)  # complete without the flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_seg_frames_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze-tc", *NO_CONFIG_ARGV["analyze-tc"], "--seg-frames", "30"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seg-frames" in capsys.readouterr().err


def toy_header(command, seed):
    """The provenance lines of a command that reads no config value: the
    toy preset at the run's seed."""
    cfg = replace(toy_config(), seed=seed)
    return [f"tcssd {tcssd.__version__} {command}", f"config={config_hash(cfg)}",
            f"seed={seed}"]


def test_evaluate_hand_case(tmp_path, capsys):
    protocol = tmp_path / "p.txt"
    protocol.write_text(
        "S u1 - - bonafide\nS u2 - - bonafide\nS u3 - - bonafide\n"
        "S u4 - A01 spoof\nS u5 - A01 spoof\nS u6 - A01 spoof\n")
    scores = tmp_path / "s.tsv"
    scores.write_text("u1\t3\nu2\t2\nu3\t1\nu4\t2.5\nu5\t0.5\nu6\t0\n")
    rc = main(["evaluate", "--scores", str(scores), "--protocol", str(protocol)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "EER=0.3333" in out
    assert "# tcssd" in out and "config=" in out and "seed=" in out


@pytest.mark.parametrize("body, message", [
    ("u1\tthree\n", "bad score 'three'"), ("u1\tnan\n", "non-finite score"),
    ("u1\t3\nu1\t2\n", "duplicate utt_id 'u1'"),
    ("u1\t3\nu2\t1\nu9\t0\n", "unknown utterance(s) u9")])
def test_evaluate_refuses_bad_score_files(body, message, tmp_path, capsys):
    protocol = tmp_path / "p.txt"
    protocol.write_text("S u1 - - bonafide\nS u2 - A01 spoof\n")
    scores = tmp_path / "s.tsv"
    scores.write_text(body)
    assert main(["evaluate", "--scores", str(scores), "--protocol", str(protocol)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and message in err
    assert sorted(os.listdir(tmp_path)) == ["p.txt", "s.tsv"]


def test_fuse_normalizes_constant_scores_to_zero(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text("u1\t2.5\nu2\t2.5\nu3\t2.5\n")
    b.write_text("u1\t-1\nu2\t-1\nu3\t-1\n")
    for mode in ("minmax", "znorm"):
        out = tmp_path / f"{mode}.tsv"
        assert main(["fuse", "--a", str(a), "--b", str(b), "--normalize", mode,
                     "--w", "0.3", "--out", str(out)]) == 0
        body = [l.split("\t") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert [u for u, _ in body] == ["u1", "u2", "u3"]
        assert all(float(v) == 0.0 for _, v in body)


def test_set_without_equals_exits_two_writing_nothing(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--n-per-class", "2", "--set", "foo"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["tcssd simulate: --set expects KEY=VALUE, got 'foo'"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([], "exactly one of --wav or --features"),
    (["--wav", "u.wav", "--features", "u.fea"], "exactly one of --wav or --features"),
    (["--wav", "u.wav"], "--wav analysis needs --ckpt")])
def test_analyze_tc_lane_flags_exit_two_writing_nothing(argv, message, tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


def test_simulate_twice_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(a), "--seed", "7",
                 "--n-per-class", "5"]) == 0
    assert main(["simulate", "--out", str(b), "--seed", "7",
                 "--n-per-class", "5"]) == 0
    snap_a, snap_b = dir_snapshot(a), dir_snapshot(b)
    assert snap_a.keys() == snap_b.keys()
    for name in snap_a:
        assert snap_a[name] == snap_b[name], name


def test_trim_all_zero_exits_two(tmp_path, capsys):
    src = tmp_path / "z.wav"
    save_waveform(np.zeros(16000), src)
    rc = main(["trim", "--top-db", "40", str(src), str(tmp_path / "o.wav")])
    assert rc == 2
    assert "empty after trim" in capsys.readouterr().err


@pytest.mark.parametrize("top_db", ["nan", "0", "-5"])
def test_trim_top_db_that_drops_every_frame_exits_two(top_db, tmp_path, capsys):
    """Frames are kept above -top_db dB of the loudest, and none is above
    0 dB, so a --top-db that is not positive would trim everything."""
    src, dst = tmp_path / "a.wav", tmp_path / "o.wav"
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), src)
    assert main(["trim", "--top-db", top_db, str(src), str(dst)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd trim: --top-db must be positive, got {float(top_db)}"]
    assert not dst.exists()


def test_trim_tone_keeps_tone(tmp_path, capsys):
    t = np.arange(8000) / 16000.0
    tone = 0.8 * np.sin(2 * np.pi * 440 * t)
    samples = np.concatenate([np.zeros(16000), tone, np.zeros(16000)])
    src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
    save_waveform(samples, src)
    assert main(["trim", str(src), str(dst)]) == 0
    out = load_waveform(dst)
    assert 8000 <= out.size < 16000 + 8000


def test_extract_writes_feature_cache(tmp_path, capsys):
    wav = tmp_path / "a.wav"
    rng = np.random.default_rng(0)
    save_waveform(rng.uniform(-0.3, 0.3, 32000), wav)
    out = tmp_path / "feats"
    assert main(["extract", "--wav", str(wav), "--out", str(out)]) == 0
    f = load_feature_map(out / "a.fea")
    assert f.values.shape == (198, 80)
    assert (out / "provenance.txt").exists()


def test_extract_decodes_each_wav_once(tmp_path, monkeypatch, capsys):
    """The pre-pass checks each WAV's format and length without decoding
    its samples, so FBank's decode is the only one; the caches keep their
    bytes."""
    rng = np.random.default_rng(0)
    wavs = [tmp_path / f"{stem}.wav" for stem in "abc"]
    for wav, n in zip(wavs, (16000, 8000, 12000)):
        save_waveform(rng.uniform(-0.3, 0.3, n), wav)
    decoded = []

    def counting_load(path):
        decoded.append(path)
        return load_waveform(path)

    monkeypatch.setattr(cli, "load_waveform", counting_load)
    out = tmp_path / "feats"
    assert main(["extract", "--wav", *map(str, wavs), "--out", str(out)]) == 0
    assert decoded == [str(w) for w in wavs]
    for wav in wavs:
        save_feature_map(compute_fbank(load_waveform(wav)), tmp_path / "ref.fea")
        assert (out / f"{wav.stem}.fea").read_bytes() == (tmp_path / "ref.fea").read_bytes()


def test_extract_refuses_duplicate_stems_before_writing(tmp_path, capsys):
    wavs = []
    for d in ("d1", "d2"):
        (tmp_path / d).mkdir()
        wavs.append(tmp_path / d / "u.wav")
        save_waveform(np.zeros(8000), wavs[-1])
    out = tmp_path / "feats"
    assert main(["extract", "--wav", *map(str, wavs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'u'" in err and str(wavs[0]) in err and str(wavs[1]) in err
    assert not out.exists()


def test_extract_refuses_a_short_wav_before_writing(tmp_path, capsys):
    """A WAV too short for one FBank frame is named, and nothing is written,
    not even the caches of the WAVs before it."""
    rng = np.random.default_rng(0)
    wavs = [tmp_path / f"{stem}.wav" for stem in "abc"]
    for wav, n in zip(wavs, (16000, 100, 16000)):
        save_waveform(rng.uniform(-0.3, 0.3, n), wav)
    out = tmp_path / "fe"
    assert main(["extract", "--wav", *map(str, wavs), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(wavs[1]) in err[0] and "100 samples" in err[0]
    assert not out.exists()


def test_extract_refuses_a_cut_wav_before_writing(tmp_path, capsys):
    """A WAV whose data chunk is shorter than its header says is named with
    both counts, and nothing is written, not the cache of the WAV before it."""
    rng = np.random.default_rng(0)
    wavs = [tmp_path / f"{stem}.wav" for stem in "ab"]
    for wav in wavs:
        save_waveform(rng.uniform(-0.3, 0.3, 16000), wav)
    wavs[1].write_bytes(wavs[1].read_bytes()[:-2000])
    out = tmp_path / "fe"
    assert main(["extract", "--wav", *map(str, wavs), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"tcssd extract: truncated WAV: {wavs[1]} holds 15000 samples, "
                   "its header says 16000"]
    assert not out.exists()


def test_trim_refuses_a_cut_wav(tmp_path, capsys):
    src, dst = tmp_path / "a.wav", tmp_path / "o.wav"
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), src)
    src.write_bytes(src.read_bytes()[:-2])
    assert main(["trim", str(src), str(dst)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd trim: truncated WAV: {src} holds 15999 samples, its header says 16000"]
    assert not dst.exists()


def test_sizes_below_one_exit_two_and_write_no_output(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "sim"), "--n-per-class", "0"]) == 2
    assert not (tmp_path / "sim").exists()
    fea = tmp_path / "u.fea"
    save_feature_map(FeatureMap(values=np.ones((60, 24), dtype=np.float32)), fea)
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", "--features", str(fea), "--seg-dur", "0",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "--seg-dur must be finite and at least 0.01 s" in capsys.readouterr().err


def test_count_params_report(capsys):
    assert main(["count-params", "--preset", "full"]) == 0
    out = capsys.readouterr().out
    assert "29,215,808" in out
    assert "32.37" in out
    assert "not forced to agree" in out


def test_flops_report(capsys):
    assert main(["flops", "--preset", "full", "--duration", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "cm1 FLOPs" in out and "cm2 FLOPs" in out
    assert "24.67" in out


# Reports as printed at the two presets, without the '#' provenance lines.
NOTE = ("note: gate arithmetic over the documented tensor shapes gives the exact "
        "counts above; the published reference figures do not decompose over the "
        "described architecture (about 3 M unaccounted for cm1) and are shown for "
        "comparison only, not forced to agree.")
PARAM_REPORTS = {
    "toy": ("16,160", "3,017", "19,177", "11,849"),
    "full": ("29,215,808", "5,507,393", "34,723,201", "14,059,713"),
}
FLOPS_REPORTS = {
    "toy": ("7,635,456", "16,859,776", "8,720,256", "17,944,576"),
    "full": ("10,121,613,312", "32,772,625,152", "14,055,056,128", "36,706,067,968"),
}


def report_lines(capsys):
    return [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("preset", ["toy", "full"])
def test_count_params_stdout_pinned(preset, capsys):
    cm1, cm2, fusion, frontend = PARAM_REPORTS[preset]
    assert main(["count-params", "--preset", preset]) == 0
    assert report_lines(capsys) == [
        f"cm1 trainable parameters: {cm1} (reported reference: 32.37 M)",
        f"cm2 trainable parameters: {cm2} (reported reference: 6.57 M)",
        f"fusion trainable parameters: {fusion} (reported reference: 38.94 M)",
        f"frontend parameters (frozen during countermeasure training): {frontend}",
        NOTE]


@pytest.mark.parametrize("preset", ["toy", "full"])
def test_flops_stdout_pinned(preset, capsys):
    fe, cm1, cm2, fusion = FLOPS_REPORTS[preset]
    assert main(["flops", "--preset", preset]) == 0
    assert report_lines(capsys) == [
        "duration: 4.0 s",
        f"frontend FLOPs: {fe}",
        f"cm1 FLOPs (frontend + head): {cm1} (reported reference: 24.67 G)",
        f"cm2 FLOPs (frozen part + retrained tail): {cm2} (reported reference: 8.51 G)",
        f"fusion FLOPs: {fusion} (reported reference: 28.49 G)"]


# sha256 of `simulate --seed 7 --n-per-class 3` outputs, from the numpy
# PCG64 draws of SimConfig's defaults.
SIM_SHA256 = {
    "protocol.txt": "8280a640c2ed6a5f9b8c370aaa3b34e3ec3d921347f74cb382d1326b2ac1576f",
    "features/SIM_T_000000.fea": "50af8d0d8c1d1387b245901428fd4513cebfc038bece3714a202a5326346b1c3",
    "features/SIM_T_000001.fea": "c0f480a2525bd547c9341c221d97e2c84c8c74f0995d4de31379c4676718884d",
    "features/SIM_T_000002.fea": "cb98f4387b5d22c5d63238f857c8ef01ce4fa0c3a7108f6322654915971402c6",
    "features/SIM_S_000000.fea": "3ae2ec0ed1841769c652fdf1e6f40928336c639aff5b7c2a5cab5c98cc6b870a",
    "features/SIM_S_000001.fea": "02ee2170b460b1792004bf0eef42c5ec4ce49c98f848d0a3c47c7b2374d90840",
    "features/SIM_S_000002.fea": "462f486ef476727b0219b0b1c7ce15e67af6b2980f8daec0de7dc3286ea20026",
}


def test_simulate_bytes_pinned(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--seed", "7",
                 "--n-per-class", "3"]) == 0
    written = {name for name in dir_snapshot(tmp_path) if name != "provenance.txt"}
    assert written == set(SIM_SHA256)
    for name, digest in SIM_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_heap_policy_changes_no_output_and_may_be_missing(tmp_path, monkeypatch, capsys):
    """Where no ``mallopt`` resolves, the CLI's heap policy does nothing and
    a run still exits 0 with the same bytes and stdout; setting the policy
    again gives what setting it once gave."""
    def run(out):
        cli._keep_heap_mapped.cache_clear()
        sim, ck = out / "sim", out / "ck"
        assert main(["simulate", "--out", str(sim), "--seed", "5", "--n-per-class", "4"]) == 0
        assert main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                     "--features", str(sim / "features"), "--out", str(ck),
                     "--seed", "5", "--steps", "3"]) == 0
        assert main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                     "--features", str(sim / "features"), "--ckpt", str(ck / "final"),
                     "--out", str(out / "s1.tsv"), "--seed", "5"]) == 0
        return dir_snapshot(out), capsys.readouterr().out.replace(str(out), "OUT")

    with_policy = run(tmp_path / "a")
    monkeypatch.setattr(cli, "_libc_mallopt", lambda: None)
    assert run(tmp_path / "b") == with_policy
    assert cli._keep_heap_mapped() is False
    monkeypatch.undo()
    cli._keep_heap_mapped.cache_clear()
    once = cli._keep_heap_mapped()
    assert cli._keep_heap_mapped.__wrapped__() == once


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """simulate -> train(5 steps) -> score for CLI contract checks.  The
    CM1 run's checkpoints are ``ck``; the CM2 run's, unscored, ``ck2``."""
    tmp = tmp_path_factory.mktemp("cli_pipe")
    sim = tmp / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "3",
                 "--n-per-class", "6"]) == 0
    ck = tmp / "ck"
    for cm, out in (("1", ck), ("2", tmp / "ck2")):
        assert main(["train", "--cm", cm, "--protocol", str(sim / "protocol.txt"),
                     "--features", str(sim / "features"), "--out", str(out),
                     "--seed", "3", "--steps", "5"]) == 0
    scores = tmp / "s1.tsv"
    assert main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"),
                 "--ckpt", str(ck / "final"), "--out", str(scores),
                 "--seed", "3"]) == 0
    return tmp, sim, ck, scores


def test_train_writes_checkpoints_and_log(tiny_pipeline):
    _, _, ck, _ = tiny_pipeline
    assert (ck / "init").is_dir() and (ck / "final").is_dir()
    log = (ck / "train.log").read_text().strip().split("\n")
    assert len(log) == 5
    assert all(len(line.split("\t")) == 3 for line in log)


def test_score_file_has_provenance_and_scores(tiny_pipeline):
    _, sim, _, scores = tiny_pipeline
    lines = scores.read_text().strip().split("\n")
    headers = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("config=" in h for h in headers)
    assert len(body) == 12


def test_fuse_and_evaluate_round_trip(tiny_pipeline, tmp_path, capsys):
    _, sim, _, scores = tiny_pipeline
    fused = tmp_path / "fused.tsv"
    assert main(["fuse", "--a", str(scores), "--b", str(scores),
                 "--out", str(fused)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--scores", str(fused),
               "--protocol", str(sim / "protocol.txt")])
    assert rc == 0
    assert "EER=" in capsys.readouterr().out


def test_analyze_tc_on_features(tiny_pipeline, tmp_path, capsys):
    _, sim, _, _ = tiny_pipeline
    fea = next((sim / "features").glob("*.fea"))
    out = tmp_path / "m.txt"
    rc = main(["analyze-tc", "--features", str(fea), "--k", "4",
               "--seg-dur", "0.3", "--out", str(out), "--seed", "1"])
    assert rc == 0
    lines = [l for l in out.read_text().strip().split("\n")
             if not l.startswith("#")]
    assert len(lines) == 5  # k start times + k rows
    assert "tc_mean=" in capsys.readouterr().out


def test_commands_without_config_flags_hash_the_toy_preset(tiny_pipeline, tmp_path,
                                                           capsys):
    """score, fuse and evaluate read no config value: their header is the
    toy preset at the run's seed, as before the config flags were removed."""
    _, sim, ck, scores = tiny_pipeline  # scored with --seed 3
    assert [l[2:] for l in scores.read_text().splitlines()
            if l.startswith("#")] == toy_header("score", 3)
    fused = tmp_path / "fused.tsv"
    assert main(["fuse", "--a", str(scores), "--b", str(scores), "--out", str(fused),
                 "--seed", "4"]) == 0
    assert [l[2:] for l in fused.read_text().splitlines()
            if l.startswith("#")] == toy_header("fuse", 4)
    capsys.readouterr()
    assert main(["evaluate", "--scores", str(fused),
                 "--protocol", str(sim / "protocol.txt")]) == 0
    assert [l[2:] for l in capsys.readouterr().out.splitlines()
            if l.startswith("#")] == toy_header("evaluate", 0)


@pytest.mark.parametrize("hop", [0, 160])
def test_analyze_tc_seg_dur_on_features_is_frames_at_map_rate(hop, tmp_path, capsys):
    """On a feature map, --seg-dur 0.3 is 30 frames at 100 frames/s, for
    simulated (hop 0) and FBank-rate (hop 160) maps alike."""
    values = np.random.default_rng(hop).standard_normal((90, 24)).astype(np.float32)
    fea = tmp_path / "u.fea"
    save_feature_map(FeatureMap(values=values, frame_hop=hop), fea)
    out, want = tmp_path / "m.txt", tmp_path / "want.txt"
    assert main(["analyze-tc", "--features", str(fea), "--seg-dur", "0.3",
                 "--out", str(out), "--seed", "2"]) == 0
    m = tc_similarity_matrix_features(values, seg_frames=30, seed=2)
    write_similarity_matrix(m, want, header_lines=toy_header("analyze-tc", 2))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("seg_dur", ["nan", "inf"])
def test_analyze_tc_non_finite_seg_dur_exits_two(seg_dur, tmp_path, capsys):
    fea = tmp_path / "u.fea"
    save_feature_map(FeatureMap(values=np.ones((60, 24), dtype=np.float32)), fea)
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", "--features", str(fea), "--seg-dur", seg_dur,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--seg-dur must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("lane, seg_dur, shortest", [
    ("--wav", "0.01", "0.02"),       # two FBank frames: ChannelNorm over one is constant
    ("--features", "0.004", "0.01"),  # one frame at 100 frames/s
])
def test_analyze_tc_too_short_seg_dur_names_the_flag(lane, seg_dur, shortest,
                                                     tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    wav = tmp_path / "u.wav"
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), wav)
    source = {"--wav": [str(wav), "--ckpt", str(ck / "final")],
              "--features": [str(next((sim / "features").glob("*.fea")))]}[lane]
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", lane, *source, "--seg-dur", seg_dur,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd analyze-tc: --seg-dur must be finite and at least {shortest} s, "
        f"got {seg_dur}"]
    assert not out.exists()
    assert main(["analyze-tc", lane, *source, "--seg-dur", shortest,
                 "--out", str(out)]) == 0
    # windows of the shortest segment still embed apart
    assert float(capsys.readouterr().out.partition("tc_range=")[2].split()[0]) > 0


def matrix_rows(path):
    """A similarity matrix file's lines below its headers: times, then rows."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_analyze_tc_wav_embeds_k_windows_of_one_fbank(tiny_pipeline, tmp_path, monkeypatch):
    """--wav computes the utterance's FBank once and its k windows, each a
    slice of that FBank at its written start time, go through one
    ``FrontendNet.embed`` call; the matrix is symmetric, diagonal one."""
    _, _, ck, _ = tiny_pipeline
    wav = tmp_path / "u.wav"
    save_waveform(np.random.default_rng(4).uniform(-0.4, 0.4, 16000 * 3), wav)
    fbank_calls, embed_inputs = [], []
    real_fbank, real_embed = cli.compute_fbank, FrontendNet.embed

    def counting_fbank(samples):
        fbank_calls.append(len(samples))
        return real_fbank(samples)

    def counting_embed(self, params, x):
        embed_inputs.append(x)
        return real_embed(self, params, x)

    monkeypatch.setattr(cli, "compute_fbank", counting_fbank)
    monkeypatch.setattr(FrontendNet, "embed", counting_embed)
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", "--wav", str(wav), "--ckpt", str(ck / "final"), "--k", "6",
                 "--seed", "2", "--out", str(out)]) == 0
    samples = load_waveform(wav)
    assert fbank_calls == [len(samples)]
    assert len(embed_inputs) == 1 and embed_inputs[0].shape == (6, 50, 80)
    times, *rows = matrix_rows(out)
    values = compute_fbank(samples).values
    for window, t0 in zip(embed_inputs[0], times.split(), strict=True):
        s0 = round(float(t0) * 100)
        np.testing.assert_array_equal(window, values[s0:s0 + 50])
    m = np.array([[float(v) for v in row.split()] for row in rows])
    assert m.shape == (6, 6)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), 1.0)


def test_analyze_tc_lanes_write_the_same_segment_times(tiny_pipeline, tmp_path):
    """One sampler serves both lanes: at one seed, --k, --seg-dur and frame
    count, --wav and --features write the same segment-time row."""
    _, _, ck, _ = tiny_pipeline
    wav, fea = tmp_path / "u.wav", tmp_path / "u.fea"
    samples = np.random.default_rng(5).uniform(-0.4, 0.4, 16000 * 2)
    save_waveform(samples, wav)
    values = np.random.default_rng(6).standard_normal((frame_count(len(samples)), 24)) + 3.0
    save_feature_map(FeatureMap(values=values.astype(np.float32), frame_hop=0), fea)
    lanes = {"wav": ["--wav", str(wav), "--ckpt", str(ck / "final")],
             "fea": ["--features", str(fea)]}
    for seed in range(3):
        times = set()
        for name, lane in lanes.items():
            out = tmp_path / f"{name}{seed}.txt"
            assert main(["analyze-tc", *lane, "--k", "5", "--seg-dur", "0.3",
                         "--seed", str(seed), "--out", str(out)]) == 0
            times.add(matrix_rows(out)[0])
        assert len(times) == 1, (seed, times)


@pytest.mark.parametrize("lane, frames, message", [
    ("--wav", 4000, "map has 23 frames (0.23 s), shorter than a 50-frame (0.5 s) segment"),
    ("--wav", 399, "waveform too short for FBank: 399 < 400 samples"),
    ("--features", 25, "map has 25 frames (0.25 s), shorter than a 50-frame (0.5 s) segment"),
], ids=["wav", "wav_under_one_frame", "features"])
def test_analyze_tc_input_shorter_than_the_segment_exits_two(lane, frames, message,
                                                             tiny_pipeline, tmp_path, capsys):
    """A segment longer than the map is the sampler's one refusal on both
    lanes (frames counts samples on --wav); a WAV under one FBank frame
    stops at the FBank.  Nothing is written."""
    _, _, ck, _ = tiny_pipeline
    if lane == "--wav":
        source = tmp_path / "u.wav"
        save_waveform(0.1 * np.random.default_rng(0).standard_normal(frames), source)
        argv = ["--wav", str(source), "--ckpt", str(ck / "final")]
    else:
        source = tmp_path / "u.fea"
        save_feature_map(FeatureMap(values=np.ones((frames, 24), dtype=np.float32)), source)
        argv = ["--features", str(source)]
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"tcssd analyze-tc: {message}"]
    assert not out.exists()


def test_feature_cache_at_another_frame_rate_exits_two(tiny_pipeline, tmp_path, capsys):
    """Every map runs at 100 frames/s: a hop-320 cache would get segments
    and crops sized at one rate and stamped at the other, so it is refused."""
    _, sim, _, _ = tiny_pipeline
    feats = tmp_path / "features"
    shutil.copytree(sim / "features", feats)
    fea = next(feats.glob("*.fea"))
    values = load_feature_map(fea).values  # the writer refuses hop 320: pack it here
    fea.write_bytes(b"TCSSD-FEA" + struct.pack("<6I", 1, *values.shape, 320, 400, 512)
                    + values.astype("<f4").tobytes())
    out = tmp_path / "m.txt"
    assert main(["analyze-tc", "--features", str(fea), "--out", str(out)]) == 2
    ck = tmp_path / "ck"
    assert main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(feats), "--out", str(ck), "--steps", "1"]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2 and all(str(fea) in e and "(320, 400, 512)" in e for e in errs)
    assert not out.exists() and not ck.exists()


def test_fuse_non_finite_weight_exits_two_writing_nothing(tiny_pipeline, tmp_path,
                                                          capsys):
    """w = nan makes every fused score nan, which no reader accepts: the
    writer refuses it, naming the first utterance, and leaves no file."""
    _, sim, _, scores = tiny_pipeline
    first = [l for l in scores.read_text().splitlines() if not l.startswith("#")][0]
    out = tmp_path / "fused.tsv"
    assert main(["fuse", "--a", str(scores), "--b", str(scores), "--w", "nan",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"{first.split()[0]}: non-finite score" in err
    assert os.listdir(tmp_path) == []


def test_score_with_nan_weight_exits_two_writing_nothing(tiny_pipeline, tmp_path,
                                                         capsys):
    _, sim, _, _ = tiny_pipeline
    cfg = toy_config()
    ckpt = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=0)
    ckpt.tensors["cm2.proj.w"][0, 0] = np.nan
    save_checkpoint(ckpt, tmp_path / "ck")
    out = tmp_path / "s.tsv"
    assert main(["score", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "SIM_T_000000: non-finite score" in err
    assert sorted(os.listdir(tmp_path)) == ["ck"]


@pytest.mark.parametrize("duration", ["nan", "inf", "-3"])
def test_flops_bad_duration_exits_two(duration, capsys):
    assert main(["flops", "--duration", duration]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("tcssd flops: duration must be finite and non-negative, "
                   f"got {float(duration)}\n")


def test_feature_cache_resaves_byte_identical(tmp_path, capsys):
    """A map from extract (hop 160, frame length 400, FFT 512) and one from
    simulate (all 0) round-trip through load and save to the same bytes."""
    wav = tmp_path / "a.wav"
    save_waveform(np.random.default_rng(0).uniform(-0.3, 0.3, 8000), wav)
    assert main(["extract", "--wav", str(wav), "--out", str(tmp_path / "feats")]) == 0
    assert main(["simulate", "--out", str(tmp_path / "sim"), "--n-per-class", "1"]) == 0
    for path, fields in ((tmp_path / "feats" / "a.fea", (160, 400, 512)),
                         (tmp_path / "sim" / "features" / "SIM_S_000000.fea", (0, 0, 0))):
        blob = path.read_bytes()
        assert struct.unpack("<3I", blob[len(b"TCSSD-FEA") + 12:][:12]) == fields
        save_feature_map(load_feature_map(path), tmp_path / "again.fea")
        assert (tmp_path / "again.fea").read_bytes() == blob


def test_analyze_dist_projection(tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    out = tmp_path / "proj.tsv"
    rc = main(["analyze-dist", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"),
               "--ckpt", str(ck / "final"), "--out", str(out), "--seed", "1"])
    assert rc == 0
    rows = [l for l in out.read_text().strip().split("\n")
            if not l.startswith("#")]
    assert len(rows) == 12
    parts = rows[0].split("\t")
    assert len(parts) == 4
    float(parts[1]), float(parts[2])
    assert parts[3] in ("bonafide", "spoof")


def test_missing_feature_exits_two(tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    rc = main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(tmp_path), "--ckpt", str(ck / "final"),
               "--out", str(tmp_path / "s.tsv")])
    assert rc == 2
    assert "missing feature" in capsys.readouterr().err


def test_analyze_dist_mis_sized_map_exits_two_like_score(tiny_pipeline, tmp_path, capsys):
    """A map matching neither n_mels nor mfa_dim: both commands name the
    utterance and the widths in the same DataError."""
    _, sim, ck, _ = tiny_pipeline
    feats = tmp_path / "feats"
    shutil.copytree(sim / "features", feats)
    bad = sorted(feats.glob("*.fea"))[0]
    save_feature_map(FeatureMap(values=np.zeros((50, 7), dtype=np.float32)), bad)
    common = ["--protocol", str(sim / "protocol.txt"), "--features", str(feats),
              "--ckpt", str(ck / "final")]
    want = (f"{bad.stem}: 7 channels match neither n_mels (80) "
            f"nor mfa_dim (24)\n")
    assert main(["score", "--cm", "1", *common, "--out", str(tmp_path / "s.tsv")]) == 2
    assert capsys.readouterr().err == f"tcssd score: {want}"
    assert main(["analyze-dist", *common, "--out", str(tmp_path / "p.tsv")]) == 2
    assert capsys.readouterr().err == f"tcssd analyze-dist: {want}"
    assert not (tmp_path / "p.tsv").exists()


def test_analyze_dist_missing_feature_exits_two(tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    rc = main(["analyze-dist", "--protocol", str(sim / "protocol.txt"),
               "--features", str(tmp_path), "--ckpt", str(ck / "final"),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    assert "missing feature" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


# Inputs that exist but cannot be read as what they are given for, and
# the path each command must name.
@pytest.mark.parametrize("argv, bad", [
    (["evaluate", "--scores", "{dir}", "--protocol", "{protocol}"], "{dir}"),
    (["evaluate", "--scores", "{scores}", "--protocol", "{fea}"], "{fea}"),
    (["score", "--cm", "1", "--protocol", "{protocol}", "--features", "{features}",
      "--ckpt", "{scores}", "--out", "{dir}/s.tsv"], "{scores}"),
    (["analyze-tc", "--features", "{dir}", "--out", "{dir}/m.txt"], "{dir}"),
], ids=["evaluate_scores_dir", "evaluate_protocol_fea", "score_ckpt_score_file",
        "analyze_tc_features_dir"])
def test_unreadable_input_exits_two_naming_it(argv, bad, tiny_pipeline, tmp_path,
                                              capsys):
    _, sim, _, scores = tiny_pipeline
    paths = {"dir": tmp_path, "protocol": sim / "protocol.txt",
             "features": sim / "features", "scores": scores,
             "fea": next((sim / "features").glob("*.fea"))}
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and bad.format(**paths) in err
    assert "Traceback" not in err


# Output paths that cannot be made: an existing file where a command makes
# its output directory, an output file in a missing directory, or an
# existing directory where an output file goes.
@pytest.mark.parametrize("argv, out", [
    (["extract", "--wav", "{wav}", "--out", "{out}"], "file"),
    (["train", "--cm", "1", "--protocol", "{protocol}", "--features", "{features}",
      "--out", "{out}", "--steps", "1"], "file"),
    (["simulate", "--out", "{out}", "--n-per-class", "2"], "file"),
    (["score", "--cm", "1", "--protocol", "{protocol}", "--features", "{features}",
      "--ckpt", "{ckpt}", "--out", "{out}"], "missing"),
    (["fuse", "--a", "{scores}", "--b", "{scores}", "--out", "{out}"], "missing"),
    (["analyze-tc", "--features", "{fea}", "--out", "{out}"], "missing"),
    (["analyze-dist", "--protocol", "{protocol}", "--features", "{features}",
      "--ckpt", "{ckpt}", "--out", "{out}"], "missing"),
    (["trim", "{wav}", "{out}"], "missing"),
    (["fuse", "--a", "{scores}", "--b", "{scores}", "--out", "{out}"], "dir"),
], ids=["extract", "train", "simulate", "score", "fuse", "analyze-tc", "analyze-dist",
        "trim", "fuse-onto-dir"])
def test_unwritable_output_exits_two_naming_it(argv, out, tiny_pipeline, tmp_path, capsys):
    """One stderr line names the path as given, not its ``.tmp`` sibling,
    and nothing is written."""
    _, sim, ck, scores = tiny_pipeline
    outs = {"file": tmp_path / "taken", "missing": tmp_path / "absent" / "out.txt",
            "dir": tmp_path / "dir"}
    paths = {"wav": tmp_path / "a.wav", "out": outs[out],
             "protocol": sim / "protocol.txt", "features": sim / "features",
             "ckpt": ck / "final", "scores": scores,
             "fea": next((sim / "features").glob("*.fea"))}
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), paths["wav"])
    outs["file"].write_text("kept\n")
    outs["dir"].mkdir()
    (outs["dir"] / "kept.txt").write_text("kept\n")
    before = dir_snapshot(tmp_path)
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(paths["out"]) in err
    assert ".tmp" not in err and "Traceback" not in err
    assert dir_snapshot(tmp_path) == before and not (tmp_path / "absent").exists()


def test_bad_device_rejected(capsys):
    """There is no --device flag: any value is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["count-params", "--device", "cpu"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --device" in capsys.readouterr().err


def strip_checkpoint(src, dst, drop):
    """Save checkpoint ``src`` as ``dst`` without the tensors whose names
    ``drop`` selects."""
    ckpt = load_checkpoint(src)
    for name in [n for n in ckpt.tensors if drop(n)]:
        del ckpt.tensors[name]
    ckpt.frozen_names &= set(ckpt.tensors)
    save_checkpoint(ckpt, dst)


@pytest.mark.parametrize("argv, tensor", [
    (["score", "--cm", "1"], "cm1.fc1.w"),
    (["score", "--cm", "2"], "cm2.proj.b"),
    (["analyze-dist"], "frontend.proj.w"),
])
def test_missing_tensor_on_tap_point_maps_exits_two(tiny_pipeline, tmp_path, capsys,
                                                    argv, tensor):
    tmp, sim, ck, _ = tiny_pipeline
    if tensor.startswith("cm2."):  # only the CM2 run's checkpoint holds CM2
        ck = tmp / "ck2"
    strip_checkpoint(ck / "final", tmp_path / "ck", lambda name: name == tensor)
    out = tmp_path / "out.tsv"
    rc = main([*argv, "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
               "--out", str(out)])
    assert rc == 2
    assert tensor in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cm", ["1", "2"])
def test_tap_point_lane_reads_no_frontend_tensor(cm, tiny_pipeline, tmp_path, capsys):
    """Tap-point maps pass neither the frontend nor CM2's MFA conv, so a
    checkpoint without those tensors scores them as the full one does."""
    tmp, sim, ck, _ = tiny_pipeline
    ck = {"1": ck, "2": tmp / "ck2"}[cm]  # the run that trained system ``cm``
    strip_checkpoint(ck / "final", tmp_path / "ck",
                     lambda name: name.startswith(("frontend.", "cm2.mfa.conv.")))
    bodies = []
    for name, ckpt in (("full", ck / "final"), ("stripped", tmp_path / "ck")):
        out = tmp_path / f"{name}.tsv"
        assert main(["score", "--cm", cm, "--protocol", str(sim / "protocol.txt"),
                     "--features", str(sim / "features"), "--ckpt", str(ckpt),
                     "--out", str(out), "--seed", "3"]) == 0
        bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
    assert len(bodies[0]) == 12
    assert bodies[1] == bodies[0]


@pytest.mark.parametrize("cm, trained, system", [("2", "ck", "cm2"), ("1", "ck2", "cm1")])
def test_score_with_the_other_systems_checkpoint_exits_two(cm, trained, system,
                                                           tiny_pipeline, tmp_path, capsys):
    """A countermeasure's checkpoint holds the frozen frontend and its own
    head, not the other system's, and only a cm1 checkpoint records CM1's
    config: scoring a cm1 checkpoint as cm2 stops at the first tensor CM2
    reads, and a cm2 checkpoint as cm1 at the missing config, in one line,
    writing nothing."""
    tmp, sim, _, _ = tiny_pipeline
    out = tmp_path / "s.tsv"
    rc = main(["score", "--cm", cm, "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp / trained / "final"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    want = {"cm2": "missing tensor: cm2.", "cm1": "no cm1 config: "}[system]
    assert len(err) == 1 and err[0].startswith(f"tcssd score: {want}")
    assert os.listdir(tmp_path) == []


def test_score_batch_size_zero_exits_two_writing_nothing(tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    out = tmp_path / "s.tsv"
    assert main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--ckpt", str(ck / "final"),
                 "--out", str(out), "--batch-size", "0"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "batch_size must be >= 1" in err
    assert not out.exists()


def test_train_on_mixed_fbank_and_tap_point_maps_exits_two(tiny_pipeline, tmp_path,
                                                           capsys):
    _, sim, _, _ = tiny_pipeline
    feats = tmp_path / "feats"
    shutil.copytree(sim / "features", feats)
    fbank = np.random.default_rng(0).standard_normal((200, 80)).astype(np.float32)
    save_feature_map(FeatureMap(values=fbank), feats / "SIM_T_000000.fea")
    out = tmp_path / "ck"
    assert main(["train", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(feats), "--out", str(out), "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "mixes fbank and speaker feature kinds" in err
    assert not out.exists()


def test_train_augment_on_tap_point_maps_exits_two(tiny_pipeline, tmp_path, capsys):
    """SpecAugment masks FBank maps; on tap-point maps the key is refused
    rather than ignored under a new config hash."""
    _, sim, _, _ = tiny_pipeline
    out = tmp_path / "ck"
    rc = main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(out),
               "--steps", "1", "--set", "train.augment=true"])
    assert rc == 2
    assert "train.augment" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_tc_features_with_checkpoint_exits_two(tiny_pipeline, tmp_path, capsys):
    """The --features lane takes frame means and reads no tensor, so a
    --ckpt there would be silently ignored: it is refused."""
    _, sim, ck, _ = tiny_pipeline
    out = tmp_path / "m.txt"
    rc = main(["analyze-tc", "--features", str(next((sim / "features").glob("*.fea"))),
               "--ckpt", str(ck / "final"), "--seg-dur", "0.3", "--out", str(out)])
    assert rc == 2
    assert "--ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_train_cm1_input_width_follows_mfa_dim(tmp_path, capsys):
    """CM1's GRU reads encoder.mfa_dim channels, so widening the tap is one
    setting, not two that can disagree."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "1",
                 "--n-per-class", "2", "--set", "sim.dim=32"]) == 0
    rc = main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
               "--steps", "1", "--set", "encoder.mfa_dim=32"])
    assert rc == 0, capsys.readouterr().err
    ckpt = load_checkpoint(tmp_path / "ck" / "final")
    assert ckpt.tensors["cm1.gru.l0.w_ih"].shape[1] == 32


def _legacy_checkpoint(src, dst, stored):
    """Copy checkpoint ``src`` to ``dst`` and add the ``stored`` keys to
    the sections of its manifest config, as older manifests held them."""
    shutil.copytree(src, dst)
    manifest = dst / "manifest.json"
    data = json.loads(manifest.read_text())
    for section, values in stored.items():
        data["config"][section].update(values)
    manifest.write_text(json.dumps(data))


def test_checkpoint_input_dim_mismatch_exits_two(tiny_pipeline, tmp_path, capsys):
    """CM1's input width is encoder.mfa_dim, so a manifest that stores
    cm1.input_dim (here 32 beside a 24-wide tap) is refused where it is
    loaded, in one line naming the key as unknown."""
    _, sim, ck, _ = tiny_pipeline
    _legacy_checkpoint(ck / "final", tmp_path / "ck", {"cm1": {"input_dim": 32}})
    out = tmp_path / "s.tsv"
    rc = main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "tcssd score: checkpoint config incomplete: cm1.input_dim is unknown"]
    assert not out.exists()


def test_legacy_manifest_keys_checked_against_derived_values(tiny_pipeline, tmp_path,
                                                             capsys):
    """Manifests written before the block count, the FBank width and CM1's
    input width were derived stored encoder.n_blocks, encoder.n_mels and
    cm1.input_dim.  Each is refused in one line naming it as unknown, even
    where it equals the value derived from encoder.dilations,
    frontend.N_MELS or encoder.mfa_dim, and nothing is written."""
    _, sim, ck, _ = tiny_pipeline
    args = ["--protocol", str(sim / "protocol.txt"), "--features", str(sim / "features"),
            "--seed", "3"]
    for section, key, derived in (("encoder", "n_blocks", 3), ("encoder", "n_mels", 80),
                                  ("cm1", "input_dim", 24)):
        _legacy_checkpoint(ck / "final", tmp_path / key, {section: {key: derived}})
        capsys.readouterr()
        out = tmp_path / f"{key}.tsv"
        assert main(["score", "--cm", "1", *args, "--ckpt", str(tmp_path / key),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"tcssd score: checkpoint config incomplete: {section}.{key} is unknown"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["score", "analyze-tc", "analyze-dist", "train"])
@pytest.mark.parametrize("system, section, key, stored, want", [
    ("ck", "encoder", "embed_dim", None, "missing"),
    ("ck", "cm1", "hidden", None, "missing"),
    ("ck", "cm1", "fc2_out", None, "missing"),
    ("ck", "encoder", "n_blocks", 3, "unknown"),
    ("ck2", "encoder", "channels", None, "missing"),
    ("ck2", "encoder", "mfa_dim", None, "missing"),
    ("ck2", "encoder", "bogus", 1, "unknown"),
], ids=["cm1-embed_dim", "cm1-hidden", "cm1-fc2_out", "cm1-n_blocks", "cm2-channels",
        "cm2-mfa_dim", "cm2-bogus"])
def test_manifest_section_must_hold_exactly_its_fields(command, system, section, key, stored,
                                                       want, tiny_pipeline, tmp_path, capsys):
    """A manifest key deleted (stored None) or added is named in one line,
    with its section and whether it is missing or unknown, by every command
    that reads the config, and nothing is written.  Before, a missing key
    took the full preset's default."""
    tmp, sim, _, _ = tiny_pipeline
    ckpt = tmp_path / "ck"
    shutil.copytree(tmp / system / "final", ckpt)
    manifest = ckpt / "manifest.json"
    doc = json.loads(manifest.read_text())
    if stored is None:
        del doc["config"][section][key]
    else:
        doc["config"][section][key] = stored
    manifest.write_text(json.dumps(doc))
    wav = tmp_path / "u.wav"
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), wav)
    out = tmp_path / "out"
    data = ["--protocol", str(sim / "protocol.txt"), "--features", str(sim / "features")]
    argv = {"score": ["score", "--cm", {"ck": "1", "ck2": "2"}[system], *data,
                      "--ckpt", str(ckpt), "--out", str(out)],
            "analyze-tc": ["analyze-tc", "--wav", str(wav), "--ckpt", str(ckpt), "--k", "3",
                           "--out", str(out)],
            "analyze-dist": ["analyze-dist", *data, "--ckpt", str(ckpt), "--out", str(out)],
            "train": sim_train_argv(sim, out, "--cm", "2", "--init-ckpt", str(ckpt))}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd {command}: checkpoint config incomplete: {section}.{key} is {want}"]
    assert not out.exists()


def test_checkpoint_with_equal_lane_widths_exits_two(tiny_pipeline, tmp_path, capsys):
    """A checkpoint whose encoder config gives two lanes one width (here
    mfa_dim 48 = 3 dilations x 16 channels, once accepted) no longer loads."""
    _, sim, ck, _ = tiny_pipeline
    _legacy_checkpoint(ck / "final", tmp_path / "ck", {"encoder": {"mfa_dim": 48}})
    out = tmp_path / "s.tsv"
    rc = main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "tcssd score: a map's width picks its lane, so these must differ: "
        "N_MELS = 80, mfa_dim = 48, len(dilations) * channels = 48"]
    assert not out.exists()


@pytest.mark.parametrize("manifest", [
    "[]", "5", '{"format_version": 1, "tensors": [{}]}',
    '{"format_version": 1, "tensors": {"a": 1}}',
], ids=["list", "number", "entry_without_fields", "tensors_not_a_list"])
def test_malformed_manifest_exits_two(manifest, tiny_pipeline, tmp_path, capsys):
    _, sim, ck, _ = tiny_pipeline
    shutil.copytree(ck / "final", tmp_path / "ck")
    (tmp_path / "ck" / "manifest.json").write_text(manifest)
    out = tmp_path / "s.tsv"
    rc = main(["score", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "corrupt manifest" in err
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ["offset_read_again", "name_repeated"])
def test_manifest_entries_must_be_packed_in_order_once_each(corrupt, tiny_pipeline, tmp_path,
                                                            capsys):
    """``save_checkpoint`` packs each tensor once, in manifest order, so an
    entry starts where the ones before it end and names a tensor not yet
    read.  An entry at offset 0 again (once loaded as a copy of the first
    tensor's floats) or a name given twice (once kept as its last entry)
    exits 2 naming the manifest and the entry; the saved one still loads."""
    _, sim, ck, _ = tiny_pipeline
    dst = tmp_path / "ck"
    shutil.copytree(ck / "final", dst)
    manifest = dst / "manifest.json"
    doc = json.loads(manifest.read_text())
    entries = doc["tensors"]
    if corrupt == "offset_read_again":
        entries[1]["offset"] = 0
    else:  # the last tensor again, with floats of its own after the others
        last = entries[-1]
        size = int(np.prod(last["shape"]))
        entries.append({**last, "offset": last["offset"] + size})
        with open(dst / "weights.bin", "ab") as fh:
            fh.write(np.ones(size, dtype="<f4").tobytes())
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "s.tsv"
    assert main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--ckpt", str(dst),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    bad = entries[1] if corrupt == "offset_read_again" else entries[-1]
    assert len(err) == 1 and err[0].startswith(f"tcssd score: corrupt manifest {manifest}: ")
    assert repr(bad) in err[0]
    assert not out.exists()
    assert load_checkpoint(ck / "final").tensors.keys() == {e["name"] for e in entries}


def test_config_file_and_inline_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# desk-scale tweak\nsim.n_frames = 64\nsim.dim = 12\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--seed", "2",
                 "--n-per-class", "2", "--config", str(cfg_file),
                 "--set", "sim.dim=10"]) == 0
    fea = load_feature_map(next((out / "features").glob("*.fea")))
    assert fea.values.shape == (64, 10)  # file value + inline override win


def test_unknown_config_key_exits_two(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--seed", "1",
               "--set", "sim.bogus=3"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["aam.n_classes=2", "encoder.n_blocks=3",
                                     "cm1.input_dim=24", "encoder.n_mels=80",
                                     "train.seed=3", "sim.seed=3"])
def test_derived_or_unread_config_keys_are_unknown(setting, capsys):
    """The class count, the block count, CM1's input width, the FBank width
    and per-stage seeds are not settings: the class count and the FBank
    width are fixed, the seed is the top-level ``seed``, and the others
    follow from other keys."""
    assert main(["count-params", "--set", setting]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_every_spelling_of_the_seed_is_one_setting(tmp_path, capsys):
    """--seed 5, --set seed=5 and a config file's ``seed = 5`` simulate the
    same maps under the same header; another seed changes both."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 5\n")
    runs = {"flag": ["--seed", "5"], "set": ["--set", "seed=5"],
            "file": ["--config", str(cfg_file)], "default": []}
    snaps = {}
    for name, argv in runs.items():
        assert main(["simulate", "--out", str(tmp_path / name), "--n-per-class", "2",
                     *argv]) == 0
        snaps[name] = dir_snapshot(tmp_path / name)
    assert snaps["set"] == snaps["flag"] == snaps["file"]
    assert b"seed=5" in snaps["flag"]["provenance.txt"]
    same = {name for name, data in snaps["default"].items() if data == snaps["flag"][name]}
    assert same == {"protocol.txt"}  # utterance ids and keys do not depend on the seed


def test_steps_flag_is_train_max_steps(tiny_pipeline, tmp_path, capsys):
    """train --steps 5 is --set train.max_steps=5: same header, same
    weights; --steps 2 trains less and says so in its config hash."""
    _, sim, ck, _ = tiny_pipeline  # trained with --seed 3 --steps 5
    common = ["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
              "--features", str(sim / "features"), "--seed", "3"]
    assert main([*common, "--out", str(tmp_path / "set5"),
                 "--set", "train.max_steps=5"]) == 0
    assert main([*common, "--out", str(tmp_path / "steps2"), "--steps", "2"]) == 0
    runs = {"steps5": ck, "set5": tmp_path / "set5", "steps2": tmp_path / "steps2"}
    header = {n: (d / "provenance.txt").read_text() for n, d in runs.items()}
    weights = {n: (d / "final" / "weights.bin").read_bytes() for n, d in runs.items()}
    assert header["set5"] == header["steps5"]
    assert weights["set5"] == weights["steps5"]
    config_line = {n: [l for l in h.splitlines() if l.startswith("# config=")]
                   for n, h in header.items()}
    assert len(config_line["steps5"]) == 1
    assert config_line["steps2"] != config_line["steps5"]
    assert weights["steps2"] != weights["steps5"]


def test_negative_steps_exit_two(tmp_path, capsys):
    """--steps is train.max_steps, checked with the config before any work."""
    rc = main(["train", "--cm", "1", "--protocol", str(tmp_path / "p.txt"),
               "--features", str(tmp_path), "--out", str(tmp_path / "ck"),
               "--steps", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "tcssd train: train.max_steps must be at least 0, got -1\n"
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("crop", [("1.0", "0.5"), ("0", "0.5"), ("-0.5", "0.5")],
                         ids=["min-above-max", "zero-min", "negative-min"])
def test_bad_crop_lengths_exit_two_before_any_checkpoint(tmp_path, capsys, crop):
    """crop_min_s above crop_max_s, or not above 0, is refused with the
    config, before init/ is written."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "2"]) == 0
    capsys.readouterr()
    rc = main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
               "--steps", "1", "--set", f"train.crop_min_s={crop[0]}",
               "--set", f"train.crop_max_s={crop[1]}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "train.crop_min_s" in err and "train.crop_max_s" in err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("setting", [
    "train.epochs=0", "train.warmup_steps=0",
    "train.batch_size=1", "train.batch_size=0", "train.base_lr=nan", "train.base_lr=inf",
    "train.base_lr=0", "train.beta1=1.5", "train.beta1=-0.1", "train.beta2=1",
    "train.eps=0", "train.eps=nan", "train.weight_decay=-5", "train.weight_decay=inf",
    "aam.scale=nan", "aam.scale=inf", "aam.margin=nan", "cm1.input_gain=nan",
    "cm1.carry_bias=inf"])
def test_training_constants_that_train_wrongly_exit_two_before_any_checkpoint(
        tmp_path, capsys, setting):
    """A batch of one holds no spoof, a non-finite learning rate writes NaN
    weights, and Adam's betas, eps and weight decay have ranges outside
    which it diverges or stalls: each is refused with the config, in one
    line naming the key, before --out exists."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "2"]) == 0
    capsys.readouterr()
    rc = main(["train", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
               "--steps", "1", "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert setting.partition("=")[0] in err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("setting", ["sim.noise_sigma=nan", "sim.base_scale=inf",
                                     "sim.drift_sigma=-1", "sim.base_scale=1e39"])
def test_simulate_scales_outside_the_finite_non_negative_exit_two(tmp_path, capsys,
                                                                  setting):
    """A NaN or infinite scale, or one whose frames overflow float32, made
    maps that every reader refuses: the simulator refuses it, naming the
    key, and writes nothing."""
    rc = main(["simulate", "--out", str(tmp_path / "sim"), "--n-per-class", "2",
               "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and setting.partition("=")[0] in err[0]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cm", ["1", "2"])
@pytest.mark.parametrize("setting", ["train.crop_min_s=0.001", "train.crop_min_s=0.005",
                                     "train.crop_max_s=inf", "train.crop_max_s=1e17"])
def test_crop_lengths_outside_whole_frames_exit_two_before_any_output(tmp_path, capsys,
                                                                      cm, setting):
    """A crop length must be finite and round to 1 to 2^63 - 1 frames at 100
    frames/s: a shorter one made empty crops, a longer one overflowed the
    crop draw.  Both are refused with the config, naming the key, before
    --out exists."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "2"]) == 0
    capsys.readouterr()
    rc = main(["train", "--cm", cm, "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
               "--steps", "1", "--set", setting])
    assert rc == 2
    key, _, value = setting.partition("=")
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd train: {key} must be finite and give 1 to 2^63 - 1 frames at "
        f"100 frames/s, got {float(value)}"]
    assert not (tmp_path / "ck").exists()


def test_one_frame_crops_train(tmp_path, capsys):
    """The shortest crop length, 0.01 s, is one frame; CM2 pools it."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "2"]) == 0
    assert main(["train", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
                 "--steps", "1", "--set", "train.crop_min_s=0.01",
                 "--set", "train.crop_max_s=0.01"]) == 0


@pytest.mark.parametrize("crop", [("0.01", "0.01"), ("0.014", "0.5")])
def test_cm1_crops_below_two_frames_exit_two_before_any_output(tmp_path, capsys, crop):
    """CM1 differences adjacent frames: a train.crop_min_s that rounds to one
    frame is refused naming the key, before --out exists."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--n-per-class", "2"]) == 0
    capsys.readouterr()
    rc = main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
               "--steps", "1", "--set", f"train.crop_min_s={crop[0]}",
               "--set", f"train.crop_max_s={crop[1]}"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "tcssd train: train.crop_min_s must give cm1 at least 2 frames to difference "
        f"at 100 frames/s, got {float(crop[0])}"]
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("setting, field", [
    ("encoder.res2_scale=0", "res2_scale"), ("encoder.dilations=0", "dilations"),
    ("encoder.channels=0", "channels"), ("cm1.hidden=0", "hidden"),
])
def test_architecture_size_below_one_exits_two(setting, field, capsys):
    assert main(["count-params", "--set", setting]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("setting, need, got", [
    *((f"encoder.{k}=0", "at least 1", "0")
      for k in ("channels", "res2_scale", "mfa_dim", "embed_dim", "att_dim")),
    *((f"cm1.{k}=0", "at least 1", "0") for k in ("hidden", "n_layers", "fc1_out", "fc2_out")),
    ("encoder.dilations=0", "one or more values of at least 1", "(0,)"),
    ("encoder.dilations=", "one or more values of at least 1", "()"),
    ("encoder.res2_scale=3", "a divisor of encoder.channels = 16", "3"),
    ("sim.dim=1", "at least 2", "1"), ("sim.n_frames=1", "at least 2", "1"),
    ("train.max_steps=-1", "at least 0", "-1"),
    ("train.crop_min_s=5", "above 0 and at most train.crop_max_s = 4.0", "5.0"),
    ("train.batch_size=1", "at least 2", "1"), ("aam.scale=0", "finite and positive", "0.0"),
    ("augment.max_freq_width=81", "in [0, N_MELS = 80]", "81"),
    ("sim.noise_sigma=-1", "finite and not negative", "-1.0"),
    ("cm1.carry_bias=inf", "finite", "inf"),
])
def test_bounded_config_key_refuses_naming_itself_and_its_value(setting, need, got,
                                                                tmp_path, capsys):
    """Every config section refuses in one form, ``<section>.<key> must be
    <need>, got <value>``; an empty value is given in a config file."""
    key, _, value = setting.partition("=")
    conf = tmp_path / "run.cfg"
    conf.write_text(f"{setting}\n")
    given = ["--set", setting] if value else ["--config", str(conf)]
    assert main(["count-params", *given]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd count-params: {key} must be {need}, got {got}"]


def test_dilations_alone_set_the_block_count(tmp_path, capsys):
    """Two dilations give a two-block encoder; none at all is refused."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "1",
                 "--n-per-class", "2"]) == 0
    assert main(["train", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--out", str(tmp_path / "ck"),
                 "--steps", "1", "--set", "encoder.dilations=2,3"]) == 0
    tensors = load_checkpoint(tmp_path / "ck" / "final").tensors
    blocks = {n.split(".")[1] for n in tensors if n.startswith("frontend.block")}
    assert sorted(blocks) == ["block1", "block2"]
    concat_width = 2 * toy_config().encoder.channels
    assert tensors["frontend.mfa.conv.w"].shape[1] == concat_width
    assert tensors["cm2.mfa.conv.w"].shape[1] == concat_width
    no_blocks = tmp_path / "none.cfg"
    no_blocks.write_text("encoder.dilations =\n")
    capsys.readouterr()
    assert main(["count-params", "--config", str(no_blocks)]) == 2
    assert ("encoder.dilations must be one or more values of at least 1, got ()"
            in capsys.readouterr().err)


def test_every_config_field_is_read_by_the_package():
    """A setting the package never reads does nothing but change the config
    hash.  Every section field must be read as ``<expr>.<field>`` in some
    module other than config.py; ``self.<field>`` does not count, since a
    config class validating itself or a layer's own attribute of the same
    name is not a use of the setting."""
    reads = set()
    for module in Path(tcssd.__file__).parent.glob("*.py"):
        if module.name == "config.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"):
                reads.add(node.attr)
    keys = [key for key in flat_dict(toy_config()) if key != "seed"]
    assert [key for key in keys if key.partition(".")[2] not in reads] == []


def test_runtime_imports_only_numpy_and_the_standard_library():
    """The package runs on numpy alone: every absolute import in
    ``src/tcssd`` names numpy or a standard-library module."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for module in sorted(Path(tcssd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{module.name}: {n}" for n in names
                        if n.partition(".")[0] not in allowed]
    assert foreign == []


def test_only_the_cli_imports_ctypes():
    """The heap policy is the CLI's: no other module of the package
    reaches native code, so no library call but ``cli.main`` changes the
    allocator."""
    importers = []
    for module in sorted(Path(tcssd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "ctypes" in {str(n).partition(".")[0] for n in names}:
                importers.append(module.name)
    assert importers == ["cli.py"]


def test_analysis_imports_no_model():
    """``analysis`` is model-free math and the simulator: the encoder reaches
    its sampler only as the ``embed`` that ``analyze-tc --wav`` passes."""
    tree = ast.parse((Path(tcssd.__file__).parent / "analysis.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module] if node.module else
                            [alias.name for alias in node.names])
    assert not {name.rpartition(".")[2] for name in imported} & {"encoder", "checkpoint"}


def test_config_sections_refuse_through_refuse_unless():
    """A config section's ``__post_init__`` refuses only through
    ``errors.refuse_unless``, which names ``<section>.<key>`` and its value;
    the encoder's lane-width relation, which names three quantities, is the
    one raise of its own."""
    sections = {"EncoderConfig", "Cm1Config", "TrainConfig", "AamConfig",
                "AugmentPolicy", "SimConfig"}
    seen, raises = set(), []
    for module in sorted(Path(tcssd.__file__).parent.glob("*.py")):
        text = module.read_text()
        assert "require_sizes" not in text, module.name
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and cls.name in sections:
                seen.add(cls.name)
                raises += [(cls.name, ast.unparse(node)) for fn in cls.body
                           if getattr(fn, "name", None) == "__post_init__"
                           for node in ast.walk(fn) if isinstance(node, ast.Raise)]
    assert seen == sections
    assert [name for name, _ in raises] == ["EncoderConfig"]
    assert "picks its lane" in raises[0][1]


def audio_corpus(tmp_path):
    """Six 1 s WAVs (drifting chirps bonafide, steady tones spoof), their
    FBank caches and protocol: (wav paths, feature dir, protocol path)."""
    rng = np.random.default_rng(0)
    wavs = []
    protocol_lines = []
    for i in range(6):
        stem = f"utt{i}"
        t = np.arange(16000) / 16000.0
        if i % 2 == 0:  # "bonafide": drifting chirp
            sig = 0.5 * np.sin(2 * np.pi * (300 + 40 * i + 100 * t) * t)
            protocol_lines.append(f"SPK {stem} - - bonafide")
        else:           # "spoof": steady tone
            sig = 0.5 * np.sin(2 * np.pi * (400 + 40 * i) * t)
            protocol_lines.append(f"SPK {stem} - A01 spoof")
        path = tmp_path / f"{stem}.wav"
        save_waveform(sig + 0.01 * rng.standard_normal(16000), path)
        wavs.append(str(path))
    feats = tmp_path / "feats"
    assert main(["extract", "--wav", *wavs, "--out", str(feats)]) == 0
    protocol = tmp_path / "protocol.txt"
    protocol.write_text("\n".join(protocol_lines) + "\n")
    return wavs, feats, protocol


# Training settings that fit the 1 s utterances of ``audio_corpus``.
AUDIO_TRAIN = ["--seed", "5", "--set", "train.batch_size=4",
               "--set", "train.crop_min_s=0.5", "--set", "train.crop_max_s=0.8"]


def test_audio_lane_end_to_end(tmp_path, capsys):
    """WAV -> extract -> frontend-toy -> cm1 (frozen frontend) -> score."""
    wavs, feats, protocol = audio_corpus(tmp_path)
    common = ["--protocol", str(protocol), "--features", str(feats), *AUDIO_TRAIN]
    fe_ck = tmp_path / "fe"
    assert main(["train", "--cm", "frontend-toy", *common,
                 "--out", str(fe_ck), "--steps", "3"]) == 0
    cm1_ck = tmp_path / "cm1"
    assert main(["train", "--cm", "1", *common, "--out", str(cm1_ck),
                 "--steps", "3", "--init-ckpt", str(fe_ck / "final")]) == 0
    scores = tmp_path / "s.tsv"
    assert main(["score", "--cm", "1", "--protocol", str(protocol),
                 "--features", str(feats), "--ckpt", str(cm1_ck / "final"),
                 "--out", str(scores), "--seed", "5"]) == 0
    body = [l for l in scores.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 6
    # frontend carried over frozen from the toy-frontend checkpoint
    fe = load_checkpoint(fe_ck / "final")
    cm1 = load_checkpoint(cm1_ck / "final")
    assert np.array_equal(fe.tensors["frontend.stem.conv.w"],
                          cm1.tensors["frontend.stem.conv.w"])
    # the two diagnostics run on the audio lane too
    matrix_out = tmp_path / "m.txt"
    assert main(["analyze-tc", "--wav", wavs[0], "--ckpt", str(fe_ck / "final"),
                 "--k", "3", "--out", str(matrix_out), "--seed", "5"]) == 0
    rows = [l for l in matrix_out.read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 4  # 3 start times + 3 matrix rows
    proj_out = tmp_path / "proj.tsv"
    assert main(["analyze-dist", "--protocol", str(protocol),
                 "--features", str(feats), "--ckpt", str(fe_ck / "final"),
                 "--out", str(proj_out), "--seed", "5"]) == 0
    assert len([l for l in proj_out.read_text().splitlines()
                if not l.startswith("#")]) == 6


@pytest.mark.parametrize("argv", [
    ["score", "--cm", "1", "--protocol", "{protocol}", "--features", "{feats}"],
    ["score", "--cm", "2", "--protocol", "{protocol}", "--features", "{feats}"],
    ["analyze-dist", "--protocol", "{protocol}", "--features", "{feats}"],
    ["analyze-tc", "--wav", "{wav}", "--k", "3"],
], ids=["score_cm1", "score_cm2", "analyze_dist", "analyze_tc_wav"])
def test_missing_tensor_on_fbank_maps_exits_two(argv, tiny_pipeline, tmp_path, capsys):
    """FBank maps pass the frozen frontend first: without its stem conv each
    command exits 2 naming that tensor and writes nothing."""
    _, _, ck, _ = tiny_pipeline
    wavs, feats, protocol = audio_corpus(tmp_path)
    strip_checkpoint(ck / "final", tmp_path / "ck",
                     lambda name: name == "frontend.stem.conv.w")
    out = tmp_path / "out.txt"
    paths = {"protocol": protocol, "feats": feats, "wav": wavs[0]}
    capsys.readouterr()
    rc = main([a.format(**paths) for a in argv]
              + ["--ckpt", str(tmp_path / "ck"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"tcssd {argv[0]}: missing tensor: frontend.stem.conv.w\n")
    assert not out.exists()


def test_init_checkpoint_of_another_encoder_config_exits_two(tmp_path, capsys):
    """Tensor shapes do not change with the dilations, so a frontend trained
    at 2,3,4 would load into a run at 5,6,7 and be recorded under the
    wrong config: the init checkpoint's encoder config must be the run's."""
    _, feats, protocol = audio_corpus(tmp_path)
    common = ["train", "--protocol", str(protocol), "--features", str(feats),
              "--steps", "1", *AUDIO_TRAIN]
    assert main([*common, "--cm", "frontend-toy", "--out", str(tmp_path / "fe")]) == 0
    capsys.readouterr()
    out = tmp_path / "ck"
    rc = main([*common, "--cm", "2", "--out", str(out),
               "--init-ckpt", str(tmp_path / "fe" / "final"),
               "--set", "encoder.dilations=5,6,7"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "tcssd train: the init checkpoint's encoder config differs from this run's: "
        "encoder.dilations [2, 3, 4] != [5, 6, 7]"]
    assert not out.exists()


def sim_train_argv(sim, out, *extra):
    return ["train", "--protocol", str(sim / "protocol.txt"), "--features",
            str(sim / "features"), "--out", str(out), "--seed", "3", "--steps", "1", *extra]


def test_init_tensor_of_another_shape_exits_two(tiny_pipeline, tmp_path, capsys):
    """A tensor the run keeps must have the shape the run's would: one
    line naming it and both shapes, before --out exists."""
    _, sim, _, _ = tiny_pipeline
    cfg = toy_config()
    init = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=0)
    want = init.tensors["cm2.proj.w"].shape
    init.tensors["cm2.proj.w"] = np.zeros((3, 3), dtype=np.float32)
    save_checkpoint(init, tmp_path / "init")
    capsys.readouterr()
    out = tmp_path / "ck"
    assert main(sim_train_argv(sim, out, "--cm", "2", "--init-ckpt",
                               str(tmp_path / "init"))) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"tcssd train: init checkpoint tensor cm2.proj.w has shape (3, 3), expected {want}"]
    assert not out.exists()


def test_cm2_from_cm1_init_neither_checks_nor_carries_its_head(tiny_pipeline, tmp_path):
    """A cm1 checkpoint's head is no part of a cm2 run, so a CM1 width
    that differs from it is no reason to refuse the init."""
    _, sim, ck, _ = tiny_pipeline
    out = tmp_path / "ck"
    assert main(sim_train_argv(sim, out, "--cm", "2", "--init-ckpt", str(ck / "final"),
                               "--set", "cm1.hidden=16")) == 0
    init = load_checkpoint(ck / "final")
    for name in ("init", "epoch_0001", "final"):
        saved = load_checkpoint(out / name)
        assert not [n for n in saved.tensors if n.startswith("cm1.")], name
        for n in saved.frozen_names:
            assert np.array_equal(saved.tensors[n], init.tensors[n]), (name, n)


def test_cm2_manifest_records_no_cm1_setting(tiny_pipeline, tmp_path):
    """A cm2 run reads no cm1 setting and its manifests record none, so
    --set cm1.hidden=16 leaves every manifest.json byte as it was."""
    _, sim, _, _ = tiny_pipeline
    for name, extra in (("plain", []), ("set", ["--set", "cm1.hidden=16"])):
        assert main(sim_train_argv(sim, tmp_path / name, "--cm", "2", *extra)) == 0
    for ck in ("init", "epoch_0001", "final"):
        plain, seen = (tmp_path / name / ck / "manifest.json" for name in ("plain", "set"))
        assert seen.read_bytes() == plain.read_bytes(), ck


def test_cm2_checkpoint_serves_its_encoder(tiny_pipeline, tmp_path, capsys):
    """A cm2 checkpoint records no cm1 config, and what reads only its
    encoder still runs on it: analyze-dist, analyze-tc --wav, and a cm1
    run that starts from its frozen frontend."""
    tmp, sim, _, _ = tiny_pipeline
    ck2 = tmp / "ck2" / "final"
    assert "cm1" not in json.loads((ck2 / "manifest.json").read_text())["config"]
    wav = tmp_path / "u.wav"
    save_waveform(0.1 * np.random.default_rng(0).standard_normal(16000), wav)
    for argv in (["analyze-dist", "--protocol", str(sim / "protocol.txt"), "--features",
                  str(sim / "features"), "--ckpt", str(ck2), "--out", str(tmp_path / "p.tsv")],
                 ["analyze-tc", "--wav", str(wav), "--ckpt", str(ck2), "--k", "3",
                  "--out", str(tmp_path / "m.txt")],
                 sim_train_argv(sim, tmp_path / "ck1", "--cm", "1", "--init-ckpt", str(ck2))):
        assert main(argv) == 0, capsys.readouterr().err
    init, cm1 = load_checkpoint(ck2), load_checkpoint(tmp_path / "ck1" / "final")
    assert cm1.config["cm1"] and cm1.frozen_names
    for name in cm1.frozen_names:
        assert np.array_equal(cm1.tensors[name], init.tensors[name]), name


@pytest.mark.parametrize("form, value, want", [
    ("flag", "-5", "seed must be at least 0, got -5"),
    ("set", "-1", "seed must be at least 0, got -1"),
    ("set", "abc", "bad value for 'seed': "),
    ("file", "-1", "seed must be at least 0, got -1"),
    ("file", "abc", "bad value for 'seed': "),
], ids=["flag_negative", "set_negative", "set_not_int", "file_negative", "file_not_int"])
def test_bad_seed_exits_two_before_out_exists(form, value, want, tiny_pipeline,
                                              tmp_path, capsys):
    """A seed is a generator's non-negative integer, whichever way it is
    given: one line on stderr, and train's --out is not made."""
    _, sim, _, _ = tiny_pipeline
    conf = tmp_path / "run.conf"
    conf.write_text(f"seed = {value}\n")
    given = {"flag": ["--seed", value], "set": ["--set", f"seed={value}"],
             "file": ["--config", str(conf)]}[form]
    out = tmp_path / "ck"
    argv = ["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
            "--features", str(sim / "features"), "--out", str(out), "--steps", "1", *given]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"tcssd train: {want}"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "train"])
def test_corrupt_manifest_config_exits_two(command, tiny_pipeline, tmp_path, capsys):
    """A manifest whose encoder config is not an object: one line, and
    nothing written."""
    tmp, sim, _, _ = tiny_pipeline
    shutil.copytree(tmp / "ck2" / "final", tmp_path / "bad")
    manifest = tmp_path / "bad" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["encoder"] = "xy"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "score":
        argv = ["score", "--cm", "2", "--protocol", str(sim / "protocol.txt"),
                "--features", str(sim / "features"), "--ckpt", str(tmp_path / "bad"),
                "--out", str(out)]
    else:
        argv = sim_train_argv(sim, out, "--cm", "2", "--init-ckpt", str(tmp_path / "bad"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"tcssd {command}: checkpoint config incomplete: ")
    assert not out.exists()


@pytest.mark.parametrize("cm", ["1", "2"])
def test_train_augment_for_cms_on_fbank_maps_exits_two(cm, tmp_path, capsys):
    """SpecAugment masks FBank bins, and the countermeasures train on
    encoded maps, which have none: the key is refused on FBank maps too,
    in one line, before --out exists."""
    _, feats, protocol = audio_corpus(tmp_path)
    capsys.readouterr()
    out = tmp_path / "ck"
    rc = main(["train", "--cm", cm, "--protocol", str(protocol), "--features", str(feats),
               "--out", str(out), "--steps", "1", *AUDIO_TRAIN,
               "--set", "train.augment=true"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "train.augment" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("setting, want", [
    ("n_freq_masks=-3", "augment.n_freq_masks must be at least 0, got -3"),
    ("max_freq_width=-1", "augment.max_freq_width must be in [0, N_MELS = 80], got -1"),
    ("max_freq_width=100", "augment.max_freq_width must be in [0, N_MELS = 80], got 100"),
    ("n_time_masks=-1", "augment.n_time_masks must be at least 0, got -1"),
    ("max_time_width=-2", "augment.max_time_width must be at least 0, got -2"),
    ("max_time_width=51",
     "augment.max_time_width must be at most the 50 frames of train.crop_min_s, got 51"),
], ids=["n_freq_masks_negative", "max_freq_width_negative", "max_freq_width_over_n_mels",
        "n_time_masks_negative", "max_time_width_negative", "max_time_width_over_crop"])
def test_bad_augment_policy_exits_two_before_out_exists(setting, want, tmp_path, capsys):
    """A mask count or width that would train without masks or fail mid-run
    (a time mask wider than the shortest crop, here 0.5 s) is refused in
    one line naming the key, and --out is not made."""
    _, feats, protocol = audio_corpus(tmp_path)
    out = tmp_path / "ck"
    capsys.readouterr()
    assert main(["train", "--cm", "frontend-toy", "--protocol", str(protocol),
                 "--features", str(feats), "--out", str(out), "--steps", "1", *AUDIO_TRAIN,
                 "--set", "train.augment=true", "--set", f"augment.{setting}"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"tcssd train: {want}"]
    assert not out.exists()


def test_augment_time_mask_may_span_the_shortest_crop(tmp_path, capsys):
    """The time-width bound is inclusive: a mask as wide as the 0.5 s
    shortest crop trains."""
    _, feats, protocol = audio_corpus(tmp_path)
    assert main(["train", "--cm", "frontend-toy", "--protocol", str(protocol),
                 "--features", str(feats), "--out", str(tmp_path / "ck"), "--steps", "2",
                 *AUDIO_TRAIN, "--set", "train.augment=true",
                 "--set", "augment.max_time_width=50"]) == 0, capsys.readouterr().err


def test_train_augment_deterministic_and_applied(tmp_path, capsys):
    """frontend-toy with SpecAugment on: two runs give byte-identical
    checkpoints, and the weights differ from a run with it off."""
    _, feats, protocol = audio_corpus(tmp_path)
    common = ["train", "--cm", "frontend-toy", "--protocol", str(protocol),
              "--features", str(feats), "--steps", "3", *AUDIO_TRAIN]
    for name, augment in (("on_a", "true"), ("on_b", "true"), ("off", "false")):
        assert main([*common, "--out", str(tmp_path / name),
                     "--set", f"train.augment={augment}"]) == 0
    on_a, on_b, off = (dir_snapshot(tmp_path / name) for name in ("on_a", "on_b", "off"))
    assert on_a == on_b
    assert on_a["final/weights.bin"] != off["final/weights.bin"]
