"""Command-line contract tests: exit codes, formats, determinism."""

import ast
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import tcssd
from tcssd.checkpoint import load_checkpoint, save_checkpoint
from tcssd.cli import main
from tcssd.config import flat_dict, toy_config
from tcssd.frontend import (FeatureMap, Waveform, load_feature_map, load_waveform,
                            save_feature_map, save_waveform)

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
    save_waveform(Waveform(samples=np.zeros(16000)), src)
    rc = main(["trim", "--top-db", "40", str(src), str(tmp_path / "o.wav")])
    assert rc == 2
    assert "empty after trim" in capsys.readouterr().err


def test_trim_tone_keeps_tone(tmp_path, capsys):
    t = np.arange(8000) / 16000.0
    tone = 0.8 * np.sin(2 * np.pi * 440 * t)
    samples = np.concatenate([np.zeros(16000), tone, np.zeros(16000)])
    src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
    save_waveform(Waveform(samples=samples), src)
    assert main(["trim", str(src), str(dst)]) == 0
    out = load_waveform(dst)
    assert 8000 <= out.samples.size < 16000 + 8000


def test_extract_writes_feature_cache(tmp_path, capsys):
    wav = tmp_path / "a.wav"
    rng = np.random.default_rng(0)
    save_waveform(Waveform(samples=rng.uniform(-0.3, 0.3, 32000)), wav)
    out = tmp_path / "feats"
    assert main(["extract", "--wav", str(wav), "--out", str(out)]) == 0
    f = load_feature_map(out / "a.fea")
    assert f.values.shape == (198, 80)
    assert (out / "provenance.txt").exists()


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


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """simulate -> train(5 steps) -> score for CLI contract checks."""
    tmp = tmp_path_factory.mktemp("cli_pipe")
    sim = tmp / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "3",
                 "--n-per-class", "6"]) == 0
    ck = tmp / "ck"
    assert main(["train", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
                 "--features", str(sim / "features"), "--out", str(ck),
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
               "--seg-frames", "30", "--out", str(out), "--seed", "1"])
    assert rc == 0
    lines = [l for l in out.read_text().strip().split("\n")
             if not l.startswith("#")]
    assert len(lines) == 5  # k start times + k rows
    assert "tc_mean=" in capsys.readouterr().out


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
    _, sim, ck, _ = tiny_pipeline
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
    _, sim, ck, _ = tiny_pipeline
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
               "--ckpt", str(ck / "final"), "--seg-frames", "30", "--out", str(out)])
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
    """A manifest that stores cm1.input_dim 32 beside a 24-wide tap is
    refused where it is loaded."""
    _, sim, ck, _ = tiny_pipeline
    _legacy_checkpoint(ck / "final", tmp_path / "ck", {"cm1": {"input_dim": 32}})
    out = tmp_path / "s.tsv"
    rc = main(["score", "--cm", "1", "--protocol", str(sim / "protocol.txt"),
               "--features", str(sim / "features"), "--ckpt", str(tmp_path / "ck"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cm1.input_dim" in err and "encoder.mfa_dim" in err
    assert not out.exists()


def test_legacy_manifest_keys_checked_against_derived_values(tiny_pipeline, tmp_path,
                                                             capsys):
    """Stored encoder.n_blocks, encoder.n_mels and cm1.input_dim load when
    they equal the derived values (same scores); a wrong block count or an
    FBank width other than N_MELS (80) exits 2."""
    _, sim, ck, scores = tiny_pipeline
    args = ["--protocol", str(sim / "protocol.txt"), "--features", str(sim / "features"),
            "--seed", "3"]
    _legacy_checkpoint(ck / "final", tmp_path / "ok",
                       {"encoder": {"n_blocks": 3, "n_mels": 80}, "cm1": {"input_dim": 24}})
    assert main(["score", "--cm", "1", *args, "--ckpt", str(tmp_path / "ok"),
                 "--out", str(tmp_path / "ok.tsv")]) == 0
    assert (tmp_path / "ok.tsv").read_bytes() == scores.read_bytes()
    for name, stored, keys in (
            ("bad", {"n_blocks": 4}, ("encoder.n_blocks", "encoder.dilations")),
            ("mels", {"n_mels": 64}, ("encoder.n_mels", "frontend.N_MELS"))):
        _legacy_checkpoint(ck / "final", tmp_path / name, {"encoder": stored})
        capsys.readouterr()
        assert main(["score", "--cm", "1", *args, "--ckpt", str(tmp_path / name),
                     "--out", str(tmp_path / f"{name}.tsv")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)
        assert not (tmp_path / f"{name}.tsv").exists()


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
    assert capsys.readouterr().err == "tcssd train: max_steps must be at least 0, got -1\n"
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
    assert "need at least one block dilation" in capsys.readouterr().err


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
        save_waveform(Waveform(samples=sig + 0.01 * rng.standard_normal(16000)), path)
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
